import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criteria import geom
from criteria.errors import DegenerateHeadingError, InvalidMapError

from conftest import (
    assert_cover_matches,
    reference_grid_mask,
    reference_in_polygon,
    reference_normalize_ring,
    reference_polyline,
    reference_rasterize_occupancy,
    reference_ring_table,
)


def random_convex_polygon(rng, n=8, radius=10.0):
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    radii = rng.uniform(0.5 * radius, radius, size=n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def halfplane_contains(p, ring):
    """Convex-polygon oracle: point left of (or on) every CCW edge."""
    ring = geom.RingTable([ring]).rings[0]
    a = ring
    b = np.roll(ring, -1, axis=0)
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        p[0] - a[:, 0]
    )
    return bool((cross >= 0).all())


class TestPointInPolygon:
    def test_interior(self, unit_square):
        assert geom.points_in_polygon((0.5, 0.5), unit_square)[0]

    def test_outside(self, unit_square):
        assert not geom.points_in_polygon((2.0, 0.0), unit_square)[0]

    def test_boundary_counts_inside(self, unit_square):
        assert geom.points_in_polygon((1.0, 0.5), unit_square)[0]
        assert geom.points_in_polygon((0.0, 0.0), unit_square)[0]

    def test_degenerate_polygon_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(InvalidMapError):
            geom.points_in_polygon((0.0, 0.0), flat)

    def test_matches_halfplane_oracle(self):
        rng = np.random.default_rng(7)
        poly = random_convex_polygon(rng)
        pts = rng.uniform(-12, 12, size=(1000, 2))
        near_boundary = geom.distance_to_ring(pts, poly) <= 1e-6
        got = geom.points_in_polygon(pts, poly)
        want = np.array([halfplane_contains(p, poly) for p in pts])
        assert (got[~near_boundary] == want[~near_boundary]).all()

    def test_rigid_motion_invariance(self, unit_square):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 2, size=(200, 2))
        off_band = geom.distance_to_ring(pts, unit_square) > 1e-6
        base = geom.points_in_polygon(pts, unit_square)
        theta, shift = 0.7, np.array([11.0, -4.0])
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = geom.points_in_polygon(pts @ rot.T + shift, unit_square @ rot.T + shift)
        assert (base[off_band] == moved[off_band]).all()


def edge_crossings(table, ys) -> np.ndarray:
    """The x of every crossing of a row ``ys[j]`` with an edge of ``table``
    that straddles it (``ey0 <= y < ey1``, the half-open rule), row by row."""
    x1, y1, dx, dy, _, ey0, _, ey1 = table.edges
    y = ys[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = x1 + (y - y1) * dx / dy
    return cross[(ey0 <= y) & (y < ey1)]


class TestRing:
    @pytest.mark.parametrize("eps", [geom.BOUNDARY_EPS, 0.0, 0.05])
    def test_contains_matches_reference(self, eps):
        """Random points, and vertices and edge midpoints nudged by 0,
        +-1e-9 and +-1e-6 on each axis."""
        rng = np.random.default_rng(11)
        poly = random_convex_polygon(rng)
        anchors = np.vstack([poly, (poly + np.roll(poly, -1, axis=0)) / 2])
        nudges = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 0.03, -0.03])
        dx, dy = np.meshgrid(nudges, nudges)
        near = (anchors[:, None, :] + np.column_stack([dx.ravel(), dy.ravel()])).reshape(-1, 2)
        pts = np.vstack([rng.uniform(-12, 12, size=(500, 2)), near])
        want = reference_in_polygon(pts, poly, eps)
        np.testing.assert_array_equal(geom.points_in_polygon(pts, poly, eps), want)
        # a clockwise ring is turned counter-clockwise first, as a map's is
        np.testing.assert_array_equal(
            geom.points_in_polygon(pts, poly[::-1], eps),
            reference_in_polygon(pts, reference_normalize_ring(poly[::-1]), eps),
        )

    def test_degenerate_polygon_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(InvalidMapError):
            geom.points_in_polygon([(0.5, 0.25)], flat)

    @pytest.mark.parametrize("ring,error", [
        ([[0.0, 0.0], [1.0, 1.0]], InvalidMapError),  # two vertices
        ([[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]], ValueError),
        ([[0.0, 0.0], [2e150, 0.0], [0.0, 2e150]], ValueError),  # beyond COORD_LIMIT
    ])
    def test_bad_ring_rejected(self, ring, error):
        """The ring is refused as a map refuses it, with the same message."""
        with pytest.raises(error) as e:
            geom.points_in_polygon([(0.5, 0.25)], np.array(ring))
        with pytest.raises(error) as want:
            geom.RingTable([ring])
        assert str(e.value) == str(want.value)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 0.13])
    def test_grid_matches_point_scan(self, seed, offset):
        """Grid lines through the vertices, nudged by ``offset``, put points
        on edges, on vertices and inside and outside the epsilon band."""
        rng = np.random.default_rng(seed)
        poly = random_convex_polygon(rng, n=6)
        if seed % 2:
            poly = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 1.0],
                             [0.0, 3.0]])  # concave, axis-aligned edges
        xs = np.unique(np.concatenate([poly[:, 0] + offset,
                                       np.linspace(-11.0, 11.0, 23)]))
        ys = np.unique(np.concatenate([poly[:, 1] - offset,
                                       np.linspace(-11.0, 11.0, 23)]))
        want = reference_grid_mask(xs, ys, [poly])
        assert_cover_matches(geom.RingTable([poly]).grid(xs, ys), want)

    def test_grid_of_overlapping_rings(self, unit_square):
        """Runs of nested, overlapping and disjoint rings add up on a row."""
        rings = [unit_square * 4, unit_square + 1.5, unit_square * 2 + 3.0,
                 unit_square + 7.0]
        xs = np.linspace(-1.0, 9.0, 41)
        ys = np.linspace(-1.0, 9.0, 21)
        got = geom.RingTable(rings).grid(xs, ys)
        assert_cover_matches(got, reference_grid_mask(xs, ys, rings))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [0.0, 3e7])
    def test_grid_through_edge_crossings(self, seed, offset):
        """Grid columns at the rows' exact edge crossings put cell centers on
        the boundary, also far from the origin, where one unit in the last
        place of a coordinate is wider than the boundary band."""
        rng = np.random.default_rng(seed)
        poly = random_convex_polygon(rng, n=7) + offset
        table = geom.RingTable([poly])
        ys = np.linspace(poly[:, 1].min(), poly[:, 1].max(), 17)
        xs = np.unique(np.concatenate([
            edge_crossings(table, ys),
            np.linspace(poly[:, 0].min(), poly[:, 0].max(), 9),
        ]))
        want = reference_grid_mask(xs, ys, [poly])
        assert_cover_matches(table.grid(xs, ys), want)

    @settings(max_examples=60)
    @given(
        angle=st.floats(20.0, 70.0),
        length=st.floats(30.0, 120.0),
        width=st.floats(1.0, 10.0),
        cell=st.sampled_from((0.37, 0.5, 1.0)),
        offset=st.sampled_from((0.0, 3e7)),
        data=st.data(),
    )
    def test_grid_of_rotated_long_ring(self, angle, length, width, cell, offset,
                                       data):
        """A long rectangle turned 20-70 degrees: its band cells lie along
        diagonal edges that cross many rows and columns. Grid centers at a
        vertex nudged by 0, +-eps, +-``BOX_PAD`` or a half cell, and columns
        at the rows' exact edge crossings."""
        a = math.radians(angle)
        turn = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        rect = np.array([[0.0, 0.0], [length, 0.0], [length, width], [0.0, width]])
        poly = rect @ turn.T + offset
        table = geom.RingTable([poly])
        nudges = (0.0, geom.BOUNDARY_EPS, -geom.BOUNDARY_EPS, geom.BOX_PAD,
                  -geom.BOX_PAD, cell / 2)
        corner = poly[data.draw(st.integers(0, 3))] + [
            data.draw(st.sampled_from(nudges)), data.draw(st.sampled_from(nudges))
        ]
        steps = np.arange(-60, 61) * cell
        ys = corner[1] + steps
        xs = np.unique(np.concatenate([corner[0] + steps,
                                       edge_crossings(table, ys)[::3]]))
        want = reference_grid_mask(xs, ys, [poly])
        assert_cover_matches(table.grid(xs, ys), want)

    def test_grid_outside_every_ring_is_empty(self, unit_square):
        got = geom.RingTable([unit_square]).grid(np.array([5.0, 6.0]),
                                                 np.array([0.5]))
        assert_cover_matches(got, np.zeros((2, 1), dtype=bool))


class TestArcLength:
    def test_345(self):
        assert geom.arc_length([(0, 0), (3, 4)]) == 5.0

    def test_unit_steps(self):
        assert geom.arc_length([(0, 0), (1, 0), (1, 1)]) == 2.0

    def test_per_segment_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 2))
        want = sum(
            math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)
        )
        assert geom.arc_length(pts) == pytest.approx(want, rel=1e-12)

    def test_one_point_rejected(self):
        with pytest.raises(ValueError, match="polyline needs >= 2 points"):
            geom.arc_length([(1.0, 2.0)])

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(10, 2))
        b = np.vstack([a[-1], rng.normal(size=(9, 2))])
        whole = np.vstack([a, b[1:]])
        assert geom.arc_length(whole) == pytest.approx(
            geom.arc_length(a) + geom.arc_length(b), rel=1e-12
        )


# 2-vector components from zero through subnormals to the coordinate limit
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e150, -1e150]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e150, 1e150),
)


class TestNorms:
    @given(st.lists(st.tuples(_COMPONENTS, _COMPONENTS), min_size=1, max_size=24))
    def test_equals_linalg_norm_bit_for_bit(self, rows):
        v = np.array(rows, float)
        for shape in ((len(rows), 2), (1, len(rows), 2), (2,) if len(rows) == 1 else (-1, 1, 2)):
            w = v.reshape(shape)
            assert geom.norms(w).tobytes() == np.linalg.norm(w, axis=-1).tobytes()


def heading(v) -> float:
    return float(geom.headings(np.array([v], float))[0])


class TestHeading:
    @pytest.mark.parametrize(
        "v,want",
        [((1, 0), 0.0), ((0, 1), math.pi / 2), ((-1, 0), math.pi)],
    )
    def test_axes(self, v, want):
        assert heading(v) == pytest.approx(want)

    def test_range(self):
        assert heading((-1, -1e-9)) <= math.pi
        assert heading((-1, -0.0)) == math.pi

    def test_degenerate(self):
        """A vector no longer than DEGENERATE_EPS has no heading."""
        assert math.isnan(heading((1e-9, 0)))
        assert math.isnan(heading((geom.DEGENERATE_EPS, 0)))
        assert not math.isnan(heading((2 * geom.DEGENERATE_EPS, 0)))


class TestAngleBetween:
    @pytest.mark.parametrize(
        "v1,v2,want",
        [
            ((1, 0), (0, 1), math.pi / 2),
            ((1, 0), (1, 0), 0.0),
            ((1, 0), (-1, 0), math.pi),
        ],
    )
    def test_basics(self, v1, v2, want):
        assert geom.angles_between(v1, v2)[0] == pytest.approx(want)

    @pytest.mark.parametrize("v1, v2", [
        ([(1, 0), (0, 0)], [(0, 1), (0, 1)]),
        ([(1, 0)], [(geom.DEGENERATE_EPS, 0)]),
    ], ids=["zero_first", "short_second"])
    def test_degenerate_vector_rejected(self, v1, v2):
        with pytest.raises(DegenerateHeadingError):
            geom.angles_between(v1, v2)

    @settings(max_examples=50)
    @given(
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(0, 2 * math.pi), st.floats(0.1, 5),
    )
    def test_symmetric_and_invariant(self, x1, y1, x2, y2, theta, scale):
        v1, v2 = np.array([x1, y1]), np.array([x2, y2])
        if np.linalg.norm(v1) < 1e-3 or np.linalg.norm(v2) < 1e-3:
            return
        a = geom.angles_between(v1, v2)[0]
        assert a == geom.angles_between(v2, v1)[0]
        assert 0 <= a <= math.pi
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        # acos is ill-conditioned near parallel vectors, hence the tolerance
        b = geom.angles_between(scale * rot @ v1, scale * rot @ v2)[0]
        assert b == pytest.approx(a, abs=1e-7)


class TestNearestOnPolyline:
    def test_perpendicular_drop(self):
        foot, offset = geom.nearest_on_polyline((3, 4), [(0, 0), (10, 0)])
        assert foot == pytest.approx([3, 0])
        assert offset == pytest.approx(3)

    def test_vertex_uses_following_segment(self):
        pl = [(0, 0), (5, 0), (5, 5)]
        foot, offset = geom.nearest_on_polyline((5, 0), pl)
        assert foot == pytest.approx([5, 0])
        assert offset == pytest.approx(5)
        _, _, segs, tangents, lo, hi = geom.lay_out_polylines([pl])
        (seg,), _ = geom.nearest_segments((5, 0), lo, hi, segs)
        assert tangents[seg] == pytest.approx(math.pi / 2)  # the next segment's

    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pl = np.cumsum(rng.normal(size=(6, 2)), axis=0)
            p = rng.normal(scale=3, size=2)
            foot, _ = geom.nearest_on_polyline(p, pl)
            # dense samples along every segment
            t = np.linspace(0, 1, 2000)[:, None]
            samples = np.concatenate(
                [pl[i] + t * (pl[i + 1] - pl[i]) for i in range(len(pl) - 1)]
            )
            dense_min = np.linalg.norm(samples - p, axis=1).min()
            assert np.linalg.norm(foot - p) <= dense_min + 1e-9


# coordinates that make good rings and lines, collinear or repeated points,
# areas near RingTable's 1e-12 zero-area threshold, and points out of range
COORDS = st.one_of(
    st.floats(-100, 100),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1e-6, -1e-6, 2e-6, 1e-7, geom.COORD_LIMIT, -1e151]),
)
# good and bad point blocks: lists of pairs (on a small grid, where
# repeated points make zero-length segments, or empty, short or with NaN or
# inf), lists of triples, and a bare pair
BLOCKS = st.one_of(
    st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=2, max_size=8),
    st.lists(st.tuples(COORDS, COORDS), max_size=40),
    st.lists(st.tuples(st.one_of(COORDS, st.sampled_from([math.nan, math.inf])),
                       COORDS), min_size=1, max_size=5),
    st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=1, max_size=3),
    st.tuples(COORDS, COORDS),
)
POINT_LISTS = st.lists(BLOCKS, max_size=5)


@st.composite
def _near_flat_rings(draw):
    """8 to 60 points along one line, far from the origin: the shoelace
    terms are large and cancel, up to rounding."""
    a = np.array([draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))])
    d = np.array([draw(st.floats(-1, 1)), draw(st.floats(-1, 1))])
    steps = draw(st.lists(st.floats(-1e4, 1e4), min_size=8, max_size=60))
    return [tuple(a + t * d) for t in steps]


def _outcome(f, items):
    """What ``f(items)`` returns, as bytes, or its error with its ``index``."""
    try:
        out = f(items)
    except (InvalidMapError, ValueError) as e:
        return type(e).__name__, str(e), e.index
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


def _per_item(make):
    """``make`` run on each item in turn; the first error raised gets the
    item's position as its ``index``."""
    def run(items):
        out = []
        for i, item in enumerate(items):
            try:
                out.append(make(item))
            except (InvalidMapError, ValueError) as e:
                e.index = i
                raise
        return out
    return run


def _ring_table(rings):
    table = geom.RingTable(rings)
    return [*table.rings, table.edges, table.ring_of, table.boxes]


def _reference_ring_table(rings):
    rings = _per_item(reference_normalize_ring)(rings)
    return [*rings, *reference_ring_table(rings)]


def _polyline_fields(lines):
    return [line[key] for line in lines for key in ("points", "a", "ab", "tangents")]


def _laid_out(lines):
    """``geom.lay_out_polylines(lines)`` split into each line's fields, after
    checking that the runs tile the segment table and the points in order."""
    arrays, points, segs, tangents, lo, hi = geom.lay_out_polylines(lines)
    bounds = np.append(0, hi)
    assert lo.tolist() == bounds[:-1].tolist() and bounds[-1] == segs.shape[1]
    assert len(points) == segs.shape[1] + len(arrays) and len(tangents) == segs.shape[1]
    out = []
    for i, p in enumerate(arrays):
        assert points[lo[i] + i:hi[i] + i + 1].tobytes() == p.tobytes()
        out.append(dict(points=p, a=segs[:2, lo[i]:hi[i]].T, ab=segs[2:, lo[i]:hi[i]].T,
                        tangents=tangents[lo[i]:hi[i]]))
    return out


class TestBatchedConstructors:
    """The one-pass ring and polyline constructors against per-item
    references (``tests/conftest.py``): every array bit for bit, and the
    first bad item's error, at its position."""

    @given(POINT_LISTS)
    def test_ring_table_matches_per_ring(self, rings):
        """Each ring as the table has it, its edge table, each edge's ring
        and each ring's padded box."""
        assert _outcome(_ring_table, rings) == _outcome(_reference_ring_table, rings)

    @given(st.lists(st.one_of(
        st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                 min_size=3, max_size=200),
        _near_flat_rings(),
    ), min_size=1, max_size=4))
    def test_ring_table_signed_areas_match_per_ring(self, rings):
        """Rings of 8 or more vertices, whose shoelace terms ``np.sum`` adds
        pairwise, some of them flat up to rounding, so that the order of the
        sum decides their orientation or rejection: each ring is turned
        around exactly when its ``signed_area`` is negative, and its edges
        are laid out as turned."""
        assert _outcome(_ring_table, rings) == _outcome(_reference_ring_table, rings)

    @given(POINT_LISTS)
    def test_polyline_many_matches_per_line(self, lines):
        want = _outcome(lambda ls: _polyline_fields(_per_item(reference_polyline)(ls)),
                        lines)
        assert _outcome(lambda ls: _polyline_fields(_laid_out(ls)), lines) == want

    def test_tangent_raises_where_there_is_none(self):
        """A line with no segment longer than DEGENERATE_EPS has no tangent
        anywhere, so it is refused at its position, before a later bad line."""
        lines = [[(0, 0), (1, 0)], [(0, 0), (0, 0), (1e-6, 0)], [(0, 0)]]
        with pytest.raises(ValueError, match="no usable direction") as e:
            geom.lay_out_polylines(lines)
        assert e.value.index == 1


class TestGridIndex:
    def test_radius_filtering(self):
        idx = geom.GridIndex(
            {"near": np.array([[3.0, 4.0]]), "far": np.array([[150.0, 0.0]])}
        )
        assert idx.query_radius((0, 0), 100) == ["near"]

    def test_whole_map(self):
        idx = geom.GridIndex(
            {"a": np.array([[1.0, 1.0]]), "b": np.array([[50.0, 50.0]])}
        )
        assert idx.query_radius((0, 0), 1e4) == ["a", "b"]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        shapes = {
            f"i{j}": rng.uniform(-100, 100, size=(rng.integers(1, 5), 2))
            for j in range(40)
        }
        idx = geom.GridIndex(shapes, cell_size=10.0)
        center = rng.uniform(-100, 100, size=2)
        r = float(rng.uniform(5, 80))
        want = sorted(
            k
            for k, pts in shapes.items()
            if np.linalg.norm(pts - center, axis=1).min() <= r
        )
        assert idx.query_radius(center, r) == want


def _cells(points, roi, cell) -> set[tuple[int, int]]:
    cells = geom.rasterize_occupancy(points, roi, cell)
    assert cells.shape[1:] == (2,)
    return set(map(tuple, cells.tolist()))


class TestRasterizeOccupancy:
    ROI = (0.0, 0.0, 10.0, 10.0)

    def test_corner_point(self):
        assert _cells([(0.0, 0.0)], self.ROI, 1.0) == {(0, 0)}

    def test_dedup(self):
        cells = geom.rasterize_occupancy([(0.2, 0.2), (0.8, 0.9)], self.ROI, 1.0)
        assert cells.tolist() == [[0, 0]]

    def test_line_of_points(self):
        pts = [(float(i) + 0.25, 0.25) for i in range(30)]
        roi = (0.0, 0.0, 30.0, 30.0)
        cells = geom.rasterize_occupancy(pts, roi, 0.5)
        assert len(cells) == 30

    def test_outside_roi_ignored(self):
        assert _cells([(50.0, 50.0)], self.ROI, 1.0) == set()

    def test_fine_grid_keys_stay_exact(self):
        """About 1e18 cells: the integer cell keys come close to int64's
        limit and must still order and split back exactly."""
        roi = (0.0, 0.0, 100.0, 100.0)
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.uniform(0.0, 100.0, size=(200, 2)), [(100.0, 100.0)]])
        cells = geom.rasterize_occupancy(pts, roi, 1e-7)
        assert set(map(tuple, cells.tolist())) == reference_rasterize_occupancy(
            pts, roi, 1e-7
        )
        assert cells.tolist() == sorted(cells.tolist())

    def test_grid_beyond_int64_keys_rejected(self):
        with pytest.raises(ValueError):
            geom.rasterize_occupancy([(0.5, 0.5)], (0.0, 0.0, 100.0, 100.0), 1e-9)

    @pytest.mark.parametrize("roi, cell, error", [
        (ROI, 0.0, "cell must be positive"),
        (ROI, -1.0, "cell must be positive"),
        ((0.0, 0.0, 0.0, 10.0), 1.0, "empty roi"),
        ((0.0, 10.0, 10.0, 5.0), 1.0, "empty roi"),
    ], ids=["zero_cell", "negative_cell", "flat_roi", "inverted_roi"])
    def test_bad_grid_rejected(self, roi, cell, error):
        with pytest.raises(ValueError, match=error):
            geom.rasterize_occupancy([(0.5, 0.5)], roi, cell)
