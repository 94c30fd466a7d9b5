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
    reference_rasterize_occupancy,
)


def random_convex_polygon(rng, n=8, radius=10.0):
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    radii = rng.uniform(0.5 * radius, radius, size=n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def halfplane_contains(p, ring):
    """Convex-polygon oracle: point left of (or on) every CCW edge."""
    ring = geom.normalize_ring(ring)
    a = ring
    b = np.roll(ring, -1, axis=0)
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        p[0] - a[:, 0]
    )
    return bool((cross >= 0).all())


class TestPointInPolygon:
    def test_interior(self, unit_square):
        assert geom.point_in_polygon((0.5, 0.5), unit_square)

    def test_outside(self, unit_square):
        assert not geom.point_in_polygon((2.0, 0.0), unit_square)

    def test_boundary_counts_inside(self, unit_square):
        assert geom.point_in_polygon((1.0, 0.5), unit_square)
        assert geom.point_in_polygon((0.0, 0.0), unit_square)

    def test_degenerate_polygon_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(InvalidMapError):
            geom.point_in_polygon((0.0, 0.0), flat)

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
        np.testing.assert_array_equal(geom.Ring(poly).contains(pts, eps), want)
        np.testing.assert_array_equal(geom.points_in_polygon(pts, poly, eps), want)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InvalidMapError):
            geom.Ring(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

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
        got = geom.grid_in_rings(xs, ys, *geom.edge_table([poly]))
        assert_cover_matches(got, want)

    def test_grid_of_overlapping_rings(self, unit_square):
        """Runs of nested, overlapping and disjoint rings add up on a row."""
        rings = [unit_square * 4, unit_square + 1.5, unit_square * 2 + 3.0,
                 unit_square + 7.0]
        xs = np.linspace(-1.0, 9.0, 41)
        ys = np.linspace(-1.0, 9.0, 21)
        got = geom.grid_in_rings(
            xs, ys, *geom.edge_table(rings)
        )
        assert_cover_matches(got, reference_grid_mask(xs, ys, rings))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [0.0, 3e7])
    def test_grid_through_edge_crossings(self, seed, offset):
        """Grid columns at the rows' exact edge crossings put cell centers on
        the boundary, also far from the origin, where one unit in the last
        place of a coordinate is wider than the boundary band."""
        rng = np.random.default_rng(seed)
        poly = random_convex_polygon(rng, n=7) + offset
        ring = geom.Ring(poly)
        ys = np.linspace(poly[:, 1].min(), poly[:, 1].max(), 17)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = ring.x1 + (ys[:, None] - ring.y1) * ring.dx / ring.dy
        straddles = (ring.y1 > ys[:, None]) != (ring.y2 > ys[:, None])
        xs = np.unique(np.concatenate([
            cross[straddles], np.linspace(poly[:, 0].min(), poly[:, 0].max(), 9)
        ]))
        want = reference_grid_mask(xs, ys, [poly])
        assert_cover_matches(geom.grid_in_rings(xs, ys, *geom.edge_table([poly])), want)

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
        ring = geom.Ring(poly)
        nudges = (0.0, geom.BOUNDARY_EPS, -geom.BOUNDARY_EPS, geom.BOX_PAD,
                  -geom.BOX_PAD, cell / 2)
        corner = poly[data.draw(st.integers(0, 3))] + [
            data.draw(st.sampled_from(nudges)), data.draw(st.sampled_from(nudges))
        ]
        steps = np.arange(-60, 61) * cell
        ys = corner[1] + steps
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = ring.x1 + (ys[:, None] - ring.y1) * ring.dx / ring.dy
        straddles = (ring.y1 > ys[:, None]) != (ring.y2 > ys[:, None])
        xs = np.unique(np.concatenate([corner[0] + steps, cross[straddles][::3]]))
        want = reference_grid_mask(xs, ys, [poly])
        assert_cover_matches(geom.grid_in_rings(xs, ys, *geom.edge_table([poly])), want)

    def test_grid_outside_every_ring_is_empty(self, unit_square):
        got = geom.grid_in_rings(
            np.array([5.0, 6.0]), np.array([0.5]),
            *geom.edge_table([unit_square]),
        )
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

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(10, 2))
        b = np.vstack([a[-1], rng.normal(size=(9, 2))])
        whole = np.vstack([a, b[1:]])
        assert geom.arc_length(whole) == pytest.approx(
            geom.arc_length(a) + geom.arc_length(b), rel=1e-12
        )


class TestHeading:
    @pytest.mark.parametrize(
        "v,want",
        [((1, 0), 0.0), ((0, 1), math.pi / 2), ((-1, 0), math.pi)],
    )
    def test_axes(self, v, want):
        assert geom.heading(v) == pytest.approx(want)

    def test_range(self):
        assert geom.heading((-1, -1e-9)) <= math.pi

    def test_degenerate(self):
        with pytest.raises(DegenerateHeadingError):
            geom.heading((1e-9, 0))


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
        assert geom.angle_between(v1, v2) == pytest.approx(want)

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
        a = geom.angle_between(v1, v2)
        assert a == geom.angle_between(v2, v1)
        assert 0 <= a <= math.pi
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        # acos is ill-conditioned near parallel vectors, hence the tolerance
        b = geom.angle_between(scale * rot @ v1, scale * rot @ v2)
        assert b == pytest.approx(a, abs=1e-7)


class TestNearestOnPolyline:
    def test_perpendicular_drop(self):
        foot, offset, hdg = geom.nearest_on_polyline((3, 4), [(0, 0), (10, 0)])
        assert foot == pytest.approx([3, 0])
        assert offset == pytest.approx(3)
        assert hdg == pytest.approx(0)

    def test_vertex_uses_following_segment(self):
        pl = [(0, 0), (5, 0), (5, 5)]
        foot, offset, hdg = geom.nearest_on_polyline((5, 0), pl)
        assert foot == pytest.approx([5, 0])
        assert offset == pytest.approx(5)
        assert hdg == pytest.approx(math.pi / 2)  # heading of the next segment

    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pl = np.cumsum(rng.normal(size=(6, 2)), axis=0)
            p = rng.normal(scale=3, size=2)
            foot, _, _ = geom.nearest_on_polyline(p, pl)
            # dense samples along every segment
            t = np.linspace(0, 1, 2000)[:, None]
            samples = np.concatenate(
                [pl[i] + t * (pl[i + 1] - pl[i]) for i in range(len(pl) - 1)]
            )
            dense_min = np.linalg.norm(samples - p, axis=1).min()
            assert np.linalg.norm(foot - p) <= dense_min + 1e-9


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
