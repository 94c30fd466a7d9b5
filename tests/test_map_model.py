import dataclasses
import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from criteria import geom, io, synth
from criteria.errors import InvalidMapError
from criteria.geom import BOX_PAD
from criteria.map_model import LaneSegment, RoadMap, Turn, is_turn_lane

from conftest import (
    assert_cover_matches,
    lane_ids_of,
    reference_grid_mask,
    reference_in_polygon,
    reference_lane_within_radius,
    reference_lanes_containing,
    reference_normalize_ring,
    reference_heading,
    reference_polyline,
    simple_lane,
)

OFFSETS = (0.0, geom.BOUNDARY_EPS, -geom.BOUNDARY_EPS, BOX_PAD, -BOX_PAD)
# radius-query radii: below and at the boundary band, the box pad, lane
# widths, the default turn radius, or anything in between
RADII = st.one_of(
    st.sampled_from((1e-12, geom.BOUNDARY_EPS, BOX_PAD, 1.85, 3.7, 100.0, 150.0)),
    st.floats(geom.BOUNDARY_EPS, 150.0),
)


def overlap_map():
    """Two lanes whose polygons overlap around x in [40, 60]."""
    a = simple_lane("A", y=0.0, x0=0.0, x1=60.0)
    b = simple_lane("B", y=0.0, x0=40.0, x1=100.0)
    return RoadMap(map_id="overlap", lanes=[a, b],
                   drivable=[a.polygon, b.polygon])


@functools.cache
def synth_road(kind: synth.MapKind) -> RoadMap:
    return synth.gen_map(synth.SynthSpec(kind=kind, seed=0))


@functools.cache
def probe_anchors(kind: synth.MapKind, lanes: bool) -> np.ndarray:
    """Vertices and edge midpoints of every lane polygon or drivable ring,
    plus the corners and edge midpoints of its padded bounding box."""
    road = synth_road(kind)
    rings = [lane.polygon for lane in road.lanes.values()] if lanes else road.drivable
    out = []
    for ring in rings:
        x0, y0, x1, y1 = geom.RingTable([ring]).boxes[:, 0]
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        out += [
            ring,
            (ring + np.roll(ring, -1, axis=0)) / 2,
            [(x0, y0), (x1, y0), (x1, y1), (x0, y1),
             (xm, y0), (x1, ym), (xm, y1), (x0, ym)],
        ]
    return np.vstack(out)


@st.composite
def probe(draw, anchors: np.ndarray) -> tuple[float, float]:
    """An anchor nudged by 0, +-BOUNDARY_EPS or +-BOX_PAD on each axis, or a
    uniform point over the synthetic road extent."""
    if draw(st.booleans()):
        lim = synth.ROAD_HALF + 10.0
        return draw(st.floats(-lim, lim)), draw(st.floats(-lim, lim))
    x, y = anchors[draw(st.integers(0, len(anchors) - 1))]
    return float(x) + draw(st.sampled_from(OFFSETS)), float(y) + draw(
        st.sampled_from(OFFSETS)
    )


class TestPrefilterMatchesReference:
    """The padded-box prefilters against unfiltered exact scans."""

    @given(kind=st.sampled_from(synth.MapKind), data=st.data())
    def test_contains_many(self, kind, data):
        road = synth_road(kind)
        pts = np.array(
            data.draw(st.lists(probe(probe_anchors(kind, False)), min_size=1,
                               max_size=40))
        )
        want = np.zeros(len(pts), dtype=bool)
        for ring in road.drivable:
            want |= reference_in_polygon(pts, ring)
        np.testing.assert_array_equal(road.contains_many(pts), want)

    @given(kind=st.sampled_from(synth.MapKind), data=st.data())
    def test_contains_grid(self, kind, data):
        """A grid through a probe point, as DAO lays its cell centers."""
        road = synth_road(kind)
        x, y = data.draw(probe(probe_anchors(kind, False)))
        step = data.draw(st.sampled_from((0.5, 1.85, 3.7)))
        nx, ny = data.draw(st.integers(1, 15)), data.draw(st.integers(1, 15))
        xs = x + (np.arange(nx) - data.draw(st.integers(0, nx - 1))) * step
        ys = y + (np.arange(ny) - data.draw(st.integers(0, ny - 1))) * step
        want = reference_grid_mask(xs, ys, road.drivable)
        assert_cover_matches(road.contains_grid(xs, ys), want)

    @pytest.mark.parametrize("xs, ys, error", [
        ([0.0, math.nan], [0.0, 1.0], "NaN or inf"),
        ([0.0, 1.0], [0.0, math.inf], "NaN or inf"),
        ([1.0, 0.0], [0.0, 1.0], "ascending"),
        ([0.0, 1.0], [2.0, 1.0, 3.0], "ascending"),
    ], ids=["nan_x", "inf_y", "descending_x", "descending_y"])
    def test_bad_grid_rejected(self, straight_road, xs, ys, error):
        with pytest.raises(ValueError, match=error):
            straight_road.contains_grid(xs, ys)

    @given(kind=st.sampled_from(synth.MapKind), data=st.data())
    def test_lanes_containing(self, kind, data):
        road = synth_road(kind)
        p = data.draw(probe(probe_anchors(kind, True)))
        want = sorted(
            lane_id
            for lane_id, lane in road.lanes.items()
            if reference_in_polygon(p, lane.polygon)[0]
        )
        assert lane_ids_of(road, road.lanes_containing(p)[0]) == want


@st.composite
def radius_probe(draw, anchors: np.ndarray, r: float) -> tuple[float, float]:
    """An anchor nudged on each axis by 0, +-r, +-r+-BOX_PAD or
    +-BOUNDARY_EPS, or a uniform point over the synthetic road extent widened
    by ``r``."""
    if draw(st.booleans()):
        lim = synth.ROAD_HALF + 10.0 + r
        return draw(st.floats(-lim, lim)), draw(st.floats(-lim, lim))
    offsets = [0.0, geom.BOUNDARY_EPS, -geom.BOUNDARY_EPS]
    offsets += [s * r + pad for s in (1, -1) for pad in (0.0, BOX_PAD, -BOX_PAD)]
    x, y = anchors[draw(st.integers(0, len(anchors) - 1))]
    return float(x) + draw(st.sampled_from(offsets)), float(y) + draw(
        st.sampled_from(offsets)
    )


class TestRadiusMatchesReference:
    """The batched radius query against an unfiltered scan of every lane."""

    @given(kind=st.sampled_from(synth.MapKind), r=RADII, data=st.data())
    def test_lanes_within_radius(self, kind, r, data):
        road = synth_road(kind)
        pts = np.array(
            data.draw(st.lists(radius_probe(probe_anchors(kind, True), r),
                               min_size=1, max_size=40))
        )
        want = np.column_stack([
            reference_lane_within_radius(pts, road.lanes[lane_id].polygon, r)
            for lane_id in road.lane_ids
        ])
        np.testing.assert_array_equal(road.lanes_within_radius(pts, r), want)

    @given(kind=st.sampled_from(synth.MapKind), r=RADII, data=st.data())
    def test_one_point_gives_its_row(self, kind, r, data):
        """A ``(2,)`` point is answered as a batch of one."""
        road = synth_road(kind)
        p = data.draw(radius_probe(probe_anchors(kind, True), r))
        row = road.lanes_within_radius(np.array([p]), r)[0]
        np.testing.assert_array_equal(road.lanes_within_radius(p, r), row[None])

    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, straight_road, r):
        with pytest.raises(ValueError):
            straight_road.lanes_within_radius((0.0, 0.0), r)


def rotated_road(kind: synth.MapKind, angle: float) -> RoadMap:
    """The synthetic map of ``kind`` turned by ``angle`` about the origin: its
    axis-aligned edges become diagonal."""
    road = synth_road(kind)
    turn = np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]]).T
    lanes = [
        dataclasses.replace(lane, centerline=lane.centerline @ turn,
                            polygon=lane.polygon @ turn)
        for lane in road.lanes.values()
    ]
    return RoadMap(road.map_id, lanes, [ring @ turn for ring in road.drivable])


def lane_rings(road: RoadMap) -> list[np.ndarray]:
    return [road.lanes[lane_id].polygon for lane_id in road.lane_ids]


ANGLES = st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi))


@st.composite
def ring_probes(draw, rings: list[np.ndarray], eps: float) -> np.ndarray:
    """1 to 40 points: ring vertices, edge midpoints and uniform points in
    the rings' bounding box, each nudged along both axes by 0,
    +-BOUNDARY_EPS or +-eps."""
    lo = np.min([ring.min(axis=0) for ring in rings], axis=0)
    hi = np.max([ring.max(axis=0) for ring in rings], axis=0)
    nudges = st.sampled_from((0.0, geom.BOUNDARY_EPS, -geom.BOUNDARY_EPS, eps, -eps))
    out = []
    for _ in range(draw(st.integers(1, 40))):
        ring = rings[draw(st.integers(0, len(rings) - 1))]
        i = draw(st.integers(0, len(ring) - 1))
        where = draw(st.sampled_from(("vertex", "midpoint", "uniform")))
        if where == "vertex":
            p = ring[i]
        elif where == "midpoint":
            p = (ring[i] + ring[(i + 1) % len(ring)]) / 2
        else:
            p = [draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))]
        out.append([p[0] + draw(nudges), p[1] + draw(nudges)])
    return np.array(out)


class TestRingTableMatchesReference:
    """The row-sweep ring kernel and the queries built on it against
    unfiltered exact scans of each ring, on the synthetic maps and on the
    same maps turned by a drawn angle."""

    @given(kind=st.sampled_from(synth.MapKind), angle=ANGLES,
           eps=st.sampled_from((0.0, geom.BOUNDARY_EPS, 1.0, 100.0)),
           lanes=st.booleans(), data=st.data())
    def test_contains(self, kind, angle, eps, lanes, data):
        road = rotated_road(kind, angle)
        rings = lane_rings(road) if lanes else road.drivable
        pts = data.draw(ring_probes(rings, eps))
        want = np.column_stack([reference_in_polygon(pts, ring, eps) for ring in rings])
        np.testing.assert_array_equal(geom.RingTable(rings).contains(pts, eps), want)

    @given(kind=st.sampled_from(synth.MapKind), angle=ANGLES, data=st.data())
    def test_contains_many_and_lanes_containing(self, kind, angle, data):
        road = rotated_road(kind, angle)
        pts = data.draw(ring_probes(road.drivable + lane_rings(road), geom.BOX_PAD))
        want = np.zeros(len(pts), dtype=bool)
        for ring in road.drivable:
            want |= reference_in_polygon(pts, ring)
        np.testing.assert_array_equal(road.contains_many(pts), want)
        for p, row in zip(pts, road.lanes_containing(pts)):
            assert lane_ids_of(road, row) == reference_lanes_containing(road, p)

    @given(kind=st.sampled_from(synth.MapKind), angle=ANGLES, r=RADII,
           data=st.data())
    def test_lanes_within_radius(self, kind, angle, r, data):
        road = rotated_road(kind, angle)
        pts = data.draw(ring_probes(lane_rings(road), r))
        want = np.column_stack([
            reference_lane_within_radius(pts, ring, r) for ring in lane_rings(road)
        ])
        np.testing.assert_array_equal(road.lanes_within_radius(pts, r), want)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_pair_blocks_do_not_change_the_mask(self, t_road, monkeypatch, block):
        """Crossings and band pairs split over many blocks, down to one
        edge each, give the mask of one block."""
        rings = lane_rings(t_road)
        rng = np.random.default_rng(block)
        pts = np.vstack([np.vstack(rings), rng.uniform(-120, 120, size=(200, 2))])
        table = geom.RingTable(rings)
        for eps in (geom.BOUNDARY_EPS, 3.0):
            want = table.contains(pts, eps)
            monkeypatch.setattr(geom, "PAIR_BLOCK", block)
            np.testing.assert_array_equal(table.contains(pts, eps), want)
            monkeypatch.undo()

    def test_no_points_or_no_rings(self, unit_square):
        empty = np.empty((0, 2))
        assert geom.RingTable([unit_square]).contains(empty).shape == (0, 1)
        assert geom.RingTable([]).contains(np.zeros((3, 2))).shape == (3, 0)


class TestLanesContaining:
    def test_centerline_midpoint(self, straight_road):
        lane = straight_road.lanes["E0"]
        mid = lane.centerline[len(lane.centerline) // 2]
        assert "E0" in lane_ids_of(straight_road, straight_road.lanes_containing(mid)[0])

    def test_far_off_road(self, straight_road):
        row = straight_road.lanes_containing((0.0, 80.0))[0]
        assert lane_ids_of(straight_road, row) == []

    def test_overlap_returns_both(self):
        road = overlap_map()
        p = (50.0, 0.0)
        got = lane_ids_of(road, road.lanes_containing(p)[0])
        want = [
            lane_id
            for lane_id in sorted(road.lanes)
            if geom.points_in_polygon(p, road.lanes[lane_id].polygon)[0]
        ]
        assert got == want == ["A", "B"]


class TestLanesWithinRadius:
    def test_covers_parallel_lanes(self, straight_road):
        got = straight_road.lanes_within_radius((0.0, -1.85), 100.0)[0]
        assert set(lane_ids_of(straight_road, got)) == set(straight_road.lanes)

    def test_tight_radius(self, straight_road):
        got = straight_road.lanes_within_radius((0.0, -1.85), 1.0)[0]
        assert lane_ids_of(straight_road, got) == ["E0"]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_linear_scan(self, straight_road, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-220, 220, size=2)
        r = float(rng.uniform(1, 150))
        want = sorted(
            lane.id
            for lane in straight_road.lanes.values()
            if (
                geom.points_in_polygon(p, lane.polygon)[0]
                or geom.distance_to_ring(p.reshape(1, 2), lane.polygon)[0] <= r
            )
        )
        got = straight_road.lanes_within_radius(p, r)[0]
        assert lane_ids_of(straight_road, got) == want

    def test_containing_subset_of_radius(self, t_road):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-50, 50, size=(50, 2))
        contained = t_road.lanes_containing(pts)
        for r in (0.5, 5.0, 50.0):
            assert not (contained & ~t_road.lanes_within_radius(pts, r)).any()


def _col(road, lane_id) -> int:
    """The column of ``lane_id`` in the road's lane masks and heading queries."""
    return road.lane_ids.index(lane_id)


def _tangents_of(road, lane_id) -> np.ndarray:
    """The tangents of the lane's centerline segments in the road's table."""
    c = _col(road, lane_id)
    return road._tangents[road._seg_lo[c]:road._seg_hi[c]]


class TestLaneHeading:
    def test_eastbound(self, straight_road):
        got = straight_road.lane_heading_at([_col(straight_road, "E0")], (10.0, -1.85))
        assert got.tolist() == pytest.approx([0.0])

    def test_westbound(self, straight_road):
        got = straight_road.lane_heading_at([_col(straight_road, "W0")], (10.0, 1.85))
        assert got.tolist() == pytest.approx([np.pi])

    def test_chord_heading_on_curved_lane(self, t_road):
        lane = next(l for l in t_road.lanes.values() if l.turn is Turn.LEFT)
        cl = lane.centerline
        i = len(cl) // 2
        mid = (cl[i] + cl[i + 1]) / 2
        want = reference_heading(cl[i + 1] - cl[i])
        assert t_road.lane_heading_at([_col(t_road, lane.id)], mid).tolist() == pytest.approx([want])

    @pytest.mark.parametrize("centerline", [
        [[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0], [10.0, 5.0]],
        [[0.0, 0.0], [1e-7, 0.0], [10.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[10.0, 0.0], [0.0, -0.0], [0.0, 5.0]],
    ], ids=["repeated_vertices", "too_short", "no_usable_segment", "minus_pi"])
    def test_tangents_follow_polyline_tangent(self, centerline):
        """The headings laid out at build time follow the per-segment rule
        (``reference_tangent``): a segment no longer than ``DEGENERATE_EPS``,
        zero-length or not, takes the first one that has a heading, and -pi
        turns into pi. A centerline where the rule finds none is refused."""
        box = np.array([[-1.0, -1.0], [11.0, -1.0], [11.0, 6.0], [-1.0, 6.0]])
        lane = LaneSegment(id="L", centerline=np.array(centerline), polygon=box)
        try:
            want = reference_polyline(centerline)["tangents"]
        except ValueError as e:
            with pytest.raises(InvalidMapError, match=f"lane 'L': centerline: {e}"):
                RoadMap(map_id="m", lanes=[lane], drivable=[box])
        else:
            road = RoadMap(map_id="m", lanes=[lane], drivable=[box])
            np.testing.assert_array_equal(_tangents_of(road, "L"), want)

    def test_tangents_of_many_lanes_stay_per_lane(self):
        """One pass lays out every lane's headings; a lane's segments with
        no heading take that lane's first heading, never a neighbour's."""
        box = np.array([[-1.0, -1.0], [11.0, -1.0], [11.0, 6.0], [-1.0, 6.0]])
        centerlines = [
            [[0.0, 0.0], [0.0, 5.0]],
            [[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0], [10.0, 5.0]],
            [[0.0, 0.0], [1e-7, 0.0], [10.0, 0.0]],
            [[10.0, 0.0], [0.0, -0.0], [0.0, 5.0]],
            [[0.0, 5.0], [0.0, 5.0], [1e-7, 5.0], [10.0, 0.0]],
        ]
        lanes = [LaneSegment(id=f"L{i}", centerline=np.array(c), polygon=box)
                 for i, c in enumerate(centerlines)]
        road = RoadMap(map_id="m", lanes=lanes, drivable=[box])
        for lane, centerline in zip(lanes, centerlines):
            np.testing.assert_array_equal(_tangents_of(road, lane.id),
                                          reference_polyline(centerline)["tangents"])

    def test_no_usable_direction_raises(self):
        """A centerline with no direction is refused when the map is built,
        so no heading query can meet one."""
        box = np.array([[-1.0, -1.0], [11.0, -1.0], [11.0, 6.0], [-1.0, 6.0]])
        lane = LaneSegment(id="L", centerline=np.zeros((2, 2)), polygon=box)
        with pytest.raises(InvalidMapError) as e:
            RoadMap(map_id="m", lanes=[lane], drivable=[box])
        assert str(e.value) == "lane 'L': centerline: polyline has no usable direction"


class TestLaneSegmentMany:
    """Many lane records built into one ``RoadMap``: its one pass over all
    their geometry gives each lane what the per-lane references give, and
    the first bad lane raises its error."""

    @staticmethod
    def lanes(kind: synth.MapKind) -> list[LaneSegment]:
        """The lanes of a synthetic map as read from its file, with every
        other polygon clockwise and every third centerline a list."""
        doc = io.map_to_dict(synth_road(kind))
        return [
            LaneSegment(**dict(
                lane, turn=Turn(lane["turn"]), successors=tuple(lane["successors"]),
                centerline=(lane["centerline"] if i % 3 == 0
                            else np.array(lane["centerline"])),
                polygon=np.array(lane["polygon"][::-1 if i % 2 == 0 else 1]),
            ))
            for i, lane in enumerate(doc["lanes"])
        ]

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_matches_per_lane(self, kind):
        """A clockwise polygon comes out counter-clockwise, in ``road.lanes``
        and in the map's document; a record whose fields are already float
        arrays and whose polygon is counter-clockwise is kept as it is."""
        lanes = self.lanes(kind)
        road = RoadMap(kind.value, lanes, synth_road(kind).drivable)
        doc = io.map_to_dict(road)
        for lane, written in zip(lanes, doc["lanes"]):
            got = road.lanes[lane.id]
            want = reference_normalize_ring(lane.polygon)
            assert got.polygon.tobytes() == want.tobytes()
            assert written["polygon"] == want.tolist()
            assert got.centerline.tobytes() == geom.as_points(lane.centerline).tobytes()
            assert dataclasses.replace(got, centerline=None, polygon=None) == \
                dataclasses.replace(lane, centerline=None, polygon=None)
            kept = isinstance(lane.centerline, np.ndarray) and want is lane.polygon
            assert (got is lane) == kept

    def test_defaults_filled_in(self):
        lane = simple_lane("A")
        road = RoadMap("m", [LaneSegment(id="A", centerline=lane.centerline,
                                         polygon=lane.polygon)], [lane.polygon])
        assert road.lanes["A"] == LaneSegment(
            id="A", centerline=lane.centerline, polygon=lane.polygon, turn=Turn.NONE,
            is_intersection=False, successors=(), left_neighbor=None,
            right_neighbor=None,
        )

    @pytest.mark.parametrize("bad,error", [
        (dict(polygon=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])),
         "lane '{}': polygon: degenerate polygon (zero area)"),
        (dict(centerline=np.array([[0.0, 0.0]])),
         "lane '{}': centerline: polyline needs >= 2 points"),
        (dict(centerline=np.array([[0.0, 0.0], [np.nan, 0.0]])),
         "lane '{}': centerline: points contain NaN or inf"),
        (dict(centerline=np.zeros((3, 2))),
         "lane '{}': centerline: polyline has no usable direction"),
        (dict(polygon=np.array([[0.0, 0.0], [2e150, 0.0], [0.0, 2e150]])),
         "lane '{}': polygon: points lie beyond 1e+150 m of the origin"),
    ], ids=["flat_polygon", "short_centerline", "nan_centerline",
            "directionless_centerline", "far_polygon"])
    def test_first_bad_lane_raises(self, bad, error):
        lanes = self.lanes(synth.MapKind.CROSSROADS)
        lanes[1] = dataclasses.replace(lanes[1], **bad)
        lanes[3] = dataclasses.replace(lanes[3], polygon=np.zeros((3, 2)))
        with pytest.raises(InvalidMapError) as e:
            RoadMap("bad", lanes, synth_road(synth.MapKind.CROSSROADS).drivable)
        assert str(e.value) == error.format(lanes[1].id)

    @pytest.mark.parametrize("bad,error", [
        ((np.zeros((3, 2)), np.zeros((1, 2))), "polyline has no usable direction"),
        ((np.zeros((1, 2)), np.zeros((3, 2))), "polyline needs >= 2 points"),
    ], ids=["directionless_then_short", "short_then_directionless"])
    def test_first_bad_centerline_in_file_order(self, bad, error):
        """Lanes 3 and 4 (``EL0``, ``E1a``) sort in the reverse of their file
        order; the one that comes first in the file is named."""
        lanes = self.lanes(synth.MapKind.CROSSROADS)
        for i, centerline in zip((3, 4), bad):
            lanes[i] = dataclasses.replace(lanes[i], centerline=centerline)
        assert lanes[4].id < lanes[3].id
        with pytest.raises(InvalidMapError) as e:
            RoadMap("bad", lanes, synth_road(synth.MapKind.CROSSROADS).drivable)
        assert str(e.value) == f"lane {lanes[3].id!r}: centerline: {error}"

    @pytest.mark.parametrize("bad,error", [
        ((np.zeros((3, 2)), np.zeros((2, 2))), "degenerate polygon (zero area)"),
        ((np.zeros((2, 2)), np.zeros((3, 2))), "polygon needs >= 3 vertices, got 2"),
    ], ids=["flat_then_short", "short_then_flat"])
    def test_first_bad_polygon_in_file_order(self, bad, error):
        """The lane table is laid out in file order, so of lanes 3 and 4
        (``EL0``, ``E1a``) the one that comes first in the file is named,
        whichever check refuses it."""
        lanes = self.lanes(synth.MapKind.CROSSROADS)
        for i, polygon in zip((3, 4), bad):
            lanes[i] = dataclasses.replace(lanes[i], polygon=polygon)
        assert (lanes[3].id, lanes[4].id) == ("EL0", "E1a")
        with pytest.raises(InvalidMapError) as e:
            RoadMap("bad", lanes, synth_road(synth.MapKind.CROSSROADS).drivable)
        assert str(e.value) == f"lane 'EL0': polygon: {error}"

    def test_first_stray_centerline_in_file_order(self):
        lanes = self.lanes(synth.MapKind.CROSSROADS)
        for i in (3, 4):
            lanes[i] = dataclasses.replace(
                lanes[i], centerline=np.asarray(lanes[i].centerline) + 20.0)
        with pytest.raises(InvalidMapError) as e:
            RoadMap("bad", lanes, synth_road(synth.MapKind.CROSSROADS).drivable)
        assert str(e.value).startswith(f"lane {lanes[3].id!r}: centerline strays ")

    def test_off_drivable_warnings_in_file_order(self, caplog):
        """Lanes 3 and 4 moved, centerline and polygon, far off the
        drivable area: one warning each, in file order."""
        lanes = self.lanes(synth.MapKind.CROSSROADS)
        for i in (3, 4):
            lanes[i] = dataclasses.replace(
                lanes[i], centerline=np.asarray(lanes[i].centerline) + 1000.0,
                polygon=lanes[i].polygon + 1000.0)
        with caplog.at_level(logging.WARNING, logger="criteria.map_model"):
            RoadMap("m", lanes, synth_road(synth.MapKind.CROSSROADS).drivable)
        assert [r.getMessage() for r in caplog.records] == [
            f"map m: lane {lanes[i].id} polygon not fully inside drivable area"
            for i in (3, 4)
        ]

    def test_zero_area_drivable_ring_raises(self):
        """Drivable rings are checked after the lane polygons, in a table of
        their own; the first bad ring is named by its place in the drivable
        area."""
        lanes = self.lanes(synth.MapKind.CROSSROADS)
        drivable = list(synth_road(synth.MapKind.CROSSROADS).drivable)
        drivable[1] = drivable[3] = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(InvalidMapError) as e:
            RoadMap("bad", lanes, drivable)
        assert str(e.value) == "drivable_area[1]: degenerate polygon (zero area)"


class TestLaneOrder:
    """The centerline segment table and the lane table stay in file order,
    while the lane masks' columns and each lane's run of segments follow
    ``lane_ids``: a map built from its lanes in another order, or from
    clockwise rings, answers every query alike."""

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    @pytest.mark.parametrize("reorder", ["reversed", "shuffled", "clockwise"])
    def test_queries_ignore_lane_order(self, kind, reorder):
        road = synth_road(kind)
        lanes, drivable = list(road.lanes.values()), road.drivable
        if reorder == "reversed":
            lanes.reverse()
        else:
            np.random.default_rng(5).shuffle(lanes)
        if reorder == "clockwise":
            lanes = [dataclasses.replace(lane, polygon=lane.polygon[::-1])
                     for lane in lanes]
            drivable = [ring[::-1] for ring in drivable]
        other = RoadMap(road.map_id, lanes, drivable)
        # turned back, every ring is the original, bit for bit
        want = io.map_to_dict(road)
        by_id = {lane["id"]: lane for lane in want["lanes"]}
        assert io.map_to_dict(other) == dict(want, lanes=[by_id[lane.id] for lane in lanes])
        assert other.lane_ids == road.lane_ids
        assert other.turn_lanes.tolist() == road.turn_lanes.tolist() == [
            is_turn_lane(road.lanes[i]) for i in road.lane_ids]
        rng = np.random.default_rng(6)
        lim = synth.ROAD_HALF + 10.0
        pts = np.vstack([probe_anchors(kind, True), probe_anchors(kind, False),
                         rng.uniform(-lim, lim, size=(500, 2))])
        for query in (RoadMap.lanes_containing, RoadMap.contains_many,
                      lambda r, p: r.lanes_within_radius(p, 3.7)):
            np.testing.assert_array_equal(query(other, pts), query(road, pts))
        cols = rng.integers(len(road.lane_ids), size=len(pts))
        assert (other.lane_heading_at(cols, pts).tobytes()
                == road.lane_heading_at(cols, pts).tobytes())
        xs, ys = np.linspace(-lim, lim, 97), np.linspace(-lim, lim, 89)
        want = road.contains_grid(xs, ys)
        ix, iy = np.meshgrid(np.arange(len(xs)), np.arange(len(ys)), indexing="ij")
        assert_cover_matches(other.contains_grid(xs, ys),
                             want.contains(ix.ravel(), iy.ravel()).reshape(ix.shape))


class TestDrivable:
    def test_on_lane_surface(self, straight_road):
        assert straight_road.contains_many((5.0, -1.85))[0]

    def test_off_road_void(self, straight_road):
        assert not straight_road.contains_many((0.0, 60.0))[0]

    def test_matches_per_polygon_oracle(self, t_road):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-210, 210, size=(1000, 2))
        got = t_road.contains_many(pts)
        want = np.zeros(len(pts), dtype=bool)
        for ring in t_road.drivable:
            want |= geom.points_in_polygon(pts, ring)
        assert (got == want).all()

    def test_centerline_vertices_drivable(self, t_road):
        for lane in t_road.lanes.values():
            assert t_road.contains_many(lane.centerline).all()


class TestIsTurnLane:
    def test_conjunction(self):
        left = simple_lane("l", turn=Turn.LEFT, is_intersection=True)
        none = simple_lane("n", turn=Turn.NONE, is_intersection=True)
        off = simple_lane("o", turn=Turn.RIGHT, is_intersection=False)
        assert is_turn_lane(left)
        assert not is_turn_lane(none)
        assert not is_turn_lane(off)


class TestInvariants:
    def test_duplicate_lane_ids_rejected(self):
        a = simple_lane("X")
        with pytest.raises(InvalidMapError):
            RoadMap(map_id="bad", lanes=[a, a], drivable=[a.polygon])

    def test_dangling_successor_rejected(self):
        a = simple_lane("X", successors=("nope",))
        with pytest.raises(InvalidMapError):
            RoadMap(map_id="bad", lanes=[a], drivable=[a.polygon])

    def test_stray_centerline_rejected(self):
        lane = LaneSegment(
            id="stray",
            centerline=np.array([[0.0, 0.0], [100.0, 10.0]]),
            polygon=np.array(
                [[0.0, -1.85], [100.0, -1.85], [100.0, 1.85], [0.0, 1.85]]
            ),
        )
        with pytest.raises(InvalidMapError):
            RoadMap(map_id="bad", lanes=[lane], drivable=[lane.polygon])

    @pytest.mark.parametrize("end_y, strays", [(3.0, "1.15"), (12.3456, "10.50")])
    def test_stray_centerline_names_its_distance(self, end_y, strays):
        lane = dataclasses.replace(simple_lane("stray"),
                                   centerline=np.array([[0.0, 0.0], [100.0, end_y]]))
        with pytest.raises(InvalidMapError) as e:
            RoadMap(map_id="bad", lanes=[lane], drivable=[lane.polygon])
        assert str(e.value) == (
            f"lane 'stray': centerline strays {strays} m outside its polygon"
        )

    def test_centerline_inside_a_neighbour_still_strays(self):
        """Each centerline is held to its own lane: 0.6 m outside its polygon
        strays, though the point lies well inside the next lane."""
        a = dataclasses.replace(simple_lane("A"),
                                centerline=np.array([[0.0, 0.0], [100.0, 2.45]]))
        b = simple_lane("B", y=3.7)
        assert b.polygon[:, 1].min() < 2.45 < b.polygon[:, 1].max()
        with pytest.raises(InvalidMapError) as e:
            RoadMap(map_id="bad", lanes=[b, a], drivable=[a.polygon, b.polygon])
        assert str(e.value) == "lane 'A': centerline strays 0.60 m outside its polygon"

    def test_centerline_within_tolerance_accepted(self):
        # the end point lies 0.45 m outside the polygon, under CENTERLINE_TOL
        lane = dataclasses.replace(simple_lane("near"),
                                   centerline=np.array([[0.0, 0.0], [100.0, 2.3]]))
        RoadMap(map_id="ok", lanes=[lane], drivable=[lane.polygon])

    def test_lane_off_drivable_area_warns_once(self, caplog):
        a = simple_lane("A", y=0.0)
        b = simple_lane("B", y=3.7)
        c = simple_lane("C", y=-3.7)
        with caplog.at_level(logging.WARNING, logger="criteria.map_model"):
            RoadMap(map_id="m", lanes=[a, b, c], drivable=[a.polygon, c.polygon])
        assert [r.getMessage() for r in caplog.records] == [
            "map m: lane B polygon not fully inside drivable area"
        ]

    def test_unknown_successor_raises_before_other_checks(self, caplog):
        """The lane's centerline also strays and its polygon lies off the
        drivable area; neither is reported."""
        lane = dataclasses.replace(simple_lane("X", successors=("nope",)),
                                   centerline=np.array([[0.0, 0.0], [100.0, 30.0]]))
        elsewhere = simple_lane("Y", y=50.0)
        with caplog.at_level(logging.WARNING, logger="criteria.map_model"):
            with pytest.raises(InvalidMapError) as e:
                RoadMap(map_id="bad", lanes=[lane], drivable=[elsewhere.polygon])
        assert str(e.value) == "lane 'X': successor 'nope' not in map"
        assert caplog.records == []

    def test_roundtrip_preserves_queries(self, t_road, tmp_path):
        path = tmp_path / "map.json"
        io.save_map(path, t_road)
        loaded = io.load_map(path)
        rng = np.random.default_rng(12)
        probes = rng.uniform(-210, 210, size=(200, 2))
        np.testing.assert_array_equal(
            loaded.contains_many(probes), t_road.contains_many(probes)
        )
        assert loaded.lane_ids == t_road.lane_ids
        np.testing.assert_array_equal(
            loaded.lanes_containing(probes), t_road.lanes_containing(probes)
        )
        np.testing.assert_array_equal(
            loaded.lanes_within_radius(probes, 50.0),
            t_road.lanes_within_radius(probes, 50.0),
        )
