"""The metric kernels compute every mode and every pair of a prediction set
at once; each must agree with the per-mode or per-pair reference loop in
conftest: exactly for flags, counts and clip lengths, within 4 ULP for floats.

Mode sets have K in [2, 30] and mix moving, stationary, collapsed (a copy of
another mode), perpendicular (crossing the lane at a right angle, so the
alignment confidence sits at its 0.5 threshold) and off-map modes.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from criteria import geom, metrics, synth
from criteria.metrics import AlignmentConfig, DaoConfig, Reduction
from criteria.trajectory import (
    KinematicConfig,
    PredictionSet,
    Trajectory,
    kinematic_clip,
    kinematic_window_check,
)

from conftest import (
    assert_ulp_close,
    lane_ids_of,
    reference_aae,
    reference_amv,
    reference_angle_between,
    reference_clip_length,
    reference_dao,
    reference_fdes,
    reference_heading,
    reference_lanes_containing,
    reference_min_ade,
    reference_min_asd,
    reference_min_fsd,
    reference_polyline_heading,
    reference_rasterize_occupancy,
    reference_rf,
    reference_test_alignment,
    reference_test_boundary,
    reference_window_check,
)

DT = 0.1
MODE_KINDS = ("moving", "stationary", "collapsed", "perpendicular", "off_map")


@functools.lru_cache(maxsize=None)
def road_of(kind: synth.MapKind):
    return synth.gen_map(synth.SynthSpec(kind=kind, seed=0))


def _rollout(rng, anchor, heading, n):
    """n points from anchor: random speed and turn rate, and an acceleration
    that switches at a random step from a compliant value to any value."""
    speed = rng.uniform(0.0, 15.0)
    accel = np.where(
        np.arange(n) < rng.integers(0, n + 1),
        rng.uniform(-1.9, 1.4),
        rng.normal(0.0, 3.0),
    )
    speeds = np.maximum(speed + np.cumsum(accel) * DT, 0.0)
    turn = rng.normal(0.0, 0.2)
    headings = heading + turn * np.arange(1, n + 1) * DT
    d = np.column_stack([np.cos(headings), np.sin(headings)]) * (speeds * DT)[:, None]
    return anchor + np.cumsum(d, axis=0)


@st.composite
def mode_sets(draw, kinds=tuple(synth.MapKind)):
    """(road, prediction set, ground truth) on a synth map."""
    road = road_of(draw(st.sampled_from(kinds)))
    mode_kinds = draw(st.lists(st.sampled_from(MODE_KINDS), min_size=2, max_size=30))
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lane = road.lanes[road.lane_ids[rng.integers(len(road.lane_ids))]]
    i = rng.integers(len(lane.centerline) - 1)
    anchor = lane.centerline[i] + rng.uniform(0.0, 1.0) * (
        lane.centerline[i + 1] - lane.centerline[i]
    )
    lane_heading = reference_heading(lane.centerline[i + 1] - lane.centerline[i])
    modes = []
    for kind in mode_kinds:
        if kind == "stationary":
            pts = np.repeat(anchor[None], n, axis=0)
        elif kind == "collapsed" and modes:
            pts = modes[rng.integers(len(modes))].copy()
        elif kind == "perpendicular":
            a = lane_heading + rng.choice([-1, 1]) * math.pi / 2
            pts = anchor + np.outer(np.arange(1, n + 1) * 0.5, [math.cos(a), math.sin(a)])
        else:
            pts = _rollout(rng, anchor, lane_heading + rng.normal(0.0, 0.8), n)
            if kind == "off_map":
                pts = pts + 1000.0
        modes.append(pts)
    pred = PredictionSet(
        scenario_id="s", modes=[Trajectory(m, DT) for m in modes], anchor=anchor
    )
    gt = Trajectory(_rollout(rng, anchor, lane_heading, n), DT)
    return road, pred, gt


class TestAccuracy:
    @given(mode_sets())
    def test_matches_reference(self, case):
        _, pred, gt = case
        assert_ulp_close(metrics.min_ade(pred, gt), reference_min_ade(pred, gt))
        assert_ulp_close(metrics.min_fde(pred, gt), min(reference_fdes(pred, gt)))
        assert_ulp_close(metrics.rf(pred, gt), reference_rf(pred, gt))


class TestPairwise:
    @given(mode_sets())
    def test_matches_reference(self, case):
        _, pred, _ = case
        kin = KinematicConfig()
        assert_ulp_close(metrics.min_asd(pred), reference_min_asd(pred))
        assert_ulp_close(metrics.min_fsd(pred), reference_min_fsd(pred))
        assert_ulp_close(metrics.aae(pred), reference_aae(pred))
        assert_ulp_close(metrics.amv(pred, kin), reference_amv(pred, kin))
        assert_ulp_close(
            metrics.amv(pred, kin, Reduction.MEAN), reference_amv(pred, kin, True)
        )

    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                    min_size=2, max_size=30))
    def test_angles_between(self, vectors):
        v = np.array(vectors).reshape(-1, 2)
        v = v[np.linalg.norm(v, axis=1) > geom.DEGENERATE_EPS]
        i, j = np.triu_indices(len(v), 1)
        want = [reference_angle_between(v[a], v[b]) for a, b in zip(i, j)]
        assert_ulp_close(geom.angles_between(v[i], v[j]), want)

    @pytest.mark.parametrize("k", [0, 1, 2, 6, 24])
    def test_pairs_are_cached_read_only(self, k):
        """The pair index arrays are shared between calls, so no caller may
        write to them."""
        i, j = metrics._pairs(k)
        assert metrics._pairs(k)[0] is i and metrics._pairs(k)[1] is j
        assert list(zip(i.tolist(), j.tolist())) == list(combinations(range(k), 2))
        assert not i.flags.writeable and not j.flags.writeable
        with pytest.raises(ValueError):
            i[...] = 0


class TestKinematics:
    @given(mode_sets())
    def test_matches_reference(self, case):
        _, pred, _ = case
        kin = KinematicConfig()
        ok, a_init, a_final = kinematic_window_check(pred, kin)
        kept = kinematic_clip(pred, kin)
        assert metrics.test_kinematic(pred, kin).tolist() == ok.tolist()
        for k, m in enumerate(pred.modes):
            want = reference_window_check(m.points, DT, kin, pred.anchor)
            assert ok[k] == want[0]
            assert_ulp_close([a_init[k], a_final[k]], want[1:])
            assert kept[k] == reference_clip_length(m.points, DT, kin, pred.anchor)


class TestBoundary:
    @given(mode_sets())
    def test_matches_reference(self, case):
        road, pred, _ = case
        got = metrics.test_boundary([pred], road)[0]
        want = [reference_test_boundary(m.points, road) for m in pred.modes]
        assert got.tolist() == want
        assert metrics.dac(pred, road) == sum(want) / len(want)


class TestAlignment:
    @pytest.mark.parametrize("kind", list(synth.MapKind))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_matches_reference(self, kind, data):
        road, pred, _ = data.draw(mode_sets(kinds=(kind,)))
        cfg = AlignmentConfig()
        passed, conf = metrics.test_alignment([pred], road, cfg)[0]
        for k, m in enumerate(pred.modes):
            want_ok, want_conf = reference_test_alignment(m.points, road, cfg)
            assert passed[k] == want_ok
            assert_ulp_close(conf[k], want_conf)

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_lane_heading_at_centerline_vertices(self, kind):
        # a vertex is the foot on both of its segments: the later one wins
        road = road_of(kind)
        for col, lane_id in enumerate(road.lane_ids):
            line = road.lanes[lane_id].centerline
            want = [reference_polyline_heading(p, line) for p in line]
            assert road.lane_heading_at([col] * len(line), line).tolist() == want

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_lane_queries_match_reference(self, kind, data):
        road, pred, _ = data.draw(mode_sets(kinds=(kind,)))
        probe = pred.points[:, -3:].reshape(-1, 2)
        mask = road.lanes_containing(probe)
        assert mask.shape == (len(probe), len(road.lane_ids))
        for p, row in zip(probe, mask):
            want = reference_lanes_containing(road, p)
            assert lane_ids_of(road, row) == want
            # one (2,) point is answered as a batch of one
            np.testing.assert_array_equal(road.lanes_containing(p), row[None])
        for col, lane_id in enumerate(road.lane_ids):
            pts = probe[mask[:, col]]
            if len(pts):
                line = road.lanes[lane_id].centerline
                want = [reference_polyline_heading(p, line) for p in pts]
                assert road.lane_heading_at([col] * len(pts), pts).tolist() == want
                assert road.lane_heading_at([col], pts[0]).tolist() == want[:1]


class TestDao:
    @given(mode_sets(), st.sampled_from([0.5, 1.0, 0.7]))
    def test_matches_reference(self, case, cell):
        road, pred, _ = case
        cfg = DaoConfig(cell=cell, roi_side=60.0)
        ax, ay = pred.anchor
        roi = (ax - 30.0, ay - 30.0, ax + 30.0, ay + 30.0)
        points = pred.points.reshape(-1, 2)
        # the ROI's corners and edge midpoints lie on its max edges too
        edges = [(x, y) for x in (roi[0], ax, roi[2]) for y in (roi[1], ay, roi[3])]
        probe = np.vstack([points, edges])
        cells = geom.rasterize_occupancy(probe, roi, cell)
        want_cells = reference_rasterize_occupancy(probe, roi, cell)
        assert set(map(tuple, cells.tolist())) == want_cells
        assert len(cells) == len(want_cells)

        want = reference_dao(pred, road, cfg, pred.anchor)
        assert metrics.dao(pred, road, cfg) == want

    @settings(max_examples=60)
    @given(kind=st.sampled_from(synth.MapKind), data=st.data())
    def test_sparse_cover_matches_dense_scan(self, kind, data):
        """ROIs anchored on drivable-ring vertices and edge midpoints, nudged
        so that cell centers fall on, and just off, ring edges and vertices
        and padded-box edges; ROI sides that are and are not multiples of
        the cell."""
        road = road_of(kind)
        cell = data.draw(st.sampled_from((0.37, 0.5, 1.0, 3.7)))
        side = cell * data.draw(st.integers(1, 40)) + data.draw(
            st.sampled_from((0.0, 0.0, 0.13, cell / 3))
        )
        vertices = np.vstack(road.drivable)
        midpoints = np.vstack([(r + np.roll(r, -1, axis=0)) / 2 for r in road.drivable])
        anchors = np.vstack([vertices, midpoints])
        nudges = (0.0, geom.BOUNDARY_EPS, -geom.BOUNDARY_EPS, geom.BOUNDARY_EPS / 2,
                  -geom.BOUNDARY_EPS / 2, geom.BOX_PAD, -geom.BOX_PAD,
                  cell / 2, -cell / 2)
        anchor = anchors[data.draw(st.integers(0, len(anchors) - 1))] + [
            data.draw(st.sampled_from(nudges)), data.draw(st.sampled_from(nudges))
        ]
        # modes of points spread over the ROI and a little beyond it
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        modes = anchor + rng.uniform(-0.6, 0.6, size=(3, 12, 2)) * side
        pred = PredictionSet("s", [Trajectory(m, DT) for m in modes], anchor=anchor)
        cfg = DaoConfig(cell=cell, roi_side=side)
        assert metrics.dao(pred, road, cfg) == reference_dao(
            pred, road, cfg, anchor
        )

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_roi_touching_no_ring_scores_zero(self, kind):
        road = road_of(kind)
        far = np.vstack(road.drivable).max(axis=0) + 500.0
        modes = far + np.zeros((2, 5, 2))
        pred = PredictionSet("s", [Trajectory(m, DT) for m in modes], anchor=far)
        cfg = DaoConfig(roi_side=20.0)
        assert metrics.dao(pred, road, cfg) == 0.0
        assert reference_dao(pred, road, cfg, far) == 0.0

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    @pytest.mark.parametrize("on_map", [True, False])
    def test_cell_larger_than_roi(self, kind, on_map):
        """A single cell, wider than the ROI: its center lies 1.35 m past the
        anchor on each axis, and DAO is the full scale when it is drivable."""
        road = road_of(kind)
        lane = road.lanes[road.lane_ids[0]]
        anchor = lane.centerline[0] if on_map else lane.centerline[0] + 500.0
        modes = anchor + np.array([[[0.1, 0.2]] * 4, [[-0.3, 0.0]] * 4])
        pred = PredictionSet("s", [Trajectory(m, DT) for m in modes], anchor=anchor)
        cfg = DaoConfig(cell=3.7, roi_side=1.0)
        got = metrics.dao(pred, road, cfg)
        assert got == reference_dao(pred, road, cfg, anchor)
        assert got == (cfg.scale if on_map else 0.0)

