"""The triad's map tests answer for a list of prediction sets on one map at
once: one drivable-area query, one lane query and one heading lookup. Each
set's answer must be the one it gets alone and the per-mode references',
flag for flag; ``evaluate_model``, which batches a model's scenarios by map,
must give every scenario the values of a run over that scenario alone; and
the heading lookup must give every (point, lane) the reference heading.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from criteria import bench, metrics, synth
from criteria.io import RunConfig
from criteria.metrics import AlignmentConfig
from criteria.trajectory import KinematicConfig, PredictionSet

from conftest import (
    assert_ulp_close,
    reference_polyline_heading,
    reference_test_alignment,
    reference_test_boundary,
)
from test_kernels import mode_sets, road_of
from test_rotation import _moved

ALIGN, KIN, CFG = AlignmentConfig(), KinematicConfig(), RunConfig()


def _assert_group_answers_each_set(preds, road, references: bool) -> None:
    triads = metrics.att(preds, road, ALIGN, KIN)
    boundary = metrics.test_boundary(preds, road)
    alignment = metrics.test_alignment(preds, road, ALIGN)
    assert len(triads) == len(boundary) == len(alignment) == len(preds)
    for pred, triad, b, (a, conf) in zip(preds, triads, boundary, alignment):
        assert triad == metrics.att([pred], road, ALIGN, KIN)[0]
        assert triad.boundary_pass == tuple(b.tolist())
        assert triad.alignment_pass == tuple(a.tolist())
        assert b.tolist() == metrics.test_boundary([pred], road)[0].tolist()
        alone, alone_conf = metrics.test_alignment([pred], road, ALIGN)[0]
        assert a.tolist() == alone.tolist()
        assert conf.tobytes() == alone_conf.tobytes()
        if references:
            for k, mode in enumerate(pred.modes):
                assert b[k] == reference_test_boundary(mode.points, road)
                want, want_conf = reference_test_alignment(mode.points, road, ALIGN)
                assert a[k] == want
                assert_ulp_close(conf[k], want_conf)


class TestGroupedTriad:
    @pytest.mark.parametrize("kind", list(synth.MapKind), ids=lambda m: m.value)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_synth_maps(self, kind, data):
        """Sets of 2-30 modes and 3-30 points each, mixing moving,
        stationary, collapsed, perpendicular and off-map modes."""
        cases = data.draw(st.lists(mode_sets(kinds=(kind,)), min_size=1, max_size=4))
        _assert_group_answers_each_set([pred for _, pred, _ in cases], cases[0][0], True)

    @pytest.mark.parametrize("degrees", [45, 137])
    @pytest.mark.parametrize("kind", list(synth.MapKind), ids=lambda m: m.value)
    def test_turned_maps(self, kind, degrees):
        """Every toy predictor's 25 sets on a turned map as one group; the
        first three also against the references."""
        road, _, preds = _moved(kind, degrees)
        for sets in preds.values():
            _assert_group_answers_each_set(sets, road, False)
            _assert_group_answers_each_set(sets[:3], road, True)

    def test_horizon_is_checked_first(self, monkeypatch):
        """Before any map query, every set's horizon against ``tail_steps``;
        the error names the first short set in list order."""
        road, records, preds = _scene(synth.MapKind.T_INTERSECTION, n=1)
        p = preds[records[0].id]
        short = [PredictionSet.from_points(sid, p.points[:, :4], p.dt, anchor=p.anchor)
                 for sid in ("b", "a")]
        for query in ("contains_many", "lanes_containing", "lane_heading_at"):
            monkeypatch.setattr(type(road), query, None)
        with pytest.raises(metrics.HorizonError) as e:
            metrics.att([p, *short], road, AlignmentConfig(tail_steps=5), KIN)
        assert str(e.value) == (
            "scenario 'b': alignment.tail_steps is 5 but the horizon has 4 points")


def _scene(kind: synth.MapKind, seed: int = 4, n: int = 6, suffix: str = ""):
    """A synth map and its scenarios, each predicted by a different toy
    predictor with 2 + i modes; ids end in ``suffix``."""
    spec = synth.SynthSpec(kind=kind, seed=seed, n_scenarios=n)
    road = synth.gen_map(spec)
    records, preds = [], {}
    kinds = list(synth.PredictorKind)
    for i, rec in enumerate(synth.gen_scenarios(road, spec)):
        rec = dataclasses.replace(rec, id=rec.id + suffix)
        p = synth.toy_predict(kinds[i % len(kinds)], rec, road, 2 + i, seed + i)
        preds[rec.id] = PredictionSet.from_points(rec.id, p.points, p.dt, anchor=p.anchor)
        records.append(rec)
    return road, records, preds


def _alone(rec, maps, preds):
    run = bench.evaluate_model("m", [rec], {rec.map_id: maps[rec.map_id]},
                               {rec.id: preds[rec.id]}, CFG)
    return run.per_scenario[rec.id]


class TestEvaluateModel:
    @pytest.mark.parametrize("kind", list(synth.MapKind), ids=lambda m: m.value)
    def test_scenarios_score_as_alone_in_any_batch(self, kind, monkeypatch):
        road, records, preds = _scene(kind)
        maps = {road.map_id: road}
        calls = []
        att = metrics.att
        monkeypatch.setattr(metrics, "att", lambda p, *a: calls.append(len(p)) or att(p, *a))
        whole = bench.evaluate_model("m", records[::-1], maps, preds, CFG)
        assert calls == [len(records)]
        assert list(whole.per_scenario) == sorted(preds)
        for rec in records:
            assert whole.per_scenario[rec.id] == _alone(rec, maps, preds)
        # batches that close before the set that would overflow them
        sizes = [preds[r.id].points.size // 2 for r in records]
        monkeypatch.setattr(bench, "TRIAD_BATCH_POINTS", sizes[0] + sizes[1])
        calls.clear()
        assert bench.evaluate_model("m", records, maps, preds, CFG).per_scenario == \
            whole.per_scenario
        assert calls[0] == 2 and sum(calls) == len(records) and len(calls) > 2

    def test_scenarios_of_two_maps(self):
        """Ids interleave across the maps; each map's scenarios are one
        batch, and the results come back in id order."""
        road_a, records_a, preds_a = _scene(synth.MapKind.STRAIGHT, 1, 3, "a")
        road_b, records_b, preds_b = _scene(synth.MapKind.T_INTERSECTION, 1, 3, "b")
        maps = {road_a.map_id: road_a, road_b.map_id: road_b}
        preds = {**preds_a, **preds_b}
        whole = bench.evaluate_model("m", records_a + records_b, maps, preds, CFG)
        assert list(whole.per_scenario) == sorted(preds)
        for rec in records_a + records_b:
            assert whole.per_scenario[rec.id] == _alone(rec, maps, preds)


def _probe_points(road) -> np.ndarray:
    """Every centerline vertex, where two segments share a foot, and segment
    midpoint, and off every inner vertex the points 0.5 m along its bisector
    on both sides, which are as far from both of its segments."""
    out = []
    for lane in road.lanes.values():
        cl = lane.centerline
        out += [cl, (cl[1:] + cl[:-1]) / 2]
        for prev, v, nxt in zip(cl[:-2], cl[1:-1], cl[2:]):
            u, w = prev - v, nxt - v
            if min(np.linalg.norm(u), np.linalg.norm(w)) <= 1e-9:
                continue
            bis = u / np.linalg.norm(u) + w / np.linalg.norm(w)
            if np.linalg.norm(bis) <= 1e-9:  # straight on: the normal
                bis = np.array([-u[1], u[0]])
            bis = 0.5 * bis / np.linalg.norm(bis)
            out += [v + bis, v - bis]
    return np.vstack(out)


@functools.cache
def _heading_roads():
    return [*(road_of(kind) for kind in synth.MapKind),
            *(_moved(kind, 137)[0] for kind in synth.MapKind)]


def _assert_headings_match(road, points) -> None:
    n_lanes = len(road.lane_ids)
    cols = np.repeat(np.arange(n_lanes), len(points))
    got = road.lane_heading_at(cols, np.tile(points, (n_lanes, 1)))
    want = [reference_polyline_heading(p, road.lanes[road.lane_ids[c]].centerline)
            for c, p in zip(cols, np.tile(points, (n_lanes, 1)))]
    assert got.tolist() == want


class TestLaneHeadingAt:
    @pytest.mark.parametrize("i", range(6))
    def test_every_lane_at_vertices_midpoints_and_bisectors(self, i):
        road = _heading_roads()[i]
        _assert_headings_match(road, _probe_points(road))

    @settings(max_examples=20)
    @given(st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_every_lane_at_random_points(self, i, seed):
        road = _heading_roads()[i]
        rings = np.vstack(road.drivable)
        rng = np.random.default_rng(seed)
        points = rng.uniform(rings.min(axis=0) - 5, rings.max(axis=0) + 5, size=(20, 2))
        _assert_headings_match(road, points)

    def test_no_points(self):
        road = road_of(synth.MapKind.STRAIGHT)
        assert road.lane_heading_at([], np.empty((0, 2))).shape == (0,)
