"""Rotation is no input: turning the map, the tracks and the predictions
about the origin leaves every tag, triad flag and metric as it was, up to
rounding.

Tags, triad flags, DAC and ATT are decisions and counts, so they stay
equal. The distances move by rounding only; RF and AMV are ratios and sums
of them, so they are bounded relative to their size; AAE takes ``acos`` of
near-parallel chords, where rounding weighs most. DAO is left out: its ROI
is axis-aligned, so a turned track covers other cells.
"""

import functools
import math

import numpy as np
import pytest

from criteria import io, synth
from criteria.bench import evaluate_model
from criteria.metrics import min_fde
from criteria.scenario import ScenarioRecord, tag_all
from criteria.trajectory import PredictionSet, Trajectory

N, SEED, K = 25, 3, 6
CFG = io.RunConfig()
PASSES = ("boundary_pass", "alignment_pass", "kinematic_pass")
EQUAL = ("DAC", "ATT")
METRES = ("minADE", "minFDE", "minASD", "minFSD")
MAX_METRES = 1e-12
RELATIVE = ("RF", "AMV")
MAX_RELATIVE = 1e-11
MAX_AAE_DEG = 1e-5


@functools.cache
def _scene(kind: synth.MapKind):
    """The map, the records and each toy predictor's prediction sets."""
    spec = synth.SynthSpec(kind=kind, seed=SEED, n_scenarios=N)
    road = synth.gen_map(spec)
    records = synth.gen_scenarios(road, spec)
    preds = {
        p: [synth.toy_predict(p, rec, road, K, SEED + i)
            for i, rec in enumerate(records)]
        for p in synth.PredictorKind
    }
    return road, records, preds


def _turned(kind: synth.MapKind, degrees: float):
    """``_scene(kind)`` turned by ``degrees`` about the origin; the map
    through its JSON document, so it is built and checked anew."""
    road, records, preds = _scene(kind)
    a = math.radians(degrees)
    turn = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])

    def rotate(points):
        return np.asarray(points, float) @ turn

    doc = io.map_to_dict(road)
    for lane in doc["lanes"]:
        lane["centerline"] = rotate(lane["centerline"]).tolist()
        lane["polygon"] = rotate(lane["polygon"]).tolist()
    doc["drivable_area"] = [rotate(ring).tolist() for ring in doc["drivable_area"]]
    records = [
        ScenarioRecord(id=r.id, map_id=r.map_id, agent_id=r.agent_id, dt=r.dt,
                       past=Trajectory(rotate(r.past.points), r.dt),
                       future=Trajectory(rotate(r.future.points), r.dt))
        for r in records
    ]
    preds = {
        p: [PredictionSet.from_points(s.scenario_id, rotate(s.points), s.dt,
                                      anchor=rotate(s.anchor))
            for s in sets]
        for p, sets in preds.items()
    }
    return io.map_from_dict(doc), records, preds


def _scores(road, records, preds):
    """The tags, with every predictor's minFDE, and each (predictor,
    scenario)'s result."""
    table = {rec.id: [min_fde(sets[i], rec.future) for sets in preds.values()]
             for i, rec in enumerate(records)}
    tags, _ = tag_all(records, {road.map_id: road}, table, CFG.scenario)
    results = {}
    for p, sets in preds.items():
        run = evaluate_model(p.value, records, {road.map_id: road},
                             {s.scenario_id: s for s in sets}, CFG)
        results.update({(p.value, sid): r for sid, r in run.per_scenario.items()})
    return tags, results


@functools.cache
def _original_scores(kind: synth.MapKind):
    return _scores(*_scene(kind))


@pytest.mark.parametrize("degrees", [30, 45, 90, 137])
@pytest.mark.parametrize("kind", list(synth.MapKind), ids=lambda m: m.value)
def test_turned_scene_keeps_every_tag_and_metric(kind, degrees):
    want_tags, want = _original_scores(kind)
    got_tags, got = _scores(*_turned(kind, degrees))
    assert got_tags == want_tags
    for key, w in want.items():
        g = got[key]
        for name in PASSES:
            assert getattr(g.triad, name) == getattr(w.triad, name), (key, name)
        for name in EQUAL:
            assert g.values[name] == w.values[name], (key, name)
        for name in METRES:
            a, b = w.values[name], g.values[name]
            assert abs(a - b) <= MAX_METRES, (key, name, a, b)
        for name in RELATIVE:
            a, b = w.values[name], g.values[name]
            assert abs(a - b) <= MAX_RELATIVE * max(abs(a), abs(b)), (key, name, a, b)
        a, b = w.values["AAE"], g.values["AAE"]
        assert abs(a - b) <= MAX_AAE_DEG, (key, "AAE", a, b)
