"""Rotation and translation are no input: turning the map, the tracks and
the predictions about the origin, or shifting them all, leaves every tag,
triad flag and metric as it was, up to rounding.

Tags, triad flags, DAC and ATT are decisions and counts, so they stay
equal. The distances move by rounding only; RF and AMV are ratios and sums
of them, so they are bounded relative to their size; AAE takes ``acos`` of
near-parallel chords, where rounding weighs most. DAO is left out of the
rotation test: its ROI is axis-aligned, so a turned track covers other
cells. A shift by whole cells covers the same cells, so DAO stays equal.

A shift to city-frame coordinates, kilometres from the origin as map data
often lies, rounds each coordinate to a coarser grid: the shift test's
bounds are multiples of the spacing of floats at the offset, so an absolute
epsilon that assumes coordinates near the origin would show.
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
# whole multiples of DAO's 0.5 m cell: a town's, and a UTM zone's, offset
OFFSETS = [(2600.0, 1250.5), (4e5, 4.5e6)]
SHIFT_EQUAL = ("DAC", "ATT", "DAO")
# the bounds of the shift test, in spacings of floats at the offset
METRES_ULPS, RELATIVE_ULPS, AAE_ULPS = 8, 128, 256


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


def _moved(kind: synth.MapKind, degrees: float = 0.0, offset=(0.0, 0.0)):
    """``_scene(kind)`` turned by ``degrees`` about the origin, then shifted
    by ``offset``; the map through its JSON document, so it is built and
    checked anew."""
    road, records, preds = _scene(kind)
    a = math.radians(degrees)
    turn = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])

    def move(points):
        return np.asarray(points, float) @ turn + offset

    doc = io.map_to_dict(road)
    for lane in doc["lanes"]:
        lane["centerline"] = move(lane["centerline"]).tolist()
        lane["polygon"] = move(lane["polygon"]).tolist()
    doc["drivable_area"] = [move(ring).tolist() for ring in doc["drivable_area"]]
    records = [
        ScenarioRecord(id=r.id, map_id=r.map_id, agent_id=r.agent_id, dt=r.dt,
                       past=Trajectory(move(r.past.points), r.dt),
                       future=Trajectory(move(r.future.points), r.dt))
        for r in records
    ]
    preds = {
        p: [PredictionSet.from_points(s.scenario_id, move(s.points), s.dt,
                                      anchor=move(s.anchor))
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
    got_tags, got = _scores(*_moved(kind, degrees))
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


@pytest.mark.parametrize("offset", OFFSETS, ids=["town", "utm"])
@pytest.mark.parametrize("kind", list(synth.MapKind), ids=lambda m: m.value)
def test_shifted_scene_keeps_every_tag_and_metric(kind, offset):
    assert CFG.dao.cell == 0.5
    ulp = float(np.spacing(max(map(abs, offset))))
    want_tags, want = _original_scores(kind)
    got_tags, got = _scores(*_moved(kind, offset=offset))
    assert got_tags == want_tags
    for key, w in want.items():
        g = got[key]
        for name in PASSES:
            assert getattr(g.triad, name) == getattr(w.triad, name), (key, name)
        for name in SHIFT_EQUAL:
            assert g.values[name] == w.values[name], (key, name)
        for name in METRES:
            a, b = w.values[name], g.values[name]
            assert abs(a - b) <= METRES_ULPS * ulp, (key, name, a, b)
        for name in RELATIVE:
            a, b = w.values[name], g.values[name]
            assert abs(a - b) <= RELATIVE_ULPS * ulp * max(abs(a), abs(b)), \
                (key, name, a, b)
        a, b = w.values["AAE"], g.values["AAE"]
        assert abs(a - b) <= AAE_ULPS * ulp, (key, "AAE", a, b)
