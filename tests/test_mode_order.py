"""Mode order is no input: permuting a prediction set's modes permutes its
triad flags and leaves every metric as it was.

DAO, DAC, ATT, minFDE, minASD and minFSD are minima, counts or sets of
cells, so they stay bit-equal. minADE, RF, AAE and AMV add over modes or
mode pairs in mode order, so they may move by a few ULP.
"""

import math

import numpy as np
import pytest

from criteria import io, metrics, synth
from criteria.bench import evaluate_scenario
from criteria.trajectory import PredictionSet

EXACT = ("DAO", "DAC", "ATT", "minFDE", "minASD", "minFSD")
SUMMED = ("minADE", "RF", "AAE", "AMV")
MAX_ULP = 64
PASSES = ("boundary_pass", "alignment_pass", "kinematic_pass")
N = 25


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("k", [2, 6, 24])
@pytest.mark.parametrize("predictor", list(synth.PredictorKind),
                         ids=lambda p: p.value)
@pytest.mark.parametrize("kind", list(synth.MapKind), ids=lambda m: m.value)
def test_permuted_modes_keep_every_metric(kind, predictor, k):
    spec = synth.SynthSpec(kind=kind, seed=0, n_scenarios=N)
    road = synth.gen_map(spec)
    cfg = io.RunConfig()
    rng = np.random.default_rng(k)
    for i, rec in enumerate(synth.gen_scenarios(road, spec)):
        pred = synth.toy_predict(predictor, rec, road, k, i)
        perm = rng.permutation(k)
        if (perm == np.arange(k)).all():
            perm = perm[::-1]
        permuted = PredictionSet.from_points(
            rec.id, pred.points[perm], pred.dt, anchor=pred.anchor)
        want, got = (
            evaluate_scenario(rec, road, p, metrics.att([p], road, cfg.alignment,
                                                       cfg.kinematic)[0], cfg)
            for p in (pred, permuted))
        for name in PASSES:
            flags = getattr(want.triad, name)
            assert getattr(got.triad, name) == tuple(flags[j] for j in perm), name
        for name in EXACT:
            assert got.values[name] == want.values[name], (rec.id, name)
        for name in SUMMED:
            a, b = want.values[name], got.values[name]
            assert a == b or _ulps(a, b) <= MAX_ULP, (rec.id, name, a, b)
