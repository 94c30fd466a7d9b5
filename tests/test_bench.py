import copy
import functools
import math

import numpy as np
import pytest

from criteria import metrics, synth
from criteria.bench import (
    METRIC_DIRECTIONS,
    METRIC_NAMES,
    MetricReport,
    WeightConfig,
    aggregate,
    balance_data,
    evaluate_model,
    evaluate_scenario,
    rank,
)
from criteria.errors import DataConsistencyError, ShapeError
from criteria.io import RunConfig
from criteria.scenario import (
    Difficulty,
    LengthClass,
    ScenarioTag,
    Structure,
)
from criteria.trajectory import PredictionSet, Trajectory

SPEC = synth.SynthSpec(kind=synth.MapKind.STRAIGHT, seed=5, n_scenarios=6)
ROAD = synth.gen_map(SPEC)
RECORDS = synth.gen_scenarios(ROAD, SPEC)
PREDS = {
    r.id: synth.toy_predict(synth.PredictorKind.CONST_VEL, r, ROAD, k=3, seed=5)
    for r in RECORDS
}
MAPS = {ROAD.map_id: ROAD}


def tag(structure=Structure.CRUISING, difficulty=Difficulty.EASY,
        length=LengthClass.SHORT):
    return ScenarioTag(structure=structure, difficulty=difficulty, length=length)


class TestEvaluateModel:
    def test_result_keys(self):
        run = evaluate_model("m", RECORDS, MAPS, PREDS, RunConfig())
        assert sorted(run.per_scenario) == sorted(r.id for r in RECORDS)
        for result in run.per_scenario.values():
            assert set(result.values) == set(METRIC_NAMES)

    def test_missing_prediction_names_id(self):
        preds = dict(PREDS)
        dropped = RECORDS[2].id
        del preds[dropped]
        with pytest.raises(DataConsistencyError, match=dropped):
            evaluate_model("m", RECORDS, MAPS, preds, RunConfig())

    def test_unknown_map_rejected(self):
        with pytest.raises(DataConsistencyError, match="unknown map"):
            evaluate_model("m", RECORDS, {}, PREDS, RunConfig())

    def test_horizon_mismatch_rejected(self):
        from criteria.trajectory import Trajectory

        preds = dict(PREDS)
        bad = preds[RECORDS[0].id]
        preds[RECORDS[0].id] = PredictionSet(
            scenario_id=bad.scenario_id,
            modes=[Trajectory(m.points[:10], m.dt) for m in bad.modes],
            probabilities=bad.probabilities,
            anchor=bad.anchor,
        )
        with pytest.raises(ShapeError, match=RECORDS[0].id):
            evaluate_model("m", RECORDS, MAPS, preds, RunConfig())


@functools.lru_cache(maxsize=1)
def base_run():
    return evaluate_model("m", RECORDS, MAPS, PREDS, RunConfig())


def run_with_tags(difficulties):
    """Evaluate the fixture model and tag scenario i with difficulties[i]."""
    run = copy.deepcopy(base_run())
    tags = {
        sid: tag(difficulty=d)
        for sid, d in zip(sorted(run.per_scenario), difficulties)
    }
    return run, tags


class TestEvaluateScenario:
    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_dac_from_triad_equals_metric(self, kind):
        spec = synth.SynthSpec(kind=kind, seed=2, n_scenarios=3)
        road = synth.gen_map(spec)
        dacs = set()
        for rec in synth.gen_scenarios(road, spec):
            for predictor in synth.PredictorKind:
                pred = synth.toy_predict(predictor, rec, road, k=6, seed=2)
                # move one mode off the map so every kind sees DAC < 1
                off = Trajectory(pred.modes[0].points + 1000.0, pred.modes[0].dt)
                pred_off = PredictionSet(
                    scenario_id=rec.id, modes=[off, *pred.modes[1:]],
                    anchor=pred.anchor,
                )
                for p in (pred, pred_off):
                    got = evaluate_scenario(rec, road, p, RunConfig())
                    assert got.values["DAC"] == metrics.dac(p, road)
                    dacs.add(got.values["DAC"])
        assert len(dacs) > 1


class TestAggregate:
    def test_weighted_overall_arithmetic(self):
        run, tags = run_with_tags(
            [Difficulty.HARD, Difficulty.HARD, Difficulty.MIDDLE,
             Difficulty.MIDDLE, Difficulty.EASY, Difficulty.EASY]
        )
        # overwrite one metric with controlled values
        ordered = sorted(run.per_scenario)
        controlled = [2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        for sid, v in zip(ordered, controlled):
            run.per_scenario[sid].values["minADE"] = v
        rep = aggregate(run, tags)
        # difficulty means are 2, 1, 1 with equal weights
        assert rep.overall["minADE"] == pytest.approx(4.0 / 3.0)
        rep_hard = aggregate(run, tags, WeightConfig(1.0, 0.0, 0.0))
        assert rep_hard.overall["minADE"] == pytest.approx(2.0)

    @pytest.mark.parametrize("weights", [
        WeightConfig(1.0, 1e308, 1.0),
        WeightConfig(1e308, 1e308, 1e308),
        WeightConfig(1e308, 0.0, 5e-324),
    ], ids=["one_huge", "all_huge", "huge_and_tiny"])
    def test_huge_weights_stay_finite(self, weights):
        """The weighted sums are taken with each weight divided by the
        largest present one, so they cannot overflow."""
        run, tags = run_with_tags(
            [Difficulty.HARD, Difficulty.MIDDLE, Difficulty.EASY] * 2)
        rep = aggregate(run, tags, weights)
        assert sorted(rep.overall) == sorted(METRIC_NAMES)
        assert all(math.isfinite(v) for v in rep.overall.values())
        plain = aggregate(run, tags, WeightConfig(
            *(w / max(weights.w_hard, weights.w_middle, weights.w_easy)
              for w in (weights.w_hard, weights.w_middle, weights.w_easy))))
        assert rep.overall == pytest.approx(plain.overall)

    def test_zero_weight_for_every_present_difficulty_rejected(self):
        run, tags = run_with_tags([Difficulty.EASY] * len(RECORDS))
        with pytest.raises(DataConsistencyError, match="weights are 0"):
            aggregate(run, tags, WeightConfig(1.0, 1.0, 0.0))

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(0)
        diffs = [Difficulty(d) for d in rng.choice(
            [d.value for d in Difficulty], size=len(RECORDS))]
        run, tags = run_with_tags(diffs)
        rep = aggregate(run, tags)
        for name in METRIC_NAMES:
            means = []
            for d in Difficulty:
                vals = [
                    run.per_scenario[sid].values[name]
                    for sid in run.per_scenario
                    if tags[sid].difficulty is d
                ]
                if vals:
                    means.append(np.mean(vals))
            assert rep.overall[name] == pytest.approx(np.mean(means))

    def test_per_category_means(self):
        run, tags = run_with_tags([Difficulty.EASY] * len(RECORDS))
        rep = aggregate(run, tags)
        cat = tag().category()
        assert list(rep.per_category) == [cat]
        for name in METRIC_NAMES:
            want = np.mean([r.values[name] for r in run.per_scenario.values()])
            assert rep.per_category[cat][name] == pytest.approx(want)

    def test_empty_categories_omitted(self):
        run, tags = run_with_tags([Difficulty.HARD] * len(RECORDS))
        rep = aggregate(run, tags)
        assert all("/HARD/" in cat for cat in rep.per_category)

    def test_missing_tag_rejected(self):
        run, tags = run_with_tags([Difficulty.EASY] * len(RECORDS))
        del tags[sorted(run.per_scenario)[0]]
        with pytest.raises(DataConsistencyError):
            aggregate(run, tags)

    def test_att_ablation_bounds(self):
        run, tags = run_with_tags([Difficulty.EASY] * len(RECORDS))
        rep = aggregate(run, tags)
        att_mean = np.mean(
            [r.values["ATT"] for r in run.per_scenario.values()]
        )
        for rate in rep.att_ablation.values():
            assert att_mean <= rate + 1e-12
            assert 0.0 <= rate <= 1.0


class TestRank:
    def test_table_column(self):
        values = {"m1": 1.73, "m2": 1.08, "m3": 0.96, "m4": 1.08, "m5": 1.08}
        assert rank(values, "minFDE") == {
            "m1": 5, "m2": 2, "m3": 1, "m4": 2, "m5": 2,
        }

    def test_higher_better_direction(self):
        values = {"a": 0.9, "b": 0.5, "c": 0.7}
        assert rank(values, "DAC") == {"a": 1, "b": 3, "c": 2}

    def test_single_model(self):
        assert rank({"only": 3.2}, "minADE") == {"only": 1}

    def test_all_tied(self):
        assert rank({"a": 1.0, "b": 1.0, "c": 1.0}, "AAE") == {
            "a": 1, "b": 1, "c": 1,
        }

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            rank({"a": 1.0}, "bogus")

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        values = {f"m{i}": float(rng.uniform(0, 10)) for i in range(8)}
        base = rank(values, "minADE")
        warped = {k: 3.0 * v + 1.0 for k, v in values.items()}
        assert rank(warped, "minADE") == base

    def test_directions_cover_all_metrics(self):
        assert set(METRIC_DIRECTIONS) == set(METRIC_NAMES)
        assert METRIC_DIRECTIONS["minADE"] is False
        assert METRIC_DIRECTIONS["minFDE"] is False
        assert all(
            METRIC_DIRECTIONS[m]
            for m in METRIC_NAMES
            if m not in ("minADE", "minFDE")
        )


def report(name, **overall):
    base = {m: 1.0 for m in METRIC_NAMES}
    base.update(overall)
    return MetricReport(
        model_name=name,
        per_category={"CRUISING/EASY/SHORT": dict(base)},
        overall=base,
        att_ablation={},
    )


class TestBalanceData:
    def test_tuples(self):
        reps = [report("a", AAE=5.0, ATT=0.9, minFDE=1.2)]
        assert balance_data(reps) == [("a", 5.0, 0.9, 1.2)]

    def test_amv_axis(self):
        reps = [report("a", AMV=2.5, ATT=0.8, minFDE=0.4)]
        assert balance_data(reps, diversity_metric="AMV") == [
            ("a", 2.5, 0.8, 0.4)
        ]

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError):
            balance_data([report("a")], diversity_metric="minADE")

    def test_empty(self):
        assert balance_data([]) == []

    def test_unknown_category_skipped(self):
        assert balance_data([report("a")], category="TURN/HARD/LONG") == []
