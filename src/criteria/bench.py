"""Evaluation runs: per-scenario metrics, category aggregation, ranking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import metrics
from .errors import DataConsistencyError, ShapeError
from .map_model import RoadMap
from .metrics import AlignmentConfig, DaoConfig, Reduction, TriadResult
from .scenario import Difficulty, ScenarioRecord, ScenarioTag
from .trajectory import KinematicConfig, PredictionSet

# metric name -> True when larger is better
METRIC_DIRECTIONS = {
    "minADE": False,
    "minFDE": False,
    "RF": True,
    "minASD": True,
    "minFSD": True,
    "AAE": True,
    "AMV": True,
    "DAO": True,
    "DAC": True,
    "ATT": True,
}
METRIC_NAMES = tuple(METRIC_DIRECTIONS)
TEST_NAMES = ("boundary", "alignment", "kinematic")


@dataclass(frozen=True)
class WeightConfig:
    """Difficulty weights for the overall aggregate."""

    w_hard: float = 1.0
    w_middle: float = 1.0
    w_easy: float = 1.0

    def __post_init__(self):
        ws = (self.w_hard, self.w_middle, self.w_easy)
        if any(w < 0 for w in ws) or all(w == 0 for w in ws):
            raise ValueError("weights must be non-negative and not all zero")

    def of(self, d: Difficulty) -> float:
        return {
            Difficulty.HARD: self.w_hard,
            Difficulty.MIDDLE: self.w_middle,
            Difficulty.EASY: self.w_easy,
        }[d]


@dataclass
class ScenarioResult:
    values: dict[str, float]
    triad: TriadResult


@dataclass
class EvaluationRun:
    model_name: str
    per_scenario: dict[str, ScenarioResult]
    config_snapshot: dict


@dataclass
class MetricReport:
    model_name: str
    # category key "STRUCTURE/DIFFICULTY/LENGTH" -> metric -> mean
    per_category: dict[str, dict[str, float]]
    overall: dict[str, float]
    att_ablation: dict[str, float]


def evaluate_scenario(
    rec: ScenarioRecord,
    road: RoadMap,
    pred: PredictionSet,
    align_cfg: AlignmentConfig,
    kin_cfg: KinematicConfig,
    dao_cfg: DaoConfig,
    amv_reduction: Reduction = Reduction.SUM,
    aae_unit: str = "deg",
) -> ScenarioResult:
    if pred.anchor is None:
        raise DataConsistencyError(f"prediction {pred.scenario_id!r} has no anchor")
    kin = kin_cfg.with_anchor(pred.anchor)
    triad = metrics.att(pred, road, align_cfg, kin)
    values = {
        "minADE": metrics.min_ade(pred, rec.future),
        "minFDE": metrics.min_fde(pred, rec.future),
        "RF": metrics.rf(pred, rec.future),
        "minASD": metrics.min_asd(pred),
        "minFSD": metrics.min_fsd(pred),
        "AAE": metrics.aae(pred, unit=aae_unit),
        "AMV": metrics.amv(pred, kin, amv_reduction),
        "DAO": metrics.dao(pred, road, dao_cfg, pred.anchor),
        # same value as metrics.dac, without a second boundary test per mode
        "DAC": triad.test_rates()["boundary"],
        "ATT": triad.att_rate,
    }
    return ScenarioResult(values=values, triad=triad)


def evaluate_model(
    model_name: str,
    records: Sequence[ScenarioRecord],
    maps: Mapping[str, RoadMap],
    predictions: Mapping[str, PredictionSet],
    align_cfg: AlignmentConfig = AlignmentConfig(),
    kin_cfg: KinematicConfig = KinematicConfig(),
    dao_cfg: DaoConfig = DaoConfig(),
    amv_reduction: Reduction = Reduction.SUM,
    aae_unit: str = "deg",
    config_snapshot: dict | None = None,
) -> EvaluationRun:
    missing = sorted(r.id for r in records if r.id not in predictions)
    if missing:
        raise DataConsistencyError(f"predictions missing for scenarios: {missing}")
    for rec in records:
        if rec.map_id not in maps:
            raise DataConsistencyError(
                f"scenario {rec.id!r}: unknown map {rec.map_id!r}"
            )
        pred = predictions[rec.id]
        if pred.k < 2:
            raise DataConsistencyError(
                f"scenario {rec.id!r}: pairwise metrics need >= 2 modes, "
                f"got {pred.k}"
            )
        if pred.points.shape[1] != len(rec.future):
            raise ShapeError(
                f"scenario {rec.id!r}: prediction horizon "
                f"{pred.points.shape[1]} != ground truth {len(rec.future)}"
            )

    per_scenario = {
        rec.id: evaluate_scenario(
            rec,
            maps[rec.map_id],
            predictions[rec.id],
            align_cfg,
            kin_cfg,
            dao_cfg,
            amv_reduction,
            aae_unit,
        )
        for rec in sorted(records, key=lambda r: r.id)
    }
    return EvaluationRun(
        model_name=model_name,
        per_scenario=per_scenario,
        config_snapshot=config_snapshot or {},
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def aggregate(
    run: EvaluationRun,
    tags: Mapping[str, ScenarioTag],
    weights: WeightConfig = WeightConfig(),
) -> MetricReport:
    missing = sorted(sid for sid in run.per_scenario if sid not in tags)
    if missing:
        raise DataConsistencyError(f"tags missing for scenarios: {missing}")

    by_category: dict[str, list[ScenarioResult]] = {}
    by_difficulty: dict[Difficulty, list[ScenarioResult]] = {}
    for sid, result in run.per_scenario.items():
        tag = tags[sid]
        by_category.setdefault(tag.category(), []).append(result)
        by_difficulty.setdefault(tag.difficulty, []).append(result)

    per_category = {
        cat: {
            name: _mean([r.values[name] for r in results])
            for name in METRIC_NAMES
        }
        for cat, results in sorted(by_category.items())
    }

    overall: dict[str, float] = {}
    for name in METRIC_NAMES:
        num = 0.0
        den = 0.0
        for d, results in by_difficulty.items():
            w = weights.of(d)
            num += w * _mean([r.values[name] for r in results])
            den += w
        if den > 0:
            overall[name] = num / den

    all_triads = [r.triad for r in run.per_scenario.values()]
    att_ablation = {
        test: _mean([t.test_rates()[test] for t in all_triads])
        for test in TEST_NAMES
    }
    return MetricReport(
        model_name=run.model_name,
        per_category=per_category,
        overall=overall,
        att_ablation=att_ablation,
    )


def rank(values: Mapping[str, float], metric: str) -> dict[str, int]:
    """Competition ranking of models on one metric column.

    Ties share the minimum rank; following ranks are skipped.
    """
    if metric not in METRIC_DIRECTIONS:
        raise KeyError(f"unknown metric {metric!r}")
    higher_better = METRIC_DIRECTIONS[metric]
    out = {}
    for model, v in values.items():
        better = sum(
            1 for other in values.values()
            if (other > v) == higher_better and other != v
        )
        out[model] = 1 + better
    return out


def rank_reports(
    reports: Sequence[MetricReport], metric: str, category: str | None = None
) -> dict[str, int]:
    values = {}
    for rep in reports:
        source = rep.overall if category is None else rep.per_category.get(category)
        if source is None or metric not in source:
            raise DataConsistencyError(
                f"model {rep.model_name!r} has no {metric!r} for "
                f"category {category!r}"
            )
        values[rep.model_name] = source[metric]
    return rank(values, metric)


def balance_data(
    reports: Sequence[MetricReport],
    diversity_metric: str = "AAE",
    category: str | None = None,
) -> list[tuple[str, float, float, float]]:
    """(model, diversity, att, minFDE) tuples for the balance scatter chart."""
    if diversity_metric not in ("AAE", "AMV"):
        raise ValueError("diversity_metric must be AAE or AMV")
    rows = []
    for rep in reports:
        source = rep.overall if category is None else rep.per_category.get(category)
        if source is None:
            continue
        rows.append(
            (
                rep.model_name,
                source[diversity_metric],
                source["ATT"],
                source["minFDE"],
            )
        )
    return rows
