"""Evaluation runs: per-scenario metrics, category aggregation, ranking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import metrics
from .errors import DataConsistencyError, SettingError, ShapeError
from .map_model import RoadMap
from .metrics import TriadResult
from .scenario import Difficulty, ScenarioRecord, ScenarioTag
from .trajectory import PredictionSet

if TYPE_CHECKING:  # io imports this module
    from .io import RunConfig

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
        SettingError.check_finite(self)
        names = ("w_hard", "w_middle", "w_easy")
        for name in names:
            if getattr(self, name) < 0:
                raise SettingError(f"{name} must be non-negative", name)
        if all(getattr(self, name) == 0 for name in names):
            raise SettingError("weights must not all be zero")

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
    config: RunConfig


@dataclass
class MetricReport:
    model_name: str
    # category key "STRUCTURE/DIFFICULTY/LENGTH" -> metric -> mean
    per_category: dict[str, dict[str, float]]
    # block key "STRUCTURE/LENGTH" (difficulties pooled) -> metric -> mean
    per_block: dict[str, dict[str, float]]
    overall: dict[str, float]
    att_ablation: dict[str, float]


def evaluate_scenario(
    rec: ScenarioRecord, road: RoadMap, pred: PredictionSet, config: RunConfig
) -> ScenarioResult:
    triad = metrics.att(pred, road, config.alignment, config.kinematic)
    values = {
        "minADE": metrics.min_ade(pred, rec.future),
        "minFDE": metrics.min_fde(pred, rec.future),
        "RF": metrics.rf(pred, rec.future),
        "minASD": metrics.min_asd(pred),
        "minFSD": metrics.min_fsd(pred),
        "AAE": metrics.aae(pred, unit=config.aae_unit),
        "AMV": metrics.amv(pred, config.kinematic, config.amv_reduction),
        "DAO": metrics.dao(pred, road, config.dao),
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
    config: RunConfig,
) -> EvaluationRun:
    check_predictions(records, predictions)
    for rec in records:
        if rec.map_id not in maps:
            raise DataConsistencyError(
                f"scenario {rec.id!r}: unknown map {rec.map_id!r}"
            )

    per_scenario = {
        rec.id: evaluate_scenario(rec, maps[rec.map_id], predictions[rec.id], config)
        for rec in sorted(records, key=lambda r: r.id)
    }
    return EvaluationRun(model_name=model_name, per_scenario=per_scenario,
                         config=config)


def check_predictions(records: Sequence[ScenarioRecord],
                      predictions: Mapping[str, PredictionSet]) -> None:
    """Refuse predictions that do not fit their scenarios: a scenario with
    no prediction, fewer than 2 modes, or another horizon or dt."""
    missing = sorted(r.id for r in records if r.id not in predictions)
    if missing:
        raise DataConsistencyError(f"predictions missing for scenarios: {missing}")
    for rec in records:
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
        if pred.dt != rec.dt:
            raise DataConsistencyError(
                f"scenario {rec.id!r}: prediction dt {pred.dt} != scenario dt "
                f"{rec.dt}"
            )


def _group_means(groups: Iterable[tuple]) -> dict:
    """Group key -> metric -> mean over the group's results."""
    return {
        key: {name: metrics.mean([r.values[name] for r in results])
              for name in METRIC_NAMES}
        for key, results in groups
    }


def aggregate(
    run: EvaluationRun,
    tags: Mapping[str, ScenarioTag],
    weights: WeightConfig = WeightConfig(),
) -> MetricReport:
    """Category, block and weighted overall means of one run, grouped by tag
    in one pass, and the ATT ablation."""
    if not run.per_scenario:
        raise DataConsistencyError(
            f"model {run.model_name!r}: no scenarios to aggregate")
    missing = sorted(sid for sid in run.per_scenario if sid not in tags)
    if missing:
        raise DataConsistencyError(f"tags missing for scenarios: {missing}")

    by_category: dict[str, list[ScenarioResult]] = {}
    by_block: dict[str, list[ScenarioResult]] = {}
    by_difficulty: dict[Difficulty, list[ScenarioResult]] = {}
    for sid, result in run.per_scenario.items():
        tag = tags[sid]
        by_category.setdefault(tag.category(), []).append(result)
        by_block.setdefault(f"{tag.structure.value}/{tag.length.value}",
                            []).append(result)
        by_difficulty.setdefault(tag.difficulty, []).append(result)

    # weights divided by the largest present one: no weighted sum overflows
    top = max(weights.of(d) for d in by_difficulty)
    if top == 0:
        raise DataConsistencyError("weights are 0 for every difficulty present")
    # not sorted: the weighted sums add difficulties in first-seen order
    per_difficulty = _group_means(by_difficulty.items())
    w = {d: weights.of(d) / top for d in per_difficulty}
    overall = {
        name: metrics.total(w[d] * per_difficulty[d][name] for d in w)
        / metrics.total(w.values())
        for name in METRIC_NAMES
    }

    all_triads = [r.triad for r in run.per_scenario.values()]
    att_ablation = {
        test: metrics.mean([t.test_rates()[test] for t in all_triads])
        for test in TEST_NAMES
    }
    return MetricReport(
        model_name=run.model_name,
        per_category=_group_means(sorted(by_category.items())),
        per_block=_group_means(by_block.items()),
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
