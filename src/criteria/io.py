"""JSON interchange formats: loaders, validators, and writers.

Every writer embeds the full run configuration and sha256 digests of its
input files, and writes atomically (temp file + rename). Serialization uses
sorted keys, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .bench import METRIC_NAMES, WeightConfig
from .errors import DataConsistencyError, SchemaError
from .map_model import LaneSegment, RoadMap, Turn
from .metrics import (
    AlignmentConfig,
    DaoConfig,
    GridTooFineError,
    Reduction,
    StationaryPolicy,
)
from .scenario import ScenarioConfig, ScenarioRecord, ScenarioTag
from .scenario import Difficulty, LengthClass, Structure
from .trajectory import KinematicConfig, PredictionSet, Trajectory


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_dt(doc: dict, path: str) -> float:
    dt = _require(doc, "dt", float, path)
    if dt <= 0:
        raise SchemaError(f"{path}.dt", "expected a positive number")
    return dt


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = doc[key]
    if kind is float:
        if not _finite_number(value):
            raise SchemaError(f"{path}.{key}", "expected a finite number")
        return float(value)
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _items(value: list, kind, path: str) -> tuple:
    """The list ``value`` as a tuple; every item must be a ``kind``."""
    for j, item in enumerate(value):
        if not isinstance(item, kind):
            raise SchemaError(f"{path}[{j}]", f"expected {kind.__name__}")
    return tuple(value)


def _finite_number(c) -> bool:
    """A JSON number that converts to a finite float; ``json`` parses
    ``NaN`` and ``Infinity`` as floats, and big integers overflow."""
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        return False
    try:
        return math.isfinite(float(c))
    except OverflowError:
        return False


def _probabilities(value, k: int, path: str):
    """Validated per-mode probabilities: ``k`` finite, non-negative numbers
    summing to 1 within 1e-6; an absent or null field stays ``None``."""
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != k:
        raise SchemaError(path, f"expected a list of {k} numbers, one per mode")
    for j, p in enumerate(value):
        if not _finite_number(p) or p < 0:
            raise SchemaError(f"{path}[{j}]", "expected a finite non-negative number")
    if abs(sum(value) - 1.0) > 1e-6:
        raise SchemaError(path, "probabilities must sum to 1 within 1e-6")
    return value


def _coords(value, path: str, min_len: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) < min_len:
        raise SchemaError(path, f"expected a list of >= {min_len} [x, y] pairs")
    # fast path: pairs of plain ints and floats, as json.load builds them
    if all(type(pt) is list and len(pt) == 2 for pt in value) and {
        type(c) for pt in value for c in pt
    } <= {int, float}:
        try:
            pts = np.asarray(value, dtype=float)
        except OverflowError:  # an integer beyond float range
            pts = None
        if pts is not None and np.isfinite(pts).all():
            return pts
    for i, pt in enumerate(value):
        if (
            not isinstance(pt, list)
            or len(pt) != 2
            or not all(_finite_number(c) for c in pt)
        ):
            raise SchemaError(
                f"{path}[{i}]", "expected an [x, y] pair of finite numbers"
            )
    return np.asarray(value, dtype=float)


def _load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"invalid JSON: {e}") from e


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        return super().default(o)


def write_json(path, doc) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True, cls=_Encoder)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    kinematic: KinematicConfig = field(default_factory=KinematicConfig)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    dao: DaoConfig = field(default_factory=DaoConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    weights: WeightConfig = field(default_factory=WeightConfig)
    amv_reduction: Reduction = Reduction.SUM
    aae_unit: str = "deg"

    def to_dict(self) -> dict:
        return {
            "kinematic": {
                "a_min": self.kinematic.a_min,
                "a_max": self.kinematic.a_max,
                "window": self.kinematic.window,
            },
            "alignment": {
                "threshold_lac": self.alignment.threshold_lac,
                "tail_steps": self.alignment.tail_steps,
                "stationary_eps": self.alignment.stationary_eps,
                "stationary_policy": self.alignment.stationary_policy.value,
            },
            "dao": {
                "cell": self.dao.cell,
                "roi_side": self.dao.roi_side,
                "scale": self.dao.scale,
            },
            "scenario": {
                "turn_radius": self.scenario.turn_radius,
                "alpha": list(self.scenario.alpha),
                "beta": self.scenario.beta,
            },
            "weights": {
                "w_hard": self.weights.w_hard,
                "w_middle": self.weights.w_middle,
                "w_easy": self.weights.w_easy,
            },
            "amv_reduction": self.amv_reduction.value,
            "aae_unit": self.aae_unit,
        }

    @classmethod
    def from_dict(cls, doc: dict, path: str = "$") -> "RunConfig":
        if not isinstance(doc, dict):
            raise SchemaError(path, "expected an object")
        defaults = cls().to_dict()
        kin, ali, dao, sce, wts = (
            _config_section(doc, name, defaults[name], path)
            for name in ("kinematic", "alignment", "dao", "scenario", "weights")
        )
        try:
            dao_config = DaoConfig(**dao)
        except GridTooFineError as e:
            raise SchemaError(f"{path}.dao.cell", str(e)) from e
        except (TypeError, ValueError) as e:
            raise SchemaError(path, f"invalid configuration: {e}") from e
        try:
            return cls(
                kinematic=KinematicConfig(**kin),
                alignment=AlignmentConfig(
                    threshold_lac=ali["threshold_lac"],
                    tail_steps=ali["tail_steps"],
                    stationary_eps=ali["stationary_eps"],
                    stationary_policy=StationaryPolicy(ali["stationary_policy"]),
                ),
                dao=dao_config,
                scenario=ScenarioConfig(
                    turn_radius=sce["turn_radius"],
                    alpha=tuple(sce["alpha"]),
                    beta=sce["beta"],
                ),
                weights=WeightConfig(**wts),
                amv_reduction=Reduction(doc.get("amv_reduction", "SUM")),
                aae_unit=doc.get("aae_unit", "deg"),
            )
        except (TypeError, ValueError, KeyError) as e:
            raise SchemaError(path, f"invalid configuration: {e}") from e


def _config_section(doc: dict, name: str, defaults: dict, path: str) -> dict:
    """The defaults of section ``name`` overridden by ``doc[name]``. Each
    override of a number must be a finite number, or an integer where the
    default is one; each override of a list of numbers, as many of them."""
    sp = f"{path}.{name}"
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise SchemaError(sp, "expected an object")
    for key, value in section.items():
        default = defaults.get(key)
        if isinstance(default, list):
            if not isinstance(value, list) or len(value) != len(default):
                raise SchemaError(
                    f"{sp}.{key}", f"expected a list of {len(default)} numbers"
                )
            for j, v in enumerate(value):
                if not _finite_number(v):
                    raise SchemaError(f"{sp}.{key}[{j}]", "expected a finite number")
        elif type(default) is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"{sp}.{key}", "expected an integer")
        elif type(default) is float and not _finite_number(value):
            raise SchemaError(f"{sp}.{key}", "expected a finite number")
    return {**defaults, **section}


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(_load_json(path))


# -- map files -------------------------------------------------------------


def map_to_dict(road: RoadMap) -> dict:
    return {
        "map_id": road.map_id,
        "lanes": [
            {
                "id": lane.id,
                "centerline": lane.centerline.tolist(),
                "polygon": lane.polygon.tolist(),
                "turn": lane.turn.value,
                "is_intersection": lane.is_intersection,
                "successors": list(lane.successors),
                "left_neighbor": lane.left_neighbor,
                "right_neighbor": lane.right_neighbor,
            }
            for lane in road.lanes.values()
        ],
        "drivable_area": [ring.tolist() for ring in road.drivable],
    }


def map_from_dict(doc: dict, path: str = "$") -> RoadMap:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    map_id = _require(doc, "map_id", str, path)
    lanes_doc = _require(doc, "lanes", list, path)
    lanes = []
    for i, lane_doc in enumerate(lanes_doc):
        lp = f"{path}.lanes[{i}]"
        if not isinstance(lane_doc, dict):
            raise SchemaError(lp, "expected an object")
        turn_raw = _require(lane_doc, "turn", str, lp)
        try:
            turn = Turn(turn_raw)
        except ValueError:
            raise SchemaError(f"{lp}.turn", f"unknown turn kind {turn_raw!r}")
        lanes.append(
            LaneSegment(
                id=_require(lane_doc, "id", str, lp),
                centerline=_coords(
                    _require(lane_doc, "centerline", list, lp),
                    f"{lp}.centerline", 2,
                ),
                polygon=_coords(
                    _require(lane_doc, "polygon", list, lp), f"{lp}.polygon", 3
                ),
                turn=turn,
                is_intersection=_require(lane_doc, "is_intersection", bool, lp),
                successors=_items(
                    _require(lane_doc, "successors", list, lp), str,
                    f"{lp}.successors",
                ),
                left_neighbor=_lane_ref(lane_doc, "left_neighbor", lp),
                right_neighbor=_lane_ref(lane_doc, "right_neighbor", lp),
            )
        )
    drivable_doc = _require(doc, "drivable_area", list, path)
    drivable = [
        _coords(ring, f"{path}.drivable_area[{i}]", 3)
        for i, ring in enumerate(drivable_doc)
    ]
    return RoadMap(map_id=map_id, lanes=lanes, drivable=drivable)


def _lane_ref(doc: dict, key: str, path: str) -> str | None:
    ref = doc.get(key)
    if ref is not None and not isinstance(ref, str):
        raise SchemaError(f"{path}.{key}", "expected a lane id string or null")
    return ref


def load_map(path) -> RoadMap:
    return map_from_dict(_load_json(path))


def save_map(path, road: RoadMap) -> None:
    write_json(path, map_to_dict(road))


# -- scenario files ------------------------------------------------------------


def scenarios_to_dict(records: list[ScenarioRecord]) -> dict:
    return {
        "scenarios": [
            {
                "id": r.id,
                "map_id": r.map_id,
                "agent_id": r.agent_id,
                "dt": r.dt,
                "past": r.past.points.tolist(),
                "future": r.future.points.tolist(),
            }
            for r in records
        ]
    }


def scenarios_from_dict(doc: dict, path: str = "$") -> list[ScenarioRecord]:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    items = _require(doc, "scenarios", list, path)
    records = []
    seen = set()
    for i, rec_doc in enumerate(items):
        rp = f"{path}.scenarios[{i}]"
        if not isinstance(rec_doc, dict):
            raise SchemaError(rp, "expected an object")
        sid = _require(rec_doc, "id", str, rp)
        if sid in seen:
            raise DataConsistencyError(f"duplicate scenario id {sid!r}")
        seen.add(sid)
        dt = _require_dt(rec_doc, rp)
        records.append(
            ScenarioRecord(
                id=sid,
                map_id=_require(rec_doc, "map_id", str, rp),
                agent_id=_require(rec_doc, "agent_id", str, rp),
                dt=dt,
                past=Trajectory(
                    _coords(_require(rec_doc, "past", list, rp),
                            f"{rp}.past", 2),
                    dt,
                ),
                future=Trajectory(
                    _coords(_require(rec_doc, "future", list, rp),
                            f"{rp}.future", 2),
                    dt,
                ),
            )
        )
    return records


def load_scenarios(path) -> list[ScenarioRecord]:
    return scenarios_from_dict(_load_json(path))


def save_scenarios(path, records: list[ScenarioRecord]) -> None:
    write_json(path, scenarios_to_dict(records))


# -- prediction files ----------------------------------------------------------


def predictions_to_dict(model: str, dt: float,
                        preds: list[PredictionSet]) -> dict:
    return {
        "model": model,
        "dt": dt,
        "predictions": [
            {
                "scenario_id": p.scenario_id,
                "anchor": p.anchor.tolist(),
                "modes": [m.points.tolist() for m in p.modes],
                **(
                    {"probabilities": list(p.probabilities)}
                    if p.probabilities is not None
                    else {}
                ),
            }
            for p in preds
        ],
    }


def predictions_from_dict(
    doc: dict, path: str = "$"
) -> tuple[str, dict[str, PredictionSet]]:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    model = _require(doc, "model", str, path)
    dt = _require_dt(doc, path)
    items = _require(doc, "predictions", list, path)
    out: dict[str, PredictionSet] = {}
    for i, pdoc in enumerate(items):
        pp = f"{path}.predictions[{i}]"
        if not isinstance(pdoc, dict):
            raise SchemaError(pp, "expected an object")
        sid = _require(pdoc, "scenario_id", str, pp)
        if sid in out:
            raise DataConsistencyError(f"duplicate prediction for {sid!r}")
        anchor = _coords([_require(pdoc, "anchor", list, pp)],
                         f"{pp}.anchor", 1)[0]
        modes_doc = _require(pdoc, "modes", list, pp)
        if len(modes_doc) < 1:
            raise SchemaError(f"{pp}.modes", "expected at least one mode")
        lengths = set()
        modes = []
        for k, mode_doc in enumerate(modes_doc):
            pts = _coords(mode_doc, f"{pp}.modes[{k}]", 2)
            lengths.add(len(pts))
            modes.append(Trajectory(pts, dt))
        if len(lengths) > 1:
            raise SchemaError(f"{pp}.modes", "ragged modes array")
        out[sid] = PredictionSet(
            scenario_id=sid,
            modes=modes,
            probabilities=_probabilities(
                pdoc.get("probabilities"), len(modes), f"{pp}.probabilities"
            ),
            anchor=anchor,
        )
    return model, out


def load_predictions(path) -> tuple[str, dict[str, PredictionSet]]:
    return predictions_from_dict(_load_json(path))


def save_predictions(path, model: str, dt: float,
                     preds: list[PredictionSet]) -> None:
    write_json(path, predictions_to_dict(model, dt, preds))


# -- tags files ------------------------------------------------------------


def tags_to_dict(tags: dict[str, ScenarioTag], counts: dict[str, int],
                 config: RunConfig, inputs: dict[str, str]) -> dict:
    return {
        "config": config.to_dict(),
        "inputs": inputs,
        "tags": {
            sid: {
                "structure": t.structure.value,
                "difficulty": t.difficulty.value,
                "length": t.length.value,
            }
            for sid, t in sorted(tags.items())
        },
        "category_counts": counts,
    }


def tags_from_dict(doc: dict, path: str = "$") -> dict[str, ScenarioTag]:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    items = _require(doc, "tags", dict, path)
    out = {}
    for sid, tdoc in items.items():
        tp = f"{path}.tags.{sid}"
        if not isinstance(tdoc, dict):
            raise SchemaError(tp, "expected an object")
        try:
            out[sid] = ScenarioTag(
                structure=Structure(_require(tdoc, "structure", str, tp)),
                difficulty=Difficulty(_require(tdoc, "difficulty", str, tp)),
                length=LengthClass(_require(tdoc, "length", str, tp)),
            )
        except ValueError as e:
            raise SchemaError(tp, str(e)) from e
    return out


def load_tags(path) -> dict[str, ScenarioTag]:
    return tags_from_dict(_load_json(path))


# -- metrics files ----------------------------------------------------------


def metrics_to_dict(run, config: RunConfig, inputs: dict[str, str],
                    tags: dict[str, ScenarioTag] | None = None) -> dict:
    doc = {
        "model": run.model_name,
        "config": config.to_dict(),
        "inputs": inputs,
        "per_scenario": {
            sid: {
                **result.values,
                "triad": {
                    "boundary_pass": list(result.triad.boundary_pass),
                    "alignment_pass": list(result.triad.alignment_pass),
                    "kinematic_pass": list(result.triad.kinematic_pass),
                    "admissible": list(result.triad.admissible),
                },
            }
            for sid, result in run.per_scenario.items()
        },
    }
    if tags is not None:
        doc["tags"] = {
            sid: {
                "structure": t.structure.value,
                "difficulty": t.difficulty.value,
                "length": t.length.value,
            }
            for sid, t in sorted(tags.items())
            if sid in run.per_scenario
        }
    return doc


def metrics_from_dict(doc: dict, path: str = "$"):
    """Rehydrate an EvaluationRun (and embedded tags, if present)."""
    from .bench import EvaluationRun, ScenarioResult
    from .metrics import TriadResult

    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    model = _require(doc, "model", str, path)
    per = _require(doc, "per_scenario", dict, path)
    out = {}
    for sid, sdoc in per.items():
        sp = f"{path}.per_scenario.{sid}"
        if not isinstance(sdoc, dict):
            raise SchemaError(sp, "expected an object")
        tdoc = _require(sdoc, "triad", dict, sp)
        tp = f"{sp}.triad"
        passes = [
            _items(_require(tdoc, key, list, tp), bool, f"{tp}.{key}")
            for key in ("boundary_pass", "alignment_pass", "kinematic_pass")
        ]
        if not passes[0] or any(len(p) != len(passes[0]) for p in passes):
            raise SchemaError(tp, "expected one flag per mode in every list")
        values = {k: _require(sdoc, k, float, sp) for k in sdoc if k != "triad"}
        for name in METRIC_NAMES:
            if name not in values:
                raise SchemaError(f"{sp}.{name}", "missing required field")
        out[sid] = ScenarioResult(values=values, triad=TriadResult(*passes))
    run = EvaluationRun(
        model_name=model,
        per_scenario=dict(sorted(out.items())),
        config_snapshot=doc.get("config", {}),
    )
    tags = tags_from_dict(doc, path) if "tags" in doc else {}
    return run, tags


def load_metrics(path):
    return metrics_from_dict(_load_json(path))
