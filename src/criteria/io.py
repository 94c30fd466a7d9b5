"""JSON interchange formats: schema tables, loaders and writers.

Each input document has one schema table, and one ``_Walk`` reads a document
against its table. Every writer embeds the full run configuration and sha256
digests of its input files, and writes atomically (temp file + rename).
Serialization uses sorted keys, so identical inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .bench import METRIC_NAMES, EvaluationRun, ScenarioResult, WeightConfig
from .errors import CriteriaError, DataConsistencyError, SchemaError, SettingError
from .geom import COORD_LIMIT
from .map_model import LaneSegment, RoadMap, Turn
from .metrics import AlignmentConfig, AngleUnit, DaoConfig, Reduction, TriadResult
from .scenario import ScenarioConfig, ScenarioRecord, ScenarioTag
from .scenario import Difficulty, LengthClass, Structure
from .trajectory import KinematicConfig, PredictionSet, Trajectory


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finite_number(c) -> bool:
    """A JSON number that converts to a finite float; ``json`` parses
    ``NaN`` and ``Infinity`` as floats, and big integers overflow."""
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        return False
    try:
        return math.isfinite(float(c))
    except OverflowError:
        return False


def _number_array(pairs: list) -> np.ndarray | None:
    """``pairs`` as an ``(n, 2)`` float array when it is a list of pairs of
    JSON numbers, each within ``COORD_LIMIT`` of 0, else ``None``.

    Strings, nulls and objects make another dtype, ragged or deeper lists
    another shape or a ``ValueError``, and integers beyond int64 an object
    array. Bools do not: ``np.array([[True, 1.5]])`` is float and
    ``np.array([[1, True]])`` int, so the leaves equal to 0 or 1 are looked
    up in ``pairs``.
    """
    try:
        arr = np.array(pairs)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "fi" or arr.ndim != 2 or arr.shape[1] != 2:
        return None
    arr = arr.astype(float, copy=False)
    if not (np.abs(arr) <= COORD_LIMIT).all():  # NaN fails too
        return None
    for i, j in np.argwhere((arr == 0) | (arr == 1)).tolist():
        if isinstance(pairs[i][j], bool):
            return None
    return arr


# -- schema tables -------------------------------------------------------------
#
# Each input document has one table, built from these kinds of value: ``str``
# or ``bool``; a function ``f(value, path)`` that returns the value read or
# raises a ``SchemaError`` at ``path``; a dict, for a JSON object whose keys
# are each required unless of kind ``_Optional``, where the key ``...``
# stands for every key the dict does not name (other keys are ignored); and:

# a JSON list of at least ``min_len`` items of the kind ``item``
_List = namedtuple("_List", "item min_len", defaults=[0])
# a key that may be absent or null; either reads as ``None``
_Optional = namedtuple("_Optional", "kind")
# a list of at least ``min_len`` [x, y] pairs, or with ``min_len`` 0 a single
# pair; the walk reads it as its index in the arrays it returns
_Block = namedtuple("_Block", "min_len")
# a non-empty list of modes, blocks of at least ``min_len`` pairs all of one
# length, read as the index of their ``(K, T, 2)`` array
_Modes = namedtuple("_Modes", "min_len")


class _Walk:
    """One pass over a document against its schema table.

    The walk checks values in document order and only collects the
    coordinate blocks; after it, one ``_number_array`` call reads all their
    pairs, and each block and modes value is cut from that array. Before any
    fault is raised, the blocks met so far are read, so a bad pair ahead of
    the fault is named instead: the first fault in document order is named,
    with no second walk.
    """

    def __init__(self):
        self.blocks: list[tuple[list, str]] = []  # each block's pairs, path
        self.size = 0  # the pairs collected so far
        self.cuts: list[tuple[int, int, tuple]] = []  # each value's pairs, shape

    def read(self, table, doc, path: str) -> tuple[Any, list[np.ndarray]]:
        """``doc`` as read with ``table``, and the array of each block and
        modes value."""
        try:
            out = self.value(table, doc, path)
        except SchemaError:
            self.points()  # a bad pair met before the fault comes first
            raise
        pts = self.points()
        return out, [pts[a:b].reshape(shape) for a, b, shape in self.cuts]

    def value(self, kind, value, path: str):
        if type(kind) is dict:
            return self.record(kind, value, path)
        if type(kind) is _List:
            if not isinstance(value, list) or len(value) < kind.min_len:
                raise SchemaError(path, f"expected a list of >= {kind.min_len} items"
                                  if kind.min_len else "expected list")
            if isinstance(kind.item, type):  # one loop, no path made per item
                for i, item in enumerate(value):
                    if not isinstance(item, kind.item):
                        raise SchemaError(f"{path}[{i}]",
                                          f"expected {kind.item.__name__}")
                return value
            return [self.value(kind.item, item, f"{path}[{i}]")
                    for i, item in enumerate(value)]
        if type(kind) is _Block:
            start = self.block(value, path, kind.min_len)
            return self.cut(start, (-1, 2) if kind.min_len else (2,))
        if type(kind) is _Modes:
            if not isinstance(value, list) or not value:
                raise SchemaError(path, "expected at least one mode")
            start = self.size
            for k, mode in enumerate(value):
                self.block(mode, f"{path}[{k}]", kind.min_len)
            if len({len(mode) for mode in value}) > 1:
                raise SchemaError(path, "ragged modes array")
            return self.cut(start, (len(value), -1, 2))
        if isinstance(kind, type):
            if not isinstance(value, kind):
                raise SchemaError(path, f"expected {kind.__name__}")
            return value
        return kind(value, path)

    def record(self, table: dict, doc, path: str) -> dict:
        if not isinstance(doc, dict):
            raise SchemaError(path, "expected an object")
        out = {}
        for key, kind in table.items():
            if key is ...:
                for k, v in doc.items():
                    if k not in table:
                        out[k] = self.value(kind, v, f"{path}.{k}")
            elif type(kind) is _Optional:
                v = doc.get(key)
                out[key] = None if v is None else self.value(
                    kind.kind, v, f"{path}.{key}")
            elif key in doc:
                out[key] = self.value(kind, doc[key], f"{path}.{key}")
            else:
                raise SchemaError(f"{path}.{key}", "missing required field")
        return out

    def block(self, value, path: str, min_len: int) -> int:
        """Collect the ``_Block(min_len)`` value; its first pair's index."""
        if not isinstance(value, list) or len(value) < min_len:
            raise SchemaError(path, f"expected a list of >= {min_len} "
                              "[x, y] pairs" if min_len else "expected list")
        pairs = value if min_len else [value]
        self.blocks.append((pairs, path))
        self.size += len(pairs)
        return self.size - len(pairs)

    def cut(self, start: int, shape: tuple) -> int:
        """The index of the pairs collected since ``start``, as ``shape``."""
        self.cuts.append((start, self.size, shape))
        return len(self.cuts) - 1

    def points(self) -> np.ndarray:
        """Every collected pair, in one ``(n, 2)`` array: one
        ``_number_array`` call, or, if it rejects them, a pair-by-pair check
        of each block, which names the first bad pair. A coordinate beyond
        ``COORD_LIMIT`` is refused, so that the metrics' squared distances
        stay finite; an integer beyond int64 converts all the same."""
        pairs = [pt for block, _ in self.blocks for pt in block]
        pts = _number_array(pairs)
        if pts is not None:
            return pts
        for block, path in self.blocks:
            for i, pt in enumerate(block):
                if (not isinstance(pt, list) or len(pt) != 2
                        or not all(_finite_number(c) for c in pt)):
                    raise SchemaError(f"{path}[{i}]",
                                      "expected an [x, y] pair of finite numbers")
                if not all(abs(c) <= COORD_LIMIT for c in pt):
                    raise SchemaError(f"{path}[{i}]", "expected an [x, y] pair "
                                      f"within {COORD_LIMIT:g} m of the origin")
        return np.array(pairs, dtype=float).reshape(-1, 2)


def _number(test=None, message: str = ""):
    """The kind of a finite JSON number, read as a float, that passes
    ``test`` if one is given, else fails with ``message``."""
    def read(value, path: str) -> float:
        if not _finite_number(value):
            raise SchemaError(path, "expected a finite number")
        if test is not None and not test(value):
            raise SchemaError(path, message)
        return float(value)
    return read


_finite = _number()
_positive = _number(lambda x: x > 0, "expected a positive number")


def _enum(cls: type[Enum], name: str):
    """The kind of a value of the enum ``cls``, read as its member; any
    other value is an unknown ``name``."""
    def read(value, path: str) -> Enum:
        try:
            return cls(value)
        except ValueError:
            raise SchemaError(path, f"unknown {name} {value!r}") from None
    return read


def _load_json(path) -> Any:
    """The JSON document in the file ``path``, decoded strictly as UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise SchemaError("$", f"not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise SchemaError("$", "invalid JSON: nested too deeply") from e


def _load(path, from_dict):
    """``from_dict`` of the JSON document in the file ``path``; an error in
    the document names the file."""
    try:
        return from_dict(_load_json(path))
    except CriteriaError as e:
        e.file = path
        raise


def _scalar(o) -> str | None:
    """``o`` as ``json`` writes a string, null, bool or number, in its order
    of tests; ``None`` for any other value."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):  # json's own text for NaN and the infinities
        return float.__repr__(o) if math.isfinite(o) else json.dumps(o)
    return None


def _block(o, indent: str) -> str | None:
    """The non-empty list ``o`` as one ``%`` format of a template made for
    it, when it holds only finite floats, or only equal-length non-empty
    lists of them; else ``None``. Only an exact ``float`` qualifies: the
    ``repr`` of a subclass such as ``np.float64`` differs from ``json``'s."""
    inner = indent + "  "
    first = o[0]
    if type(first) is list or type(first) is tuple:
        n = len(first)
        if not n or any((type(row) is not list and type(row) is not tuple)
                        or len(row) != n for row in o):
            return None
        deep = inner + "  "
        item = "[\n" + deep + (",\n" + deep).join(["%r"] * n) + "\n" + inner + "]"
        values = tuple(chain.from_iterable(o))
    else:
        item = "%r"
        values = tuple(o)
    if set(map(type, values)) != {float}:
        return None
    text = ("[\n" + inner + (",\n" + inner).join([item] * len(o))
            + "\n" + indent + "]") % values
    # a finite float's repr has no letter n; nan and inf take the general path
    return None if "n" in text else text


def _dump(o, write, indent: str = "") -> None:
    """Write ``o`` through ``write`` in chunks, as ``json.dump`` with
    ``indent=2`` and ``sort_keys=True`` does at the indentation ``indent``.
    Arrays are written as their ``tolist()``, numpy scalars as their
    ``item()``; any other value is a ``TypeError``."""
    text = _scalar(o)
    if text is not None:
        write(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            write("[]")
            return
        text = _block(o, indent)
        if text is not None:
            write(text)
            return
        inner = indent + "  "
        head = "[\n" + inner
        for item in o:
            write(head)
            _dump(item, write, inner)
            head = ",\n" + inner
        write("\n" + indent + "]")
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        inner = indent + "  "
        head = "{\n" + inner
        for key, value in sorted(o.items()):
            # a number, bool or null key is quoted; any other key is a
            # TypeError, as in json, since _scalar gives None for it
            key = key if isinstance(key, str) else _scalar(key)
            write(head + encode_basestring_ascii(key) + ": ")
            _dump(value, write, inner)
            head = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(o, np.ndarray):
        _dump(o.tolist(), write, indent)
    elif isinstance(o, (np.floating, np.integer)):
        _dump(o.item(), write, indent)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_atomic(path, write) -> None:
    """``write(f)`` to a temporary file ``f``, then renamed to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, doc) -> None:
    def dump(f):  # streamed: a large document is never one string
        _dump(doc, f.write)
        f.write("\n")
    _write_atomic(path, dump)


def write_text(path, text: str) -> None:
    _write_atomic(path, lambda f: f.write(text))


def _json_value(value):
    """A run configuration, or an attribute of a lane or scenario record, as
    the JSON value that ``RunConfig.from_dict`` or the record's table reads
    back. A config dataclass becomes an object of its settings."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if isinstance(value, Trajectory):
        return value.points.tolist()
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


# -- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    kinematic: KinematicConfig = field(default_factory=KinematicConfig)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    dao: DaoConfig = field(default_factory=DaoConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    weights: WeightConfig = field(default_factory=WeightConfig)
    amv_reduction: Reduction = Reduction.SUM
    aae_unit: AngleUnit = AngleUnit.DEG

    def to_dict(self) -> dict:
        return _json_value(self)

    @classmethod
    def from_dict(cls, doc: dict, path: str = "$") -> "RunConfig":
        return _read_config(cls(), doc, path)


def _read_config(default, doc, path: str):
    """The config dataclass ``default`` with the settings in ``doc`` read
    over it, in document order. Each key must be a setting that ``to_dict``
    writes; each value is read by the type of its default (``_read_setting``).
    A range check that fails is named at the first of its keys that ``doc``
    moves off its default (a check that the defaults pass fails only then),
    or at ``path`` if it blames no single one."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    names = {f.name for f in fields(default)}
    values = {}
    for key, value in doc.items():
        if key not in names:
            raise SchemaError(f"{path}.{key}", "unknown setting")
        values[key] = _read_setting(getattr(default, key), value, f"{path}.{key}")
    try:
        return replace(default, **values)
    except SettingError as e:
        key = next((k for k in e.keys
                    if k in values and values[k] != getattr(default, k)), None)
        raise SchemaError(path if key is None else f"{path}.{key}", str(e)) from e


def _read_setting(default, value, path: str):
    """``value`` read by the type of ``default``: a config dataclass by
    ``_read_config``, an enum by its values, a tuple as that many finite
    numbers, an int as an int, and a float as a finite number, kept as
    written."""
    if is_dataclass(default):
        return _read_config(default, value, path)
    if isinstance(default, Enum):
        choices = [c.value for c in type(default)]
        if isinstance(value, str) and value in choices:
            return type(default)(value)
        raise SchemaError(path, "expected " + " or ".join(f'"{c}"' for c in choices))
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise SchemaError(path, f"expected a list of {len(default)} numbers")
        for j, v in enumerate(value):
            if not _finite_number(v):
                raise SchemaError(f"{path}[{j}]", "expected a finite number")
        return tuple(value)
    if type(default) is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(path, "expected an integer")
        return value
    if not _finite_number(value):
        raise SchemaError(path, "expected a finite number")
    return value


def load_config(path=None) -> RunConfig:
    """The run configuration in the file ``path``; the defaults if none."""
    return _load(path, RunConfig.from_dict) if path else RunConfig()


# -- map files -------------------------------------------------------------

_LANE = {
    "turn": _enum(Turn, "turn kind"),
    "id": str,
    "centerline": _Block(2),
    "polygon": _Block(3),
    "is_intersection": bool,
    "successors": _List(str),
    "left_neighbor": _Optional(str),
    "right_neighbor": _Optional(str),
}
_MAP = {"map_id": str, "lanes": _List(_LANE), "drivable_area": _List(_Block(3))}


def map_to_dict(road: RoadMap) -> dict:
    return {
        "map_id": road.map_id,
        "lanes": [
            {key: _json_value(getattr(lane, key)) for key in _LANE}
            for lane in road.lanes.values()
        ],
        "drivable_area": [ring.tolist() for ring in road.drivable],
    }


def map_from_dict(doc: dict) -> RoadMap:
    doc, arrays = _Walk().read(_MAP, doc, "$")
    lanes = [
        LaneSegment(**{**lane, "centerline": arrays[lane["centerline"]],
                       "polygon": arrays[lane["polygon"]],
                       "successors": tuple(lane["successors"])})
        for lane in doc["lanes"]
    ]
    return RoadMap(doc["map_id"], lanes, [arrays[i] for i in doc["drivable_area"]])


def load_map(path) -> RoadMap:
    return _load(path, map_from_dict)


def save_map(path, road: RoadMap) -> None:
    write_json(path, map_to_dict(road))


# -- scenario files ------------------------------------------------------------

_SCENARIO = {
    "id": str,
    "dt": _positive,
    "map_id": str,
    "agent_id": str,
    "past": _Block(2),
    "future": _Block(2),
}
_SCENARIOS = {"scenarios": _List(_SCENARIO, 1)}


def scenarios_to_dict(records: list[ScenarioRecord]) -> dict:
    return {
        "scenarios": [
            {key: _json_value(getattr(r, key)) for key in _SCENARIO}
            for r in records
        ]
    }


def scenarios_from_dict(doc: dict) -> list[ScenarioRecord]:
    doc, arrays = _Walk().read(_SCENARIOS, doc, "$")
    out: dict[str, ScenarioRecord] = {}
    for r in doc["scenarios"]:
        if r["id"] in out:
            raise DataConsistencyError(f"duplicate scenario id {r['id']!r}")
        out[r["id"]] = ScenarioRecord(
            id=r["id"], map_id=r["map_id"], agent_id=r["agent_id"], dt=r["dt"],
            past=Trajectory(arrays[r["past"]], r["dt"]),
            future=Trajectory(arrays[r["future"]], r["dt"]),
        )
    return list(out.values())


def load_scenarios(path) -> list[ScenarioRecord]:
    return _load(path, scenarios_from_dict)


def save_scenarios(path, records: list[ScenarioRecord]) -> None:
    write_json(path, scenarios_to_dict(records))


# -- prediction files ----------------------------------------------------------

_PREDICTIONS = {
    "model": str,
    "dt": _positive,
    "predictions": _List({
        "scenario_id": str,
        "anchor": _Block(0),
        "modes": _Modes(2),
    }),
}


def predictions_to_dict(model: str, dt: float,
                        preds: list[PredictionSet]) -> dict:
    return {
        "model": model,
        "dt": dt,
        "predictions": [
            {
                "scenario_id": p.scenario_id,
                "anchor": p.anchor.tolist(),
                "modes": p.points.tolist(),
            }
            for p in preds
        ],
    }


def predictions_from_dict(doc: dict) -> tuple[str, dict[str, PredictionSet]]:
    doc, arrays = _Walk().read(_PREDICTIONS, doc, "$")
    out: dict[str, PredictionSet] = {}
    for p in doc["predictions"]:
        sid = p["scenario_id"]
        if sid in out:
            raise DataConsistencyError(f"duplicate prediction for {sid!r}")
        out[sid] = PredictionSet.from_points(
            sid, arrays[p["modes"]], doc["dt"], anchor=arrays[p["anchor"]])
    return doc["model"], out


def load_predictions(path) -> tuple[str, dict[str, PredictionSet]]:
    return _load(path, predictions_from_dict)


def save_predictions(path, model: str, dt: float,
                     preds: list[PredictionSet]) -> None:
    write_json(path, predictions_to_dict(model, dt, preds))


# -- tags files ------------------------------------------------------------

_TAG = {"structure": _enum(Structure, "structure"),
        "difficulty": _enum(Difficulty, "difficulty"),
        "length": _enum(LengthClass, "length class")}
_TAGS = {"tags": {...: _TAG}}


def _tags_block(tags: dict[str, ScenarioTag], only=None) -> dict:
    """The ``tags`` block of a tags or metrics file: each tag, sorted by
    scenario id, of the scenarios in ``only`` if it is given."""
    return {
        sid: {key: getattr(t, key).value for key in _TAG}
        for sid, t in sorted(tags.items())
        if only is None or sid in only
    }


def tags_to_dict(tags: dict[str, ScenarioTag], counts: dict[str, int],
                 config: RunConfig, inputs: dict[str, str]) -> dict:
    return {
        "config": config.to_dict(),
        "inputs": inputs,
        "tags": _tags_block(tags),
        "category_counts": counts,
    }


def tags_from_dict(doc: dict) -> dict[str, ScenarioTag]:
    doc, _ = _Walk().read(_TAGS, doc, "$")
    return {sid: ScenarioTag(**t) for sid, t in doc["tags"].items()}


def load_tags(path) -> dict[str, ScenarioTag]:
    return _load(path, tags_from_dict)


# -- metrics files ----------------------------------------------------------

_PASSES = ("boundary_pass", "alignment_pass", "kinematic_pass")
_METRICS = {
    "model": str,
    "config": RunConfig.from_dict,
    "per_scenario": {...: {
        "triad": {key: _List(bool) for key in _PASSES},
        **dict.fromkeys(METRIC_NAMES, _finite),
        ...: _finite,
    }},
    "tags": {...: _TAG},
}


def metrics_to_dict(run: EvaluationRun, inputs: dict[str, str],
                    tags: dict[str, ScenarioTag]) -> dict:
    return {
        "model": run.model_name,
        "config": run.config.to_dict(),
        "inputs": inputs,
        "per_scenario": {
            sid: {
                **result.values,
                "triad": {key: list(getattr(result.triad, key))
                          for key in (*_PASSES, "admissible")},
            }
            for sid, result in run.per_scenario.items()
        },
        "tags": _tags_block(tags, run.per_scenario),
    }


def metrics_from_dict(doc: dict):
    """Rehydrate an EvaluationRun and its embedded tags; its ``config`` is
    the file's run configuration."""
    doc, _ = _Walk().read(_METRICS, doc, "$")
    out = {}
    for sid, values in doc["per_scenario"].items():
        triad = values.pop("triad")
        passes = [tuple(triad[key]) for key in _PASSES]
        if not passes[0] or any(len(p) != len(passes[0]) for p in passes):
            raise SchemaError(f"$.per_scenario.{sid}.triad",
                              "expected one flag per mode in every list")
        out[sid] = ScenarioResult(values=values, triad=TriadResult(*passes))
    run = EvaluationRun(
        model_name=doc["model"],
        per_scenario=dict(sorted(out.items())),
        config=doc["config"],
    )
    return run, {sid: ScenarioTag(**t) for sid, t in doc["tags"].items()}


def load_metrics(path):
    return _load(path, metrics_from_dict)


# -- minFDE tables -------------------------------------------------------------

_MIN_FDE = {"min_fde": {...: _List(_finite, 1)}}


def load_min_fde(path) -> dict[str, list[float]]:
    """Each scenario's minFDE of every model, from a ``tag --minfde`` table."""
    return _load(path, lambda doc: _Walk().read(_MIN_FDE, doc, "$")[0]["min_fde"])
