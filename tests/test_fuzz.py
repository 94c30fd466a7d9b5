"""Malformed input documents end in exit 0, 2 or 3, never in a traceback.

A tiny synth run gives valid map, scenarios, predictions (with per-mode
probabilities), tags, metrics, run configuration and minFDE table documents.
Each example changes one of them at one JSON path (deletes the key or list
item, or sets it to null, a bool, a string, NaN, a nested list or an empty
list) and runs every CLI stage that reads it. The run configuration is also
read with every such change at every path, and with numbers out of range.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from criteria import io
from criteria.cli import EXIT_DATA, EXIT_OK, EXIT_SCHEMA, main
from criteria.errors import SchemaError

DELETE = object()
MUTATIONS = (DELETE, None, True, "x", math.nan, [[1]], [])
# the stages that read each document
READERS = {
    "map": ("tag", "eval"),
    "scenarios": ("tag", "eval"),
    "predictions": ("tag", "eval"),
    "tags": ("eval",),
    "metrics": ("report",),
    "config": ("tag", "eval"),
    "minfde": ("tag",),
}
# each document's schema table; a run configuration is checked against the
# defaults by ``RunConfig.from_dict``
TABLES = {
    "map": io._MAP,
    "scenarios": io._SCENARIOS,
    "predictions": io._PREDICTIONS,
    "tags": io._TAGS,
    "metrics": io._METRICS,
    "minfde": io._MIN_FDE,
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The valid documents of a synth -> tag -> eval run, and their files."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["synth", "--kind", "T_INTERSECTION", "--n", "2", "--modes", "3",
                 "--seed", "0", "--out", str(data)]) == EXIT_OK
    files = {
        "map": data / "map.json",
        "scenarios": data / "scenarios.json",
        "predictions": root / "predictions.json",
        "tags": root / "tags.json",
        "metrics": root / "metrics.json",
        "config": root / "config.json",
        "minfde": root / "minfde.json",
    }
    preds = json.loads((data / "predictions_lane_fan.json").read_text())
    for pred in preds["predictions"]:
        pred["probabilities"] = [0.5, 0.25, 0.25]
    io.write_json(files["predictions"], preds)
    io.write_json(files["config"], io.RunConfig().to_dict())
    io.write_json(files["minfde"], {"min_fde": {
        p["scenario_id"]: [1.0, 2.0, 3.0] for p in preds["predictions"]}})
    assert main(_argv("tag", files, files["tags"])) == EXIT_OK
    assert main(_argv("eval", files, files["metrics"])) == EXIT_OK
    docs = {name: json.loads(path.read_text()) for name, path in files.items()}
    return root, files, docs, {name: _paths(doc) for name, doc in docs.items()}


def _argv(stage: str, files: dict, out, minfde: bool = False) -> list[str]:
    """``stage`` reading ``files`` and writing ``out``; ``tag`` scores the
    models from the minFDE table if ``minfde``, else from the predictions."""
    inputs = ["--scenarios", str(files["scenarios"]), "--maps", str(files["map"]),
              "--config", str(files["config"])]
    scores = (["--minfde", str(files["minfde"])] if minfde
              else ["--predictions", str(files["predictions"])])
    if stage == "tag":
        return ["tag", *inputs, *scores, "--out", str(out)]
    if stage == "eval":
        return ["eval", *inputs, "--predictions", str(files["predictions"]),
                "--tags", str(files["tags"]), "--out", str(out)]
    return ["report", "--metrics", str(files["metrics"]), "--out", str(out)]


def _paths(doc, prefix=()) -> list[tuple]:
    """Every JSON path in ``doc``, the root included."""
    out = [prefix]
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        out += _paths(value, prefix + (key,))
    return out


def _mutated(doc, path: tuple, mutation):
    if not path:
        return None if mutation is DELETE else copy.deepcopy(mutation)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)
    return doc


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_document_never_raises(run, data):
    root, files, docs, paths = run
    name = data.draw(st.sampled_from(sorted(READERS)), label="document")
    path = data.draw(st.sampled_from(paths[name]), label="path")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    bad = root / "mutated" / files[name].name
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(json.dumps(_mutated(docs[name], path, mutation)))
    inputs = {**files, name: bad}
    for stage in READERS[name]:
        out = root / f"{stage}_out"  # apart from the valid inputs
        argv = _argv(stage, inputs, out, minfde=name == "minfde")
        assert main(argv) in (EXIT_OK, EXIT_SCHEMA, EXIT_DATA)


ANY = object()  # a list index, or a key the table does not name


def _table_paths(kind, prefix=()) -> list[tuple]:
    """Every JSON path the schema table ``kind`` names, ``ANY`` standing for
    a list index or for a key it leaves open."""
    if isinstance(kind, io._Optional):
        kind = kind.kind
    out = [prefix]
    if isinstance(kind, dict):
        for key, sub in kind.items():
            out += _table_paths(sub, prefix + (ANY if key is ... else key,))
    elif isinstance(kind, io._List):
        out += _table_paths(kind.item, prefix + (ANY,))
    return out


def _matches(pattern: tuple, path: tuple) -> bool:
    return len(pattern) == len(path) and all(
        want is ANY or want == got for want, got in zip(pattern, path))


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_schema_path_is_fuzzed(run, name):
    """The fuzzed documents hold every path their schema names, so each one
    can be mutated; the run configuration holds every setting."""
    paths = run[3]
    if name == "config":
        want = _paths(io.RunConfig().to_dict())
    else:
        want = _table_paths(TABLES[name])
    missing = [p for p in want if not any(_matches(p, got) for got in paths[name])]
    assert not missing


CONFIG = io.RunConfig().to_dict()
# a setting with a range check leaves its range at one of these values
OUT_OF_RANGE = (-(10**9), 0, 10**9)
UNCHECKED = {("alignment", "stationary_eps"), ("dao", "scale")}


def _json_path(path: tuple) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _read_or_fault(doc, where: tuple) -> bool:
    """True if ``doc`` reads as a run configuration, False if it is refused
    at ``where`` or at an index inside it; any other outcome fails."""
    try:
        io.RunConfig.from_dict(doc)
    except SchemaError as e:
        want = _json_path(where)
        assert e.path == want or e.path.startswith(want + "["), (e.path, want)
        return False
    return True


@pytest.mark.parametrize("path", _paths(CONFIG), ids=lambda p: _json_path(p))
def test_config_fault_is_named_at_its_path(path):
    """Each mutation of the run configuration at ``path`` reads, or is
    refused at that path (the list, for an item deleted from it); each
    number out of range is refused at its setting (the list, for an item)."""
    for mutation in MUTATIONS:
        where = path[:-1] if mutation is DELETE else path
        _read_or_fault(_mutated(CONFIG, path, mutation), where)
    value = CONFIG
    for key in path:
        value = value[key]
    if isinstance(value, (int, float)) and path[:2] not in UNCHECKED:
        setting = path[:-1] if isinstance(path[-1], int) else path
        read = [_read_or_fault(_mutated(CONFIG, path, type(value)(bad)), setting)
                for bad in OUT_OF_RANGE]
        assert not all(read)
