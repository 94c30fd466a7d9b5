"""Malformed input documents end in exit 0, 2 or 3, never in a traceback.

A tiny synth run gives valid map, scenarios, predictions, tags and metrics
documents. Each example changes one of them at one JSON path (deletes the
key or list item, or sets it to null, a bool, a string, NaN, a nested list
or an empty list) and runs every CLI stage that reads it.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from criteria.cli import EXIT_DATA, EXIT_OK, EXIT_SCHEMA, main

DELETE = object()
MUTATIONS = (DELETE, None, True, "x", math.nan, [[1]], [])
# the stages that read each document
READERS = {
    "map": ("tag", "eval"),
    "scenarios": ("tag", "eval"),
    "predictions": ("tag", "eval"),
    "tags": ("eval",),
    "metrics": ("report",),
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
        "predictions": data / "predictions_lane_fan.json",
        "tags": root / "tags.json",
        "metrics": root / "metrics.json",
    }
    assert main(_argv("tag", files, files["tags"])) == EXIT_OK
    assert main(_argv("eval", files, files["metrics"])) == EXIT_OK
    docs = {name: json.loads(path.read_text()) for name, path in files.items()}
    return root, files, docs, {name: _paths(doc) for name, doc in docs.items()}


def _argv(stage: str, files: dict, out) -> list[str]:
    """``stage`` reading ``files`` and writing ``out``."""
    inputs = ["--scenarios", str(files["scenarios"]), "--maps", str(files["map"]),
              "--predictions", str(files["predictions"])]
    if stage == "tag":
        return ["tag", *inputs, "--out", str(out)]
    if stage == "eval":
        return ["eval", *inputs, "--tags", str(files["tags"]), "--out", str(out)]
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
        assert main(_argv(stage, inputs, out)) in (EXIT_OK, EXIT_SCHEMA, EXIT_DATA)
