"""``metrics.total`` and ``metrics.mean``: floats added left to right from
``0.0``, so that every output is the same bytes on every supported Python.

CPython 3.12 made the builtin ``sum`` of floats compensated (Neumaier,
*ZAMM* 54, 1974), which can change the last bit of a mean. The pipeline test
runs once as is and once with a Python copy of that ``sum`` in place of the
builtin in every ``criteria`` module, and compares the output bytes.
"""

import functools
import hashlib
import math
import operator
import sys

from hypothesis import given, strategies as st

from criteria import metrics
from criteria.cli import EXIT_OK, main


def neumaier_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12: exact while the items are ints
    or bools, then Neumaier-compensated over floats, with the compensation
    added once at the end."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) not in (int, bool):
                result = result + item
                break
            result += item
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    acc, comp = result, 0.0
    for item in items:
        if type(item) in (int, bool):
            acc += item
            continue
        if type(item) is not float:
            result = (acc + comp if comp and math.isfinite(comp) else acc) + item
            for rest in items:
                result = result + rest
            return result
        t = acc + item
        if abs(acc) >= abs(item):
            comp += (acc - t) + item
        else:
            comp += (item - t) + acc
        acc = t
    return acc + comp if comp and math.isfinite(comp) else acc


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestTotal:
    def test_adds_left_to_right(self):
        values = [1e16, 1.0, -1e16]
        assert metrics.total(values) == 0.0
        assert neumaier_sum(values) == 1.0  # what 3.12's sum gives

    def test_empty_is_zero(self):
        assert metrics.total([]) == 0.0
        assert type(metrics.total([])) is float

    @given(st.lists(FINITE))
    def test_matches_an_explicit_loop(self, values):
        want = 0.0
        for v in values:
            want += v
        assert metrics.total(values) == want
        assert metrics.total(iter(values)) == want
        assert metrics.total(values) == functools.reduce(operator.add, values, 0.0)
        if values:
            assert metrics.mean(values) == metrics.total(values) / len(values)
        if sys.version_info < (3, 12):
            # the bytes written before the reducer existed
            assert metrics.total(values) == sum(values)


MODELS = ("const_vel", "lane_fan", "noisy")


def run_pipeline(out):
    """synth, tag, eval of each model and report on CROSSROADS n=3, seed 0,
    K=6 under ``out``; each output file's sha256 by its path under ``out``."""
    data = out / "data"
    inputs = ["--scenarios", str(data / "scenarios.json"),
              "--maps", str(data / "map.json")]
    preds = [str(data / f"predictions_{m}.json") for m in MODELS]
    tags = str(out / "tags.json")
    runs = [str(out / f"metrics_{m}.json") for m in MODELS]
    assert main(["synth", "--kind", "CROSSROADS", "--n", "3", "--seed", "0",
                 "--modes", "6", "--out", str(data)]) == EXIT_OK
    assert main(["tag", *inputs, "--predictions", *preds, "--out", tags]) == EXIT_OK
    for pred, run in zip(preds, runs):
        assert main(["eval", *inputs, "--predictions", pred, "--tags", tags,
                     "--out", run]) == EXIT_OK
    assert main(["report", "--metrics", *runs, "--out", str(out / "report"),
                 "--balance", "aae"]) == EXIT_OK
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    plain = run_pipeline(tmp_path / "plain")
    calls = []

    def shadow(*args):
        calls.append(None)
        return neumaier_sum(*args)

    for name, module in list(sys.modules.items()):
        if name == "criteria" or name.startswith("criteria."):
            monkeypatch.setattr(module, "sum", shadow, raising=False)
    shadowed = run_pipeline(tmp_path / "shadowed")
    assert calls  # the integer sums still go through the shadow
    assert sorted(plain) == sorted(shadowed)
    assert [p for p in plain if plain[p] != shadowed[p]] == []
