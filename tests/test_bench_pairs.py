import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))
parse_run, check_run, summarize, main = (
    SCRIPT[n] for n in ("parse_run", "check_run", "summarize", "main"))
RunError = SCRIPT["RunError"]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
ENV = {"nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}


def output(values: dict, digest="ab" * 32, correct=True, failed=0) -> str:
    """A ``perfbench/run.py`` output with these end-to-end values."""
    metrics = {m["name"]: {"unit": m["unit"], "value": values[m["name"]]}
               for m in END_TO_END}
    return "\n".join([
        f"# env {json.dumps(ENV, sort_keys=True)}",
        "# workload crossroads seed=0 inputs={} setups=11 pipelines=3 traced=0",
        f"# sha256 {digest} tags.json",
        f"# sha256 {'cd' * 32} report/report.json",
        "error_rate 0 (0/15 stage invocations)",
        *(f"{name} {value:.6g} s" for name, value in values.items()),
        json.dumps({"attempted": 15, "correct": correct, "failed": failed,
                    "metrics": metrics}, sort_keys=True),
    ]) + "\n"


def values(setup_s, eval_scen_per_s):
    return {"setup_s": setup_s, "eval_s": 0.05, "pipeline_s": 0.07,
            "eval_scen_per_s": eval_scen_per_s, "peak_rss_mb": 48.0}


def test_parse_run_reads_env_digests_and_result():
    run = parse_run(output(values(0.08, 190.0)))
    assert run["env"] == ENV
    assert run["digests"] == {"tags.json": "ab" * 32,
                              "report/report.json": "cd" * 32}
    assert run["result"]["metrics"]["setup_s"]["value"] == 0.08
    check_run(run, 0)


def test_summary_of_canned_pairs():
    parent = [values(s, r) for s, r in ((0.08, 190.0), (0.09, 180.0),
                                        (0.07, 200.0), (0.10, 170.0))]
    change = [values(s, r) for s, r in ((0.07, 195.0), (0.10, 185.0),
                                        (0.06, 190.0), (0.09, 175.0))]
    pairs = [(parse_run(output(p)), parse_run(output(c)))
             for p, c in zip(parent, change)]
    got = summarize(pairs, END_TO_END)
    assert got["pairs"] == 4 and got["digests_equal"]
    setup = got["metrics"]["setup_s"]
    assert setup["parent"] == pytest.approx({"median": 0.085, "q1": 0.0775,
                                             "q3": 0.0925})
    assert setup["change"] == pytest.approx({"median": 0.08, "q1": 0.0675,
                                             "q3": 0.0925})
    assert setup["change_wins"] == 3  # lower is better: all but pair 2
    assert setup["within_bound"] and not setup["gain"]  # 3 of 4 wins
    assert setup["parent_values"] == [0.08, 0.09, 0.07, 0.10]
    rate = got["metrics"]["eval_scen_per_s"]
    assert rate["better"] == "higher"
    assert rate["change_wins"] == 3  # higher is better: all but pair 3
    # equal values are no win for either side
    assert got["metrics"]["eval_s"]["change_wins"] == 0
    assert set(got["metrics"]) == {m["name"] for m in END_TO_END}


def summary_of(metric: str, parent: list[float], change: list[float]) -> dict:
    """The summary of ``metric`` over canned pairs of these values."""
    def run(value):
        vals = {**values(0.08, 190.0), metric: value}
        return parse_run(output(vals))
    pairs = [(run(p), run(c)) for p, c in zip(parent, change)]
    return summarize(pairs, END_TO_END)["metrics"][metric]


PARENT = [0.10 + 0.01 * i for i in range(10)]  # quartiles 0.1225 and 0.1675


@pytest.mark.parametrize("change, within, gain", [
    ([s - 0.05 for s in PARENT[:9]] + [0.20], True, True),
    ([s - 0.05 for s in PARENT[:8]] + [0.20, 0.21], True, False),
    ([s - 0.04 for s in PARENT], True, False),
    ([s * 1.24 for s in PARENT], True, False),
    ([s * 1.26 for s in PARENT], False, False),
], ids=["nine_wins", "eight_wins", "inside_quartiles", "worse_in_bound",
        "worse_past_bound"])
def test_verdict_of_a_lower_is_better_metric(change, within, gain):
    """``setup_s`` has a bound of 0.25: a gain needs 9 of 10 wins and a
    median 0.045 s lower, and a median more than 25% higher is out of
    bound."""
    got = summary_of("setup_s", PARENT, change)
    assert (got["within_bound"], got["gain"]) == (within, gain)


@pytest.mark.parametrize("scale, within, gain", [
    (0.76, True, False), (0.74, False, False), (1.5, True, True),
])
def test_verdict_of_a_higher_is_better_metric(scale, within, gain):
    parent = [190.0 + i for i in range(10)]
    got = summary_of("eval_scen_per_s", parent, [r * scale for r in parent])
    assert (got["within_bound"], got["gain"]) == (within, gain)


def test_different_digests_are_reported():
    pairs = [(parse_run(output(values(0.08, 190.0))),
              parse_run(output(values(0.08, 190.0), digest="ef" * 32)))]
    got = summarize(pairs, END_TO_END)
    assert not got["digests_equal"]
    assert got["metrics"]["setup_s"]["parent"] == {"median": 0.08, "q1": 0.08,
                                                   "q3": 0.08}


@pytest.mark.parametrize("text, code, problem", [
    (output(values(0.08, 190.0)), 1, "exit code 1"),
    (output(values(0.08, 190.0), correct=False), 0, "correct=False"),
    (output(values(0.08, 190.0), failed=2), 0, "failed=2"),
    ("perfbench: cannot run\n", 0, "no JSON result"),
    ("", 0, "no JSON result"),
], ids=["exit_code", "incorrect", "failed_stage", "no_result", "no_output"])
def test_failed_or_incorrect_run_is_refused(text, code, problem):
    with pytest.raises(RunError, match=problem):
        check_run(parse_run(text), code)


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_a_usage_error(pairs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as e:
        main([str(ROOT), str(ROOT), "--pairs", pairs, "--out", str(out)])
    assert e.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert not out.exists()
