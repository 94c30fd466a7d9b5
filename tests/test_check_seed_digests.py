import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
differences = runpy.run_path(str(ROOT / "scripts" / "check_seed_digests.py"))["differences"]
BASELINE = json.loads((ROOT / "perfbench" / "baseline_seed.json").read_text())


def output(seed=0, skip=(), edit=None):
    """A benchmark run's output as it prints the recorded digests."""
    lines = []
    for name, workload in BASELINE["workloads"].items():
        lines.append(f"# workload {name} seed={seed} inputs={{}} setups=11")
        for file, digest in sorted(workload["seed0_sha256"].items()):
            if (name, file) in skip:
                continue
            if (name, file) == edit:
                digest = "0" * 64
            lines.append(f"# sha256 {digest} {file}")
        lines.append("setup_s 0.1 s")
    return "\n".join(lines) + "\n"


def test_recorded_digests_pass():
    assert differences(output(), BASELINE) == []


@pytest.mark.parametrize("kwargs, problem", [
    (dict(edit=("crossroads", "tags.json")), "crossroads: tags.json: recorded"),
    (dict(skip={("straight_wide", "report/report.json")}),
     "straight_wide: report/report.json: recorded"),
    (dict(seed=1), "crossroads: a seed-1 run, not seed 0"),
])
def test_each_difference_is_named(kwargs, problem):
    problems = differences(output(**kwargs), BASELINE)
    assert any(p.startswith(problem) for p in problems)


def test_missing_workload_is_named():
    text = output().split("# workload straight_wide")[0]
    assert differences(text, BASELINE) == ["straight_wide: no run in the output"]
