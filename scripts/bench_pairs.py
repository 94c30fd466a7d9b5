"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 20 \\
        --out BENCH.json

For each workload in the change's ``BENCHMARK.json`` the script runs
``perfbench/run.py --workload W --seconds S`` in both checkouts, ``--pairs``
(at least 1) times, with ``PYTHONDONTWRITEBYTECODE=1``; the side that runs
first alternates from one pair to the next. It reads each run's last JSON line and its ``# env`` and
``# sha256`` lines, and writes one JSON document: for every ``end_to_end``
metric of ``BENCHMARK.json``, both sides' medians and quartiles, how many
pairs the change won, every run's value, and the verdict (``summarize``):
whether the change stayed within the metric's ``bound`` and whether it
shows a gain; for every workload, whether
all runs of both sides printed the same output digests; and the ``nproc``,
Python and numpy versions the runs reported.

Exits 1, naming the run, when a run exits non-zero, prints no result, or
reports ``correct: false`` or a failed stage; exits 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path


class RunError(Exception):
    """A benchmark run that failed or reported an incorrect result."""


def parse_run(stdout: str) -> dict:
    """The final JSON object of one ``perfbench/run.py`` output, with the
    ``# env`` it reported and the ``# sha256`` digests it printed."""
    env, digests, result = None, {}, None
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif m := re.match(r"# sha256 (\S+) (\S+)$", line):
            digests[m[2]] = m[1]
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"env": env, "digests": digests, "result": result}


def check_run(run: dict, returncode: int) -> None:
    """Raise ``RunError`` unless ``run`` exited 0 with a correct result."""
    result = run["result"]
    if returncode != 0:
        raise RunError(f"exit code {returncode}")
    if not isinstance(result, dict):
        raise RunError("no JSON result on the last line")
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        raise RunError(f"correct={result.get('correct')}, "
                       f"failed={result.get('failed')}")


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values`` (inclusive method)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """One workload's summary of its ``(parent, change)`` parsed runs: each
    end-to-end metric's medians, quartiles and change wins, and whether
    every run printed the same output digests.

    Each metric also gets its verdict: ``within_bound`` when the change's
    median is worse than the parent's by no more than the relative
    ``bound``, and ``gain`` when the change won at least 9 of every 10
    pairs and its median is better by more than the distance between the
    parent's quartiles."""
    digests = [run["digests"] for pair in pairs for run in pair]
    out = {
        "pairs": len(pairs),
        "digests_equal": bool(digests[0]) and all(d == digests[0] for d in digests),
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        parent, change = ([run["result"]["metrics"][name]["value"] for run in side]
                          for side in zip(*pairs))
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        worse = (c["median"] - p["median"]) * (1 if lower else -1)
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": p,
            "change": c,
            "change_wins": wins,
            "within_bound": worse <= spec["bound"] * abs(p["median"]),
            "gain": 10 * wins >= 9 * len(pairs) and -worse > p["q3"] - p["q1"],
            "parent_values": parent,
            "change_values": change,
        }
    return out


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    run = parse_run(proc.stdout)
    try:
        check_run(run, proc.returncode)
    except RunError as e:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        raise RunError(f"{checkout}: workload {workload}: {e}\n{tail}") from None
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    doc = {"pairs": args.pairs, "seconds": args.seconds, "env": {},
           "workloads": {}}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_once(sides[side], workload, args.seconds)
                        for side in order}
                for side, run in runs.items():
                    doc["env"].setdefault(side, run["env"])
                pairs.append((runs["parent"], runs["change"]))
                print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
            doc["workloads"][workload] = summarize(pairs, spec["end_to_end"])
    except RunError as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
