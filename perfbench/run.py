"""Pipeline benchmark for the criteria CLI: tag -> eval -> report.

Usage (from the repository root):

    python3 perfbench/run.py --workload crossroads --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py            # every workload, one process each

Each run imports ``criteria`` from ``src/`` of this checkout, generates the
workload's fixtures from ``--seed`` (``setup_s``, repeated and reported as a
median), then runs closed-loop pipelines through ``criteria.cli.main`` until
``--seconds`` are used: ``tag`` over all models, ``eval`` once per model,
``report --balance aae``. Stage times are wall clock taken around each call.
After every pipeline the outputs are reloaded and checked, and their sha256
digests must equal those of the run's first pipeline.

With ``--trace 1`` each round runs one untraced and two traced pipelines;
the traced ones wrap the package's public functions (see ``layers.py``) and give per-layer
self times and counts. Traced outputs must be byte-identical to untraced ones
and every count must repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed and 2 when the benchmark cannot
run at all (for example, ``src/criteria`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

SYNTH_MODELS = ("const_vel", "lane_fan", "noisy")
FAN_MODEL = "fan"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "crossroads": dict(kind="CROSSROADS", n=3, k=6, models=SYNTH_MODELS),
    "straight_wide": dict(kind="STRAIGHT", n=4, k=24,
                          models=SYNTH_MODELS + (FAN_MODEL,)),
}
SETUPS = 11  # set-ups per run; setup_s is their median
# tag and report take milliseconds against seconds of eval, so an untraced
# pipeline repeats them and reports the median invocation
REPEATS = {"tag": 5, "eval": 1, "report": 15}
MODULES = ("bench", "cli", "geom", "io", "map_model", "metrics", "report",
           "scenario", "trajectory")
END_TO_END_UNITS = {
    "setup_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "eval_scen_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# tag_s and report_s are reported with the layers, unbounded: across ten
# seeds on a shared 2-core VM their spread (quartile distance over median)
# was 0.2-0.5, wider than any bound allowed for an end-to-end metric.
# Untraced runs print them too.
STAGE_UNITS = {"tag_s": "s", "report_s": "s"}
PER_LAYER_UNITS = {**STAGE_UNITS, **layers.UNITS}


class SetupError(Exception):
    """The benchmark cannot run in this checkout."""


# -- set-up ------------------------------------------------------------------


def import_criteria() -> SimpleNamespace:
    """Import a fresh copy of ``criteria`` from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "criteria" or m.startswith("criteria.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if not (src / "criteria" / "__init__.py").is_file():
        raise SetupError(f"no criteria package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"criteria.{m}") for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"criteria imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def fan_predictions(crit, records, k: int):
    """K constant-speed modes spread evenly over +-90 deg of the observed
    heading; most of them leave the road."""
    preds = []
    for rec in records:
        past = rec.past.points
        anchor = past[-1]
        step = past[-1] - past[-2]
        speed = math.hypot(step[0], step[1]) / rec.dt
        heading = math.atan2(step[1], step[0])
        dist = speed * rec.dt * np.arange(1, len(rec.future) + 1)
        modes = []
        for m in range(k):
            a = heading + math.radians(-90.0 + 180.0 * m / (k - 1))
            pts = anchor + np.outer(dist, [math.cos(a), math.sin(a)])
            modes.append(crit.trajectory.Trajectory(pts, rec.dt))
        preds.append(crit.trajectory.PredictionSet(
            scenario_id=rec.id, modes=modes, anchor=anchor.copy()))
    return preds


def setup_once(wl: dict, seed: int, fixtures: Path):
    """Import ``criteria`` and write the workload's fixtures; returns the
    modules and the elapsed wall time."""
    t0 = time.perf_counter()
    crit = import_criteria()
    code = crit.cli.main([
        "synth", "--kind", wl["kind"], "--n", str(wl["n"]), "--seed", str(seed),
        "--modes", str(wl["k"]), "--out", str(fixtures),
    ])
    if code != 0:
        raise SetupError(f"synth exited {code}")
    if FAN_MODEL in wl["models"]:
        records = crit.io.load_scenarios(fixtures / "scenarios.json")
        crit.io.save_predictions(fixtures / f"predictions_{FAN_MODEL}.json",
                                 FAN_MODEL, records[0].dt,
                                 fan_predictions(crit, records, wl["k"]))
    return crit, time.perf_counter() - t0


# -- one pipeline --------------------------------------------------------------


def pipeline(crit, wl: dict, fx: Path, out: Path, tr: Tracer | None):
    """Run tag, eval per model and report; returns the wall times of each
    stage's invocations, the exit codes of each invocation, and the keys of
    invocations whose repeats did not rewrite identical outputs.

    Traced, every stage runs once; untraced, stages run ``REPEATS`` times.
    """
    preds = [str(fx / f"predictions_{m}.json") for m in wl["models"]]
    common = ["--scenarios", str(fx / "scenarios.json"), "--maps", str(fx / "map.json")]
    tags = str(out / "tags.json")
    metrics_files = [str(out / f"metrics_{m}.json") for m in wl["models"]]
    calls = [("tag", "tag", ["tag", *common, "--predictions", *preds, "--out", tags])]
    for model, pred, mfile in zip(wl["models"], preds, metrics_files):
        calls.append((f"eval:{model}", "eval", [
            "eval", *common, "--predictions", pred, "--tags", tags, "--out", mfile]))
    calls.append(("report", "report", [
        "report", "--metrics", *metrics_files, "--out", str(out / "report"),
        "--balance", "aae"]))

    times = {"tag": [], "eval": [], "report": []}
    codes = {}
    unstable = set()
    for key, stage, argv in calls:
        repeats = 1 if tr is not None else REPEATS[stage]
        first = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            if tr is None:
                code = crit.cli.main(argv)
            else:
                with tr.span(f"cli.{stage}"):
                    code = crit.cli.main(argv)
            times[stage].append(time.perf_counter() - t0)
            codes.setdefault(key, []).append(code)
            if repeats > 1:
                got = digests(out)
                first = first or got
                if got != first:
                    unstable.add(key)
    return times, codes, unstable


# -- output check --------------------------------------------------------------


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


class Reference:
    """What the outputs of a workload must show, computed independently of
    the evaluation code from the fixtures."""

    def __init__(self, crit, wl: dict, fx: Path):
        self.records = {r.id: r for r in crit.io.load_scenarios(fx / "scenarios.json")}
        self.min_ade: dict[str, dict[str, float]] = {}
        self.min_fde: dict[str, dict[str, float]] = {}
        for model in wl["models"]:
            _, preds = crit.io.load_predictions(fx / f"predictions_{model}.json")
            self.min_ade[model], self.min_fde[model] = {}, {}
            for sid, rec in self.records.items():
                modes = np.stack([m.points for m in preds[sid].modes])
                err = np.linalg.norm(modes - rec.future.points[None], axis=2)
                self.min_ade[model][sid] = float(err.mean(axis=1).min())
                self.min_fde[model][sid] = float(err[:, -1].min())
        self.models = wl["models"]
        self.metric_names = crit.bench.METRIC_NAMES


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_outputs(crit, ref: Reference, out: Path) -> dict[str, list[str]]:
    """Problems found in the outputs, keyed by the invocation that wrote them."""
    problems: dict[str, list[str]] = {}

    def fail(key, msg):
        problems.setdefault(key, []).append(msg)

    ids = set(ref.records)
    try:
        tags = crit.io.load_tags(out / "tags.json")
    except Exception as e:  # any reload failure is an output failure
        fail("tag", f"tags.json does not reload: {e!r}")
        tags = {}
    if set(tags) != ids:
        fail("tag", "tags.json does not tag exactly the scenarios")

    for model in ref.models:
        key = f"eval:{model}"
        try:
            run, mtags = crit.io.load_metrics(out / f"metrics_{model}.json")
        except Exception as e:
            fail(key, f"metrics_{model}.json does not reload: {e!r}")
            continue
        if run.model_name != model or set(run.per_scenario) != ids:
            fail(key, "wrong model name or scenario set")
            continue
        if {s: t.category() for s, t in mtags.items()} != \
                {s: t.category() for s, t in tags.items()}:
            fail(key, "embedded tags differ from tags.json")
        for sid, res in run.per_scenario.items():
            v = res.values
            if set(v) != set(ref.metric_names) or not all(map(math.isfinite, v.values())):
                fail(key, f"{sid}: missing or non-finite metric")
                continue
            if not 0.0 <= v["ATT"] <= v["DAC"] <= 1.0:
                fail(key, f"{sid}: ATT/DAC out of order or range")
            if not (_close(v["minADE"], ref.min_ade[model][sid])
                    and _close(v["minFDE"], ref.min_fde[model][sid])):
                fail(key, f"{sid}: minADE/minFDE differ from the reference")

    try:
        doc = json.loads((out / "report" / "report.json").read_text())
        if set(doc["models"]) != set(ref.models):
            fail("report", "report.json models differ")
        for name, ranks in doc["overall_ranks"].items():
            if set(ranks) != set(ref.models) or not all(
                    1 <= r <= len(ref.models) for r in ranks.values()):
                fail("report", f"bad ranks for {name}")
        rows = (out / "report" / "balance.csv").read_text().splitlines()
        if len(rows) != len(ref.models) + 1:
            fail("report", "balance.csv has the wrong number of rows")
    except (OSError, ValueError, KeyError, AttributeError, TypeError) as e:
        fail("report", f"report outputs unreadable: {e!r}")
    return problems


def _writer(name: str) -> str:
    if name == "tags.json":
        return "tag"
    if name.startswith("metrics_"):
        return f"eval:{name[len('metrics_'):-len('.json')]}"
    return "report"


class Ledger:
    """Counts invocations and failures; holds the run's reference digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] | None = None
        self.messages: list[str] = []

    def settle(self, codes, unstable, problems, got: dict[str, str],
               label: str) -> None:
        problems = {k: list(v) for k, v in problems.items()}
        for key in unstable:
            problems.setdefault(key, []).append("repeats wrote different outputs")
        for key, key_codes in codes.items():
            for code in key_codes:
                if code != 0:
                    problems.setdefault(key, []).append(f"exit code {code}")
        if self.digests is None:
            self.digests = got
        elif got != self.digests:
            for name in set(got) | set(self.digests):
                if got.get(name) != self.digests.get(name):
                    problems.setdefault(_writer(name), []).append(
                        f"{name} digest differs from the first pipeline")
        self.attempted += sum(map(len, codes.values()))
        self.failed += sum(len(codes[key]) for key in codes if key in problems)
        for key, msgs in problems.items():
            self.messages += [f"{label} {key}: {m}" for m in msgs]


# -- a whole run -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    scenario_models = wl["n"] * len(wl["models"])
    threads_env = os.environ.pop("CRITERIA_THREADS", None)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "CRITERIA_THREADS": "unset" if threads_env is None
        else f"removed (was {threads_env!r})",
    }
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    ledger = Ledger()
    try:
        setup_times = []
        fixture_digests = None
        for i in range(SETUPS):
            fx = work / f"fixtures{i}"
            crit, dt = setup_once(wl, seed, fx)
            setup_times.append(dt)
            got = digests(fx)
            if fixture_digests is None:
                fixture_digests = got
            elif got != fixture_digests:
                raise SetupError("fixtures differ between set-ups of one seed")
        ref = Reference(crit, wl, fx)
        out = work / "out"

        stage_times = {"tag": [], "eval": [], "report": []}
        traced_times, summaries = [], []
        t_start = time.perf_counter()
        round_times = []
        while True:
            t_round = time.perf_counter()
            # traced twice per round, so every run can check that counts repeat
            for traced in ((False, True, True) if trace else (False,)):
                gc.collect()
                tr = None
                if traced:
                    tr = Tracer()
                    layers.install(tr, crit)
                try:
                    times, codes, unstable = pipeline(crit, wl, fx, out, tr)
                finally:
                    if tr is not None:
                        tr.restore()
                if traced:
                    traced_times.append(sum(map(sum, times.values())))
                    summaries.append(layers.summarize(tr, scenario_models, wl["k"]))
                else:
                    stage_times["tag"] += times["tag"]
                    stage_times["eval"].append(sum(times["eval"]))
                    stage_times["report"] += times["report"]
                label = "traced" if traced else "untraced"
                ledger.settle(codes, unstable, check_outputs(crit, ref, out), digests(out),
                              f"{label} pipeline {len(round_times) + 1}")
            round_times.append(time.perf_counter() - t_round)
            # start another round while half of one still fits, so a run with
            # rounds of about half its length measures two of them
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(round_times) / 2 > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    tag_s, eval_s, report_s = (statistics.median(stage_times[s])
                               for s in ("tag", "eval", "report"))
    pipeline_s = tag_s + eval_s + report_s
    measured = {
        "setup_s": statistics.median(setup_times),
        "tag_s": tag_s,
        "eval_s": eval_s,
        "report_s": report_s,
        "pipeline_s": pipeline_s,
        "eval_scen_per_s": scenario_models / eval_s,
        "peak_rss_mb": peak_rss_mb,
    }
    drift = []
    if trace:
        for metric in layers.METRICS:
            values = [s[metric] for s in summaries]
            if metric in layers.EXACT and len(set(values)) > 1:
                drift.append(metric)
            measured[metric] = statistics.median(values)
        measured["trace.overhead_pct"] = \
            100.0 * (statistics.median(traced_times) / pipeline_s - 1.0)
        ledger.messages += [f"count drifted between traced pipelines: {m}" for m in drift]
    correct = ledger.failed == 0 and not drift
    return dict(
        workload=name, seed=seed, trace=trace, env=env,
        inputs=dict(map_kind=wl["kind"], n=wl["n"], k=wl["k"], models=list(wl["models"])),
        pipelines=len(stage_times["eval"]), traced_pipelines=len(summaries),
        setups=len(setup_times), correct=correct, attempted=ledger.attempted,
        failed=ledger.failed, messages=ledger.messages, digests=ledger.digests,
        measured=measured,
    )


def report(result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# workload {result['workload']} seed={result['seed']} "
          f"inputs={json.dumps(result['inputs'])} setups={result['setups']} "
          f"pipelines={result['pipelines']} traced={result['traced_pipelines']}")
    for msg in result["messages"]:
        print(f"# FAIL {msg}")
    for name, digest in sorted((result["digests"] or {}).items()):
        print(f"# sha256 {digest} {name}")
    error_rate = result["failed"] / max(result["attempted"], 1)
    print(f"error_rate {error_rate:.6g} ({result['failed']}/{result['attempted']}"
          f" stage invocations)")
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    shown = units if result["trace"] else {**END_TO_END_UNITS, **STAGE_UNITS}
    for m, u in shown.items():
        print(f"{m} {result['measured'][m]:.6g} {u}")
    metrics = {m: {"value": result["measured"][m], "unit": u} for m, u in units.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload is None:  # every workload, each in its own process
        worst = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report(result), sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
