"""Acceptance gate: nine end-to-end checks covering the difficulty split,
alignment confidence, diversity scaling, clipping, the triad conjunction,
geometry oracles, the synthetic pipeline, ranking, and tagging.

Each test prints a single PASS line when it succeeds; run with `pytest -v`
(or `-s`) to see one line per criterion.
"""

import json
import math

import numpy as np
import pytest

from criteria import geom, io, metrics, synth
from criteria.bench import rank
from criteria.cli import EXIT_OK, main
from criteria.map_model import is_turn_lane
from criteria.metrics import AlignmentConfig, alignment_confidence
from criteria.scenario import (
    Difficulty,
    LengthClass,
    ScenarioConfig,
    ScenarioRecord,
    Structure,
    partition_difficulty,
    tag_length,
    tag_structure,
)
from criteria.trajectory import KinematicConfig, Trajectory

from conftest import make_pred, single_lane_map, straight_mode


def _passed(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_difficulty_split_counts():
    rng = np.random.default_rng(0)
    n = 39472
    scores = {f"s{i:05d}": float(v) for i, v in enumerate(rng.normal(size=n))}
    out = partition_difficulty(scores, (0.10, 0.45, 0.45))
    counts = {d: sum(1 for v in out.values() if v is d) for d in Difficulty}
    assert counts[Difficulty.HARD] == 3947
    assert counts[Difficulty.MIDDLE] == 17762
    assert counts[Difficulty.EASY] == 17763
    _passed(1, "39472 scores split exactly 3947 / 17762 / 17763")


def test_criterion_2_alignment_confidence_curve():
    assert abs(alignment_confidence(0.0) - 1.0) <= 1e-12
    assert abs(alignment_confidence(math.pi) - 0.0) <= 1e-12
    assert abs(alignment_confidence(math.pi / 4) - 0.75) <= 1e-12
    grid = np.linspace(0.0, 2 * math.pi, 1000)
    values = [alignment_confidence(t) for t in grid]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 for v in values)
    assert AlignmentConfig().threshold_lac == 0.5
    _passed(2, "confidence hits 1, 0, 0.75 and is monotone non-increasing")


def test_criterion_3_scaling_moves_distance_not_angle():
    rng = np.random.default_rng(42)
    start = np.array([1.0, -2.0])
    modes = [
        np.vstack([start, straight_mode(start, d, 29)])
        for d in rng.uniform(0.2, 1.5, size=(4, 2))
    ]
    pred = make_pred(modes)
    scaled = make_pred([m[0] + 2.0 * (m - m[0]) for m in modes])

    asd1, asd2 = metrics.min_asd(pred), metrics.min_asd(scaled)
    fsd1, fsd2 = metrics.min_fsd(pred), metrics.min_fsd(scaled)
    assert abs(asd2 - 2.0 * asd1) <= 1e-9 * max(1.0, abs(asd2))
    assert abs(fsd2 - 2.0 * fsd1) <= 1e-9 * max(1.0, abs(fsd2))
    assert abs(metrics.aae(scaled) - metrics.aae(pred)) < 1e-9
    _passed(3, "x2 scaling doubles minASD/minFSD and leaves AAE unchanged")


def test_criterion_4_amv_clipping_prefix():
    dt = 0.1
    # mode A holds 10 m/s; mode B jumps to 13 m/s after its 5th step,
    # a +30 m/s^2 acceleration sample that violates a_max
    speeds_a = [10.0] * 12
    speeds_b = [10.0] * 5 + [13.0] * 7
    anchor = (0.0, 0.0)

    def mode(speeds):
        xs = np.cumsum(np.asarray(speeds) * dt)
        return np.column_stack([xs, np.zeros_like(xs)])

    pred = make_pred([mode(speeds_a), mode(speeds_b)], dt=dt, anchor=anchor)
    kin = KinematicConfig()
    loose = KinematicConfig(a_min=-1e9, a_max=1e9)

    from criteria.trajectory import kinematic_clip

    assert kinematic_clip(pred, kin)[1] == 5

    clipped_amv = metrics.amv(pred, kin)
    unclipped_amv = metrics.amv(pred, loose)
    # enumerated tail: steps 6..12 differ by |13 - 10| * dt each
    tail_sum = 7 * 3.0 * dt
    assert abs((unclipped_amv - clipped_amv) - tail_sum) <= 1e-9
    _passed(4, "violating mode contributes its 5-step prefix; tail matches")


def test_criterion_5_triad_conjunction():
    road = single_lane_map(x1=200.0)
    align_cfg = AlignmentConfig()
    violations = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        anchor = np.array([rng.uniform(0, 50), rng.uniform(-1.5, 1.5)])
        modes = []
        for _ in range(3):
            steps = rng.uniform(-0.5, 1.5, size=(10, 2))
            steps[:, 1] *= 0.3
            modes.append(anchor + np.cumsum(steps, axis=0))
        pred = make_pred(modes, anchor=tuple(anchor))
        triad = metrics.att(pred, road, align_cfg, KinematicConfig())
        rates = triad.test_rates()
        if triad.att_rate > min(rates.values()) + 1e-12:
            violations += 1
        if triad.att_rate > metrics.dac(pred, road) + 1e-12:
            violations += 1
        for k in range(pred.k):
            want = (
                triad.boundary_pass[k]
                and triad.alignment_pass[k]
                and triad.kinematic_pass[k]
            )
            if triad.admissible[k] != want:
                violations += 1
    assert violations == 0
    _passed(5, "1000 fixtures: att_rate bounded by every test rate and DAC")


def test_criterion_6_geometry_oracles():
    rng = np.random.default_rng(123)
    # convex polygon vs half-plane membership
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=9))
    radius = float(rng.uniform(6, 10))
    poly = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    ring = geom.normalize_ring(poly)
    pts = rng.uniform(-12, 12, size=(10000, 2))
    a = ring
    b = np.roll(ring, -1, axis=0)
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(ring)):
        cross = (b[i, 0] - a[i, 0]) * (pts[:, 1] - a[i, 1]) - (
            b[i, 1] - a[i, 1]
        ) * (pts[:, 0] - a[i, 0])
        inside &= cross >= 0
    off_band = geom.distance_to_ring(pts, poly) > 1e-6
    got = geom.points_in_polygon(pts, poly)
    assert (got[off_band] == inside[off_band]).all()

    # grid index vs linear scan
    for seed in range(100):
        rng = np.random.default_rng(seed)
        shapes = {
            f"i{j}": rng.uniform(-100, 100, size=(int(rng.integers(1, 6)), 2))
            for j in range(30)
        }
        idx = geom.GridIndex(shapes)
        center = rng.uniform(-100, 100, size=2)
        r = float(rng.uniform(5, 120))
        want = sorted(
            key
            for key, p in shapes.items()
            if np.linalg.norm(p - center, axis=1).min() <= r
        )
        assert idx.query_radius(center, r) == want
    _passed(6, "10000-point polygon oracle and 100-seed radius scan agree")


def _run_pipeline(root):
    data = root / "data"
    assert main(["synth", "--kind", "T_INTERSECTION", "--n", "6",
                 "--seed", "0", "--out", str(data)]) == EXIT_OK
    pred_files = {
        name: data / f"predictions_{name}.json"
        for name in ("const_vel", "lane_fan", "noisy")
    }
    tags = data / "tags.json"
    assert main([
        "tag",
        "--scenarios", str(data / "scenarios.json"),
        "--maps", str(data / "map.json"),
        "--predictions", *[str(p) for p in pred_files.values()],
        "--out", str(tags),
    ]) == EXIT_OK
    metric_files = {}
    for name, pred_file in pred_files.items():
        out = root / f"metrics_{name}.json"
        assert main([
            "eval",
            "--scenarios", str(data / "scenarios.json"),
            "--maps", str(data / "map.json"),
            "--predictions", str(pred_file),
            "--tags", str(tags),
            "--out", str(out),
        ]) == EXIT_OK
        metric_files[name] = out
    report_dir = root / "report"
    assert main([
        "report",
        "--metrics", *[str(p) for p in metric_files.values()],
        "--out", str(report_dir), "--balance", "aae",
    ]) == EXIT_OK
    return data, metric_files, report_dir


def test_criterion_7_end_to_end_pipeline(tmp_path):
    data, metric_files, report_dir = _run_pipeline(tmp_path / "a")
    for name in ("report.json", "tables.md", "balance.csv", "balance.svg"):
        assert (report_dir / name).exists()

    docs = {
        name: json.loads(path.read_text())
        for name, path in metric_files.items()
    }
    for values in docs["const_vel"]["per_scenario"].values():
        assert values["ATT"] == 1.0
        assert values["AAE"] == 0.0
        assert values["AMV"] == 0.0
    mean_aae = {
        name: np.mean([v["AAE"] for v in doc["per_scenario"].values()])
        for name, doc in docs.items()
    }
    assert mean_aae["lane_fan"] > mean_aae["noisy"]
    assert mean_aae["lane_fan"] > mean_aae["const_vel"]
    noisy_dac = np.mean(
        [v["DAC"] for v in docs["noisy"]["per_scenario"].values()]
    )
    assert noisy_dac < 1.0

    # re-run: byte-identical outputs
    _, metric_files_b, report_dir_b = _run_pipeline(tmp_path / "b")
    for name, path in metric_files.items():
        assert path.read_bytes() == metric_files_b[name].read_bytes()
    for name in ("report.json", "tables.md", "balance.csv", "balance.svg"):
        assert (report_dir / name).read_bytes() == (
            report_dir_b / name
        ).read_bytes()
    _passed(7, "pipeline exits 0, predictors behave, outputs byte-identical")


def test_criterion_8_ranking_semantics():
    values = {"m1": 1.73, "m2": 1.08, "m3": 0.96, "m4": 1.08, "m5": 1.08}
    assert rank(values, "minFDE") == {"m1": 5, "m2": 2, "m3": 1, "m4": 2,
                                      "m5": 2}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vals = {f"m{i}": float(rng.uniform(0, 10)) for i in range(6)}
        base = rank(vals, "minADE")
        warped = {k: math.exp(v) + 3.0 for k, v in vals.items()}
        assert rank(warped, "minADE") == base
    _passed(8, "column ranks {5,2,1,2,2}; monotone-transform invariant")


def test_criterion_9_scenario_tagging():
    cfg = ScenarioConfig()
    road = synth.gen_map(
        synth.SynthSpec(kind=synth.MapKind.T_INTERSECTION, seed=0)
    )

    def rec(start, step):
        past = straight_mode(np.add(start, (-20 * step[0], 0)), step, 20)
        future = straight_mode(start, step, 30)
        return ScenarioRecord(
            id="s", map_id=road.map_id, agent_id="a", dt=0.1,
            past=Trajectory(past, 0.1), future=Trajectory(future, 0.1),
        )

    turn_lanes = [l for l in road.lanes.values() if is_turn_lane(l)]
    assert turn_lanes
    for x0 in np.linspace(-195.0, -30.0, 12):
        r = rec((float(x0), -1.85), (0.3, 0.0))
        pts = np.vstack([r.past.points, r.future.points])
        near = any(
            geom.distance_to_ring(pts, lane.polygon).min() <= cfg.turn_radius
            or geom.points_in_polygon(pts, lane.polygon).any()
            for lane in turn_lanes
        )
        want = Structure.TURN if near else Structure.CRUISING
        assert tag_structure(r, road, cfg) is want

    # exactly-beta future arc counts as LONG
    xs = np.zeros(30)
    xs[-1] = 28.8
    base = rec((-190.0, -1.85), (0.3, 0.0))
    boundary = ScenarioRecord(
        id="s", map_id=road.map_id, agent_id="a", dt=0.1, past=base.past,
        future=Trajectory(np.column_stack([xs, np.full(30, -1.85)]), 0.1),
    )
    assert geom.arc_length(boundary.future.points) == 28.8
    assert tag_length(boundary, cfg.beta) is LengthClass.LONG
    _passed(9, "TURN iff turn lane within 100 m; 28.8 m arc tags LONG")
