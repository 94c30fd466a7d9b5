"""Where the tracer hooks into ``criteria`` and how spans become metrics.

Layers are the package's modules. ``install`` wraps each public function at
the place its caller looks it up; ``summarize`` turns one traced pipeline into
per-layer metrics. Every ``ms`` metric is self time (span minus child spans)
in milliseconds per scenario·model; every count is per scenario·model, so it
is fixed by the inputs and repeats exactly.
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np


def _npoints(points) -> int:
    arr = np.asarray(points)
    return 1 if arr.ndim == 1 else len(arr)


def _on_points_in_polygon(tr, args, kwargs, inside):
    points = args[0] if args else kwargs["points"]
    ring = args[1] if len(args) > 1 else kwargs["ring"]
    tr.count("pip.point_edges", _npoints(points) * _npoints(ring))
    tr.count("pip.points", len(inside))
    tr.count("pip.inside", int(np.count_nonzero(inside)))


def _on_contains_many(tr, args, kwargs, inside):
    tr.count("contains_many.points", len(inside))


def _on_distance_to_ring(tr, args, kwargs, dist):
    tr.count("distance_to_ring.points", len(dist))


def _on_diversity(tr, args, kwargs, value):
    k = (args[0] if args else kwargs["pred"]).k
    tr.count("diversity.pairs", k * (k - 1) // 2)


def _on_query_radius(tr, args, kwargs, hits):
    tr.count("query_radius.hits", len(hits))


def _on_load(tr, args, kwargs, result):
    tr.count("io.load_bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def install(tr, crit) -> None:
    """Wrap the public functions of the ``criteria`` modules in ``crit``."""
    geom, metrics = crit.geom, crit.metrics
    road_map, grid = crit.map_model.RoadMap, geom.GridIndex

    # containment: geom's own functions call each other through geom's
    # globals, and map_model and metrics call them as geom.<name>
    tr.patch(road_map, "contains_many", "map_model.contains_many", _on_contains_many)
    tr.patch(geom, "points_in_polygon", "geom.points_in_polygon",
             _on_points_in_polygon)
    tr.patch(geom, "distance_to_ring", "geom.distance_to_ring", _on_distance_to_ring)
    tr.patch(geom, "rasterize_occupancy", "geom.rasterize_occupancy")
    tr.patch(metrics, "dao", "metrics.dao")
    tr.patch(metrics, "dac", "metrics.dac")
    tr.patch(metrics, "test_boundary", "metrics.test_boundary")

    # per-mode and per-pair metrics; metrics imported the trajectory
    # functions into its own namespace, so they are patched there
    tr.patch(metrics, "att", "metrics.att")
    tr.patch(metrics, "test_alignment", "metrics.test_alignment")
    tr.patch(metrics, "test_kinematic", "metrics.test_kinematic")
    tr.patch(road_map, "lanes_containing", "map_model.lanes_containing")
    tr.patch(road_map, "lane_heading_at", "map_model.lane_heading_at")
    tr.patch(metrics, "kinematic_clip", "trajectory.kinematic_clip")
    tr.patch(metrics, "kinematic_window_check", "trajectory.kinematic_window_check")
    for name in ("min_ade", "min_fde", "rf"):
        tr.patch(metrics, name, "metrics.accuracy")
    for name in ("min_asd", "min_fsd", "aae", "amv"):
        tr.patch(metrics, name, "metrics.diversity", _on_diversity)

    # scenario tagging; query_radius calls min_distance once per candidate
    tr.patch(crit.scenario, "tag_structure", "scenario.tag_structure")
    tr.patch(crit.scenario, "tag_all", "scenario.tag_all")
    tr.patch(road_map, "lanes_within_radius", "map_model.lanes_within_radius")
    tr.patch(grid, "query_radius", "geom.query_radius", _on_query_radius)
    tr.patch_counter(grid, "min_distance", "query_radius.candidates")

    # io; the map is built inside io.load_map
    for name in ("load_scenarios", "load_map", "load_predictions", "load_tags",
                 "load_metrics"):
        tr.patch(crit.io, name, "io.load", _on_load)
    for name in ("write_json", "write_text"):
        tr.patch(crit.io, name, "io.write")
    tr.patch(crit.io, "sha256_file", "io.sha256")
    tr.patch(road_map, "__init__", "map_model.build")

    # bench and report; cli and report imported bench's functions by name
    tr.patch(crit.bench, "evaluate_scenario", "bench.evaluate_scenario")
    tr.patch(crit.cli, "evaluate_model", "bench.evaluate_model")
    tr.patch(crit.cli, "aggregate", "bench.aggregate")
    tr.patch(crit.report, "aggregate", "bench.aggregate")
    for name in ("build_report", "collect_block_tables"):
        tr.patch(crit.report, name, "report.build")
    for name in ("render_csv", "render_markdown", "render_balance_csv",
                 "render_balance_svg"):
        tr.patch(crit.report, name, "report.render")


class _Pipeline:
    """Spans and counts of one traced pipeline, per scenario·model."""

    def __init__(self, tr, scenario_models: int, k: int):
        self.self_s = tr.self_times()
        self.n_calls = tr.calls()
        self.counts = tr.counts
        self.per = float(scenario_models)
        self.k = k
        self.eval_ms = [1000.0 * d for d in tr.durations("bench.evaluate_scenario")]

    def ms(self, span: str) -> float:
        return 1000.0 * self.self_s.get(span, 0.0) / self.per

    def calls(self, span: str) -> float:
        return self.n_calls.get(span, 0) / self.per

    def count(self, counter: str) -> float:
        return self.counts[counter] / self.per

    def ratio(self, num: str, den: str) -> float:
        return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

    def eval_quantile(self, q: int) -> float:
        if len(self.eval_ms) == 1:
            return self.eval_ms[0]
        return statistics.quantiles(self.eval_ms, n=100, method="inclusive")[q - 1]


def _ms(span):
    return "ms", lambda p: p.ms(span)


def _calls(span):
    return "count", lambda p: p.calls(span)


def _count(counter, unit="count"):
    return unit, lambda p: p.count(counter)


def _ratio(num, den):
    return "ratio", lambda p: p.ratio(num, den)


# metric name -> (unit, value of one traced pipeline); printed in this order
METRICS = {
    "map_model.contains_many.calls": _calls("map_model.contains_many"),
    "map_model.contains_many.points": _count("contains_many.points"),
    "map_model.contains_many.ms": _ms("map_model.contains_many"),
    "geom.points_in_polygon.calls": _calls("geom.points_in_polygon"),
    "geom.points_in_polygon.point_edges": _count("pip.point_edges"),
    "geom.points_in_polygon.inside_ratio": _ratio("pip.inside", "pip.points"),
    "geom.points_in_polygon.ms": _ms("geom.points_in_polygon"),
    "geom.distance_to_ring.points": _count("distance_to_ring.points"),
    "geom.distance_to_ring.ms": _ms("geom.distance_to_ring"),
    "geom.rasterize_occupancy.ms": _ms("geom.rasterize_occupancy"),
    "metrics.dao.ms": _ms("metrics.dao"),
    "metrics.dac.ms": _ms("metrics.dac"),
    "metrics.test_boundary.per_mode":
        ("count", lambda p: p.calls("metrics.test_boundary") / p.k),
    "metrics.att.ms": _ms("metrics.att"),
    "metrics.test_alignment.ms": _ms("metrics.test_alignment"),
    "metrics.test_kinematic.ms": _ms("metrics.test_kinematic"),
    "map_model.lanes_containing.calls": _calls("map_model.lanes_containing"),
    "map_model.lanes_containing.ms": _ms("map_model.lanes_containing"),
    "map_model.lane_heading_at.ms": _ms("map_model.lane_heading_at"),
    "trajectory.kinematic_clip.ms": _ms("trajectory.kinematic_clip"),
    "trajectory.kinematic_window_check.ms": _ms("trajectory.kinematic_window_check"),
    "metrics.accuracy.ms": _ms("metrics.accuracy"),
    "metrics.diversity.ms": _ms("metrics.diversity"),
    "metrics.diversity.pairs": _count("diversity.pairs"),
    "scenario.tag_structure.ms": _ms("scenario.tag_structure"),
    "scenario.tag_all.ms": _ms("scenario.tag_all"),
    "map_model.lanes_within_radius.calls": _calls("map_model.lanes_within_radius"),
    "map_model.lanes_within_radius.ms": _ms("map_model.lanes_within_radius"),
    "geom.query_radius.candidates": _count("query_radius.candidates"),
    "geom.query_radius.hit_ratio": _ratio("query_radius.hits", "query_radius.candidates"),
    "geom.query_radius.ms": _ms("geom.query_radius"),
    "io.load_ms": _ms("io.load"),
    "io.load_bytes": _count("io.load_bytes", unit="B"),
    "io.write_ms": _ms("io.write"),
    "io.sha256_ms": _ms("io.sha256"),
    "map_model.build_ms": _ms("map_model.build"),
    "bench.evaluate_scenario.p50_ms": ("ms", lambda p: p.eval_quantile(50)),
    "bench.evaluate_scenario.p90_ms": ("ms", lambda p: p.eval_quantile(90)),
    "bench.evaluate_scenario.samples": ("count", lambda p: float(len(p.eval_ms))),
    "bench.evaluate_model.ms": _ms("bench.evaluate_model"),
    "bench.aggregate.ms": _ms("bench.aggregate"),
    "report.build_ms": _ms("report.build"),
    "report.render_ms": _ms("report.render"),
    "cli.tag.ms": _ms("cli.tag"),
    "cli.eval.ms": _ms("cli.eval"),
    "cli.report.ms": _ms("cli.report"),
}
# trace.overhead_pct compares whole pipelines, so the run computes it
UNITS = {**{name: unit for name, (unit, _) in METRICS.items()},
         "trace.overhead_pct": "%"}
# Metrics that are fixed by the inputs and must repeat exactly.
EXACT = [name for name, unit in UNITS.items() if unit in ("count", "ratio", "B")]


def summarize(tr, scenario_models: int, k: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (without the overhead)."""
    pipe = _Pipeline(tr, scenario_models, k)
    out = {name: value(pipe) for name, (_, value) in METRICS.items()}
    if any(not math.isfinite(v) for v in out.values()):
        raise ValueError("non-finite per-layer metric")
    return out
