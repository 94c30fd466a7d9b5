"""Command-line pipeline: synth -> tag -> eval -> report.

Exit codes: 0 success, 1 usage, 2 schema validation, 3 data consistency,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io, metrics, report as report_mod, scenario, synth
from .bench import balance_data, evaluate_model, aggregate
from .errors import (
    CriteriaError,
    DataConsistencyError,
    InvalidMapError,
    SchemaError,
    ShapeError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

DEFAULT_K = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="criteria",
        description="Map-aware trajectory prediction benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic fixtures")
    p_synth.add_argument("--kind", default="STRAIGHT",
                         choices=[k.value for k in synth.MapKind])
    p_synth.add_argument("--n", type=int, default=10)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--lanes", type=int, default=2)
    p_synth.add_argument("--modes", type=int, default=DEFAULT_K)
    p_synth.add_argument("--out", required=True)

    p_tag = sub.add_parser("tag", help="tag scenarios into the 12 categories")
    p_tag.add_argument("--scenarios", required=True)
    p_tag.add_argument("--maps", required=True)
    p_tag.add_argument("--minfde")
    p_tag.add_argument("--predictions", nargs="*", default=[])
    p_tag.add_argument("--config")
    p_tag.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one model")
    p_eval.add_argument("--scenarios", required=True)
    p_eval.add_argument("--maps", required=True)
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--tags", required=True)
    p_eval.add_argument("--config")
    p_eval.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="render tables and balance chart")
    p_rep.add_argument("--metrics", nargs="+", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--balance", choices=["aae", "amv"])
    p_rep.add_argument("--category")
    return parser


def _load_run_config(path: str | None) -> io.RunConfig:
    return io.load_config(path) if path else io.RunConfig()


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        kind=synth.MapKind(args.kind),
        lanes_per_direction=args.lanes,
        seed=args.seed,
        n_scenarios=args.n,
    )
    out = Path(args.out)
    road = synth.gen_map(spec)
    records = synth.gen_scenarios(road, spec)
    io.save_map(out / "map.json", road)
    io.save_scenarios(out / "scenarios.json", records)
    for kind in synth.PredictorKind:
        preds = [
            synth.toy_predict(kind, rec, road, args.modes, spec.seed + i)
            for i, rec in enumerate(records)
        ]
        name = kind.value.lower()
        io.save_predictions(
            out / f"predictions_{name}.json", name, spec.dt, preds
        )
    return EXIT_OK


def _min_fde_table(args, records) -> dict[str, list[float]]:
    if args.minfde:
        doc = io._load_json(args.minfde)
        if not isinstance(doc, dict) or "min_fde" not in doc:
            raise SchemaError("$.min_fde", "missing required field")
        table = doc["min_fde"]
        if not isinstance(table, dict):
            raise SchemaError("$.min_fde", "expected an object")
        out = {}
        for sid, values in table.items():
            if not isinstance(values, list) or not values:
                raise SchemaError(f"$.min_fde.{sid}",
                                  "expected a non-empty list of numbers")
            for j, v in enumerate(values):
                if not io._finite_number(v):
                    raise SchemaError(f"$.min_fde.{sid}[{j}]",
                                      "expected a finite number")
            out[sid] = [float(v) for v in values]
        return out
    if not args.predictions:
        raise DataConsistencyError(
            "tag needs either --minfde or --predictions files"
        )
    by_rec = {r.id: r for r in records}
    table: dict[str, list[float]] = {r.id: [] for r in records}
    for path in args.predictions:
        _, preds = io.load_predictions(path)
        missing = sorted(sid for sid in table if sid not in preds)
        if missing:
            raise DataConsistencyError(
                f"{path}: predictions missing for scenarios: {missing}"
            )
        for sid in table:
            table[sid].append(metrics.min_fde(preds[sid], by_rec[sid].future))
    return table


def cmd_tag(args) -> int:
    cfg = _load_run_config(args.config)
    records = io.load_scenarios(args.scenarios)
    road = io.load_map(args.maps)
    table = _min_fde_table(args, records)
    tags, counts = scenario.tag_all(
        records, {road.map_id: road}, table, cfg.scenario
    )
    inputs = {"scenarios": io.sha256_file(args.scenarios),
              "maps": io.sha256_file(args.maps)}
    if args.minfde:
        inputs["minfde"] = io.sha256_file(args.minfde)
    for i, path in enumerate(args.predictions):
        inputs[f"predictions[{i}]"] = io.sha256_file(path)
    io.write_json(args.out, io.tags_to_dict(tags, counts, cfg, inputs))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_run_config(args.config)
    records = io.load_scenarios(args.scenarios)
    road = io.load_map(args.maps)
    model, preds = io.load_predictions(args.predictions)
    tags = io.load_tags(args.tags)
    missing = sorted(r.id for r in records if r.id not in tags)
    if missing:
        raise DataConsistencyError(f"tags missing for scenarios: {missing}")
    run = evaluate_model(
        model_name=model,
        records=records,
        maps={road.map_id: road},
        predictions=preds,
        align_cfg=cfg.alignment,
        kin_cfg=cfg.kinematic,
        dao_cfg=cfg.dao,
        amv_reduction=cfg.amv_reduction,
        aae_unit=cfg.aae_unit,
        config_snapshot=cfg.to_dict(),
    )
    inputs = {
        "scenarios": io.sha256_file(args.scenarios),
        "maps": io.sha256_file(args.maps),
        "predictions": io.sha256_file(args.predictions),
        "tags": io.sha256_file(args.tags),
    }
    io.write_json(args.out, io.metrics_to_dict(run, cfg, inputs, tags))
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.out)
    runs = []
    config_doc = None
    inputs = {}
    for path in args.metrics:
        run, tags = io.load_metrics(path)
        if not run.per_scenario:
            raise DataConsistencyError(f"{path}: metrics file carries no scenarios")
        if not tags:
            raise DataConsistencyError(
                f"{path}: metrics file carries no scenario tags"
            )
        runs.append((run, tags))
        config_doc = config_doc or run.config_snapshot
        inputs[f"metrics[{run.model_name}]"] = io.sha256_file(path)
    cfg = io.RunConfig.from_dict(config_doc or {})

    doc = report_mod.build_report(runs, cfg.weights)
    doc["config"] = cfg.to_dict()
    doc["inputs"] = inputs
    io.write_json(out / "report.json", doc)

    tables = report_mod.collect_block_tables(runs, cfg.weights)
    md_parts = []
    for name, per_model in tables.items():
        slug = name.replace("/", "_").lower()
        io.write_text(out / f"table_{slug}.csv",
                      report_mod.render_csv(per_model))
        md_parts.append(report_mod.render_markdown(name, per_model))
    io.write_text(out / "tables.md", "\n".join(md_parts))

    if args.balance:
        diversity = args.balance.upper()
        reports = [aggregate(run, tags, cfg.weights) for run, tags in runs]
        rows = balance_data(reports, diversity, args.category)
        io.write_text(out / "balance.csv",
                      report_mod.render_balance_csv(rows, diversity))
        io.write_text(out / "balance.svg",
                      report_mod.render_balance_svg(rows, diversity))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "tag":
            return cmd_tag(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "report":
            return cmd_report(args)
        return EXIT_USAGE
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InvalidMapError,) as e:
        print(f"invalid map: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DataConsistencyError, ShapeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CriteriaError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
