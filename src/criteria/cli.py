"""Command-line pipeline: synth -> tag -> eval -> report.

Exit codes: 0 success, 1 usage (or a missing or unusable path), 2 schema
validation, 3 data consistency, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from . import io, metrics, report as report_mod, scenario, synth
from .bench import aggregate, balance_data, check_predictions, check_tags
from .bench import evaluate_model
from .errors import (
    CriteriaError,
    DataConsistencyError,
    HorizonError,
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


def _int_at_least(least: int):
    """An argparse ``type`` that accepts an integer of at least ``least``;
    argparse names the option in its error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first ``main`` call of a process and
    shared by later ones; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="criteria",
        description="Map-aware trajectory prediction benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic fixtures")
    p_synth.add_argument("--kind", default="STRAIGHT",
                         choices=[k.value for k in synth.MapKind])
    p_synth.add_argument("--n", type=_int_at_least(1), default=10)
    p_synth.add_argument("--seed", type=_int_at_least(0), default=0)
    p_synth.add_argument("--lanes", type=_int_at_least(1), default=2)
    p_synth.add_argument("--modes", type=_int_at_least(2), default=DEFAULT_K)
    p_synth.add_argument("--out", required=True)

    p_tag = sub.add_parser("tag", help="tag scenarios into the 12 categories")
    p_tag.add_argument("--scenarios", required=True)
    p_tag.add_argument("--maps", required=True)
    scores = p_tag.add_mutually_exclusive_group(required=True)
    scores.add_argument("--minfde")
    scores.add_argument("--predictions", nargs="+")
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
    p_rep.add_argument("--category", choices=scenario.level_keys())
    return parser


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
        io.save_predictions(out / f"predictions_{name}.json", name, synth.DT, preds)
    return EXIT_OK


@contextlib.contextmanager
def _in_file(path, kind=CriteriaError):
    """Name ``path`` as the file of a ``kind`` of ``CriteriaError`` raised in
    the block that names no file yet; with ``path`` None, name none."""
    try:
        yield
    except kind as e:
        if e.file is None:
            e.file = path
        raise


def _claim(paths: dict, model: str, path) -> None:
    """Record ``path`` as the file of ``model`` in ``paths``; a model given
    twice is a data error naming both files."""
    if model in paths:
        raise DataConsistencyError(
            f"model {model!r} appears in both {paths[model]} and {path}")
    paths[model] = path


def _min_fde_table(args, records) -> dict[str, list[float]]:
    if args.minfde:
        return io.load_min_fde(args.minfde)
    by_rec = {r.id: r for r in records}
    table: dict[str, list[float]] = {r.id: [] for r in records}
    paths = {}
    for path in args.predictions:
        model, preds = io.load_predictions(path)
        _claim(paths, model, path)
        with _in_file(path):
            check_predictions(records, preds)
        for sid in table:
            table[sid].append(metrics.min_fde(preds[sid], by_rec[sid].future))
    return table


def _load_scenarios_and_map(args):
    """The ``--scenarios`` records and the ``--maps`` map; a scenario that
    names another map is a data error in the scenarios file."""
    records = io.load_scenarios(args.scenarios)
    road = io.load_map(args.maps)
    with _in_file(args.scenarios):
        scenario.check_maps(records, {road.map_id: road})
    return records, road


def cmd_tag(args) -> int:
    cfg = io.load_config(args.config)
    records, road = _load_scenarios_and_map(args)
    table = _min_fde_table(args, records)
    with _in_file(args.minfde):  # a --minfde table that does not fit
        tags, counts = scenario.tag_all(
            records, {road.map_id: road}, table, cfg.scenario
        )
    inputs = {"scenarios": io.sha256_file(args.scenarios),
              "maps": io.sha256_file(args.maps)}
    if args.minfde:
        inputs["minfde"] = io.sha256_file(args.minfde)
    else:
        for i, path in enumerate(args.predictions):
            inputs[f"predictions[{i}]"] = io.sha256_file(path)
    io.write_json(args.out, io.tags_to_dict(tags, counts, cfg, inputs))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = io.load_config(args.config)
    records, road = _load_scenarios_and_map(args)
    model, preds = io.load_predictions(args.predictions)
    tags = io.load_tags(args.tags)
    with _in_file(args.tags):
        check_tags((r.id for r in records), tags)
    # a misfit prediction; a tail longer than a horizon is the config's if it set one
    tail_set = cfg.alignment.tail_steps != metrics.AlignmentConfig.tail_steps
    with _in_file(args.predictions), _in_file(args.config if tail_set else None,
                                              HorizonError):
        run = evaluate_model(model, records, {road.map_id: road}, preds, cfg)
    inputs = {
        "scenarios": io.sha256_file(args.scenarios),
        "maps": io.sha256_file(args.maps),
        "predictions": io.sha256_file(args.predictions),
        "tags": io.sha256_file(args.tags),
    }
    io.write_json(args.out, io.metrics_to_dict(run, inputs, tags))
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.out)
    runs, reports, inputs, paths = [], [], {}, {}
    for path in args.metrics:
        run, tags = io.load_metrics(path)
        _claim(paths, run.model_name, path)
        # each run aggregated once, for the report, the tables and the chart
        with _in_file(path):
            reports.append(aggregate(run, tags, run.config.weights))
        if runs and run.config != runs[0][0].config:
            raise DataConsistencyError(
                f"{args.metrics[0]} and {path} were evaluated under "
                "different run configurations"
            )
        if runs and run.per_scenario.keys() != runs[0][0].per_scenario.keys():
            raise DataConsistencyError(
                f"{args.metrics[0]} and {path} were evaluated on different scenarios"
            )
        if runs and tags != runs[0][1]:
            raise DataConsistencyError(
                f"{args.metrics[0]} and {path} carry different scenario tags"
            )
        runs.append((run, tags))
        inputs[f"metrics[{run.model_name}]"] = io.sha256_file(path)
    cfg = runs[0][0].config

    doc = report_mod.build_report(reports)
    doc["config"] = cfg.to_dict()
    doc["inputs"] = inputs
    io.write_json(out / "report.json", doc)

    tables = report_mod.collect_block_tables(reports)
    md_parts = []
    for name, per_model in tables.items():
        slug = name.replace("/", "_").lower()
        io.write_text(out / f"table_{slug}.csv",
                      report_mod.render_csv(per_model))
        md_parts.append(report_mod.render_markdown(name, per_model))
    io.write_text(out / "tables.md", "\n".join(md_parts))

    if args.balance:
        diversity = args.balance.upper()
        rows = balance_data(reports, diversity, args.category)
        io.write_text(out / "balance.csv",
                      report_mod.render_balance_csv(rows, diversity))
        io.write_text(out / "balance.svg",
                      report_mod.render_balance_svg(rows, diversity))
    return EXIT_OK


_COMMANDS = {"synth": cmd_synth, "tag": cmd_tag, "eval": cmd_eval,
             "report": cmd_report}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report" and args.category and not args.balance:
            parser.error("argument --category: only applies with --balance")
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
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
    except OSError as e:  # a directory, a loop, too long a name, denied
        print(f"unusable path: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CriteriaError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
