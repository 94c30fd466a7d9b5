import json
import math
import re
from xml.dom import minidom

import numpy as np
import pytest

from criteria import cli, geom, io
from criteria.errors import CriteriaError
from criteria.scenario import Structure
from criteria.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """One synth run plus tags, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--kind", "T_INTERSECTION", "--n", "4",
                 "--seed", "0", "--out", str(data)]) == EXIT_OK
    tags = data / "tags.json"
    assert main([
        "tag",
        "--scenarios", str(data / "scenarios.json"),
        "--maps", str(data / "map.json"),
        "--predictions",
        str(data / "predictions_const_vel.json"),
        str(data / "predictions_noisy.json"),
        "--out", str(tags),
    ]) == EXIT_OK
    return data


class TestSynth:
    def test_outputs_exist(self, fixtures):
        assert (fixtures / "map.json").exists()
        assert (fixtures / "scenarios.json").exists()
        for name in ("const_vel", "lane_fan", "noisy"):
            assert (fixtures / f"predictions_{name}.json").exists()

    def test_outputs_loadable(self, fixtures):
        road = io.load_map(fixtures / "map.json")
        records = io.load_scenarios(fixtures / "scenarios.json")
        assert len(records) == 4
        assert all(r.map_id == road.map_id for r in records)

    def test_repeat_is_byte_identical(self, fixtures, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--kind", "T_INTERSECTION", "--n", "4",
                     "--seed", "0", "--out", str(again)]) == EXIT_OK
        for name in ("map.json", "scenarios.json", "predictions_noisy.json"):
            assert (again / name).read_bytes() == (fixtures / name).read_bytes()

    @pytest.mark.parametrize("option, value", [
        ("--n", "0"), ("--lanes", "0"), ("--modes", "1"), ("--seed", "-1"),
        ("--n", "abc"),
    ])
    def test_bad_count_is_usage_error(self, tmp_path, capsys, option, value):
        """Rejected before anything is written, with the option named."""
        out = tmp_path / "out"
        assert main(["synth", option, value, "--out", str(out)]) == EXIT_USAGE
        assert f"argument {option}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lanes", ["1", "3"])
    @pytest.mark.parametrize("kind", ["STRAIGHT", "T_INTERSECTION", "CROSSROADS"])
    def test_lanes_run_end_to_end(self, tmp_path, kind, lanes):
        """Every stage runs on a map of one or three lanes per direction,
        and every file it writes loads."""
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", "--kind", kind, "--lanes", lanes, "--n", "6",
                     "--out", str(data)]) == EXIT_OK
        inputs = ["--scenarios", str(data / "scenarios.json"),
                  "--maps", str(data / "map.json")]
        preds = sorted(data.glob("predictions_*.json"))
        assert main(["tag", *inputs, "--predictions", *map(str, preds),
                     "--out", str(data / "tags.json")]) == EXIT_OK
        for path in preds:
            assert main(["eval", *inputs, "--predictions", str(path),
                         "--tags", str(data / "tags.json"),
                         "--out", str(out / path.name)]) == EXIT_OK
        assert main(["report", "--metrics", *map(str, sorted(out.iterdir())),
                     "--out", str(out / "report"), "--balance", "aae"]) == EXIT_OK
        assert len(io.load_map(data / "map.json").lanes) > 0
        assert len(io.load_scenarios(data / "scenarios.json")) == 6
        assert len(io.load_tags(data / "tags.json")) == 6
        for path in preds:
            assert len(io.load_predictions(path)[1]) == 6
            run, tags = io.load_metrics(out / path.name)
            assert len(run.per_scenario) == len(tags) == 6
        for path in (out / "report").iterdir():
            if path.suffix == ".json":
                json.loads(path.read_text())
            elif path.suffix == ".svg":
                minidom.parse(str(path))
            else:
                assert path.read_text()


class TestTag:
    def test_tags_cover_all_scenarios(self, fixtures):
        tags = io.load_tags(fixtures / "tags.json")
        records = io.load_scenarios(fixtures / "scenarios.json")
        assert sorted(tags) == sorted(r.id for r in records)

    def test_minfde_table_input(self, fixtures, tmp_path):
        records = io.load_scenarios(fixtures / "scenarios.json")
        table = tmp_path / "minfde.json"
        table.write_text(json.dumps(
            {"min_fde": {r.id: [1.0 + i] for i, r in enumerate(records)}}
        ))
        out = tmp_path / "tags.json"
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--minfde", str(table),
            "--out", str(out),
        ]) == EXIT_OK
        assert sorted(io.load_tags(out)) == sorted(r.id for r in records)

    def test_missing_scenario_in_table_is_data_error(self, fixtures, tmp_path):
        table = tmp_path / "minfde.json"
        table.write_text(json.dumps({"min_fde": {"nope": [1.0]}}))
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--minfde", str(table),
            "--out", str(tmp_path / "tags.json"),
        ]) == EXIT_DATA

    @pytest.mark.parametrize("value", ["1.5", {"a": 1}, math.nan, math.inf,
                                       True, None],
                             ids=["string", "object", "nan", "inf", "bool", "null"])
    def test_bad_minfde_entry_is_schema_error(self, fixtures, tmp_path, capsys,
                                              value):
        records = io.load_scenarios(fixtures / "scenarios.json")
        table = {r.id: [1.0, 2.0] for r in records}
        sid = records[1].id
        table[sid][1] = value
        path = tmp_path / "minfde.json"
        path.write_text(json.dumps({"min_fde": table}))
        out = tmp_path / "tags.json"
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--minfde", str(path),
            "--out", str(out),
        ]) == EXIT_SCHEMA
        assert f"schema error: $.min_fde.{sid}[1]: " in capsys.readouterr().err
        assert not out.exists()

    def test_extra_table_rows_leave_tags_unchanged(self, fixtures, tmp_path):
        """Rows for scenarios that are not tagged take no share of the
        difficulty split, however hard they are."""
        records = io.load_scenarios(fixtures / "scenarios.json")
        table = {r.id: [1.0 + i] for i, r in enumerate(records)}
        extra = {f"extra{i:02d}": [100.0 + i] for i in range(20)}
        docs = []
        for name, rows in (("plain", table), ("extra", {**table, **extra})):
            path = tmp_path / f"minfde_{name}.json"
            path.write_text(json.dumps({"min_fde": rows}))
            out = tmp_path / f"tags_{name}.json"
            assert main([
                "tag",
                "--scenarios", str(fixtures / "scenarios.json"),
                "--maps", str(fixtures / "map.json"),
                "--minfde", str(path),
                "--out", str(out),
            ]) == EXIT_OK
            doc = json.loads(out.read_text())
            del doc["inputs"]  # the two tables' digests
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_repeated_model_is_data_error(self, fixtures, tmp_path, capsys):
        """A model given twice would count twice in each scenario's mean
        minFDE."""
        noisy = fixtures / "predictions_noisy.json"
        copy = tmp_path / "copy.json"
        copy.write_bytes(noisy.read_bytes())
        out = tmp_path / "tags.json"
        capsys.readouterr()
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_const_vel.json"),
            str(noisy), str(copy),
            "--out", str(out),
        ]) == EXIT_DATA
        assert (f"data error: model 'noisy' appears in both {noisy} and {copy}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_no_score_source_is_usage_error(self, fixtures, tmp_path, capsys):
        out = tmp_path / "tags.json"
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--out", str(out),
        ]) == EXIT_USAGE
        assert "one of the arguments --minfde --predictions is required" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_both_score_sources_is_usage_error(self, fixtures, tmp_path, capsys):
        records = io.load_scenarios(fixtures / "scenarios.json")
        table = tmp_path / "minfde.json"
        table.write_text(json.dumps({"min_fde": {r.id: [1.0] for r in records}}))
        out = tmp_path / "tags.json"
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--minfde", str(table),
            "--predictions", str(fixtures / "predictions_noisy.json"),
            "--out", str(out),
        ]) == EXIT_USAGE
        assert "argument --predictions: not allowed with argument --minfde" in \
            capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_eval_and_report(self, fixtures, tmp_path):
        metric_files = []
        for name in ("const_vel", "noisy"):
            out = tmp_path / f"metrics_{name}.json"
            assert main([
                "eval",
                "--scenarios", str(fixtures / "scenarios.json"),
                "--maps", str(fixtures / "map.json"),
                "--predictions", str(fixtures / f"predictions_{name}.json"),
                "--tags", str(fixtures / "tags.json"),
                "--out", str(out),
            ]) == EXIT_OK
            metric_files.append(str(out))

        doc = json.loads((tmp_path / "metrics_const_vel.json").read_text())
        assert doc["model"] == "const_vel"
        assert "tags" in doc and "config" in doc and "inputs" in doc

        report_dir = tmp_path / "report"
        assert main([
            "report", "--metrics", *metric_files,
            "--out", str(report_dir), "--balance", "aae",
        ]) == EXIT_OK
        assert (report_dir / "report.json").exists()
        assert (report_dir / "tables.md").exists()
        assert (report_dir / "table_overall.csv").exists()
        assert (report_dir / "balance.csv").exists()
        assert (report_dir / "balance.svg").exists()
        rep = json.loads((report_dir / "report.json").read_text())
        assert set(rep["models"]) == {"const_vel", "noisy"}

    def test_schema_error_exit(self, fixtures, tmp_path):
        bad = tmp_path / "bad_preds.json"
        bad.write_text(json.dumps({"model": "x", "dt": 0.1}))
        assert main([
            "eval",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(bad),
            "--tags", str(fixtures / "tags.json"),
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_SCHEMA

    def test_nan_coordinate_is_schema_error(self, fixtures, tmp_path, capsys):
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        doc["predictions"][0]["modes"][1][3][0] = float("nan")
        bad = tmp_path / "nan_preds.json"
        bad.write_text(json.dumps(doc))  # json writes the bare token NaN
        assert main([
            "eval",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(bad),
            "--tags", str(fixtures / "tags.json"),
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_SCHEMA
        assert "$.predictions[0].modes[1][3]" in capsys.readouterr().err

    def _eval(self, fixtures, tmp_path, predictions=None, scenarios=None):
        return main([
            "eval",
            "--scenarios", str(scenarios or fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions",
            str(predictions or fixtures / "predictions_noisy.json"),
            "--tags", str(fixtures / "tags.json"),
            "--out", str(tmp_path / "m.json"),
        ])

    @pytest.mark.parametrize("probs", [
        [math.nan] * 6,
        [0.2, math.nan, 0.2, 0.2, 0.2, 0.2],
        [math.inf, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, -0.25, 0.25, 0.25, 0.125, 0.125],
        [0.5, "0.1", 0.1, 0.1, 0.1, 0.1],
        [0.5, 0.1, 0.1, 0.1, 0.1, True],
        [0.5] * 6,
        [0.5, 0.5],
        "uniform",
        [0.5, 0.1, 0.1, 0.1, 0.1, 0.1],
    ], ids=["nan", "one_nan", "inf", "negative", "string", "bool", "bad_sum",
            "short", "not_a_list", "valid"])
    def test_probabilities_are_ignored(self, fixtures, tmp_path, probs):
        """No metric weights a mode by its probability, so a prediction's
        ``probabilities`` key is not read, whatever it holds."""
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        assert len(doc["predictions"][0]["modes"]) == 6
        for pred in doc["predictions"]:
            pred["probabilities"] = probs
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps(doc))  # json writes the bare tokens NaN, Infinity
        assert self._eval(fixtures, tmp_path / "plain") == EXIT_OK
        assert self._eval(fixtures, tmp_path, predictions=preds) == EXIT_OK
        plain, got = (json.loads((d / "m.json").read_text())
                      for d in (tmp_path / "plain", tmp_path))
        assert got["per_scenario"] == plain["per_scenario"]

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 10**400, 0, -0.1],
                             ids=["nan", "inf", "-inf", "1e400", "zero", "negative"])
    @pytest.mark.parametrize("target", ["predictions", "scenarios"])
    def test_bad_dt_is_schema_error(self, fixtures, tmp_path, capsys, dt, target):
        if target == "predictions":
            doc = json.loads((fixtures / "predictions_noisy.json").read_text())
            doc["dt"], path = dt, "$.dt"
        else:
            doc = json.loads((fixtures / "scenarios.json").read_text())
            doc["scenarios"][0]["dt"], path = dt, "$.scenarios[0].dt"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert self._eval(fixtures, tmp_path, **{target: bad}) == EXIT_SCHEMA
        assert f"schema error: {path}: " in capsys.readouterr().err

    def test_collapsed_modes_score_zero_aae(self, fixtures, tmp_path):
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        pred = doc["predictions"][0]
        n = len(pred["modes"][0])
        pred["modes"] = [[pred["anchor"]] * n for _ in pred["modes"]]
        collapsed = tmp_path / "collapsed.json"
        collapsed.write_text(json.dumps(doc))
        assert self._eval(fixtures, tmp_path, predictions=collapsed) == EXIT_OK
        out = json.loads((tmp_path / "m.json").read_text())
        values = out["per_scenario"][pred["scenario_id"]]
        assert values["AAE"] == 0.0
        assert values["minASD"] == 0.0

    def test_single_mode_is_data_error(self, fixtures, tmp_path, capsys):
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        pred = doc["predictions"][1]
        pred["modes"] = pred["modes"][:1]
        single = tmp_path / "single.json"
        single.write_text(json.dumps(doc))
        assert self._eval(fixtures, tmp_path, predictions=single) == EXIT_DATA
        err = capsys.readouterr().err
        assert pred["scenario_id"] in err and ">= 2 modes" in err

    def test_dt_mismatch_is_data_error(self, fixtures, tmp_path, capsys):
        """Predictions sampled every 1 s against scenarios sampled every
        0.1 s are refused, naming the first scenario and both steps."""
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        doc["dt"] = 1.0
        bad = tmp_path / "dt.json"
        bad.write_text(json.dumps(doc))
        first = json.loads((fixtures / "scenarios.json").read_text())["scenarios"][0]
        capsys.readouterr()
        assert self._eval(fixtures, tmp_path, predictions=bad) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: scenario {first['id']!r}: prediction dt 1.0 != "
            f"scenario dt {first['dt']}"
        )
        assert not (tmp_path / "m.json").exists()

    def test_missing_tags_is_data_error(self, fixtures, tmp_path):
        empty_tags = tmp_path / "tags.json"
        empty_tags.write_text(json.dumps({"tags": {}}))
        assert main([
            "eval",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_noisy.json"),
            "--tags", str(empty_tags),
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_DATA

    def test_alignment_tail_beyond_the_horizon_names_scenario_and_setting(
            self, fixtures, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alignment": {"tail_steps": 40}}))
        preds = fixtures / "predictions_noisy.json"
        first = min(io.load_scenarios(fixtures / "scenarios.json"),
                    key=lambda r: r.id)
        assert len(first.future) < 40
        capsys.readouterr()
        assert main([
            "eval", "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"), "--predictions", str(preds),
            "--tags", str(fixtures / "tags.json"), "--config", str(config),
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: scenario {first.id!r}: alignment.tail_steps is 40 "
            f"but the horizon has {len(first.future)} points (in {config})\n")
        assert not (tmp_path / "m.json").exists()

    def test_horizon_under_the_default_tail_names_the_predictions(
            self, fixtures, tmp_path, capsys):
        """Under the default ``tail_steps`` a horizon of 2 points is the
        inputs' fault, so the error names the predictions file."""
        scenarios = json.loads((fixtures / "scenarios.json").read_text())
        for rec in scenarios["scenarios"]:
            rec["future"] = rec["future"][:2]
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        for pred in doc["predictions"]:
            pred["modes"] = [mode[:2] for mode in pred["modes"]]
        (tmp_path / "s.json").write_text(json.dumps(scenarios))
        preds = tmp_path / "p.json"
        preds.write_text(json.dumps(doc))
        first = min(r["id"] for r in scenarios["scenarios"])
        capsys.readouterr()
        assert main([
            "eval", "--scenarios", str(tmp_path / "s.json"),
            "--maps", str(fixtures / "map.json"), "--predictions", str(preds),
            "--tags", str(fixtures / "tags.json"), "--out", str(tmp_path / "m.json"),
        ]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: scenario {first!r}: alignment.tail_steps is 3 "
            f"but the horizon has 2 points (in {preds})\n")
        assert not (tmp_path / "m.json").exists()


class TestMapWithoutLanesOrDrivableArea:
    @pytest.mark.parametrize("part", ["lanes", "drivable_area"])
    def test_pipeline_runs(self, tmp_path, part):
        """With no lanes every scenario is CRUISING and every moving mode
        fails alignment; with no drivable area every mode fails the boundary
        test and covers no cell. Either way no mode is admissible."""
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", "--kind", "CROSSROADS", "--n", "3",
                     "--out", str(data)]) == EXIT_OK
        doc = json.loads((data / "map.json").read_text())
        doc[part] = []
        (data / "map.json").write_text(json.dumps(doc))
        inputs = ["--scenarios", str(data / "scenarios.json"),
                  "--maps", str(data / "map.json")]
        preds = sorted(data.glob("predictions_*.json"))
        assert main(["tag", *inputs, "--predictions", *map(str, preds),
                     "--out", str(data / "tags.json")]) == EXIT_OK
        for path in preds:
            assert main(["eval", *inputs, "--predictions", str(path),
                         "--tags", str(data / "tags.json"),
                         "--out", str(out / path.name)]) == EXIT_OK
        assert main(["report", "--metrics", *(str(out / p.name) for p in preds),
                     "--out", str(out / "report")]) == EXIT_OK

        tags = io.load_tags(data / "tags.json")
        align = io.RunConfig().alignment
        moving_modes = 0
        for path in preds:
            run, _ = io.load_metrics(out / path.name)
            sets = io.load_predictions(path)[1]
            assert len(run.per_scenario) == 3
            for sid, result in run.per_scenario.items():
                assert result.values["ATT"] == 0.0
                if part == "drivable_area":
                    assert result.values["DAC"] == result.values["DAO"] == 0.0
                    continue
                assert tags[sid].structure is Structure.CRUISING
                tails = sets[sid].points[:, -align.tail_steps:]
                chords = tails[:, -1] - tails[:, 0]
                moving = (~np.isnan(geom.headings(chords))
                          & (geom.lengths(chords) >= align.stationary_eps))
                assert not np.array(result.triad.alignment_pass)[moving].any()
                moving_modes += int(moving.sum())
        assert part == "drivable_area" or moving_modes > 0


class TestConfig:
    @pytest.mark.parametrize("doc, path", [
        ({"kinematic": {"a_min": math.nan}, "dao": {"cell": math.nan}},
         "$.kinematic.a_min"),
        ({"dao": {"cell": math.inf}}, "$.dao.cell"),
        ({"scenario": {"turn_radius": math.nan}}, "$.scenario.turn_radius"),
        ({"scenario": {"alpha": [0.1, math.nan, 0.45]}}, "$.scenario.alpha[1]"),
        ({"scenario": {"alpha": [0.5, 0.5]}}, "$.scenario.alpha"),
        ({"weights": {"w_hard": True}}, "$.weights.w_hard"),
        ({"alignment": {"stationary_eps": "0.1"}}, "$.alignment.stationary_eps"),
        ({"kinematic": {"window": 3.5}}, "$.kinematic.window"),
        ({"dao": [1, 2]}, "$.dao"),
        ({"dao": {"cell": 1e-9}}, "$.dao.cell"),
        ({"aae_unit": "degs"}, "$.aae_unit"),
        ({"kinematic": {"anchor": [1, 2]}}, "$.kinematic.anchor"),
        ({"kinematic": {"bogus": 1}}, "$.kinematic.bogus"),
        ({"amv_reduction": "X"}, "$.amv_reduction"),
        ({"alignment": {"stationary_policy": "X"}}, "$.alignment.stationary_policy"),
        ({"alignment": {"threshold_lac": 2.0}}, "$.alignment.threshold_lac"),
        ({"alignment": {"stationary_eps": -5}}, "$.alignment.stationary_eps"),
        ({"dao": {"scale": -1}}, "$.dao.scale"),
        ({"kinematic": {"a_min": 5.0}}, "$.kinematic.a_min"),
        ({"scenario": {"beta": 0}}, "$.scenario.beta"),
        ({"dao": {"roi_side": 0}}, "$.dao.roi_side"),
        ({"dao": {"cell": 1.0, "roi_side": 10001}}, "$.dao.cell"),
        ({"weights": {"w_hard": 0, "w_middle": 0, "w_easy": 0}}, "$.weights"),
        ({"kinematc": {"a_min": 1}}, "$.kinematc"),
    ], ids=["nan", "inf", "turn_radius", "alpha", "alpha_length", "bool",
            "string", "float_window", "not_an_object", "tiny_cell", "aae_unit",
            "anchor", "unknown_key", "amv_reduction", "stationary_policy",
            "threshold_lac", "stationary_eps", "scale", "a_min", "beta", "roi_side", "grid_too_fine",
            "zero_weights", "unknown_section"])
    @pytest.mark.parametrize("command", ["tag", "eval"])
    def test_bad_value_is_schema_error(self, fixtures, tmp_path, capsys,
                                       doc, path, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        args = {
            "tag": ["--predictions", str(fixtures / "predictions_noisy.json")],
            "eval": ["--predictions", str(fixtures / "predictions_noisy.json"),
                     "--tags", str(fixtures / "tags.json")],
        }[command]
        assert main([
            command,
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            *args,
            "--config", str(config),
            "--out", str(tmp_path / "out.json"),
        ]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"schema error: {path}: " in err
        assert "Traceback" not in err


class TestReport:
    def test_single_model_all_rank_one(self, fixtures, tmp_path):
        out = tmp_path / "m.json"
        assert main([
            "eval",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_lane_fan.json"),
            "--tags", str(fixtures / "tags.json"),
            "--out", str(out),
        ]) == EXIT_OK
        report_dir = tmp_path / "report"
        assert main([
            "report", "--metrics", str(out), "--out", str(report_dir),
        ]) == EXIT_OK
        rep = json.loads((report_dir / "report.json").read_text())
        for per_metric in rep["overall_ranks"].values():
            assert per_metric == {"lane_fan": 1}

    @pytest.fixture(scope="class")
    def two_models(self, fixtures, tmp_path_factory):
        """Metrics files of the const_vel and noisy models."""
        root = tmp_path_factory.mktemp("two_models")
        paths = []
        for name in ("const_vel", "noisy"):
            paths.append(root / f"metrics_{name}.json")
            assert main([
                "eval", "--scenarios", str(fixtures / "scenarios.json"),
                "--maps", str(fixtures / "map.json"),
                "--predictions", str(fixtures / f"predictions_{name}.json"),
                "--tags", str(fixtures / "tags.json"), "--out", str(paths[-1]),
            ]) == EXIT_OK
        return [str(p) for p in paths]

    def test_category_balance_chart(self, fixtures, two_models, tmp_path):
        """``--category`` draws the balance chart from that category's means."""
        counts = json.loads((fixtures / "tags.json").read_text())["category_counts"]
        category = sorted(counts)[0]
        out = tmp_path / "r"
        assert main(["report", "--metrics", *two_models, "--out", str(out),
                     "--balance", "amv", "--category", category]) == EXIT_OK
        models = json.loads((out / "report.json").read_text())["models"]
        rows = (out / "balance.csv").read_text().splitlines()
        assert rows[0] == "model,AMV,ATT,minFDE"
        assert rows[1:] == [
            f"{m},{v['AMV']:.6f},{v['ATT']:.6f},{v['minFDE']:.6f}"
            for m in ("const_vel", "noisy")
            for v in [models[m]["per_category"][category]]
        ]

    @pytest.mark.parametrize("extra, problem", [
        (["--balance", "aae", "--category", "TURN/HARD/LONGG"],
         "argument --category: invalid choice: 'TURN/HARD/LONGG'"),
        (["--category", "TURN/HARD/LONG"],
         "argument --category: only applies with --balance"),
    ], ids=["unknown_category", "without_balance"])
    def test_category_usage_error(self, two_models, tmp_path, capsys, extra,
                                  problem):
        out = tmp_path / "r"
        capsys.readouterr()
        assert main(["report", "--metrics", *two_models, "--out", str(out),
                     *extra]) == EXIT_USAGE
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_without_scenarios_is_data_error(self, fixtures, tmp_path):
        tags = json.loads((fixtures / "tags.json").read_text())["tags"]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"model": "x", "config": {}, "per_scenario": {},
                                    "tags": tags}))
        assert main([
            "report", "--metrics", str(path), "--out", str(tmp_path / "r"),
        ]) == EXIT_DATA

    def test_metrics_without_tags_is_data_error(self, fixtures, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([
            "eval",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_lane_fan.json"),
            "--tags", str(fixtures / "tags.json"),
            "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["per_scenario"]
        doc["tags"] = {}  # a missing key is a schema error at $.tags
        path = tmp_path / "naked.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([
            "report", "--metrics", str(path), "--out", str(tmp_path / "r"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: tags missing for scenarios: "), err
        assert err.rstrip().endswith(f"(in {path})"), err

    def test_repeated_model_is_data_error(self, fixtures, tmp_path, capsys):
        paths = {}
        for name in ("const_vel", "noisy"):
            paths[name] = tmp_path / f"m_{name}.json"
            assert main([
                "eval",
                "--scenarios", str(fixtures / "scenarios.json"),
                "--maps", str(fixtures / "map.json"),
                "--predictions", str(fixtures / f"predictions_{name}.json"),
                "--tags", str(fixtures / "tags.json"),
                "--out", str(paths[name]),
            ]) == EXIT_OK
        copy = tmp_path / "copy.json"
        copy.write_bytes(paths["const_vel"].read_bytes())
        capsys.readouterr()
        assert main([
            "report", "--metrics", str(paths["const_vel"]), str(copy),
            str(paths["noisy"]), "--out", str(tmp_path / "r"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "'const_vel'" in err
        assert str(paths["const_vel"]) in err and str(copy) in err
        assert not (tmp_path / "r").exists()

    def _eval(self, fixtures, out, model, config=None, scenarios=None, tags=None):
        return main([
            "eval",
            "--scenarios", str(scenarios or fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / f"predictions_{model}.json"),
            "--tags", str(tags or fixtures / "tags.json"),
            *(["--config", str(config)] if config else []),
            "--out", str(out),
        ])

    @pytest.mark.parametrize("mismatch, problem", [
        ("scenarios", "were evaluated on different scenarios"),
        ("tags", "carry different scenario tags"),
    ])
    def test_mixed_scenarios_or_tags_are_data_error(self, fixtures, tmp_path, capsys,
                                                    mismatch, problem):
        """One model scored on half the scenarios, or under another tag for
        one scenario, cannot share a table with a model scored on all of
        them; both files are named."""
        scenarios = json.loads((fixtures / "scenarios.json").read_text())
        tags = json.loads((fixtures / "tags.json").read_text())
        if mismatch == "scenarios":
            scenarios["scenarios"] = scenarios["scenarios"][:2]
        else:
            tag = tags["tags"][scenarios["scenarios"][0]["id"]]
            tag["difficulty"] = "EASY" if tag["difficulty"] == "HARD" else "HARD"
        (tmp_path / "scenarios.json").write_text(json.dumps(scenarios))
        (tmp_path / "tags.json").write_text(json.dumps(tags))
        const_vel, noisy = tmp_path / "m_cv.json", tmp_path / "m_noisy.json"
        assert self._eval(fixtures, const_vel, "const_vel") == EXIT_OK
        assert self._eval(fixtures, noisy, "noisy", scenarios=tmp_path / "scenarios.json",
                          tags=tmp_path / "tags.json") == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--metrics", str(const_vel), str(noisy),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {const_vel} and {noisy} {problem}\n")
        assert not (tmp_path / "r").exists()

    def test_mixed_run_configs_are_data_error(self, fixtures, tmp_path, capsys):
        """Degrees and radians in one table, with the first file's config
        written as the report's, is refused; both files are named."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aae_unit": "rad",
                                      "kinematic": {"a_max": 9.0}}))
        noisy, const_vel = tmp_path / "m_noisy.json", tmp_path / "m_cv.json"
        assert self._eval(fixtures, noisy, "noisy") == EXIT_OK
        assert self._eval(fixtures, const_vel, "const_vel", config) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--metrics", str(noisy), str(const_vel),
                     "--out", str(tmp_path / "r")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(noisy) in err and str(const_vel) in err
        assert not (tmp_path / "r").exists()

    def test_same_config_written_differently_is_accepted(self, fixtures, tmp_path):
        """Configs compare with defaults filled in: an absent section and
        the same section spelled out are one run configuration."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weights": {"w_hard": 1}}))
        paths = [tmp_path / "m_noisy.json", tmp_path / "m_cv.json"]
        assert self._eval(fixtures, paths[0], "noisy") == EXIT_OK
        assert self._eval(fixtures, paths[1], "const_vel", config) == EXIT_OK
        assert main(["report", "--metrics", *map(str, paths),
                     "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_bad_config_in_metrics_names_file_and_path(self, fixtures, tmp_path,
                                                        capsys):
        good = tmp_path / "m.json"
        assert self._eval(fixtures, good, "noisy") == EXIT_OK
        doc = json.loads(good.read_text())
        doc["config"]["aae_unit"] = "degs"
        bad = tmp_path / "m_bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--metrics", str(bad),
                     "--out", str(tmp_path / "r")]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: $.config.aae_unit: ")
        assert err.rstrip().endswith(f"(in {bad})")

    @pytest.mark.parametrize("weights", [
        {"w_middle": 1e308},
        {"w_hard": 1e308, "w_middle": 1e308, "w_easy": 1e308},
        {"w_hard": 1e308, "w_middle": 0.0, "w_easy": 5e-324},
    ], ids=["one_huge", "all_huge", "huge_and_tiny"])
    def test_huge_weights_give_finite_report(self, tmp_path, weights):
        """``load_metrics`` refuses non-finite values, so ``report`` must
        not write them: no weighted sum may overflow."""
        data = tmp_path / "data"
        assert main(["synth", "--kind", "STRAIGHT", "--n", "4", "--modes", "24",
                     "--seed", "0", "--out", str(data)]) == EXIT_OK
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weights": weights}))
        inputs = ["--scenarios", str(data / "scenarios.json"),
                  "--maps", str(data / "map.json")]
        preds = str(data / "predictions_noisy.json")
        assert main(["tag", *inputs, "--predictions", preds,
                     "--out", str(tmp_path / "tags.json")]) == EXIT_OK
        metrics = tmp_path / "m.json"
        assert main(["eval", *inputs, "--predictions", preds,
                     "--tags", str(tmp_path / "tags.json"), "--config", str(config),
                     "--out", str(metrics)]) == EXIT_OK
        out = tmp_path / "r"
        assert main(["report", "--metrics", str(metrics), "--out", str(out),
                     "--balance", "aae"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())

        def finite(value):
            if isinstance(value, dict):
                return all(finite(v) for v in value.values())
            if isinstance(value, list):
                return all(finite(v) for v in value)
            return not isinstance(value, float) or math.isfinite(value)

        assert finite(report)
        assert report["config"]["weights"] == {
            "w_easy": 1.0, "w_hard": 1.0, "w_middle": 1.0, **weights}
        for name in ("balance.csv", "tables.md"):
            assert not re.search(r"\b(inf|nan)\b", (out / name).read_text())

    def test_zero_weights_for_every_present_difficulty_name_the_file(
            self, tmp_path, capsys):
        """A run with no HARD scenario, weighted by HARD alone, has no
        overall: a data error that names the metrics file."""
        data = tmp_path / "data"
        assert main(["synth", "--kind", "STRAIGHT", "--n", "20", "--seed", "0",
                     "--out", str(data)]) == EXIT_OK
        tag_config, eval_config = tmp_path / "tag.json", tmp_path / "eval.json"
        # 0.01 of 20 scenarios rounds to no HARD one
        tag_config.write_text(json.dumps({"scenario": {"alpha": [0.01, 0.49, 0.5]}}))
        eval_config.write_text(json.dumps(
            {"weights": {"w_hard": 1, "w_middle": 0, "w_easy": 0}}))
        inputs = ["--scenarios", str(data / "scenarios.json"),
                  "--maps", str(data / "map.json")]
        preds = str(data / "predictions_noisy.json")
        tags = tmp_path / "tags.json"
        assert main(["tag", *inputs, "--predictions", preds, "--config",
                     str(tag_config), "--out", str(tags)]) == EXIT_OK
        counts = json.loads(tags.read_text())["category_counts"]
        assert not any("/HARD/" in category for category in counts)
        metrics = tmp_path / "m.json"
        assert main(["eval", *inputs, "--predictions", preds, "--tags", str(tags),
                     "--config", str(eval_config), "--out", str(metrics)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["report", "--metrics", str(metrics),
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(
            "data error: weights are 0 for every difficulty present "), err
        assert err.rstrip().endswith(f"(in {metrics})"), err
        assert not out.exists()


# the input documents, each with one fault: the stage that reads it, its
# option, the fixture file it is edited from (None: built by ``_doc``), the
# edit, and the start of the error line
# (edit of a predictions file, problem reported) for a prediction that does
# not fit its scenario
UNFIT_PREDICTIONS = [
    (lambda d: d.update(dt=1.0), "prediction dt 1.0"),
    (lambda d: d["predictions"][0].update(
        modes=[m[:-1] for m in d["predictions"][0]["modes"]]),
     "prediction horizon"),
    (lambda d: d["predictions"][0].update(modes=d["predictions"][0]["modes"][:1]),
     ">= 2 modes"),
]
UNFIT_PREDICTION_IDS = ["dt", "horizon", "one_mode"]

NAMED_FAULTS = {
    "map": ("eval", "--maps", "map.json",
            lambda d: d["lanes"][1]["centerline"].__setitem__(1, [1.0]),
            "schema error: $.lanes[1].centerline[1]: "),
    "flat lane polygon": ("tag", "--maps", "map.json",
                          lambda d: d["lanes"][1].__setitem__(
                              "polygon", [[0, 0], [1, 1], [2, 2]]),
                          "invalid map: lane 'E0t': polygon: degenerate polygon "),
    "directionless centerline": ("eval", "--maps", "map.json",
                                 lambda d: d["lanes"][1].__setitem__(
                                     "centerline", [[0.5, 0.5]] * 3),
                                 "invalid map: lane 'E0t': centerline: polyline has "
                                 "no usable direction "),
    "flat drivable ring": ("eval", "--maps", "map.json",
                           lambda d: d["drivable_area"].__setitem__(
                               0, [[0, 0], [1, 1], [2, 2]]),
                           "invalid map: drivable_area[0]: degenerate polygon "),
    "scenarios": ("tag", "--scenarios", "scenarios.json",
                  lambda d: d["scenarios"][0].__setitem__("dt", 0),
                  "schema error: $.scenarios[0].dt: "),
    "no scenarios to tag": ("tag", "--scenarios", "scenarios.json",
                            lambda d: d["scenarios"].clear(),
                            "schema error: $.scenarios: expected a list of >= 1 "),
    "no scenarios to evaluate": ("eval", "--scenarios", "scenarios.json",
                                 lambda d: d["scenarios"].clear(),
                                 "schema error: $.scenarios: expected a list of "
                                 ">= 1 "),
    "duplicate scenario": ("tag", "--scenarios", "scenarios.json",
                           lambda d: d["scenarios"].append(d["scenarios"][0]),
                           "data error: duplicate scenario id "),
    "predictions": ("eval", "--predictions", "predictions_noisy.json",
                    lambda d: d.__setitem__("dt", math.nan),
                    "schema error: $.dt: "),
    "duplicate prediction": ("eval", "--predictions", "predictions_noisy.json",
                             lambda d: d["predictions"].append(d["predictions"][0]),
                             "data error: duplicate prediction for "),
    "tags": ("eval", "--tags", "tags.json",
             lambda d: next(iter(d["tags"].values())).pop("length"),
             "schema error: $.tags."),
    "metrics": ("report", "--metrics", None,
                lambda d: next(iter(d["per_scenario"].values())).pop("AAE"),
                "schema error: $.per_scenario."),
    "metrics without config": ("report", "--metrics", None,
                               lambda d: d.pop("config"),
                               "schema error: $.config: missing required field "),
    "metrics with null config": ("report", "--metrics", None,
                                 lambda d: d.__setitem__("config", None),
                                 "schema error: $.config: expected an object "),
    "metrics without tags": ("report", "--metrics", None,
                             lambda d: d.pop("tags"),
                             "schema error: $.tags: missing required field "),
    "metrics with no scenarios": ("report", "--metrics", None,
                                  lambda d: d["per_scenario"].clear(),
                                  "data error: model 'noisy': no scenarios to "
                                  "aggregate "),
    "metrics with no tags": ("report", "--metrics", None,
                             lambda d: d["tags"].clear(),
                             "data error: tags missing for scenarios: "),
    "metrics tags missing a scenario": ("report", "--metrics", None,
                                        lambda d: d["tags"].pop(max(d["tags"])),
                                        "data error: tags missing for scenarios: "),
    "tags missing a scenario": ("eval", "--tags", "tags.json",
                                lambda d: d["tags"].pop(max(d["tags"])),
                                "data error: tags missing for scenarios: "),
    "config": ("eval", "--config", None, lambda d: d.__setitem__("dao", [1, 2]),
               "schema error: $.dao: "),
    "minfde": ("tag", "--minfde", None,
               lambda d: next(iter(d["min_fde"].values())).clear(),
               "schema error: $.min_fde."),
    "ragged minfde": ("tag", "--minfde", None,
                      lambda d: next(iter(d["min_fde"].values())).pop(),
                      "data error: scenario "),
    "minfde missing a scenario": ("tag", "--minfde", None,
                                  lambda d: d["min_fde"].pop(min(d["min_fde"])),
                                  "data error: scenarios missing minFDE values: "),
}


class TestErrorsNameTheirFile:
    def _doc(self, fixtures, tmp_path, flag):
        """A valid document of the kind ``flag`` reads that synth does not
        write."""
        if flag == "--config":
            return io.RunConfig().to_dict()
        if flag == "--minfde":
            records = io.load_scenarios(fixtures / "scenarios.json")
            return {"min_fde": {r.id: [1.0, 2.0] for r in records}}
        metrics = tmp_path / "metrics.json"
        assert main([
            "eval", "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_noisy.json"),
            "--tags", str(fixtures / "tags.json"), "--out", str(metrics),
        ]) == EXIT_OK
        return json.loads(metrics.read_text())

    def _run_with(self, fixtures, tmp_path, stage, flag, text):
        """Run ``stage`` with ``text`` as the file given to ``flag`` and the
        fixtures as its other inputs; the exit code, stderr and the file."""
        bad = tmp_path / "bad" / "input.json"
        bad.parent.mkdir()
        bad.write_text(text)
        files = {"--scenarios": fixtures / "scenarios.json",
                 "--maps": fixtures / "map.json"}
        if flag != "--minfde":
            files["--predictions"] = fixtures / "predictions_noisy.json"
        if stage == "eval":
            files["--tags"] = fixtures / "tags.json"
        files = {"--metrics": bad} if stage == "report" else {**files, flag: bad}
        return main([stage, *(a for k, v in files.items() for a in (k, str(v))),
                     "--out", str(tmp_path / "out")]), bad

    @pytest.mark.parametrize("kind", list(NAMED_FAULTS))
    def test_load_error_names_its_file(self, fixtures, tmp_path, capsys, kind):
        stage, flag, source, edit, start = NAMED_FAULTS[kind]
        doc = (json.loads((fixtures / source).read_text()) if source
               else self._doc(fixtures, tmp_path, flag))
        edit(doc)
        capsys.readouterr()
        code, bad = self._run_with(fixtures, tmp_path, stage, flag, json.dumps(doc))
        assert code == (EXIT_DATA if start.startswith("data") else EXIT_SCHEMA)
        err = capsys.readouterr().err
        assert err.startswith(start), err
        assert err.rstrip().endswith(f"(in {bad})"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, flag", [
        ("tag", "--scenarios"), ("tag", "--maps"), ("eval", "--predictions"),
        ("eval", "--tags"), ("report", "--metrics"), ("eval", "--config"),
        ("tag", "--minfde"),
    ])
    def test_deeply_nested_json_is_schema_error(self, fixtures, tmp_path, capsys,
                                                stage, flag):
        """Nesting too deep for the JSON decoder is a schema error at the
        document, not a ``RecursionError``."""
        capsys.readouterr()
        code, bad = self._run_with(fixtures, tmp_path, stage, flag,
                                   "[" * 100_000 + "]" * 100_000)
        assert code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error: $: invalid JSON: nested too deeply"), err
        assert err.rstrip().endswith(f"(in {bad})"), err

    def _unfit_predictions(self, fixtures, tmp_path, edit):
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        edit(doc)
        bad = tmp_path / "predictions_noisy.json"
        bad.write_text(json.dumps(doc))
        return bad

    @pytest.mark.parametrize("edit, problem", UNFIT_PREDICTIONS,
                             ids=UNFIT_PREDICTION_IDS)
    def test_evaluation_error_names_the_predictions_file(self, fixtures, tmp_path,
                                                         capsys, edit, problem):
        """A prediction that does not fit its scenario is found after every
        file has loaded; the error names the predictions file."""
        bad = self._unfit_predictions(fixtures, tmp_path, edit)
        capsys.readouterr()
        assert main([
            "eval", "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(bad),
            "--tags", str(fixtures / "tags.json"), "--out", str(tmp_path / "m.json"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: scenario ") and problem in err, err
        assert err.rstrip().endswith(f"(in {bad})"), err

    @pytest.mark.parametrize("edit, problem", [
        *UNFIT_PREDICTIONS,
        (lambda d: d["predictions"].pop(1), "predictions missing for scenarios"),
    ], ids=[*UNFIT_PREDICTION_IDS, "missing"])
    def test_tag_refuses_what_eval_refuses(self, fixtures, tmp_path, capsys,
                                           edit, problem):
        """``tag --predictions`` holds each file to the checks of ``eval``
        and names the file that fails them; no tags file is written."""
        bad = self._unfit_predictions(fixtures, tmp_path, edit)
        out = tmp_path / "tags.json"
        capsys.readouterr()
        assert main([
            "tag", "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_const_vel.json"), str(bad),
            "--out", str(out),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and problem in err, err
        assert err.rstrip().endswith(f"(in {bad})"), err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["tag", "eval"])
    def test_unknown_map_names_the_scenarios_file(self, fixtures, tmp_path,
                                                  capsys, stage):
        """A scenario naming another map than ``--maps`` holds is an error in
        the scenarios file; the message lists the maps there are."""
        doc = json.loads((fixtures / "scenarios.json").read_text())
        doc["scenarios"][0]["map_id"] = "elsewhere"
        bad = tmp_path / "scenarios.json"
        bad.write_text(json.dumps(doc))
        road = io.load_map(fixtures / "map.json")
        extra = (["--tags", str(fixtures / "tags.json")] if stage == "eval"
                 else [])
        capsys.readouterr()
        assert main([
            stage, "--scenarios", str(bad), "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_noisy.json"), *extra,
            "--out", str(tmp_path / "out.json"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: scenario "), err
        assert (f"unknown map 'elsewhere'; the maps are [{road.map_id!r}]"
                in err), err
        assert err.rstrip().endswith(f"(in {bad})"), err
        assert not (tmp_path / "out.json").exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_other_toolkit_error_is_internal(self, tmp_path, capsys, monkeypatch):
        """A toolkit error of no input-fault kind is a broken invariant."""
        def fail(args):
            raise CriteriaError("invariant broken")
        monkeypatch.setitem(cli._COMMANDS, "synth", fail)
        assert main(["synth", "--out", str(tmp_path / "out")]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: invariant broken\n"
        assert not (tmp_path / "out").exists()

    def test_missing_required_flag(self):
        assert main(["synth"]) == EXIT_USAGE

    def test_missing_input_file(self, tmp_path):
        assert main([
            "tag",
            "--scenarios", str(tmp_path / "nope.json"),
            "--maps", str(tmp_path / "nope.json"),
            "--minfde", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "tags.json"),
        ]) == EXIT_USAGE


class TestParserReuse:
    def test_calls_in_one_process_behave_as_with_a_fresh_parser(
            self, fixtures, tmp_path, capsys):
        """The parser is built on the first call and reused; a usage error
        between two runs leaves nothing behind."""
        metrics = tmp_path / "metrics.json"
        assert main([
            "eval", "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_noisy.json"),
            "--tags", str(fixtures / "tags.json"), "--out", str(metrics),
        ]) == EXIT_OK
        report = ["report", "--metrics", str(metrics), "--balance", "aae"]

        cli._build_parser.cache_clear()
        assert main(["synth", "--kind", "STRAIGHT", "--n", "2", "--modes", "2",
                     "--out", str(tmp_path / "synth")]) == EXIT_OK
        parser = cli._build_parser()
        assert main(["synth"]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
        assert main([*report, "--out", str(tmp_path / "reused")]) == EXIT_OK
        assert cli._build_parser() is parser

        cli._build_parser.cache_clear()
        assert main([*report, "--out", str(tmp_path / "fresh")]) == EXIT_OK
        for path in sorted((tmp_path / "fresh").iterdir()):
            assert (tmp_path / "reused" / path.name).read_bytes() == \
                path.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "a", "--n", "3"],
        ["synth", "--out", "b"],
        ["tag", "--scenarios", "s", "--maps", "m", "--out", "o",
         "--predictions", "p", "q"],
        ["tag", "--scenarios", "s", "--maps", "m", "--out", "o", "--minfde", "t"],
        ["report", "--metrics", "x", "--out", "o", "--balance", "amv"],
        ["report", "--metrics", "x", "--out", "o"],
    ])
    def test_reused_parser_parses_like_a_fresh_one(self, argv):
        fresh = cli._build_parser.__wrapped__()
        assert vars(cli._build_parser().parse_args(argv)) == \
            vars(fresh.parse_args(argv))


class TestUnreadableInput:
    def _tag(self, fixtures, tmp_path, scenarios=None, out=None):
        return main([
            "tag", "--scenarios", str(scenarios or fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_noisy.json"),
            "--out", str(out or tmp_path / "tags.json"),
        ])

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",
        b'{"scenarios": [], "x": "\xe9"}',
        json.dumps({"scenarios": []}).encode("utf-16"),
        json.dumps({"scenarios": []}).encode("utf-32"),
    ], ids=["bad_start", "latin1", "utf16", "utf32"])
    def test_non_utf8_file_is_schema_error(self, fixtures, tmp_path, capsys, data):
        bad = tmp_path / "scenarios.json"
        bad.write_bytes(data)
        assert self._tag(fixtures, tmp_path, scenarios=bad) == EXIT_SCHEMA
        assert "schema error: $: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_metrics_is_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "metrics.json"
        bad.write_bytes(b"\x80")
        assert main(["report", "--metrics", str(bad),
                     "--out", str(tmp_path / "r")]) == EXIT_SCHEMA
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_directory_input_names_its_path(self, fixtures, tmp_path, capsys):
        assert self._tag(fixtures, tmp_path, scenarios=tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:") and str(tmp_path) in err

    def test_directory_out_names_its_path(self, fixtures, tmp_path, capsys):
        out = tmp_path / "tags.json"
        out.mkdir()
        assert self._tag(fixtures, tmp_path, out=out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:") and str(out) in err
        assert [p.name for p in tmp_path.iterdir()] == ["tags.json"]

    def test_file_as_report_dir_names_its_path(self, fixtures, tmp_path, capsys):
        out = tmp_path / "report"
        out.write_text("")
        metrics = tmp_path / "metrics.json"
        assert main([
            "eval", "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--predictions", str(fixtures / "predictions_noisy.json"),
            "--tags", str(fixtures / "tags.json"), "--out", str(metrics),
        ]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--metrics", str(metrics),
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:") and str(out) in err

    def test_too_long_input_names_its_path(self, fixtures, tmp_path, capsys):
        scenarios = tmp_path / ("s" * 5000)
        assert self._tag(fixtures, tmp_path, scenarios=scenarios) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:") and str(scenarios) in err

    def test_too_long_out_names_its_path(self, fixtures, tmp_path, capsys):
        out = tmp_path / ("t" * 5000)
        assert self._tag(fixtures, tmp_path, out=out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:") and str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_symlink_loop_names_its_path(self, fixtures, tmp_path, capsys):
        scenarios, other = tmp_path / "scenarios.json", tmp_path / "other.json"
        scenarios.symlink_to(other)
        other.symlink_to(scenarios)
        assert self._tag(fixtures, tmp_path, scenarios=scenarios) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:") and str(scenarios) in err

    def test_permission_error_names_its_path(self, fixtures, tmp_path, capsys,
                                             monkeypatch):
        """As root every file is readable, so the denial is simulated."""
        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(io, "load_scenarios", denied)
        assert self._tag(fixtures, tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("unusable path:")
        assert str(fixtures / "scenarios.json") in err
