import json
import math

import pytest

from criteria import io
from criteria.cli import (
    EXIT_DATA,
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

    def test_no_score_source_is_data_error(self, fixtures, tmp_path):
        assert main([
            "tag",
            "--scenarios", str(fixtures / "scenarios.json"),
            "--maps", str(fixtures / "map.json"),
            "--out", str(tmp_path / "tags.json"),
        ]) == EXIT_DATA


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

    @pytest.mark.parametrize("probs, path", [
        ([math.nan] * 6, "$.predictions[0].probabilities[0]"),
        ([0.2, math.nan, 0.2, 0.2, 0.2, 0.2], "$.predictions[0].probabilities[1]"),
        ([math.inf, 0.0, 0.0, 0.0, 0.0, 0.0], "$.predictions[0].probabilities[0]"),
        ([0.5, -0.25, 0.25, 0.25, 0.125, 0.125],
         "$.predictions[0].probabilities[1]"),
        ([0.5, "0.1", 0.1, 0.1, 0.1, 0.1], "$.predictions[0].probabilities[1]"),
        ([0.5, 0.1, 0.1, 0.1, 0.1, True], "$.predictions[0].probabilities[5]"),
        ([0.5] * 6, "$.predictions[0].probabilities"),
        ([0.5, 0.5], "$.predictions[0].probabilities"),
        ("uniform", "$.predictions[0].probabilities"),
    ], ids=["nan", "one_nan", "inf", "negative", "string", "bool", "bad_sum",
            "short", "not_a_list"])
    def test_bad_probabilities_are_schema_errors(
        self, fixtures, tmp_path, capsys, probs, path
    ):
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        assert len(doc["predictions"][0]["modes"]) == 6
        doc["predictions"][0]["probabilities"] = probs
        bad = tmp_path / "bad_preds.json"
        bad.write_text(json.dumps(doc))  # json writes the bare tokens NaN, Infinity
        assert self._eval(fixtures, tmp_path, predictions=bad) == EXIT_SCHEMA
        assert f"schema error: {path}: " in capsys.readouterr().err

    def test_valid_probabilities_accepted(self, fixtures, tmp_path):
        doc = json.loads((fixtures / "predictions_noisy.json").read_text())
        for pred in doc["predictions"]:
            pred["probabilities"] = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
        good = tmp_path / "preds.json"
        good.write_text(json.dumps(doc))
        assert self._eval(fixtures, tmp_path, predictions=good) == EXIT_OK

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
    ], ids=["nan", "inf", "turn_radius", "alpha", "alpha_length", "bool",
            "string", "float_window", "not_an_object", "tiny_cell"])
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

    def test_metrics_without_scenarios_is_data_error(self, fixtures, tmp_path):
        tags = json.loads((fixtures / "tags.json").read_text())["tags"]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"model": "x", "per_scenario": {}, "tags": tags}))
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
        del doc["tags"]
        path = tmp_path / "naked.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([
            "report", "--metrics", str(path), "--out", str(tmp_path / "r"),
        ]) == EXIT_DATA
        assert "carries no scenario tags" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

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
