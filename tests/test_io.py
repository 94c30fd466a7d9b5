import json
import math

import numpy as np
import pytest

from criteria import io, synth
from criteria.bench import evaluate_model
from criteria.errors import DataConsistencyError, SchemaError
from criteria.metrics import MAX_DAO_CELLS_PER_SIDE, Reduction, StationaryPolicy
from criteria.scenario import (
    Difficulty,
    LengthClass,
    ScenarioTag,
    Structure,
)

SPEC = synth.SynthSpec(kind=synth.MapKind.STRAIGHT, seed=1, n_scenarios=3)
ROAD = synth.gen_map(SPEC)
RECORDS = synth.gen_scenarios(ROAD, SPEC)
PREDS = [
    synth.toy_predict(synth.PredictorKind.NOISY, r, ROAD, k=4, seed=1)
    for r in RECORDS
]


class TestRunConfig:
    def test_roundtrip(self):
        cfg = io.RunConfig(
            amv_reduction=Reduction.MEAN,
            aae_unit="rad",
        )
        assert io.RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_defaults(self):
        cfg = io.RunConfig.from_dict({})
        assert cfg.alignment.threshold_lac == 0.5
        assert cfg.kinematic.a_min == -2.0
        assert cfg.kinematic.a_max == 1.47
        assert cfg.scenario.alpha == (0.10, 0.45, 0.45)
        assert cfg.scenario.beta == 28.8
        assert cfg.alignment.stationary_policy is StationaryPolicy.PASS

    def test_partial_override(self):
        cfg = io.RunConfig.from_dict({"kinematic": {"a_max": 2.0}})
        assert cfg.kinematic.a_max == 2.0
        assert cfg.kinematic.a_min == -2.0

    def test_bad_value_is_schema_error(self):
        with pytest.raises(SchemaError):
            io.RunConfig.from_dict({"amv_reduction": "MEDIAN"})

    def test_integer_overrides_of_floats_accepted(self):
        cfg = io.RunConfig.from_dict(
            {"scenario": {"turn_radius": 50}, "dao": {"cell": 1}}
        )
        assert cfg.scenario.turn_radius == 50
        assert cfg.dao.cell == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, 10**400, True, "1"])
    def test_non_finite_number_names_its_path(self, value):
        with pytest.raises(SchemaError) as e:
            io.RunConfig.from_dict({"weights": {"w_easy": value}})
        assert e.value.path == "$.weights.w_easy"


    @pytest.mark.parametrize("dao", [
        {"cell": 1.0, "roi_side": float(MAX_DAO_CELLS_PER_SIDE)},
        {"cell": 100.0 / MAX_DAO_CELLS_PER_SIDE},
    ])
    def test_dao_grid_at_the_cap(self, dao):
        cfg = io.RunConfig.from_dict({"dao": dao})
        assert cfg.dao.cells_per_side == MAX_DAO_CELLS_PER_SIDE

    @pytest.mark.parametrize("dao", [
        {"cell": 1.0, "roi_side": MAX_DAO_CELLS_PER_SIDE + 1.0},
        {"cell": math.nextafter(100.0 / MAX_DAO_CELLS_PER_SIDE, 0.0)},
        {"cell": 1e-9},
        {"cell": 5e-324},
    ], ids=["one_cell_more", "one_ulp_smaller", "tiny", "subnormal"])
    def test_dao_grid_past_the_cap_names_the_cell(self, dao):
        with pytest.raises(SchemaError) as e:
            io.RunConfig.from_dict({"dao": dao})
        assert e.value.path == "$.dao.cell"
        assert "cell too small" in str(e.value)

    def test_dao_roi_side_must_be_positive(self):
        with pytest.raises(SchemaError) as e:
            io.RunConfig.from_dict({"dao": {"roi_side": 0.0}})
        assert e.value.path == "$"


class TestMapIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "map.json"
        io.save_map(path, ROAD)
        loaded = io.load_map(path)
        assert loaded.map_id == ROAD.map_id
        assert sorted(loaded.lanes) == sorted(ROAD.lanes)
        for lane_id, lane in ROAD.lanes.items():
            other = loaded.lanes[lane_id]
            assert np.array_equal(other.centerline, lane.centerline)
            assert other.turn is lane.turn
            assert other.successors == lane.successors

    def test_missing_field_path(self, tmp_path):
        doc = io.map_to_dict(ROAD)
        del doc["lanes"][1]["centerline"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            io.load_map(path)
        assert "lanes[1]" in str(e.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        with pytest.raises(SchemaError):
            io.load_map(path)

    @pytest.mark.parametrize("key,value,where", [
        ("successors", [[1]], "$.lanes[0].successors[0]"),
        ("successors", "L1", "$.lanes[0].successors"),
        ("left_neighbor", 5, "$.lanes[0].left_neighbor"),
        ("right_neighbor", ["L1"], "$.lanes[0].right_neighbor"),
    ])
    def test_bad_lane_reference_names_path(self, key, value, where):
        doc = io.map_to_dict(ROAD)
        doc["lanes"][0][key] = value
        with pytest.raises(SchemaError) as e:
            io.map_from_dict(doc)
        assert e.value.path == where


class TestScenarioIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scen.json"
        io.save_scenarios(path, RECORDS)
        loaded = io.load_scenarios(path)
        assert [r.id for r in loaded] == [r.id for r in RECORDS]
        for a, b in zip(loaded, RECORDS):
            assert np.array_equal(a.past.points, b.past.points)
            assert np.array_equal(a.future.points, b.future.points)
            assert a.dt == b.dt

    def test_duplicate_id_rejected(self, tmp_path):
        doc = io.scenarios_to_dict(RECORDS)
        doc["scenarios"].append(doc["scenarios"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataConsistencyError):
            io.load_scenarios(path)

    def test_bad_coordinate_names_path(self, tmp_path):
        doc = io.scenarios_to_dict(RECORDS)
        doc["scenarios"][0]["future"][3] = [1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            io.load_scenarios(path)
        assert "scenarios[0].future[3]" in str(e.value)

    @pytest.mark.parametrize(
        "pair",
        [[True, 1.0], ["1.0", 2.0], [1.0, None], [1.0, [2.0]], [1.0, 2.0, 3.0],
         [float("nan"), 0.0], [0.0, float("-inf")], [10**400, 0.0]],
    )
    def test_bad_coordinate_values_name_path(self, tmp_path, pair):
        doc = io.scenarios_to_dict(RECORDS)
        doc["scenarios"][0]["past"][5] = pair
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            io.load_scenarios(path)
        assert "scenarios[0].past[5]" in str(e.value)

    def test_int_coordinates_load_as_floats(self, tmp_path):
        doc = io.scenarios_to_dict(RECORDS)
        doc["scenarios"][0]["past"][5] = [3, -4]
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        past = io.load_scenarios(path)[0].past.points
        assert past.dtype == float and past[5].tolist() == [3.0, -4.0]


class TestPredictionIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pred.json"
        io.save_predictions(path, "noisy", SPEC.dt, PREDS)
        model, loaded = io.load_predictions(path)
        assert model == "noisy"
        assert sorted(loaded) == sorted(p.scenario_id for p in PREDS)
        for p in PREDS:
            other = loaded[p.scenario_id]
            assert np.allclose(other.anchor, p.anchor)
            for m1, m2 in zip(other.modes, p.modes):
                assert np.allclose(m1.points, m2.points)

    def test_ragged_modes_names_prediction(self, tmp_path):
        doc = io.predictions_to_dict("m", SPEC.dt, PREDS)
        doc["predictions"][1]["modes"][2] = doc["predictions"][1]["modes"][2][:5]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            io.load_predictions(path)
        assert "predictions[1].modes" in str(e.value)

    def test_duplicate_scenario_rejected(self, tmp_path):
        doc = io.predictions_to_dict("m", SPEC.dt, PREDS)
        doc["predictions"].append(doc["predictions"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataConsistencyError):
            io.load_predictions(path)

    def test_empty_modes_rejected(self, tmp_path):
        doc = io.predictions_to_dict("m", SPEC.dt, PREDS)
        doc["predictions"][0]["modes"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            io.load_predictions(path)


class TestTagsIO:
    def test_roundtrip(self, tmp_path):
        tags = {
            "s0": ScenarioTag(Structure.TURN, Difficulty.HARD, LengthClass.LONG),
            "s1": ScenarioTag(
                Structure.CRUISING, Difficulty.EASY, LengthClass.SHORT
            ),
        }
        path = tmp_path / "tags.json"
        io.write_json(
            path,
            io.tags_to_dict(tags, {"TURN/HARD/LONG": 1, "CRUISING/EASY/SHORT": 1},
                            io.RunConfig(), {}),
        )
        assert io.load_tags(path) == tags

    def test_unknown_enum_is_schema_error(self, tmp_path):
        path = tmp_path / "tags.json"
        path.write_text(json.dumps({
            "tags": {"s0": {"structure": "DIAGONAL", "difficulty": "HARD",
                            "length": "LONG"}},
        }))
        with pytest.raises(SchemaError):
            io.load_tags(path)


class TestMetricsIO:
    def test_roundtrip(self, tmp_path):
        run = evaluate_model(
            "noisy", RECORDS, {ROAD.map_id: ROAD},
            {p.scenario_id: p for p in PREDS},
        )
        tags = {
            r.id: ScenarioTag(
                Structure.CRUISING, Difficulty.MIDDLE, LengthClass.LONG
            )
            for r in RECORDS
        }
        path = tmp_path / "metrics.json"
        io.write_json(
            path, io.metrics_to_dict(run, io.RunConfig(), {}, tags)
        )
        loaded, loaded_tags = io.load_metrics(path)
        assert loaded.model_name == "noisy"
        assert loaded_tags == tags
        assert sorted(loaded.per_scenario) == sorted(run.per_scenario)
        for sid, result in run.per_scenario.items():
            other = loaded.per_scenario[sid]
            assert other.values == pytest.approx(result.values)
            assert other.triad == result.triad

    @pytest.mark.parametrize("edit,where", [
        (lambda s: s["triad"].pop("boundary_pass"), ".triad.boundary_pass"),
        (lambda s: s["triad"].update(kinematic_pass=[1, 0, 1, 1]),
         ".triad.kinematic_pass[0]"),
        (lambda s: s["triad"].update(alignment_pass=[True]), ".triad"),
        (lambda s: s["triad"].update(boundary_pass=[], alignment_pass=[],
                                     kinematic_pass=[]), ".triad"),
        (lambda s: s.update(triad=5), ".triad"),
        (lambda s: s.update(minADE="x"), ".minADE"),
        (lambda s: s.update(DAO=math.nan), ".DAO"),
        (lambda s: s.pop("AAE"), ".AAE"),
        (lambda s: s.update(extra=None), ".extra"),
    ])
    def test_bad_scenario_result_names_path(self, edit, where):
        run = evaluate_model(
            "noisy", RECORDS, {ROAD.map_id: ROAD},
            {p.scenario_id: p for p in PREDS},
        )
        doc = json.loads(json.dumps(io.metrics_to_dict(run, io.RunConfig(), {})))
        sid = RECORDS[0].id
        edit(doc["per_scenario"][sid])
        with pytest.raises(SchemaError) as e:
            io.metrics_from_dict(doc)
        assert e.value.path == f"$.per_scenario.{sid}{where}"


class TestWriteJson:
    def test_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "doc.json"
        io.write_json(path, {"b": 1, "a": np.float64(2.0)})
        text = path.read_text()
        assert text == '{\n  "a": 2.0,\n  "b": 1\n}\n'

    def test_deterministic_bytes(self, tmp_path):
        doc = io.map_to_dict(ROAD)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        io.write_json(p1, doc)
        io.write_json(p2, doc)
        assert p1.read_bytes() == p2.read_bytes()
