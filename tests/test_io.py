import json
import math
from dataclasses import fields
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from criteria import io, synth
from criteria.bench import evaluate_model
from criteria.errors import (
    CriteriaError,
    DataConsistencyError,
    InvalidMapError,
    SchemaError,
    SettingError,
)
from criteria.geom import COORD_LIMIT
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
# [x, y] pairs that are not two finite numbers within COORD_LIMIT of 0; a
# bool shares an array with floats as 1.0 or 0.0 and with ints as 1 or 0, so
# it needs its own check
BAD_PAIRS = [
    [True, 1.0], ["1.0", 2.0], [1.0, None], [1.0, [2.0]], [1.0, 2.0, 3.0],
    [float("nan"), 0.0], [0.0, float("-inf")], [10**400, 0.0],
    [1, True], [False, 2.5], [0, False], [True, False],
    [2e150, 0.0], [0.0, -(10**151)], [1e200, 1e200],
]


# each config dataclass of a run configuration with each of its float
# settings and their defaults; a tuple of floats is one setting
FLOAT_SETTINGS = [
    (type(section), f.name, getattr(section, f.name))
    for section in (getattr(io.RunConfig(), s.name) for s in fields(io.RunConfig))
    if not isinstance(section, Enum)
    for f in fields(section)
    if isinstance(getattr(section, f.name), (float, tuple))
]


@pytest.mark.parametrize("cls, name, default", FLOAT_SETTINGS,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in FLOAT_SETTINGS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_setting_is_refused(cls, name, default, bad):
    """A library caller gets the check that the JSON reader makes."""
    value = (bad, *default[1:]) if isinstance(default, tuple) else bad
    with pytest.raises(SettingError, match=f"^{name} must be finite$") as e:
        cls(**{name: value})
    assert e.value.keys == (name,)


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

    @pytest.mark.parametrize("section", ["kinematic", "alignment", "dao",
                                         "scenario", "weights"])
    @pytest.mark.parametrize("key", ["anchor", "bogus"])
    def test_unknown_setting_names_its_path(self, section, key):
        with pytest.raises(SchemaError) as e:
            io.RunConfig.from_dict({section: {key: [1, 2]}})
        assert e.value.path == f"$.{section}.{key}"

    @pytest.mark.parametrize("doc, path", [
        ({"amv_reduction": "MEDIAN"}, "$.amv_reduction"),
        ({"amv_reduction": ["SUM"]}, "$.amv_reduction"),
        ({"alignment": {"stationary_policy": "SKIP"}}, "$.alignment.stationary_policy"),
        ({"alignment": {"stationary_policy": None}}, "$.alignment.stationary_policy"),
    ])
    def test_bad_choice_names_its_path(self, doc, path):
        with pytest.raises(SchemaError) as e:
            io.RunConfig.from_dict(doc)
        assert e.value.path == path

    @pytest.mark.parametrize("unit", ["deg", "rad"])
    def test_aae_unit_accepted(self, unit):
        assert io.RunConfig.from_dict({"aae_unit": unit}).aae_unit == unit

    @pytest.mark.parametrize("unit", ["degs", "DEG", 5, None, [1], True])
    def test_bad_aae_unit_names_its_path(self, unit):
        with pytest.raises(SchemaError) as e:
            io.RunConfig.from_dict({"aae_unit": unit})
        assert e.value.path == "$.aae_unit"

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
        assert e.value.path == "$.dao.roi_side"


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


    @pytest.mark.parametrize("turn", ["UP", "left", None, 1])
    def test_unknown_turn_names_its_path(self, turn):
        doc = io.map_to_dict(ROAD)
        doc["lanes"][1]["turn"] = turn
        with pytest.raises(SchemaError) as e:
            io.map_from_dict(doc)
        assert str(e.value) == f"$.lanes[1].turn: unknown turn kind {turn!r}"


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

    @pytest.mark.parametrize("pair", BAD_PAIRS)
    def test_bad_coordinate_values_name_path(self, tmp_path, pair):
        doc = io.scenarios_to_dict(RECORDS)
        doc["scenarios"][0]["past"][5] = pair
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            io.load_scenarios(path)
        assert "scenarios[0].past[5]" in str(e.value)

    def test_coordinates_at_the_limit_load(self, tmp_path):
        doc = io.scenarios_to_dict(RECORDS)
        doc["scenarios"][0]["past"][5] = [COORD_LIMIT, -COORD_LIMIT]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        past = io.load_scenarios(path)[0].past.points
        assert past[5].tolist() == [COORD_LIMIT, -COORD_LIMIT]

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
        io.save_predictions(path, "noisy", synth.DT, PREDS)
        model, loaded = io.load_predictions(path)
        assert model == "noisy"
        assert sorted(loaded) == sorted(p.scenario_id for p in PREDS)
        for p in PREDS:
            other = loaded[p.scenario_id]
            assert np.allclose(other.anchor, p.anchor)
            for m1, m2 in zip(other.modes, p.modes):
                assert np.allclose(m1.points, m2.points)

    def test_ragged_modes_names_prediction(self, tmp_path):
        doc = io.predictions_to_dict("m", synth.DT, PREDS)
        doc["predictions"][1]["modes"][2] = doc["predictions"][1]["modes"][2][:5]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as e:
            io.load_predictions(path)
        assert "predictions[1].modes" in str(e.value)

    def test_duplicate_scenario_rejected(self, tmp_path):
        doc = io.predictions_to_dict("m", synth.DT, PREDS)
        doc["predictions"].append(doc["predictions"][0])
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataConsistencyError):
            io.load_predictions(path)

    def test_empty_modes_rejected(self, tmp_path):
        doc = io.predictions_to_dict("m", synth.DT, PREDS)
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
        with pytest.raises(SchemaError) as e:
            io.load_tags(path)
        assert str(e.value).startswith(
            "$.tags.s0.structure: unknown structure 'DIAGONAL' (in ")


class TestMetricsIO:
    def test_roundtrip(self, tmp_path):
        run = evaluate_model(
            "noisy", RECORDS, {ROAD.map_id: ROAD},
            {p.scenario_id: p for p in PREDS}, io.RunConfig(),
        )
        tags = {
            r.id: ScenarioTag(
                Structure.CRUISING, Difficulty.MIDDLE, LengthClass.LONG
            )
            for r in RECORDS
        }
        path = tmp_path / "metrics.json"
        io.write_json(
            path, io.metrics_to_dict(run, {}, tags)
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
            {p.scenario_id: p for p in PREDS}, io.RunConfig(),
        )
        doc = json.loads(json.dumps(io.metrics_to_dict(run, {}, {})))
        sid = RECORDS[0].id
        edit(doc["per_scenario"][sid])
        with pytest.raises(SchemaError) as e:
            io.metrics_from_dict(doc)
        assert e.value.path == f"$.per_scenario.{sid}{where}"


class _Encoder(json.JSONEncoder):
    """The encoder ``io.write_json`` passed to ``json.dump`` before it had
    its own emitter; the emitter must write the same bytes."""

    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        return super().default(o)


def reference_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, cls=_Encoder) + "\n").encode()


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 0.1,
                     1e16, 1e-7, 1.7976931348623157e308, math.nan, math.inf,
                     -math.inf]),
)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "é", "\ud800", "\u2028", '"\\\n\t\x00\x7f', "\U0001f600"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(2**70), 2**70),
                    FLOATS, STRINGS)
# coordinate blocks as the emitter's fast path takes them, and lists that are
# nearly blocks: ragged or empty rows, or a NaN, an int, a bool or an
# np.float64 among the floats
NEAR_FLOATS = st.one_of(FINITE_FLOATS, FINITE_FLOATS, FINITE_FLOATS, FLOATS,
                        st.integers(-3, 3), st.booleans(),
                        st.builds(np.float64, FLOATS))
BLOCKS = st.one_of(
    st.lists(FINITE_FLOATS, min_size=1, max_size=6),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(FINITE_FLOATS, min_size=n, max_size=n), min_size=1, max_size=5)),
    st.lists(NEAR_FLOATS, max_size=6),
    st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(NEAR_FLOATS, min_size=n, max_size=n), min_size=1, max_size=4)),
    st.lists(st.lists(FINITE_FLOATS, max_size=3), max_size=4),
    st.lists(st.tuples(FINITE_FLOATS, FINITE_FLOATS), min_size=1, max_size=3),
)
NUMPY = st.one_of(
    st.builds(np.float64, FLOATS),
    st.builds(np.float32, FINITE_FLOATS.filter(lambda x: abs(x) < 1e38)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.lists(FLOATS, max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(FINITE_FLOATS, max_size=6).map(lambda v: np.array(v).reshape(-1, 1)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, BLOCKS, NUMPY),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=12,
)


class TestWriteJson:
    @given(DOCUMENTS)
    def test_bytes_equal_json_dump(self, tmp_path_factory, doc):
        """The emitter writes what ``json.dump`` with ``indent=2``, sorted
        keys and the old encoder wrote, byte for byte."""
        path = tmp_path_factory.getbasetemp() / "writer" / "doc.json"
        io.write_json(path, doc)
        assert path.read_bytes() == reference_json(doc)

    @pytest.mark.parametrize("doc", [
        {1: "a", 2.5: "b"}, {True: 0, False: 1}, {None: 1},
        {"a": {-0.0: [], math.inf: {}}},
    ], ids=["int_float", "bool", "null", "nested"])
    def test_non_string_keys_as_json_writes_them(self, tmp_path, doc):
        io.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == reference_json(doc)

    @pytest.mark.parametrize("doc", [
        [object()], {"a": {1, 2}}, np.bool_(True), {(1, 2): 0}, {"a": 1, 2: 3},
    ], ids=["object", "set", "numpy_bool", "tuple_key", "mixed_keys"])
    def test_unwritable_value_raises_type_error_and_leaves_no_file(self, tmp_path, doc):
        with pytest.raises(TypeError):
            reference_json(doc)
        with pytest.raises(TypeError):
            io.write_json(tmp_path / "doc.json", doc)
        assert list(tmp_path.iterdir()) == []

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


def reference_coords(value, path: str, min_len: int) -> np.ndarray:
    """The per-pair walk that read every coordinate block before the array
    parse; ``coords`` must decide, read and name errors as it does."""
    if not isinstance(value, list) or len(value) < min_len:
        raise SchemaError(path, f"expected a list of >= {min_len} [x, y] pairs")
    for i, pt in enumerate(value):
        if (
            not isinstance(pt, list)
            or len(pt) != 2
            or not all(io._finite_number(c) for c in pt)
        ):
            raise SchemaError(
                f"{path}[{i}]", "expected an [x, y] pair of finite numbers"
            )
        if not all(abs(c) <= COORD_LIMIT for c in pt):
            raise SchemaError(
                f"{path}[{i}]", f"expected an [x, y] pair within {COORD_LIMIT:g} m "
                "of the origin"
            )
    return np.asarray(value, dtype=float)


def reference_modes(modes: list, path: str) -> np.ndarray:
    """A prediction's modes read one by one with ``reference_coords``."""
    pts = [reference_coords(m, f"{path}[{k}]", 2) for k, m in enumerate(modes)]
    if len({len(p) for p in pts}) > 1:
        raise SchemaError(path, "ragged modes array")
    return np.stack(pts)


def coords(value, path: str, min_len: int) -> np.ndarray:
    """A list of at least ``min_len`` pairs, read as a walk over that one
    block."""
    return io._Walk().read(io._Block(min_len), value, path)[1][0]


def outcome(f, *args):
    """What ``f(*args)`` gives: its array's dtype, shape and bytes (so -0.0
    and 0.0 differ), or its schema error."""
    try:
        arr = f(*args)
    except SchemaError as e:
        return "error", str(e)
    return arr.dtype, arr.shape, arr.tobytes()


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, 0.0, 1.0, -0.0, 2**63, 2**64, -(2**63) - 1, 10**400]),
)
LEAVES = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=2))
FINITE = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3))
GOOD_PAIRS = st.lists(FINITE, min_size=2, max_size=2)
# pairs that may hide one bad leaf among good ones
NEAR_PAIRS = st.lists(st.one_of(FINITE, LEAVES), min_size=2, max_size=2)
PAIRS = st.one_of(
    GOOD_PAIRS,
    NEAR_PAIRS,
    st.lists(LEAVES, max_size=3),
    st.lists(st.lists(NUMBERS, max_size=2), min_size=2, max_size=2),
    LEAVES,
)
BLOCKS = st.one_of(
    st.lists(GOOD_PAIRS, max_size=5),
    st.lists(st.one_of(GOOD_PAIRS, GOOD_PAIRS, NEAR_PAIRS), max_size=5),
    st.lists(PAIRS, max_size=5),
)


def _put(doc, keys: tuple, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


# one place of each kind of coordinate block: the document, the keys of one
# pair in it, and the JSON path that names that pair
PAIR_PLACES = {
    "scenario past": ("scenarios", ("scenarios", 0, "past", 5),
                      "$.scenarios[0].past[5]"),
    "scenario future": ("scenarios", ("scenarios", 2, "future", 0),
                        "$.scenarios[2].future[0]"),
    "prediction mode": ("predictions", ("predictions", 1, "modes", 2, 3),
                        "$.predictions[1].modes[2][3]"),
    "anchor": ("predictions", ("predictions", 0, "anchor"),
               "$.predictions[0].anchor[0]"),
    "lane centerline": ("map", ("lanes", 1, "centerline", 1),
                        "$.lanes[1].centerline[1]"),
    "lane polygon": ("map", ("lanes", 0, "polygon", 2), "$.lanes[0].polygon[2]"),
    "drivable ring": ("map", ("drivable_area", 0, 1), "$.drivable_area[0][1]"),
}
TAGS = {f"s{i}": ScenarioTag(Structure.TURN, Difficulty.HARD, LengthClass.LONG)
        for i in range(3)}


def _metrics_doc() -> dict:
    """A metrics document of the scenarios ``s0``, ``s1`` and ``s2``."""
    run = evaluate_model("noisy", RECORDS, {ROAD.map_id: ROAD},
                         {p.scenario_id: p for p in PREDS}, io.RunConfig())
    run.per_scenario = dict(zip(TAGS, run.per_scenario.values()))
    return io.metrics_to_dict(run, {}, TAGS)


DOCS = {
    "tags": (lambda: io.tags_to_dict(TAGS, {}, io.RunConfig(), {}), io.tags_from_dict),
    "metrics": (_metrics_doc, io.metrics_from_dict),
    "scenarios": (lambda: io.scenarios_to_dict(RECORDS), io.scenarios_from_dict),
    "predictions": (lambda: io.predictions_to_dict("m", synth.DT, PREDS),
                    io.predictions_from_dict),
    "map": (lambda: io.map_to_dict(ROAD), io.map_from_dict),
}


def _json(doc):
    """``doc`` as ``json.load`` gives it back: Python ints, floats, bools."""
    return json.loads(json.dumps(doc))


class TestCoordinateBlocks:
    @pytest.mark.parametrize("place", list(PAIR_PLACES))
    @pytest.mark.parametrize("pair", BAD_PAIRS)
    def test_bad_pair_names_its_path(self, place, pair):
        kind, keys, where = PAIR_PLACES[place]
        make, load = DOCS[kind]
        doc = make()
        _put(doc, keys, pair)
        with pytest.raises(SchemaError) as e:
            load(_json(doc))
        assert e.value.path == where

    def test_integers_beyond_int64_read_pair_by_pair(self):
        """``np.array`` makes an object array of them, so the array parse
        rejects the block; each still converts to a finite float."""
        block = [[2**64, 1], [-(2**63) - 1, 0.5]]
        assert io._number_array(block) is None
        assert coords(block, "$", 2).tolist() == [[2.0**64, 1.0], [-(2.0**63), 0.5]]

    @given(BLOCKS, st.integers(1, 3))
    def test_coords_match_the_per_pair_walk(self, block, min_len):
        want = outcome(reference_coords, block, "$.b", min_len)
        assert outcome(coords, block, "$.b", min_len) == want
        arr = io._number_array(block)
        if arr is not None:  # it may reject a good block, never take a bad one
            assert outcome(lambda: arr) == outcome(reference_coords, block, "$.b", 0)

    @given(st.lists(BLOCKS, min_size=1, max_size=4))
    def test_modes_block_matches_the_per_mode_walk(self, modes):
        doc = io.predictions_to_dict("m", synth.DT, PREDS[:1])
        doc["predictions"][0]["modes"] = modes
        want = outcome(reference_modes, modes, "$.predictions[0].modes")
        if want[0] == "error":
            with pytest.raises(SchemaError) as e:
                io.predictions_from_dict(doc)
            assert ("error", str(e.value)) == want
        else:
            _, preds = io.predictions_from_dict(doc)
            assert outcome(lambda: preds["s0000"].points) == want

    def test_a_predictions_file_is_one_array_call(self, tmp_path):
        path = tmp_path / "predictions.json"
        io.save_predictions(path, "m", synth.DT, PREDS)
        with mock.patch.object(io, "_number_array", wraps=io._number_array) as call:
            _, preds = io.load_predictions(path)
        assert call.call_count == 1
        for p in PREDS:
            got = preds[p.scenario_id]
            assert got.points.tobytes() == p.points.tobytes()
            assert got.anchor.tobytes() == p.anchor.tobytes()

    @given(st.sampled_from(list(PAIR_PLACES)), PAIRS)
    def test_one_array_call_matches_the_block_walk(self, place, pair):
        """A document loads the same, or fails with the same error, whether
        its blocks are parsed by one array call or block by block: the walk's
        path when that call rejects them, taken here for every document."""
        kind, keys, _ = PAIR_PLACES[place]
        make, load = DOCS[kind]
        doc = make()
        _put(doc, keys, pair)
        got = _load_outcome(load, doc)
        with mock.patch.object(io, "_number_array", lambda pairs: None):
            assert _load_outcome(load, doc) == got


def _load_outcome(load, doc):
    try:
        loaded = load(doc)
    except CriteriaError as e:  # a bad value can also make a degenerate map
        return type(e).__name__, str(e)
    if isinstance(loaded, list):  # scenario records
        return [(r.id, r.past.points.tobytes(), r.future.points.tobytes())
                for r in loaded]
    if isinstance(loaded, tuple):  # model and prediction sets
        return [(sid, p.anchor.tobytes(), p.points.tobytes())
                for sid, p in loaded[1].items()]
    return json.dumps(io.map_to_dict(loaded))


DROP = object()


def _faults(doc, edits):
    """``doc`` with each ``(keys, value)`` of ``edits`` applied; the value
    ``DROP`` deletes the key."""
    for keys, value in edits:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    return doc


BAD = [True, 1.0]
# two faults in one document, and the path of the first in document order:
# a bad pair before a missing field, and a missing field before a bad pair
FAULT_ORDERS = {
    "map: pair, then missing field": (
        "map", [(("lanes", 0, "centerline", 1), BAD), (("lanes", 2, "id"), DROP)],
        "$.lanes[0].centerline[1]"),
    "map: pair, then missing field of its lane": (
        "map", [(("lanes", 1, "polygon", 0), BAD),
                (("lanes", 1, "is_intersection"), DROP)],
        "$.lanes[1].polygon[0]"),
    "map: missing field, then pair": (
        "map", [(("lanes", 0, "successors"), DROP),
                (("lanes", 1, "centerline", 0), BAD)],
        "$.lanes[0].successors"),
    "map: missing field, then ring pair": (
        "map", [(("lanes", 2, "turn"), DROP), (("drivable_area", 0, 1), BAD)],
        "$.lanes[2].turn"),
    "scenarios: pair, then missing field": (
        "scenarios", [(("scenarios", 0, "past", 5), BAD),
                      (("scenarios", 1, "agent_id"), DROP)],
        "$.scenarios[0].past[5]"),
    "scenarios: missing field, then pair": (
        "scenarios", [(("scenarios", 0, "future"), DROP),
                      (("scenarios", 1, "past", 0), BAD)],
        "$.scenarios[0].future"),
    "predictions: anchor pair, then missing field": (
        "predictions", [(("predictions", 0, "anchor"), BAD),
                        (("predictions", 1, "modes"), DROP)],
        "$.predictions[0].anchor[0]"),
    "predictions: mode pair, then missing field": (
        "predictions", [(("predictions", 0, "modes", 1, 2), BAD),
                        (("predictions", 1, "scenario_id"), DROP)],
        "$.predictions[0].modes[1][2]"),
    "predictions: missing field, then anchor pair": (
        "predictions", [(("predictions", 0, "modes"), DROP),
                        (("predictions", 1, "anchor"), BAD)],
        "$.predictions[0].modes"),
    "predictions: missing field, then mode pair": (
        "predictions", [(("predictions", 0, "anchor"), DROP),
                        (("predictions", 0, "modes", 0, 0), BAD)],
        "$.predictions[0].anchor"),
    "tags: bad value, then missing field": (
        "tags", [(("tags", "s0", "structure"), "BAD"), (("tags", "s1", "length"), DROP)],
        "$.tags.s0.structure"),
    "metrics: bad tag value, then missing field": (
        "metrics", [(("tags", "s0", "structure"), "BAD"),
                    (("tags", "s1", "length"), DROP)],
        "$.tags.s0.structure"),
    "metrics: missing metric, then bad metric value": (
        "metrics", [(("per_scenario", "s0", "minADE"), DROP),
                    (("per_scenario", "s1", "RF"), "x")],
        "$.per_scenario.s0.minADE"),
}


class TestFaultOrder:
    @pytest.mark.parametrize("case", list(FAULT_ORDERS))
    def test_first_fault_in_document_order_is_named(self, case):
        kind, edits, where = FAULT_ORDERS[case]
        make, load = DOCS[kind]
        with pytest.raises(SchemaError) as e:
            load(_faults(_json(make()), edits))
        assert e.value.path == where

    @pytest.mark.parametrize("kind, ids", [
        ("scenarios", ("scenarios", 1, "id")),
        ("predictions", ("predictions", 1, "scenario_id")),
    ])
    def test_schema_fault_outranks_an_earlier_duplicate_id(self, kind, ids):
        """Checks that relate records run after the walk, so a later schema
        fault is the error a document with both gives."""
        make, load = DOCS[kind]
        doc = _json(make())
        first = doc[ids[0]][0][ids[2]]
        _faults(doc, [(ids, first), ((ids[0], 2, ids[2]), 5)])
        with pytest.raises(SchemaError) as e:
            load(doc)
        assert e.value.path == f"$.{ids[0]}[2].{ids[2]}"
        _faults(doc, [((ids[0], 2, ids[2]), "another id")])
        with pytest.raises(DataConsistencyError):
            load(doc)

    def test_map_geometry_outranks_a_duplicate_lane_id(self):
        """``RoadMap`` checks every lane polygon and drivable ring before the
        lane ids, so a flat drivable ring is the error a map with both
        gives."""
        doc = _json(io.map_to_dict(ROAD))
        doc["lanes"][2]["id"] = doc["lanes"][0]["id"]
        with pytest.raises(InvalidMapError, match="duplicate lane id"):
            io.map_from_dict(json.loads(json.dumps(doc)))
        doc["drivable_area"][1] = [[0, 0], [1, 1], [2, 2]]
        with pytest.raises(InvalidMapError, match="degenerate polygon"):
            io.map_from_dict(doc)
