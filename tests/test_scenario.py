import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from criteria import geom, synth
from criteria.errors import DataConsistencyError
from criteria.scenario import (
    Difficulty,
    LengthClass,
    ScenarioConfig,
    ScenarioRecord,
    Structure,
    difficulty_scores,
    partition_difficulty,
    tag_all,
    tag_length,
    tag_structure,
)
from criteria.trajectory import Trajectory

from conftest import reference_tag_structure, straight_mode

CFG = ScenarioConfig()


def record(road, start=(0.0, -1.85), step=(1.0, 0.0), sid="s0"):
    past = straight_mode(np.add(start, (-20.0, 0.0)), step, 20)
    future = straight_mode(start, step, 30)
    return ScenarioRecord(
        id=sid,
        map_id=road.map_id,
        agent_id="a0",
        dt=0.1,
        past=Trajectory(past, 0.1),
        future=Trajectory(future, 0.1),
    )


class TestTagStructure:
    def test_straight_map_is_cruising(self, straight_road):
        assert tag_structure(record(straight_road), straight_road, CFG) is (
            Structure.CRUISING
        )

    def test_near_intersection_is_turn(self, t_road):
        rec = record(t_road, start=(-60.0, -1.85))
        assert tag_structure(rec, t_road, CFG) is Structure.TURN

    def test_turn_lane_beyond_radius(self, t_road):
        # agent far west: nearest turn lane > 100 m from every gt point
        rec = record(t_road, start=(-190.0, -1.85), step=(0.2, 0.0))
        assert tag_structure(rec, t_road, CFG) is reference_tag_structure(
            rec, t_road, CFG
        )
        assert tag_structure(rec, t_road, CFG) is Structure.CRUISING

    def test_matches_brute_force(self, t_road):
        for x0 in (-190.0, -150.0, -120.0, -80.0, -40.0):
            rec = record(t_road, start=(x0, -1.85), step=(0.3, 0.0))
            assert tag_structure(rec, t_road, CFG) is reference_tag_structure(
                rec, t_road, CFG
            )

    def test_wrong_map_rejected(self, straight_road, t_road):
        rec = record(straight_road)
        with pytest.raises(DataConsistencyError, match="unknown map"):
            tag_structure(rec, t_road, CFG)


def test_record_with_mismatched_dt_rejected(straight_road):
    base = record(straight_road)
    with pytest.raises(ValueError, match="past/future dt mismatch"):
        ScenarioRecord(id=base.id, map_id=base.map_id, agent_id=base.agent_id,
                       dt=0.2, past=base.past, future=base.future)


@functools.cache
def synth_scene(kind: synth.MapKind):
    spec = synth.SynthSpec(kind=kind, seed=0)
    road = synth.gen_map(spec)
    return road, synth.gen_scenarios(road, spec)


class TestTagStructureMatchesReference:
    @given(
        kind=st.sampled_from(synth.MapKind),
        index=st.integers(0, 9),
        shift=st.tuples(st.floats(-150, 150), st.floats(-150, 150)),
        radius=st.floats(0.5, 150.0),
    )
    def test_shifted_synth_scenarios(self, kind, index, shift, radius):
        """A synthetic scenario moved across the map, so that turn lanes fall
        just inside or outside the radius."""
        road, records = synth_scene(kind)
        rec = records[index]
        moved = ScenarioRecord(
            id=rec.id, map_id=rec.map_id, agent_id=rec.agent_id, dt=rec.dt,
            past=Trajectory(rec.past.points + shift, rec.dt),
            future=Trajectory(rec.future.points + shift, rec.dt),
        )
        cfg = ScenarioConfig(turn_radius=radius)
        assert tag_structure(moved, road, cfg) is reference_tag_structure(
            moved, road, cfg
        )


class TestDifficultyScores:
    def test_mean(self):
        assert difficulty_scores({"s1": [1.0, 2.0]}) == {"s1": 1.5}

    def test_single_model_identity(self):
        assert difficulty_scores({"s1": [3.0], "s2": [1.0]}) == {
            "s1": 3.0,
            "s2": 1.0,
        }

    def test_random_table_oracle(self):
        rng = np.random.default_rng(0)
        table = {f"s{i}": list(rng.uniform(0, 5, size=4)) for i in range(50)}
        got = difficulty_scores(table)
        for sid, values in table.items():
            assert got[sid] == pytest.approx(np.mean(values))

    def test_ragged_rejected(self):
        with pytest.raises(DataConsistencyError):
            difficulty_scores({"s1": [1.0, 2.0], "s2": [1.0]})


class TestPartitionDifficulty:
    def test_rounding_n20(self):
        scores = {f"s{i:02d}": float(20 - i) for i in range(20)}
        out = partition_difficulty(scores, CFG.alpha)
        counts = {d: sum(1 for v in out.values() if v is d) for d in Difficulty}
        assert counts == {Difficulty.HARD: 2, Difficulty.MIDDLE: 9,
                          Difficulty.EASY: 9}

    def test_order_insensitive(self):
        rng = np.random.default_rng(1)
        scores = {f"s{i}": float(rng.uniform(0, 10)) for i in range(100)}
        out1 = partition_difficulty(scores, CFG.alpha)
        shuffled = dict(sorted(scores.items(), key=lambda kv: kv[1]))
        out2 = partition_difficulty(shuffled, CFG.alpha)
        assert out1 == out2

    def test_tie_break_by_id(self):
        scores = {"b": 1.0, "a": 1.0, "c": 1.0, "d": 1.0}
        out = partition_difficulty(scores, (0.25, 0.5, 0.25))
        assert out == {
            "a": Difficulty.HARD,
            "b": Difficulty.MIDDLE,
            "c": Difficulty.MIDDLE,
            "d": Difficulty.EASY,
        }

    def test_no_scores_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            partition_difficulty({}, CFG.alpha)

    def test_sizes_invariant(self):
        rng = np.random.default_rng(2)
        import math

        for n in (1, 3, 7, 100, 999):
            scores = {f"s{i}": float(rng.normal()) for i in range(n)}
            out = partition_difficulty(scores, CFG.alpha)
            n_hard = sum(1 for v in out.values() if v is Difficulty.HARD)
            n_mid = sum(1 for v in out.values() if v is Difficulty.MIDDLE)
            assert n_hard == math.floor(0.10 * n + 0.5)
            assert n_mid == math.floor(0.45 * n + 0.5)


class TestTagLength:
    def test_long(self, straight_road):
        rec = record(straight_road, step=(1.0, 0.0))  # 29 m future arc
        assert tag_length(rec, 28.8) is LengthClass.LONG

    def test_short(self, straight_road):
        rec = record(straight_road, step=(0.6, 0.0))  # 17.4 m
        assert tag_length(rec, 28.8) is LengthClass.SHORT

    def test_boundary_is_long(self, straight_road):
        # hold still then make one 28.8 m hop so arc length is exactly beta
        xs = np.zeros(30)
        xs[-1] = 28.8
        future = Trajectory(np.column_stack([xs, np.full(30, -1.85)]), 0.1)
        base = record(straight_road)
        rec = ScenarioRecord(
            id=base.id, map_id=base.map_id, agent_id=base.agent_id,
            dt=base.dt, past=base.past, future=future,
        )
        assert geom.arc_length(rec.future.points) == 28.8
        assert tag_length(rec, 28.8) is LengthClass.LONG

    def test_beta_monotone(self, straight_road):
        rec = record(straight_road)
        if tag_length(rec, 28.8) is LengthClass.SHORT:
            assert tag_length(rec, 50.0) is LengthClass.SHORT


class TestTagAll:
    def test_empty(self, straight_road):
        tags, counts = tag_all([], {straight_road.map_id: straight_road}, {}, CFG)
        assert tags == {} and counts == {}

    def test_composition_and_counts(self, straight_road):
        recs = [
            record(straight_road, sid=f"s{i}", step=(1.0 if i % 2 else 0.5, 0.0))
            for i in range(10)
        ]
        table = {r.id: [float(i)] for i, r in enumerate(recs)}
        tags, counts = tag_all(
            recs, {straight_road.map_id: straight_road}, table, CFG
        )
        assert set(tags) == {r.id for r in recs}
        assert sum(counts.values()) == 10
        longs = sum(1 for t in tags.values() if t.length is LengthClass.LONG)
        assert longs == 5  # step 1.0 scenarios only
        assert all(t.structure is Structure.CRUISING for t in tags.values())

    def test_identical_scores_tie_by_id(self, straight_road):
        recs = [record(straight_road, sid=f"s{i}") for i in range(10)]
        table = {r.id: [1.0] for r in recs}
        tags, _ = tag_all(recs, {straight_road.map_id: straight_road}, table, CFG)
        hard = [sid for sid, t in tags.items() if t.difficulty is Difficulty.HARD]
        assert hard == ["s0"]

    def test_missing_minfde_rejected(self, straight_road):
        recs = [record(straight_road, sid="s0")]
        with pytest.raises(DataConsistencyError):
            tag_all(recs, {straight_road.map_id: straight_road}, {}, CFG)
