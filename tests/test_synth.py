import numpy as np
import pytest

from criteria import geom, metrics, synth
from criteria.map_model import Turn, is_turn_lane
from criteria.metrics import AlignmentConfig
from criteria.trajectory import KinematicConfig


def spec(kind=synth.MapKind.STRAIGHT, seed=0, **kwargs):
    return synth.SynthSpec(kind=kind, seed=seed, **kwargs)


def triad_for(rec, road, pred):
    return metrics.att(pred, road, AlignmentConfig(), KinematicConfig())


class TestGenMap:
    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_deterministic(self, kind):
        m1 = synth.gen_map(spec(kind))
        m2 = synth.gen_map(spec(kind))
        assert sorted(m1.lanes) == sorted(m2.lanes)
        for lane_id in m1.lanes:
            assert np.array_equal(
                m1.lanes[lane_id].centerline, m2.lanes[lane_id].centerline
            )
            assert np.array_equal(
                m1.lanes[lane_id].polygon, m2.lanes[lane_id].polygon
            )

    def test_straight_has_no_turn_lanes(self):
        road = synth.gen_map(spec(synth.MapKind.STRAIGHT))
        assert not any(is_turn_lane(l) for l in road.lanes.values())

    @pytest.mark.parametrize(
        "kind", [synth.MapKind.T_INTERSECTION, synth.MapKind.CROSSROADS]
    )
    def test_intersections_have_left_and_right_turns(self, kind):
        road = synth.gen_map(spec(kind))
        turns = {l.turn for l in road.lanes.values() if is_turn_lane(l)}
        assert turns == {Turn.LEFT, Turn.RIGHT}

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_successor_continuity(self, kind):
        road = synth.gen_map(spec(kind))
        for lane in road.lanes.values():
            for succ in lane.successors:
                gap = np.linalg.norm(
                    road.lanes[succ].centerline[0] - lane.centerline[-1]
                )
                assert gap < 1e-6


class TestGenScenarios:
    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_shapes_and_determinism(self, kind):
        sp = spec(kind, n_scenarios=5)
        road = synth.gen_map(sp)
        recs1 = synth.gen_scenarios(road, sp)
        recs2 = synth.gen_scenarios(road, sp)
        assert len(recs1) == 5
        for r1, r2 in zip(recs1, recs2):
            assert r1.id == r2.id
            assert len(r1.past) == sp.obs_steps
            assert len(r1.future) == sp.pred_steps
            assert np.array_equal(r1.past.points, r2.past.points)
            assert np.array_equal(r1.future.points, r2.future.points)

    def test_different_seeds_differ(self):
        sp1, sp2 = spec(seed=1), spec(seed=2)
        road = synth.gen_map(sp1)
        r1 = synth.gen_scenarios(road, sp1)[0]
        r2 = synth.gen_scenarios(road, sp2)[0]
        assert not np.array_equal(r1.future.points, r2.future.points)

    @pytest.mark.parametrize("kind", list(synth.MapKind))
    def test_ground_truth_on_drivable_area(self, kind):
        sp = spec(kind, n_scenarios=8)
        road = synth.gen_map(sp)
        for rec in synth.gen_scenarios(road, sp):
            assert road.contains_many(rec.past.points).all()
            assert road.contains_many(rec.future.points).all()

    def test_fast_agents_have_long_futures(self):
        sp = spec(n_scenarios=20, seed=3)
        road = synth.gen_map(sp)
        for rec in synth.gen_scenarios(road, sp):
            speed = geom.arc_length(rec.past.points) / (
                (len(rec.past) - 1) * rec.dt
            )
            if speed > 10.0:
                assert geom.arc_length(rec.future.points) >= 28.8


class TestToyPredict:
    @pytest.mark.parametrize("pk", list(synth.PredictorKind))
    def test_shapes(self, pk):
        sp = spec(synth.MapKind.T_INTERSECTION, n_scenarios=3)
        road = synth.gen_map(sp)
        for rec in synth.gen_scenarios(road, sp):
            pred = synth.toy_predict(pk, rec, road, k=6, seed=0)
            assert pred.k == 6
            assert pred.scenario_id == rec.id
            assert pred.anchor is not None
            assert np.allclose(pred.anchor, rec.past.points[-1])
            for mode in pred.modes:
                assert len(mode) == sp.pred_steps

    @pytest.mark.parametrize(
        "kind", list(synth.MapKind)
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_const_vel_passes_every_admissibility_test(self, kind, seed):
        sp = spec(kind, seed=seed, n_scenarios=6)
        road = synth.gen_map(sp)
        for rec in synth.gen_scenarios(road, sp):
            pred = synth.toy_predict(
                synth.PredictorKind.CONST_VEL, rec, road, k=3, seed=seed
            )
            triad = triad_for(rec, road, pred)
            assert triad.att_rate == 1.0

    def test_const_vel_has_zero_spread(self):
        sp = spec(n_scenarios=3)
        road = synth.gen_map(sp)
        rec = synth.gen_scenarios(road, sp)[0]
        pred = synth.toy_predict(
            synth.PredictorKind.CONST_VEL, rec, road, k=4, seed=0
        )
        assert metrics.aae(pred) == 0.0
        assert metrics.amv(pred, KinematicConfig()) == 0.0
        assert metrics.min_asd(pred) == 0.0

    def test_noisy_is_deterministic_per_seed(self):
        sp = spec(n_scenarios=2)
        road = synth.gen_map(sp)
        rec = synth.gen_scenarios(road, sp)[0]
        p1 = synth.toy_predict(synth.PredictorKind.NOISY, rec, road, 4, seed=9)
        p2 = synth.toy_predict(synth.PredictorKind.NOISY, rec, road, 4, seed=9)
        p3 = synth.toy_predict(synth.PredictorKind.NOISY, rec, road, 4, seed=10)
        for m1, m2 in zip(p1.modes, p2.modes):
            assert np.array_equal(m1.points, m2.points)
        assert not np.array_equal(p1.modes[0].points, p3.modes[0].points)

    def test_noisy_violates_boundary_somewhere(self):
        sp = spec(n_scenarios=10, seed=0)
        road = synth.gen_map(sp)
        dacs = []
        for rec in synth.gen_scenarios(road, sp):
            pred = synth.toy_predict(
                synth.PredictorKind.NOISY, rec, road, k=6, seed=0
            )
            dacs.append(metrics.dac(pred, road))
        assert min(dacs) < 1.0

    def test_lane_fan_spreads_at_intersections(self):
        sp = spec(synth.MapKind.T_INTERSECTION, n_scenarios=10, seed=0)
        road = synth.gen_map(sp)
        fan_aae = []
        noisy_aae = []
        for rec in synth.gen_scenarios(road, sp):
            fan = synth.toy_predict(
                synth.PredictorKind.LANE_FAN, rec, road, k=6, seed=0
            )
            noisy = synth.toy_predict(
                synth.PredictorKind.NOISY, rec, road, k=6, seed=0
            )
            fan_aae.append(metrics.aae(fan))
            noisy_aae.append(metrics.aae(noisy))
        assert np.mean(fan_aae) > np.mean(noisy_aae)

    def test_too_few_modes_rejected(self):
        sp = spec(n_scenarios=1)
        road = synth.gen_map(sp)
        rec = synth.gen_scenarios(road, sp)[0]
        with pytest.raises(ValueError):
            synth.toy_predict(synth.PredictorKind.CONST_VEL, rec, road, 1, 0)
