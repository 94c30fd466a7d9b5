import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from criteria.errors import ShapeError
from criteria.trajectory import (
    KinematicConfig,
    PredictionSet,
    Trajectory,
    accel_profile,
    displacement_vector,
    kinematic_clip,
    kinematic_window_check,
    speed_profile,
    step_vectors,
)

from conftest import (
    make_pred,
    make_track,
    make_traj,
    reference_accels,
    reference_window_check,
    straight_mode,
)


def one_mode(points, anchor, dt=0.1) -> PredictionSet:
    """The prediction set whose one mode is ``points``."""
    return make_pred([points], dt=dt, anchor=anchor)


def set_from_speeds(speeds, dt=0.1) -> PredictionSet:
    """One-mode set on a straight line along x, anchored at the origin,
    whose step speeds are ``speeds``."""
    steps = np.asarray(speeds, float) * dt
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    return make_track(np.column_stack([xs, np.zeros_like(xs)]), dt)


class TestPredictionSet:
    def modes(self, n=3):
        return [make_traj(straight_mode((0, k), (1.0, 0.0), n)) for k in range(4)]

    def test_points_stack_modes(self):
        modes = self.modes()
        pred = PredictionSet("s", modes, anchor=(0, 0))
        assert pred.points.shape == (4, 3, 2) and pred.dt == 0.1
        for k, m in enumerate(modes):
            assert np.array_equal(pred.points[k], m.points)
        with pytest.raises(ValueError):
            pred.points[0, 0, 0] = 1.0  # read-only

    @pytest.mark.parametrize("odd", [
        make_traj(straight_mode((0, 9), (1.0, 0.0), 4)),
        make_traj(straight_mode((0, 9), (1.0, 0.0), 3), dt=0.2),
    ], ids=["length", "dt"])
    def test_mismatched_mode_rejected(self, odd):
        with pytest.raises(ShapeError, match="mode 4"):
            PredictionSet("s", [*self.modes(), odd], anchor=(0, 0))

    def test_from_points_matches_modes(self):
        modes = self.modes()
        want = PredictionSet("s", modes, anchor=(0, 1))
        points = np.stack([m.points for m in modes])
        pred = PredictionSet.from_points("s", points, 0.1, anchor=(0, 1))
        assert pred.points.tobytes() == want.points.tobytes()
        assert (pred.k, pred.dt) == (4, 0.1)
        assert pred.anchor.tolist() == [0.0, 1.0]
        assert not pred.points.flags.writeable and points.flags.writeable
        # the modes are built on first use, as read-only views of the stack
        assert [m.points.tolist() for m in pred.modes] == \
            [m.points.tolist() for m in modes]
        assert all(m.dt == 0.1 for m in pred.modes)

    @pytest.mark.parametrize("points,dt", [
        (np.zeros((0, 3, 2)), 0.1),
        (np.zeros((2, 1, 2)), 0.1),
        (np.zeros((2, 3, 3)), 0.1),
        (np.zeros((3, 2)), 0.1),
        (np.full((2, 3, 2), np.nan), 0.1),
        (np.zeros((2, 3, 2)), 0.0),
        (np.zeros((2, 3, 2)), math.nan),
    ], ids=["no_mode", "one_point", "triples", "2d", "nan", "zero_dt", "nan_dt"])
    def test_from_points_rejects_what_modes_would(self, points, dt):
        with pytest.raises(ValueError):
            PredictionSet.from_points("s", points, dt, anchor=(0, 0))
        with pytest.raises(ValueError):
            PredictionSet("s", [Trajectory(p, dt) for p in points], anchor=(0, 0))

    def test_anchor_is_required(self):
        with pytest.raises(TypeError, match="anchor"):
            PredictionSet("s", self.modes())
        with pytest.raises(TypeError, match="anchor"):
            PredictionSet.from_points("s", np.zeros((2, 3, 2)), 0.1)

    @pytest.mark.parametrize("anchor", [
        (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0), (1.0, 2.0, 3.0),
        (1.0,), [[1.0, 2.0]], 5.0, None,
    ], ids=["nan", "inf", "minus_inf", "triple", "single", "nested", "scalar",
            "none"])
    def test_bad_anchor_rejected(self, anchor):
        with pytest.raises(ValueError, match="anchor"):
            PredictionSet("s", self.modes(), anchor=anchor)
        with pytest.raises(ValueError, match="anchor"):
            PredictionSet.from_points("s", np.zeros((2, 3, 2)), 0.1,
                                      anchor=anchor)


class TestStepVectors:
    def test_track_steps_from_its_first_point(self):
        t = make_track([(0, 0), (1, 0), (2, 0)])
        assert step_vectors(t)[0].tolist() == [[1, 0], [1, 0]]

    def test_with_anchor(self):
        t = one_mode([(0, 0), (1, 0), (2, 0)], anchor=(-1, 0))
        assert step_vectors(t)[0].tolist() == [[1, 0], [1, 0], [1, 0]]

    def test_prefix_sum_reconstructs(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(15, 2))
        t = make_track(pts)
        rebuilt = pts[0] + np.vstack([[0, 0], np.cumsum(step_vectors(t)[0], axis=0)])
        assert np.allclose(rebuilt, pts)


class TestSpeedProfile:
    def test_constant(self):
        t = set_from_speeds([10.0] * 5)
        assert np.allclose(speed_profile(t), 10.0)

    def test_stationary(self):
        t = make_track([(1, 1)] * 4)
        assert np.allclose(speed_profile(t), 0.0)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 2))
        s1 = speed_profile(make_track(pts))
        s2 = speed_profile(make_track(2 * pts))
        assert np.allclose(s2, 2 * s1)


class TestAccelProfile:
    def test_constant_speed(self):
        t = set_from_speeds([10.0] * 6)
        assert np.allclose(accel_profile(t), 0.0)

    def test_arithmetic(self):
        assert accel_profile(set_from_speeds([10.0, 10.1]))[0, 0] == pytest.approx(1.0)
        assert accel_profile(set_from_speeds([10.0, 9.7]))[0, 0] == pytest.approx(-3.0)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.cumsum(rng.normal(size=(12, 2)), axis=0)
        theta = 1.1
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        a1 = accel_profile(make_track(pts))
        a2 = accel_profile(make_track(pts @ rot.T + [5, -3]))
        assert np.allclose(a1, a2)


class TestWindowCheck:
    def test_constant_speed_passes(self):
        (ok,), (a_init,), (a_final,) = kinematic_window_check(
            set_from_speeds([10.0] * 10), KinematicConfig()
        )
        assert ok
        assert a_init == pytest.approx(0.0, abs=1e-9)
        assert a_final == pytest.approx(0.0, abs=1e-9)

    def test_hard_acceleration_fails(self):
        speeds = 10.0 + np.arange(10)  # +10 m/s^2 at dt=0.1
        (ok,), (a_init,), (a_final,) = kinematic_window_check(
            set_from_speeds(speeds), KinematicConfig()
        )
        assert not ok
        assert a_init == pytest.approx(10.0)
        assert a_final == pytest.approx(10.0)

    def test_hard_braking_fails(self):
        speeds = 10.0 - 0.3 * np.arange(10)  # -3 m/s^2
        (ok,), (a_init,), (a_final,) = kinematic_window_check(
            set_from_speeds(speeds), KinematicConfig()
        )
        assert not ok
        assert a_init == pytest.approx(-3.0)
        assert a_final == pytest.approx(-3.0)

    def test_boundary_is_inclusive(self):
        cfg = KinematicConfig(a_max=1.5, window=1)
        (ok,), _, _ = kinematic_window_check(
            set_from_speeds([10.0, 11.5], dt=1.0), cfg
        )
        assert ok


class TestKinematicClip:
    """``kinematic_clip`` counts the points of each mode's kept prefix."""

    def test_compliant_unchanged(self):
        t = set_from_speeds([10.0] * 8)
        assert kinematic_clip(t, KinematicConfig())[0] == t.points.shape[1]

    def test_cut_before_first_violation(self):
        # accel samples: 0, 30, 0 -> violation at the 2nd sample, so the
        # anchor's step and the next one are kept
        t = set_from_speeds([10.0, 10.0, 13.0, 13.0])
        assert kinematic_clip(t, KinematicConfig())[0] == 2

    def test_all_violating_keeps_two_points(self):
        t = set_from_speeds([1.0, 5.0, 1.0, 5.0, 1.0])
        assert kinematic_clip(t, KinematicConfig())[0] == 2

    def test_prefix_and_idempotent(self):
        rng = np.random.default_rng(9)
        cfg = KinematicConfig()
        for _ in range(50):
            speeds = rng.uniform(0, 20, size=12)
            t = set_from_speeds(speeds)
            (n1,) = kinematic_clip(t, cfg)
            assert 2 <= n1 <= t.points.shape[1]
            (n2,) = kinematic_clip(one_mode(t.points[0, :n1], t.anchor), cfg)
            assert n2 == n1

    def test_window1_pass_implies_full_length(self):
        rng = np.random.default_rng(31)
        cfg = KinematicConfig(window=1)
        for _ in range(100):
            speeds = rng.uniform(8, 12, size=8)
            t = set_from_speeds(speeds)
            ok, _, _ = kinematic_window_check(t, cfg)
            accels = accel_profile(t)
            if (accels >= cfg.a_min).all() and (accels <= cfg.a_max).all():
                assert kinematic_clip(t, cfg)[0] == t.points.shape[1]

    def test_anchor_counts_first_step(self):
        # first accel sample (anchor step -> first step) already violates
        t = one_mode([(1.0, 0.0), (3.0, 0.0), (5.0, 0.0)], anchor=(0.0, 0.0))
        assert kinematic_clip(t, KinematicConfig())[0] == 2


@st.composite
def tracks(draw):
    """A track of 3 to 30 points, and its sampling interval."""
    n = draw(st.integers(3, 30))
    track = draw(arrays(float, (n, 2), elements=st.floats(-1e3, 1e3)))
    return track, draw(st.sampled_from((0.1, 0.5, 1.0)))


class TestTrackContinuation:
    """The set anchored at a track's first point, predicting the rest, has
    the kinematics of the whole track: the anchor adds no step and loses
    none, so a set with no anchor would compute nothing new."""

    @given(tracks(), st.integers(1, 5))
    def test_matches_reference_on_full_track(self, case, window):
        track, dt = case
        pred = make_track(track, dt)
        cfg = KinematicConfig(window=window)
        steps = np.diff(track, axis=0)
        speeds = np.linalg.norm(steps, axis=1) / dt
        accels = np.diff(speeds) / dt
        assert step_vectors(pred)[0].tolist() == steps.tolist()
        assert speed_profile(pred)[0].tolist() == speeds.tolist()
        assert accel_profile(pred)[0].tolist() == accels.tolist()
        assert reference_accels(track[1:], dt, track[0]).tolist() == accels.tolist()
        w = min(window, len(accels))
        a_init, a_final = accels[:w].mean(), accels[-w:].mean()
        ok = (cfg.a_min <= a_init <= cfg.a_max) and (cfg.a_min <= a_final <= cfg.a_max)
        got = [v[0] for v in kinematic_window_check(pred, cfg)]
        assert got == [ok, a_init, a_final]
        assert reference_window_check(track[1:], dt, cfg, track[0]) == (ok, a_init, a_final)


class TestDisplacementVector:
    def test_straight(self):
        t = make_traj(straight_mode((0, 0), (1, 0), 30))
        assert displacement_vector(t).tolist() == [29.0, 0.0]

    def test_closed_loop(self):
        t = make_traj([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert displacement_vector(t).tolist() == [0.0, 0.0]

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 2))
        d1 = displacement_vector(Trajectory(pts, 0.1))
        d2 = displacement_vector(Trajectory(pts + [100, -40], 0.1))
        assert np.allclose(d1, d2)
