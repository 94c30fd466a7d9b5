import math

import numpy as np
import pytest

from criteria.errors import ShapeError, TooShortError
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

from conftest import make_traj, straight_mode


def traj_from_speeds(speeds, dt=0.1):
    """Straight-line trajectory along x whose step speeds are ``speeds``."""
    steps = np.asarray(speeds, float) * dt
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    return Trajectory(np.column_stack([xs, np.zeros_like(xs)]), dt)


class TestPredictionSet:
    def modes(self, n=3):
        return [make_traj(straight_mode((0, k), (1.0, 0.0), n)) for k in range(4)]

    def test_points_stack_modes(self):
        modes = self.modes()
        pred = PredictionSet("s", modes)
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
            PredictionSet("s", [*self.modes(), odd])

    @pytest.mark.parametrize("probs", [
        [math.nan] * 4,
        [0.25, 0.25, 0.25, math.nan],
        [math.inf, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, -0.5],
        [0.5] * 4,
    ], ids=["all_nan", "one_nan", "inf", "negative", "bad_sum"])
    def test_bad_probabilities_rejected(self, probs):
        with pytest.raises(ValueError):
            PredictionSet("s", self.modes(), probabilities=probs)

    def test_probabilities_length_checked(self):
        with pytest.raises(ShapeError):
            PredictionSet("s", self.modes(), probabilities=[0.5, 0.5])


class TestStepVectors:
    def test_no_anchor(self):
        t = make_traj([(0, 0), (1, 0), (2, 0)])
        assert step_vectors(t).tolist() == [[1, 0], [1, 0]]

    def test_with_anchor(self):
        t = make_traj([(0, 0), (1, 0), (2, 0)])
        assert step_vectors(t, (-1, 0)).tolist() == [[1, 0], [1, 0], [1, 0]]

    def test_prefix_sum_reconstructs(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(15, 2))
        t = Trajectory(pts, 0.1)
        rebuilt = pts[0] + np.vstack([[0, 0], np.cumsum(step_vectors(t), axis=0)])
        assert np.allclose(rebuilt, pts)


class TestSpeedProfile:
    def test_constant(self):
        t = traj_from_speeds([10.0] * 5)
        assert np.allclose(speed_profile(t, anchor=(-1.0, 0.0)), 10.0)

    def test_stationary(self):
        t = make_traj([(1, 1)] * 4)
        assert np.allclose(speed_profile(t), 0.0)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 2))
        s1 = speed_profile(Trajectory(pts, 0.1))
        s2 = speed_profile(Trajectory(2 * pts, 0.1))
        assert np.allclose(s2, 2 * s1)


class TestAccelProfile:
    def test_constant_speed(self):
        t = traj_from_speeds([10.0] * 6)
        assert np.allclose(accel_profile(t), 0.0)

    def test_arithmetic(self):
        assert accel_profile(traj_from_speeds([10.0, 10.1]))[0] == pytest.approx(1.0)
        assert accel_profile(traj_from_speeds([10.0, 9.7]))[0] == pytest.approx(-3.0)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            accel_profile(make_traj([(0, 0), (1, 0)]))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.cumsum(rng.normal(size=(12, 2)), axis=0)
        theta = 1.1
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        a1 = accel_profile(Trajectory(pts, 0.1))
        a2 = accel_profile(Trajectory(pts @ rot.T + [5, -3], 0.1))
        assert np.allclose(a1, a2)


class TestWindowCheck:
    def test_constant_speed_passes(self):
        ok, a_init, a_final = kinematic_window_check(
            traj_from_speeds([10.0] * 10), KinematicConfig()
        )
        assert ok
        assert a_init == pytest.approx(0.0, abs=1e-9)
        assert a_final == pytest.approx(0.0, abs=1e-9)

    def test_hard_acceleration_fails(self):
        speeds = 10.0 + np.arange(10)  # +10 m/s^2 at dt=0.1
        ok, a_init, a_final = kinematic_window_check(
            traj_from_speeds(speeds), KinematicConfig()
        )
        assert not ok
        assert a_init == pytest.approx(10.0)
        assert a_final == pytest.approx(10.0)

    def test_hard_braking_fails(self):
        speeds = 10.0 - 0.3 * np.arange(10)  # -3 m/s^2
        ok, a_init, a_final = kinematic_window_check(
            traj_from_speeds(speeds), KinematicConfig()
        )
        assert not ok
        assert a_init == pytest.approx(-3.0)
        assert a_final == pytest.approx(-3.0)

    def test_boundary_is_inclusive(self):
        cfg = KinematicConfig(a_max=1.5, window=1)
        ok, _, _ = kinematic_window_check(
            traj_from_speeds([10.0, 11.5], dt=1.0), cfg
        )
        assert ok


class TestKinematicClip:
    def test_compliant_unchanged(self):
        t = traj_from_speeds([10.0] * 8)
        clipped = kinematic_clip(t, KinematicConfig())
        assert np.array_equal(clipped.points, t.points)

    def test_cut_before_first_violation(self):
        # accel samples: 0, 30, 0 -> violation at the 2nd sample
        t = traj_from_speeds([10.0, 10.0, 13.0, 13.0])
        clipped = kinematic_clip(t, KinematicConfig())
        assert np.array_equal(clipped.points, t.points[:3])

    def test_all_violating_keeps_two_points(self):
        t = traj_from_speeds([1.0, 5.0, 1.0, 5.0, 1.0])
        clipped = kinematic_clip(t, KinematicConfig())
        assert len(clipped) == 2

    def test_prefix_and_idempotent(self):
        rng = np.random.default_rng(9)
        cfg = KinematicConfig()
        for _ in range(50):
            speeds = rng.uniform(0, 20, size=12)
            t = traj_from_speeds(speeds)
            c1 = kinematic_clip(t, cfg)
            assert np.array_equal(c1.points, t.points[: len(c1)])
            c2 = kinematic_clip(c1, cfg)
            assert np.array_equal(c2.points, c1.points)

    def test_window1_pass_implies_full_length(self):
        rng = np.random.default_rng(31)
        cfg = KinematicConfig(window=1)
        for _ in range(100):
            speeds = rng.uniform(8, 12, size=8)
            t = traj_from_speeds(speeds)
            ok, _, _ = kinematic_window_check(t, cfg)
            accels = accel_profile(t)
            if (accels >= cfg.a_min).all() and (accels <= cfg.a_max).all():
                assert len(kinematic_clip(t, cfg)) == len(t)

    def test_anchor_counts_first_step(self):
        # first accel sample (anchor step -> first step) already violates
        t = make_traj([(1.0, 0.0), (3.0, 0.0), (5.0, 0.0)])
        clipped = kinematic_clip(t, KinematicConfig(anchor=(0.0, 0.0)))
        assert len(clipped) == 2


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
