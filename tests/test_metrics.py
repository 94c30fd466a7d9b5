import math

import numpy as np
import pytest

from criteria import metrics
from criteria.errors import InsufficientModesError, ShapeError
from criteria.metrics import (
    AlignmentConfig,
    DaoConfig,
    Reduction,
    StationaryPolicy,
    alignment_confidence,
)
from criteria.trajectory import KinematicConfig

from conftest import make_pred, make_traj, single_lane_map, straight_mode


def offset_pred(offsets, n=30, step=(1.0, 0.0), start=(0.0, 0.0), anchor=None):
    """Modes marching east, each shifted laterally by its offset."""
    return make_pred(
        [straight_mode(np.add(start, (0.0, dy)), step, n) for dy in offsets],
        anchor=anchor,
    )


GT = make_traj(straight_mode((0, 0), (1.0, 0.0), 30))


class TestAccuracy:
    def test_min_ade_exact_mode(self):
        pred = offset_pred([0.0, 3.0])
        assert metrics.min_ade(pred, GT) == 0.0

    def test_min_ade_offsets(self):
        pred = offset_pred([1.0, 2.0])
        assert metrics.min_ade(pred, GT) == pytest.approx(1.0)

    def test_min_fde_endpoints(self):
        gt = make_traj(straight_mode((0, 0), (1.0, 0.0), 30))  # ends at (30, 0)
        m1 = straight_mode((0, 4.0), (1.0, 0.0), 30)  # ends at (30, 4)
        m2 = straight_mode((-2, 0.0), (1.0, 0.0), 30)  # ends at (28, 0)
        pred = make_pred([m1, m2])
        assert metrics.min_fde(pred, gt) == pytest.approx(2.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        gt_pts = np.cumsum(rng.normal(size=(30, 2)), axis=0)
        gt = make_traj(gt_pts)
        modes = [gt_pts + rng.normal(size=(30, 2)) for _ in range(6)]
        pred = make_pred(modes)
        ades = [np.linalg.norm(m - gt_pts, axis=1).mean() for m in modes]
        fdes = [np.linalg.norm(m[-1] - gt_pts[-1]) for m in modes]
        assert metrics.min_ade(pred, gt) == pytest.approx(min(ades))
        assert metrics.min_fde(pred, gt) == pytest.approx(min(fdes))
        assert all(metrics.min_fde(pred, gt) <= f for f in fdes)
        per_mode_ade = sum(ades) / len(ades)
        assert metrics.min_ade(pred, gt) <= per_mode_ade

    def test_shape_mismatch(self):
        pred = make_pred([straight_mode((0, 0), (1, 0), 10)])
        with pytest.raises(ShapeError):
            metrics.min_ade(pred, GT)


class TestRF:
    def test_arithmetic(self):
        # FDEs {2, 4, 6} around gt end (30, 0)
        gt = GT
        modes = [
            straight_mode((0, 2.0), (1.0, 0.0), 30),
            straight_mode((0, 4.0), (1.0, 0.0), 30),
            straight_mode((0, 6.0), (1.0, 0.0), 30),
        ]
        assert metrics.rf(make_pred(modes), gt) == pytest.approx(2.0)

    def test_identical_modes(self):
        pred = offset_pred([1.0, 1.0, 1.0])
        assert metrics.rf(pred, GT) == 1.0

    def test_saturation_clamp(self):
        pred = offset_pred([0.0, 4.0])
        got = metrics.rf(pred, GT)
        assert got == pytest.approx(2.0 / metrics.RF_EPS)
        assert math.isfinite(got)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            modes = [np.cumsum(rng.normal(size=(10, 2)), axis=0) for _ in range(4)]
            gt = make_traj(np.cumsum(rng.normal(size=(10, 2)), axis=0))
            assert metrics.rf(make_pred(modes), gt) >= 1.0


class TestSelfDistances:
    def test_parallel_modes(self):
        pred = offset_pred([0.0, 1.0])
        assert metrics.min_asd(pred) == pytest.approx(1.0)
        assert metrics.min_fsd(pred) == pytest.approx(1.0)

    def test_shared_endpoint(self):
        a = straight_mode((0, 0), (1.0, 0.0), 30)
        b = a.copy()[::-1]
        b = np.vstack([b[:-1], a[-1]])  # same final point
        assert metrics.min_fsd(make_pred([a, b])) == 0.0

    def test_scaling_linearity(self):
        rng = np.random.default_rng(20)
        modes = [np.cumsum(rng.normal(size=(20, 2)), axis=0) for _ in range(4)]
        pred1 = make_pred(modes)
        pred2 = make_pred([3.0 * m for m in modes])
        assert metrics.min_asd(pred2) == pytest.approx(3 * metrics.min_asd(pred1))
        assert metrics.min_fsd(pred2) == pytest.approx(3 * metrics.min_fsd(pred1))

    def test_single_mode_rejected(self):
        pred = offset_pred([0.0])
        for pairwise in (metrics.min_asd, metrics.min_fsd, metrics.aae):
            with pytest.raises(InsufficientModesError):
                pairwise(pred)


class TestBoundaryAndDac:
    def test_all_on_road(self):
        road = single_lane_map(x1=100.0)
        pred = offset_pred([0.0, 0.5, -0.5], n=30)
        assert metrics.dac(pred, road) == 1.0

    def test_one_mode_off_road(self):
        road = single_lane_map(x1=100.0)
        bad = straight_mode((0, 0), (1.0, 0.0), 30)
        bad[10] = (10.0, 50.0)
        pred = make_pred([straight_mode((0, 0), (1, 0), 30)] * 3 + [bad])
        assert metrics.dac(pred, road) == pytest.approx(0.75)

    def test_dac_equals_mean_boundary(self, t_road):
        rng = np.random.default_rng(2)
        modes = [
            np.column_stack(
                [rng.uniform(-50, 50, size=12), rng.uniform(-10, 10, size=12)]
            )
            for _ in range(5)
        ]
        pred = make_pred(modes)
        per_mode = [
            metrics.test_boundary(make_pred([m.points]), t_road)[0] for m in pred.modes
        ]
        assert metrics.dac(pred, t_road) == pytest.approx(
            sum(per_mode) / len(per_mode)
        )


class TestDao:
    def big_map(self):
        # one huge drivable rectangle so every ROI cell center is drivable
        return single_lane_map(y=0.0, x0=-200.0, x1=200.0, width=400.0)

    def test_no_points_in_roi(self):
        road = self.big_map()
        pred = offset_pred([0.0, 1.0], n=10, start=(500.0, 0.0), anchor=(0.0, 0.0))
        assert metrics.dao(pred, road, DaoConfig()) == 0.0

    def test_enumerated_cells(self):
        road = self.big_map()
        # 30 points 1 m apart on a line: 30 distinct 0.5 m cells, one mode
        pts = np.column_stack([np.arange(30) + 0.25, np.full(30, 0.25)])
        # second mode identical: same cells
        pred = make_pred([pts, pts], anchor=(0.0, 0.0))
        got = metrics.dao(pred, road, DaoConfig())
        assert got == pytest.approx(30 / 40000 * 1e4)

    def test_monotone_in_points(self):
        road = self.big_map()
        rng = np.random.default_rng(4)
        base = np.cumsum(rng.normal(scale=2.0, size=(20, 2)), axis=0)
        longer = np.vstack([base, base + [40.0, 0.0]])
        small = make_pred([base, base + [0, 1]], anchor=(0, 0))
        large = make_pred([longer, longer + [0, 1]], anchor=(0, 0))
        cfg = DaoConfig()
        assert metrics.dao(large, road, cfg) >= metrics.dao(small, road, cfg)


class TestAae:
    def test_right_angle(self):
        a = straight_mode((0, 0), (1.0, 0.0), 30)
        b = straight_mode((0, 0), (0.0, 1.0), 30)
        assert metrics.aae(make_pred([a, b])) == pytest.approx(90.0)

    def test_identical_modes(self):
        pred = offset_pred([0.0, 0.0, 0.0])
        assert metrics.aae(pred) == 0.0

    def test_three_headings_pair_mean(self):
        def ray(deg):
            r = math.radians(deg)
            return straight_mode((0, 0), (math.cos(r), math.sin(r)), 30)

        pred = make_pred([ray(0), ray(30), ray(60)])
        # pairs: 30, 60, 30 -> mean 40
        assert metrics.aae(pred) == pytest.approx(40.0)

    def test_zero_displacement_mode_excluded(self):
        loop = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]] * 10)[:30]
        a = straight_mode((0, 0), (1.0, 0.0), 30)
        b = straight_mode((0, 0), (0.0, 1.0), 30)
        assert metrics.aae(make_pred([a, b, loop])) == pytest.approx(90.0)

    def test_all_degenerate_scores_zero(self):
        # collapsed modes have no angular spread; one such scenario must not
        # abort a whole evaluation
        loop = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]] * 10)
        assert metrics.aae(make_pred([loop, loop.copy()])) == 0.0
        a = straight_mode((0, 0), (1.0, 0.0), 30)
        assert metrics.aae(make_pred([a, loop, loop.copy()])) == 0.0

    def test_radians_flag(self):
        a = straight_mode((0, 0), (1.0, 0.0), 30)
        b = straight_mode((0, 0), (0.0, 1.0), 30)
        assert metrics.aae(make_pred([a, b]), unit="rad") == pytest.approx(
            math.pi / 2
        )


class TestAmv:
    def test_identical_modes(self):
        pred = offset_pred([0.0, 0.0], anchor=(-1.0, 0.0))
        kin = KinematicConfig()
        assert metrics.amv(pred, kin) == 0.0

    def test_sum_arithmetic(self):
        a = straight_mode((0, 0), (0.1, 0.0), 3)
        b = straight_mode((0, 0), (0.12, 0.0), 3)
        pred = make_pred([a, b], anchor=(0.0, 0.0))
        kin = KinematicConfig()
        # per-step magnitudes 0.1 vs 0.12 over 3 steps
        assert metrics.amv(pred, kin, Reduction.SUM) == pytest.approx(0.06)
        assert metrics.amv(pred, kin, Reduction.MEAN) == pytest.approx(0.02)

    def test_clipping_truncates_pair(self):
        dt = 0.1
        # mode a: constant 10 m/s; mode b: compliant for 5 steps then jumps
        speeds_b = [10.0] * 5 + [20.0] * 5
        xa = np.cumsum([10.0 * dt] * 10)
        xb = np.cumsum(np.asarray(speeds_b) * dt)
        a = np.column_stack([xa, np.zeros(10)])
        b = np.column_stack([xb, np.zeros(10)])
        pred = make_pred([a, b], anchor=(0.0, 0.0))
        kin = KinematicConfig()
        got = metrics.amv(pred, kin)
        # clipped b keeps its 5-step compliant prefix where speeds match a
        assert got == pytest.approx(0.0, abs=1e-9)
        unclipped = np.abs(
            np.asarray([10.0] * 10) - np.asarray(speeds_b)
        ).sum() * dt
        loose = metrics.amv(pred, KinematicConfig(a_min=-1e9, a_max=1e9))
        assert loose == pytest.approx(unclipped)

    def test_symmetry_and_rigid_motion(self):
        rng = np.random.default_rng(3)
        modes = [np.cumsum(rng.normal(scale=0.5, size=(12, 2)), axis=0)
                 for _ in range(3)]
        kin = KinematicConfig()
        v1 = metrics.amv(make_pred(modes, anchor=(0.0, 0.0)), kin)
        v2 = metrics.amv(make_pred(modes[::-1], anchor=(0.0, 0.0)), kin)
        assert v1 == pytest.approx(v2)
        theta = 0.9
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = [m @ rot.T for m in modes]
        moved_anchor = tuple(rot @ np.zeros(2))
        assert metrics.amv(make_pred(moved, anchor=moved_anchor), kin) == \
            pytest.approx(v1)
        assert v1 >= 0


class TestAlignment:
    def test_confidence_endpoints(self):
        assert alignment_confidence(0.0) == 1.0
        assert alignment_confidence(math.pi) == 0.0
        assert alignment_confidence(math.pi / 4) == 0.75

    def test_aligned_passes(self):
        road = single_lane_map(x1=100.0)
        mode = make_pred([straight_mode((0, 0), (1.0, 0.0), 30)])
        (ok,), (conf,) = metrics.test_alignment(mode, road, AlignmentConfig())
        assert ok and conf == pytest.approx(1.0)

    def test_head_on_fails(self):
        road = single_lane_map(x1=100.0)
        mode = make_pred([straight_mode((60, 0), (-1.0, 0.0), 30)])
        (ok,), (conf,) = metrics.test_alignment(mode, road, AlignmentConfig())
        assert not ok and conf == pytest.approx(0.0)

    def test_45_degrees_passes(self):
        # lane wide enough for a diagonal tail
        road = single_lane_map(x1=100.0, width=60.0)
        s = 1.0 / math.sqrt(2)
        mode = make_pred([straight_mode((10, -10), (s, s), 20)])
        (ok,), (conf,) = metrics.test_alignment(mode, road, AlignmentConfig())
        assert ok and conf == pytest.approx(0.75)

    def test_off_lane_tail_fails(self):
        road = single_lane_map(x1=100.0)
        mode = make_pred([straight_mode((0, 50.0), (1.0, 0.0), 30)])
        (ok,), (conf,) = metrics.test_alignment(mode, road, AlignmentConfig())
        assert not ok and conf == 0.0

    def test_stationary_policy(self):
        road = single_lane_map(x1=100.0)
        mode = make_pred([[(5.0, 0.0)] * 30])
        assert metrics.test_alignment(mode, road, AlignmentConfig())[0][0]
        cfg = AlignmentConfig(stationary_policy=StationaryPolicy.FAIL)
        assert not metrics.test_alignment(mode, road, cfg)[0][0]


class TestAtt:
    def test_all_compliant(self):
        road = single_lane_map(x1=100.0)
        # constant-speed modes fanning very slightly from a shared anchor
        modes = [
            straight_mode((0, 0), (1.0, dy), 30) for dy in (0.0, 0.004, -0.004)
        ]
        pred = make_pred(modes, anchor=(0.0, 0.0))
        res = metrics.att(pred, road, AlignmentConfig(), KinematicConfig())
        assert res.att_rate == 1.0
        assert all(v == 1.0 for v in res.test_rates().values())

    def test_five_of_six(self):
        road = single_lane_map(x1=100.0)
        bad = straight_mode((0, 50.0), (1.0, 0.0), 30)
        pred = make_pred([straight_mode((0, 0), (1, 0), 30)] * 5 + [bad],
                         anchor=(0.0, 0.0))
        res = metrics.att(pred, road, AlignmentConfig(), KinematicConfig())
        assert res.att_rate == pytest.approx(5 / 6)

    def test_conjunction_bound(self, t_road):
        rng = np.random.default_rng(5)
        kin = KinematicConfig()
        for _ in range(30):
            modes = [
                np.cumsum(rng.normal(scale=1.0, size=(10, 2)), axis=0)
                for _ in range(4)
            ]
            pred = make_pred(modes, anchor=(0.0, 0.0))
            res = metrics.att(pred, t_road, AlignmentConfig(), kin)
            assert res.att_rate <= min(res.test_rates().values()) + 1e-12
            assert res.att_rate <= metrics.dac(pred, t_road) + 1e-12
            for k in range(4):
                assert res.admissible[k] == (
                    res.boundary_pass[k]
                    and res.alignment_pass[k]
                    and res.kinematic_pass[k]
                )
