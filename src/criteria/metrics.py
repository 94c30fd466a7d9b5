"""Scalar metrics: accuracy, baseline diversity/admissibility, and the
angular-expansion, magnitude-variation, and triad-test metrics.

All functions are deterministic and iterate modes and unordered pairs in a
fixed order, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from . import geom
from .errors import InsufficientModesError, ShapeError
from .map_model import RoadMap
from .trajectory import (
    KinematicConfig,
    PredictionSet,
    Trajectory,
    displacement_vector,
    kinematic_clip,
    kinematic_window_check,
    require_modes,
    step_vectors,
)

RF_EPS = 1e-6  # minFDE clamp for the ratio metric


class StationaryPolicy(Enum):
    PASS = "PASS"
    FAIL = "FAIL"


class Reduction(Enum):
    SUM = "SUM"
    MEAN = "MEAN"


@dataclass(frozen=True)
class AlignmentConfig:
    """Lane-alignment test parameters; confidence cutoff is strict."""

    threshold_lac: float = 0.5
    tail_steps: int = 3
    stationary_eps: float = 0.1
    stationary_policy: StationaryPolicy = StationaryPolicy.PASS

    def __post_init__(self):
        if not 0.0 < self.threshold_lac < 1.0:
            raise ValueError("threshold_lac must be in (0, 1)")
        if self.tail_steps < 2:
            raise ValueError("tail_steps must be >= 2")


@dataclass(frozen=True)
class DaoConfig:
    """Occupancy rasterization: square ROI centered at the anchor."""

    cell: float = 0.5
    roi_side: float = 100.0
    scale: float = 1e4

    def __post_init__(self):
        if self.cell <= 0 or self.roi_side <= 0:
            raise ValueError("cell and roi_side must be positive")


@dataclass(frozen=True)
class TriadResult:
    boundary_pass: tuple[bool, ...]
    alignment_pass: tuple[bool, ...]
    kinematic_pass: tuple[bool, ...]

    @property
    def admissible(self) -> tuple[bool, ...]:
        return tuple(
            b and a and k
            for b, a, k in zip(
                self.boundary_pass, self.alignment_pass, self.kinematic_pass
            )
        )

    @property
    def att_rate(self) -> float:
        adm = self.admissible
        return sum(adm) / len(adm)

    def test_rates(self) -> dict[str, float]:
        n = len(self.boundary_pass)
        return {
            "boundary": sum(self.boundary_pass) / n,
            "alignment": sum(self.alignment_pass) / n,
            "kinematic": sum(self.kinematic_pass) / n,
        }


# -- accuracy --------------------------------------------------------------


def _check_shapes(pred: PredictionSet, gt: Trajectory) -> None:
    for k, m in enumerate(pred.modes):
        if len(m) != len(gt):
            raise ShapeError(
                f"{pred.scenario_id!r}: mode {k} has {len(m)} points, "
                f"ground truth has {len(gt)}"
            )


def _ade(mode: Trajectory, gt: Trajectory) -> float:
    return float(np.linalg.norm(mode.points - gt.points, axis=1).mean())


def _fde(mode: Trajectory, gt: Trajectory) -> float:
    return float(np.linalg.norm(mode.points[-1] - gt.points[-1]))


def min_ade(pred: PredictionSet, gt: Trajectory) -> float:
    _check_shapes(pred, gt)
    return min(_ade(m, gt) for m in pred.modes)


def min_fde(pred: PredictionSet, gt: Trajectory) -> float:
    _check_shapes(pred, gt)
    return min(_fde(m, gt) for m in pred.modes)


def rf(pred: PredictionSet, gt: Trajectory) -> float:
    """Average FDE over minimum FDE; saturates at avg/RF_EPS when the best
    mode hits the ground-truth endpoint exactly."""
    _check_shapes(pred, gt)
    fdes = [_fde(m, gt) for m in pred.modes]
    return max(1.0, (sum(fdes) / len(fdes)) / max(min(fdes), RF_EPS))


# -- baseline diversity ------------------------------------------------------


def min_asd(pred: PredictionSet) -> float:
    require_modes(pred)
    return min(
        float(np.linalg.norm(a.points - b.points, axis=1).mean())
        for a, b in combinations(pred.modes, 2)
    )


def min_fsd(pred: PredictionSet) -> float:
    require_modes(pred)
    return min(
        float(np.linalg.norm(a.points[-1] - b.points[-1]))
        for a, b in combinations(pred.modes, 2)
    )


# -- map admissibility --------------------------------------------------------


def test_boundary(mode: Trajectory, road: RoadMap) -> bool:
    """True iff every point lies in the drivable area."""
    return bool(road.contains_many(mode.points).all())


def dac(pred: PredictionSet, road: RoadMap) -> float:
    """Fraction of modes entirely inside the drivable area."""
    passed = [test_boundary(m, road) for m in pred.modes]
    return sum(passed) / len(passed)


def dao(pred: PredictionSet, road: RoadMap, cfg: DaoConfig, anchor) -> float:
    """Scaled share of drivable ROI cells touched by prediction points."""
    ax, ay = float(anchor[0]), float(anchor[1])
    half = cfg.roi_side / 2.0
    roi = (ax - half, ay - half, ax + half, ay + half)
    all_points = np.vstack([m.points for m in pred.modes])
    occupied = geom.rasterize_occupancy(all_points, roi, cfg.cell)

    nx = max(1, math.ceil(cfg.roi_side / cfg.cell))
    ny = nx
    # cell centers; drivable[ix, iy] is the center of cell (ix, iy)
    xs = roi[0] + (np.arange(nx) + 0.5) * cfg.cell
    ys = roi[1] + (np.arange(ny) + 0.5) * cfg.cell
    drivable = road.contains_grid(xs, ys)
    n_drivable = int(drivable.sum())
    if n_drivable == 0:
        return 0.0
    # the occupancy grid may reach one cell further when the ROI edges round
    hits = sum(1 for cx, cy in occupied if cx < nx and cy < ny and drivable[cx, cy])
    return hits / n_drivable * cfg.scale


# -- proposed diversity --------------------------------------------------------


def aae(pred: PredictionSet, unit: str = "deg") -> float:
    """Mean pairwise angle between mode displacement vectors.

    Zero-displacement modes carry no direction and are excluded from pairs.
    """
    require_modes(pred)
    vectors = []
    for m in pred.modes:
        v = displacement_vector(m)
        if np.linalg.norm(v) > geom.DEGENERATE_EPS:
            vectors.append(v)
    if len(vectors) < 2:
        raise InsufficientModesError(
            f"{pred.scenario_id!r}: fewer than 2 modes with usable displacement"
        )
    angles = [geom.angle_between(a, b) for a, b in combinations(vectors, 2)]
    mean = sum(angles) / len(angles)
    return math.degrees(mean) if unit == "deg" else mean


def amv(
    pred: PredictionSet,
    kin: KinematicConfig,
    reduction: Reduction = Reduction.SUM,
) -> float:
    """Mean pairwise accumulated speed-magnitude difference after clipping.

    Each mode is clipped to its kinematically compliant prefix first; a pair
    is compared over the shorter of the two prefixes.
    """
    require_modes(pred)
    mags = []
    for m in pred.modes:
        clipped = kinematic_clip(m, kin)
        mags.append(np.linalg.norm(step_vectors(clipped, kin.anchor), axis=1))
    pair_values = []
    for a, b in combinations(mags, 2):
        n = min(len(a), len(b))
        diffs = np.abs(a[:n] - b[:n])
        pair_values.append(
            float(diffs.sum() if reduction is Reduction.SUM else diffs.mean())
        )
    return sum(pair_values) / len(pair_values)


# -- triad tests -----------------------------------------------------------


def alignment_confidence(delta_theta: float) -> float:
    """Orientation-variance confidence: 1 at zero deviation, 0 at pi."""
    return max(0.0, 1.0 - delta_theta / math.pi)


def test_alignment(
    mode: Trajectory, road: RoadMap, cfg: AlignmentConfig
) -> tuple[bool, float]:
    """Lane-alignment over the trajectory tail.

    The trajectory heading is the chord over the last ``tail_steps`` points;
    confidence is maximized over (tail point, containing lane) pairs and
    compared strictly against the threshold. A stationary tail falls back to
    the configured policy.
    """
    pts = mode.points
    if len(pts) < cfg.tail_steps:
        raise ShapeError(
            f"alignment test needs >= {cfg.tail_steps} points, got {len(pts)}"
        )
    tail = pts[-cfg.tail_steps :]
    chord = tail[-1] - tail[0]
    if np.linalg.norm(chord) < max(cfg.stationary_eps, geom.DEGENERATE_EPS):
        return cfg.stationary_policy is StationaryPolicy.PASS, 0.0
    traj_heading = geom.heading(chord)
    hvec = np.array([math.cos(traj_heading), math.sin(traj_heading)])
    max_conf = 0.0
    for p in tail:
        for lane_id in road.lanes_containing(p):
            lane_heading = road.lane_heading_at(lane_id, p)
            lvec = np.array([math.cos(lane_heading), math.sin(lane_heading)])
            delta = geom.angle_between(hvec, lvec)
            max_conf = max(max_conf, alignment_confidence(delta))
    return max_conf > cfg.threshold_lac, max_conf


def test_kinematic(mode: Trajectory, kin: KinematicConfig) -> bool:
    ok, _, _ = kinematic_window_check(mode, kin)
    return ok


def att(
    pred: PredictionSet,
    road: RoadMap,
    align_cfg: AlignmentConfig,
    kin_cfg: KinematicConfig,
) -> TriadResult:
    """Per-mode triad of boundary, alignment, and kinematic tests."""
    boundary = tuple(test_boundary(m, road) for m in pred.modes)
    alignment = tuple(test_alignment(m, road, align_cfg)[0] for m in pred.modes)
    kinematic = tuple(test_kinematic(m, kin_cfg) for m in pred.modes)
    return TriadResult(boundary, alignment, kinematic)
