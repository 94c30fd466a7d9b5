"""Scalar metrics: accuracy, baseline diversity/admissibility, and the
angular-expansion, magnitude-variation, and triad-test metrics.

Every metric reads the prediction set's ``(K, T, 2)`` mode stack and computes
all K modes, or all K(K-1)/2 unordered pairs in ``itertools.combinations``
order (``np.triu_indices``), as array operations. Each reduction runs over
the same values in the same order as a per-mode or per-pair loop would, and
the means over modes and pairs are ``mean``, a left-to-right sum in that
order, so identical inputs give bit-identical outputs on every Python.

The kinematic, DAO and triad kernels take the whole ``PredictionSet`` and
answer per mode; the anchor that kinematics start from and the DAO ROI is
centered on is the set's own ``anchor``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geom
from .errors import DataConsistencyError, SettingError, ShapeError
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


def total(values) -> float:
    """The floats ``values`` added one by one, left to right, from ``0.0``,
    as ``sum`` adds them before Python 3.12. From 3.12 on, ``sum`` is
    compensated, which can change a mean's last bit and so the output bytes."""
    return functools.reduce(operator.add, values, 0.0)


def mean(values) -> float:
    return total(values) / len(values)


class StationaryPolicy(Enum):
    PASS = "PASS"
    FAIL = "FAIL"


class Reduction(Enum):
    SUM = "SUM"
    MEAN = "MEAN"


class AngleUnit(str, Enum):
    """The unit of AAE; a ``str`` too, so it equals its value."""

    DEG = "deg"
    RAD = "rad"


@dataclass(frozen=True)
class AlignmentConfig:
    """Lane-alignment test parameters; confidence cutoff is strict."""

    threshold_lac: float = 0.5
    tail_steps: int = 3
    stationary_eps: float = 0.1
    stationary_policy: StationaryPolicy = StationaryPolicy.PASS

    def __post_init__(self):
        SettingError.check_finite(self)
        if not 0.0 < self.threshold_lac < 1.0:
            raise SettingError("threshold_lac must be in (0, 1)", "threshold_lac")
        if self.tail_steps < 2:
            raise SettingError("tail_steps must be >= 2", "tail_steps")
        if self.stationary_eps < 0:
            raise SettingError("stationary_eps must be >= 0", "stationary_eps")


# A DAO grid has at most this many cells per side: 1 cm cells over the
# default 100 m ROI. Its drivable cover takes memory in proportion to the
# side (about 12 MB on a CROSSROADS map at the cap), and finer cells only
# split the same occupancy further.
MAX_DAO_CELLS_PER_SIDE = 10_000


@dataclass(frozen=True)
class DaoConfig:
    """Occupancy rasterization: square ROI centered at the anchor, split
    into ``cells_per_side`` cells along each axis."""

    cell: float = 0.5
    roi_side: float = 100.0
    scale: float = 1e4

    def __post_init__(self):
        SettingError.check_finite(self)
        if self.cell <= 0:
            raise SettingError("cell must be positive", "cell")
        if self.roi_side <= 0:
            raise SettingError("roi_side must be positive", "roi_side")
        if self.scale <= 0:
            raise SettingError("scale must be positive", "scale")
        # compared before rounding up, which overflows on an infinite ratio
        if not self.roi_side / self.cell <= MAX_DAO_CELLS_PER_SIDE:
            raise SettingError(
                f"cell too small: a {self.roi_side} m ROI in {self.cell} m cells "
                f"has more than {MAX_DAO_CELLS_PER_SIDE} cells per side",
                "cell", "roi_side",
            )

    @property
    def cells_per_side(self) -> int:
        return max(1, math.ceil(self.roi_side / self.cell))


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
    if pred.points.shape[1] != len(gt):
        raise ShapeError(
            f"{pred.scenario_id!r}: modes have {pred.points.shape[1]} points, "
            f"ground truth has {len(gt)}"
        )


def _fdes(pred: PredictionSet, gt: Trajectory) -> np.ndarray:
    _check_shapes(pred, gt)
    return geom.lengths(pred.points[:, -1] - gt.points[-1])


def min_ade(pred: PredictionSet, gt: Trajectory) -> float:
    _check_shapes(pred, gt)
    ades = np.linalg.norm(pred.points - gt.points, axis=2).mean(axis=1)
    return float(ades.min())


def min_fde(pred: PredictionSet, gt: Trajectory) -> float:
    return float(_fdes(pred, gt).min())


def rf(pred: PredictionSet, gt: Trajectory) -> float:
    """Average FDE over minimum FDE; saturates at avg/RF_EPS when the best
    mode hits the ground-truth endpoint exactly."""
    fdes = _fdes(pred, gt).tolist()
    return max(1.0, mean(fdes) / max(min(fdes), RF_EPS))


# -- baseline diversity ------------------------------------------------------


@functools.cache
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the unordered mode pairs in ``combinations`` order,
    built once per ``k`` and read-only, since every caller shares them."""
    i, j = np.triu_indices(k, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def min_asd(pred: PredictionSet) -> float:
    require_modes(pred)
    i, j = _pairs(pred.k)
    pts = pred.points
    return float(np.linalg.norm(pts[i] - pts[j], axis=2).mean(axis=1).min())


def min_fsd(pred: PredictionSet) -> float:
    require_modes(pred)
    i, j = _pairs(pred.k)
    ends = pred.points[:, -1]
    return float(geom.lengths(ends[i] - ends[j]).min())


# -- map admissibility --------------------------------------------------------


def test_boundary(pred: PredictionSet, road: RoadMap) -> np.ndarray:
    """Per mode, True iff every point of the mode lies in the drivable area;
    from one drivable-area query."""
    pts = pred.points
    inside = road.contains_many(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    return inside.all(axis=1)


def dac(pred: PredictionSet, road: RoadMap) -> float:
    """Fraction of modes entirely inside the drivable area."""
    passed = test_boundary(pred, road)
    return int(passed.sum()) / len(passed)


def dao(pred: PredictionSet, road: RoadMap, cfg: DaoConfig) -> float:
    """Scaled share of drivable ROI cells touched by prediction points; the
    ROI is centered on the set's anchor."""
    ax, ay = float(pred.anchor[0]), float(pred.anchor[1])
    half = cfg.roi_side / 2.0
    roi = (ax - half, ay - half, ax + half, ay + half)
    nx = ny = cfg.cells_per_side
    # cell centers; (xs[ix], ys[iy]) is the center of cell (ix, iy)
    xs = roi[0] + (np.arange(nx) + 0.5) * cfg.cell
    ys = roi[1] + (np.arange(ny) + 0.5) * cfg.cell
    # far from the origin, floats are coarser than a cell and the ROI's
    # edges and cell centers merge
    if not (roi[0] < roi[2] and roi[1] < roi[3]
            and (np.diff(xs) > 0).all() and (np.diff(ys) > 0).all()):
        raise DataConsistencyError(
            f"scenario {pred.scenario_id!r}: the DAO lattice of {cfg.cell} m cells "
            f"around the anchor ({ax}, {ay}) is not strictly ascending")
    occupied = geom.rasterize_occupancy(pred.points.reshape(-1, 2), roi, cfg.cell)
    drivable = road.contains_grid(xs, ys)
    if drivable.count == 0:
        return 0.0
    # the occupancy grid may reach one cell further when the ROI edges round
    ix, iy = occupied.T
    on_grid = (ix < nx) & (iy < ny)
    hits = int(drivable.contains(ix[on_grid], iy[on_grid]).sum())
    return hits / drivable.count * cfg.scale


# -- proposed diversity --------------------------------------------------------


def aae(pred: PredictionSet, unit: AngleUnit = AngleUnit.DEG) -> float:
    """Mean pairwise angle between mode displacement vectors.

    Zero-displacement modes carry no direction and are excluded from pairs.
    A set with fewer than two usable modes has no angular spread: 0.
    """
    require_modes(pred)
    vectors = displacement_vector(pred)
    vectors = vectors[geom.lengths(vectors) > geom.DEGENERATE_EPS]
    if len(vectors) < 2:
        return 0.0
    i, j = _pairs(len(vectors))
    angle = mean(geom.angles_between(vectors[i], vectors[j]).tolist())
    return math.degrees(angle) if unit == AngleUnit.DEG else angle


def amv(
    pred: PredictionSet,
    kin: KinematicConfig,
    reduction: Reduction = Reduction.SUM,
) -> float:
    """Mean pairwise accumulated speed-magnitude difference after clipping.

    Each mode is clipped to its kinematically compliant prefix first; a pair
    is compared over the shorter of the two prefixes. Pairs are reduced in
    groups of equal prefix length, so each reduction keeps its length.
    """
    require_modes(pred)
    mags = np.linalg.norm(step_vectors(pred), axis=2)  # (K, steps)
    steps = kinematic_clip(pred, kin)  # points per mode, one step each
    i, j = _pairs(pred.k)
    lengths = np.minimum(steps[i], steps[j])
    pair_values = np.empty(len(i))
    for n in np.unique(lengths):
        sel = np.flatnonzero(lengths == n)
        diffs = np.abs(mags[i[sel], :n] - mags[j[sel], :n])
        pair_values[sel] = (
            diffs.sum(axis=1) if reduction is Reduction.SUM else diffs.mean(axis=1)
        )
    return mean(pair_values.tolist())


# -- triad tests -----------------------------------------------------------


def alignment_confidence(delta_theta):
    """Orientation-variance confidence: 1 at zero deviation, 0 at pi;
    elementwise for an array of deviations."""
    delta = np.asarray(delta_theta, dtype=float)
    return np.maximum(0.0, 1.0 - delta / math.pi)


def _unit(headings) -> np.ndarray:
    """``(N, 2)`` unit vectors ``(cos h, sin h)`` of headings, computed with
    ``math`` like the headings themselves."""
    return np.array([(math.cos(h), math.sin(h)) for h in headings]).reshape(-1, 2)


def test_alignment(pred: PredictionSet, road: RoadMap, cfg: AlignmentConfig):
    """Lane-alignment over each mode's tail; the per-mode arrays
    ``(passed, confidence)``.

    A mode's heading is the chord over the last ``tail_steps`` points;
    confidence is maximized over (tail point, containing lane) pairs and
    compared strictly against the threshold. A tail is moving when its chord
    has a heading (``geom.headings``) and is at least ``stationary_eps``
    long; any other tail falls back to the configured policy. The tail points
    of all modes go through one lane query, and each lane's centerline
    headings through one lookup.
    """
    pts = pred.points
    n_tail = cfg.tail_steps
    if pts.shape[1] < n_tail:
        raise ShapeError(
            f"alignment test needs >= {n_tail} points, got {pts.shape[1]}"
        )
    tails = pts[:, -n_tail:]  # (K, n_tail, 2)
    chords = tails[:, -1] - tails[:, 0]
    heads = geom.headings(chords)
    moving = np.flatnonzero(
        ~np.isnan(heads) & (geom.lengths(chords) >= cfg.stationary_eps)
    )
    passed = np.full(len(tails), cfg.stationary_policy is StationaryPolicy.PASS)
    conf = np.zeros(len(tails))
    if len(moving):
        hvec = _unit(heads[moving].tolist())
        probe = tails[moving].reshape(-1, 2)
        mode_of = np.repeat(np.arange(len(moving)), n_tail)
        point, lane = np.nonzero(road.lanes_containing(probe))
        lane_heading = np.empty(len(point))
        for col in np.unique(lane):
            sel = np.flatnonzero(lane == col)
            lane_heading[sel] = road.lane_heading_at(
                road.lane_ids[col], probe[point[sel]]
            )
        hit_mode = mode_of[point]
        delta = geom.angles_between(hvec[hit_mode], _unit(lane_heading.tolist()))
        best = np.zeros(len(moving))
        np.maximum.at(best, hit_mode, alignment_confidence(delta))
        conf[moving] = best
        passed[moving] = best > cfg.threshold_lac
    return passed, conf


def test_kinematic(pred: PredictionSet, kin: KinematicConfig) -> np.ndarray:
    ok, _, _ = kinematic_window_check(pred, kin)
    return ok


def att(
    pred: PredictionSet,
    road: RoadMap,
    align_cfg: AlignmentConfig,
    kin_cfg: KinematicConfig,
) -> TriadResult:
    """Per-mode triad of boundary, alignment, and kinematic tests."""
    boundary = test_boundary(pred, road)
    alignment, _ = test_alignment(pred, road, align_cfg)
    kinematic = test_kinematic(pred, kin_cfg)
    return TriadResult(
        tuple(boundary.tolist()), tuple(alignment.tolist()), tuple(kinematic.tolist())
    )
