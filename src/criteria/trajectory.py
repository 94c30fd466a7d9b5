"""Trajectory containers and longitudinal kinematics.

The kinematic functions take a ``PredictionSet`` and compute its K modes at
once along the leading axis of its ``(K, T, 2)`` points. Speeds and
accelerations are derived from per-step displacement vectors, starting at
the set's anchor (the agent's last observed position), so the first
predicted step has a defined velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geom
from .errors import InsufficientModesError, SettingError, ShapeError


@dataclass(frozen=True)
class Trajectory:
    """Uniformly-timestamped 2D polyline, ``points`` shaped (N, 2), N >= 2."""

    points: np.ndarray
    dt: float

    def __post_init__(self):
        pts = geom.as_points(self.points)
        if len(pts) < 2:
            raise ValueError("trajectory needs >= 2 points")
        if not self.dt > 0:  # NaN too
            raise ValueError("dt must be positive")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, init=False)
class PredictionSet:
    """K candidate futures for one agent; all modes share length and dt.

    ``points`` is the read-only ``(K, T, 2)`` stack of the modes' points; the
    metrics read it. ``modes`` lists them as ``Trajectory`` objects: those
    passed in, or, for a set made by ``from_points``, built on first use.
    """

    scenario_id: str
    points: np.ndarray = field(repr=False, compare=False)
    dt: float = field(compare=False)
    anchor: np.ndarray  # last observed position, a finite (2,) pair

    def __init__(self, scenario_id: str, modes: list[Trajectory], *, anchor):
        if not modes:
            raise ValueError("prediction set needs at least one mode")
        dt = modes[0].dt
        shape = modes[0].points.shape
        for k, m in enumerate(modes):
            if m.points.shape != shape or m.dt != dt:
                raise ShapeError(
                    f"mode {k} of {scenario_id!r} has mismatched length/dt"
                )
        self._set(scenario_id, np.stack([m.points for m in modes]), dt, anchor)
        self.__dict__["modes"] = modes

    @classmethod
    def from_points(cls, scenario_id: str, points, dt: float,
                    *, anchor) -> "PredictionSet":
        """The set of the modes ``points[k]`` of a finite ``(K, T, 2)``
        block, K >= 1 and T >= 2, sampled every ``dt``; no ``Trajectory`` is
        made until ``modes`` is read."""
        points = np.array(points, dtype=float)
        if points.ndim != 3 or points.shape[2] != 2 or not len(points):
            raise ValueError(f"expected (K, T, 2) points, got shape {points.shape}")
        if points.shape[1] < 2:
            raise ValueError("trajectory needs >= 2 points")
        if not np.isfinite(points).all():
            raise ValueError("points contain NaN or inf")
        if not dt > 0:
            raise ValueError("dt must be positive")
        pred = cls.__new__(cls)
        pred._set(scenario_id, points, dt, anchor)
        return pred

    def _set(self, scenario_id, points, dt, anchor) -> None:
        points.flags.writeable = False
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (2,) or not np.isfinite(anchor).all():
            raise ValueError(f"anchor must be a finite (2,) pair, got {anchor!r}")
        self.__dict__.update(scenario_id=scenario_id, points=points, dt=dt,
                             anchor=anchor)

    @cached_property
    def modes(self) -> list[Trajectory]:
        return [Trajectory(p, self.dt) for p in self.points]

    @property
    def k(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class KinematicConfig:
    """Normal-driving longitudinal acceleration envelope and check window."""

    a_min: float = -2.0
    a_max: float = 1.47
    window: int = 3

    def __post_init__(self):
        SettingError.check_finite(self)
        if self.a_min >= self.a_max:
            raise SettingError("a_min must be < a_max", "a_min", "a_max")
        if self.window < 1:
            raise SettingError("window must be >= 1", "window")


def step_vectors(pred: PredictionSet) -> np.ndarray:
    """Per-step displacement vectors of each mode from the anchor,
    ``(K, T, 2)``."""
    pts = pred.points
    first = np.broadcast_to(pred.anchor, (len(pts), 1, 2))
    return np.diff(np.concatenate([first, pts], axis=1), axis=1)


def speed_profile(pred: PredictionSet) -> np.ndarray:
    return geom.norms(step_vectors(pred)) / pred.dt


def accel_profile(pred: PredictionSet) -> np.ndarray:
    return np.diff(speed_profile(pred), axis=-1) / pred.dt


def kinematic_window_check(pred: PredictionSet, cfg: KinematicConfig):
    """Mean acceleration of each mode over its first and last ``cfg.window``
    samples.

    Returns the per-mode arrays ``(ok, a_init, a_final)``. A mode passes iff
    both means lie in [a_min, a_max] inclusive.
    """
    accels = accel_profile(pred)
    w = min(cfg.window, accels.shape[-1])
    a_init = accels[:, :w].mean(axis=-1)
    a_final = accels[:, -w:].mean(axis=-1)
    ok = (
        (cfg.a_min <= a_init)
        & (a_init <= cfg.a_max)
        & (cfg.a_min <= a_final)
        & (a_final <= cfg.a_max)
    )
    return ok, a_init, a_final


def kinematic_clip(pred: PredictionSet, cfg: KinematicConfig) -> np.ndarray:
    """Each mode's number of kept points: its longest prefix whose every
    acceleration sample is in range.

    The prefix ends at the point producing the last compliant speed, but
    keeps at least 2 points: a mode whose first acceleration sample violates
    keeps 2, as one whose first violation is its second sample does, so its
    clipped speeds include the violating step.
    """
    accels = accel_profile(pred)
    bad = (accels < cfg.a_min) | (accels > cfg.a_max)
    j = np.argmax(bad, axis=-1)  # first violating sample uses speeds j, j+1
    # speed j, counted from the anchor, ends at point index j
    end = np.maximum(j, 1)
    return np.where(bad.any(axis=-1), end + 1, pred.points.shape[1])


def displacement_vector(traj) -> np.ndarray:
    return traj.points[..., -1, :] - traj.points[..., 0, :]


def require_modes(pred: PredictionSet, minimum: int = 2) -> None:
    if pred.k < minimum:
        raise InsufficientModesError(
            f"{pred.scenario_id!r}: need >= {minimum} modes, got {pred.k}"
        )
