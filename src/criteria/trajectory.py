"""Trajectory containers and longitudinal kinematics.

Speeds and accelerations are derived from per-step displacement vectors.
When the last observed position (the anchor) is known it is prepended, so
the first predicted step has a defined velocity.

The kinematic functions take anything with ``points`` and ``dt``: a
``Trajectory`` (points ``(T, 2)``) or a ``PredictionSet`` (points
``(K, T, 2)``), whose K modes are computed at once along the leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import geom
from .errors import InsufficientModesError, ShapeError, TooShortError


@dataclass(frozen=True)
class Trajectory:
    """Uniformly-timestamped 2D polyline, ``points`` shaped (N, 2), N >= 2."""

    points: np.ndarray
    dt: float

    def __post_init__(self):
        pts = geom.as_points(self.points)
        if len(pts) < 2:
            raise ValueError("trajectory needs >= 2 points")
        if self.dt <= 0:
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
    probabilities: list[float] | None = None
    anchor: np.ndarray | None = None  # last observed position

    def __init__(self, scenario_id: str, modes: list[Trajectory],
                 probabilities: list[float] | None = None, anchor=None):
        if not modes:
            raise ValueError("prediction set needs at least one mode")
        dt = modes[0].dt
        shape = modes[0].points.shape
        for k, m in enumerate(modes):
            if m.points.shape != shape or m.dt != dt:
                raise ShapeError(
                    f"mode {k} of {scenario_id!r} has mismatched length/dt"
                )
        self._set(scenario_id, np.stack([m.points for m in modes]), dt,
                  probabilities, anchor)
        self.__dict__["modes"] = modes

    @classmethod
    def from_points(cls, scenario_id: str, points, dt: float,
                    probabilities: list[float] | None = None,
                    anchor=None) -> "PredictionSet":
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
        pred._set(scenario_id, points, dt, probabilities, anchor)
        return pred

    def _set(self, scenario_id, points, dt, probabilities, anchor) -> None:
        points.flags.writeable = False
        if probabilities is not None:
            if len(probabilities) != len(points):
                raise ShapeError("probabilities length != number of modes")
            if not all(math.isfinite(p) and p >= 0 for p in probabilities):
                raise ValueError("probabilities must be finite and non-negative")
            if abs(sum(probabilities) - 1.0) > 1e-6:
                raise ValueError("probabilities must sum to 1")
        if anchor is not None:
            anchor = np.asarray(anchor, float).reshape(2)
        self.__dict__.update(scenario_id=scenario_id, points=points, dt=dt,
                             probabilities=probabilities, anchor=anchor)

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
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.a_min >= self.a_max:
            raise ValueError("a_min must be < a_max")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.anchor is not None:
            object.__setattr__(
                self, "anchor", np.asarray(self.anchor, float).reshape(2)
            )

    def with_anchor(self, anchor) -> "KinematicConfig":
        return replace(self, anchor=anchor)


def scalar_or_array(values: np.ndarray):
    """A Python scalar for a 0-d result (one trajectory's), else the array."""
    return values.item() if values.ndim == 0 else values


def step_vectors(traj, anchor=None) -> np.ndarray:
    """Per-step displacement vectors, ``(..., T, 2)`` with anchor else
    ``(..., T-1, 2)``."""
    pts = traj.points
    if anchor is not None:
        first = np.asarray(anchor, float).reshape(2)
        pts = np.concatenate(
            [np.broadcast_to(first, pts.shape[:-2] + (1, 2)), pts], axis=-2
        )
    return np.diff(pts, axis=-2)


def speed_profile(traj, anchor=None) -> np.ndarray:
    return np.linalg.norm(step_vectors(traj, anchor), axis=-1) / traj.dt


def accel_profile(traj, anchor=None) -> np.ndarray:
    speeds = speed_profile(traj, anchor)
    if speeds.shape[-1] < 2:
        raise TooShortError("too short for acceleration (need >= 2 speed samples)")
    return np.diff(speeds, axis=-1) / traj.dt


def kinematic_window_check(traj, cfg: KinematicConfig):
    """Mean acceleration over the first and last ``cfg.window`` samples.

    Returns ``(ok, a_init, a_final)``, per mode for a prediction set. Passes
    iff both means lie in [a_min, a_max] inclusive.
    """
    accels = accel_profile(traj, cfg.anchor)
    w = min(cfg.window, accels.shape[-1])
    a_init = accels[..., :w].mean(axis=-1)
    a_final = accels[..., -w:].mean(axis=-1)
    ok = (
        (cfg.a_min <= a_init)
        & (a_init <= cfg.a_max)
        & (cfg.a_min <= a_final)
        & (a_final <= cfg.a_max)
    )
    return scalar_or_array(ok), scalar_or_array(a_init), scalar_or_array(a_final)


def kinematic_clip(traj, cfg: KinematicConfig):
    """Longest prefix whose every acceleration sample is in range.

    The prefix ends at the point producing the last compliant speed; a
    trajectory violating from the first sample keeps the minimal 2-point
    prefix (or its first point plus anchor step when anchored).

    A ``Trajectory`` comes back clipped; for a prediction set the clipped
    modes would be ragged, so it returns each mode's number of kept points.
    """
    n_points = traj.points.shape[-2]
    try:
        accels = accel_profile(traj, cfg.anchor)
    except TooShortError:
        keep = np.full(traj.points.shape[:-2], n_points)
    else:
        bad = (accels < cfg.a_min) | (accels > cfg.a_max)
        j = np.argmax(bad, axis=-1)  # first violating sample uses speeds j, j+1
        # speed j ends at point index j+1 without anchor, j with anchor
        end = np.maximum(j if cfg.anchor is not None else j + 1, 1)
        keep = np.where(bad.any(axis=-1), end + 1, n_points)
    if not isinstance(traj, Trajectory):
        return keep
    n = int(keep)
    return traj if n == n_points else Trajectory(traj.points[:n], traj.dt)


def displacement_vector(traj) -> np.ndarray:
    return traj.points[..., -1, :] - traj.points[..., 0, :]


def require_modes(pred: PredictionSet, minimum: int = 2) -> None:
    if pred.k < minimum:
        raise InsufficientModesError(
            f"{pred.scenario_id!r}: need >= {minimum} modes, got {pred.k}"
        )
