"""Lane-level HD-map model and the queries the admissibility tests need."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geom
from .errors import DegenerateHeadingError, InvalidMapError

log = logging.getLogger(__name__)

# Centerlines may wander this far outside their lane polygon (meters).
CENTERLINE_TOL = 0.5


class Turn(Enum):
    NONE = "NONE"
    LEFT = "LEFT"
    RIGHT = "RIGHT"


@dataclass(frozen=True)
class LaneSegment:
    id: str
    centerline: np.ndarray  # (N, 2), N >= 2
    polygon: np.ndarray  # CCW ring, (N, 2), N >= 3
    turn: Turn = Turn.NONE
    is_intersection: bool = False
    successors: tuple[str, ...] = ()
    left_neighbor: str | None = None
    right_neighbor: str | None = None

    def __post_init__(self):
        cl = geom.as_points(self.centerline)
        if len(cl) < 2:
            raise InvalidMapError(f"lane {self.id!r}: centerline needs >= 2 points")
        object.__setattr__(self, "centerline", cl)
        object.__setattr__(self, "polygon", geom.normalize_ring(self.polygon))
        object.__setattr__(self, "successors", tuple(self.successors))


def _tangents(line: geom.Polyline, headings: np.ndarray) -> np.ndarray:
    """``line.tangent(i)`` of every segment ``i``, NaN where it raises, from
    ``headings``, the ``geom.headings`` of ``line.ab``: a degenerate segment
    falls back to the first usable one."""
    usable = np.flatnonzero(line.seg_len > geom.DEGENERATE_EPS)
    fallback = headings[usable[0]] if len(usable) else math.nan
    return np.where(line.denom > 0, headings, fallback)


def _stack(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_i, 2)`` ``arrays`` stacked, and the row where each starts."""
    sizes = np.array([len(a) for a in arrays], dtype=np.int64)
    return np.concatenate([np.empty((0, 2)), *arrays]), np.cumsum(sizes) - sizes


def is_turn_lane(lane: LaneSegment) -> bool:
    """An intersection lane tagged LEFT or RIGHT."""
    return lane.is_intersection and lane.turn in (Turn.LEFT, Turn.RIGHT)


class RoadMap:
    """Immutable lane map whose drivable rings and lane polygons are laid
    out once, as two ``geom.RingTable``s, for batched point queries."""

    def __init__(
        self,
        map_id: str,
        lanes: list[LaneSegment],
        drivable: list[np.ndarray],
    ):
        self.map_id = map_id
        self.lanes = {}
        for lane in lanes:
            if lane.id in self.lanes:
                raise InvalidMapError(f"duplicate lane id {lane.id!r}")
            self.lanes[lane.id] = lane
        self.drivable = [geom.normalize_ring(r) for r in drivable]
        self._drivable = geom.RingTable(self.drivable)
        # lane ids in sorted order; the lane table's rings and the lane
        # masks' columns follow it
        self.lane_ids = tuple(sorted(self.lanes))
        self._lanes = geom.RingTable([self.lanes[i].polygon for i in self.lane_ids])
        self._validate()
        self._centerlines = {
            lane_id: geom.Polyline(lane.centerline)
            for lane_id, lane in self.lanes.items()
        }
        # every segment's tangent heading; NaN where none is usable
        ab, starts = _stack([line.ab for line in self._centerlines.values()])
        headings = np.split(geom.headings(ab), starts[1:])
        self._tangents = {
            lane_id: _tangents(line, h)
            for (lane_id, line), h in zip(self._centerlines.items(), headings)
        }

    def _validate(self) -> None:
        lanes = list(self.lanes.values())
        for lane in lanes:
            for succ in lane.successors:
                if succ not in self.lanes:
                    raise InvalidMapError(
                        f"lane {lane.id!r}: successor {succ!r} not in map"
                    )
        if not lanes:
            return
        # every centerline point against its own lane, with the tolerance as
        # the boundary band: a point outside that band strays too far
        col = {lane_id: c for c, lane_id in enumerate(self.lane_ids)}
        points, starts = _stack([lane.centerline for lane in lanes])
        own = np.repeat([col[lane.id] for lane in lanes],
                        [len(lane.centerline) for lane in lanes])
        near = self._lanes.contains(points, CENTERLINE_TOL)[np.arange(len(points)), own]
        stray = np.flatnonzero(~np.logical_and.reduceat(near, starts))
        if len(stray):
            lane = lanes[stray[0]]
            inside = geom.points_in_polygon(lane.centerline, lane.polygon)
            d = geom.distance_to_ring(lane.centerline[~inside], lane.polygon)
            raise InvalidMapError(
                f"lane {lane.id!r}: centerline strays "
                f"{d.max():.2f} m outside its polygon"
            )
        # one drivable-area query for every lane polygon vertex
        vertices, starts = _stack([lane.polygon for lane in lanes])
        covered = np.logical_and.reduceat(self.contains_many(vertices), starts)
        for j in np.flatnonzero(~covered):
            log.warning(
                "map %s: lane %s polygon not fully inside drivable area",
                self.map_id,
                lanes[j].id,
            )

    # -- queries ---------------------------------------------------------

    def _lane_mask(self, points, eps: float):
        """Lanes within ``eps`` of ``(N, 2)`` points (inside counts) as an
        ``(N, len(lane_ids))`` mask whose columns follow ``lane_ids``; for one
        ``(2,)`` point, the sorted ids of those lanes."""
        mask = self._lanes.contains(geom.as_points(points), eps)
        if np.ndim(points) == 1:
            return [self.lane_ids[col] for col in np.flatnonzero(mask[0])]
        return mask

    def lanes_containing(self, points):
        """Lane membership of ``(N, 2)`` points (boundary counts) as an
        ``(N, len(lane_ids))`` mask whose columns follow ``lane_ids``; for one
        ``(2,)`` point, the sorted ids of the lanes that contain it."""
        return self._lane_mask(points, geom.BOUNDARY_EPS)

    def lanes_within_radius(self, points, r: float):
        """Lanes inside or within ``r`` of each of ``(N, 2)`` points as an
        ``(N, len(lane_ids))`` mask whose columns follow ``lane_ids``; for one
        ``(2,)`` point, the sorted ids of those lanes. A lane's boundary band
        is never narrower than the containment test's."""
        if not r > 0:
            raise ValueError("radius must be positive")
        return self._lane_mask(points, max(float(r), geom.BOUNDARY_EPS))

    def lane_heading_at(self, lane_id: str, points):
        """Tangent heading of the lane's centerline at the point nearest to
        each of ``(N, 2)`` points, as an ``(N,)`` array; a float for one
        ``(2,)`` point."""
        pts = np.asarray(points, float)
        seg, _, _ = self._centerlines[lane_id].nearest(pts)
        headings = self._tangents[lane_id][seg]
        if np.isnan(headings).any():
            raise DegenerateHeadingError(
                f"lane {lane_id!r}: centerline has no usable direction there"
            )
        return float(headings[0]) if pts.ndim == 1 else headings

    def contains_many(self, points) -> np.ndarray:
        """Vectorized drivable-area membership for a batch of points."""
        return self._drivable.contains(geom.as_points(points)).any(axis=1)

    def contains_grid(self, xs, ys) -> geom.GridCover:
        """Drivable-area membership of the grid points ``(xs[i], ys[j])`` as
        a ``geom.GridCover``: its ``count`` of covered cells, and
        ``contains(i, j)``, which equals ``contains_many`` on those points.
        ``xs`` and ``ys`` must be ascending."""
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("grid coordinates contain NaN or inf")
        if (xs[1:] < xs[:-1]).any() or (ys[1:] < ys[:-1]).any():
            raise ValueError("grid coordinates must be ascending")
        return self._drivable.grid(xs, ys)
