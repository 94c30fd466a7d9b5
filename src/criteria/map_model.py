"""Lane-level HD-map model and the queries the admissibility tests need."""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geom
from .errors import InvalidMapError

log = logging.getLogger(__name__)

# Centerlines may wander this far outside their lane polygon (meters).
CENTERLINE_TOL = 0.5


class Turn(Enum):
    NONE = "NONE"
    LEFT = "LEFT"
    RIGHT = "RIGHT"


@dataclass(frozen=True)
class LaneSegment:
    """One lane as read. ``RoadMap`` checks its geometry and holds it with
    float arrays and a counter-clockwise polygon."""

    id: str
    centerline: np.ndarray  # (N, 2), N >= 2
    polygon: np.ndarray  # ring, (N, 2), N >= 3
    turn: Turn = Turn.NONE
    is_intersection: bool = False
    successors: tuple[str, ...] = ()
    left_neighbor: str | None = None
    right_neighbor: str | None = None


def is_turn_lane(lane: LaneSegment) -> bool:
    """An intersection lane tagged LEFT or RIGHT."""
    return lane.is_intersection and lane.turn in (Turn.LEFT, Turn.RIGHT)


class RoadMap:
    """Immutable lane map, checked and laid out once when built: one
    ``geom.lay_out_polylines`` call lays out every centerline segment as one
    table, in file order, and refuses a centerline with no direction; the
    lane polygons and the drivable rings are two ``geom.RingTable``s, each
    checked, turned counter-clockwise and laid out in one pass, in file
    order, for batched point queries. ``lane_ids`` are the lane ids in
    sorted order; the lane masks' columns, the ``turn_lanes`` mask and each
    lane's run of centerline segments follow it."""

    def __init__(
        self,
        map_id: str,
        lanes: list[LaneSegment],
        drivable: list[np.ndarray],
    ):
        self.map_id = map_id
        try:
            lines, points, self._segs, self._tangents, lo, hi = geom.lay_out_polylines(
                [lane.centerline for lane in lanes])
        except (TypeError, ValueError) as e:
            raise InvalidMapError(f"lane {lanes[e.index].id!r}: centerline: {e}") from e
        try:
            self._lanes = geom.RingTable([lane.polygon for lane in lanes])
        except (TypeError, ValueError, InvalidMapError) as e:
            raise InvalidMapError(f"lane {lanes[e.index].id!r}: polygon: {e}") from e
        try:
            self._drivable = geom.RingTable(drivable)
        except (TypeError, ValueError, InvalidMapError) as e:
            raise InvalidMapError(f"drivable_area[{e.index}]: {e}") from e
        self.drivable = self._drivable.rings
        self.lanes = {}
        for lane, line, polygon in zip(lanes, lines, self._lanes.rings):
            if lane.id in self.lanes:
                raise InvalidMapError(f"duplicate lane id {lane.id!r}")
            if line is not lane.centerline or polygon is not lane.polygon:
                lane = dataclasses.replace(lane, centerline=line, polygon=polygon)
            self.lanes[lane.id] = lane
        # order[c] is the file position of lane_ids[c]
        order = sorted(range(len(lanes)), key=lambda i: lanes[i].id)
        self._order = np.array(order, dtype=np.int64)
        self.lane_ids = tuple(lanes[i].id for i in order)
        self.turn_lanes = np.array([is_turn_lane(lanes[i]) for i in order], dtype=bool)
        self._seg_lo, self._seg_hi = lo[order], hi[order]
        self._validate(points, lo + np.arange(len(lanes)))

    def _validate(self, points: np.ndarray, starts: np.ndarray) -> None:
        """Check the map in file order: each lane's successors, then its
        centerline ``points[starts[i]:starts[i + 1]]`` against its own
        polygon, ring ``i`` of the lane table; and warn of each lane polygon
        with a vertex off the drivable area."""
        lanes = list(self.lanes.values())
        for lane in lanes:
            for succ in lane.successors:
                if succ not in self.lanes:
                    raise InvalidMapError(
                        f"lane {lane.id!r}: successor {succ!r} not in map"
                    )
        if not lanes:
            return
        # every centerline point against its own lane's edges, with the
        # tolerance as the boundary band: a point outside it strays too far
        own = np.repeat(np.arange(len(lanes)), np.diff(starts, append=len(points)))
        near = self._lanes.holds(points, own, CENTERLINE_TOL)
        stray = np.flatnonzero(~np.logical_and.reduceat(near, starts))
        if len(stray):
            lane = lanes[stray[0]]
            inside = geom.points_in_polygon(lane.centerline, lane.polygon)
            d = geom.distance_to_ring(lane.centerline[~inside], lane.polygon)
            raise InvalidMapError(
                f"lane {lane.id!r}: centerline strays "
                f"{d.max():.2f} m outside its polygon"
            )
        # one drivable-area query for every lane polygon vertex: the start
        # of each edge of the lane table
        off = np.zeros(len(lanes), dtype=bool)
        off[self._lanes.ring_of[~self.contains_many(self._lanes.edges[:2].T)]] = True
        for j in np.flatnonzero(off):
            log.warning(
                "map %s: lane %s polygon not fully inside drivable area",
                self.map_id,
                lanes[j].id,
            )

    # -- queries ---------------------------------------------------------

    def lanes_containing(self, points) -> np.ndarray:
        """Lane membership of ``(N, 2)`` points (boundary counts) as an
        ``(N, len(lane_ids))`` mask whose columns follow ``lane_ids``."""
        mask = self._lanes.contains(geom.as_points(points), geom.BOUNDARY_EPS)
        return mask.take(self._order, axis=1)

    def lanes_within_radius(self, points, r: float) -> np.ndarray:
        """Lanes inside or within ``r`` of each of ``(N, 2)`` points as an
        ``(N, len(lane_ids))`` mask whose columns follow ``lane_ids``. A
        lane's boundary band is never narrower than the containment test's."""
        if not r > 0:
            raise ValueError("radius must be positive")
        mask = self._lanes.contains(geom.as_points(points),
                                    max(float(r), geom.BOUNDARY_EPS))
        return mask.take(self._order, axis=1)

    def lane_heading_at(self, cols, points) -> np.ndarray:
        """Tangent heading of the centerline of lane ``lane_ids[cols[m]]``,
        and of its segments only, at its point nearest to each of the ``(M,
        2)`` points, as an ``(M,)`` array. Every centerline has a direction
        (the map refuses one that has none), so every heading is defined."""
        seg, _ = geom.nearest_segments(points, self._seg_lo[cols], self._seg_hi[cols],
                                       self._segs)
        return self._tangents[seg]

    def contains_many(self, points) -> np.ndarray:
        """Drivable-area membership of ``(N, 2)`` points: in the union of
        the drivable rings, boundary band included."""
        return self._drivable.contains(geom.as_points(points), union=True)

    def contains_grid(self, xs, ys) -> geom.GridCover:
        """Drivable-area membership of the grid points ``(xs[i], ys[j])`` as
        the ``geom.GridCover`` of ``geom.RingTable.grid``: its ``count`` of
        covered cells, and ``contains(i, j)``, which equals ``contains_many``
        (the even-odd rule with the ``geom.BOUNDARY_EPS`` band) on those
        points. ``xs`` and ``ys`` must be ascending."""
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("grid coordinates contain NaN or inf")
        if (xs[1:] < xs[:-1]).any() or (ys[1:] < ys[:-1]).any():
            raise ValueError("grid coordinates must be ascending")
        return self._drivable.grid(xs, ys)
