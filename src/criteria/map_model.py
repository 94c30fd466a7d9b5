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


def _tangent_or_nan(line: geom.Polyline, i: int) -> float:
    try:
        return line.tangent(i)
    except DegenerateHeadingError:
        return math.nan


def is_turn_lane(lane: LaneSegment) -> bool:
    """An intersection lane tagged LEFT or RIGHT."""
    return lane.is_intersection and lane.turn in (Turn.LEFT, Turn.RIGHT)


class RoadMap:
    """Immutable lane map whose drivable rings and lane polygons are prepared
    once, with padded bounding boxes, for batched point queries."""

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
        self._drivable_rings = [geom.Ring(r) for r in self.drivable]
        # (4, R): padded min_x, min_y, max_x, max_y of every drivable ring
        self._drivable_boxes = np.array(
            [ring.box for ring in self._drivable_rings], dtype=float
        ).reshape(-1, 4).T
        self._drivable_edges = geom.edge_table(self._drivable_rings)
        self._lane_rings = {
            lane_id: geom.Ring(lane.polygon) for lane_id, lane in self.lanes.items()
        }
        self._validate()
        # lane ids in sorted order; the lane masks' columns follow it
        self.lane_ids = tuple(sorted(self.lanes))
        self._lane_boxes = np.array(
            [self._lane_rings[i].box for i in self.lane_ids], dtype=float
        ).reshape(-1, 4).T
        self._centerlines = {
            lane_id: geom.Polyline(lane.centerline)
            for lane_id, lane in self.lanes.items()
        }
        # every segment's tangent heading; NaN where none is usable
        self._tangents = {
            lane_id: np.array([_tangent_or_nan(line, i) for i in range(len(line.a))])
            for lane_id, line in self._centerlines.items()
        }

    def _validate(self) -> None:
        # one drivable-area query for every lane polygon vertex
        polygons = [lane.polygon for lane in self.lanes.values()]
        covered = (
            np.split(
                self.contains_many(np.vstack(polygons)),
                np.cumsum([len(p) for p in polygons])[:-1],
            )
            if polygons
            else []
        )
        for lane, lane_covered in zip(self.lanes.values(), covered):
            for succ in lane.successors:
                if succ not in self.lanes:
                    raise InvalidMapError(
                        f"lane {lane.id!r}: successor {succ!r} not in map"
                    )
            inside = self._lane_rings[lane.id].contains(lane.centerline)
            if not inside.all():
                outside = lane.centerline[~inside]
                d = geom.distance_to_ring(outside, lane.polygon)
                if d.max() > CENTERLINE_TOL:
                    raise InvalidMapError(
                        f"lane {lane.id!r}: centerline strays "
                        f"{d.max():.2f} m outside its polygon"
                    )
            if not lane_covered.all():
                log.warning(
                    "map %s: lane %s polygon not fully inside drivable area",
                    self.map_id,
                    lane.id,
                )

    # -- queries ---------------------------------------------------------

    def _lane_mask(self, points, eps: float):
        """Lanes within ``eps`` of ``(N, 2)`` points (inside counts) as an
        ``(N, len(lane_ids))`` mask whose columns follow ``lane_ids``; for one
        ``(2,)`` point, the sorted ids of those lanes.

        Each lane runs the exact test only on the points inside its padded
        bounding box widened by ``eps``; a point outside it is farther than
        ``eps`` from the lane.
        """
        pts = geom.as_points(points)
        x, y = pts[:, 0:1], pts[:, 1:2]
        x0, y0, x1, y1 = self._lane_boxes
        in_box = (
            (x >= x0 - eps) & (x <= x1 + eps) & (y >= y0 - eps) & (y <= y1 + eps)
        )  # (N, L)
        mask = np.zeros_like(in_box)
        for col in np.flatnonzero(in_box.any(axis=0)):
            rows = np.flatnonzero(in_box[:, col])
            ring = self._lane_rings[self.lane_ids[col]]
            mask[rows, col] = ring.contains(pts[rows], eps)
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
        """Vectorized drivable-area membership for a batch of points.

        Each ring runs the exact test only on the points not yet inside that
        fall in its padded bounding box.
        """
        pts = geom.as_points(points)
        x, y = pts[:, 0:1], pts[:, 1:2]
        x0, y0, x1, y1 = self._drivable_boxes
        in_box = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)  # (N, R)
        inside = np.zeros(len(pts), dtype=bool)
        for r in np.flatnonzero(in_box.any(axis=0)):
            todo = in_box[:, r] & ~inside
            if todo.any():
                inside[todo] = self._drivable_rings[r].contains(pts[todo])
        return inside

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
        edges, ring_of = self._drivable_edges
        if len(xs) and len(ys):
            x0, y0, x1, y1 = self._drivable_boxes
            overlaps = (x1 >= xs[0]) & (x0 <= xs[-1]) & (y1 >= ys[0]) & (y0 <= ys[-1])
            keep = overlaps[ring_of]
            edges, ring_of = edges[:, keep], ring_of[keep]
        return geom.grid_in_rings(xs, ys, edges, ring_of)
