"""Deterministic desk-scale fixtures: maps, scenarios, and toy predictors.

Everything is a pure function of (spec, seed). Randomness uses numpy's
PCG64 via ``default_rng``; per-scenario streams are derived with
``SeedSequence([seed, index])`` so generation parallelizes reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geom
from .map_model import LaneSegment, RoadMap, Turn
from .scenario import ScenarioRecord
from .trajectory import PredictionSet, Trajectory

ROAD_HALF = 200.0  # roads span [-ROAD_HALF, ROAD_HALF]
DILATION = 0.3  # drivable margin around lane surfaces
SPEED_RANGE = (5.0, 15.0)
LANE_WIDTH = 3.7
DT = 0.1  # seconds per step
OBS_STEPS = 20  # observed points per scenario
PRED_STEPS = 30  # future points per scenario


class MapKind(Enum):
    STRAIGHT = "STRAIGHT"
    T_INTERSECTION = "T_INTERSECTION"
    CROSSROADS = "CROSSROADS"


@dataclass(frozen=True)
class SynthSpec:
    kind: MapKind = MapKind.STRAIGHT
    lanes_per_direction: int = 2
    seed: int = 0
    n_scenarios: int = 10

    def __post_init__(self):
        if self.lanes_per_direction < 1 or self.n_scenarios < 1:
            raise ValueError("counts must be >= 1")


# -- geometry helpers --------------------------------------------------------


def _corridor(centerline: np.ndarray, half_width: float) -> np.ndarray:
    """Offset a polyline by +-half_width into a simple ring."""
    pts = np.asarray(centerline, float)
    segs = np.diff(pts, axis=0)
    seg_dirs = segs / np.linalg.norm(segs, axis=1, keepdims=True)
    tangents = np.empty_like(pts)
    tangents[0] = seg_dirs[0]
    tangents[-1] = seg_dirs[-1]
    if len(pts) > 2:
        mids = seg_dirs[:-1] + seg_dirs[1:]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        tangents[1:-1] = mids
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    left = pts + half_width * normals
    right = pts - half_width * normals
    return np.vstack([left, right[::-1]])


def _line(p0, p1, step: float = 20.0) -> np.ndarray:
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    n = max(2, int(math.ceil(np.linalg.norm(p1 - p0) / step)) + 1)
    return np.linspace(p0, p1, n)


def _bezier(a, c, b, n: int = 12) -> np.ndarray:
    """Quadratic Bezier from ``a`` toward control ``c`` ending at ``b``."""
    a, c, b = (np.asarray(v, float) for v in (a, c, b))
    t = np.linspace(0.0, 1.0, n)[:, None]
    return (1 - t) ** 2 * a + 2 * t * (1 - t) * c + t**2 * b


def _lane(lane_id, centerline, width, turn=Turn.NONE, is_intersection=False,
          successors=()):
    return LaneSegment(
        id=lane_id,
        centerline=centerline,
        polygon=_corridor(centerline, width / 2.0),
        turn=turn,
        is_intersection=is_intersection,
        successors=tuple(successors),
    )


# -- map generation ----------------------------------------------------------


def gen_map(spec: SynthSpec) -> RoadMap:
    n = spec.lanes_per_direction
    w = LANE_WIDTH
    box = n * w + 5.0  # intersection half-extent along the main road
    lanes: list[LaneSegment] = []

    def add(*args, **kwargs):
        lanes.append(_lane(*args, **kwargs))

    # East-west main road, right-hand traffic: eastbound at y < 0.
    y_east = [-(w / 2 + i * w) for i in range(n)]
    y_west = [+(w / 2 + i * w) for i in range(n)]

    if spec.kind is MapKind.STRAIGHT:
        for i, y in enumerate(y_east):
            add(f"E{i}", _line((-ROAD_HALF, y), (ROAD_HALF, y)), w)
        for i, y in enumerate(y_west):
            add(f"W{i}", _line((ROAD_HALF, y), (-ROAD_HALF, y)), w)
    else:
        # Branch/crossing lane x-positions (northbound east of center for
        # crossroads; centered corridor for the T branch).
        crossroads = spec.kind is MapKind.CROSSROADS
        if crossroads:
            x_north = [+(w / 2 + i * w) for i in range(n)]
            x_south = [-(w / 2 + i * w) for i in range(n)]
        else:
            x_north = [(i + 0.5) * w - n * w / 2 for i in range(n)]
        branch_y0 = box

        for i, y in enumerate(y_east):
            turn_id = f"EL{i}"
            add(f"E{i}a", _line((-ROAD_HALF, y), (-box, y)), w,
                successors=[f"E{i}t", turn_id])
            add(f"E{i}t", _line((-box, y), (box, y)), w,
                is_intersection=True, successors=[f"E{i}x"])
            add(f"E{i}x", _line((box, y), (ROAD_HALF, y)), w)
            xb = x_north[i]
            add(turn_id, _bezier((-box, y), (xb, y), (xb, branch_y0)), w,
                turn=Turn.LEFT, is_intersection=True, successors=[f"N{i}"])
        for i, y in enumerate(y_west):
            turn_id = f"WR{i}"
            add(f"W{i}a", _line((ROAD_HALF, y), (box, y)), w,
                successors=[f"W{i}t", turn_id])
            add(f"W{i}t", _line((box, y), (-box, y)), w,
                is_intersection=True, successors=[f"W{i}x"])
            add(f"W{i}x", _line((-box, y), (-ROAD_HALF, y)), w)
            xb = x_north[i]
            add(turn_id, _bezier((box, y), (xb, y), (xb, branch_y0)), w,
                turn=Turn.RIGHT, is_intersection=True, successors=[f"N{i}"])

        for i, x in enumerate(x_north):
            add(f"N{i}", _line((x, branch_y0), (x, ROAD_HALF)), w)
            if crossroads:
                add(f"N{i}in", _line((x, -ROAD_HALF), (x, branch_y0)), w,
                    successors=[f"N{i}"])
        if crossroads:
            for i, x in enumerate(x_south):
                add(f"S{i}", _line((x, ROAD_HALF), (x, -ROAD_HALF)), w)

    drivable = [
        _corridor(lane.centerline, w / 2.0 + DILATION) for lane in lanes
    ]
    return RoadMap(map_id=f"synth-{spec.kind.value}-{spec.seed}",
                   lanes=lanes, drivable=drivable)


# -- scenario generation -----------------------------------------------------


def _spawn_lane_ids(road: RoadMap, spec: SynthSpec) -> list[str]:
    """Lanes where the straight continuation of the heading stays on-road."""
    if spec.kind is MapKind.STRAIGHT:
        return sorted(road.lanes)
    ids = [i for i in road.lanes if i.endswith("a")]  # main-road approaches
    ids += [i for i in road.lanes
            if i.startswith("N") and not i.endswith("in") and "t" not in i]
    if spec.kind is MapKind.CROSSROADS:
        ids += [i for i in road.lanes if i.startswith("S")]
    return sorted(set(ids))


def _route_polyline(road: RoadMap, lane_id: str, rng) -> np.ndarray:
    """Concatenate centerlines along a random successor chain."""
    chain = [lane_id]
    for _ in range(8):
        succ = road.lanes[chain[-1]].successors
        if not succ:
            break
        chain.append(succ[int(rng.integers(len(succ)))])
    return _chain_polyline(road, chain)


def _points_at(polyline: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The ``(N, 2)`` points at arc lengths ``s`` along ``polyline``, each
    clamped to the line; a zero-length segment gives its start point."""
    seg = np.diff(polyline, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    s = np.clip(s, 0.0, cum[-1])
    i = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(lens) - 1)
    t = np.divide(s - cum[i], lens[i], out=np.zeros_like(s), where=lens[i] > 0)
    return polyline[i] + t[:, None] * seg[i]


def gen_scenarios(road: RoadMap, spec: SynthSpec) -> list[ScenarioRecord]:
    spawnable = _spawn_lane_ids(road, spec)
    records = []
    for idx in range(spec.n_scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, idx]))
        for _ in range(64):  # resample until route fits the motion budget
            lane_id = spawnable[int(rng.integers(len(spawnable)))]
            speed = float(rng.uniform(*SPEED_RANGE))
            route = _route_polyline(road, lane_id, rng)
            total = geom.arc_length(route)
            # keep the whole observation on the (straight) spawn lane so a
            # constant-velocity continuation stays on-road
            first_len = geom.arc_length(road.lanes[lane_id].centerline)
            behind = (OBS_STEPS - 1) * DT * speed
            ahead = PRED_STEPS * DT * speed
            s0_max = min(first_len, total - ahead) - 1.0
            if behind <= s0_max:
                break
        else:
            raise RuntimeError("could not place agent on any route")
        # bias toward the lane end so prediction horizons reach intersections
        s0_min = max(behind, s0_max - 0.5 * ahead)
        s0 = float(rng.uniform(s0_min, s0_max))
        offsets = s0 + speed * DT * np.arange(-(OBS_STEPS - 1), PRED_STEPS + 1)
        pts = _points_at(route, offsets)
        records.append(
            ScenarioRecord(
                id=f"s{idx:04d}",
                map_id=road.map_id,
                agent_id=f"a{idx:04d}",
                dt=DT,
                past=Trajectory(pts[:OBS_STEPS], DT),
                future=Trajectory(pts[OBS_STEPS:], DT),
            )
        )
    return records


# -- toy predictors ----------------------------------------------------------


class PredictorKind(Enum):
    CONST_VEL = "CONST_VEL"
    LANE_FAN = "LANE_FAN"
    NOISY = "NOISY"


def _const_vel_points(rec: ScenarioRecord, horizon: int) -> np.ndarray:
    anchor = rec.past.points[-1]
    step = rec.past.points[-1] - rec.past.points[-2]
    return anchor + np.outer(np.arange(1, horizon + 1), step)


def _routes_from(road: RoadMap, lane_id: str, max_depth: int = 4) -> list[list[str]]:
    routes = []

    def walk(chain):
        succ = road.lanes[chain[-1]].successors
        if not succ or len(chain) >= max_depth:
            routes.append(chain)
            return
        for s in succ:
            walk(chain + [s])

    walk([lane_id])
    return routes


def _chain_polyline(road: RoadMap, chain: list[str]) -> np.ndarray:
    pts = [road.lanes[chain[0]].centerline]
    for lane_id in chain[1:]:
        pts.append(road.lanes[lane_id].centerline[1:])
    return np.vstack(pts)


def toy_predict(
    kind: PredictorKind,
    rec: ScenarioRecord,
    road: RoadMap,
    k: int,
    seed: int,
) -> PredictionSet:
    if k < 2:
        raise ValueError("need K >= 2 modes")
    horizon = len(rec.future)
    anchor = rec.past.points[-1]
    obs_speed = float(
        np.linalg.norm(rec.past.points[-1] - rec.past.points[-2]) / rec.dt
    )

    if kind is PredictorKind.CONST_VEL:
        points = np.broadcast_to(_const_vel_points(rec, horizon), (k, horizon, 2))
    elif kind is PredictorKind.NOISY:
        base = _const_vel_points(rec, horizon)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        # one draw gives the same stream as k draws of one mode each
        points = base + rng.normal(0.0, 1.0, size=(k, horizon, 2))
    else:  # LANE_FAN
        containing = np.flatnonzero(road.lanes_containing(anchor)[0])
        if not len(containing):
            raise ValueError(f"scenario {rec.id!r}: anchor is off every lane")
        chains = _routes_from(road, road.lane_ids[containing[0]])[:k]
        m = np.arange(k)
        # speed * dt first, then times the step index: the fixture bytes
        # depend on this order
        steps = obs_speed * (0.7 + 0.6 * m / (k - 1)) * rec.dt
        index = np.arange(1, horizon + 1)
        points = np.empty((k, horizon, 2))
        for r, chain in enumerate(chains):  # mode m follows route m % len(chains)
            poly = _chain_polyline(road, chain)
            _, s_a = geom.nearest_on_polyline(anchor, poly)
            total = geom.arc_length(poly)
            s = (s_a + steps[r::len(chains), None] * index).ravel()
            pts = _points_at(poly, s)
            past = s > total  # extrapolate straight past the route end
            if past.any():
                d = poly[-1] - poly[-2]
                end_dir = d / np.linalg.norm(d)
                pts[past] = poly[-1] + (s[past] - total)[:, None] * end_dir
            points[r::len(chains)] = pts.reshape(-1, horizon, 2)
    return PredictionSet.from_points(rec.id, points, rec.dt, anchor=anchor.copy())
