import math
import os
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings

from criteria import geom, synth
from criteria.errors import InvalidMapError
from criteria.map_model import LaneSegment, RoadMap, is_turn_lane
from criteria.scenario import Structure
from criteria.trajectory import PredictionSet, Trajectory

# Properties that compare a fast path with an exact reference scan may take
# longer than hypothesis' default 200 ms deadline on a loaded machine.
settings.register_profile("criteria", deadline=None)
# HYPOTHESIS_PROFILE=ci (set by the CI workflow) draws three times as many
# examples, in an order fixed by each test, so a failure there repeats
# exactly on any machine.
settings.register_profile(
    "ci", settings.get_profile("criteria"), max_examples=300, derandomize=True
)
settings.load_profile(
    "ci" if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else "criteria"
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def reference_in_polygon(points, ring, eps=geom.BOUNDARY_EPS) -> np.ndarray:
    """Even-odd test over every point and edge, with the boundary distance of
    every point when ``eps > 0``: the unfiltered reference for the fast
    containment paths."""
    pts = np.asarray(points, float).reshape(-1, 2)
    ring = np.asarray(ring, float)
    x, y = pts[:, 0:1], pts[:, 1:2]
    x1, y1 = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    straddles = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    inside = ((straddles & (x < x_cross)).sum(axis=1) % 2).astype(bool)
    if eps > 0:
        inside |= geom.distance_to_ring(pts, ring) <= eps
    return inside


# -- per-mode and per-pair references for the batched metric kernels --------
# These loop over ``pred.modes`` one mode or one pair at a time, with the
# 1-D numpy calls the metrics made before they read the ``(K, T, 2)`` stack.


def reference_angle_between(v1, v2) -> float:
    v1, v2 = np.asarray(v1, float), np.asarray(v2, float)
    n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
    c = float(np.dot(v1, v2) / (n1 * n2))
    return math.acos(max(-1.0, min(1.0, c)))


def reference_heading(v) -> float:
    """Direction of ``v`` in radians, x-axis = 0, range (-pi, pi]; NaN for a
    vector no longer than ``DEGENERATE_EPS``."""
    vx, vy = float(v[0]), float(v[1])
    if math.hypot(vx, vy) <= geom.DEGENERATE_EPS:
        return math.nan
    h = math.atan2(vy, vx)
    return h + 2 * math.pi if h <= -math.pi else h


def reference_polyline_heading(p, polyline) -> float:
    """Tangent heading at the point of ``polyline`` nearest to ``p``: the
    later segment wins ties, a segment with no heading takes the first
    segment's that has one."""
    p = np.asarray(p, float)
    a, b = polyline[:-1], polyline[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", p[None, :] - a, ab) / np.where(denom > 0, denom, 1.0)
    t = np.where(denom > 0, np.clip(t, 0.0, 1.0), 0.0)
    d = np.linalg.norm(p[None, :] - (a + t[:, None] * ab), axis=1)
    i = int(np.flatnonzero(d <= d.min() + 1e-12)[-1])
    return reference_tangent(ab, i)


def reference_tangent(ab, i: int) -> float:
    """Heading of segment ``i`` of a polyline whose segments have the vectors
    ``ab``: its own, or for a segment with none the heading of the first
    segment that has one."""
    for v in (ab[i], *ab):
        h = reference_heading(v)
        if not math.isnan(h):
            return h
    raise ValueError("polyline has no usable direction")


# -- per-item references for the batched map-geometry constructors -----------


def reference_points(block) -> np.ndarray:
    """``block`` as ``(N, 2)`` map points, checked row by row: the first row
    with NaN or inf, or with a coordinate beyond ``COORD_LIMIT``, raises."""
    pts = geom._shaped(block)
    for row in pts:
        if not np.isfinite(row).all():
            raise ValueError("points contain NaN or inf")
        if (np.abs(row) > geom.COORD_LIMIT).any():
            raise ValueError(f"points lie beyond {geom.COORD_LIMIT:g} m of the origin")
    return pts


def reference_polyline(polyline) -> dict[str, np.ndarray]:
    """A polyline checked and laid out on its own, segment by segment: the
    fields of ``geom.Polyline``."""
    pts = reference_points(polyline)
    if len(pts) < 2:
        raise ValueError("polyline needs >= 2 points")
    ab = pts[1:] - pts[:-1]
    denom = np.einsum("ij,ij->i", ab, ab)
    tangents = np.array([reference_tangent(ab, i) for i in range(len(ab))])
    return dict(points=pts, a=pts[:-1], ab=ab, denom=denom,
                seg_len=np.sqrt(denom), tangents=tangents)


def reference_normalize_ring(ring) -> np.ndarray:
    """One polygon ring checked on its own and turned counter-clockwise by
    the sign of its ``signed_area``."""
    ring = reference_points(ring)
    if len(ring) < 3:
        raise InvalidMapError(f"polygon needs >= 3 vertices, got {len(ring)}")
    area = geom.signed_area(ring)
    if abs(area) < 1e-12:
        raise InvalidMapError("degenerate polygon (zero area)")
    return ring[::-1].copy() if area < 0 else ring


def lane_ids_of(road, row) -> list[str]:
    """The ids of the lanes flagged in one row of a lane mask."""
    return [road.lane_ids[c] for c in np.flatnonzero(row)]


def reference_lanes_containing(road, p) -> list[str]:
    return sorted(
        lane_id
        for lane_id, lane in road.lanes.items()
        if reference_in_polygon(p, lane.polygon)[0]
    )


def reference_lane_within_radius(points, ring, r) -> np.ndarray:
    """Flags of the ``(N, 2)`` points that lie in ``ring`` or within ``r`` of
    its boundary, with no prefilter: the lane test of the radius query."""
    pts = np.asarray(points, float).reshape(-1, 2)
    near = geom.distance_to_ring(pts, ring) <= r
    return reference_in_polygon(pts, ring) | near


def reference_tag_structure(rec, road, cfg) -> Structure:
    """The per-point tagging loop: TURN as soon as one ground-truth point has
    a turn lane inside or within the radius."""
    turn_lanes = [lane for lane in road.lanes.values() if is_turn_lane(lane)]
    for p in np.vstack([rec.past.points, rec.future.points]):
        for lane in turn_lanes:
            if reference_lane_within_radius(p, lane.polygon, cfg.turn_radius)[0]:
                return Structure.TURN
    return Structure.CRUISING


def reference_test_boundary(points, road) -> bool:
    inside = np.zeros(len(points), dtype=bool)
    for ring in road.drivable:
        inside |= reference_in_polygon(points, ring)
    return bool(inside.all())


def reference_test_alignment(points, road, cfg) -> tuple[bool, float]:
    from criteria.metrics import StationaryPolicy, alignment_confidence

    tail = points[-cfg.tail_steps :]
    chord = tail[-1] - tail[0]
    h = reference_heading(chord)
    if math.isnan(h) or np.linalg.norm(chord) < cfg.stationary_eps:
        return cfg.stationary_policy is StationaryPolicy.PASS, 0.0
    hvec = np.array([math.cos(h), math.sin(h)])
    max_conf = 0.0
    for p in tail:
        for lane_id in reference_lanes_containing(road, p):
            lh = reference_polyline_heading(p, road.lanes[lane_id].centerline)
            lvec = np.array([math.cos(lh), math.sin(lh)])
            conf = alignment_confidence(reference_angle_between(hvec, lvec))
            max_conf = max(max_conf, conf)
    return max_conf > cfg.threshold_lac, max_conf


def reference_accels(points, dt, anchor) -> np.ndarray:
    points = np.vstack([np.asarray(anchor, float).reshape(1, 2), points])
    speeds = np.linalg.norm(np.diff(points, axis=0), axis=1) / dt
    return np.diff(speeds) / dt


def reference_window_check(points, dt, cfg, anchor) -> tuple[bool, float, float]:
    accels = reference_accels(points, dt, anchor)
    w = min(cfg.window, len(accels))
    a_init, a_final = float(accels[:w].mean()), float(accels[-w:].mean())
    ok = cfg.a_min <= a_init <= cfg.a_max and cfg.a_min <= a_final <= cfg.a_max
    return ok, a_init, a_final


def reference_clip_length(points, dt, cfg, anchor) -> int:
    """Points kept by the kinematic clip."""
    accels = reference_accels(points, dt, anchor)
    bad = np.flatnonzero((accels < cfg.a_min) | (accels > cfg.a_max))
    if len(bad) == 0:
        return len(points)
    j = int(bad[0])
    return max(j, 1) + 1


def reference_min_ade(pred, gt) -> float:
    return min(
        float(np.linalg.norm(m.points - gt.points, axis=1).mean()) for m in pred.modes
    )


def reference_fdes(pred, gt) -> list[float]:
    return [float(np.linalg.norm(m.points[-1] - gt.points[-1])) for m in pred.modes]


def reference_rf(pred, gt) -> float:
    fdes = reference_fdes(pred, gt)
    return max(1.0, (sum(fdes) / len(fdes)) / max(min(fdes), 1e-6))


def reference_min_asd(pred) -> float:
    return min(
        float(np.linalg.norm(a.points - b.points, axis=1).mean())
        for a, b in combinations(pred.modes, 2)
    )


def reference_min_fsd(pred) -> float:
    return min(
        float(np.linalg.norm(a.points[-1] - b.points[-1]))
        for a, b in combinations(pred.modes, 2)
    )


def reference_aae(pred) -> float:
    vectors = [m.points[-1] - m.points[0] for m in pred.modes]
    vectors = [v for v in vectors if np.linalg.norm(v) > geom.DEGENERATE_EPS]
    if len(vectors) < 2:
        return 0.0
    angles = [reference_angle_between(a, b) for a, b in combinations(vectors, 2)]
    return math.degrees(sum(angles) / len(angles))


def reference_amv(pred, kin, mean: bool = False) -> float:
    mags = []
    for m in pred.modes:
        pts = m.points[: reference_clip_length(m.points, m.dt, kin, pred.anchor)]
        pts = np.vstack([pred.anchor.reshape(1, 2), pts])
        mags.append(np.linalg.norm(np.diff(pts, axis=0), axis=1))
    values = []
    for a, b in combinations(mags, 2):
        n = min(len(a), len(b))
        diffs = np.abs(a[:n] - b[:n])
        values.append(float(diffs.mean() if mean else diffs.sum()))
    return sum(values) / len(values)


def reference_rasterize_occupancy(points, roi, cell) -> set[tuple[int, int]]:
    min_x, min_y, max_x, max_y = roi
    nx = max(1, math.ceil((max_x - min_x) / cell))
    ny = max(1, math.ceil((max_y - min_y) / cell))
    cells = set()
    for x, y in np.asarray(points, float).reshape(-1, 2):
        if min_x <= x <= max_x and min_y <= y <= max_y:
            cells.add((min(int((x - min_x) // cell), nx - 1),
                       min(int((y - min_y) // cell), ny - 1)))
    return cells


def reference_dao(pred, road, cfg, anchor) -> float:
    """DAO from a dense scan: every ROI cell center through
    ``reference_in_polygon`` of every drivable ring, and the per-point
    occupancy loop."""
    ax, ay = float(anchor[0]), float(anchor[1])
    half = cfg.roi_side / 2.0
    roi = (ax - half, ay - half, ax + half, ay + half)
    n = max(1, math.ceil(cfg.roi_side / cfg.cell))
    xs = roi[0] + (np.arange(n) + 0.5) * cfg.cell
    ys = roi[1] + (np.arange(n) + 0.5) * cfg.cell
    drivable = reference_grid_mask(xs, ys, road.drivable)
    n_drivable = int(drivable.sum())
    if n_drivable == 0:
        return 0.0
    occupied = reference_rasterize_occupancy(pred.points.reshape(-1, 2), roi, cfg.cell)
    hits = sum(1 for ix, iy in occupied if ix < n and iy < n and drivable[ix, iy])
    return hits / n_drivable * cfg.scale


def reference_grid_mask(xs, ys, rings) -> np.ndarray:
    """``mask[i, j]``: the point ``(xs[i], ys[j])`` lies in some ring, by
    ``reference_in_polygon``. Each ring tests only the points in its
    bounding box padded by ``BOX_PAD``: no point outside that box crosses
    one of its edges or comes within ``BOUNDARY_EPS`` of it."""
    grid = np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs))])
    mask = np.zeros(len(grid), dtype=bool)
    for ring in rings:
        ring = np.asarray(ring, float)
        lo, hi = ring.min(axis=0) - geom.BOX_PAD, ring.max(axis=0) + geom.BOX_PAD
        near = ((grid >= lo) & (grid <= hi)).all(axis=1)
        if near.any():
            mask[near] |= reference_in_polygon(grid[near], ring)
    return mask.reshape(len(xs), len(ys))


def assert_cover_matches(cover, want) -> None:
    """A ``geom.GridCover`` holds exactly the cells of the ``(nx, ny)`` mask
    ``want``: the same count, and the same answer for every cell."""
    nx, ny = want.shape
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    got = cover.contains(ix.ravel(), iy.ravel()).reshape(nx, ny)
    np.testing.assert_array_equal(got, want)
    assert cover.count == int(want.sum())


def assert_ulp_close(got, want, ulps: int = 4) -> None:
    """Each float of ``got`` within ``ulps`` units in the last place of
    ``want``."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    tol = ulps * np.spacing(np.maximum(np.abs(got), np.abs(want)))
    bad = np.abs(got - want) > tol
    assert not bad.any(), (got[bad], want[bad])


@pytest.fixture
def unit_square():
    return UNIT_SQUARE.copy()


@pytest.fixture(scope="session")
def straight_road():
    return synth.gen_map(synth.SynthSpec(kind=synth.MapKind.STRAIGHT, seed=0))


@pytest.fixture(scope="session")
def t_road():
    return synth.gen_map(
        synth.SynthSpec(kind=synth.MapKind.T_INTERSECTION, seed=0)
    )


def make_traj(points, dt=0.1):
    return Trajectory(np.asarray(points, float), dt)


def make_pred(mode_points, dt=0.1, scenario_id="s", anchor=None, probs=None):
    """The set of the modes ``mode_points``, anchored at ``anchor`` or, by
    default, at the first point of the first mode."""
    modes = [make_traj(p, dt) for p in mode_points]
    return PredictionSet(
        scenario_id=scenario_id, modes=modes, probabilities=probs,
        anchor=modes[0].points[0] if anchor is None else anchor,
    )


def make_track(points, dt=0.1, scenario_id="s") -> PredictionSet:
    """The one-mode set that continues the track ``points``: anchored at its
    first point, predicting the rest. Its steps, speeds and accelerations
    are those of the whole track."""
    points = np.asarray(points, float)
    return make_pred([points[1:]], dt, scenario_id, anchor=points[0])


def straight_mode(start, step, n, dt=0.1):
    """n points marching from start+step by a constant step vector."""
    start = np.asarray(start, float)
    step = np.asarray(step, float)
    return start + np.outer(np.arange(1, n + 1), step)


def simple_lane(lane_id="L", y=0.0, x0=0.0, x1=100.0, width=3.7, **kwargs):
    half = width / 2
    return LaneSegment(
        id=lane_id,
        centerline=np.array([[x0, y], [x1, y]]),
        polygon=np.array(
            [[x0, y - half], [x1, y - half], [x1, y + half], [x0, y + half]]
        ),
        **kwargs,
    )


def single_lane_map(map_id="m", **lane_kwargs):
    lane = simple_lane(**lane_kwargs)
    return RoadMap(map_id=map_id, lanes=[lane], drivable=[lane.polygon])
