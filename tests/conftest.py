import numpy as np
import pytest
from hypothesis import settings

from criteria import geom, synth
from criteria.map_model import LaneSegment, RoadMap
from criteria.trajectory import PredictionSet, Trajectory

# Properties that compare a fast path with an exact reference scan may take
# longer than hypothesis' default 200 ms deadline on a loaded machine.
settings.register_profile("criteria", deadline=None)
settings.load_profile("criteria")

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
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    inside = ((straddles & (x < x_cross)).sum(axis=1) % 2).astype(bool)
    if eps > 0:
        inside |= geom.distance_to_ring(pts, ring) <= eps
    return inside


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
    modes = [make_traj(p, dt) for p in mode_points]
    return PredictionSet(
        scenario_id=scenario_id, modes=modes, probabilities=probs, anchor=anchor
    )


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
