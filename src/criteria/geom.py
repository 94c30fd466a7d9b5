"""2D geometry primitives: containment, polyline queries, headings, grids.

All functions are pure and operate on plain numpy arrays:
points are ``(2,)``, point sets ``(N, 2)``, polylines ``(N, 2)`` with
``N >= 2``, polygon rings ``(N, 2)`` with ``N >= 3`` (implicitly closed).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateHeadingError, InvalidMapError

# Boundary points count as inside within this band (meters).
BOUNDARY_EPS = 1e-9
# Vectors shorter than this have no usable direction (meters).
DEGENERATE_EPS = 1e-6
# Bounding boxes are padded by this much (meters). It must exceed
# BOUNDARY_EPS: a point outside a ring's padded box then has even crossing
# parity and is farther than the epsilon band from the boundary, so the exact
# test would reject it anyway.
BOX_PAD = 1e-6
# lower and upper offsets of a padded range, as a column to add to an (E,) row
_PADS = np.array([[-BOX_PAD], [BOX_PAD]])
# RingTable.contains takes its (point, edge) pairs in blocks of about this
# many, so its memory stays bounded however many pairs a query has.
PAIR_BLOCK = 4096


def as_points(obj) -> np.ndarray:
    pts = np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or inf")
    return pts


def _successors(a: np.ndarray) -> np.ndarray:
    """Each element's successor along axis 0, the first one last; the values
    of ``np.roll(a, -1, axis=0)`` without its per-call overhead."""
    return np.concatenate([a[1:], a[:1]])


def signed_area(ring: np.ndarray) -> float:
    """Shoelace area; positive for counter-clockwise rings."""
    x, y = ring[:, 0], ring[:, 1]
    xn, yn = _successors(x), _successors(y)
    return 0.5 * float(np.sum(x * yn - xn * y))


def normalize_ring(ring) -> np.ndarray:
    """Validate a polygon ring and return it counter-clockwise."""
    ring = as_points(ring)
    if len(ring) < 3:
        raise InvalidMapError(f"polygon needs >= 3 vertices, got {len(ring)}")
    area = signed_area(ring)
    if abs(area) < 1e-12:
        raise InvalidMapError("degenerate polygon (zero area)")
    return ring[::-1].copy() if area < 0 else ring


def distance_to_ring(points, ring) -> np.ndarray:
    """Min distance from each point to the closed boundary of ``ring``."""
    pts = as_points(points)
    ring = as_points(ring)
    a = ring
    b = _successors(ring)
    ab = b - a  # (E, 2)
    denom = np.einsum("ij,ij->i", ab, ab)  # (E,)
    ap = pts[:, None, :] - a[None, :, :]  # (N, E, 2)
    t = np.einsum("nej,ej->ne", ap, ab) / np.where(denom > 0, denom, 1.0)
    t = np.clip(t, 0.0, 1.0)
    foot = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(pts[:, None, :] - foot, axis=-1)
    return d.min(axis=1)


def padded_box(ring) -> tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of ``ring`` widened by ``BOX_PAD``."""
    pts = as_points(ring)
    lo = pts.min(axis=0) - BOX_PAD
    hi = pts.max(axis=0) + BOX_PAD
    return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


class Ring:
    """A validated polygon ring with its edges and padded bounding box laid
    out once, for repeated containment tests.

    ``contains`` is the even-odd test with an epsilon boundary band;
    ``points_in_polygon`` runs it on a ring built for the call.
    """

    def __init__(self, ring):
        pts = as_points(ring)
        if len(pts) < 3 or abs(signed_area(pts)) < 1e-12:
            raise InvalidMapError("degenerate polygon (zero area)")
        self.points = pts
        self.x1, self.y1 = pts[:, 0], pts[:, 1]
        self.x2, self.y2 = _successors(self.x1), _successors(self.y1)
        self.dx, self.dy = self.x2 - self.x1, self.y2 - self.y1
        self.box = padded_box(pts)
        # unpadded edge bounding boxes, (E,) each
        self.ex0, self.ex1 = np.minimum(self.x1, self.x2), np.maximum(self.x1, self.x2)
        self.ey0, self.ey1 = np.minimum(self.y1, self.y2), np.maximum(self.y1, self.y2)

    def _near_edges(self, x: np.ndarray, y: np.ndarray, pad: float) -> np.ndarray:
        """Flags of the points ``(x[i], y[i])`` that fall in some edge's box
        padded by ``pad``; ``x`` and ``y`` are ``(N, 1)``."""
        return (
            (x >= self.ex0 - pad)
            & (x <= self.ex1 + pad)
            & (y >= self.ey0 - pad)
            & (y <= self.ey1 + pad)
        ).any(axis=1)

    def contains(self, pts: np.ndarray, eps: float = BOUNDARY_EPS) -> np.ndarray:
        """Inside flags of validated ``(N, 2)`` points; points within ``eps``
        of the boundary count as inside.

        The boundary distance is computed only for the points outside that
        fall in some edge's box padded by ``eps + BOX_PAD``; no other point
        can be within ``eps`` of the boundary.
        """
        x, y = pts[:, 0:1], pts[:, 1:2]  # (N, 1)
        straddles = (self.y1 > y) != (self.y2 > y)  # half-open rule, (N, E)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = self.x1 + (y - self.y1) * self.dx / self.dy
        hits = straddles & (x < x_cross)
        inside = (hits.sum(axis=1) % 2).astype(bool)
        if eps > 0:
            out = np.flatnonzero(~inside)
            if len(out):
                out = out[self._near_edges(x[out], y[out], eps + BOX_PAD)]
            if len(out):
                near = distance_to_ring(pts[out], self.points) <= eps
                inside[out[near]] = True
        return inside


class GridCover:
    """The cells of a grid of ``nx`` columns whose centers lie in a union of
    rings, kept sparse: the interior as merged row runs, the boundary band as
    a list of cells. Cell ``(ix, iy)`` has the key ``iy * (nx + 1) + ix``;
    column ``nx`` is where the runs that reach the end of a row close.

    ``keys`` are the sorted start and end keys of the runs, ``depth[m]`` the
    number of runs open before ``keys[m]`` (``depth[-1]`` after the last),
    and ``band`` the sorted keys of the cells outside every run that are
    covered all the same.
    """

    def __init__(self, nx: int, keys: np.ndarray, depth: np.ndarray,
                 band: np.ndarray):
        self._nx = nx
        self._keys = keys
        self._depth = depth
        covered = (keys[1:] - keys[:-1])[depth[1:-1] > 0]
        self.count = int(covered.sum()) + len(band)
        # a sentinel above every key ends the band, so a lookup stays in it
        self._band = np.append(band, np.iinfo(np.int64).max)

    def contains(self, ix, iy) -> np.ndarray:
        """Membership flags of the cells ``(ix[m], iy[m])``."""
        keys = np.asarray(iy, np.int64) * (self._nx + 1) + np.asarray(ix, np.int64)
        in_band = self._band[np.searchsorted(self._band, keys)] == keys
        return _in_runs(self._keys, self._depth, keys) | in_band


def _in_runs(keys: np.ndarray, depth: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Flags of the cell keys that lie in some run of a ``GridCover``."""
    return depth[np.searchsorted(keys, cells, "right")] > 0


def edge_table(rings) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the ``(N_r, 2)`` polygon rings ``rings`` as one ``(8, E)``
    table, with the rows ``x1, y1, dx, dy, ex0, ey0, ex1, ey1`` (start,
    vector to the next vertex, unpadded bounding box), and the ``(E,)``
    index of each edge's ring; one pass over the concatenated vertices."""
    if not len(rings):
        return np.empty((8, 0)), np.empty(0, dtype=np.int64)
    sizes = np.array([len(r) for r in rings])
    pts = np.concatenate(rings)
    starts = np.cumsum(sizes) - sizes
    succ = np.arange(1, len(pts) + 1)
    succ[starts + sizes - 1] = starts  # each ring's last vertex closes on its first
    x1, y1 = pts.T
    x2, y2 = x1[succ], y1[succ]
    edges = np.array([
        x1, y1, x2 - x1, y2 - y1,
        np.minimum(x1, x2), np.minimum(y1, y2), np.maximum(x1, x2), np.maximum(y1, y2),
    ])
    return edges, np.repeat(np.arange(len(rings)), sizes)


class RingTable:
    """Validated polygon rings laid out once as one edge table, for batched
    point and grid queries against all of them.

    ``edges`` and ``ring_of`` are ``edge_table``'s, ``boxes`` the ``(4, R)``
    padded ``min_x, min_y, max_x, max_y`` of every ring (``padded_box``).
    """

    def __init__(self, rings):
        self.n_rings = len(rings)
        self.edges, self.ring_of = edge_table(rings)
        if self.n_rings:
            starts = np.flatnonzero(np.diff(self.ring_of, prepend=-1))
            lo = np.minimum.reduceat(self.edges[4:6], starts, axis=1) - BOX_PAD
            hi = np.maximum.reduceat(self.edges[6:8], starts, axis=1) + BOX_PAD
            self.boxes = np.vstack([lo, hi])
        else:
            self.boxes = np.empty((4, 0))

    def contains(self, pts: np.ndarray, eps: float = BOUNDARY_EPS) -> np.ndarray:
        """The ``(N, R)`` mask of validated ``(N, 2)`` points that lie in
        ring ``r`` or within ``eps`` of its boundary; column ``r`` equals
        ``Ring(rings[r]).contains(pts, eps)``.

        Sorted by ``y``, the points an edge straddles (``ey0 <= y < ey1``,
        the half-open rule) are one slice, so every crossing is computed
        once, with the arithmetic of ``Ring.contains``, and each ``(point,
        ring)`` key that occurs flips its parity once per crossing. A point
        outside a ring is tested only against the edges whose box, padded
        by ``eps + BOX_PAD``, holds it, with ``distance_to_ring``'s
        arithmetic for each pair: a farther edge is farther than ``eps``
        from it. Both passes take the edges in runs of about ``PAIR_BLOCK``
        (point, edge) pairs, so memory stays bounded however many pairs
        there are; a wide band pairs nearly every point with every edge.
        """
        n, r = len(pts), self.n_rings
        mask = np.zeros((n, r), dtype=bool)
        if not n or not r:
            return mask
        flat = mask.reshape(-1)  # until unsorted, rows follow ``order``
        order = pts[:, 1].argsort()
        sp = pts[order]
        xs, ys = sp[:, 0], sp[:, 1]
        x1, y1, dx, dy, ex0, ey0, ex1, ey1 = self.edges
        for e, k in _pair_blocks(*ys.searchsorted(self.edges[5:8:2])):
            y = ys.take(k)
            x_cross = x1.take(e) + (y - y1.take(e)) * dx.take(e) / dy.take(e)
            hit = xs.take(k) < x_cross
            np.bitwise_xor.at(flat, (k * r + self.ring_of.take(e))[hit], True)
        if eps <= 0:
            return _unsort(mask, order)
        pad = eps + BOX_PAD
        lo, hi = ys.searchsorted(ey0 - pad), ys.searchsorted(ey1 + pad, "right")
        for edge, k in _pair_blocks(lo, hi):
            x = xs.take(k)
            key = k * r + self.ring_of.take(edge)
            near_box = (x >= ex0.take(edge) - pad) & (x <= ex1.take(edge) + pad)
            todo = np.flatnonzero(near_box & ~flat.take(key))
            if not len(todo):
                continue
            edge, key, p = edge.take(todo), key.take(todo), sp[k.take(todo)]
            a, ab = self.edges[0:2, edge].T, self.edges[2:4, edge].T
            # distance_to_ring's arithmetic, one (point, edge) pair per row
            denom = np.einsum("ij,ij->i", ab, ab)
            t = np.einsum("ij,ij->i", p - a, ab) / np.where(denom > 0, denom, 1.0)
            foot = a + np.clip(t, 0.0, 1.0)[:, None] * ab
            flat[key[np.linalg.norm(p - foot, axis=-1) <= eps]] = True
        return _unsort(mask, order)

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> GridCover:
        """``grid_in_rings`` over the edges of the rings whose padded box
        meets the grid's extent; ``xs`` and ``ys`` must be ascending."""
        edges, ring_of = self.edges, self.ring_of
        if len(xs) and len(ys):
            x0, y0, x1, y1 = self.boxes
            overlaps = (x1 >= xs[0]) & (x0 <= xs[-1]) & (y1 >= ys[0]) & (y0 <= ys[-1])
            keep = overlaps[ring_of]
            edges, ring_of = edges[:, keep], ring_of[keep]
        return grid_in_rings(xs, ys, edges, ring_of)


def grid_in_rings(xs: np.ndarray, ys: np.ndarray, edges: np.ndarray,
                  ring_of: np.ndarray) -> GridCover:
    """The grid points ``(xs[i], ys[j])`` in the union of some rings as a
    ``GridCover`` of ``len(xs)`` columns; cell ``(i, j)`` is covered exactly
    when ``Ring.contains`` (default band) holds for its point in some ring.
    ``edges`` and ``ring_of`` list every edge of those rings, as
    ``edge_table`` gives them. ``xs`` and ``ys`` must be ascending.

    A grid row shares its ``y``, so an edge is crossed only by the rows
    between its end points, each once, with the arithmetic of
    ``Ring.contains``. A closed ring crosses a row an even number of times,
    and sorted by column its crossings pair up into the column runs it
    covers; the runs of all rings merge into one sorted list of keys with a
    running depth. The boundary band is tested only on the cells within
    ``BOX_PAD`` of some edge along both axes, listed row by row from the
    edge's x-range over the row's ``y`` padded by ``BOX_PAD``: a point
    within ``BOUNDARY_EPS`` of a ring is that close to one of its edges.
    The candidates grow with the edges' lengths, not their boxes' areas.
    """
    nx = len(xs)
    none = np.empty(0, dtype=np.int64)
    if not edges.shape[1] or not nx or not len(ys):
        return GridCover(nx, none, np.zeros(1, dtype=np.int64), none)
    # an edge straddles the rows with ey0 <= y < ey1 (the half-open rule)
    edge, row = _ranges(*np.searchsorted(ys, edges[[5, 7]]))
    x1, y1, dx, dy = edges[:4, edge]
    x_cross = x1 + (ys[row] - y1) * dx / dy
    col = np.searchsorted(xs, x_cross)  # first column with x >= x_cross
    # sorted by row, ring and column, every (row, ring) group has even length
    # and its crossings alternate run start, run end
    pair = np.argsort((row * (ring_of.max() + 1) + ring_of[edge]) * (nx + 1) + col)
    keys = row[pair] * (nx + 1) + col[pair]
    by_key = np.argsort(keys)
    keys = keys[by_key]
    depth = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(1 - 2 * (by_key % 2), out=depth[1:])  # +1 at starts, -1 at ends

    # boundary band: for each edge whose padded box meets the grid, the rows
    # within BOX_PAD of its y-range, and in each row the columns within
    # BOX_PAD of the part of the edge with y in [y - BOX_PAD, y + BOX_PAD]
    # (clamping its end parameters to [0, 1] also makes a horizontal edge,
    # whose parameters are infinite or NaN, span its whole length); a cell
    # that close to no edge is that close to no ring. Of those, the cells
    # not in a run and near the edge. A row or column exactly BOX_PAD away
    # is farther than BOUNDARY_EPS, so either side of searchsorted will do.
    b0, b1 = np.searchsorted(ys, edges[[5, 7]] + _PADS)
    a0, a1 = np.searchsorted(xs, edges[[4, 6]] + _PADS)
    near_grid = np.flatnonzero((b1 > b0) & (a1 > a0))
    edge, row = _ranges(b0[near_grid], b1[near_grid])
    edge = near_grid[edge]
    x1, y1, dx, dy = edges[:4, edge]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ys[row] + _PADS - y1) / dy
    x = x1 + np.fmin(np.fmax(t, 0.0), 1.0) * dx
    x.sort(axis=0)
    pair, ci = _ranges(*np.searchsorted(xs, x + _PADS))
    edge, cj = edge[pair], row[pair]
    cell = cj * (nx + 1) + ci
    out = ~_in_runs(keys, depth, cell)
    edge, cell = edge[out], cell[out]
    p = np.column_stack([xs[ci[out]], ys[cj[out]]])
    a, ab = edges[0:2, edge].T, edges[2:4, edge].T
    # distance_to_ring's arithmetic, one (point, edge) pair per row
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", p - a, ab) / np.where(denom > 0, denom, 1.0)
    foot = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    near = np.linalg.norm(p - foot, axis=-1) <= BOUNDARY_EPS
    return GridCover(nx, keys, depth, np.unique(cell[near]))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every ``e`` and every ``lo[e] <= k < hi[e]`` the pair ``(e, k)``,
    as two arrays; none for an ``e`` with ``hi[e] <= lo[e]``."""
    n = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(n) - lo - n, n)


def _pair_blocks(lo: np.ndarray, hi: np.ndarray):
    """``_ranges(lo, hi)`` in blocks of whole runs ``e`` holding about
    ``PAIR_BLOCK`` pairs each (or one run, if it alone holds more)."""
    ends = np.cumsum(hi - lo)
    if ends[-1] <= PAIR_BLOCK:
        yield _ranges(lo, hi)
        return
    marks = np.arange(PAIR_BLOCK, ends[-1], PAIR_BLOCK)
    cuts = ends.searchsorted(marks, "right").tolist()
    for e0, e1 in zip([0, *cuts], [*cuts, len(lo)]):
        if e1 > e0:
            owner, k = _ranges(lo[e0:e1], hi[e0:e1])
            yield owner + e0, k


def _unsort(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``rows`` listed in the order ``order``, put back in the original one."""
    out = np.empty_like(rows)
    out[order] = rows
    return out


def points_in_polygon(points, ring, eps: float = BOUNDARY_EPS) -> np.ndarray:
    """Even-odd containment test; points within ``eps`` of the boundary count
    as inside."""
    pts = as_points(points)
    return Ring(ring).contains(pts, eps)


def point_in_polygon(p, ring, eps: float = BOUNDARY_EPS) -> bool:
    return bool(points_in_polygon(np.asarray(p, float).reshape(1, 2), ring, eps)[0])


def arc_length(polyline) -> float:
    pts = as_points(polyline)
    if len(pts) < 2:
        raise ValueError("polyline needs >= 2 points")
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def heading(v) -> float:
    """Direction of ``v`` in radians, x-axis = 0, range (-pi, pi]."""
    vx, vy = float(v[0]), float(v[1])
    if math.hypot(vx, vy) <= DEGENERATE_EPS:
        raise DegenerateHeadingError(f"degenerate heading for vector ({vx}, {vy})")
    return _angle(vx, vy)


def headings(v: np.ndarray) -> np.ndarray:
    """``heading`` of every row of ``(N, 2)`` vectors in one pass, NaN where
    it raises."""
    return np.array([
        math.nan if math.hypot(vx, vy) <= DEGENERATE_EPS else _angle(vx, vy)
        for vx, vy in v.tolist()
    ])


def _angle(vx: float, vy: float) -> float:
    h = math.atan2(vy, vx)
    return h + 2 * math.pi if h <= -math.pi else h


def lengths(v: np.ndarray) -> np.ndarray:
    """Lengths of the rows of ``(N, 2)`` vectors. ``np.vecdot`` runs the BLAS
    dot of ``np.dot`` on each row, so every length equals the 1-D
    ``np.linalg.norm`` of its row bit for bit."""
    return np.sqrt(np.vecdot(v, v))


def angles_between(v1, v2) -> np.ndarray:
    """Unsigned angles in [0, pi] between the rows of two ``(N, 2)`` vector
    arrays via the clamped dot product (no wrap-around).

    Row by row this is the one-vector computation with ``np.dot`` and
    ``np.linalg.norm``, bit for bit (see ``lengths``); ``math.acos`` rounds
    differently from ``np.arccos``, so the last step stays per row.
    """
    v1 = np.asarray(v1, float).reshape(-1, 2)
    v2 = np.asarray(v2, float).reshape(-1, 2)
    n1, n2 = lengths(v1), lengths(v2)
    if (n1 <= DEGENERATE_EPS).any() or (n2 <= DEGENERATE_EPS).any():
        raise DegenerateHeadingError("degenerate heading in angle_between")
    c = np.clip(np.vecdot(v1, v2) / (n1 * n2), -1.0, 1.0)
    return np.array([math.acos(x) for x in c.tolist()])


def angle_between(v1, v2) -> float:
    """Unsigned angle in [0, pi] between two vectors; see ``angles_between``."""
    return float(angles_between(v1, v2)[0])


class Polyline:
    """A validated polyline with its segments laid out once, for repeated
    nearest-point queries."""

    def __init__(self, polyline):
        pts = as_points(polyline)
        if len(pts) < 2:
            raise ValueError("polyline needs >= 2 points")
        self.a = pts[:-1]
        self.ab = pts[1:] - pts[:-1]
        self.denom = np.einsum("ij,ij->i", self.ab, self.ab)
        self.seg_len = np.sqrt(self.denom)

    def nearest(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each of the ``(N, 2)`` points: the index of the segment holding
        its closest point, the foot's parameter along that segment, and the
        foot. When feet tie (within 1e-12) the later segment wins, so a foot
        on a shared vertex belongs to the following segment."""
        pts = np.asarray(points, float).reshape(-1, 2)
        ap = pts[:, None, :] - self.a  # (N, S, 2)
        ok = self.denom > 0
        t = np.einsum("nsj,sj->ns", ap, self.ab) / np.where(ok, self.denom, 1.0)
        t = np.where(ok, np.clip(t, 0.0, 1.0), 0.0)
        foot = self.a + t[:, :, None] * self.ab
        d = np.linalg.norm(pts[:, None, :] - foot, axis=2)
        ties = d <= d.min(axis=1, keepdims=True) + 1e-12
        i = ties.shape[1] - 1 - np.argmax(ties[:, ::-1], axis=1)
        rows = np.arange(len(pts))
        return i, t[rows, i], foot[rows, i]

    def tangent(self, i: int) -> float:
        """Heading of segment ``i``; a degenerate segment falls back to the
        first usable one."""
        if self.denom[i] > 0:
            return heading(self.ab[i])
        usable = np.flatnonzero(self.seg_len > DEGENERATE_EPS)
        if len(usable) == 0:
            raise DegenerateHeadingError("polyline has no usable direction")
        return heading(self.ab[usable[0]])


def nearest_on_polyline(p, polyline) -> tuple[np.ndarray, float, float]:
    """Closest point on a polyline.

    Returns ``(foot, arc_offset, tangent_heading)``. When the foot lands on a
    shared vertex the following segment supplies the heading.
    """
    line = Polyline(polyline)
    idx, t, foot = line.nearest(p)
    i = int(idx[0])
    offset = float(line.seg_len[:i].sum() + t[0] * line.seg_len[i])
    return foot[0].copy(), offset, line.tangent(i)


class GridIndex:
    """Uniform-grid spatial index over labelled point sets. Immutable after
    construction."""

    def __init__(
        self,
        shapes: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
        cell_size: float = 10.0,
    ):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        items = dict(shapes)
        self.cell_size = float(cell_size)
        self._shapes = {k: as_points(v) for k, v in items.items()}
        self._cells: dict[tuple[int, int], list[str]] = {}
        for item_id, pts in self._shapes.items():
            lo = np.floor(pts.min(axis=0) / self.cell_size).astype(int)
            hi = np.floor(pts.max(axis=0) / self.cell_size).astype(int)
            for cx in range(lo[0], hi[0] + 1):
                for cy in range(lo[1], hi[1] + 1):
                    self._cells.setdefault((cx, cy), []).append(item_id)

    def min_distance(self, item_id: str, p) -> float:
        """Distance from ``p`` to the nearest point of the set ``item_id``."""
        pts = self._shapes[item_id]
        return float(np.linalg.norm(pts - np.asarray(p, float), axis=1).min())

    def candidates(self, center, r: float) -> set[str]:
        """Ids registered in any grid cell that the square of half-side ``r``
        around ``center`` overlaps; a superset of the radius query."""
        if r <= 0:
            raise ValueError("radius must be positive")
        c = np.asarray(center, float)
        lo = np.floor((c - r) / self.cell_size).astype(int)
        hi = np.floor((c + r) / self.cell_size).astype(int)
        found: set[str] = set()
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                found.update(self._cells.get((cx, cy), ()))
        return found

    def query_radius(self, center, r: float) -> list[str]:
        """Exact radius query: ids whose shape is within ``r`` of ``center``."""
        c = np.asarray(center, float)
        return sorted(
            i for i in self.candidates(c, r) if self.min_distance(i, c) <= r
        )


def rasterize_occupancy(points, roi, cell: float) -> np.ndarray:
    """Grid cells of ``roi = (min_x, min_y, max_x, max_y)`` touched by points,
    as the ``(M, 2)`` array of distinct ``(ix, iy)`` in lexicographic order.

    Points on the max edge are clamped into the last cell.
    """
    if cell <= 0:
        raise ValueError("cell must be positive")
    min_x, min_y, max_x, max_y = (float(v) for v in roi)
    if max_x <= min_x or max_y <= min_y:
        raise ValueError("empty roi")
    pts = as_points(points) if len(points) else np.empty((0, 2))
    nx = max(1, math.ceil((max_x - min_x) / cell))
    ny = max(1, math.ceil((max_y - min_y) / cell))
    if nx * ny > np.iinfo(np.int64).max:
        raise ValueError("cell too small: the grid has more cells than int64 keys")
    x, y = pts[:, 0], pts[:, 1]
    pts = pts[(min_x <= x) & (x <= max_x) & (min_y <= y) & (y <= max_y)]
    cells = np.floor_divide(pts - [min_x, min_y], cell).astype(np.int64)
    ix, iy = np.minimum(cells, [nx - 1, ny - 1]).T
    # one sort of integer keys; ordered by key, the cells are lexicographic
    keys = np.unique(ix * ny + iy)
    return np.column_stack([keys // ny, keys % ny])
