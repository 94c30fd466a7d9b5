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
# Map geometry lies within this many meters of the origin on each axis, so
# the squared lengths and shoelace products of its coordinates stay finite.
COORD_LIMIT = 1e150
# RingTable.contains takes its (point, edge) pairs in blocks of about this
# many, so its memory stays bounded however many pairs a query has.
PAIR_BLOCK = 4096


def as_points(obj) -> np.ndarray:
    pts = _shaped(obj)
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or inf")
    return pts


def _shaped(obj) -> np.ndarray:
    """``obj`` as an ``(N, 2)`` float array, a ``(2,)`` point as ``(1, 2)``."""
    pts = np.asarray(obj, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got shape {pts.shape}")
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


def _point_blocks(blocks, min_len: int, short):
    """The blocks of ``blocks`` before the first bad one, each as
    ``as_points`` returns it, their concatenated points, their sizes, and
    the bad block's error (``None`` if there is none), whose ``index`` is
    set to the block's position.

    A block is bad when ``as_points`` rejects it, with that error, when a
    coordinate lies beyond ``COORD_LIMIT``, or when it holds fewer than
    ``min_len`` points, with the error ``short(n)``; the range of all blocks
    is one check.
    """
    arrays, fault = [], None
    for block in blocks:
        try:
            arrays.append(_shaped(block))
        except (TypeError, ValueError) as e:
            fault = e
            break
    sizes = np.array([len(a) for a in arrays], dtype=np.int64)
    pts = np.concatenate([np.empty((0, 2)), *arrays])
    n = len(arrays)
    bad = ~(np.abs(pts) <= COORD_LIMIT).all(axis=1)  # NaN fails too
    if bad.any():  # a block's own bad rows come before its length
        row = int(bad.argmax())
        n = int(sizes.cumsum().searchsorted(row, "right"))
    too_short = np.flatnonzero(sizes[:n] < min_len)
    if len(too_short):
        n = int(too_short[0])
        fault = short(sizes[n])
    elif n < len(arrays):
        fault = ValueError("points contain NaN or inf" if not np.isfinite(pts[row]).all()
                           else f"points lie beyond {COORD_LIMIT:g} m of the origin")
    if fault is not None:
        fault.index = n
    return arrays[:n], pts[:sizes[:n].sum()], sizes[:n], fault


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


class RingTable:
    """Polygon rings checked, turned counter-clockwise and laid out as one
    edge table in a single pass over their concatenated vertices, in input
    order, for batched point and grid queries against all of them.

    Each ring must pass ``_point_blocks`` with at least 3 vertices and have
    a nonzero area: the shoelace terms of all rings are computed at once and
    each ring's terms are summed by ``np.add.reduce`` over its own slice, as
    ``signed_area`` sums them, so every orientation decision is the one-ring
    decision. The first bad ring raises its error, with its position as the
    error's ``index``. A clockwise ring is reversed in place among the
    concatenated vertices, and the edges are built from them.

    ``rings`` holds each ring as the table has it: a copy for a ring that
    was turned around, and the array ``as_points`` returns for one that was
    not. ``edges`` is the ``(8, E)`` table of every edge of every ring, in
    ring order, with the rows ``x1, y1, dx, dy, ex0, ey0, ex1, ey1`` (start,
    vector to the next vertex, unpadded bounding box), ``ring_of`` the
    ``(E,)`` index of each edge's ring and ``boxes`` the ``(4, R)`` padded
    ``min_x, min_y, max_x, max_y`` of every ring.
    """

    def __init__(self, rings):
        arrays, pts, sizes, fault = _point_blocks(
            rings, 3, lambda n: InvalidMapError(f"polygon needs >= 3 vertices, got {n}"))
        ends = sizes.cumsum()
        starts = ends - sizes
        # each vertex's successor: the next one, except that each ring's
        # last vertex closes on its first
        succ = np.arange(1, len(pts) + 1)
        succ[ends - 1] = starts
        x1, y1 = pts.T  # views, so a ring turned in ``pts`` is turned here
        terms = x1 * y1[succ] - x1[succ] * y1
        self.rings = []
        for i, (a, lo, hi) in enumerate(zip(arrays, starts.tolist(), ends.tolist())):
            # np.add.reduce is np.sum without its Python wrapper
            area = 0.5 * float(np.add.reduce(terms[lo:hi]))
            if abs(area) < 1e-12:
                e = InvalidMapError("degenerate polygon (zero area)")
                e.index = i
                raise e
            if area < 0:
                a = a[::-1].copy()
                pts[lo:hi] = a
            self.rings.append(a)
        if fault is not None:
            raise fault
        self.n_rings = len(arrays)
        if not self.n_rings:
            self.edges, self.ring_of = np.empty((8, 0)), np.empty(0, dtype=np.int64)
            self.boxes = np.empty((4, 0))
            return
        x2, y2 = x1[succ], y1[succ]
        self.edges = np.array([
            x1, y1, x2 - x1, y2 - y1,
            np.minimum(x1, x2), np.minimum(y1, y2), np.maximum(x1, x2), np.maximum(y1, y2),
        ])
        self.ring_of = np.repeat(np.arange(self.n_rings), sizes)
        lo = np.minimum.reduceat(self.edges[4:6], starts, axis=1) - BOX_PAD
        hi = np.maximum.reduceat(self.edges[6:8], starts, axis=1) + BOX_PAD
        self.boxes = np.vstack([lo, hi])

    def contains(self, pts: np.ndarray, eps: float = BOUNDARY_EPS,
                 union: bool = False) -> np.ndarray:
        """The ``(N, R)`` mask of validated ``(N, 2)`` points that lie in
        ring ``r`` by the even-odd rule (an edge counts for the points with
        ``ey0 <= y < ey1`` to the left of its crossing) or within ``eps`` of
        its boundary, when ``eps > 0``; with ``union``, its ``any(axis=1)``.

        Sorted by ``y``, the points an edge straddles are one slice, so
        every crossing is computed once, and each ``(point, ring)`` key that
        occurs flips its parity once per crossing. A point outside a ring
        (with ``union``, outside every ring, against all edges as one ring's)
        is tested only against the edges whose box, padded by ``eps +
        BOX_PAD``, holds it, with ``distance_to_ring``'s arithmetic for each
        pair: a farther edge is farther than ``eps`` from it. Both passes take
        the edges in runs of about ``PAIR_BLOCK`` (point, edge) pairs, so
        memory stays bounded however many pairs there are.
        """
        n, r = len(pts), self.n_rings
        mask = np.zeros((n, r), dtype=bool)
        if not n or not r:
            return mask.any(axis=1) if union else mask
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
        out, ring_of = mask, self.ring_of
        if union:
            out = mask.any(axis=1)
            rest = np.flatnonzero(~out)
            sp, r, ring_of = sp[rest], 1, np.zeros_like(ring_of)
            xs, ys, flat = sp[:, 0], sp[:, 1], np.zeros(len(rest), dtype=bool)
        pad = eps + BOX_PAD
        lo, hi = ys.searchsorted(ey0 - pad), ys.searchsorted(ey1 + pad, "right")
        for edge, k in _pair_blocks(lo, hi) if eps > 0 else ():
            x = xs.take(k)
            key = k * r + ring_of.take(edge)
            near_box = (x >= ex0.take(edge) - pad) & (x <= ex1.take(edge) + pad)
            todo = np.flatnonzero(near_box & ~flat.take(key))
            if not len(todo):
                continue
            edge, key, p = edge.take(todo), key.take(todo), sp[k.take(todo)]
            flat[key[_pair_feet(p, self.edges[:4, edge])[1] <= eps]] = True
        if union:
            out[rest] = flat
        unsorted = np.empty_like(out)  # rows back in the order of ``pts``
        unsorted[order] = out
        return unsorted

    def holds(self, pts: np.ndarray, rings: np.ndarray, eps: float) -> np.ndarray:
        """``contains(pts, eps)[i, rings[i]]`` for every point ``i`` and
        ``eps > 0``, from the pairs of each point and its own ring's edges
        only; the band pass runs only on the points outside it by parity."""
        lo, hi = self.ring_of.searchsorted(rings), self.ring_of.searchsorted(rings, "right")
        point, edge = _ranges(lo, hi)
        y = pts[:, 1].take(point)
        ey0, ey1 = self.edges[5].take(edge), self.edges[7].take(edge)
        s = np.flatnonzero((ey0 <= y) & (y < ey1))  # the pairs that straddle
        point, edge, y = point[s], edge[s], y[s]
        x1, y1, dx, dy = self.edges[:4, edge]
        crosses = point[pts[point, 0] < x1 + (y - y1) * dx / dy]
        inside = np.bincount(crosses, minlength=len(pts)) % 2 == 1
        out = np.flatnonzero(~inside)
        point, edge = _ranges(lo[out], hi[out])
        near = _pair_feet(pts[out[point]], self.edges[:4, edge])[1] <= eps
        inside[out[point[near]]] = True
        return inside

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> GridCover:
        """The grid points ``(xs[i], ys[j])`` in the union of the rings as a
        ``GridCover`` of ``len(xs)`` columns; cell ``(i, j)`` is covered
        exactly when some ring ``contains`` its point (default band). ``xs``
        and ``ys`` must be ascending.

        Only the edges of the rings whose padded box meets the grid's extent
        take part. A grid row shares its ``y``, so an edge is crossed only by
        the rows between its end points, each once, with the arithmetic of
        ``contains``. A closed ring crosses a row an even number of times,
        and sorted by column its crossings pair up into the column runs it
        covers; the runs of all rings merge into one sorted list of keys with
        a running depth. The boundary band is tested only on the cells within
        ``BOX_PAD`` of some edge along both axes, listed row by row from the
        edge's x-range over the row's ``y`` padded by ``BOX_PAD``: a point
        within ``BOUNDARY_EPS`` of a ring is that close to one of its edges.
        The candidates grow with the edges' lengths, not their boxes' areas.
        """
        nx = len(xs)
        none = np.empty(0, dtype=np.int64)
        keep = np.zeros(len(self.ring_of), dtype=bool)
        if nx and len(ys):
            lo_x, lo_y, hi_x, hi_y = self.boxes
            overlaps = (hi_x >= xs[0]) & (lo_x <= xs[-1]) & (hi_y >= ys[0]) & (lo_y <= ys[-1])
            keep = overlaps[self.ring_of]
        if not keep.any():
            return GridCover(nx, none, np.zeros(1, dtype=np.int64), none)
        edges, ring_of = self.edges[:, keep], self.ring_of[keep]
        # an edge straddles the rows with ey0 <= y < ey1 (the half-open rule)
        edge, row = _ranges(*np.searchsorted(ys, edges[[5, 7]]))
        x1, y1, dx, dy = edges[:4, edge]
        x_cross = x1 + (ys[row] - y1) * dx / dy
        col = np.searchsorted(xs, x_cross)  # first column with x >= x_cross
        # sorted by row, ring and column, every (row, ring) group has even
        # length and its crossings alternate run start, run end
        pair = np.argsort((row * (ring_of.max() + 1) + ring_of[edge]) * (nx + 1) + col)
        keys = row[pair] * (nx + 1) + col[pair]
        by_key = np.argsort(keys)
        keys = keys[by_key]
        depth = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(1 - 2 * (by_key % 2), out=depth[1:])  # +1 at starts, -1 at ends

        # boundary band: for each edge whose padded box meets the grid, the
        # rows within BOX_PAD of its y-range, and in each row the columns
        # within BOX_PAD of the part of the edge with y in [y - BOX_PAD,
        # y + BOX_PAD] (clamping its end parameters to [0, 1] also makes a
        # horizontal edge, whose parameters are infinite or NaN, span its
        # whole length); a cell that close to no edge is that close to no
        # ring. Of those, the cells not in a run and near the edge. A row or
        # column exactly BOX_PAD away is farther than BOUNDARY_EPS, so either
        # side of searchsorted will do.
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
        near = _pair_feet(p, edges[:4, edge])[1] <= BOUNDARY_EPS
        return GridCover(nx, keys, depth, np.unique(cell[near]))


def _pair_feet(p: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parameter in [0, 1] of each of the ``(M, 2)`` points' foot on its
    own segment, of the ``(4, M)`` rows ``x1, y1, dx, dy``, and its distance
    to it: ``distance_to_ring``'s arithmetic, one (point, segment) per row."""
    a, ab = edges[0:2].T, edges[2:4].T
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", p - a, ab) / np.where(denom > 0, denom, 1.0)
    t = np.clip(t, 0.0, 1.0)
    return t, norms(p - (a + t[:, None] * ab))


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
    marks = np.arange(PAIR_BLOCK, ends[-1], PAIR_BLOCK)
    cuts = ends.searchsorted(marks, "right").tolist()
    for e0, e1 in zip([0, *cuts], [*cuts, len(lo)]):
        if e1 > e0:
            owner, k = _ranges(lo[e0:e1], hi[e0:e1])
            yield owner + e0, k


def points_in_polygon(points, ring, eps: float = BOUNDARY_EPS) -> np.ndarray:
    """Even-odd containment test; points within ``eps`` of the boundary count
    as inside. The one-ring query of ``RingTable.contains``, so ``ring`` is
    checked, and turned counter-clockwise, as a map's rings are."""
    return RingTable([ring]).contains(as_points(points), eps)[:, 0]


def arc_length(polyline) -> float:
    pts = as_points(polyline)
    if len(pts) < 2:
        raise ValueError("polyline needs >= 2 points")
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def headings(v: np.ndarray) -> np.ndarray:
    """Direction of every row of ``(N, 2)`` vectors in radians, x-axis = 0,
    range (-pi, pi]; NaN for a vector no longer than ``DEGENERATE_EPS``."""
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


def norms(v: np.ndarray) -> np.ndarray:
    """Lengths of the 2-vectors along the last axis of ``v``: ``sqrt(x*x +
    y*y)``, bit for bit ``np.linalg.norm(v, axis=-1)`` without its overhead."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


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
        raise DegenerateHeadingError("degenerate heading in angles_between")
    c = np.clip(np.vecdot(v1, v2) / (n1 * n2), -1.0, 1.0)
    return np.array([math.acos(x) for x in c.tolist()])


def lay_out_polylines(polylines):
    """Each of ``polylines`` checked to have at least 2 points and a segment
    with a heading, and all their segments laid out in one pass over their
    concatenated points, in input order, for ``nearest_segments`` queries.

    Returns ``(lines, points, segs, tangents, lo, hi)``: each polyline as
    ``as_points`` returns it, their concatenated points, the ``(4, S)``
    segment table of rows ``x1, y1, dx, dy``, each segment's tangent heading,
    and each line's run ``lo[i]:hi[i]`` of segments (its points are
    ``points[lo[i] + i:hi[i] + i + 1]``). A segment's tangent is its
    ``headings`` value; a segment with none (no longer than
    ``DEGENERATE_EPS``) takes the tangent of its line's first segment that
    has one. The first bad polyline raises its error, with its position as
    the error's ``index``.
    """
    lines, pts, sizes, fault = _point_blocks(
        polylines, 2, lambda n: ValueError("polyline needs >= 2 points"))
    # segment j joins points j and j + 1; drop those that join two lines
    keep = np.ones(max(len(pts) - 1, 0), dtype=bool)
    keep[sizes.cumsum()[:-1] - 1] = False
    a, ab = pts[:-1][keep], (pts[1:] - pts[:-1])[keep]
    sizes = sizes - 1  # segments per line
    hi = sizes.cumsum()
    lo = hi - sizes
    heads = headings(ab)
    has = ~np.isnan(heads)
    usable = np.flatnonzero(has)
    # each line's first segment with a heading; a line has none when that
    # lands past its end
    first = np.append(usable, len(ab))[np.searchsorted(usable, lo)]
    blind = np.flatnonzero(first >= hi)
    if len(blind):
        fault = ValueError("polyline has no usable direction")
        fault.index = int(blind[0])
    if fault is not None:
        raise fault
    tangents = np.where(has, heads, np.repeat(heads[first], sizes))
    return lines, pts, np.vstack([a.T, ab.T]), tangents, lo, hi


def nearest_segments(points, lo, hi, segs) -> tuple[np.ndarray, np.ndarray]:
    """For each of the ``(M, 2)`` points ``points[m]``, the segment nearest
    to it among ``lo[m] <= s < hi[m]`` (``hi[m] > lo[m]``) of ``segs``, a
    ``(4, S)`` table of rows ``x1, y1, dx, dy``, and its foot's parameter
    there, from one ``_pair_feet`` pass. When feet tie (within 1e-12) the
    later segment wins: a foot on a shared vertex is the following one's."""
    pts = np.asarray(points, float).reshape(-1, 2)
    point, seg = _ranges(lo, hi)
    t, d = _pair_feet(pts[point], segs[:, seg])
    first = np.cumsum(hi - lo) - (hi - lo)  # each point's first pair
    tie = d <= np.minimum.reduceat(d, first)[point] + 1e-12
    # segments ascend within a point's run: its last tie has the largest index
    best = np.maximum.reduceat(np.where(tie, seg, -1), first)
    return best, t[first + best - lo]


def nearest_on_polyline(p, polyline) -> tuple[np.ndarray, float]:
    """Closest point on a polyline: ``(foot, arc_offset)``."""
    _, _, segs, _, lo, hi = lay_out_polylines([polyline])
    (i,), (t,) = nearest_segments(p, lo, hi, segs)
    a, ab = segs[:2].T, segs[2:].T
    seg_len = np.sqrt(np.einsum("ij,ij->i", ab, ab))
    offset = float(seg_len[:i].sum() + t * seg_len[i])
    return a[i] + t * ab[i], offset


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
