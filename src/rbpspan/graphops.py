"""Kruskal and (constrained) MSTs, RBP validity checking, and solution statistics."""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import (
    _CLASS_OF,
    INVALID_CLASS,
    Color,
    EdgeSet,
    Instance,
    PreconditionError,
    Solution,
    _orient_sign,
    hypot_lengths,
    hypot_slack,
    orient_filter,
)

RED_SIDE = (Color.RED, Color.PURPLE)
BLUE_SIDE = (Color.BLUE, Color.PURPLE)


class InfeasibleGraphError(PreconditionError):
    """The admitted edge set cannot connect the requested vertex set."""


_FIRST_BLOCK = 1024
# `_grid_pairs` counts pairs up to r * _GRID_MARGIN long as found; `_shells` keeps its
# grids to at most _MAX_CELLS cells along an axis, which that margin needs.
_GRID_MARGIN = 1.0 - 2.0 ** -20
_MAX_CELLS = 2.0 ** 28


class SortedPairs:
    """(length, u, v) pairs in tie-break order, found shell by shell and made into tuples lazily.

    `_shells` yields the pairs as numpy arrays sorted by np.hypot length, one
    radius shell at a time. Iterating yields (instance.distance(u, v), u, v)
    tuples in (length, u, v) order, the order of sorting them all. Tuples are
    made one block at a time, each block as large as what is already made,
    and are kept: a second iteration (or a second Kruskal run) reads the kept
    prefix first, and both the numpy and the Python work stay proportional to
    the longest prefix any reader takes.

    A block ends only where the next numpy length exceeds the one before it
    by more than `hypot_slack` of it, and each block is sorted by the exact
    key. That blocked order is the full order: np.hypot and math.hypot each
    lie within one ulp of the true length, so if p ends a block and q lies in
    a later block, np(q) > np(p) + hypot_slack(np(p)) leaves room for both
    errors and distance(q) > distance(p). A shell ends at such a gap too, so
    every pair of a block precedes every pair of later blocks under the exact
    key, sorting within blocks is enough, and the numpy sort need not be stable.
    """

    __slots__ = ("_instance", "_count", "_shells", "_length", "_u", "_v", "_pos", "_made")

    def __init__(self, instance: Instance, count: int,
                 shells: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        self._instance = instance
        self._count = count
        self._shells = shells
        self._length = self._u = self._v = np.empty(0)  # the current shell
        self._pos = 0  # its first pair not yet made into a tuple
        self._made: list[tuple[float, int, int]] = []

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[float, int, int]]:
        made = self._made
        i = 0
        while i < len(made) or self._extend():
            j = len(made)
            yield from islice(made, i, j)
            i = j

    def _extend(self) -> bool:
        """Make the next block of tuples; False when all are made."""
        while self._pos == len(self._length):
            shell = next(self._shells, None)
            if shell is None:
                return False
            self._length, self._u, self._v = shell
            self._pos = 0
        start = self._pos
        end = self._block_end(min(len(self._length), start + max(len(self._made), _FIRST_BLOCK)))
        u, v = self._u[start:end], self._v[start:end]
        block = list(zip(hypot_lengths(self._instance, u, v), u.tolist(), v.tolist()))
        block.sort()
        self._made.extend(block)
        self._pos = end
        return True

    def _block_end(self, end: int) -> int:
        """The first index from `end` on whose length is not a near-tie of the one before."""
        length = self._length
        while end < len(length):
            window = length[end - 1:end + _FIRST_BLOCK]
            tied = np.diff(window) <= hypot_slack(window[:-1])
            k = int(tied.argmin())
            if not tied[k]:
                return end + k
            end += len(tied)
        return len(length)


def sorted_side_pairs(instance: Instance, classes: Sequence[Color],
                      vertices: Sequence[int]) -> SortedPairs:
    """All admitted (length, u, v) pairs within the distinct ids `vertices`, in tie-break order.

    Admitted means the edge's color class lies in `classes`. The pair count
    comes from the color counts; the pairs themselves are found only as far
    as a reader iterates (see `_shells`).
    """
    ids = np.array(sorted(vertices), dtype=np.int64)
    color = instance.colors[ids]
    xs, ys = instance.xs[ids], instance.ys[ids]
    admitted = np.zeros(4, dtype=bool)
    admitted[[int(c) for c in classes]] = True
    r, b, p = np.bincount(color, minlength=3).tolist()
    per_class = (r * (r - 1) // 2 + r * p, b * (b - 1) // 2 + b * p, p * (p - 1) // 2)
    count = sum(c for c, ok in zip(per_class, admitted.tolist()) if ok)
    return SortedPairs(instance, count, _shells(ids, xs, ys, color, admitted, count))


def _shells(ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, color: np.ndarray,
            admitted: np.ndarray, count: int
            ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The `count` admitted pairs as (length, u, v) arrays sorted by np.hypot length, shell by shell.

    Shell j holds the pairs whose np.hypot length lies in (c_{j-1}, c_j]. Its
    pairs come from one `_grid_pairs` pass of cell side r, which finds every
    pair up to its `lim`. c_j is the last found length followed by a gap
    wider than `hypot_slack` (`_last_gap`), so every pair of a later shell is
    longer than c_j + hypot_slack(c_j). r starts where about _FIRST_BLOCK of
    `count` pairs spread evenly over the bounding box would be shorter, never
    below 1/_MAX_CELLS of its diagonal, and doubles after each pass; a pass
    that finds fewer than _FIRST_BLOCK new pairs, or no gap, yields nothing.
    Once r reaches the diagonal, or a grid would hold more pairs than
    `count`, or when every pair fits in one block, the last shell is every
    pair left, from one dense pass. So work is
    O(m + pairs up to the last grid radius) on spread points and O(m^2) at
    worst (clustered points, or readers that take every pair).
    """
    lo = -math.inf
    if count > _FIRST_BLOCK:
        w, h = float(xs.max() - xs.min()), float(ys.max() - ys.min())
        diag = math.hypot(w, h)
        # The 2-D term comes last: with w or h overflowed it may be nan, which max skips.
        r = max(math.ulp(0.0), diag / _MAX_CELLS, diag * _FIRST_BLOCK / (2 * count),
                math.sqrt(w) * math.sqrt(h) * math.sqrt(_FIRST_BLOCK / (math.pi * count)))
        while r < diag:
            found = _grid_pairs(xs, ys, r, count)
            if found is None:
                break
            a, b, lim = found
            keep = admitted[_CLASS_OF[color[a], color[b]]]
            a, b = a[keep], b[keep]
            length = _lengths(xs, ys, a, b)
            keep = (length > lo) & (length <= lim)
            length, a, b = length[keep], a[keep], b[keep]
            if len(length) >= _FIRST_BLOCK:
                order = np.argsort(length)
                length = length[order]
                end = _last_gap(length, lim)
                if end:
                    order = order[:end]
                    yield length[:end], ids[a[order]], ids[b[order]]
                    lo = float(length[end - 1])
            r *= 2.0
    pos = np.arange(len(ids))
    a, b = np.nonzero(admitted[_CLASS_OF[color[:, None], color[None, :]]] & (pos[:, None] < pos))
    length = _lengths(xs, ys, a, b)
    if lo > -math.inf:
        keep = length > lo
        length, a, b = length[keep], a[keep], b[keep]
    order = np.argsort(length)
    yield length[order], ids[a[order]], ids[b[order]]


def _grid_pairs(xs: np.ndarray, ys: np.ndarray, r: float, most: int
                ) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
    """Position pairs a < b of the points in the same or adjacent cells of side r, and `lim`.

    Each pair appears once: a point is paired with the later points of its
    own cell and every point of four forward neighbour cells. In exact
    arithmetic that finds every pair up to r long. Shifting the coordinates
    to the box corner and dividing by r round, which can move two points'
    cell coordinates apart by up to 2^-22 of a cell more than their distance
    while the box is at most _MAX_CELLS cells wide, so every pair up to
    lim = r * _GRID_MARGIN long is among them. With subnormal coordinates the
    shift is exact and only the division rounds: a pair then lands two cells
    apart only if it is r long and r spans at least 2^26 subnormal steps,
    where lim lies at least 64 steps below r. None when there would be more
    than `most` pairs.
    """
    cx = np.floor((xs - xs.min()) / r).astype(np.int64)
    cy = np.floor((ys - ys.min()) / r).astype(np.int64)
    # Row stride past the top row, so that the cells above the top row and below
    # the bottom row are empty rather than the neighbouring column's cells.
    stride = int(cy.max()) + 2
    key = cx * stride + cy
    by_cell = np.argsort(key)
    key = key[by_cell]
    pos = np.arange(len(key))
    # In cell order, the later points of the own cell and the cell above form one
    # range, and the three cells of the next column around the row form another.
    starts = np.concatenate([pos + 1, np.searchsorted(key, key + (stride - 1), side="left")])
    stops = np.concatenate([np.searchsorted(key, key + 1, side="right"),
                            np.searchsorted(key, key + (stride + 1), side="right")])
    sizes = stops - starts
    if sizes.sum() > most:
        return None
    a = np.repeat(np.concatenate([pos, pos]), sizes)
    b = np.arange(len(a)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    a, b = by_cell[a], by_cell[b]
    return np.minimum(a, b), np.maximum(a, b), r * _GRID_MARGIN


def _last_gap(length: np.ndarray, lim: float) -> int:
    """The end of the sorted `length` prefix that ends at a gap wider than `hypot_slack`, or 0.

    lim counts as the length after the last, so the prefix's last length is
    more than hypot_slack below lim as well as below the length after it.
    """
    gap = np.flatnonzero(np.append(length[1:], lim) - length > hypot_slack(length))
    return int(gap[-1]) + 1 if len(gap) else 0


def _lengths(xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.hypot lengths of the position pairs (a, b); inf where a difference overflows."""
    with np.errstate(over="ignore"):
        dx = xs[a]
        dx -= xs[b]
        dy = ys[a]
        dy -= ys[b]
    return np.hypot(dx, dy, out=dx)


def kruskal(n: int, sorted_pairs: Iterable[tuple[float, int, int]], vertices: Sequence[int],
            premerged: Iterable[Sequence[int]] = ()
            ) -> Optional[tuple[float, list[tuple[int, int]]]]:
    """Kruskal's union loop over pre-sorted (length, u, v) pairs joining ids of `vertices`.

    Each group of `premerged` is joined first at zero cost; a forced pair
    (u, v) is a group of two, and groups may reach outside `vertices`.
    Returns the total length and the (u, v) pairs taken, or None if the
    result does not connect `vertices`. Reading stops once `vertices` are
    connected: every later pair would close a cycle. The union-find is a
    parent list with path halving, inlined in the loop over the pairs.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for group in premerged:
        root = find(group[0])
        for other in group[1:]:
            parent[find(other)] = root
    # Each taken pair joins two components that hold ids of `vertices`.
    left = max(len({find(v) for v in vertices}) - 1, 0)
    total = 0.0
    chosen = []
    if left:
        for length, u, v in sorted_pairs:
            ru = u
            while parent[ru] != ru:
                parent[ru] = ru = parent[parent[ru]]
            rv = v
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            if ru != rv:
                parent[ru] = rv
                total += length
                chosen.append((u, v))
                left -= 1
                if not left:
                    break
    if left:
        return None
    return total, chosen


def kruskal_mst(instance: Instance, vertices: Sequence[int],
                classes: Sequence[Color] = (Color.RED, Color.BLUE, Color.PURPLE)) -> EdgeSet:
    """Minimum spanning tree over `vertices` using edges of the admitted classes.

    No vertex, like one, gives an empty tree.
    """
    return constrained_mst(instance, vertices, (), classes)


def constrained_mst(instance: Instance, vertices: Sequence[int],
                    forced_merges: Sequence[tuple[int, int]] = (),
                    classes: Sequence[Color] = (Color.RED, Color.BLUE, Color.PURPLE)) -> EdgeSet:
    """Minimum edge set connecting `vertices` with forced pairs pre-unioned at zero cost.

    Returned edges exclude the forced pairs themselves.
    """
    vset = set(vertices)
    verts = sorted(vset)
    for u, v in forced_merges:
        if u not in vset or v not in vset:
            raise PreconditionError(f"forced merge ({u}, {v}) outside vertex set")
    result = kruskal(instance.n, sorted_side_pairs(instance, classes, verts), verts,
                     forced_merges)
    if result is None:
        raise InfeasibleGraphError("admitted edges do not connect the vertex set")
    total, chosen = result
    # Kruskal takes pairs u < v in (length, u, v) order, the order of an EdgeSet.
    pairs = np.array(chosen, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    return EdgeSet(instance, u, v, np.array(hypot_lengths(instance, u, v), dtype=float), total)


def is_rbp_spanning(edge_set: EdgeSet) -> bool:
    """True iff red+purple edges connect R∪P and blue+purple edges connect B∪P."""
    instance, u, v, codes = edge_set.instance, edge_set.u, edge_set.v, edge_set.color_class
    for side, vertices in ((Color.RED, instance.red_side()), (Color.BLUE, instance.blue_side())):
        on_side = (codes == int(Color.PURPLE)) | (codes == int(side))  # not INVALID_CLASS
        # Kruskal over the side's pairs in any order: None iff they leave `vertices` apart.
        if kruskal(instance.n, zip(repeat(0.0), u[on_side].tolist(), v[on_side].tolist()),
                   vertices) is None:
            return False
    return True


# Candidate pairs of purple edges tested per block of the crossing count.
_CROSS_BLOCK = 4096


def _purple_crossings(instance: Instance, u: np.ndarray, v: np.ndarray
                      ) -> tuple[int, np.ndarray]:
    """Pairs of the edges (u[i], v[i]) that properly cross: (count, count per edge).

    Each pair i < j without a shared endpoint whose closed bounding boxes
    overlap is tested as `segments_properly_cross` tests the two segments.
    Other pairs cannot cross properly: a proper crossing point lies in both
    closed boxes. A sweep along the axis the edges spread over more
    (so that edges on a vertical line are not all candidates) finds the pairs
    whose boxes overlap, `_CROSS_BLOCK` pairs at a time, so memory stays
    O(len(u) + block). `orient_filter`, the float test of `_orient_sign`,
    gives the orientation signs; `_orient_sign` itself decides only the
    entries that test leaves open, and o3, o4 are taken only where o1 * o2 < 0.
    """
    p = len(u)
    per_edge = np.zeros(p, dtype=np.int64)
    if p < 2:
        return 0, per_edge
    xs, ys = instance.xs, instance.ys
    lo, hi, lo2, hi2 = (np.minimum(xs[u], xs[v]), np.maximum(xs[u], xs[v]),
                        np.minimum(ys[u], ys[v]), np.maximum(ys[u], ys[v]))
    if hi2.max() - lo2.min() > hi.max() - lo.min():
        lo, hi, lo2, hi2 = lo2, hi2, lo, hi
    order = np.argsort(lo)
    lo, hi, lo2, hi2 = lo[order], hi[order], lo2[order], hi2[order]
    # Sorted edge r overlaps, along the sweep axis, sorted edges r + 1 .. reach[r] - 1;
    # candidate k belongs to the row r with ends[r - 1] <= k < ends[r].
    reach = np.searchsorted(lo, hi, side="right")
    ends = np.cumsum(reach - np.arange(1, p + 1))
    total = int(ends[-1])
    crossings = 0
    for start in range(0, total, _CROSS_BLOCK):
        k = np.arange(start, min(start + _CROSS_BLOCK, total))
        r = np.searchsorted(ends, k, side="right")
        s = k - ends[r] + reach[r]
        keep = (lo2[r] <= hi2[s]) & (lo2[s] <= hi2[r])
        i, j = order[r[keep]], order[s[keep]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        keep = (u[i] != u[j]) & (u[i] != v[j]) & (v[i] != u[j]) & (v[i] != v[j])
        i, j = i[keep], j[keep]
        keep = _orient_signs(instance, u[i], v[i], u[j]) \
            * _orient_signs(instance, u[i], v[i], v[j]) < 0
        i, j = i[keep], j[keep]
        keep = _orient_signs(instance, u[j], v[j], u[i]) \
            * _orient_signs(instance, u[j], v[j], v[i]) < 0
        i, j = i[keep], j[keep]
        crossings += len(i)
        per_edge += np.bincount(i, minlength=p) + np.bincount(j, minlength=p)
    return crossings, per_edge


def _orient_signs(instance: Instance, a: np.ndarray, b: np.ndarray, c: np.ndarray
                  ) -> np.ndarray:
    """`_orient_sign` of the points with ids a[t], b[t], c[t], for every t.

    `orient_filter` decides in floats, with the same operations and threshold
    as `_orient_sign`; only the entries it leaves open call `_orient_sign`.
    """
    xs, ys = instance.xs, instance.ys
    with np.errstate(over="ignore", invalid="ignore"):
        det, certain = orient_filter((xs[a], ys[a]), (xs[b], ys[b]), (xs[c], ys[c]))
    sign = np.where(det > 0, 1, -1)
    coords = instance.coords
    for t in np.flatnonzero(~certain).tolist():
        sign[t] = _orient_sign(coords(int(a[t])), coords(int(b[t])), coords(int(c[t])))
    return sign


def solution_stats(edge_set: EdgeSet, solver: str = "") -> Solution:
    """Weight, per-color counts, max degree, and purple-purple crossing statistics."""
    instance = edge_set.instance
    codes = edge_set.color_class
    red, blue, purple, invalid = np.bincount(codes, minlength=INVALID_CLASS + 1).tolist()
    if invalid:
        raise PreconditionError("solution contains an invalid red-blue edge")
    degree = (np.bincount(edge_set.u, minlength=instance.n)
              + np.bincount(edge_set.v, minlength=instance.n))
    is_purple = codes == Color.PURPLE
    u, v = edge_set.u[is_purple], edge_set.v[is_purple]
    crossings, per_edge = _purple_crossings(instance, u, v)
    return Solution(
        edge_set=edge_set,
        red_edges=red,
        blue_edges=blue,
        purple_edges=purple,
        max_degree=int(degree.max()),
        purple_crossings=crossings,
        solver=solver,
        purple_crossings_per_edge=dict(zip(zip(u.tolist(), v.tolist()), per_edge.tolist())),
    )


def stats_block(solution: Solution) -> str:
    """Flat key-value text block for scripting and golden-file tests."""
    lines = [
        "weight %.12g" % solution.weight,
        "red_edges %d" % solution.red_edges,
        "blue_edges %d" % solution.blue_edges,
        "purple_edges %d" % solution.purple_edges,
        "max_degree %d" % solution.max_degree,
        "purple_crossings %d" % solution.purple_crossings,
        "solver %s" % (solution.solver or "unknown"),
    ]
    return "\n".join(lines) + "\n"
