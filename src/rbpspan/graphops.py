"""Union-find, (constrained) MSTs, RBP validity checking, and solution statistics."""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import (
    Color,
    Edge,
    EdgeSet,
    Instance,
    PreconditionError,
    Solution,
    _orient_sign,
    edge_between,
    edge_color,
    hypot_slack,
    orient_filter,
)

RED_SIDE = (Color.RED, Color.PURPLE)
BLUE_SIDE = (Color.BLUE, Color.PURPLE)


class InfeasibleGraphError(PreconditionError):
    """The admitted edge set cannot connect the requested vertex set."""


class DisjointSets:
    """Union-find with path compression and union by rank."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def copy(self) -> "DisjointSets":
        other = DisjointSets(0)
        other.parent = list(self.parent)
        other.rank = list(self.rank)
        return other

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True

    def connected_over(self, vertices: Sequence[int]) -> bool:
        if len(vertices) <= 1:
            return True
        r0 = self.find(vertices[0])
        return all(self.find(v) == r0 for v in vertices[1:])


# Edge color class by the two point colors; 3 marks the invalid red-blue pair.
_CLASS_OF = np.array([[3 if edge_color(a, b) is None else int(edge_color(a, b)) for b in Color]
                      for a in Color], dtype=np.int8)
_FIRST_BLOCK = 1024


class SortedPairs:
    """(length, u, v) pairs in tie-break order, held as numpy arrays and made into tuples lazily.

    `length`, `u` and `v` are sorted by np.hypot length, ties in any order.
    Iterating yields (instance.distance(u, v), u, v) tuples in (length, u, v)
    order, the order of sorting them all. Tuples are made one block at a
    time, each block as large as what is already made, and are kept: a
    second iteration (or a second Kruskal run) reads the kept prefix first,
    and Python work stays proportional to the longest prefix any reader takes.

    A block ends only where the next numpy length exceeds the one before it
    by more than `hypot_slack` of it, and each block is sorted by the exact
    key. That blocked order is the full order: np.hypot and math.hypot each
    lie within one ulp of the true length, so if p ends a block and q lies in
    a later block, np(q) > np(p) + hypot_slack(np(p)) leaves room for both
    errors and distance(q) > distance(p). Every pair of a block precedes every
    pair of later blocks under the exact key, so sorting within blocks is
    enough, and the numpy sort need not be stable.
    """

    __slots__ = ("_instance", "_length", "_u", "_v", "_made")

    def __init__(self, instance: Instance, length: np.ndarray, u: np.ndarray, v: np.ndarray):
        self._instance = instance
        self._length = length
        self._u = u
        self._v = v
        self._made: list[tuple[float, int, int]] = []

    def __len__(self) -> int:
        return len(self._length)

    def __iter__(self) -> Iterator[tuple[float, int, int]]:
        made = self._made
        i = 0
        while i < len(made) or self._extend():
            j = len(made)
            yield from islice(made, i, j)
            i = j

    def _extend(self) -> bool:
        """Make the next block of tuples; False when all are made."""
        start = len(self._made)
        if start == len(self._length):
            return False
        end = self._block_end(min(len(self._length), start + max(start, _FIRST_BLOCK)))
        dist = self._instance.distance
        block = [(dist(u, v), u, v) for u, v in zip(self._u[start:end].tolist(),
                                                    self._v[start:end].tolist())]
        block.sort()
        self._made.extend(block)
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

    Admitted means the edge's color class lies in `classes`.
    """
    ids = np.array(sorted(vertices), dtype=np.int64)
    pts = [instance.points[i] for i in ids.tolist()]
    color = np.array([p.color for p in pts], dtype=np.int8)
    xs = np.array([p.x for p in pts], dtype=float)
    ys = np.array([p.y for p in pts], dtype=float)
    admitted = np.zeros(4, dtype=bool)
    admitted[[int(c) for c in classes]] = True
    iu, iv = np.nonzero(np.triu(admitted[_CLASS_OF[color[:, None], color[None, :]]], 1))
    dx = xs[iu]
    dx -= xs[iv]
    dy = ys[iu]
    dy -= ys[iv]
    length = np.hypot(dx, dy, out=dx)
    del dy
    order = np.argsort(length)
    return SortedPairs(instance, length[order], ids[iu[order]], ids[iv[order]])


def kruskal(n: int, sorted_pairs: Iterable[tuple[float, int, int]], vertices: Sequence[int],
            premerged: Iterable[Sequence[int]] = ()
            ) -> Optional[tuple[float, list[tuple[int, int]]]]:
    """Kruskal's union loop over pre-sorted (length, u, v) pairs joining ids of `vertices`.

    Each group of `premerged` is joined first at zero cost; a forced pair
    (u, v) is a group of two, and groups may reach outside `vertices`.
    Returns the total length and the (u, v) pairs taken, or None if the
    result does not connect `vertices`. Reading stops once `vertices` are
    connected: every later pair would close a cycle.
    """
    ds = DisjointSets(n)
    union = ds.union
    for group in premerged:
        for other in group[1:]:
            union(group[0], other)
    # Each taken pair joins two components that hold ids of `vertices`.
    left = max(len({ds.find(v) for v in vertices}) - 1, 0)
    total = 0.0
    chosen = []
    if left:
        for length, u, v in sorted_pairs:
            if union(u, v):
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
    """Minimum spanning tree over `vertices` using edges of the admitted classes."""
    if len(vertices) < 1:
        raise PreconditionError("kruskal_mst needs at least one vertex")
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
    # Kruskal takes pairs in (length, u, v) order, which is Edge.sort_key.
    return EdgeSet(instance, tuple(edge_between(instance, u, v) for u, v in chosen), total)


def is_rbp_spanning(instance: Instance, edges: Iterable[Edge]) -> bool:
    """True iff red+purple edges connect R∪P and blue+purple edges connect B∪P."""
    red_ds = DisjointSets(instance.n)
    blue_ds = DisjointSets(instance.n)
    for e in edges:
        if e.color_class in RED_SIDE:
            red_ds.union(e.u, e.v)
        if e.color_class in BLUE_SIDE:
            blue_ds.union(e.u, e.v)
    return (red_ds.connected_over(instance.red_side())
            and blue_ds.connected_over(instance.blue_side()))


# Candidate pairs of purple edges tested per block of the crossing count.
_CROSS_BLOCK = 4096


def _purple_crossings(instance: Instance, purple: Sequence[Edge]) -> tuple[int, np.ndarray]:
    """Pairs of `purple` edges that properly cross: (count, count per edge of `purple`).

    Each pair i < j without a shared endpoint whose closed bounding boxes
    overlap is tested as `edges_properly_cross(instance, purple[i], purple[j])`
    tests it. Other pairs cannot cross properly: a proper crossing point lies
    in both closed boxes. A sweep along the axis the edges spread over more
    (so that edges on a vertical line are not all candidates) finds the pairs
    whose boxes overlap, `_CROSS_BLOCK` pairs at a time, so memory stays
    O(len(purple) + block). `orient_filter`, the float test of `_orient_sign`,
    gives the orientation signs; `_orient_sign` itself decides only the
    entries that test leaves open, and o3, o4 are taken only where o1 * o2 < 0.
    """
    p = len(purple)
    per_edge = np.zeros(p, dtype=np.int64)
    if p < 2:
        return 0, per_edge
    u = np.array([e.u for e in purple], dtype=np.int64)
    v = np.array([e.v for e in purple], dtype=np.int64)
    xs = np.array([pt.x for pt in instance.points], dtype=float)
    ys = np.array([pt.y for pt in instance.points], dtype=float)
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
        keep = _orient_signs(instance, xs, ys, u[i], v[i], u[j]) \
            * _orient_signs(instance, xs, ys, u[i], v[i], v[j]) < 0
        i, j = i[keep], j[keep]
        keep = _orient_signs(instance, xs, ys, u[j], v[j], u[i]) \
            * _orient_signs(instance, xs, ys, u[j], v[j], v[i]) < 0
        i, j = i[keep], j[keep]
        crossings += len(i)
        per_edge += np.bincount(i, minlength=p) + np.bincount(j, minlength=p)
    return crossings, per_edge


def _orient_signs(instance: Instance, xs: np.ndarray, ys: np.ndarray,
                  a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`_orient_sign` of the points with ids a[t], b[t], c[t], for every t.

    `orient_filter` decides in floats, with the same operations and threshold
    as `_orient_sign`; only the entries it leaves open call `_orient_sign`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det, certain = orient_filter((xs[a], ys[a]), (xs[b], ys[b]), (xs[c], ys[c]))
    sign = np.where(det > 0, 1, -1)
    coords = instance.coords
    for t in np.flatnonzero(~certain).tolist():
        sign[t] = _orient_sign(coords(int(a[t])), coords(int(b[t])), coords(int(c[t])))
    return sign


def solution_stats(instance: Instance, edge_set: EdgeSet, solver: str = "") -> Solution:
    """Weight, per-color counts, max degree, and purple-purple crossing statistics."""
    counts = {Color.RED: 0, Color.BLUE: 0, Color.PURPLE: 0}
    degree = [0] * instance.n
    for e in edge_set.edges:
        if e.color_class is None:
            raise PreconditionError("solution contains an invalid red-blue edge")
        counts[e.color_class] += 1
        degree[e.u] += 1
        degree[e.v] += 1
    purple = [e for e in edge_set.edges if e.color_class == Color.PURPLE]
    crossings, per_edge = _purple_crossings(instance, purple)
    return Solution(
        edge_set=edge_set,
        red_edges=counts[Color.RED],
        blue_edges=counts[Color.BLUE],
        purple_edges=counts[Color.PURPLE],
        max_degree=max(degree) if degree else 0,
        purple_crossings=crossings,
        solver=solver,
        purple_crossings_per_edge=dict(zip((e.pair for e in purple), per_edge.tolist())),
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
