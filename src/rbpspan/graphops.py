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
    edge_between,
    edge_color,
    edges_properly_cross,
    hypot_slack,
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
    per_edge = {e.pair: 0 for e in purple}
    crossings = 0
    for i in range(len(purple)):
        for j in range(i + 1, len(purple)):
            e1, e2 = purple[i], purple[j]
            if {e1.u, e1.v} & {e2.u, e2.v}:
                continue
            if edges_properly_cross(instance, e1, e2):
                crossings += 1
                per_edge[e1.pair] += 1
                per_edge[e2.pair] += 1
    return Solution(
        edge_set=edge_set,
        red_edges=counts[Color.RED],
        blue_edges=counts[Color.BLUE],
        purple_edges=counts[Color.PURPLE],
        max_degree=max(degree) if degree else 0,
        purple_crossings=crossings,
        solver=solver,
        purple_crossings_per_edge=per_edge,
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
