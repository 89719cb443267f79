"""Union-find, (constrained) MSTs, RBP validity checking, and solution statistics."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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


def sorted_side_pairs(instance: Instance, classes: Sequence[Color],
                      vertices: Sequence[int]) -> list[tuple[float, int, int]]:
    """All admitted (length, u, v) pairs within `vertices`, in tie-break order.

    Admitted means the edge's color class lies in `classes`.
    """
    verts = list(vertices)
    cls = set(classes)
    pts = instance.points
    out = []
    for a in range(len(verts)):
        u = verts[a]
        cu = pts[u].color
        for b in range(a + 1, len(verts)):
            v = verts[b]
            ec = edge_color(cu, pts[v].color)
            if ec in cls:
                uu, vv = (u, v) if u < v else (v, u)
                out.append((instance.distance(uu, vv), uu, vv))
    out.sort()
    return out


def kruskal(n: int, sorted_pairs: Sequence[tuple[float, int, int]], vertices: Sequence[int],
            premerged: Iterable[Sequence[int]] = ()
            ) -> Optional[tuple[float, list[tuple[int, int]]]]:
    """Kruskal's union loop over pre-sorted (length, u, v) pairs.

    Each group of `premerged` is joined first at zero cost; a forced pair
    (u, v) is a group of two. Returns the total length and the (u, v) pairs
    taken, or None if the result does not connect `vertices`.
    """
    ds = DisjointSets(n)
    union = ds.union
    for group in premerged:
        for other in group[1:]:
            union(group[0], other)
    total = 0.0
    chosen = []
    for length, u, v in sorted_pairs:
        if union(u, v):
            total += length
            chosen.append((u, v))
    if not ds.connected_over(vertices):
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
