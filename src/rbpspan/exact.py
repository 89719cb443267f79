"""Exact minimum RBP spanning graph via matroid intersection on dual graphic matroids.

The candidate edge set starts as the pruned ground set (`ground_set`: every
purple edge plus the red-class edges of the R∪P Euclidean MST and the
blue-class edges of the B∪P one) and shrinks one edge per round along a
minimum-cost alternating exchange sequence, found as a shortest path in an
auxiliary exchange graph held as one dense (m+2) x (m+2) arc-weight matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphops import (
    BLUE_SIDE,
    RED_SIDE,
    is_rbp_spanning,
    kruskal,
    solution_stats,
)
from .model import Color, Edge, Instance, Solution, make_edge_set


@dataclass(frozen=True)
class ExchangeSequence:
    """Alternating remove/add edge sequence e1..e_{2h+1}; odd positions leave X."""

    edge_indices: tuple[int, ...]
    cost: float

    @property
    def hops(self) -> int:
        return len(self.edge_indices)


class _SideState:
    """Connectivity of one color side of the current candidate set X, as masks over E.

    `removable[e]`: X-e keeps this side connected. `keep[e, f]`: X-e+f keeps
    it connected, that is e is removable or f joins the two parts that
    removing the bridge e leaves (the cut labels of e differ at f's ends).
    """

    def __init__(self, instance: Instance, edges: Sequence[Edge], x_indices, side,
                 u: np.ndarray, v: np.ndarray):
        n, m = instance.n, len(edges)
        self.vertices = [p.id for p in instance.points if p.color in side]
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for ei in x_indices:
            e = edges[ei]
            if e.color_class in side:
                adj[e.u].append((e.v, ei))
                adj[e.v].append((e.u, ei))
        self.removable = np.ones(m, dtype=bool)
        cut_labels = np.zeros((m, n), dtype=np.int8)
        for b in self._find_bridges(n, adj):
            self.removable[b] = False
            cut_labels[b] = self._labels_without(n, adj, edges[b], b)
        in_side = np.array([e.color_class in side for e in edges], dtype=bool)
        self.keep = self.removable[:, None] | (in_side & (cut_labels[:, u] != cut_labels[:, v]))

    def _find_bridges(self, n: int, adj) -> list[int]:
        disc = [-1] * n
        low = [0] * n
        timer = 0
        bridges = []
        for s in self.vertices:
            if disc[s] != -1:
                continue
            disc[s] = low[s] = timer
            timer += 1
            stack = [(s, -1)]
            iters = [iter(adj[s])]
            while stack:
                v, parent_edge = stack[-1]
                advanced = False
                for w, ei in iters[-1]:
                    if ei == parent_edge:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, ei))
                        iters.append(iter(adj[w]))
                        advanced = True
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                if not advanced:
                    stack.pop()
                    iters.pop()
                    if stack:
                        u = stack[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] > disc[u]:
                            bridges.append(parent_edge)
        return bridges

    def _labels_without(self, n: int, adj, bridge_edge: Edge, bridge_idx: int) -> np.ndarray:
        labels = np.zeros(n, dtype=np.int8)
        queue = [bridge_edge.u]
        labels[bridge_edge.u] = 1
        while queue:
            v = queue.pop()
            for w, ei in adj[v]:
                if ei == bridge_idx or labels[w]:
                    continue
                labels[w] = 1
                queue.append(w)
        return labels


def build_exchange_graph(instance: Instance, edges: Sequence[Edge],
                         x_indices: frozenset[int]) -> np.ndarray:
    """Exchange graph for candidate set X over edge list E, as an arc-weight matrix.

    Nodes are the edge indices 0..m-1, then the source m and the sink m+1.
    Entry [a, b] is the weight of arc a->b, and inf where there is no arc:
    source->e (e in X, X-e blue-connected, weight -w(e));
    e->f (e in X, f not in X, X-e+f red-connected, weight +w(f));
    f->e (f not in X, e in X, X+f-e blue-connected, weight -w(e));
    e->sink (e in X, X-e red-connected, weight 0).
    """
    m = len(edges)
    source, sink = m, m + 1
    w = np.array([e.length for e in edges], dtype=float)
    u = np.array([e.u for e in edges], dtype=np.int64)
    v = np.array([e.v for e in edges], dtype=np.int64)
    red = _SideState(instance, edges, x_indices, RED_SIDE, u, v)
    blue = _SideState(instance, edges, x_indices, BLUE_SIDE, u, v)
    in_x = np.zeros(m, dtype=bool)
    in_x[list(x_indices)] = True
    out_x = ~in_x

    graph = np.full((m + 2, m + 2), math.inf)
    graph[source, :m] = np.where(in_x & blue.removable, -w, math.inf)
    graph[:m, sink] = np.where(in_x & red.removable, 0.0, math.inf)
    # Both arc kinds between edges weigh the head's ±w; their tails lie on
    # opposite sides of X, so no cell holds two arcs.
    graph[:m, :m] = np.where(in_x[:, None] & out_x & red.keep, w,
                             np.where(out_x[:, None] & in_x & blue.keep.T, -w, math.inf))
    return graph


def find_min_exchange_sequence(instance: Instance, edges: Sequence[Edge],
                               x_indices: frozenset[int]) -> Optional[ExchangeSequence]:
    """Minimum-cost source-to-sink exchange, ties by hop count then node order.

    Negative arc weights are handled by an exact-hop-count dynamic program
    over the dense arc-weight matrix (no negative cycles exist by matroid
    exchange theory): with N = m + 2 nodes, each of at most N - 1 hops is one
    O(N^2) relaxation, so a call takes O(m^3) time and O(m^2) memory.
    Returns None when no exchange exists.
    """
    graph = build_exchange_graph(instance, edges, x_indices)
    n_nodes = len(graph)
    source, sink = n_nodes - 2, n_nodes - 1

    dist = np.full((n_nodes, n_nodes), math.inf)  # dist[h, v]: min cost with exactly h arcs
    dist[0, source] = 0.0
    max_h = n_nodes - 1
    for h in range(1, n_nodes):
        dist[h] = (dist[h - 1][:, None] + graph).min(axis=0)
        if not np.isfinite(dist[h]).any():
            max_h = h - 1
            break

    h_star = int(np.argmin(dist[: max_h + 1, sink]))  # the first, fewest-hop minimum
    best = dist[h_star, sink]
    if not math.isfinite(best):
        return None

    # Walk the hop-indexed DP backwards to the lowest-id predecessor each
    # time; equality is exact because each dist entry is one of these sums.
    path = [sink]
    v, h = sink, h_star
    while h > 0:
        v = int(np.flatnonzero(dist[h - 1] + graph[:, v] == dist[h, v])[0])
        path.append(v)
        h -= 1
    path.reverse()
    assert path[0] == source
    seq = tuple(path[1:-1])
    assert len(seq) % 2 == 1
    return ExchangeSequence(seq, float(best))


def ground_set(instance: Instance) -> list[Edge]:
    """The edges an optimum needs, in (length, u, v) order.

    Every purple edge, the red-class edges of the tie-broken Euclidean MST of
    R∪P and the blue-class edges of the tie-broken MST of B∪P; tie-broken
    means ordered by `Edge.sort_key`, (length, u, v), a strict total order, so
    each MST is unique. There are at most (|R∪P|-1) + (|B∪P|-1) + C(k, 2) of
    them, so m <= 2n + C(k, 2).

    Some optimum lies inside this set. Take an optimum with the fewest red
    edges outside the R∪P tree T, and suppose it uses such an edge e. Removing
    e from its red side (red and purple edges) splits R∪P in two; otherwise
    the optimum minus e, shorter by |e| > 0, would still be RBP-spanning. The
    path in T between the ends of e crosses that cut at some edge f. Since e
    is not in T, e is the last edge of its cycle with T in (length, u, v)
    order, so f comes earlier and is no longer. f joins two points of R∪P, so
    it is red-class or purple, and it is not in the optimum, whose red side
    minus e has no edge across the cut. OPT - e + f keeps the red side
    connected, leaves the blue side (which e was not on) as it was, weighs no
    more and has one red edge fewer outside T. Blue edges and the B∪P tree
    work the same way, and those exchanges touch no red edge.
    """
    # Looked up on rbpspan.model at call time, so that a wrapper installed on
    # model.allowed_edges (perfbench/spans.py) sees the call.
    from .model import allowed_edges

    edges = allowed_edges(instance)
    keep = set()
    for side, vertices in ((RED_SIDE, instance.red_side()), (BLUE_SIDE, instance.blue_side())):
        _, tree = kruskal(instance.n, (e.sort_key for e in edges if e.color_class in side),
                          vertices)
        keep.update(tree)
    return [e for e in edges if e.color_class == Color.PURPLE or e.pair in keep]


def solve_exact(instance: Instance, return_trace: bool = False):
    """Minimum-weight RBP spanning graph over `ground_set(instance)`.

    With m <= 2n + C(k, 2) ground edges there are at most m rounds, each a
    hop-indexed DP of at most m + 1 relaxations over the dense (m+2) x (m+2)
    arc-weight matrix: O(m^4) time in all and O(m^2) memory per round.
    Median over `gen_random(n, 0.4, 0.4, seed=s)`, s = 0..15, on a 2-CPU
    x86-64 host: 0.004 s at n = 20, 0.011 s at n = 30 and 0.044 s at n = 40
    (max 0.36 s).

    With return_trace=True also returns the map cardinality -> weight of the
    best candidate visited at that cardinality (convexity diagnostic).
    """
    edges = ground_set(instance)
    m = len(edges)
    x = frozenset(range(m))
    weight = math.fsum(e.length for e in edges)
    trace = {m: weight}
    best_weight, best_x = weight, x

    for _ in range(m + 1):
        seq = find_min_exchange_sequence(instance, edges, x)
        if seq is None:
            break
        removed = set(seq.edge_indices[0::2])
        added = set(seq.edge_indices[1::2])
        assert removed <= x and not (added & x)
        x = frozenset((x - removed) | added)
        weight = math.fsum(edges[i].length for i in sorted(x))
        trace[len(x)] = weight
        if not is_rbp_spanning(instance, [edges[i] for i in x]):
            raise AssertionError("exchange produced a non-spanning candidate set")
        if weight < best_weight:
            best_weight, best_x = weight, x

    edge_set = make_edge_set(instance, [edges[i].pair for i in sorted(best_x)])
    solution = solution_stats(instance, edge_set, solver="exact")
    if return_trace:
        return solution, trace
    return solution
