"""Exact minimum RBP spanning graph via matroid intersection on dual graphic matroids.

The candidate edge set starts as the full allowed edge set and shrinks one edge
per round along a minimum-cost alternating exchange sequence, found as a
shortest path in an auxiliary exchange graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphops import BLUE_SIDE, RED_SIDE, DisjointSets, is_rbp_spanning, solution_stats
from .model import Color, Edge, Instance, Solution, make_edge_set


@dataclass(frozen=True)
class ExchangeSequence:
    """Alternating remove/add edge sequence e1..e_{2h+1}; odd positions leave X."""

    edge_indices: tuple[int, ...]
    cost: float

    @property
    def hops(self) -> int:
        return len(self.edge_indices)


@dataclass(frozen=True)
class ExchangeGraph:
    """Auxiliary directed graph; nodes are edge indices plus source and sink."""

    num_nodes: int  # len(E) + 2
    source: int
    sink: int
    src: np.ndarray
    dst: np.ndarray
    wt: np.ndarray


class _SideState:
    """Connectivity structure of one color side of the current candidate set X.

    Answers in O(1): is X-e still connected on this side, and does an edge f
    reconnect the cut opened by removing a bridge e.
    """

    def __init__(self, instance: Instance, edges: Sequence[Edge], x_indices, side):
        self.side = side
        n = instance.n
        self.vertices = [p.id for p in instance.points if p.color in side]
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.in_side = [False] * len(edges)
        for ei in x_indices:
            e = edges[ei]
            if e.color_class in side:
                self.in_side[ei] = True
                adj[e.u].append((e.v, ei))
                adj[e.v].append((e.u, ei))
        self.bridges: set[int] = set()
        self.cut_labels: dict[int, np.ndarray] = {}
        if len(self.vertices) > 1:
            for b in self._find_bridges(n, adj):
                self.bridges.add(b)
                self.cut_labels[b] = self._labels_without(n, adj, edges[b], b)

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

    def removable(self, ei: int) -> bool:
        """X - e keeps this side connected."""
        return not self.in_side[ei] or ei not in self.bridges

    def reconnecting_mask(self, bridge_idx: int, u_arr: np.ndarray, v_arr: np.ndarray,
                          side_mask: np.ndarray) -> np.ndarray:
        """Which candidate edges (endpoint arrays) close the cut of a removed bridge."""
        lab = self.cut_labels[bridge_idx]
        return side_mask & (lab[u_arr] != lab[v_arr])


def build_exchange_graph(instance: Instance, edges: Sequence[Edge],
                         x_indices: frozenset[int]) -> ExchangeGraph:
    """Exchange graph for candidate set X over allowed edge list E.

    Arcs: source->e (e in X, X-e blue-connected, weight -w(e));
    e->f (e in X, f not in X, X-e+f red-connected, weight +w(f));
    f->e' (X+f-e' blue-connected, weight -w(e'));
    e->sink (X-e red-connected, weight 0).
    """
    m = len(edges)
    source, sink = m, m + 1
    red = _SideState(instance, edges, x_indices, RED_SIDE)
    blue = _SideState(instance, edges, x_indices, BLUE_SIDE)

    w = np.array([e.length for e in edges]) if m else np.zeros(0)
    u_arr = np.array([e.u for e in edges], dtype=np.int64) if m else np.zeros(0, dtype=np.int64)
    v_arr = np.array([e.v for e in edges], dtype=np.int64) if m else np.zeros(0, dtype=np.int64)
    red_mask = np.array([e.color_class in RED_SIDE for e in edges], dtype=bool)
    blue_mask = np.array([e.color_class in BLUE_SIDE for e in edges], dtype=bool)

    in_x = sorted(x_indices)
    out_x = np.array(sorted(set(range(m)) - set(x_indices)), dtype=np.int64)

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    wts: list[np.ndarray] = []

    def _add(s, d, ww):
        srcs.append(np.asarray(s, dtype=np.int64))
        dsts.append(np.asarray(d, dtype=np.int64))
        wts.append(np.asarray(ww, dtype=float))

    for ei in in_x:
        if blue.removable(ei):
            _add([source], [ei], [-w[ei]])
        if red.removable(ei):
            _add([ei], [sink], [0.0])
        if out_x.size:
            if red.removable(ei):
                _add(np.full(out_x.size, ei), out_x, w[out_x])
            elif ei in red.bridges:
                mask = red.reconnecting_mask(ei, u_arr[out_x], v_arr[out_x], red_mask[out_x])
                f = out_x[mask]
                if f.size:
                    _add(np.full(f.size, ei), f, w[f])
            if blue.removable(ei):
                _add(out_x, np.full(out_x.size, ei), np.full(out_x.size, -w[ei]))
            elif ei in blue.bridges:
                mask = blue.reconnecting_mask(ei, u_arr[out_x], v_arr[out_x], blue_mask[out_x])
                f = out_x[mask]
                if f.size:
                    _add(f, np.full(f.size, ei), np.full(f.size, -w[ei]))

    if srcs:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        wt = np.concatenate(wts)
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
        wt = np.zeros(0)
    return ExchangeGraph(m + 2, source, sink, src, dst, wt)


def find_min_exchange_sequence(instance: Instance, edges: Sequence[Edge],
                               x_indices: frozenset[int]) -> Optional[ExchangeSequence]:
    """Minimum-cost source-to-sink exchange, ties by hop count then node order.

    Negative arc weights are handled by an exact-hop-count dynamic program
    (no negative cycles exist by matroid exchange theory).
    """
    graph = build_exchange_graph(instance, edges, x_indices)
    if graph.src.size == 0:
        return None
    n_nodes = graph.num_nodes
    order = np.argsort(graph.dst, kind="stable")
    src_s = graph.src[order]
    dst_s = graph.dst[order]
    wt_s = graph.wt[order]
    unique_dst, starts = np.unique(dst_s, return_index=True)

    inf = math.inf
    dist = np.full((n_nodes, n_nodes), inf)  # dist[h, v]: min cost with exactly h arcs
    dist[0, graph.source] = 0.0
    max_h = n_nodes - 1
    for h in range(1, n_nodes):
        cand = dist[h - 1, src_s] + wt_s
        mins = np.minimum.reduceat(cand, starts)
        dist[h, :] = inf
        dist[h, unique_dst] = mins
        if not np.isfinite(dist[h]).any():
            max_h = h - 1
            break

    sink_costs = dist[: max_h + 1, graph.sink]
    best = sink_costs.min(initial=inf)
    if not math.isfinite(best):
        return None
    h_star = int(np.nonzero(sink_costs == best)[0][0])

    # Walk the hop-indexed DP backwards; equality is exact because each dist
    # entry is itself one of the candidate sums.
    path = [graph.sink]
    v, h = graph.sink, h_star
    while h > 0:
        into = np.nonzero(dst_s == v)[0]
        cand = dist[h - 1, src_s[into]] + wt_s[into]
        ok = into[cand == dist[h, v]]
        v = int(src_s[ok].min())
        path.append(v)
        h -= 1
    path.reverse()
    assert path[0] == graph.source
    seq = tuple(path[1:-1])
    assert len(seq) % 2 == 1
    return ExchangeSequence(seq, float(best))


def solve_exact(instance: Instance, return_trace: bool = False):
    """Minimum-weight RBP spanning graph, O(n^6) worst case.

    With return_trace=True also returns the map cardinality -> weight of the
    best candidate visited at that cardinality (convexity diagnostic).
    """
    from .model import allowed_edges

    edges = allowed_edges(instance)
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
