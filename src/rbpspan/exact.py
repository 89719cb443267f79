"""Exact minimum RBP spanning graph via matroid intersection on dual graphic matroids.

The candidate edge set starts as the pruned ground set (`ground_set`, an
`EdgeSet`: every purple edge plus the red-class edges of the R∪P Euclidean
MST and the blue-class edges of the B∪P one) and shrinks one edge per round
along a minimum-cost alternating exchange sequence, found as a shortest path
in an auxiliary exchange graph held as one dense (m+2) x (m+2) arc-weight
matrix, whose arcs come from one BFS tree of each side of the current edge
set.

No round's exchange costs less than the one before (the best weight of a
common independent set is concave in its size, Frank, J. Algorithms 1981, and
X is the complement of one), so `solve_exact` stops at the first round that
does not lower the weight of X: X is then optimal.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .graphops import BLUE_SIDE, RED_SIDE, kruskal, solution_stats, sorted_side_pairs
from .model import Color, EdgeSet, Instance, PreconditionError, Solution, make_edge_set


def _side_masks(ground: EdgeSet, in_x: np.ndarray, in_side: np.ndarray,
                vertices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Connectivity of one color side of the candidate set X, as masks over E.

    `in_side` marks the side's ground edges and `vertices` are its sorted point ids.

    Returns `removable[e]`: X-e keeps this side connected, and `keep[e, f]`:
    X-e+f keeps it connected, that is e is removable or f joins the two parts
    that removing the bridge e leaves. Both come from one BFS tree of the
    side's X edges, which must connect the side: only tree edges can be
    bridges, `below[e]` marks the vertices under tree edge e, and e is a
    bridge iff no off-tree X edge of the side has exactly one end below it.
    A BFS that misses a side vertex raises AssertionError; this is
    `solve_exact`'s only per-round check that X still spans.
    """
    u, v, n = ground.u, ground.v, ground.instance.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    side_x = in_x & in_side
    on = np.flatnonzero(side_x)
    for a, b, ei in zip(u[on].tolist(), v[on].tolist(), on.tolist()):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    path = np.zeros((n, n), dtype=bool)  # path[w, a]: a is on the tree path from the root to w
    order, tree_edges = list(vertices[:1]), []  # BFS order; tree_edges[i] reaches order[i + 1]
    seen = set(order)
    for w in order:  # `order` grows as vertices are reached
        path[w, w] = True
        for x, ei in adj[w]:
            if x not in seen:
                seen.add(x)
                order.append(x)
                tree_edges.append(ei)
                path[x] = path[w]
    if len(order) != len(vertices):  # raised, not asserted, so that it holds under python -O
        raise AssertionError("the side of X is not connected")
    below = np.zeros((len(u), n), dtype=bool)
    below[tree_edges] = path[:, order[1:]].T
    tree = below.any(axis=1)
    cut = below[:, u] != below[:, v]  # cut[e, f]: f has exactly one end below e
    removable = ~tree | (cut & (side_x & ~tree)).any(axis=1)
    return removable, removable[:, None] | (in_side & cut)


def build_exchange_graph(ground: EdgeSet, x_indices: frozenset[int]) -> np.ndarray:
    """Exchange graph for candidate set X over the edges E of `ground`, as an arc-weight matrix.

    Nodes are the edge indices 0..m-1, then the source m and the sink m+1.
    Entry [a, b] is the weight of arc a->b, and inf where there is no arc:
    source->e (e in X, X-e blue-connected, weight -w(e));
    e->f (e in X, f not in X, X-e+f red-connected, weight +w(f));
    f->e (f not in X, e in X, X+f-e blue-connected, weight -w(e));
    e->sink (e in X, X-e red-connected, weight 0).
    `ground` holds no red-blue edge, so the red side's edges are the
    non-blue ones and the blue side's the non-red ones.
    """
    instance, w, codes = ground.instance, ground.length, ground.color_class
    m = len(w)
    source, sink = m, m + 1
    in_x = np.zeros(m, dtype=bool)
    in_x[list(x_indices)] = True
    # int(): an array compared with an IntEnum member takes a slow path, about 5 us.
    red_removable, red_keep = _side_masks(ground, in_x, codes != int(Color.BLUE),
                                          instance.red_side())
    blue_removable, blue_keep = _side_masks(ground, in_x, codes != int(Color.RED),
                                            instance.blue_side())

    graph = np.full((m + 2, m + 2), math.inf)
    graph[source, :m] = np.where(in_x & blue_removable, -w, math.inf)
    graph[:m, sink] = np.where(in_x & red_removable, 0.0, math.inf)
    # Arcs between edges run from X to E-X (red keep) and from E-X to X (blue
    # keep); each weighs its head's w, negated for a head in X.
    arcs = np.where(in_x[:, None], red_keep, blue_keep.T) & (in_x[:, None] != in_x)
    graph[:m, :m] = np.where(arcs, np.where(in_x, -w, w), math.inf)
    return graph


def find_min_exchange_sequence(ground: EdgeSet, x_indices: frozenset[int]
                               ) -> Optional[tuple[tuple[int, ...], float]]:
    """Minimum-cost source-to-sink exchange as (edge indices, cost); None if there is none.

    The indices e1..e_{2h+1} alternate: odd positions leave X, even ones join
    it. Ties go by hop count, then node order. Negative arc weights are
    handled by an exact-hop-count dynamic program over the dense arc-weight
    matrix (no negative cycles exist by matroid exchange theory). It stops at
    the first hop that lowers no node's best cost over fewer hops, as no later
    hop can lower one then. At most N - 1 hops of O(N^2) over the N = m + 2
    nodes: O(m^3) time and O(m^2) memory per call.
    """
    graph = build_exchange_graph(ground, x_indices)
    n_nodes = len(graph)
    source, sink = n_nodes - 2, n_nodes - 1

    dist = [np.full(n_nodes, math.inf)]  # dist[h][v]: min cost with exactly h arcs
    dist[0][source] = 0.0
    best = dist[0]
    for _ in range(1, n_nodes):
        row = (dist[-1][:, None] + graph).min(axis=0)
        if not (row < best).any():
            break
        dist.append(row)
        best = np.minimum(best, row)

    h_star = int(np.argmin([row[sink] for row in dist]))  # the first, fewest-hop minimum
    cost = dist[h_star][sink]
    if not math.isfinite(cost):
        return None

    # Walk the hop-indexed DP backwards to the lowest-id predecessor each
    # time; equality is exact because each dist entry is one of these sums.
    walk, v = [], sink  # the nodes at hops h_star - 1, ..., 0
    for h in range(h_star, 0, -1):
        v = int(np.flatnonzero(dist[h - 1] + graph[:, v] == dist[h][v])[0])
        walk.append(v)
    if walk[-1] != source or len(walk) % 2:
        raise AssertionError("the exchange walk back from the sink misses the source")
    return tuple(reversed(walk[:-1])), float(cost)


def ground_set(instance: Instance) -> EdgeSet:
    """The edges an optimum needs, as an `EdgeSet`.

    Every purple edge, the red-class edges of the Euclidean MST of R∪P and
    the blue-class edges of the MST of B∪P, each MST being the tie-broken
    tree `constrained_mst` returns: Kruskal over `sorted_side_pairs`, which
    yields the pairs in (length, u, v) order, a strict total order, so each
    MST is unique. Kruskal connects any side, an empty one too, as every
    pair within a side is admitted. There are at most
    (|R∪P|-1) + (|B∪P|-1) + C(k, 2) of them, so m <= 2n + C(k, 2).

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
    pairs = set(combinations(instance.P, 2))
    for side, vertices in ((RED_SIDE, instance.red_side()), (BLUE_SIDE, instance.blue_side())):
        # The tree of constrained_mst(instance, vertices, (), side), without its EdgeSet.
        _, taken = kruskal(instance.n, sorted_side_pairs(instance, side, vertices), vertices)
        pairs.update((u, v) for _, u, v in taken)
    return make_edge_set(instance, pairs)


def solve_exact(instance: Instance) -> Solution:
    """Minimum-weight RBP spanning graph over `ground_set(instance)`.

    X starts as the ground set and takes each round's minimum-cost exchange
    while that makes its `math.fsum` weight strictly lower; as the rounds'
    costs never fall (module docstring), X is then optimal. `math.fsum` is
    correctly rounded, so edge sets of equal true weight compare equal, which
    the DP's float costs need not. Each round removes one edge more than it
    adds: at most m <= 2n + C(k, 2) rounds of O(m^3) time and O(m^2) memory.
    """
    ground = ground_set(instance)
    weight = ground.weight
    # Every RBP-spanning graph joins the ends of each purple pair and is no shorter than
    # each side tree's longest edge, so an inf ground edge makes every solution inf long.
    if not math.isfinite(weight):
        raise PreconditionError("an edge is longer than the float range")
    x = frozenset(range(len(ground.u)))
    while (seq := find_min_exchange_sequence(ground, x)) is not None:
        edge_indices, _ = seq
        removed, added = set(edge_indices[0::2]), set(edge_indices[1::2])
        if not removed <= x or added & x:
            raise AssertionError("an exchange sequence removes an edge outside X or adds one in X")
        new_x = (x - removed) | added
        new_weight = math.fsum(ground.length[list(new_x)].tolist())
        if not new_weight < weight:
            break
        x, weight = new_x, new_weight

    best = sorted(x)
    edge_set = make_edge_set(instance, np.column_stack((ground.u[best], ground.v[best])))
    return solution_stats(edge_set, solver="exact")
