"""Two independent brute-force optima for cross-validating every solver.

oracle_forest enumerates the ways the purple points can be grouped by shared
purple edges (any optimum decomposes into a purple forest plus a red-class tree
and a blue-class tree); oracle_subsets searches edge subsets directly.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphops import (
    BLUE_SIDE,
    RED_SIDE,
    kruskal,
    solution_stats,
    sorted_side_pairs,
)
from .model import (
    Color,
    Instance,
    PreconditionError,
    Solution,
    allowed_edges,
    make_edge_set,
)

FOREST_MAX_PURPLE = 8
SUBSET_MAX_EDGES = 22
_Tree = tuple[float, list[tuple[float, int, int]]]  # a `kruskal` result: (total, taken pairs)


class OracleSizeError(PreconditionError):
    """Instance exceeds the oracle's tractability bound."""


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first = items[0]
    for part in _set_partitions(items[1:]):
        for i in range(len(part)):
            part[i].append(first)
            yield part
            part[i].pop()
        yield part + [[first]]


def oracle_forest(instance: Instance, max_purple: int = FOREST_MAX_PURPLE) -> Solution:
    """Exact optimum by minimizing over purple component structures.

    For each grouping of the purple points the purple cost is the per-group MST
    and the red/blue costs are Kruskal runs with the groups pre-merged. All
    three run `kruskal` over side pairs listed once; a group's tree reads the
    purple pairs with both ends in it, and the winning trees are kept.
    """
    if instance.k > max_purple:
        raise OracleSizeError(
            f"oracle_forest handles at most {max_purple} purple points, got {instance.k}")
    n = instance.n
    red_vertices = instance.red_side()
    blue_vertices = instance.blue_side()
    # Every partition runs Kruskal over the same side pairs, so their tuples are made once.
    purple_pairs = list(sorted_side_pairs(instance, (Color.PURPLE,), instance.P))
    red_pairs = list(sorted_side_pairs(instance, (Color.RED,), red_vertices))
    blue_pairs = list(sorted_side_pairs(instance, (Color.BLUE,), blue_vertices))
    trees: dict[frozenset, _Tree] = {}

    def tree(block: list[int]) -> _Tree:
        key = frozenset(block)
        found = trees.get(key)
        if found is None:
            found = trees[key] = kruskal(
                n, [pair for pair in purple_pairs if pair[1] in key and pair[2] in key], block)
        return found

    best = math.inf
    best_trees: Optional[list[_Tree]] = None
    for partition in _set_partitions(list(instance.P)):
        purple = [tree(block) for block in partition if len(block) > 1]
        # Summed in partition order: `sum()` from Python 3.12 on compensates.
        total = 0.0
        for weight, _ in purple:
            total += weight
        if total > best:
            continue
        red = kruskal(n, red_pairs, red_vertices, partition)
        if red is None:
            continue
        total += red[0]
        if total > best:
            continue
        blue = kruskal(n, blue_pairs, blue_vertices, partition)
        if blue is None:
            continue
        total += blue[0]
        # The first feasible partition stands even at an inf total, so that an
        # overflowing weight reaches the float-range error rather than "no partition".
        if best_trees is None or total < best:
            best = total
            best_trees = [*purple, red, blue]

    if best_trees is None:
        raise AssertionError("no partition of the purple points gives a spanning graph")
    edge_set = make_edge_set(instance, [(u, v) for _, taken in best_trees for _, u, v in taken])
    if not math.isclose(edge_set.weight, best, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError("oracle_forest reconstruction disagrees with the minimum")
    return solution_stats(edge_set, solver="oracle-forest")


def oracle_subsets(instance: Instance) -> Solution:
    """Exhaustive minimum over edge subsets, pruned without changing the minimum.

    An include/exclude search over `allowed_edges` in (length, u, v) order.
    It prunes supersets of spanning sets (extra edges only add weight),
    partial sets above the incumbent, and branches whose chosen and
    remaining edges together do not span. A list of edges spans when one
    zero-weight `kruskal` run per side over that side's pairs connects the
    side, as in `is_rbp_spanning`.
    """
    edges = allowed_edges(instance)
    m = len(edges.u)
    if m > SUBSET_MAX_EDGES:
        raise OracleSizeError(
            f"oracle_subsets handles at most {SUBSET_MAX_EDGES} allowed edges, got {m}")
    n = instance.n
    lengths = edges.length.tolist()
    triples = list(zip(edges.u.tolist(), edges.v.tolist(), edges.color_class.tolist()))
    # Per side: each edge's zero-weight Kruskal pair, None for an edge off the side.
    sides = [([(0.0, u, v) if c in classes else None for u, v, c in triples], vertices)
             for classes, vertices in ((RED_SIDE, instance.red_side()),
                                       (BLUE_SIDE, instance.blue_side()))]

    def spans(chosen: Sequence[int]) -> bool:
        for pairs, vertices in sides:
            if kruskal(n, [pairs[i] for i in chosen if pairs[i]], vertices) is None:
                return False
        return True

    best_weight = math.inf
    best_choice: Optional[list[int]] = None

    def dfs(idx: int, weight: float, chosen: list[int]):
        nonlocal best_weight, best_choice
        if spans(chosen):
            # The first spanning set stands even at an inf weight, as in oracle_forest.
            if best_choice is None or weight < best_weight:
                best_weight = weight
                best_choice = list(chosen)
            return
        if idx == m or weight > best_weight or not spans([*chosen, *range(idx, m)]):
            return
        chosen.append(idx)
        dfs(idx + 1, weight + lengths[idx], chosen)
        chosen.pop()
        dfs(idx + 1, weight, chosen)

    dfs(0, 0.0, [])
    if best_choice is None:
        raise AssertionError("no edge subset spans both sides")
    edge_set = make_edge_set(instance, np.column_stack((edges.u[best_choice],
                                                        edges.v[best_choice])))
    return solution_stats(edge_set, solver="oracle-subsets")
