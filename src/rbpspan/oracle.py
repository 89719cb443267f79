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
# Relative slack of oracle_forest's bound test over float rounding (see its docstring).
_BOUND_MARGIN = 1e-9


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
    and the red/blue costs are Kruskal runs with the groups pre-merged. Each
    run is a `kruskal` call: a group's tree reads the purple pairs, listed
    once, with both ends in the group, and the winning trees are kept.

    Two prunes leave every tree, float total and the winning grouping as they
    were without them:

    - The red and blue runs read only the pairs of that side's class tree,
      the Kruskal tree of its red-class (or blue-class) pairs with nothing
      pre-merged, read once from `sorted_side_pairs`. A pair outside that
      tree is, in (length, u, v) order, the last of its cycle with tree pairs
      read before it, so its ends are joined when it is read whatever the
      groups pre-merge (cycle property); the run takes the same pairs in the
      same order and sums the same floats. A side with no red (or no blue)
      point has no class pairs and an empty tree.
    - lb_R and lb_B are the side runs with all purple points in one group.
      Merging groups only adds zero-cost links, so each is at most that side's
      total under any grouping. A grouping is skipped before its red run when
      purple + lb_R + lb_B, and before its blue run when purple + red + lb_B,
      exceeds the incumbent by more than a relative _BOUND_MARGIN. Each side
      of that test is a float sum of at most m nonnegative lengths, in any
      order of additions, so it lies within (m-1)*2^-53 of its exact value,
      relative to that value, and overflows to inf only past the float range.
      The margin covers both sums' errors while 2m*2^-53 < 1e-9, for m below
      about 4*10^6 lengths: a skipped grouping's total would exceed the
      incumbent, and under the strict `<` replacement it could not have won.
    """
    if instance.k > max_purple:
        raise OracleSizeError(
            f"oracle_forest handles at most {max_purple} purple points, got {instance.k}")
    n = instance.n
    purple_pairs = list(sorted_side_pairs(instance, (Color.PURPLE,), instance.P))
    sides = []  # per side: (vertices, class tree pairs, lower bound)
    for color, vertices in ((Color.RED, instance.red_side()), (Color.BLUE, instance.blue_side())):
        found = kruskal(n, sorted_side_pairs(instance, (color,), vertices), vertices)
        pairs = found[1] if found else []  # None: no point of `color`, so no class pair
        sides.append((vertices, pairs, kruskal(n, pairs, vertices, (instance.P,))[0]))
    (red_vertices, red_pairs, lb_red), (blue_vertices, blue_pairs, lb_blue) = sides
    trees: dict[frozenset, _Tree] = {}

    def tree(block: list[int]) -> _Tree:
        key = frozenset(block)
        found = trees.get(key)
        if found is None:
            found = trees[key] = kruskal(
                n, [pair for pair in purple_pairs if pair[1] in key and pair[2] in key], block)
        return found

    best = bar = math.inf  # bar: the incumbent plus its margin
    best_trees: Optional[list[_Tree]] = None
    for partition in _set_partitions(list(instance.P)):
        purple = [tree(block) for block in partition if len(block) > 1]
        # Summed in partition order: `sum()` from Python 3.12 on compensates.
        total = 0.0
        for weight, _ in purple:
            total += weight
        if total + lb_red + lb_blue > bar:
            continue
        red = kruskal(n, red_pairs, red_vertices, partition)
        if red is None:
            continue
        total += red[0]
        if total + lb_blue > bar:
            continue
        blue = kruskal(n, blue_pairs, blue_vertices, partition)
        if blue is None:
            continue
        total += blue[0]
        # The first feasible partition stands even at an inf total, so that an
        # overflowing weight reaches the float-range error rather than "no partition".
        if best_trees is None or total < best:
            best = total
            bar = best + _BOUND_MARGIN * best
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
