"""The two fast approximation algorithms with ratio instrumentation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graphops import (
    BLUE_SIDE,
    RED_SIDE,
    constrained_mst,
    is_rbp_spanning,
    kruskal_mst,
    solution_stats,
)
from .model import Color, EdgeSet, Instance, PreconditionError, Solution, make_edge_set

RHO_UPPER = 1.21                    # best proven upper bound on the Steiner ratio
RHO_CONJECTURED = 2.0 / math.sqrt(3.0)
GUARANTEE = 0.5 * RHO_UPPER + 1.0   # approximation factor of algorithm A
UNION_GUARANTEE = 2.0
GUARANTEES = {"approx-a": GUARANTEE, "approx-union": UNION_GUARANTEE}  # by Solution.solver


def _pair_array(trees: list[EdgeSet]) -> np.ndarray:
    """The (u, v) pairs of all `trees` as one (m, 2) array."""
    return np.concatenate([np.column_stack((t.u, t.v)) for t in trees])


def approx_union(instance: Instance) -> Solution:
    """Union of the two per-side MSTs; a 2-approximation."""
    trees = [kruskal_mst(instance, instance.red_side(), RED_SIDE),
             kruskal_mst(instance, instance.blue_side(), BLUE_SIDE)]
    # A purple edge may lie in both trees.
    pairs = np.unique(_pair_array(trees), axis=0)
    return solution_stats(make_edge_set(instance, pairs), solver="approx-union")


def approx_a(instance: Instance) -> Solution:
    """MST of the purple points, then optimal Kruskal-style red and blue attachment.

    A (rho/2 + 1)-approximation, about 1.6 with the best known Steiner ratio bound.
    The three trees have disjoint color classes, so they share no edge.
    """
    joined = (instance.P,)  # the attach trees need the purple points joined, not how
    trees = [kruskal_mst(instance, instance.P, (Color.PURPLE,)),
             constrained_mst(instance, instance.red_side(), joined, (Color.RED,)),
             constrained_mst(instance, instance.blue_side(), joined, (Color.BLUE,))]
    return solution_stats(make_edge_set(instance, _pair_array(trees)), solver="approx-a")


@dataclass(frozen=True)
class RatioReport:
    ratio: float
    violated: bool  # certified reference and ratio above the solver's guarantee


def ratio_report(approx_solution: Solution, reference: Union[float, EdgeSet, Solution],
                 certified: bool = False) -> RatioReport:
    """Approximation ratio against a reference weight or constructed feasible solution.

    A constructed reference (EdgeSet/Solution) must be on the approximation's
    own `Instance` object and must itself be RBP-spanning.
    With certified=True the reference is a known optimum and a ratio above the
    solver's guarantee is flagged. Only the approximation solvers have a guarantee.
    """
    guarantee = GUARANTEES.get(approx_solution.solver)
    if guarantee is None:
        raise PreconditionError(
            f"solver {approx_solution.solver!r} has no approximation guarantee")
    if isinstance(reference, Solution):
        reference = reference.edge_set
    if isinstance(reference, EdgeSet):
        if reference.instance is not approx_solution.instance:
            raise PreconditionError("reference edge set is on another instance")
        if not is_rbp_spanning(reference):
            raise PreconditionError("reference edge set is not RBP-spanning")
        ref_weight = reference.weight
    else:
        ref_weight = float(reference)
    if not 0.0 < ref_weight < math.inf:
        raise PreconditionError("reference weight must be positive and finite")
    ratio = approx_solution.weight / ref_weight
    violated = certified and ratio > guarantee * (1.0 + 1e-9)
    return RatioReport(ratio, violated)
