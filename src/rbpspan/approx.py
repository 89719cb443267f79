"""The two fast approximation algorithms with ratio instrumentation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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


def approx_union(instance: Instance) -> Solution:
    """Union of the two per-side MSTs; a 2-approximation."""
    pairs = set()
    red_side = instance.red_side()
    blue_side = instance.blue_side()
    if len(red_side) >= 2:
        pairs.update(kruskal_mst(instance, red_side, RED_SIDE).pairs())
    if len(blue_side) >= 2:
        pairs.update(kruskal_mst(instance, blue_side, BLUE_SIDE).pairs())
    return solution_stats(instance, make_edge_set(instance, pairs), solver="approx-union")


def approx_a(instance: Instance) -> Solution:
    """MST of the purple points, then optimal Kruskal-style red and blue attachment.

    A (rho/2 + 1)-approximation, about 1.6 with the best known Steiner ratio bound.
    """
    pairs: set[tuple[int, int]] = set()
    purple_pairs: list[tuple[int, int]] = []
    if instance.k >= 2:
        purple_pairs = kruskal_mst(instance, instance.P, (Color.PURPLE,)).pairs()
        pairs.update(purple_pairs)
    red_side = instance.red_side()
    blue_side = instance.blue_side()
    if len(red_side) >= 2:
        pairs.update(constrained_mst(instance, red_side, purple_pairs, (Color.RED,)).pairs())
    if len(blue_side) >= 2:
        pairs.update(constrained_mst(instance, blue_side, purple_pairs, (Color.BLUE,)).pairs())
    return solution_stats(instance, make_edge_set(instance, pairs), solver="approx-a")


@dataclass(frozen=True)
class RatioReport:
    ratio: float
    guarantee: float
    certified_reference: bool
    violated: bool


def ratio_report(instance: Instance, approx_solution: Solution,
                 reference: Union[float, EdgeSet, Solution],
                 certified: bool = False) -> RatioReport:
    """Approximation ratio against a reference weight or constructed feasible solution.

    A constructed reference (EdgeSet/Solution) must itself be RBP-spanning.
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
        if not is_rbp_spanning(instance, reference.edges):
            raise PreconditionError("reference edge set is not RBP-spanning")
        ref_weight = reference.weight
    else:
        ref_weight = float(reference)
    if ref_weight <= 0.0:
        raise PreconditionError("reference weight must be positive")
    ratio = approx_solution.weight / ref_weight
    violated = certified and ratio > guarantee * (1.0 + 1e-9)
    return RatioReport(ratio, guarantee, certified, violated)
