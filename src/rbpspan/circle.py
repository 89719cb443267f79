"""Exact solver for concyclic instances: a dynamic program over purple spans.

Four tables indexed by ordered purple pairs hold subproblem optima under the
four boundary assumptions: endpoints pre-connected in both colors (PC), in red
only (RC), in blue only (BC), or in neither (NC). The tables are span-major
(label, span, start) arrays: value[label, s, i] is the entry for the clockwise
span from purple i to purple (i + s) mod k, and code[label, s, i] and
param[label, s, i] record the choice that reached it. The base case of each
purple-to-purple arc is the collinear solver's segment case split,
`line.segment_options`, with chord lengths as link lengths; `split_arcs` cuts
the angular order into those arcs.

`solve_circle` is O(n log n + k^3) for n points, k of them purple: the
n log n is `split_arcs`' angular sort, and `fit_circle` is O(n), as it
anchors the circle on the two axis ends `line.axis_ends` finds, which are at
least 1/sqrt(2) as far apart as the farthest pair. The DP alone (the table
fill, the final combination and the reconstruction) is O(k^3 + n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphops import BLUE_SIDE, RED_SIDE, kruskal_mst, solution_stats
from .line import axis_ends, segment_options
from .model import Color, Instance, PreconditionError, Solution, make_edge_set

CONCYCLIC_TOL = 1e-9

P_, R_, B_, N_ = 0, 1, 2, 3  # table labels

# reconstruction choice codes
_BASE, _DIRECT, _CASE_I, _CASE_II = 0, 1, 2, 3


class NotConcyclicError(PreconditionError):
    def __init__(self, residual: float):
        super().__init__(f"points are not concyclic (relative residual {residual:.3g})")
        self.residual = residual


def fit_circle(instance: Instance):
    """Circumcircle of the axis ends and a third point; returns (cx, cy, r, residual).

    The anchors a and b are `line.axis_ends`: the first lowest and the first
    highest point on the axis with the larger spread S. The third
    point is the first other one with the largest distance sum to a and b.
    a and b are at least S apart and the farthest pair at most the bounding
    box's diagonal, at most sqrt(2) S apart, so the anchor chord is within a
    factor sqrt(2) of the longest chord. The circumcircle is computed on the
    coordinates scaled by a power of two that brings S into [0.5, 1), then
    scaled back: the scaling is exact, and no square overflows or underflows
    at extreme scales. O(n).

    Residual is the maximum radial deviation relative to the radius.
    """
    pts = instance.points
    n = len(pts)
    if n <= 2:
        return (0.0, 0.0, 1.0, 0.0)
    a, b, spread = axis_ends(pts)
    ic = max((i for i in range(n) if i not in (a.id, b.id)),
             key=lambda i: instance.distance(i, a.id) + instance.distance(i, b.id))
    _, exp = math.frexp(spread)
    (ax, ay), (bx, by), (qx, qy) = ((math.ldexp(p.x, -exp), math.ldexp(p.y, -exp))
                                    for p in (a, b, pts[ic]))
    d = 2.0 * (ax * (by - qy) + bx * (qy - ay) + qx * (ay - by))
    if d == 0.0:
        raise NotConcyclicError(math.inf)
    sa, sb, sq = ax * ax + ay * ay, bx * bx + by * by, qx * qx + qy * qy
    cx = (sa * (by - qy) + sb * (qy - ay) + sq * (ay - by)) / d
    cy = (sa * (qx - bx) + sb * (ax - qx) + sq * (bx - ax)) / d
    cx, cy, r = (math.ldexp(t, exp) for t in (cx, cy, math.hypot(ax - cx, ay - cy)))
    residual = max(abs(math.hypot(p.x - cx, p.y - cy) - r) for p in pts) / r
    return (cx, cy, r, residual)


def split_arcs(instance: Instance, cx: float, cy: float):
    """Purple ids in angular order around (cx, cy), and the arc after each one.

    Arc i holds the ids strictly between purple i and purple (i + 1) mod k,
    in angular order.
    """
    pts = instance.points
    order = sorted(range(instance.n), key=lambda i: math.atan2(pts[i].y - cy, pts[i].x - cx))
    ppos = [idx for idx, i in enumerate(order) if pts[i].color == Color.PURPLE]
    arcs = [order[lo + 1:hi] for lo, hi in zip(ppos, ppos[1:])]
    if ppos:
        arcs.append(order[ppos[-1] + 1:] + order[:ppos[0]])
    return [order[idx] for idx in ppos], arcs


@dataclass
class _ArcBase:
    """Base-case values and edges for one purple-to-purple arc."""

    values: tuple  # (PC, RC, BC, NC)
    edges: tuple   # edge pair lists (or None where infeasible), same order


def base_arc_costs(instance: Instance, a: int, b: int, interior: Sequence[int]) -> _ArcBase:
    """The four boundary-condition optima for one arc, by `line.segment_options`.

    The direct purple edge a-b is never included here; the DP adds it as a
    degenerate Case I step, so an empty arc has NC = +inf.
    """
    reds = [i for i in interior if instance.color_of(i) == Color.RED]
    blues = [i for i in interior if instance.color_of(i) == Color.BLUE]
    options = segment_options(a, b, reds, blues, lambda nodes: [
        instance.distance(u, v) for u, v in zip(nodes, nodes[1:])])
    return _ArcBase(tuple(red[0] + blue[0] for red, blue in options),
                    tuple(None if red[1] is None or blue[1] is None else red[1] + blue[1]
                          for red, blue in options))


@dataclass
class DPTables:
    """Span-major value tables plus back-pointers for reconstruction.

    `value`, `code` and `param` are indexed [label, span, start]; `chord` is
    indexed [span, start]. Span 0 is unused.
    """

    purple_ids: list
    value: np.ndarray  # optimum of the span under the label's boundary assumption
    code: np.ndarray   # choice code (_BASE, _DIRECT, _CASE_I or _CASE_II)
    param: np.ndarray  # Case I: split span d; Case II: variant index into _CASE2[label]
    chord: np.ndarray  # ||p_i p_{i+s}||
    arc_bases: list    # _ArcBase per arc index


# Case II splits off the span-1 arc at the start: (left, right) labels per variant.
_CASE2 = {
    P_: [(N_, P_), (P_, N_), (R_, B_), (B_, R_)],
    R_: [(N_, R_), (R_, N_)],
    B_: [(N_, B_), (B_, N_)],
    N_: [(N_, N_)],
}
# One row per (label, variant): label, variant index, left label, right label.
_C2_LAB, _C2_VAR, _C2_LEFT, _C2_RIGHT = np.array([
    (lab, vi, left, right) for lab, variants in _CASE2.items()
    for vi, (left, right) in enumerate(variants)]).T

# Final pairings that split the circle at purple 0 and purple s.
_PAIRINGS = [(P_, N_), (N_, P_), (R_, B_), (B_, R_)]
_PAIR_LEFT, _PAIR_RIGHT = np.array(_PAIRINGS).T


def fill_tables(instance: Instance, purple_ids: Sequence[int],
                arcs: Sequence[Sequence[int]]) -> DPTables:
    """Fill the four tables in increasing clockwise-span order.

    Each span is a handful of whole-array operations: its options are stacked
    into one (label, option, start) array, Case I at its best split and then
    the Case II variants in `_CASE2` order (inf where a label has fewer), and
    one argmin picks the first minimum.
    """
    k = len(purple_ids)
    coords = np.array([instance.coords(p) for p in purple_ids])
    # idx[d, i] = (i + d) % k, the start of the right part after a split at d
    idx = (np.arange(k)[None, :] + np.arange(k)[:, None]) % k
    diff = coords[None, :, :] - coords[idx]
    chord = np.hypot(diff[..., 0], diff[..., 1])

    bases = [base_arc_costs(instance, purple_ids[i], purple_ids[(i + 1) % k], arcs[i])
             for i in range(k)]

    value = np.full((4, k, k), math.inf)
    code = np.zeros((4, k, k), dtype=np.int64)
    param = np.zeros((4, k, k), dtype=np.int64)

    # span 1: the arc's base entry, or the direct purple edge on top of its PC
    # entry (which PC itself never prefers).
    base = np.array([b.values for b in bases]).T
    direct = base[P_] + chord[1]
    value[:, 1] = np.minimum(base, direct)
    code[:, 1] = np.where(base <= direct, _BASE, _DIRECT)

    # Per span, option 0 is Case I and options 1-4 the Case II variants; a
    # slot no variant of a label fills stays inf.
    options = np.full((4, 5, k), math.inf)
    for s in range(2, k):
        # Case I: the left part is PC over span d plus its chord, the right
        # part starts at (i + d) % k with span s - d.
        case1 = ((value[P_, 1:s] + chord[1:s])[None]
                 + value[:, np.arange(s - 1, 0, -1)[:, None], idx[1:s]])
        split = case1.argmin(axis=1)
        options[:, 0] = np.take_along_axis(case1, split[:, None], axis=1)[:, 0]
        options[_C2_LAB, 1 + _C2_VAR] = (value[_C2_LEFT, 1]
                                         + np.roll(value[_C2_RIGHT, s - 1], -1, axis=1))
        pick = options.argmin(axis=1)
        value[:, s] = np.take_along_axis(options, pick[:, None], axis=1)[:, 0]
        code[:, s] = np.where(pick == 0, _CASE_I, _CASE_II)
        param[:, s] = np.where(pick == 0, split + 1, pick - 1)

    return DPTables(list(purple_ids), value, code, param, chord, bases)


def combine_final(tables: DPTables) -> tuple[float, int, int]:
    """Minimum over the four pairings that split the circle at purple 0 and s.

    Returns (value, s, pairing index) of the first minimum in (s, pairing) order.
    """
    k = len(tables.purple_ids)
    s = np.arange(1, k)[:, None]
    total = (tables.value[_PAIR_LEFT, s, 0]
             + tables.value[_PAIR_RIGHT, k - s, s])
    best = int(total.argmin())
    return float(total.flat[best]), best // len(_PAIRINGS) + 1, best % len(_PAIRINGS)


def _reconstruct(tables: DPTables, lab: int, i: int, s: int, pairs: list):
    stack = [(lab, i, s)]
    pid = tables.purple_ids
    k = len(pid)
    while stack:
        lab, i, s = stack.pop()
        code, par = int(tables.code[lab, s, i]), int(tables.param[lab, s, i])
        if code == _BASE:
            arc_pairs = tables.arc_bases[i].edges[lab]
            assert arc_pairs is not None
            pairs.extend(arc_pairs)
        elif code == _DIRECT:
            u, v = pid[i], pid[(i + s) % k]
            pairs.append((u, v) if u < v else (v, u))
            stack.append((P_, i, s))
        elif code == _CASE_I:
            d = par
            u, v = pid[i], pid[(i + d) % k]
            pairs.append((u, v) if u < v else (v, u))
            stack.append((P_, i, d))
            stack.append((lab, (i + d) % k, s - d))
        else:
            left, right = _CASE2[lab][par]
            stack.append((left, i, 1))
            stack.append((right, (i + 1) % k, s - 1))


def solve_circle(instance: Instance, tolerance: float = CONCYCLIC_TOL) -> Solution:
    """Minimum RBP spanning graph for points on a common circle."""
    cx, cy, r, residual = fit_circle(instance)
    if not residual <= tolerance:  # a nan tolerance accepts nothing
        raise NotConcyclicError(residual)

    if instance.k <= 1:
        # No purple edge is possible; the two sides are independent MSTs.
        pairs = []
        red_side = instance.red_side()
        blue_side = instance.blue_side()
        if len(red_side) >= 2:
            pairs.extend(kruskal_mst(instance, red_side, RED_SIDE).pairs())
        if len(blue_side) >= 2:
            pairs.extend(kruskal_mst(instance, blue_side, BLUE_SIDE).pairs())
        return solution_stats(instance, make_edge_set(instance, pairs), solver="circle")

    purple_ids, arcs = split_arcs(instance, cx, cy)
    k = len(purple_ids)
    tables = fill_tables(instance, purple_ids, arcs)
    best, s, variant = combine_final(tables)
    if not math.isfinite(best):
        raise AssertionError("circle DP found no finite combination on feasible input")

    left, right = _PAIRINGS[variant]
    pairs: list[tuple[int, int]] = []
    _reconstruct(tables, left, 0, s, pairs)
    _reconstruct(tables, right, s, k - s, pairs)
    edge_set = make_edge_set(instance, pairs)
    if not math.isclose(edge_set.weight, best, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError("reconstructed weight disagrees with DP optimum")
    return solution_stats(instance, edge_set, solver="circle")
