"""O(k^3 + n) dynamic program for concyclic instances.

Four tables indexed by ordered purple pairs hold subproblem optima under the
four boundary assumptions: endpoints pre-connected in both colors (PC), in red
only (RC), in blue only (BC), or in neither (NC). Tables are stored span-major:
T[label][s][i] is the entry for the clockwise span from purple i to purple
(i + s) mod k. The base case of each purple-to-purple arc is the collinear
solver's segment case split, `line.segment_options`, with chord lengths as
link lengths; `split_arcs` cuts the angular order into those arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphops import BLUE_SIDE, RED_SIDE, kruskal_mst, solution_stats
from .line import segment_options
from .model import Color, Instance, PreconditionError, Solution, hypot_slack, make_edge_set

CONCYCLIC_TOL = 1e-9

P_, R_, B_, N_ = 0, 1, 2, 3  # table labels

# reconstruction choice codes
_BASE, _DIRECT, _CASE_I, _CASE_II = 0, 1, 2, 3


class NotConcyclicError(PreconditionError):
    def __init__(self, residual: float):
        super().__init__(f"points are not concyclic (relative residual {residual:.3g})")
        self.residual = residual


def fit_circle(instance: Instance):
    """Circumcircle of three mutually farthest points; returns (cx, cy, r, residual).

    Residual is the maximum radial deviation relative to the radius.
    """
    pts = instance.points
    n = len(pts)
    if n <= 2:
        return (0.0, 0.0, 1.0, 0.0)
    _, ia, ib = _farthest_pair(instance)
    a, b = pts[ia], pts[ib]
    ic = max((i for i in range(n) if i not in (ia, ib)),
             key=lambda i: instance.distance(i, ia) + instance.distance(i, ib))
    c = pts[ic]
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if d == 0.0:
        raise NotConcyclicError(math.inf)
    sa, sb, sc = a.x * a.x + a.y * a.y, b.x * b.x + b.y * b.y, c.x * c.x + c.y * c.y
    cx = (sa * (b.y - c.y) + sb * (c.y - a.y) + sc * (a.y - b.y)) / d
    cy = (sa * (c.x - b.x) + sb * (a.x - c.x) + sc * (b.x - a.x)) / d
    r = math.hypot(a.x - cx, a.y - cy)
    residual = max(abs(math.hypot(p.x - cx, p.y - cy) - r) for p in pts) / r
    return (cx, cy, r, residual)


def _farthest_pair(instance: Instance) -> tuple[float, int, int]:
    """The first (i, j), i < j, in row-major order at the largest `instance.distance`.

    np.hypot lengths find the candidates: every pair within `hypot_slack` of
    the numpy maximum. Each np.hypot length lies within one ulp of the true
    length, so every pair at the largest exact distance is a candidate.
    Candidates are compared by `instance.distance` in (i, j) order under a
    strict >, as a double loop over all pairs would. Row maxima come first and
    only rows that reach the cut are recomputed, so extra memory stays O(n).
    """
    pts = instance.points
    xs = np.array([p.x for p in pts], dtype=float)
    ys = np.array([p.y for p in pts], dtype=float)

    def row(i: int) -> np.ndarray:
        return np.hypot(xs[i] - xs[i + 1:], ys[i] - ys[i + 1:])

    row_max = np.array([row(i).max() for i in range(len(pts) - 1)])
    top = row_max.max()
    cut = top - hypot_slack(top)
    best = (-1.0, 0, 1)
    for i in np.flatnonzero(row_max >= cut).tolist():
        for j in (np.flatnonzero(row(i) >= cut) + i + 1).tolist():
            d = instance.distance(i, j)
            if d > best[0]:
                best = (d, i, j)
    return best


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
    """Span-major value tables plus back-pointers for reconstruction."""

    k: int
    purple_ids: list
    values: dict      # label -> {span -> ndarray(k)}
    choices: dict     # label -> {span -> (codes ndarray, params ndarray)}
    chord: dict       # span -> ndarray(k) of ||p_i p_{i+s}||
    arc_bases: list   # _ArcBase per arc index


def fill_tables(instance: Instance, purple_ids: Sequence[int],
                arcs: Sequence[Sequence[int]]) -> DPTables:
    """Fill the four tables in increasing clockwise-span order.

    Values are kept in contiguous (span, start) matrices so the split-point
    minimization of each span is a handful of whole-matrix operations.
    """
    k = len(purple_ids)
    coords = np.array([instance.coords(p) for p in purple_ids])
    chord_m = np.zeros((k, k))
    for s in range(1, k):
        diff = coords - np.roll(coords, -s, axis=0)
        chord_m[s] = np.hypot(diff[:, 0], diff[:, 1])
    chord = {s: chord_m[s] for s in range(1, k)}

    bases = [base_arc_costs(instance, purple_ids[i], purple_ids[(i + 1) % k], arcs[i])
             for i in range(k)]

    val = np.full((4, k, k), math.inf)  # [label, span, start]
    choices = {lab: {} for lab in (P_, R_, B_, N_)}

    for lab in (P_, R_, B_, N_):
        val[lab, 1] = [bases[i].values[lab] for i in range(k)]

    # idx[d, i] = (i + d) % k, the start of the right part after a split at d
    idx = (np.arange(k)[None, :] + np.arange(k)[:, None]) % k

    # span 1: base entries; the direct purple edge appears as PC + chord.
    choices[P_][1] = (np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64))
    direct1 = val[P_, 1] + chord_m[1]
    for lab in (R_, B_, N_):
        codes = np.where(val[lab, 1] <= direct1, _BASE, _DIRECT).astype(np.int64)
        val[lab, 1] = np.minimum(val[lab, 1], direct1)
        choices[lab][1] = (codes, np.zeros(k, dtype=np.int64))

    # Case II split pairs flattened across labels (label-major, per _CASE2)
    c2_lab = [lab for lab in (P_, R_, B_, N_) for _ in _CASE2[lab]]
    c2_left = np.array([lft for lab in (P_, R_, B_, N_) for lft, _ in _CASE2[lab]])
    c2_right = np.array([rgt for lab in (P_, R_, B_, N_) for _, rgt in _CASE2[lab]])
    c2_rows = {lab: [r for r, l in enumerate(c2_lab) if l == lab] for lab in (P_, R_, B_, N_)}

    # left[d, i] = PC value of span d at i plus the connecting chord
    left = np.full((k, k), math.inf)
    left[1] = val[P_, 1] + chord_m[1]

    for s in range(2, k):
        # Case I for all four labels at once: left part is purple with its
        # chord, right part starts at (i + d) % k with span s - d.
        spans = np.arange(s - 1, 0, -1)[:, None]
        case1 = left[None, 1:s] + val[:, spans, idx[1:s]]
        best1 = case1.min(axis=1)
        arg1 = case1.argmin(axis=1) + 1  # split point d

        case2 = val[c2_left, 1, :] + np.roll(val[c2_right, s - 1, :], -1, axis=1)
        direct = val[P_, s] + chord_m[s]

        for lab in (P_, R_, B_, N_):
            rows = [best1[lab]]
            code_lut = [_CASE_I]
            param_lut = [0]
            if lab != P_:
                rows.append(direct)
                code_lut.append(_DIRECT)
                param_lut.append(0)
            for vi, row in enumerate(c2_rows[lab]):
                rows.append(case2[row])
                code_lut.append(_CASE_II)
                param_lut.append(vi)
            stacked = np.vstack(rows)
            pick = np.argmin(stacked, axis=0)
            val[lab, s] = stacked[pick, np.arange(k)]
            codes = np.array(code_lut, dtype=np.int64)[pick]
            params = np.array(param_lut, dtype=np.int64)[pick]
            is_case1 = codes == _CASE_I
            params[is_case1] = arg1[lab][is_case1]
            choices[lab][s] = (codes, params)
        left[s] = val[P_, s] + chord_m[s]

    values = {lab: {s: val[lab, s] for s in range(1, k)} for lab in (P_, R_, B_, N_)}
    return DPTables(k, list(purple_ids), values, choices, chord, bases)


_CASE2 = {
    P_: [(N_, P_), (P_, N_), (R_, B_), (B_, R_)],
    R_: [(N_, R_), (R_, N_)],
    B_: [(N_, B_), (B_, N_)],
    N_: [(N_, N_)],
}


def combine_final(tables: DPTables) -> tuple[float, int, int]:
    """Minimum over the four pairings that split the circle at purple 0 and j."""
    k = tables.k
    best = (math.inf, -1, -1)
    pairings = [(P_, N_), (N_, P_), (R_, B_), (B_, R_)]
    for s in range(1, k):
        j = s % k
        for vi, (left, right) in enumerate(pairings):
            val = tables.values[left][s][0] + tables.values[right][k - s][j]
            if val < best[0]:
                best = (val, s, vi)
    return best


def _reconstruct(tables: DPTables, lab: int, i: int, s: int, pairs: list):
    stack = [(lab, i, s)]
    k = tables.k
    pid = tables.purple_ids
    while stack:
        lab, i, s = stack.pop()
        codes, params = tables.choices[lab][s]
        code, par = int(codes[i]), int(params[i])
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
    if residual > tolerance:
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

    pairings = [(P_, N_), (N_, P_), (R_, B_), (B_, R_)]
    left, right = pairings[variant]
    pairs: list[tuple[int, int]] = []
    _reconstruct(tables, left, 0, s, pairs)
    _reconstruct(tables, right, s % k, k - s, pairs)
    edge_set = make_edge_set(instance, pairs)
    if not math.isclose(edge_set.weight, best, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError("reconstructed weight disagrees with DP optimum")
    return solution_stats(instance, edge_set, solver="circle")
