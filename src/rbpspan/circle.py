"""Exact solver for concyclic instances: a dynamic program over purple spans.

Four tables indexed by ordered purple pairs hold subproblem optima under the
four boundary assumptions: endpoints pre-connected in both colors (PC), in red
only (RC), in blue only (BC), or in neither (NC). They are kept end-indexed in
one wrap-doubled float array: ends[label, s, j] is the entry for the clockwise
span of s arcs that ends at purple j mod k, for j in [s, 2k). So every Case I
split of a span reads its right parts from one basic-slice view, with no
gather, and one min-reduce per span writes its entries. The tables hold
values only: reconstruction rebuilds the option row of each entry it visits
and picks its first minimum (`_pick`). The base case of each
purple-to-purple arc of `split_arcs`' angular order is the collinear
solver's segment case split: `arc_chains` runs the chain kernel
`line.chain_sums` once over the red and blue chains around the circle, with
chord lengths as link lengths. Reconstruction collects the base entries it
visits and reads their edges in one masked pass over the links
(`_base_edges`).

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
from numpy.lib.stride_tricks import sliding_window_view

from .graphops import BLUE_SIDE, RED_SIDE, kruskal_mst, solution_stats
from .line import axis_ends, chain_sums, python_max
from .model import Color, Instance, PreconditionError, Solution, hypot_lengths, make_edge_set

CONCYCLIC_TOL = 1e-9

P_, R_, B_, N_ = 0, 1, 2, 3  # table labels


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
    n = instance.n
    if n <= 2:
        return (0.0, 0.0, 1.0, 0.0)
    a, b, spread = axis_ends(instance)
    ids = np.arange(n)
    with np.errstate(over="ignore"):
        sums = (np.array(hypot_lengths(instance, ids, a), dtype=float)
                + np.array(hypot_lengths(instance, ids, b), dtype=float))
    sums[[a, b]] = -math.inf
    xs, ys = instance.xs, instance.ys
    _, exp = math.frexp(spread)
    (ax, ay), (bx, by), (qx, qy) = ((math.ldexp(xs[i], -exp), math.ldexp(ys[i], -exp))
                                    for i in (a, b, int(sums.argmax())))
    d = 2.0 * (ax * (by - qy) + bx * (qy - ay) + qx * (ay - by))
    if d == 0.0:
        raise NotConcyclicError(math.inf)
    sa, sb, sq = ax * ax + ay * ay, bx * bx + by * by, qx * qx + qy * qy
    cx = (sa * (by - qy) + sb * (qy - ay) + sq * (ay - by)) / d
    cy = (sa * (qx - bx) + sb * (ax - qx) + sq * (bx - ax)) / d
    cx, cy, r = (math.ldexp(t, exp) for t in (cx, cy, math.hypot(ax - cx, ay - cy)))
    with np.errstate(over="ignore", invalid="ignore"):
        radii = np.array(list(map(math.hypot, (xs - cx).tolist(), (ys - cy).tolist())))
        residual = python_max(np.abs(radii - r)) / r
    return (cx, cy, r, residual)


def split_arcs(instance: Instance, cx: float, cy: float):
    """(purple_ids, order): the purple ids and every id, in angular order around (cx, cy).

    `order` is an int array that starts at purple_ids[0]; arc i is the run of
    ids strictly between purple i and purple (i + 1) mod k in it, so the last
    arc runs to the end of `order`.
    """
    xs, ys = instance.xs.tolist(), instance.ys.tolist()
    order = np.array(sorted(range(instance.n), key=lambda i: math.atan2(ys[i] - cy, xs[i] - cx)),
                     dtype=np.intp)
    order = np.roll(order, -int((instance.colors[order] == Color.PURPLE).argmax()))
    return order[instance.colors[order] == Color.PURPLE].tolist(), order


def arc_chains(instance: Instance, order: np.ndarray):
    """The arcs' chains and their base entries: (chain, arc_of, dropped, base).

    `chain` lists the ids of the red chain around the circle, each purple
    followed by the red points of the arc after it and purple 0 again at the
    end, and then of the blue chain, which starts where the red one ends. Link
    j joins chain[j] and chain[j + 1] and lies on arc_of[j]: i on arc i's red
    chain, k + i on its blue one. `line.chain_sums` gives each arc chain's
    full and drop sums, with `hypot_lengths` link lengths, and `dropped` its
    dropped link. base[:, i] is arc i's (PC, RC, BC, NC): a color whose
    endpoints are pre-connected takes its drop sum, the other its full sum,
    which is inf for a one-link chain, purple to purple. The direct purple
    edge is never part of a base entry; the DP adds it on top of PC, so an
    empty arc has NC = +inf. `order` is `split_arcs`' angular order. O(n).
    """
    # every id in angular order from purple 0, and purple 0 again
    around = np.append(order, order[0])
    purple = instance.colors[around] == Color.PURPLE
    red = instance.colors[around] == Color.RED
    on = np.concatenate([np.flatnonzero(purple | red), np.flatnonzero(~red)[1:]])
    ids = around[on]
    at_purple = purple[on]
    starts = at_purple[:-1]  # each arc's first link starts at its purple
    full, drop, dropped = chain_sums(
        np.array(hypot_lengths(instance, ids[:-1], ids[1:]), dtype=float), starts)
    full[at_purple[np.flatnonzero(starts) + 1]] = math.inf  # one link, purple to purple
    (red_drop, blue_drop), (red_full, blue_full) = drop.reshape(2, -1), full.reshape(2, -1)
    base = np.array([red_drop + blue_drop, red_drop + blue_full,
                     red_full + blue_drop, red_full + blue_full])
    return ids, np.cumsum(starts) - 1, dropped, base


@dataclass
class DPTables:
    """The filled tables and what reconstruction needs besides them.

    `ends[label, s, j]`, for j in [s, 2k), is the entry for the span of s arcs
    that ends at purple j mod k, so starts at purple (j - s) mod k; the cells
    below s are unused and hold inf. Span 0 is unused. Only values are
    stored: `_pick` finds the option that reached an entry when
    reconstruction visits it, from `ends`, `base` and `chord`.
    """

    purple_ids: list
    ends: np.ndarray   # float, (4, k, 2k): optimum of the span under the label's assumption
    base: np.ndarray   # float, (4, k): arc i's base entries, as `arc_chains` forms them
    chord: np.ndarray  # float, (k, k): chord[d, i] = ||p_i p_{(i + d) % k}||
    chain: np.ndarray    # int: the arcs' red, then blue chain ids, as `arc_chains` lists them
    arc_of: np.ndarray   # int: the arc chain each link of `chain` lies on
    dropped: np.ndarray  # int, (2k,): each arc chain's first longest link


# Case II splits off the span-1 arc at the start: (left, right) labels per variant.
_CASE2 = {
    P_: [(N_, P_), (P_, N_), (R_, B_), (B_, R_)],
    R_: [(N_, R_), (R_, N_)],
    B_: [(N_, B_), (B_, N_)],
    N_: [(N_, N_)],
}
_CASE2_PARTS = {lab: tuple(np.array(side) for side in zip(*variants))
                for lab, variants in _CASE2.items()}  # (left labels, right labels)

# Final pairings that split the circle at purple 0 and purple s.
_PAIRINGS = [(P_, N_), (N_, P_), (R_, B_), (B_, R_)]
_PAIR_LEFT, _PAIR_RIGHT = np.array(_PAIRINGS).T


def fill_tables(instance: Instance, purple_ids: Sequence[int], order: np.ndarray) -> DPTables:
    """Fill the four tables in increasing clockwise-span order; values only.

    `left[d, i]`, PC over span d from purple i plus its chord, is the left
    part of a Case I split at d; the right part, the label over span s - d
    from purple i + d, ends where the span ends, at purple i + s. So the Case I
    options of span s are one broadcast sum of `left[1:s]` and the view
    `ends[:, s-1:0:-1, s:s+k]` (row d - 1 is split d), written into an option
    buffer after three Case II slots, which one more sum of basic slices
    writes. Split 1 and Case II's (N, label) variant share their right part,
    the label over span s - 1 from purple i + 1, so `left[1]` holds the
    smaller of their left parts; as float rounding is monotone,
    min(a + c, b + c) is min(a, b) + c exactly. One min-reduce per span writes
    the span's entries straight into `ends`. Which option reached an entry
    is left to `_pick`.
    """
    k = len(purple_ids)
    coords = np.stack((instance.xs, instance.ys))[:, purple_ids]
    # chord[d, i] = ||p_i p_{(i + d) % k}||, with ahead[:, d, i] = coords[:, (i + d) % k]
    ahead = sliding_window_view(np.hstack([coords, coords]), k, axis=1)[:, :k]
    chord = np.hypot(*(coords[:, None, :] - ahead))

    ends = np.full((4, k, 2 * k), math.inf)
    left = np.empty((k, k))

    # span 1: the arc's base entry, or the direct purple edge on top of its PC
    # entry (which PC itself never prefers).
    ids, arc_of, dropped, base = arc_chains(instance, order)
    first = np.minimum(base, base[P_] + chord[1])
    ends[:, 1, 1:k + 1] = first
    ends[:, 1, k + 1:] = first[:, :k - 1]
    np.minimum(first[P_] + chord[1], first[N_], out=left[1])

    # Span s uses options[:, :s + 2]: three Case II slots, then s - 1 splits.
    # The slots hold the right parts N, B and R under the left parts in
    # case2_left: (P, N), (R, B) and (B, R) for P, (R, N) and (B, N) for R and
    # B, and inf where a label has no such variant.
    case2_left = np.full((4, 3, k), math.inf)
    case2_left[:N_, 0] = first[:N_]
    case2_left[P_, 1:] = first[R_:N_]
    options = np.empty((4, k + 2, k))
    case2 = options[:, :3]
    add, reduce = np.add, np.minimum.reduce
    for s in range(2, k):
        row = ends[:, s, s:s + k]  # span s from every purple
        # labels N, B and R over span s - 1 from purple i + 1
        add(case2_left, ends[N_:P_:-1, s - 1, s:s + k], case2)
        add(left[1:s], ends[:, s - 1:0:-1, s:s + k], options[:, 3:s + 2])
        reduce(options[:, :s + 2], 1, None, row)
        ends[:, s, s + k:] = row[:, :k - s]
        add(row[P_], chord[s], left[s])

    return DPTables(list(purple_ids), ends, base, chord, ids, arc_of, dropped)


def combine_final(tables: DPTables) -> tuple[float, int, int]:
    """Minimum over the four pairings that split the circle at purple 0 and s.

    Returns (value, s, pairing index) of the first minimum in (s, pairing) order.
    """
    k = len(tables.purple_ids)
    s = np.arange(1, k)[:, None]
    total = tables.ends[_PAIR_LEFT, s, s] + tables.ends[_PAIR_RIGHT, k - s, k]
    best = int(total.argmin())
    return float(total.flat[best]), best // len(_PAIRINGS) + 1, best % len(_PAIRINGS)


def _pick(tables: DPTables, lab: int, s: int, i: int) -> int:
    """The option that reached ends[lab, s, i + s]: the first minimum in canonical order.

    Span 1: 0 is the arc's base entry, 1 the direct chord on top of the arc's
    PC entry. Span s >= 2: c < s - 1 is Case I split at d = c + 1 (PC over
    span d plus its chord, then the label over span s - d); otherwise Case II
    variant c - (s - 1) of `_CASE2[lab]`. The option row is rebuilt from the
    filled tables with the sums `fill_tables` forms, before any fold, so the
    pick resolves ties in (split, variant) order. O(s).
    """
    ends, chord = tables.ends, tables.chord
    if s == 1:
        return int(tables.base[lab, i] > tables.base[P_, i] + chord[1, i])
    lefts, rights = _CASE2_PARTS[lab]
    # PC over span d from purple i ends at i + d; the right part of split d
    # ends where the span ends, at i + s.
    end = i + s
    return int(np.concatenate([
        ends[P_, 1:s, i + 1:end].diagonal() + chord[1:s, i] + ends[lab, s - 1:0:-1, end],
        ends[lefts, 1, i + 1] + ends[rights, s - 1, end],
    ]).argmin())


def _reconstruct(tables: DPTables, lab: int, i: int, s: int, pairs: list, bases: list):
    """Append the chords of entry ends[lab, s, i + s] to `pairs`, its base entries to `bases`.

    A base entry is a (label, arc) pair; `_base_edges` reads the edges of all
    of them at once. The tables store no choices: each entry the walk visits
    asks `_pick` which option reached it, O(s) each, so the walk costs O(k^2)
    at most.
    """
    stack = [(lab, i, s)]
    pid = tables.purple_ids
    k = len(pid)
    while stack:
        lab, i, s = stack.pop()
        c = _pick(tables, lab, s, i)
        if s == 1 and c == 0:  # the arc's base entry
            if tables.base[lab, i] == math.inf:  # raised, not asserted: it holds under python -O
                raise AssertionError(f"circle DP chose an infeasible base arc at purple {i}")
            bases.append((lab, i))
        elif s == 1:  # the direct chord on top of the arc's PC entry
            u, v = pid[i], pid[(i + 1) % k]
            pairs.append((u, v) if u < v else (v, u))
            stack.append((P_, i, 1))
        elif c < s - 1:  # Case I split at d
            d = c + 1
            u, v = pid[i], pid[(i + d) % k]
            pairs.append((u, v) if u < v else (v, u))
            stack.append((P_, i, d))
            stack.append((lab, (i + d) % k, s - d))
        else:  # Case II
            left, right = _CASE2[lab][c - (s - 1)]
            stack.append((left, i, 1))
            stack.append((right, (i + 1) % k, s - 1))


def _base_edges(tables: DPTables, bases: list) -> np.ndarray:
    """The edges of the (label, arc) base entries, as an (m, 2) array, in one pass over the links.

    Each arc's red and blue chains are kept whole, less the dropped link of
    each color whose endpoints the label pre-connects: red for PC and RC,
    blue for PC and BC.
    """
    k = len(tables.purple_ids)
    labs, arcs = np.array(bases, dtype=np.intp).reshape(-1, 2).T
    visited, cut = np.zeros(2 * k, bool), np.zeros(2 * k, bool)
    visited[arcs] = visited[arcs + k] = True
    cut[arcs] = (labs == P_) | (labs == R_)
    cut[arcs + k] = (labs == P_) | (labs == B_)
    keep = visited[tables.arc_of]
    keep[tables.dropped[cut]] = False
    return np.column_stack((tables.chain[:-1][keep], tables.chain[1:][keep]))


def solve_circle(instance: Instance, tolerance: float = CONCYCLIC_TOL) -> Solution:
    """Minimum RBP spanning graph for points on a common circle."""
    cx, cy, r, residual = fit_circle(instance)
    if not residual <= tolerance:  # a nan tolerance accepts nothing
        raise NotConcyclicError(residual)

    if instance.k <= 1:
        # No purple edge is possible; the two sides are independent MSTs.
        pairs = (kruskal_mst(instance, instance.red_side(), RED_SIDE).pairs()
                 + kruskal_mst(instance, instance.blue_side(), BLUE_SIDE).pairs())
        return solution_stats(make_edge_set(instance, pairs), solver="circle")

    purple_ids, order = split_arcs(instance, cx, cy)
    k = len(purple_ids)
    tables = fill_tables(instance, purple_ids, order)
    best, s, variant = combine_final(tables)
    if not math.isfinite(best):
        raise AssertionError("circle DP found no finite combination on feasible input")

    left, right = _PAIRINGS[variant]
    pairs: list[tuple[int, int]] = []
    bases: list[tuple[int, int]] = []
    _reconstruct(tables, left, 0, s, pairs, bases)
    _reconstruct(tables, right, s, k - s, pairs, bases)
    edge_set = make_edge_set(instance, np.concatenate(
        [np.array(pairs, dtype=np.intp).reshape(-1, 2), _base_edges(tables, bases)]))
    if not math.isclose(edge_set.weight, best, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError("reconstructed weight disagrees with DP optimum")
    return solution_stats(edge_set, solver="circle")
