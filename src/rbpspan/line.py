"""Exact solver for collinear instances via independent purple-gap segments.

`solve_line` is O(n log n): `prepare_sorted` sorts the points along the line
and `make_edge_set` sorts the edges. The core pass, `solve_sorted`, is O(n).

`chain_sums` is the one chain kernel: the per-segment full and drop sums of
the red and blue chains between consecutive purple points. The collinear
solver's segment case split and the circle DP's base case both read it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graphops import solution_stats
from .model import Color, Instance, PreconditionError, Solution, make_edge_set

COLLINEAR_TOL = 1e-9


class NotCollinearError(PreconditionError):
    def __init__(self, residual: float):
        super().__init__(f"points are not collinear (relative residual {residual:.3g})")
        self.residual = residual


def axis_ends(xs: np.ndarray, ys: np.ndarray):
    """(a, b, spread) of the points (xs[i], ys[i]) on the axis they spread over more, x on ties.

    a and b are the ids of the first lowest and the first highest point on that axis.
    """
    spread_x = float(xs.max()) - float(xs.min())
    spread_y = float(ys.max()) - float(ys.min())
    keys, spread = (xs, spread_x) if spread_x >= spread_y else (ys, spread_y)
    return int(keys.argmin()), int(keys.argmax()), spread


def _line_frame(instance: Instance):
    """(xs, ys, a, b, spread): the coordinates the line code works on and their `axis_ends`.

    They are the instance's own where the spread is finite, so every result
    there is the float it was. Where it overflows, they are the coordinates
    halved, and every later difference is taken of the halves: halving is
    exact but for subnormal coordinates, which are below any rounding at that
    scale, it keeps every ratio and every order, and no difference of two
    halves overflows.
    """
    xs, ys = instance.xs, instance.ys
    a, b, spread = axis_ends(xs, ys)
    if spread == math.inf:
        xs, ys = xs * 0.5, ys * 0.5
        a, b, spread = axis_ends(xs, ys)
    return xs, ys, a, b, spread


def python_max(values: np.ndarray) -> float:
    """The float Python's max() returns over `values`: nan only if the first one is."""
    return float(values[0] if math.isnan(values[0]) else np.nanmax(values))


def collinearity_residual(instance: Instance) -> float:
    """Maximum perpendicular offset relative to the bounding-box scale.

    The offsets from the first axis end and the direction to the second are
    scaled by the power of two that brings the scale into [0.5, 1) before
    they are multiplied, as in `circle.fit_circle`: the scaling is exact, and
    no product overflows or underflows at extreme scales.
    """
    if instance.n <= 2:
        return 0.0
    xs, ys, a, b, scale = _line_frame(instance)
    if scale == 0.0:
        return 0.0
    _, exp = math.frexp(scale)
    with np.errstate(over="ignore", invalid="ignore"):
        ox = np.ldexp(xs - xs[a], -exp)
        oy = np.ldexp(ys - ys[a], -exp)
        dx, dy = float(ox[b]), float(oy[b])
        offsets = np.abs(dx * oy - dy * ox)
    return python_max(offsets) / math.hypot(dx, dy) / math.ldexp(scale, -exp)


def prepare_sorted(instance: Instance):
    """Project onto the dominant direction and sort.

    Returns (ids, t, colors) as arrays: the point ids in order along the line,
    t[u] the position of point u, and colors[i] the color of ids[i]. Where
    the spread overflows, t is half the position (`_line_frame`), which
    keeps the order and every comparison of sums of t differences.
    """
    xs, ys, a, b, _ = _line_frame(instance)
    ax, ay = float(xs[a]), float(ys[a])
    dx, dy = float(xs[b]) - ax, float(ys[b]) - ay
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        dx, dy, norm = 1.0, 0.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        t = (xs - ax) * (dx / norm) + (ys - ay) * (dy / norm)
    order = np.argsort(t, kind="stable")
    return order, t, instance.colors[order]


def chain_sums(lengths: np.ndarray, starts: np.ndarray):
    """(full, drop, dropped) of each segment of a chain's links.

    `starts` marks each segment's first link, and starts[0] is set. full is
    the sum of the segment's links, drop the same sum with its first longest
    link counted as 0.0, and dropped that link's index. Both sums are formed
    link by link in chain order from 0.0 (`np.add.at`), as a Python loop forms
    them; `np.add.reduceat` and `.sum()` may sum pairwise and give other
    floats. O(len(lengths)).
    """
    first = np.flatnonzero(starts)
    segment = np.cumsum(starts) - 1
    longest = np.flatnonzero(lengths == np.maximum.reduceat(lengths, first)[segment])
    dropped = longest[np.diff(segment[longest], prepend=-1) > 0]
    kept = lengths.copy()
    kept[dropped] = 0.0
    full, drop = np.zeros(len(first)), np.zeros(len(first))
    np.add.at(full, segment, lengths)
    np.add.at(drop, segment, kept)
    return full, drop, dropped


def solve_sorted(ids: Sequence[int], t: Sequence[float], colors: Sequence[int]):
    """Core linear pass over points sorted along the line; returns (weight, pairs).

    Inputs are as `prepare_sorted` returns them, as arrays or lists: ids in
    order along the line, t[u] the position of point u, colors[i] the color
    of ids[i]. Each color's chain, its points and the purple ones in order,
    goes through `chain_sums`, split at the purple points, with t differences
    as link lengths. The end segments keep their chains in full. An interior
    segment between purple a and b takes Case B, the purple edge a-b plus
    both chains without their longest link, if it costs no more than Case A,
    both chains in full; a color with no point between a and b has no full
    chain. pairs is an (m, 2) array.
    """
    ids = np.asarray(ids, dtype=np.intp)
    pos = np.asarray(t, dtype=float)[ids]
    colors = np.asarray(colors)
    purple = colors == Color.PURPLE
    ppos = np.flatnonzero(purple)
    last = ppos[-1] if len(ppos) else -1
    chains, weight = [], 0.0
    for color in (Color.RED, Color.BLUE):
        on = np.flatnonzero(purple | (colors == color))
        starts = purple[on[:-1]]
        starts[:1] = True
        full, drop, dropped = chain_sums(np.diff(pos[on]), starts)
        first = np.flatnonzero(starts)
        # a segment is interior if it starts at a purple point other than the last
        interior = purple[on[first]] & (on[first] < last)
        full[interior & purple[on[first + 1]]] = math.inf  # one link, purple to purple
        weight += float(full[~interior].sum())
        chains.append((ids[on], full[interior], drop[interior], dropped[interior]))
    (_, red_full, red_drop, _), (_, blue_full, blue_drop, _) = chains
    cost_b = np.diff(pos[ppos]) + red_drop + blue_drop
    cost_a = red_full + blue_full
    case_b = cost_b <= cost_a
    weight += float(np.where(case_b, cost_b, cost_a).sum())
    purple_ids = ids[ppos]
    pairs = [np.column_stack((purple_ids[:-1][case_b], purple_ids[1:][case_b]))]
    for node, _, _, dropped in chains:
        kept = np.ones_like(node[1:], dtype=bool)
        kept[dropped[case_b]] = False
        pairs.append(np.column_stack((node[:-1][kept], node[1:][kept])))
    return weight, np.concatenate(pairs)


def solve_line(instance: Instance, tolerance: float = COLLINEAR_TOL) -> Solution:
    """Minimum RBP spanning graph for collinear points."""
    residual = collinearity_residual(instance)
    if not residual <= tolerance:  # a nan tolerance accepts nothing
        raise NotCollinearError(residual)
    _, pairs = solve_sorted(*prepare_sorted(instance))
    edge_set = make_edge_set(instance, pairs)
    return solution_stats(edge_set, solver="line")
