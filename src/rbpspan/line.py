"""Exact solver for collinear instances via independent purple-gap segments.

`solve_line` is O(n log n): `prepare_sorted` sorts the points along the line
and `make_edge_set` sorts the edges. The core pass, `solve_sorted`, is O(n).

The segment case split, `segment_options`, is also the base case of the
circle DP's purple-to-purple arcs.
"""

from __future__ import annotations

import math
from typing import Sequence

from .graphops import solution_stats
from .model import Color, Instance, PreconditionError, Solution, make_edge_set

COLLINEAR_TOL = 1e-9


class NotCollinearError(PreconditionError):
    def __init__(self, residual: float):
        super().__init__(f"points are not collinear (relative residual {residual:.3g})")
        self.residual = residual


def axis_ends(pts):
    """(a, b, spread) on the axis the points spread over more, x on ties.

    a and b are the first lowest and the first highest point on that axis.
    """
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    spread_x, spread_y = max(xs) - min(xs), max(ys) - min(ys)
    if spread_x >= spread_y:
        return min(pts, key=lambda p: p.x), max(pts, key=lambda p: p.x), spread_x
    return min(pts, key=lambda p: p.y), max(pts, key=lambda p: p.y), spread_y


def collinearity_residual(instance: Instance) -> float:
    """Maximum perpendicular offset relative to the bounding-box scale."""
    pts = instance.points
    if len(pts) <= 2:
        return 0.0
    a, b, scale = axis_ends(pts)
    if scale == 0.0:
        return 0.0
    dx, dy = b.x - a.x, b.y - a.y
    norm = math.hypot(dx, dy)
    worst = max(abs(dx * (p.y - a.y) - dy * (p.x - a.x)) for p in pts) / norm
    return worst / scale


def prepare_sorted(instance: Instance):
    """Project onto the dominant direction and sort.

    Returns (ids, t, colors): the point ids in order along the line, t[u] the
    position of point u, and colors[i] the color of ids[i].
    """
    pts = instance.points
    a, b, _ = axis_ends(pts)
    dx, dy = b.x - a.x, b.y - a.y
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        dx, dy, norm = 1.0, 0.0, 1.0
    ux, uy = dx / norm, dy / norm
    t = [(p.x - a.x) * ux + (p.y - a.y) * uy for p in pts]
    order = sorted(range(len(pts)), key=t.__getitem__)
    colors = [int(pts[i].color) for i in order]
    return order, t, colors


def chain(nodes: Sequence[int], lengths: Sequence[float], drop_largest: bool = False):
    """Links between consecutive nodes as (cost, pairs); lengths[a] is link a's length.

    With drop_largest the single largest link (the first on ties) is omitted;
    its endpoints are assumed pre-connected elsewhere.
    """
    skip = lengths.index(max(lengths)) if drop_largest and lengths else -1
    cost = 0.0
    pairs = []
    for a, length in enumerate(lengths):
        if a == skip:
            continue
        u, v = nodes[a], nodes[a + 1]
        pairs.append((u, v) if u < v else (v, u))
        cost += length
    return cost, pairs


def segment_options(a: int, b: int, reds: Sequence[int], blues: Sequence[int], links):
    """The four boundary options of one segment between purple nodes a and b.

    `reds` and `blues` are the segment's interior nodes of each color, in
    order from a to b, and links(nodes) lists the lengths of the links
    between consecutive nodes. Options are PC, RC, BC, NC: the endpoints
    pre-connected in both colors, red only, blue only, or neither. A color
    whose endpoints are pre-connected drops its chain's largest link; the
    other keeps its chain in full. Each option is a (red chain, blue chain)
    pair of (cost, pairs); a full chain of a color with no interior node is
    (inf, None). The direct purple edge a-b is never part of an option.
    """
    red_drop = blue_drop = (0.0, [])
    red_full = blue_full = (math.inf, None)
    if reds:
        nodes = [a, *reds, b]
        lengths = links(nodes)
        red_drop, red_full = chain(nodes, lengths, True), chain(nodes, lengths)
    if blues:
        nodes = [a, *blues, b]
        lengths = links(nodes)
        blue_drop, blue_full = chain(nodes, lengths, True), chain(nodes, lengths)
    return ((red_drop, blue_drop), (red_drop, blue_full),
            (red_full, blue_drop), (red_full, blue_full))


def solve_sorted(ids: Sequence[int], t: Sequence[float], colors: Sequence[int]):
    """Core linear pass over points sorted along the line; returns (weight, pairs).

    Inputs are as `prepare_sorted` returns them: ids in order along the line,
    t[u] the position of point u, colors[i] the color of ids[i].
    """
    RED, BLUE, PURPLE = int(Color.RED), int(Color.BLUE), int(Color.PURPLE)
    n = len(ids)

    def links(seq):
        return [t[v] - t[u] for u, v in zip(seq, seq[1:])]

    def nodes(lo, hi, color):
        return [ids[i] for i in range(lo, hi) if colors[i] == color]

    ppos = [i for i in range(n) if colors[i] == PURPLE]
    pairs: list[tuple[int, int]] = []
    weight = 0.0

    if not ppos:
        chains = [nodes(0, n, color) for color in (RED, BLUE)]
    else:
        # End segments: chain each color to the nearest purple endpoint.
        first, last = ids[ppos[0]], ids[ppos[-1]]
        chains = [nodes(0, ppos[0], color) + [first] for color in (RED, BLUE)]
        chains += [[last] + nodes(ppos[-1] + 1, n, color) for color in (RED, BLUE)]
    for seq in chains:
        cost, chain_pairs = chain(seq, links(seq))
        weight += cost
        pairs.extend(chain_pairs)

    # Interior segments between consecutive purple points.
    for pi, pj in zip(ppos, ppos[1:]):
        a, b = ids[pi], ids[pj]
        cost, seg_pairs = segment_best(t[b] - t[a], a, b, nodes(pi + 1, pj, RED),
                                       nodes(pi + 1, pj, BLUE), links)
        weight += cost
        pairs.extend(seg_pairs)
    return weight, pairs


def segment_best(g: float, a: int, b: int, reds: Sequence[int], blues: Sequence[int], links):
    """Cheaper of the two cases for one interior segment between purple nodes a and b.

    Case B is the purple edge a-b, of length g, plus option PC of
    `segment_options`; Case A is option NC, both chains in full. Case B wins
    ties. Costs add the purple edge first, then red, then blue.
    """
    (red_b, blue_b), _, _, (red_a, blue_a) = segment_options(a, b, reds, blues, links)
    cost_b = g + red_b[0] + blue_b[0]
    cost_a = red_a[0] + blue_a[0]
    if cost_b <= cost_a:
        return cost_b, [(a, b) if a < b else (b, a)] + red_b[1] + blue_b[1]
    return cost_a, red_a[1] + blue_a[1]


def solve_line(instance: Instance, tolerance: float = COLLINEAR_TOL) -> Solution:
    """Minimum RBP spanning graph for collinear points."""
    residual = collinearity_residual(instance)
    if not residual <= tolerance:  # a nan tolerance accepts nothing
        raise NotCollinearError(residual)
    _, pairs = solve_sorted(*prepare_sorted(instance))
    edge_set = make_edge_set(instance, pairs)
    return solution_stats(instance, edge_set, solver="line")
