"""Kruskal and (constrained) MSTs, RBP validity checking, and solution statistics."""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import (
    _CLASS_OF,
    INVALID_CLASS,
    Color,
    EdgeSet,
    Instance,
    PreconditionError,
    Solution,
    _fsum_weight,
    _orient_sign,
    hypot_lengths,
    hypot_slack,
    orient_filter,
)

RED_SIDE = (Color.RED, Color.PURPLE)
BLUE_SIDE = (Color.BLUE, Color.PURPLE)


class InfeasibleGraphError(PreconditionError):
    """The admitted edge set cannot connect the requested vertex set."""


_FIRST_BLOCK = 1024
# `_grid_pairs` counts pairs up to r * _GRID_MARGIN long as found; `_shells` keeps its
# grids to at most _MAX_CELLS cells along an axis, which that margin needs.
_GRID_MARGIN = 1.0 - 2.0 ** -20
_MAX_CELLS = 2.0 ** 28


class SortedPairs:
    """(length, u, v) pairs in tie-break order, found shell by shell and read once.

    Iterating yields (instance.distance(u, v), u, v) tuples in (length, u, v)
    order, the order of sorting them all. `blocks` cuts each shell that
    `_shells` yields into blocks as they are read, so the numpy work stays
    proportional to the prefix the reader takes. A block is made into sorted
    tuples when it is reached; `blocks(parent)` first drops the pairs of
    every block after the first that Kruskal's `parent` list already joins,
    so only the survivors are made into tuples.

    The pairs are read once: a second read raises AssertionError. A reader
    that runs Kruskal many times over the same pairs (`oracle_forest`) takes
    `list()` of them once.
    """

    __slots__ = ("_instance", "_count", "_unread", "__weakref__")

    def __init__(self, instance: Instance, count: int,
                 shells: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        self._instance = instance
        self._count = count
        self._unread: Optional[Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]] = shells

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[float, int, int]]:
        for block in self.blocks():
            yield from block

    def blocks(self, parent: Optional[list[int]] = None) -> Iterator[list[tuple[float, int, int]]]:
        """The blocks in order, each as sorted (length, u, v) tuples.

        Each block is as large as all blocks before it and at least
        _FIRST_BLOCK, and ends at the first cut point of its shell from there
        on, or at the shell's end. That blocked order is the full order:
        np.hypot and math.hypot each lie within one ulp of the true length,
        so if p ends a block and q lies in a later block,
        np(q) > np(p) + hypot_slack(np(p)) leaves room for both errors and
        distance(q) > distance(p). A shell ends at such a gap too, so every
        pair of a block precedes every pair of later blocks under the exact
        key, sorting within blocks is enough, and the numpy sort need not be
        stable.

        With a union-find `parent` list, the pairs of each later block whose
        ends lie in one tree of `parent`, as it stands when the block is
        reached, are left out.
        """
        shells, self._unread = self._unread, None
        if shells is None:
            raise AssertionError("the pairs were read before: a SortedPairs is read once")
        size = 0  # pairs in the blocks so far
        for u_ids, v_ids, cuts in shells:
            start = 0
            while start < len(u_ids):
                at = cuts.searchsorted(start + max(size, _FIRST_BLOCK))
                end = int(cuts[at]) if at < len(cuts) else len(u_ids)
                u, v = u_ids[start:end], v_ids[start:end]
                if size and parent is not None:
                    root = _roots(parent)
                    keep = root[u] != root[v]
                    u, v = u[keep], v[keep]
                yield sorted(zip(hypot_lengths(self._instance, u, v), u.tolist(), v.tolist()))
                size += end - start
                start = end


def _roots(parent: list[int]) -> np.ndarray:
    """The root of every id in the union-find `parent` list, by pointer jumping."""
    root = np.fromiter(parent, np.intp, len(parent))
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def sorted_side_pairs(instance: Instance, classes: Sequence[Color],
                      vertices: Sequence[int]) -> SortedPairs:
    """All admitted (length, u, v) pairs within the distinct ids `vertices`, in tie-break order.

    Admitted means the edge's color class lies in `classes`. The pair count
    comes from the color counts; the pairs themselves are found only as far
    as a reader iterates (see `_shells`).
    """
    ids = np.array(sorted(vertices), dtype=np.int64)
    color = instance.colors[ids]
    xs, ys = instance.xs[ids], instance.ys[ids]
    admitted = np.zeros(4, dtype=bool)
    admitted[[int(c) for c in classes]] = True
    r, b, p = np.bincount(color, minlength=3).tolist()
    per_class = (r * (r - 1) // 2 + r * p, b * (b - 1) // 2 + b * p, p * (p - 1) // 2)
    count = sum(c for c, ok in zip(per_class, admitted.tolist()) if ok)
    return SortedPairs(instance, count, _shells(ids, xs, ys, color, admitted, count))


def _shells(ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, color: np.ndarray,
            admitted: np.ndarray, count: int
            ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The `count` admitted pairs as (u, v, cuts) arrays in np.hypot length order, shell by shell.

    u and v are the pairs' ids and cuts the shell's cut points (`_cuts`),
    where a block may end; a shell that is one block carries none. Shell j
    holds the pairs whose np.hypot length lies in (c_{j-1}, c_j]. Its pairs
    come from one `_grid_pairs` pass of cell side r, which finds every pair
    up to its `lim`. c_j is the length before the shell's last cut point,
    with `lim` as the length after the last pair, so every pair of a later
    shell is longer than c_j + hypot_slack(c_j). r starts at twice the radius below which about
    _FIRST_BLOCK of `count` pairs spread evenly over the bounding box would
    lie, never below 2/_MAX_CELLS of its diagonal, and doubles after each
    pass; a pass that finds fewer than _FIRST_BLOCK new pairs, or no cut
    point, yields nothing. The factor two makes one pass enough for a side
    tree on spread points: Kruskal reads some 1,000 to 4,000 pairs of such a
    tree, while a pass at the single radius, where points near the box edge
    have fewer neighbours, finds fewer than _FIRST_BLOCK pairs on most trees
    (a median of 960 on the side trees of uniform inputs at n = 1000), so a
    second pass at 2r ran on almost every tree.
    Once r reaches the diagonal, or a grid would hold more pairs than
    `count`, or when every pair fits in one block, the last shell is every
    pair left, from one dense pass. So work is
    O(m + pairs up to the last grid radius) on spread points and O(m^2) at
    worst (clustered points, or readers that take every pair).
    """
    pair_ok = admitted[_CLASS_OF].ravel()  # indexed by 3 * color[a] + color[b]
    color = color.astype(np.intp)  # int8 arithmetic would page in numpy loops used nowhere else
    lo = -math.inf
    if count > _FIRST_BLOCK:
        # Python floats: a spread past the float range is inf without a numpy warning.
        w = float(xs.max()) - float(xs.min())
        h = float(ys.max()) - float(ys.min())
        diag = math.hypot(w, h)
        # The 2-D term comes last: with w or h overflowed it may be nan, which max skips.
        r = 2.0 * max(math.ulp(0.0), diag / _MAX_CELLS, diag * _FIRST_BLOCK / (2 * count),
                      math.sqrt(w) * math.sqrt(h) * math.sqrt(_FIRST_BLOCK / (math.pi * count)))
        while r < diag:
            found = _grid_pairs(xs, ys, r, count)
            if found is None:
                break
            a, b, lim = found
            keep = pair_ok[3 * color[a] + color[b]]
            a, b = a[keep], b[keep]
            length = _lengths(xs, ys, a, b)
            keep = (length > lo) & (length <= lim)
            length, a, b = length[keep], a[keep], b[keep]
            if len(length) >= _FIRST_BLOCK:
                order = np.argsort(length)
                length = length[order]
                cuts = _cuts(length, lim)
                if len(cuts):
                    end = int(cuts[-1])
                    order = order[:end]
                    yield ids[a[order]], ids[b[order]], cuts
                    lo = float(length[end - 1])
            r *= 2.0
    pos = np.arange(len(ids))
    a, b = np.nonzero(pair_ok[3 * color[:, None] + color] & (pos[:, None] < pos))
    length = _lengths(xs, ys, a, b)
    if lo > -math.inf:
        keep = length > lo
        length, a, b = length[keep], a[keep], b[keep]
    order = np.argsort(length)
    # A single block needs no cut point; skipping the search keeps tiny sides cheap.
    cuts = _cuts(length[order], math.inf) if count > _FIRST_BLOCK else np.empty(0, np.intp)
    yield ids[a[order]], ids[b[order]], cuts


def _grid_pairs(xs: np.ndarray, ys: np.ndarray, r: float, most: int
                ) -> Optional[tuple[np.ndarray, np.ndarray, float]]:
    """Position pairs a < b of the points in the same or adjacent cells of side r, and `lim`.

    Each pair appears once: a point is paired with the later points of its
    own cell and every point of four forward neighbour cells. In exact
    arithmetic that finds every pair up to r long. Shifting the coordinates
    to the box corner and dividing by r round, which can move two points'
    cell coordinates apart by up to 2^-22 of a cell more than their distance
    while the box is at most _MAX_CELLS cells wide, so every pair up to
    lim = r * _GRID_MARGIN long is among them. With subnormal coordinates the
    shift is exact and only the division rounds: a pair then lands two cells
    apart only if it is r long and r spans at least 2^26 subnormal steps,
    where lim lies at least 64 steps below r. None when there would be more
    than `most` pairs.
    """
    cx = np.floor((xs - xs.min()) / r).astype(np.int64)
    cy = np.floor((ys - ys.min()) / r).astype(np.int64)
    # Row stride past the top row, so that the cells above the top row and below
    # the bottom row are empty rather than the neighbouring column's cells.
    stride = int(cy.max()) + 2
    key = cx * stride + cy
    by_cell = np.argsort(key)
    key = key[by_cell]
    pos = np.arange(len(key))
    # In cell order, the later points of the own cell and the cell above form one
    # range, and the three cells of the next column around the row form another.
    starts = np.concatenate([pos + 1, np.searchsorted(key, key + (stride - 1), side="left")])
    stops = np.concatenate([np.searchsorted(key, key + 1, side="right"),
                            np.searchsorted(key, key + (stride + 1), side="right")])
    sizes = stops - starts
    if sizes.sum() > most:
        return None
    a = np.repeat(np.concatenate([pos, pos]), sizes)
    b = np.arange(len(a)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    a, b = by_cell[a], by_cell[b]
    return np.minimum(a, b), np.maximum(a, b), r * _GRID_MARGIN


def _cuts(length: np.ndarray, lim: float) -> np.ndarray:
    """The cut points of the sorted `length`: each i + 1 where the next length is not a near-tie.

    The next length is not a near-tie when it exceeds length[i] by more than
    hypot_slack(length[i]); lim counts as the length after the last. Two inf
    lengths, whose difference is nan, are a tie.
    """
    with np.errstate(invalid="ignore"):
        return np.flatnonzero(np.append(length[1:], lim) - length > hypot_slack(length)) + 1


def _lengths(xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.hypot lengths of the position pairs (a, b); inf where one overflows."""
    with np.errstate(over="ignore"):
        dx = xs[a]
        dx -= xs[b]
        dy = ys[a]
        dy -= ys[b]
        return np.hypot(dx, dy, out=dx)


def kruskal(n: int, sorted_pairs: Iterable[tuple[float, int, int]], vertices: Sequence[int],
            premerged: Iterable[Sequence[int]] = ()
            ) -> Optional[tuple[float, list[tuple[float, int, int]]]]:
    """Kruskal's union loop over pre-sorted (length, u, v) pairs joining ids of `vertices`.

    `vertices` are distinct, and every id of every group of `premerged` is one
    of them. Each group is joined first at zero cost; an empty group joins
    nothing. So every union, of a group or of a taken pair, joins two
    components that hold ids of `vertices`, and the count of components left
    to join starts at len(vertices) - 1 and falls by one per union.
    Returns the total length and the (length, u, v) pairs taken, or None if
    the result does not connect `vertices`. Reading stops once `vertices` are
    connected: every later pair would close a cycle.

    A `SortedPairs` is read, once, block by block through `SortedPairs.blocks`,
    which cuts its shells at their cut points and leaves out the pairs of
    each later block whose ends are joined when the block is reached; any
    other iterable is read as one block. The
    tree is the one of reading every pair: a left-out pair closes a cycle
    whenever it is read, as unions only merge trees, and the pairs that are
    read keep their (length, u, v) order, so the loop takes the same pairs in
    the same order and sums the same floats. The union-find is a parent list
    with path halving, inlined in the loop over the pairs.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    left = len(vertices) - 1
    for group in premerged:
        for a, b in zip(group, group[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                left -= 1
    total = 0.0
    taken = []
    if left > 0:
        blocks = sorted_pairs.blocks(parent) if isinstance(sorted_pairs, SortedPairs) \
            else (sorted_pairs,)
        for block in blocks:
            for pair in block:
                length, u, v = pair
                ru = u
                while parent[ru] != ru:
                    parent[ru] = ru = parent[parent[ru]]
                rv = v
                while parent[rv] != rv:
                    parent[rv] = rv = parent[parent[rv]]
                if ru != rv:
                    parent[ru] = rv
                    total += length
                    taken.append(pair)
                    left -= 1
                    if not left:
                        break
            if not left:
                break
    if left > 0:
        return None
    return total, taken


def kruskal_mst(instance: Instance, vertices: Sequence[int],
                classes: Sequence[Color] = (Color.RED, Color.BLUE, Color.PURPLE)) -> EdgeSet:
    """Minimum spanning tree over `vertices` using edges of the admitted classes.

    No vertex, like one, gives an empty tree.
    """
    return constrained_mst(instance, vertices, (), classes)


def constrained_mst(instance: Instance, vertices: Sequence[int],
                    premerged: Sequence[Sequence[int]] = (),
                    classes: Sequence[Color] = (Color.RED, Color.BLUE, Color.PURPLE)) -> EdgeSet:
    """Minimum edge set connecting `vertices` once each group of `premerged` is joined.

    The groups are joined at zero cost and add no edge to the result. Every
    vertex must be a point id in [0, n) and every id in the groups a vertex;
    PreconditionError names the least id that is not. Finite lengths that sum
    past the float range raise PreconditionError, as in `make_edge_set`.
    """
    verts = set(vertices)
    outside = verts.union(*premerged).difference(verts.intersection(range(instance.n)))
    if outside:
        raise PreconditionError(f"id {min(outside)} is not a point id in the vertex set")
    verts = sorted(verts)
    result = kruskal(instance.n, sorted_side_pairs(instance, classes, verts), verts, premerged)
    if result is None:
        raise InfeasibleGraphError("admitted edges do not connect the vertex set")
    # Kruskal takes pairs u < v in (length, u, v) order, the order of an EdgeSet.
    length, u, v = np.array(result[1], dtype=float).reshape(-1, 3).T
    return EdgeSet(instance, u.astype(np.int64), v.astype(np.int64), length.copy(),
                   _fsum_weight(length))


def is_rbp_spanning(edge_set: EdgeSet) -> bool:
    """True iff red+purple edges connect R∪P and blue+purple edges connect B∪P."""
    instance, u, v, codes = edge_set.instance, edge_set.u, edge_set.v, edge_set.color_class
    for side, vertices in ((Color.RED, instance.red_side()), (Color.BLUE, instance.blue_side())):
        on_side = (codes == int(Color.PURPLE)) | (codes == int(side))  # not INVALID_CLASS
        # Kruskal over the side's pairs in any order: None iff they leave `vertices` apart.
        if kruskal(instance.n, zip(repeat(0.0), u[on_side].tolist(), v[on_side].tolist()),
                   vertices) is None:
            return False
    return True


# Candidate pairs of purple edges tested per block of the crossing count.
_CROSS_BLOCK = 4096


def _purple_crossings(instance: Instance, u: np.ndarray, v: np.ndarray
                      ) -> tuple[int, np.ndarray]:
    """Pairs of the edges (u[i], v[i]) that properly cross: (count, count per edge).

    Each pair i < j without a shared endpoint whose closed bounding boxes
    overlap is tested as `segments_properly_cross` tests the two segments.
    Other pairs cannot cross properly: a proper crossing point lies in both
    closed boxes. A sweep along the axis the edges spread over more
    (so that edges on a vertical line are not all candidates) finds the pairs
    whose boxes overlap, `_CROSS_BLOCK` pairs at a time, so memory stays
    O(len(u) + block). `orient_filter`, the float test of `_orient_sign`,
    gives the orientation signs; `_orient_sign` itself decides only the
    entries that test leaves open, and o3, o4 are taken only where o1 * o2 < 0.
    """
    p = len(u)
    per_edge = np.zeros(p, dtype=np.int64)
    if p < 2:
        return 0, per_edge
    xs, ys = instance.xs, instance.ys
    lo, hi, lo2, hi2 = (np.minimum(xs[u], xs[v]), np.maximum(xs[u], xs[v]),
                        np.minimum(ys[u], ys[v]), np.maximum(ys[u], ys[v]))
    if hi2.max() - lo2.min() > hi.max() - lo.min():
        lo, hi, lo2, hi2 = lo2, hi2, lo, hi
    order = np.argsort(lo)
    lo, hi, lo2, hi2 = lo[order], hi[order], lo2[order], hi2[order]
    # Sorted edge r overlaps, along the sweep axis, sorted edges r + 1 .. reach[r] - 1;
    # candidate k belongs to the row r with ends[r - 1] <= k < ends[r].
    reach = np.searchsorted(lo, hi, side="right")
    ends = np.cumsum(reach - np.arange(1, p + 1))
    total = int(ends[-1])
    crossings = 0
    for start in range(0, total, _CROSS_BLOCK):
        k = np.arange(start, min(start + _CROSS_BLOCK, total))
        r = np.searchsorted(ends, k, side="right")
        s = k - ends[r] + reach[r]
        keep = (lo2[r] <= hi2[s]) & (lo2[s] <= hi2[r])
        i, j = order[r[keep]], order[s[keep]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        keep = (u[i] != u[j]) & (u[i] != v[j]) & (v[i] != u[j]) & (v[i] != v[j])
        i, j = i[keep], j[keep]
        keep = _orient_signs(instance, u[i], v[i], u[j]) \
            * _orient_signs(instance, u[i], v[i], v[j]) < 0
        i, j = i[keep], j[keep]
        keep = _orient_signs(instance, u[j], v[j], u[i]) \
            * _orient_signs(instance, u[j], v[j], v[i]) < 0
        i, j = i[keep], j[keep]
        crossings += len(i)
        per_edge += np.bincount(i, minlength=p) + np.bincount(j, minlength=p)
    return crossings, per_edge


def _orient_signs(instance: Instance, a: np.ndarray, b: np.ndarray, c: np.ndarray
                  ) -> np.ndarray:
    """`_orient_sign` of the points with ids a[t], b[t], c[t], for every t.

    `orient_filter` decides in floats, with the same operations and threshold
    as `_orient_sign`; only the entries it leaves open call `_orient_sign`.
    """
    xs, ys = instance.xs, instance.ys
    with np.errstate(over="ignore", invalid="ignore"):
        det, certain = orient_filter((xs[a], ys[a]), (xs[b], ys[b]), (xs[c], ys[c]))
    sign = np.where(det > 0, 1, -1)
    coords = instance.coords
    for t in np.flatnonzero(~certain).tolist():
        sign[t] = _orient_sign(coords(int(a[t])), coords(int(b[t])), coords(int(c[t])))
    return sign


def solution_stats(edge_set: EdgeSet, solver: str) -> Solution:
    """Weight, per-color counts, max degree, and purple-purple crossing statistics.

    A weight beyond the float range (an edge longer than it) raises PreconditionError.
    """
    if not math.isfinite(edge_set.weight):
        raise PreconditionError("the solution weight lies beyond the float range")
    instance = edge_set.instance
    codes = edge_set.color_class
    red, blue, purple, invalid = np.bincount(codes, minlength=INVALID_CLASS + 1).tolist()
    if invalid:
        raise PreconditionError("solution contains an invalid red-blue edge")
    degree = (np.bincount(edge_set.u, minlength=instance.n)
              + np.bincount(edge_set.v, minlength=instance.n))
    is_purple = codes == Color.PURPLE
    u, v = edge_set.u[is_purple], edge_set.v[is_purple]
    crossings, per_edge = _purple_crossings(instance, u, v)
    return Solution(
        edge_set=edge_set,
        red_edges=red,
        blue_edges=blue,
        purple_edges=purple,
        max_degree=int(degree.max()),
        purple_crossings=crossings,
        solver=solver,
        purple_crossings_per_edge=dict(zip(zip(u.tolist(), v.tolist()), per_edge.tolist())),
    )


def stats_block(solution: Solution) -> str:
    """Flat key-value text block for scripting and golden-file tests."""
    lines = [
        "weight %.12g" % solution.weight,
        "red_edges %d" % solution.red_edges,
        "blue_edges %d" % solution.blue_edges,
        "purple_edges %d" % solution.purple_edges,
        "max_degree %d" % solution.max_degree,
        "purple_crossings %d" % solution.purple_crossings,
        "solver %s" % solution.solver,
    ]
    return "\n".join(lines) + "\n"
