"""Colored point-set model: points, instances, edges, and geometric predicates."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import index
from typing import Iterable, Optional

import numpy as np

DIST_TIE_TOL = 1e-12    # relative tolerance of distance_tie_count's equal-length test
CROSS_TOL = 1e-12       # relative threshold below which orientation falls back to exact
# np.hypot and math.hypot (Instance.distance) each lie within one ulp of the
# true length, so they differ by at most two ulps: half of hypot_slack(length),
# four ulps of the length plus four of the smallest subnormal.
HYPOT_SLACK = 4 * 2.0 ** -52
HYPOT_SLACK_FLOOR = 4 * math.ulp(0.0)
_LENGTH_BLOCK = 1 << 16  # adjacent length pairs compared at a time in distance_tie_count


def hypot_slack(length):
    """Twice the most np.hypot and math.hypot can differ at `length`; works on arrays."""
    return length * HYPOT_SLACK + HYPOT_SLACK_FLOOR


class PreconditionError(ValueError):
    """A solver or operation was called outside its stated precondition."""


class InstanceFormatError(PreconditionError):
    """Malformed or inconsistent instance text."""


class Color(enum.IntEnum):
    """Point color; ordering RED < BLUE < PURPLE is part of the tie-break order."""

    RED = 0
    BLUE = 1
    PURPLE = 2


_COLOR_CODES = {"R": Color.RED, "B": Color.BLUE, "P": Color.PURPLE}
_CODE_OF = "RBP"  # the letter of each Color code


def edge_color(cu: Color, cv: Color) -> Optional[Color]:
    """Color class of an edge between point colors; None for the invalid red-blue case."""
    if cu == Color.PURPLE:
        return cv
    if cv == Color.PURPLE:
        return cu
    if cu == cv:
        return cu
    return None


@dataclass(frozen=True, slots=True)
class Edge:
    """Canonical point-id pair (u < v), length and color class; made only by `Solution.edges`."""

    u: int
    v: int
    length: float
    color_class: Optional[Color]


# Edge color class code by the two point colors; INVALID_CLASS marks the red-blue pair.
INVALID_CLASS = 3
_CLASS_OF = np.array([[INVALID_CLASS if edge_color(a, b) is None else int(edge_color(a, b))
                       for b in Color] for a in Color], dtype=np.int8)
_CLASS_COLOR = (Color.RED, Color.BLUE, Color.PURPLE, None)  # code -> Edge.color_class


class Instance:
    """Immutable colored point set and its sorted purple ids `P`, which every solver reads.

    `xs`, `ys` (float64) and `colors` (int8 `Color` codes) hold the points
    by id as read-only arrays, the only stored form of the points.
    """

    __slots__ = ("P", "xs", "ys", "colors")

    def __new__(cls, xs, ys, colors):
        """The instance of points (xs[i], ys[i]) with `Color` codes colors[i], as read-only copies.

        InstanceFormatError names the first fault: no points, a non-finite coordinate, a color
        code other than 0, 1 and 2, or a point at the place of an earlier one (-0.0 is 0.0),
        named with the first such point.
        """
        xs, ys, colors = np.array(xs, dtype=float), np.array(ys, dtype=float), np.asarray(colors)
        if not xs.shape == ys.shape == colors.shape == (len(xs),):
            raise InstanceFormatError("xs, ys and colors must be 1-d arrays of one length")
        if not len(xs):
            raise InstanceFormatError("instance has no points")
        bad = ~(np.isfinite(xs) & np.isfinite(ys))
        if bad.any():
            raise InstanceFormatError(f"point {int(bad.argmax())} has non-finite coordinates")
        bad = ~np.isin(colors, list(Color))
        if bad.any():
            i = int(bad.argmax())
            raise InstanceFormatError(f"point {i} has color code {colors.tolist()[i]!r}, "
                                      "not 0, 1 or 2")
        colors = colors.astype(np.int8)
        order = np.lexsort((ys, xs))  # stable, -0.0 sorting as 0.0: equal points in id order
        sx, sy = xs[order], ys[order]
        repeats = order[1:][(sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])]
        if len(repeats):
            j = int(repeats.min())
            i = int(np.flatnonzero((xs == xs[j]) & (ys == ys[j]))[0])
            raise InstanceFormatError(f"points {i} and {j} coincide at {(xs.item(j), ys.item(j))}")
        instance = object.__new__(cls)
        object.__setattr__(instance, "P", tuple(np.flatnonzero(colors == Color.PURPLE).tolist()))
        for name, array in (("xs", xs), ("ys", ys), ("colors", colors)):
            array.flags.writeable = False
            object.__setattr__(instance, name, array)
        return instance

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Instance is immutable")

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def k(self) -> int:
        return len(self.P)

    def color_of(self, i: int) -> Color:
        return _CLASS_COLOR[self.colors[i]]

    def coords(self, i: int) -> tuple[float, float]:
        return (self.xs.item(i), self.ys.item(i))

    def distance(self, u: int, v: int) -> float:
        return math.hypot(self.xs.item(u) - self.xs.item(v), self.ys.item(u) - self.ys.item(v))

    def red_side(self) -> tuple[int, ...]:
        """Ids of R ∪ P, sorted."""
        return tuple(np.flatnonzero(self.colors != int(Color.BLUE)).tolist())

    def blue_side(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.colors != int(Color.RED)).tolist())

    def distance_tie_count(self) -> int:
        """How many sorted pair lengths equal the one before, up to DIST_TIE_TOL relative.

        A run of j equal lengths counts j - 1, and no length ties an inf one.
        Ties are reported, not fatal; solvers fall back to deterministic
        lexicographic tie-breaking.
        """
        n = self.n
        d = np.empty(n * (n - 1) // 2)  # the math.hypot floats of row u, then of row u + 1, ...
        end = 0
        for u in range(n - 1):
            start, end = end, end + n - 1 - u
            d[start:end] = hypot_lengths(self, u, np.arange(u + 1, n))
        d.sort()
        count = 0
        for start in range(0, len(d) - 1, _LENGTH_BLOCK):
            longer = d[start + 1:start + 1 + _LENGTH_BLOCK]
            with np.errstate(invalid="ignore"):  # inf - inf is nan, no tie
                tie = (longer - d[start:start + len(longer)]
                       <= DIST_TIE_TOL * np.maximum(1.0, longer)) & (longer < math.inf)
            count += int(np.count_nonzero(tie))
        return count


def _canonical(instance: Instance, u: int, v: int) -> tuple[int, int]:
    """(u, v) ordered u < v; PreconditionError if they are equal or either is unknown."""
    if u == v:
        raise PreconditionError(f"edge endpoints must differ (got {u})")
    if u > v:
        u, v = v, u
    if u < 0 or v >= instance.n:
        raise PreconditionError(f"edge ({u}, {v}) references an unknown point id")
    return u, v


def allowed_edges(instance: Instance) -> EdgeSet:
    """The edge set of all non-invalid edges."""
    u, v = np.triu_indices(instance.n, 1)
    allowed = _CLASS_OF[instance.colors[u], instance.colors[v]] != INVALID_CLASS
    return make_edge_set(instance, np.column_stack((u[allowed], v[allowed])))


def hypot_lengths(instance: Instance, u: np.ndarray, v: np.ndarray) -> list[float]:
    """`instance.distance(u[i], v[i])` for every i: the same math.hypot floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        dx = instance.xs[u] - instance.xs[v]
        dy = instance.ys[u] - instance.ys[v]
    return list(map(math.hypot, dx.tolist(), dy.tolist()))


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """A candidate or final solution graph: sorted edge arrays plus total weight.

    Edge i joins point ids u[i] < v[i] (int64) and is length[i] long, the
    float64 `Instance.distance`; edges are in (length, u, v) order.
    color_class[i] is the int8 class code of `_CLASS_OF`, INVALID_CLASS for
    a red-blue pair. weight is the `math.fsum` of the lengths, whichever way
    the edge set is built (`_fsum_weight`). Array fields make the dataclass
    `==` meaningless, so edge sets compare by identity.
    """

    instance: Instance
    u: np.ndarray
    v: np.ndarray
    length: np.ndarray
    weight: float
    color_class: np.ndarray = field(init=False)

    def __post_init__(self):
        colors = self.instance.colors
        object.__setattr__(self, "color_class", _CLASS_OF[colors[self.u], colors[self.v]])
        for array in (self.u, self.v, self.length, self.color_class):
            array.flags.writeable = False

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.u.tolist(), self.v.tolist()))


def make_edge_set(instance: Instance, pairs: Iterable[tuple[int, int]]) -> EdgeSet:
    """The edge set of distinct point-id pairs, given in any order and orientation.

    `pairs` is an iterable of (u, v) pairs of integer ids or an (m, 2) integer
    array; an element that is not two integers, an array of another shape or
    dtype, or an id beyond int64 raises PreconditionError. So does a repeated
    pair (the first repeat in input order) and, after that check, a pair with
    equal or unknown ids. The weight is `_fsum_weight` of the lengths, which
    raises PreconditionError where finite lengths sum past the float range.
    """
    if not isinstance(pairs, np.ndarray):
        try:
            pairs = np.array([(index(u), index(v)) for u, v in pairs], dtype=np.int64)
        except OverflowError:
            raise PreconditionError("an edge references a point id beyond int64") from None
        except (TypeError, ValueError):
            raise PreconditionError("an edge is not a pair of integer point ids") from None
        pairs = pairs.reshape(-1, 2)
    elif pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise PreconditionError(f"edge array of shape {pairs.shape} and dtype {pairs.dtype} "
                                "is not (m, 2) integer ids")
    elif pairs.dtype == np.uint64 and (pairs > np.iinfo(np.int64).max).any():
        raise PreconditionError("an edge references a point id beyond int64")
    pairs = pairs.astype(np.int64, copy=False)
    u, v = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    bad = (u == v) | (u < 0) | (v >= instance.n)
    if bad.any():
        _sorted_without_repeats(u, v, np.lexsort((v, u)))
        i = int(np.argmax(bad))
        _canonical(instance, int(u[i]), int(v[i]))  # raises the pair's error
    length = np.array(hypot_lengths(instance, u, v), dtype=float)
    order = np.lexsort((v, u, length))
    u, v = _sorted_without_repeats(u, v, order)
    length = length[order]
    return EdgeSet(instance, u, v, length, _fsum_weight(length))


def _fsum_weight(length: np.ndarray) -> float:
    """`math.fsum` of the lengths, the weight of every `EdgeSet`.

    Finite lengths that sum past the float range raise PreconditionError.
    """
    try:
        return math.fsum(length.tolist())
    except OverflowError:
        raise PreconditionError("the edge lengths sum past the float range") from None


def _sorted_without_repeats(u: np.ndarray, v: np.ndarray, order: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """u[order], v[order]; `order` is a stable sort that puts equal pairs together.

    Raises PreconditionError on the first pair that repeats an earlier one in input order.
    """
    u, v, later = u[order], v[order], order[1:]
    repeats = later[(u[1:] == u[:-1]) & (v[1:] == v[:-1])]
    if len(repeats):
        i = np.flatnonzero(order == repeats.min())[0]
        raise PreconditionError(f"duplicate edge ({u[i]}, {v[i]})")
    return u, v


@dataclass(frozen=True)
class Solution:
    """An edge set together with its statistics and solver provenance."""

    edge_set: EdgeSet
    red_edges: int
    blue_edges: int
    purple_edges: int
    max_degree: int
    purple_crossings: int
    solver: str
    purple_crossings_per_edge: dict

    @property
    def weight(self) -> float:
        return self.edge_set.weight

    @property
    def instance(self) -> Instance:
        return self.edge_set.instance

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as `Edge` objects, made on first read; the only place an `Edge` is made.

        This view stays only because the `graphops.stats_pairs` counter of
        `perfbench/spans.py` reads it; it goes with ROADMAP item 4.
        """
        es = self.edge_set
        return tuple(map(Edge, es.u.tolist(), es.v.tolist(), es.length.tolist(),
                         [_CLASS_COLOR[c] for c in es.color_class.tolist()]))


# ---------------------------------------------------------------------------
# Robust segment predicates


def orient_filter(a, b, c):
    """The float (a, b, c) orientation determinant and whether its sign is certain.

    The sign is taken as certain where |det| exceeds CROSS_TOL times
    |t1| + |t2|; without underflow, the rounding error of det is below about
    3.3e-16 of that sum (Shewchuk 1997). Works elementwise on numpy arrays
    too, with the same IEEE operations, so a vectorised caller decides in
    floats exactly the entries `_orient_sign` decides in floats.
    """
    t1 = (b[0] - a[0]) * (c[1] - a[1])
    t2 = (b[1] - a[1]) * (c[0] - a[0])
    det = t1 - t2
    return det, abs(det) > CROSS_TOL * (abs(t1) + abs(t2))


def _orient_sign(a, b, c) -> int:
    """Sign of the (a, b, c) orientation determinant, exact near zero.

    Floats are exact rationals, so the Fraction fallback is fully exact.
    """
    det, certain = orient_filter(a, b, c)
    if certain:
        return 1 if det > 0 else -1
    det_exact = ((Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1]))
                 - (Fraction(b[1]) - Fraction(a[1])) * (Fraction(c[0]) - Fraction(a[0])))
    if det_exact > 0:
        return 1
    if det_exact < 0:
        return -1
    return 0


def segments_properly_cross(a, b, c, d) -> bool:
    """True iff open segments ab and cd intersect in exactly one interior point.

    Endpoint touches and collinear overlaps do not count. The segments must not
    share an endpoint.
    """
    if a == c or a == d or b == c or b == d:
        raise PreconditionError("segments share an endpoint")
    if _orient_sign(a, b, c) * _orient_sign(a, b, d) >= 0:
        return False
    return _orient_sign(c, d, a) * _orient_sign(c, d, b) < 0


# ---------------------------------------------------------------------------
# Instance text format


def parse_instance(text: str) -> Instance:
    """Parse the instance text format: one "<R|B|P> <x> <y>" per line, '#' comments."""
    xs, ys, colors = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in _COLOR_CODES:
            raise InstanceFormatError(f"line {lineno}: expected '<R|B|P> <x> <y>', got {raw!r}")
        try:
            xs.append(float(parts[1]))
            ys.append(float(parts[2]))
        except ValueError:
            raise InstanceFormatError(f"line {lineno}: bad coordinate in {raw!r}") from None
        colors.append(_COLOR_CODES[parts[0]])
    return Instance(xs, ys, colors)


def serialize_instance(instance: Instance, landmarks: Optional[dict] = None) -> str:
    """Emit the instance text format; parse(serialize(i)) reproduces i bit-identically."""
    lines = ["%s %.17g %.17g" % (_CODE_OF[c], x, y) for c, x, y in
             zip(instance.colors.tolist(), instance.xs.tolist(), instance.ys.tolist())]
    if landmarks:
        for name in sorted(landmarks):
            lines.append(f"# landmark {name} {landmarks[name]}")
    return "\n".join(lines) + "\n"
