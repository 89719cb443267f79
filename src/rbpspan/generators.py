"""Deterministic, seeded instance generators, including the adversarial constructions."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .model import (
    Color,
    EdgeSet,
    Instance,
    PreconditionError,
    make_edge_set,
)


def gen_random(n: int, red_frac: float, blue_frac: float, mode: str = "plane",
               seed: int = 0) -> Instance:
    """Seeded uniform points in the unit square, on a segment, or on a unit circle."""
    if not (0.0 <= red_frac <= 1.0 and 0.0 <= blue_frac <= 1.0
            and red_frac + blue_frac <= 1.0 + 1e-12):
        raise PreconditionError("color fractions must lie in [0,1] and sum to at most 1")
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if mode not in ("plane", "line", "circle"):
        raise PreconditionError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    xs, ys, colors = [], [], []
    used = set()
    while len(xs) < n:
        if mode == "plane":
            x, y = rng.random(), rng.random()
        elif mode == "line":
            t = rng.random()
            x, y = t, 0.5 * t
        else:
            theta = rng.random() * 2.0 * math.pi
            x, y = math.cos(theta), math.sin(theta)
        if (x, y) in used:
            continue
        used.add((x, y))
        u = rng.random()
        if u < red_frac:
            color = Color.RED
        elif u < red_frac + blue_frac:
            color = Color.BLUE
        else:
            color = Color.PURPLE
        xs.append(x)
        ys.append(y)
        colors.append(color)
    return Instance(xs, ys, colors)


# ---------------------------------------------------------------------------
# Degree-18 hexagon figure


def gen_hexagon(rotation: float = math.pi / 12.0) -> Instance:
    """Purple center and radius-3 hexagon, red and blue unit hexagons (blue rotated).

    The star from the center (degree 18) is a minimum solution of weight 30.
    """
    if not (0.0 < rotation < math.pi / 6.0):
        raise PreconditionError("rotation must lie strictly between 0 and pi/6")
    xs, ys = [0.0], [0.0]
    for radius, turn in ((3.0, 0.0), (1.0, 0.0), (1.0, rotation)):
        for j in range(6):
            a = j * math.pi / 3.0 + turn
            xs.append(radius * math.cos(a))
            ys.append(radius * math.sin(a))
    return Instance(xs, ys, [Color.PURPLE] * 7 + [Color.RED] * 6 + [Color.BLUE] * 6)


def hexagon_star(instance: Instance) -> EdgeSet:
    """The degree-18 star solution of the hexagon instance."""
    return make_edge_set(instance, [(0, i) for i in range(1, instance.n)])


# ---------------------------------------------------------------------------
# Steiner-ratio lower-bound family


@dataclass(frozen=True)
class SteinerFamily:
    instance: Instance
    two_chain: EdgeSet  # constructed feasible solution; an upper bound on OPT


def gen_steiner_family(t: int) -> SteinerFamily:
    """Unit equilateral purple triangle with red/blue chains toward the Fermat point.

    Algorithm A pays MST of the purple triangle on top of both chains, so its
    ratio against the two-chain solution tends to 1 + 1/sqrt(3) as t grows.
    """
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    s3 = math.sqrt(3.0)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.5, s3 / 2.0)]
    fermat = (0.5, s3 / 6.0)
    xs, ys = [x for x, _ in corners], [y for _, y in corners]
    colors = [Color.PURPLE] * 3
    red_ids = [[] for _ in range(3)]
    blue_ids = [[] for _ in range(3)]
    for c, (cx, cy) in enumerate(corners):
        dx, dy = fermat[0] - cx, fermat[1] - cy
        for color, ids, lag in ((Color.RED, red_ids[c], 0.0), (Color.BLUE, blue_ids[c], 0.5)):
            for j in range(1, t + 1):
                f = (j - lag) / (t + 1.0)
                ids.append(len(xs))
                xs.append(cx + f * dx)
                ys.append(cy + f * dy)
                colors.append(color)
    instance = Instance(xs, ys, colors)

    pairs = []
    if t == 0:
        pairs = [(0, 1), (0, 2)]
    else:
        for ids in (red_ids, blue_ids):
            inner = []
            for c in range(3):
                chain = [c] + ids[c]
                pairs.extend(zip(chain, chain[1:]))
                inner.append(ids[c][-1])
            pairs.append((inner[0], inner[1]))
            pairs.append((inner[0], inner[2]))
    return SteinerFamily(instance, make_edge_set(instance, pairs))


# ---------------------------------------------------------------------------
# Martini glass (purple edge crossed by all other purple edges)


@dataclass(frozen=True)
class MartiniParams:
    m: int = 1                      # odd number of levels
    eps: float = 1e-3               # purple level offset
    eps0: Optional[float] = None    # circle shift; None = 1e-2, else half the largest feasible
    chain_points: int = 2           # points per chain


@dataclass(frozen=True)
class Martini:
    instance: Instance
    landmarks: dict  # name -> point id
    p_c: tuple       # bottom of the reference circle (a location, not a point)


def _level_angles(m: int, eps: float, start_angle_deg: float) -> list[float]:
    """Polar angles of q_0..q_m on the working unit circle."""
    angles = [math.radians(start_angle_deg)]
    for _ in range(m):
        theta = angles[-1]
        half = abs(math.cos(theta)) + eps  # |q_i r_i| / 2 + eps
        if half > 1.0:
            raise PreconditionError("eps too large: chord exceeds the circle diameter")
        angles.append(theta + 2.0 * math.asin(half / 2.0))
    return angles


def _auto_start_angle(m: int, eps: float, target_deg: float = 269.0) -> float:
    """Largest start angle whose m-th level still ends above the circle bottom.

    The recursion is undefined where a level lands too close to 180 degrees
    (its chord would exceed the diameter), so coarse-scan the start range first
    and then refine by bisection; the final angle grows monotonically with the
    start wherever the recursion is defined.
    """
    target = math.radians(target_deg)

    def final(start: float) -> Optional[float]:
        try:
            return _level_angles(m, eps, start)[-1]
        except PreconditionError:
            return None

    step = 0.25
    best = None
    s = 90.05
    while s < target_deg:
        f = final(s)
        if f is not None and f < target:
            best = s
        s += step
    if best is None:
        raise PreconditionError(
            "no feasible start angle for these levels; decrease eps or m")
    lo, hi = best, best + step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f = final(mid)
        if f is not None and f < target:
            lo = mid
        else:
            hi = mid
    return lo


def gen_martini(params: MartiniParams = MartiniParams()) -> Martini:
    """The appendix construction whose optimum has one purple edge crossing all others."""
    if params.m < 1 or params.m % 2 == 0:
        raise PreconditionError("m must be odd and at least 1")
    if params.eps <= 0.0 or params.chain_points < 1:
        raise PreconditionError("eps must be positive and chain_points at least 1")
    # The levels climb from at least 90.05 to below 269 degrees, so every q_i lies
    # left of the vertical axis.
    angles = _level_angles(params.m, params.eps, _auto_start_angle(params.m, params.eps))

    # y(q_m) > y(p_c) requires eps0 < 1 + sin(theta_m); bisect for the largest
    # feasible value at most 1e-2, then keep half the margin.
    y_m = math.sin(angles[-1])
    if params.eps0 is not None:
        eps0 = params.eps0
        if eps0 <= 0.0 or y_m - eps0 <= -1.0:
            raise PreconditionError(
                f"eps0={eps0} violates y(q_m) > y(p_c) (y_m={y_m}); choose a smaller eps0")
    else:
        lo, hi = 0.0, 1e-2
        if y_m - hi > -1.0:
            eps0 = hi
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if y_m - mid > -1.0:
                    lo = mid
                else:
                    hi = mid
            eps0 = 0.5 * lo
        if eps0 <= 0.0:
            raise PreconditionError("no feasible eps0 found; construction degenerate")

    cy = -eps0  # working circle center (0, -eps0), radius 1

    def on_circle(theta: float) -> tuple[float, float]:
        return (math.cos(theta), cy + math.sin(theta))

    xs: list[float] = []
    ys: list[float] = []
    colors: list[Color] = []
    landmarks: dict[str, int] = {}

    def add(color: Color, x: float, y: float, name: Optional[str] = None) -> int:
        pid = len(xs)
        xs.append(x)
        ys.append(y)
        colors.append(color)
        if name:
            landmarks[name] = pid
        return pid

    add(Color.PURPLE, 0.0, 0.0, "p_N")
    q_ids, r_ids = [], []
    for i, a in enumerate(angles):
        x, y = on_circle(a)
        q_ids.append(add(Color.PURPLE, x, y, f"q_{i}"))
    for i, a in enumerate(angles):
        x, y = on_circle(a)
        r_ids.append(add(Color.PURPLE, -x, y, f"r_{i}"))
    landmarks["p_W"] = q_ids[0]
    landmarks["p_E"] = r_ids[0]
    p_s = add(Color.PURPLE, 0.0, -2.0 - 2.0 * eps0, "p_S")

    cp = params.chain_points
    # Level chains along the circle arcs; colors alternate sides per level.
    for i in range(params.m):
        q_color = Color.BLUE if i % 2 == 0 else Color.RED
        r_color = Color.RED if i % 2 == 0 else Color.BLUE
        for j in range(1, cp + 1):
            a = angles[i] + (angles[i + 1] - angles[i]) * j / (cp + 1.0)
            x, y = on_circle(a)
            add(q_color, x, y)
            add(r_color, -x, y)

    def segment_chain(color: Color, a_id: int, b_id: int):
        ax, ay = xs[a_id], ys[a_id]
        bx, by = xs[b_id], ys[b_id]
        for j in range(1, cp + 1):
            f = j / (cp + 1.0)
            add(color, ax + f * (bx - ax), ay + f * (by - ay))

    segment_chain(Color.RED, landmarks["p_N"], landmarks["p_E"])
    segment_chain(Color.BLUE, q_ids[-1], p_s)

    instance = Instance(xs, ys, colors)

    # Quoted geometric guarantees of the construction, asserted at generation time.
    for i in range(params.m):
        qq = instance.distance(q_ids[i], q_ids[i + 1])
        qr = instance.distance(q_ids[i], r_ids[i])
        if not qq > 0.5 * qr:
            raise AssertionError(f"level {i}: ||q_i q_i+1|| <= ||q_i r_i||/2")
    pn, ps = landmarks["p_N"], landmarks["p_S"]
    d_ns = instance.distance(pn, ps)
    circle_purples = q_ids + r_ids
    for nu in circle_purples:
        for eta in circle_purples:
            if not instance.distance(pn, nu) + instance.distance(ps, eta) > d_ns:
                raise AssertionError("||p_N nu|| + ||p_S eta|| <= ||p_N p_S||")

    return Martini(instance, landmarks, (0.0, -1.0))
