"""Timing harnesses for the scaling checks of the three specialized solvers and approx-a."""

from __future__ import annotations

import math
import random
import time
from typing import Sequence

from .approx import approx_a
from .circle import fill_tables, solve_circle, split_arcs
from .exact import solve_exact
from .generators import gen_random
from .line import solve_line, solve_sorted
from .model import Color, Instance

EXACT_SEEDS = 16  # instances per n in bench_exact


def _median(samples: Sequence[float]) -> float:
    s = sorted(samples)
    mid = len(s) // 2
    if len(s) % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def _line_arrays(n: int, seed: int):
    """Pre-sorted positions and colors on a line; sorting is excluded from timing."""
    rng = random.Random(seed)
    ts = sorted(rng.random() for _ in range(n))
    colors = [rng.randrange(3) for _ in range(n)]
    ids = list(range(n))
    return ids, ts, colors


def _alternated_medians(run, inputs: dict, reps: int) -> dict:
    """Median seconds of `run(inputs[key])` per key.

    Each input is run once untimed to warm up; the timed reps then alternate
    across the keys, so every size sees the same phases of a shared host's speed.
    """
    for arg in inputs.values():
        run(arg)
    samples = {key: [] for key in inputs}
    for _ in range(reps):
        for key, arg in inputs.items():
            t0 = time.perf_counter()
            run(arg)
            samples[key].append(time.perf_counter() - t0)
    return {key: _median(s) for key, s in samples.items()}


def bench_line(sizes: Sequence[int] = (100_000, 1_000_000), reps: int = 5,
               seed: int = 0) -> dict:
    """Median seconds of the core linear pass per input size."""
    return _alternated_medians(lambda args: solve_sorted(*args),
                               {n: _line_arrays(n, seed) for n in sizes}, reps)


def bench_line_e2e(sizes: Sequence[int] = (10_000, 100_000), reps: int = 5,
                   seed: int = 0) -> dict:
    """Median seconds of `solve_line` per input size: check, sort, pass, edge set and stats."""
    inputs = {}
    for n in sizes:
        _, ts, colors = _line_arrays(n, seed)
        inputs[n] = Instance(ts, [0.5 * t for t in ts], colors)
    return _alternated_medians(solve_line, inputs, reps)


def _circle_instance(k: int, extra: int, seed: int) -> Instance:
    """k purple and `extra` red/blue points on the unit circle."""
    rng = random.Random(seed)
    thetas = set()
    while len(thetas) < k + extra:
        thetas.add(rng.random() * 2.0 * math.pi)
    ordered = sorted(thetas)
    rng.shuffle(ordered)
    colors = [Color.PURPLE] * k + [Color.RED if rng.random() < 0.5 else Color.BLUE
                                   for _ in ordered[k:]]
    return Instance(list(map(math.cos, ordered)), list(map(math.sin, ordered)), colors)


def bench_circle(ks: Sequence[int] = (100, 200), extra: int = 200, reps: int = 5,
                 seed: int = 0) -> dict:
    """Median seconds of the table fill per purple count; it scales as k^3."""
    inputs = {}
    for k in ks:
        instance = _circle_instance(k, extra, seed)
        inputs[k] = (instance, *split_arcs(instance, 0.0, 0.0))
    return _alternated_medians(lambda args: fill_tables(*args), inputs, reps)


def bench_circle_e2e(ks: Sequence[int] = (100, 200), extra: int = 200, reps: int = 5,
                     seed: int = 0) -> dict:
    """Median seconds of `solve_circle` per purple count.

    It times the whole solve: fit, split, tables, reconstruction, edge set and stats.
    """
    return _alternated_medians(solve_circle, {k: _circle_instance(k, extra, seed) for k in ks},
                               reps)


def bench_approx(sizes: Sequence[int] = (10_000, 100_000), reps: int = 1,
                 seed: int = 0) -> dict:
    """Median seconds of `approx_a` end to end per input size, on uniform plane points."""
    inputs = {n: gen_random(n, 0.4, 0.4, "plane", seed=seed + n) for n in sizes}
    return _alternated_medians(approx_a, inputs, reps)


def bench_exact(ns: Sequence[int] = (10, 20, 30, 40), reps: int = 1, seed: int = 0) -> dict:
    """Median seconds of the exact solver per n, over EXACT_SEEDS random planar instances.

    The instances are `gen_random(n, 0.4, 0.4, "plane", seed=seed + i)` for i < EXACT_SEEDS.
    The cost follows the purple count k, which varies from seed to seed, so one
    instance per n says little about n.
    """
    inputs = {(n, i): gen_random(n, 0.4, 0.4, "plane", seed=seed + i)
              for n in ns for i in range(EXACT_SEEDS)}
    per_instance = _alternated_medians(solve_exact, inputs, reps)
    return {n: _median([per_instance[n, i] for i in range(EXACT_SEEDS)]) for n in ns}


# `rbpspan bench --target` name -> (row label, harness, divisor of --reps) per output row
# group, in output order; the exact and approx harnesses take half the reps.
TARGETS = {
    "line": (("line", bench_line, 1), ("line_e2e", bench_line_e2e, 1)),
    "circle": (("circle", bench_circle, 1), ("circle_e2e", bench_circle_e2e, 1)),
    "exact": (("exact", bench_exact, 2),),
    "approx": (("approx_a_e2e", bench_approx, 2),),
}


def scaling_ratio(results: dict, small, large) -> float:
    return results[large] / results[small]
