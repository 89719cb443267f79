"""Workload definitions, instance generation, references and the output check.

The benchmark makes its own instance text, so the program under test sees only
files and a change to `rbpspan.generators` cannot change the inputs. Points are
drawn like `gen_random` draws them (uniform in the unit square, on the segment
y = x/2, or on the unit circle), but the colour counts are exact rather than
drawn per point, so that every instance of a workload has the same k and
instance-to-instance spread does not swamp the timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Seed reserved for confirming a claimed gain. Never run it while a change is
# being written; pool workloads draw it from instances no other seed uses.
HELD_OUT_SEED = 1000003

WEIGHT_REL_TOL = 1e-9


@dataclass(frozen=True)
class InstanceSet:
    """One family of instances.

    Every instance of a set has the same size and colour counts, so that runs
    stay steady. `pool` and `held_out` size the fixed instance pools whose
    stats blocks are stored in golden.json; a set with `pool == 0` computes
    its reference with `oracle_forest` during set-up instead and draws fresh
    instances per seed.
    """

    name: str
    mode: str                   # "plane", "line" or "circle"
    n: int                      # points per instance
    fracs: tuple                # (red, blue, purple) shares of n
    per_run: int                # instances prepared per run, cycled by the loop
    per_op: int = 1             # solves of this set in one operation
    pool: int = 0
    held_out: int = 0


PLANE_APPROX = InstanceSet("plane-approx", "plane", 1000, (0.4, 0.4, 0.2), per_run=32,
                           pool=64, held_out=32)
LINE_COLLINEAR = InstanceSet("line-collinear", "line", 500, (0.4, 0.4, 0.2), per_run=16,
                             pool=32, held_out=16)
EXACT_SMALL = InstanceSet("exact-small", "plane", 18, (0.35, 0.35, 0.3), per_run=16)
CIRCLE_DP = InstanceSet("circle-dp", "circle", 300, (0.25, 0.25, 0.5), per_run=48, per_op=3,
                        pool=128, held_out=64)

# A workload's operation is `per_op` solves of each of its sets, in order. The
# host's speed drifts by up to 2x over tens of seconds, so a run must be long
# to give a steady median, and the run budget (4 + 22 runs per workload
# within 3420 s) allows two long workloads rather than four short ones. `exact-solvers` therefore bundles the three exact solvers'
# instance sets into one operation: 1 line solve, 1 exact solve and 3 circle
# solves, about 0.45 s, 0.55 s and 3 x 0.17 s. Each solver is about a third of
# the operation, so a regression in any one of them moves the operation's
# time. line-collinear uses n = 500 rather than 1000 for the same reason: at
# n = 1000 one line solve takes 1.8 s, a balanced operation over 5 s, and a
# run too few operations for a tail percentile with ten samples beyond it.
WORKLOADS = {
    "plane-approx": (PLANE_APPROX,),
    "exact-solvers": (LINE_COLLINEAR, EXACT_SMALL, CIRCLE_DP),
}
INSTANCE_SETS = {s.name: s for sets in WORKLOADS.values() for s in sets}


def instance_text(iset: InstanceSet, gen_seed: int) -> str:
    """Instance file text, one "<R|B|P> <x> <y>" line per point, deterministic in its seed."""
    n = iset.n
    rng = random.Random(f"{iset.name}:{gen_seed}:{n}")
    coords = []
    used = set()
    while len(coords) < n:
        if iset.mode == "plane":
            xy = (rng.random(), rng.random())
        elif iset.mode == "line":
            t = rng.random()
            xy = (t, 0.5 * t)
        else:
            theta = rng.random() * 2.0 * math.pi
            xy = (math.cos(theta), math.sin(theta))
        if xy not in used:
            used.add(xy)
            coords.append(xy)
    red, blue = round(iset.fracs[0] * n), round(iset.fracs[1] * n)
    colors = ["R"] * red + ["B"] * blue + ["P"] * (n - red - blue)
    rng.shuffle(colors)
    return "".join("%s %.17g %.17g\n" % (c, x, y) for c, (x, y) in zip(colors, coords))


def run_instances(iset: InstanceSet, seed: int) -> list[int]:
    """The generator seeds of the instances one run cycles through, chosen by the run's seed."""
    if iset.pool:
        if seed == HELD_OUT_SEED:
            seeds = range(iset.pool, iset.pool + iset.held_out)
        else:
            seeds = range(iset.pool)
        return random.Random(seed).sample(seeds, min(iset.per_run, len(seeds)))
    return [seed * iset.per_run + i for i in range(iset.per_run)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@dataclass
class Case:
    """One prepared instance: its set, file, points and reference."""

    set_name: str
    path: Path
    colors: list          # "R" / "B" / "P" per point id
    coords: list          # (x, y) per point id
    stats: Optional[str]  # stored stats block (pool workloads)
    weight: Optional[float]  # oracle optimum (oracle workloads)


def parse_points(text: str) -> tuple[list, list]:
    colors, coords = [], []
    for line in text.splitlines():
        c, x, y = line.split()
        colors.append(c)
        coords.append((float(x), float(y)))
    return colors, coords


def prepare(sets: Sequence[InstanceSet], seed: int, workdir: Path,
            golden: dict) -> list[tuple[Case, ...]]:
    """Set-up: generate and write the run's instances and fetch or compute references.

    Returns the run's operations: the i-th takes the next `per_op` cases of
    every set, cycling the shorter lists.
    """
    per_set = [(iset.per_op, prepare_set(iset, seed, workdir, golden)) for iset in sets]
    n_ops = max(max(1, len(cases) // per_op) for per_op, cases in per_set)
    return [tuple(cases[(i * per_op + j) % len(cases)]
                  for per_op, cases in per_set for j in range(per_op))
            for i in range(n_ops)]


def prepare_set(iset: InstanceSet, seed: int, workdir: Path, golden: dict) -> list[Case]:
    from rbpspan.model import parse_instance
    from rbpspan.oracle import oracle_forest

    table = golden.get(iset.name, {}) if iset.pool else None
    cases = []
    for i, gen_seed in enumerate(run_instances(iset, seed)):
        text = instance_text(iset, gen_seed)
        path = workdir / f"{iset.name}-{i}.txt"
        path.write_text(text)
        colors, coords = parse_points(text)
        stats = weight = None
        if table is not None:
            entry = table.get(str(gen_seed))
            if entry is None or entry["sha256"] != sha256(text):
                raise RuntimeError(f"{iset.name}: no stored reference for instance {gen_seed}")
            stats = entry["stats"]
        else:
            weight = oracle_forest(parse_instance(text)).edge_set.weight
        cases.append(Case(iset.name, path, colors, coords, stats, weight))
    return cases


class _Components:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        self.parent[self.find(a)] = self.find(b)

    def connected(self, vertices: Sequence[int]) -> bool:
        return len({self.find(v) for v in vertices}) <= 1


def split_output(text: str) -> tuple[list[tuple[int, int]], str]:
    """Edge pairs and the stats block of a `rbpspan solve` output file."""
    head, sep, stats = text.partition("\n\n")
    if not sep:
        raise ValueError("no blank line before the stats block")
    edges = []
    for line in head.splitlines():
        u, v = line.split()
        edges.append((int(u), int(v)))
    return edges, stats


def check_output(case: Case, out_text: str) -> Optional[str]:
    """None if the output is correct, else the reason it is not.

    The RBP check is the benchmark's own: red and purple edges must connect
    R ∪ P, and blue and purple edges must connect B ∪ P.
    """
    try:
        edges, stats = split_output(out_text)
    except ValueError as exc:
        return f"unreadable output: {exc}"
    n = len(case.colors)
    red, blue = _Components(n), _Components(n)
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return f"bad edge ({u}, {v})"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {key}"
        seen.add(key)
        cu, cv = case.colors[u], case.colors[v]
        if {cu, cv} == {"R", "B"}:
            return f"red-blue edge ({u}, {v})"
        if "B" not in (cu, cv):
            red.union(u, v)
        if "R" not in (cu, cv):
            blue.union(u, v)
    if not red.connected([i for i, c in enumerate(case.colors) if c != "B"]):
        return "red side not connected"
    if not blue.connected([i for i, c in enumerate(case.colors) if c != "R"]):
        return "blue side not connected"
    if case.weight is not None:
        weight = math.fsum(math.hypot(case.coords[u][0] - case.coords[v][0],
                                      case.coords[u][1] - case.coords[v][1])
                           for u, v in edges)
        if not math.isclose(weight, case.weight, rel_tol=WEIGHT_REL_TOL):
            return f"weight {weight!r} differs from the oracle's {case.weight!r}"
    if case.stats is not None and stats != case.stats:
        return "stats block differs from the stored one"
    return None
