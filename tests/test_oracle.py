"""Brute-force oracles and their mutual consistency."""

import math
import random

import pytest

from rbpspan import oracle
from rbpspan.generators import gen_random
from rbpspan.graphops import kruskal, solution_stats, sorted_side_pairs
from rbpspan.model import (
    Color,
    EdgeSet,
    Instance,
    PreconditionError,
    allowed_edges,
    make_edge_set,
    parse_instance,
)
from rbpspan.oracle import (
    SUBSET_MAX_EDGES,
    OracleSizeError,
    _set_partitions,
    oracle_forest,
    oracle_subsets,
)
from util import e1, line_instance, seeded_instances


def test_set_partition_counts_are_bell_numbers():
    # [TRIVIAL: Bell(0..5) = 1, 1, 2, 5, 15, 52]
    for n, bell in enumerate((1, 1, 2, 5, 15, 52)):
        assert sum(1 for _ in _set_partitions(list(range(n)))) == bell


class TestOracleForest:
    def test_e1(self):
        # [DERIVED: purple edge + two attachments = 18]
        sol = oracle_forest(e1())
        assert sol.weight == pytest.approx(18.0)
        assert sol.purple_edges == 1

    def test_single_purple(self):
        # [TRIVIAL]
        sol = oracle_forest(parse_instance("P 0 0"))
        assert sol.weight == 0.0 and sol.edge_set.pairs() == []

    def test_diameter_circle(self):
        # [DERIVED: matches oracle_subsets]
        inst = parse_instance("P 1 0\nP -1 0\nR 0 1\nB 0 -1")
        assert oracle_forest(inst).weight == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))

    def test_size_guard(self):
        inst = parse_instance("\n".join(f"P {i} {i * i}" for i in range(9)))
        with pytest.raises(OracleSizeError):
            oracle_forest(inst)
        assert oracle_forest(inst, max_purple=9).weight > 0.0


class TestOracleSubsets:
    def test_e1(self):
        # [DERIVED: exhaustive by definition, 5 allowed edges]
        assert oracle_subsets(e1()).weight == pytest.approx(18.0)

    def test_three_purple_collinear(self):
        # [DERIVED: exhaustive]
        inst = line_instance([("P", 0), ("P", 1), ("P", 3)])
        assert oracle_subsets(inst).weight == pytest.approx(3.0)

    def test_two_point_instances(self):
        # [TRIVIAL: single forced edge, or two trivially connected sides]
        forced = parse_instance("R 0 0\nP 1 0")
        assert oracle_subsets(forced).weight == pytest.approx(1.0)
        isolated = parse_instance("R 0 0\nB 1 0")
        sol = oracle_subsets(isolated)
        assert sol.weight == 0.0 and sol.edge_set.pairs() == []

    def test_size_guard(self):
        inst = parse_instance("\n".join(f"P {i} {i * i}" for i in range(8)))
        with pytest.raises(OracleSizeError):
            oracle_subsets(inst)


def _lattice_instances(count, base_seed):
    """Seeded instances on cells of a 4x4 lattice, where equal lengths abound, with at
    most SUBSET_MAX_EDGES allowed edges."""
    out = []
    seed = base_seed
    while len(out) < count:
        seed += 1
        rng = random.Random(seed)
        cells = rng.sample([(x, y) for x in range(4) for y in range(4)], rng.randint(5, 8))
        inst = parse_instance("".join(f"{rng.choice('RBP')} {x} {y}\n" for x, y in cells))
        if len(allowed_edges(inst).u) <= SUBSET_MAX_EDGES:
            out.append(inst)
    return out


def test_forest_matches_subsets_on_random_batch():
    # [DERIVED: two independent optima must coincide]
    for inst in (seeded_instances(25, n_min=4, n_max=7, max_allowed=20, base_seed=1300)
                 + _lattice_instances(25, base_seed=1400)):
        assert oracle_forest(inst).weight == pytest.approx(
            oracle_subsets(inst).weight, rel=1e-9)


def test_forest_lists_each_side_once(monkeypatch):
    # [DERIVED: the purple, red and blue pairs are read once per call, and every
    # tree is a `kruskal` run over what was read, so the only edge set is the final one]
    calls, built, final = [], [], []
    list_pairs, make, post_init = oracle.sorted_side_pairs, oracle.make_edge_set, \
        EdgeSet.__post_init__

    def counting_pairs(*args):
        calls.append(args)
        return list_pairs(*args)

    def final_make(*args):
        final.append(True)
        return make(*args)

    def recording_post_init(self):
        built.append(bool(final))
        post_init(self)

    monkeypatch.setattr(oracle, "sorted_side_pairs", counting_pairs)
    monkeypatch.setattr(oracle, "make_edge_set", final_make)
    monkeypatch.setattr(EdgeSet, "__post_init__", recording_post_init)
    for k in range(9):
        rng = random.Random(k)
        cells = rng.sample([(x, y) for x in range(6) for y in range(6)], k + 4)
        colors = ["P"] * k + ["R", "R", "B", "B"]
        inst = parse_instance("".join(f"{c} {x} {y}\n" for c, (x, y) in zip(colors, cells)))
        calls.clear()
        built.clear()
        final.clear()
        oracle_forest(inst)
        assert len(calls) == 3, k
        assert built and all(built), k


def _reference_forest(inst):
    """oracle_forest without its prunes: every partition is evaluated, each side's
    Kruskal reads every listed side pair, and the first strict minimum wins, with the
    oracle's summing order (groups in partition order, then red, then blue)."""
    n = inst.n
    purple_pairs = list(sorted_side_pairs(inst, (Color.PURPLE,), inst.P))
    sides = [(list(sorted_side_pairs(inst, (color,), vertices)), vertices)
             for color, vertices in ((Color.RED, inst.red_side()),
                                     (Color.BLUE, inst.blue_side()))]
    best, best_pairs = math.inf, None
    for partition in _set_partitions(list(inst.P)):
        runs = [kruskal(n, [p for p in purple_pairs if p[1] in block and p[2] in block], block)
                for block in partition if len(block) > 1]
        runs += [kruskal(n, pairs, vertices, partition) for pairs, vertices in sides]
        if None in runs:
            continue
        total = 0.0
        for weight, _ in runs:
            total += weight
        if best_pairs is None or total < best:
            best, best_pairs = total, [(u, v) for _, taken in runs for _, u, v in taken]
    if best_pairs is None:
        raise AssertionError("no partition of the purple points gives a spanning graph")
    return solution_stats(make_edge_set(inst, best_pairs), solver="oracle-forest")


def _outcome(solve, inst):
    """What a solve gives, compared bit for bit: edges, weight bits and crossings, or the error."""
    try:
        sol = solve(inst)
    except (PreconditionError, AssertionError) as error:
        return type(error), str(error)
    return (sol.edge_set.pairs(), sol.weight.hex(), sol.purple_crossings,
            sol.purple_crossings_per_edge)


def _seeded_with_k(n, k, seed):
    """The first gen_random(n, ...) instance from `seed` on with exactly k purple points."""
    share = (1.0 - k / n) / 2
    while True:
        inst = gen_random(n, share, share, seed=seed)
        if inst.k == k:
            return inst
        seed += 1


def test_forest_prunes_keep_the_unpruned_answer():
    # [DERIVED: the side class trees and the lower bound leave every tree, float total
    # and the first minimum as they are without them]
    lattices = _lattice_instances(30, base_seed=1500)
    scaled = [Instance(i.xs * scale, i.ys * scale, i.colors)
              for scale, part in ((1e-300, lattices[:15]), (1e300, lattices[15:])) for i in part]
    instances = (lattices + scaled
                 + [_seeded_with_k(n, k, seed) for n, k, seed in
                    ((18, 6, 1), (24, 6, 2), (40, 6, 3), (18, 7, 4), (30, 7, 5), (18, 8, 6),
                     (24, 8, 7), (40, 8, 8))]
                 + [parse_instance("P 0 0\nP 1e308 0\nP -1e308 0")])
    assert {inst.k for inst in instances} >= set(range(2, 9))
    for inst in instances:
        assert _outcome(oracle_forest, inst) == _outcome(_reference_forest, inst)


def test_forest_bound_skips_side_runs(monkeypatch):
    # [DERIVED: on this instance every one of the Bell(8) = 4140 partitions gets a red
    # and a blue run without the lower bound; with it fewer than Bell(8) runs are left]
    inst = gen_random(40, 0.4, 0.4, seed=24)
    assert inst.k == 8
    side_runs = []
    run = oracle.kruskal

    def counting(n, pairs, vertices, premerged=()):
        side_runs.append(bool(premerged))
        return run(n, pairs, vertices, premerged)

    monkeypatch.setattr(oracle, "kruskal", counting)
    oracle_forest(inst)
    assert sum(side_runs) < 4140
