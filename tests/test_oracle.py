"""Brute-force oracles and their mutual consistency."""

import math
import random

import pytest

from rbpspan import oracle
from rbpspan.model import EdgeSet, allowed_edges, parse_instance
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
    # [DERIVED: the purple, red and blue pairs are listed once per call, and every
    # tree is a `kruskal` run over those lists, so the only edge set is the final one]
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
