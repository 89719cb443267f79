"""Union-find, MSTs, RBP validity, and solution statistics."""

import math
import random

import pytest

from rbpspan.graphops import (
    DisjointSets,
    InfeasibleGraphError,
    constrained_mst,
    is_rbp_spanning,
    kruskal,
    kruskal_mst,
    solution_stats,
    sorted_side_pairs,
    stats_block,
)
from rbpspan.model import Color, make_edge_set, parse_instance
from util import e1, line_instance


def _prim_weight(inst, vertices):
    """Independent Prim implementation used as an MST oracle."""
    verts = list(vertices)
    in_tree = {verts[0]}
    total = 0.0
    while len(in_tree) < len(verts):
        best = min(((inst.distance(u, v), v) for u in in_tree
                    for v in verts if v not in in_tree))
        total += best[0]
        in_tree.add(best[1])
    return total


class TestKruskal:
    def test_collinear_chain(self):
        # [TRIVIAL: collinear MST is the sorted chain]
        inst = line_instance([("P", 0), ("P", 4), ("P", 10)])
        tree = kruskal_mst(inst, (0, 1, 2))
        assert tree.weight == 10.0
        assert tree.pairs() == [(0, 1), (1, 2)]

    def test_unit_square(self):
        # [TRIVIAL: any three sides]
        inst = parse_instance("P 0 0\nP 1 0\nP 0 1\nP 1 1")
        assert kruskal_mst(inst, range(4)).weight == pytest.approx(3.0)

    def test_matches_prim_on_random_points(self):
        # [DERIVED: independent Prim implementation as oracle]
        rng = random.Random(7)
        pts = "\n".join(f"P {rng.random()} {rng.random()}" for _ in range(30))
        inst = parse_instance(pts)
        tree = kruskal_mst(inst, range(30))
        assert tree.weight == pytest.approx(_prim_weight(inst, range(30)), rel=1e-12)

    def test_single_vertex(self):
        tree = kruskal_mst(e1(), (0,))
        assert tree.weight == 0.0 and tree.edges == ()


class TestConstrainedMst:
    def test_empty_forced_equals_kruskal(self):
        # [TRIVIAL: degenerate constraint]
        inst = e1()
        verts = inst.red_side()
        assert (constrained_mst(inst, verts).pairs()
                == kruskal_mst(inst, verts).pairs())

    def test_forced_merge_excluded_from_output(self):
        # [DERIVED: cheapest attachment of the remaining point]
        inst = line_instance([("P", 0), ("P", 4), ("P", 10)])
        tree = constrained_mst(inst, (0, 1, 2), forced_merges=[(0, 2)])
        assert tree.pairs() == [(0, 1)] and tree.weight == 4.0

    def test_premerged_square_center_spoke(self):
        # [TRIVIAL: nearest attachment, spoke length s/sqrt(2) for side s=2]
        inst = parse_instance("P 0 0\nP 2 0\nP 0 2\nP 2 2\nR 1 1")
        forced = [(0, 1), (1, 3), (3, 2)]
        tree = constrained_mst(inst, range(5), forced, (Color.RED,))
        assert len(tree.edges) == 1
        assert tree.weight == pytest.approx(math.sqrt(2.0))

    def test_forced_outside_vertex_set_rejected(self):
        from rbpspan.model import PreconditionError
        with pytest.raises(PreconditionError):
            constrained_mst(e1(), (0, 1), forced_merges=[(0, 3)])

    def test_infeasible_raises(self):
        inst = parse_instance("P 0 0\nP 1 0")
        with pytest.raises(InfeasibleGraphError):
            constrained_mst(inst, (0, 1), (), (Color.RED,))


def test_kruskal_loop_matches_kruskal_mst():
    inst = e1()
    verts = inst.red_side()
    pairs = sorted_side_pairs(inst, (Color.RED, Color.PURPLE), verts)
    w, chosen = kruskal(inst.n, pairs, verts)
    assert w == pytest.approx(kruskal_mst(inst, verts).weight)
    assert sorted(chosen) == kruskal_mst(inst, verts).pairs()
    # Infeasible: no admitted pairs at all.
    assert kruskal(inst.n, [], verts) is None


def test_kruskal_premerged_groups_match_forced_pairs():
    # A group of three joins the same components as two forced pairs.
    inst = line_instance([("P", 0), ("P", 4), ("P", 10), ("P", 11)])
    pairs = sorted_side_pairs(inst, (Color.PURPLE,), range(4))
    w, chosen = kruskal(inst.n, pairs, range(4), [[0, 2, 3]])
    tree = constrained_mst(inst, range(4), [(0, 2), (2, 3)])
    assert chosen == tree.pairs() == [(0, 1)] and w == tree.weight == 4.0


class TestRbpSpanning:
    def test_e1_valid(self):
        # [TRIVIAL]
        inst = e1()
        es = make_edge_set(inst, [(0, 1), (0, 2), (1, 3)])
        assert is_rbp_spanning(inst, es.edges)

    def test_red_point_isolated(self):
        # [TRIVIAL]
        inst = e1()
        es = make_edge_set(inst, [(0, 1)])
        assert not is_rbp_spanning(inst, es.edges)

    def test_purple_edge_serves_both_sides(self):
        inst = parse_instance("P 0 0\nP 1 0")
        es = make_edge_set(inst, [(0, 1)])
        assert is_rbp_spanning(inst, es.edges)


class TestStats:
    def test_e1_optimal_stats(self):
        # [DERIVED: oracle-verified optimum of E1]
        inst = e1()
        sol = solution_stats(inst, make_edge_set(inst, [(0, 1), (0, 2), (1, 3)]),
                             solver="test")
        assert sol.weight == pytest.approx(18.0)
        assert (sol.red_edges, sol.blue_edges, sol.purple_edges) == (1, 1, 1)
        assert sol.max_degree == 2 and sol.purple_crossings == 0

    def test_crossing_purple_edges_counted(self):
        inst = parse_instance("P 0 0\nP 2 2\nP 0 2\nP 2 0")
        sol = solution_stats(inst, make_edge_set(inst, [(0, 1), (2, 3)]))
        assert sol.purple_crossings == 1
        assert sol.purple_crossings_per_edge == {(0, 1): 1, (2, 3): 1}

    def test_stats_block_format(self):
        inst = e1()
        sol = solution_stats(inst, make_edge_set(inst, [(0, 1), (0, 2), (1, 3)]),
                             solver="line")
        block = stats_block(sol)
        keys = [line.split()[0] for line in block.strip().splitlines()]
        assert keys == ["weight", "red_edges", "blue_edges", "purple_edges",
                        "max_degree", "purple_crossings", "solver"]
        assert "solver line" in block


def test_disjoint_sets_copy_is_independent():
    ds = DisjointSets(3)
    ds.union(0, 1)
    other = ds.copy()
    other.union(1, 2)
    assert other.connected_over([0, 1, 2])
    assert ds.connected_over([0, 1]) and not ds.connected_over([0, 2])


def test_disjoint_sets_basics():
    ds = DisjointSets(4)
    assert ds.union(0, 1) and not ds.union(1, 0)
    assert ds.connected_over([0, 1]) and not ds.connected_over([0, 2])
    ds.union(2, 3)
    ds.union(0, 3)
    assert ds.connected_over([0, 1, 2, 3])
