"""Exact solver: exchange graph, exchange sequences, and end-to-end optima."""

import math
import random

import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from rbpspan.exact import (
    build_exchange_graph,
    find_min_exchange_sequence,
    ground_set,
    solve_exact,
)
from rbpspan.graphops import BLUE_SIDE, DisjointSets, RED_SIDE, is_rbp_spanning, kruskal_mst
from rbpspan.model import Color, Instance, Point, allowed_edges, parse_instance
from rbpspan.oracle import oracle_forest
from util import e1, line_instance, seeded_instances


def _side_connected(inst, edges, chosen, side):
    ds = DisjointSets(inst.n)
    for i in chosen:
        e = edges[i]
        if e.color_class in side:
            ds.union(e.u, e.v)
    verts = [p.id for p in inst.points if p.color in side]
    return ds.connected_over(verts)


class TestExchangeGraph:
    def test_e1_full_source_arcs(self):
        # [DERIVED: connectivity conditions enumerated directly]
        inst = e1()
        edges = allowed_edges(inst)
        x = frozenset(range(len(edges)))
        g = build_exchange_graph(inst, edges, x)
        src_targets = set(g.dst[g.src == g.source].tolist())
        for i in range(len(edges)):
            expect = _side_connected(inst, edges, x - {i}, BLUE_SIDE)
            assert (i in src_targets) == expect
        # Every blue-side edge lies on the triangle {(0,1),(0,3),(1,3)} -> removable.
        assert src_targets == set(range(len(edges)))

    def test_h0_path_iff_removable_both_sides(self):
        # [TRIVIAL: condition conjunction]
        inst = e1()
        edges = allowed_edges(inst)
        x = frozenset(range(len(edges)))
        g = build_exchange_graph(inst, edges, x)
        sink_sources = set(g.src[g.dst == g.sink].tolist())
        for i in range(len(edges)):
            expect = _side_connected(inst, edges, x - {i}, RED_SIDE)
            assert (i in sink_sources) == expect


class TestExchangeSequence:
    def test_e1_removes_heaviest_redundant_edge(self):
        # [DERIVED: exhaustive path enumeration on this 7-node graph]
        inst = e1()
        edges = allowed_edges(inst)
        x = frozenset(range(len(edges)))
        seq = find_min_exchange_sequence(inst, edges, x)
        assert seq is not None and seq.hops == 1
        removed = edges[seq.edge_indices[0]]
        assert removed.length == max(e.length for e in edges)
        assert seq.cost == pytest.approx(-removed.length)

    def test_tree_has_no_sequence(self):
        # [TRIVIAL: nothing removable from a spanning tree]
        inst = line_instance([("P", 0), ("P", 1), ("P", 3)])
        edges = allowed_edges(inst)
        tree = frozenset(i for i, e in enumerate(edges) if e.pair in {(0, 1), (1, 2)})
        assert find_min_exchange_sequence(inst, edges, tree) is None

    def test_negative_cost_whenever_a_side_has_a_cycle(self):
        # [DERIVED: checked against the cycle condition on random instances]
        for inst in seeded_instances(20, n_min=4, n_max=7, base_seed=400):
            edges = allowed_edges(inst)
            x = frozenset(range(len(edges)))
            red_cycle = sum(1 for e in edges if e.color_class in RED_SIDE) \
                > len(inst.red_side()) - 1
            blue_cycle = sum(1 for e in edges if e.color_class in BLUE_SIDE) \
                > len(inst.blue_side()) - 1
            seq = find_min_exchange_sequence(inst, edges, x)
            if red_cycle or blue_cycle:
                assert seq is not None and seq.cost < 0.0
            else:
                assert seq is None


class TestSolveExact:
    def test_e1(self):
        # [DERIVED: oracle-verified; purple edge 10 + attachments 4 + 4]
        assert solve_exact(e1()).weight == pytest.approx(18.0)

    def test_single_purple_point(self):
        # [TRIVIAL]
        sol = solve_exact(parse_instance("P 0 0"))
        assert sol.weight == 0.0 and sol.edges == ()

    def test_no_purple_two_sides(self):
        # [TRIVIAL: independent sides]
        sol = solve_exact(parse_instance("R 0 0\nR 1 0\nB 0 1\nB 1 1"))
        assert sol.weight == pytest.approx(2.0)
        assert sol.red_edges == 1 and sol.blue_edges == 1 and sol.purple_edges == 0

    def test_diameter_circle(self):
        # [DERIVED: diameter purple edge + two sqrt(2) attachments]
        inst = parse_instance("P 1 0\nP -1 0\nR 0 1\nB 0 -1")
        assert solve_exact(inst).weight == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))

    def test_matches_oracle_on_random_batch(self):
        # [DERIVED: oracle_forest cross-validation]
        for inst in seeded_instances(30, n_min=4, n_max=8, k_max=4, base_seed=500):
            assert solve_exact(inst).weight == pytest.approx(
                oracle_forest(inst).weight, rel=1e-9)

    def test_trace_candidates_are_spanning_and_cover_minimum(self):
        inst = e1()
        sol, trace = solve_exact(inst, return_trace=True)
        assert sol.weight == pytest.approx(min(trace.values()))
        assert is_rbp_spanning(inst, sol.edges)
        assert max(trace) == len(ground_set(inst))


def _colored(coords, seed, max_purple=6):
    """Instance on distinct `coords`: up to `max_purple` purple points, the rest red or blue."""
    rng = random.Random(seed)
    k = rng.randint(0, min(max_purple, len(coords)))
    colors = [Color.PURPLE] * k + [rng.choice((Color.RED, Color.BLUE))
                                   for _ in range(len(coords) - k)]
    rng.shuffle(colors)
    return Instance(Point(i, c, float(x), float(y))
                    for i, (c, (x, y)) in enumerate(zip(colors, coords)))


def _assert_matches_oracle(inst):
    sol = solve_exact(inst)
    opt = oracle_forest(inst)
    assert is_rbp_spanning(inst, sol.edges)
    assert math.isclose(sol.weight, opt.weight, rel_tol=1e-9, abs_tol=0.0), \
        (sol.weight, opt.weight)


def _lattice(seed):
    rng = random.Random(seed)
    cells = rng.sample([(x, y) for x in range(5) for y in range(5)], rng.randint(2, 10))
    return _colored(cells, seed)


def _concyclic_plus_one(seed):
    """Points of the 12 on x^2 + y^2 = 25 with integer coordinates, plus one inside."""
    rng = random.Random(seed)
    circle = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
              (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]
    extra = rng.choice([(0, 0), (1, 0), (1, 2), (-2, -2)])
    return _colored(rng.sample(circle, rng.randint(3, 9)) + [extra], seed)


def _collinear_plus_one(seed):
    rng = random.Random(seed)
    xs = rng.sample(range(13), rng.randint(3, 9))
    return _colored([(x, 0) for x in xs] + [(rng.randrange(13), rng.randint(1, 3))], seed)


def _transformed(inst, scale, offset):
    return Instance(Point(p.id, p.color, p.x * scale + offset, p.y * scale + offset)
                    for p in inst.points)


class TestGroundSet:
    BATCH = seeded_instances(40, n_min=2, n_max=14, base_seed=700)

    def test_sorted_and_contains_every_purple_edge(self):
        for inst in self.BATCH:
            ground = ground_set(inst)
            assert [e.sort_key for e in ground] == sorted(e.sort_key for e in ground)
            purple = {e.pair for e in allowed_edges(inst) if e.color_class == Color.PURPLE}
            assert purple <= {e.pair for e in ground}

    def test_side_edges_lie_in_the_side_msts(self):
        for inst in self.BATCH:
            ground = ground_set(inst)
            for cls, side in ((Color.RED, inst.red_side()), (Color.BLUE, inst.blue_side())):
                tree = set(kruskal_mst(inst, side).pairs()) if side else set()
                assert {e.pair for e in ground if e.color_class == cls} <= tree

    def test_size_bound(self):
        for inst in self.BATCH:
            bound = (max(len(inst.red_side()) - 1, 0) + max(len(inst.blue_side()) - 1, 0)
                     + math.comb(inst.k, 2))
            assert len(ground_set(inst)) <= bound

    def test_no_purple_is_the_two_side_trees(self):
        inst = _colored([(x, y) for x in range(3) for y in range(3)], seed=3, max_purple=0)
        assert inst.k == 0
        expect = (set(kruskal_mst(inst, inst.R).pairs())
                  | set(kruskal_mst(inst, inst.B).pairs()))
        assert {e.pair for e in ground_set(inst)} == expect
        _assert_matches_oracle(inst)

    def test_single_point_side(self):
        inst = parse_instance("R 0 0\nB 1 0\nB 2 0\nB 2 1")
        ground = ground_set(inst)
        assert all(e.color_class == Color.BLUE for e in ground) and len(ground) == 2
        _assert_matches_oracle(inst)
        assert ground_set(parse_instance("B 3 4")) == []

    def test_all_purple_keeps_every_edge(self):
        inst = parse_instance("P 0 0\nP 1 0\nP 0 1\nP 1 1\nP 3 2")
        assert ground_set(inst) == allowed_edges(inst)
        _assert_matches_oracle(inst)


class TestDegenerateInputs:
    """Pruned solve_exact against oracle_forest where ties and extreme scales abound."""

    @pytest.mark.parametrize("make", [_lattice, _concyclic_plus_one, _collinear_plus_one])
    def test_tie_heavy_families(self, make):
        for s in range(60):
            _assert_matches_oracle(make(1000 + s))

    @pytest.mark.parametrize("scale, offset", [(1e-9, 0.0), (1.0, 1e12)])
    def test_extreme_coordinates(self, scale, offset):
        for s in range(20):
            _assert_matches_oracle(_transformed(_lattice(2000 + s), scale, offset))
        for inst in seeded_instances(20, n_min=4, n_max=9, k_max=6, base_seed=2100):
            _assert_matches_oracle(_transformed(inst, scale * 1e3, offset))

    def test_seeded_batch(self):
        for inst in seeded_instances(40, n_min=8, n_max=12, k_max=6, base_seed=2200):
            _assert_matches_oracle(inst)

    @given(st.lists(st.tuples(st.sampled_from("RBP"), st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=10, unique_by=lambda row: row[1:]))
    @settings(deadline=None, max_examples=80)
    @hypothesis.seed(2016)
    def test_matches_oracle_property(self, rows):
        inst = parse_instance("".join(f"{c} {x} {y}\n" for c, x, y in rows))
        if inst.k > 8:
            return
        _assert_matches_oracle(inst)
