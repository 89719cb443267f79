"""Exact solver: exchange graph, exchange sequences, and end-to-end optima."""

import ast
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

import rbpspan
from rbpspan import cli
from rbpspan.exact import (
    build_exchange_graph,
    find_min_exchange_sequence,
    ground_set,
    solve_exact,
)
from rbpspan.generators import gen_random
from rbpspan.graphops import (
    BLUE_SIDE,
    RED_SIDE,
    is_rbp_spanning,
    kruskal,
    kruskal_mst,
)
from rbpspan.model import (
    Color,
    Instance,
    allowed_edges,
    make_edge_set,
    parse_instance,
    serialize_instance,
)
from rbpspan.oracle import oracle_forest
from util import E1_TEXT, UnionFind, e1, edge_rows, line_instance, seeded_instances


def _side_connected(inst, edges, chosen, side):
    ds = UnionFind(inst.n)
    u, v, codes = edges.u.tolist(), edges.v.tolist(), edges.color_class.tolist()
    for i in chosen:
        if codes[i] in side:
            ds.union(u[i], v[i])
    verts = [i for i in range(inst.n) if inst.color_of(i) in side]
    return ds.connected_over(verts)


class TestExchangeGraph:
    def test_e1_full_source_arcs(self):
        # [DERIVED: connectivity conditions enumerated directly]
        inst = e1()
        ground = allowed_edges(inst)
        m = len(ground.u)
        x = frozenset(range(m))
        g = build_exchange_graph(ground, x)
        source = m
        src_targets = set(np.flatnonzero(np.isfinite(g[source])).tolist())
        for i in range(m):
            expect = _side_connected(inst, ground, x - {i}, BLUE_SIDE)
            assert (i in src_targets) == expect
        # Every blue-side edge lies on the triangle {(0,1),(0,3),(1,3)} -> removable.
        assert src_targets == set(range(m))

    def test_h0_path_iff_removable_both_sides(self):
        # [TRIVIAL: condition conjunction]
        inst = e1()
        ground = allowed_edges(inst)
        m = len(ground.u)
        x = frozenset(range(m))
        g = build_exchange_graph(ground, x)
        sink = m + 1
        sink_sources = set(np.flatnonzero(np.isfinite(g[:, sink])).tolist())
        for i in range(m):
            expect = _side_connected(inst, ground, x - {i}, RED_SIDE)
            assert (i in sink_sources) == expect

    def test_non_spanning_x_raises_under_python_O(self):
        # The BFS reach check is the only per-round spanning check in
        # solve_exact, so it must not be an assert that -O strips.
        script = ("from rbpspan.model import make_edge_set, parse_instance\n"
                  "from rbpspan.exact import build_exchange_graph\n"
                  f"inst = parse_instance({E1_TEXT!r})\n"
                  "ground = make_edge_set(inst, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])\n"
                  "x = frozenset(i for i, e in enumerate(ground.pairs()) if 2 not in e)\n"
                  "try:\n"
                  "    build_exchange_graph(ground, x)\n"
                  "except AssertionError as exc:\n"
                  "    print('AssertionError', exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(rbpspan.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, env=env, check=True)
        assert run.stdout.strip() == "AssertionError the side of X is not connected"

    def test_arcs_between_edges_match_definition(self):
        # [DERIVED: X - e + f connectivity enumerated directly, for X = the ground set
        # among all allowed edges and for every X that solve_exact's rounds visit]
        for inst in (seeded_instances(12, n_min=4, n_max=7, base_seed=900)
                     + [_lattice(3000 + s) for s in range(12)]):
            everything = allowed_edges(inst)
            ground = set(ground_set(inst).pairs())
            _assert_arcs_match_definition(everything, frozenset(
                i for i, pair in enumerate(everything.pairs()) if pair in ground))
            ground, visited = _exact_rounds(inst)
            for x in visited:
                _assert_arcs_match_definition(ground, x)


def _exact_rounds(inst):
    """The ground set and every candidate set X that solve_exact's exchange rounds visit."""
    ground = ground_set(inst)
    visited = [frozenset(range(len(ground.u)))]
    while (seq := find_min_exchange_sequence(ground, visited[-1])) is not None:
        edge_indices, _ = seq
        visited.append(visited[-1].symmetric_difference(edge_indices))
    return ground, visited


def _assert_arcs_match_definition(ground, x):
    g = build_exchange_graph(ground, x)
    inst, length = ground.instance, ground.length.tolist()
    m = len(length)
    source, sink = m, m + 1
    for a in range(m):
        removable = a in x and _side_connected(inst, ground, x - {a}, BLUE_SIDE)
        assert g[source, a] == (-length[a] if removable else math.inf)
        removable = a in x and _side_connected(inst, ground, x - {a}, RED_SIDE)
        assert g[a, sink] == (0.0 if removable else math.inf)
        for b in range(m):
            if (a in x) == (b in x):
                assert g[a, b] == math.inf
                continue
            e, f = (a, b) if a in x else (b, a)
            swapped = (x - {e}) | {f}
            if a in x:  # e -> f
                arc = _side_connected(inst, ground, swapped, RED_SIDE)
                assert g[a, b] == (length[f] if arc else math.inf)
            else:  # f -> e
                arc = _side_connected(inst, ground, swapped, BLUE_SIDE)
                assert g[a, b] == (-length[e] if arc else math.inf)


def _full_hop_dp(graph):
    """Reference search: the exact-hop DP run to all N - 1 hops, with no convergence stop.

    Returns (edge_indices, cost) of the first, fewest-hop minimum at the sink,
    walked back through lowest-id predecessors, or None.
    """
    n_nodes = len(graph)
    source, sink = n_nodes - 2, n_nodes - 1
    dist = np.full((n_nodes, n_nodes), math.inf)
    dist[0, source] = 0.0
    for h in range(1, n_nodes):
        dist[h] = (dist[h - 1][:, None] + graph).min(axis=0)
    h_star = int(np.argmin(dist[:, sink]))
    if not math.isfinite(dist[h_star, sink]):
        return None
    walk, v = [], sink
    for h in range(h_star, 1, -1):
        v = int(np.flatnonzero(dist[h - 1] + graph[:, v] == dist[h, v])[0])
        walk.append(v)
    return tuple(reversed(walk)), float(dist[h_star, sink])


class TestExchangeSequence:
    def test_e1_removes_heaviest_redundant_edge(self):
        # [DERIVED: exhaustive path enumeration on this 7-node graph]
        inst = e1()
        ground = allowed_edges(inst)
        x = frozenset(range(len(ground.u)))
        seq = find_min_exchange_sequence(ground, x)
        assert seq is not None
        edge_indices, cost = seq
        assert len(edge_indices) == 1
        removed = ground.length[edge_indices[0]]
        assert removed == ground.length.max()
        assert cost == pytest.approx(-removed)

    def test_tree_has_no_sequence(self):
        # [TRIVIAL: nothing removable from a spanning tree]
        inst = line_instance([("P", 0), ("P", 1), ("P", 3)])
        ground = allowed_edges(inst)
        tree = frozenset(i for i, pair in enumerate(ground.pairs()) if pair in {(0, 1), (1, 2)})
        assert find_min_exchange_sequence(ground, tree) is None

    def test_matches_full_hop_dp_every_round(self):
        # [DERIVED: reference DP without the convergence stop, on every round of the solves]
        for inst in (seeded_instances(40, n_min=4, n_max=14, base_seed=950)
                     + [_lattice(3000 + s) for s in range(40)]):
            ground, visited = _exact_rounds(inst)
            for x in visited:
                expect = _full_hop_dp(build_exchange_graph(ground, x))
                assert find_min_exchange_sequence(ground, x) == expect

    def test_negative_cost_whenever_a_side_has_a_cycle(self):
        # [DERIVED: checked against the cycle condition on random instances]
        for inst in seeded_instances(20, n_min=4, n_max=7, base_seed=400):
            ground = allowed_edges(inst)
            codes = ground.color_class.tolist()
            x = frozenset(range(len(codes)))
            red_cycle = sum(1 for c in codes if c in RED_SIDE) > len(inst.red_side()) - 1
            blue_cycle = sum(1 for c in codes if c in BLUE_SIDE) > len(inst.blue_side()) - 1
            seq = find_min_exchange_sequence(ground, x)
            if red_cycle or blue_cycle:
                assert seq is not None
                _, cost = seq
                assert cost < 0.0
            else:
                assert seq is None


class TestSolveExact:
    def test_e1(self):
        # [DERIVED: oracle-verified; purple edge 10 + attachments 4 + 4]
        assert solve_exact(e1()).weight == pytest.approx(18.0)

    def test_single_purple_point(self):
        # [TRIVIAL]
        sol = solve_exact(parse_instance("P 0 0"))
        assert sol.weight == 0.0 and sol.edge_set.pairs() == []

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

    # gen_random(n, 0.4, 0.4, seed=s) as (n, s): inputs whose weights stop falling
    # before the exchange rounds run out.
    EARLY_STOPS = [(18, 5), (30, 8), (40, 2)]
    # _lattice seeds whose last exchange round leaves the weight as it was.
    EQUAL_ROUNDS = [112, 838, 2024, 2558]

    def test_stops_at_the_first_round_that_does_not_lower_the_weight(self):
        # [DERIVED: every round run to the end; the weight of X never falls
        # again once a round leaves it as it was or raises it]
        early = [gen_random(n, 0.4, 0.4, seed=s) for n, s in self.EARLY_STOPS]
        equal = [_lattice(s) for s in self.EQUAL_ROUNDS]
        for inst in ([make(1000 + s) for make in (_lattice, _concyclic_plus_one,
                                                  _collinear_plus_one) for s in range(60)]
                     + [_lattice(3000 + s) for s in range(40)] + early + equal):
            ground, visited = _exact_rounds(inst)
            weights = [math.fsum(ground.length[sorted(x)].tolist()) for x in visited]
            stop = next((i for i in range(len(weights) - 1)
                         if not weights[i + 1] < weights[i]), len(weights) - 1)
            assert all(b >= a for a, b in zip(weights[stop:], weights[stop + 1:]))
            assert weights.index(min(weights)) == stop
            if inst in early:
                assert stop < len(visited) - 1
            if inst in equal:
                assert weights[stop + 1] == weights[stop]
            sol = solve_exact(inst)
            pairs = ground.pairs()
            assert sol.edge_set.pairs() == [pairs[i] for i in sorted(visited[stop])]
            assert sol.weight == weights[stop]
            assert is_rbp_spanning(sol.edge_set)


def _colored(coords, seed, max_purple=6):
    """Instance on distinct `coords`: up to `max_purple` purple points, the rest red or blue."""
    rng = random.Random(seed)
    k = rng.randint(0, min(max_purple, len(coords)))
    colors = [Color.PURPLE] * k + [rng.choice((Color.RED, Color.BLUE))
                                   for _ in range(len(coords) - k)]
    rng.shuffle(colors)
    return Instance(*zip(*coords), colors)


def _assert_matches_oracle(inst):
    sol = solve_exact(inst)
    opt = oracle_forest(inst)
    assert is_rbp_spanning(sol.edge_set)
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
    return Instance(inst.xs * scale + offset, inst.ys * scale + offset, inst.colors)


class TestGroundSet:
    BATCH = seeded_instances(40, n_min=2, n_max=14, base_seed=700)

    def test_sorted_and_contains_every_purple_edge(self):
        for inst in self.BATCH:
            ground = edge_rows(ground_set(inst))
            assert ground == sorted(ground)
            purple = {(u, v) for _, u, v, c in edge_rows(allowed_edges(inst)) if c == Color.PURPLE}
            assert purple <= {(u, v) for _, u, v, _ in ground}

    def test_side_edges_lie_in_the_side_msts(self):
        for inst in self.BATCH:
            ground = edge_rows(ground_set(inst))
            for cls, side in ((Color.RED, inst.red_side()), (Color.BLUE, inst.blue_side())):
                tree = set(kruskal_mst(inst, side).pairs()) if side else set()
                assert {(u, v) for _, u, v, c in ground if c == cls} <= tree

    def test_size_bound(self):
        for inst in self.BATCH:
            bound = (max(len(inst.red_side()) - 1, 0) + max(len(inst.blue_side()) - 1, 0)
                     + math.comb(inst.k, 2))
            assert len(ground_set(inst).u) <= bound

    def test_no_purple_is_the_two_side_trees(self):
        inst = _colored([(x, y) for x in range(3) for y in range(3)], seed=3, max_purple=0)
        assert inst.k == 0
        expect = (set(kruskal_mst(inst, inst.red_side()).pairs())
                  | set(kruskal_mst(inst, inst.blue_side()).pairs()))
        assert set(ground_set(inst).pairs()) == expect
        _assert_matches_oracle(inst)

    def test_single_point_side(self):
        inst = parse_instance("R 0 0\nB 1 0\nB 2 0\nB 2 1")
        ground = ground_set(inst)
        assert (ground.color_class == Color.BLUE).all() and len(ground.u) == 2
        _assert_matches_oracle(inst)
        assert ground_set(parse_instance("B 3 4")).pairs() == []

    def test_all_purple_keeps_every_edge(self):
        inst = parse_instance("P 0 0\nP 1 0\nP 0 1\nP 1 1\nP 3 2")
        assert edge_rows(ground_set(inst)) == edge_rows(allowed_edges(inst))
        _assert_matches_oracle(inst)

    @pytest.mark.parametrize("scale, offset",
                             [(1.0, 0.0), (1e-9, 0.0), (1.0, 1e12), (1e-300, 0.0), (1e200, 0.0)])
    @pytest.mark.parametrize("make", [_lattice, _concyclic_plus_one, _collinear_plus_one])
    def test_matches_the_edge_list_definition(self, make, scale, offset):
        # [DERIVED: the ground set by definition: every allowed edge in (length, u, v)
        # order, each side's Kruskal tree over it, and every purple edge]
        for s in range(120):
            inst = _transformed(make(4000 + s), scale, offset)
            rows = edge_rows(allowed_edges(inst))
            keep = set()
            for side, vertices in ((RED_SIDE, inst.red_side()), (BLUE_SIDE, inst.blue_side())):
                _, tree = kruskal(inst.n, ((length, u, v) for length, u, v, c in rows
                                           if c in side), vertices)
                keep.update((u, v) for _, u, v in tree)
            expect = [(u, v) for _, u, v, c in rows if c == Color.PURPLE or (u, v) in keep]
            assert ground_set(inst).pairs() == expect


class TestSolvePathWithoutEdge:
    """`rbpspan solve` with the exact solver, alone or under auto, never builds an `Edge`."""

    @pytest.mark.parametrize("algo", ["exact", "auto"])
    def test_output_unchanged_when_edge_raises(self, algo, tmp_path, monkeypatch, capsys):
        paths = []
        for name, text in (("plane", serialize_instance(gen_random(18, 0.4, 0.4, seed=3))),
                           ("e1", E1_TEXT)):
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            paths.append(str(path))
        expected = []
        for path in paths:
            assert cli.main(["solve", path, "--algo", algo]) == cli.EXIT_OK
            expected.append(capsys.readouterr().out)

        def no_edge(*args):
            raise AssertionError("an Edge was built")

        monkeypatch.setattr(rbpspan.model, "Edge", no_edge)
        for path, out in zip(paths, expected):
            assert cli.main(["solve", path, "--algo", algo]) == cli.EXIT_OK
            assert capsys.readouterr().out == out

    def test_exact_imports_no_edge_list_helpers(self):
        assert not hasattr(rbpspan.exact, "Edge")
        assert not hasattr(rbpspan.exact, "allowed_edges")

    def test_only_model_names_edge(self):
        # `Edge` is made only by `Solution.edges`; the package exports no `Edge` helper.
        assert not {"Edge", "edge_between", "edges_properly_cross"} & set(rbpspan.__all__)
        for path in Path(rbpspan.__file__).parent.glob("*.py"):
            if path.name == "model.py":
                continue
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            assert "Edge" not in names, path.name


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

    @pytest.mark.parametrize("make", [_lattice, _concyclic_plus_one, _collinear_plus_one])
    def test_tree_weight_is_the_fsum_of_its_lengths(self, make):
        # [DERIVED: EdgeSet.weight is the math.fsum of the lengths, however the set is built]
        for s in range(60):
            inst = make(1000 + s)
            for verts, classes in ((inst.red_side(), RED_SIDE), (inst.blue_side(), BLUE_SIDE)):
                tree = kruskal_mst(inst, verts, classes)
                assert tree.weight.hex() == make_edge_set(inst, tree.pairs()).weight.hex()

    @given(st.lists(st.tuples(st.sampled_from("RBP"), st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=10, unique_by=lambda row: row[1:]))
    @settings(deadline=None, max_examples=80)
    @hypothesis.seed(2016)
    def test_matches_oracle_property(self, rows):
        inst = parse_instance("".join(f"{c} {x} {y}\n" for c, x, y in rows))
        if inst.k > 8:
            return
        _assert_matches_oracle(inst)


class TestExactTies:
    """Pinned edge lists on 5x5-lattice instances whose optimum is not unique.

    Each case lists the edges `solve_exact` returns and another optimum of the
    same weight, so a change to the exchange tie rules (first minimum hop
    count at the sink, lowest-id predecessor on the walk back) shows up here.
    """

    CASES = [
        (3004, [(1, 6), (1, 7), (2, 5), (3, 6), (0, 7), (2, 8), (5, 7), (4, 7)],
         [(1, 6), (1, 7), (2, 5), (3, 6), (0, 5), (2, 8), (5, 7), (4, 7)]),
        (3007, [(0, 3), (0, 6), (1, 6), (4, 6), (2, 6), (0, 5)],
         [(0, 3), (0, 6), (1, 2), (4, 6), (2, 6), (0, 5)]),
        (3016, [(0, 2), (1, 5), (3, 5), (1, 4), (2, 5)],
         [(0, 2), (1, 5), (2, 3), (1, 4), (2, 5)]),
        (3028, [(0, 1), (0, 2), (1, 3), (3, 4)],
         [(0, 1), (0, 2), (1, 3), (1, 4)]),
    ]

    @pytest.mark.parametrize("seed, expect, other", CASES)
    def test_edge_lists(self, seed, expect, other):
        inst = _lattice(seed)
        sol = solve_exact(inst)
        alt = make_edge_set(inst, other)
        assert is_rbp_spanning(alt) and alt.weight == sol.weight
        assert list(sol.edge_set.pairs()) == expect
