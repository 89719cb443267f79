"""Union-find, MSTs, RBP validity, and solution statistics."""

import gc
import math
import random
import weakref
from itertools import accumulate, islice

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbpspan import cli, graphops
from rbpspan.approx import approx_a
from rbpspan.graphops import (
    BLUE_SIDE,
    RED_SIDE,
    InfeasibleGraphError,
    constrained_mst,
    is_rbp_spanning,
    kruskal,
    kruskal_mst,
    solution_stats,
    sorted_side_pairs,
    stats_block,
)
from rbpspan.generators import gen_random
from rbpspan.line import solve_line
from rbpspan.model import (
    INVALID_CLASS,
    Color,
    Edge,
    Instance,
    PreconditionError,
    _canonical,
    edge_color,
    make_edge_set,
    parse_instance,
    serialize_instance,
)
from util import (
    UnionFind,
    e1,
    edge_rows,
    edges_properly_cross,
    line_instance,
    seeded_instances,
)


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
        assert tree.weight == 0.0 and tree.pairs() == []

    def test_no_vertex_is_an_empty_tree(self):
        tree = kruskal_mst(e1(), ())
        assert tree.weight == 0.0 and tree.pairs() == []
        assert tree.u.dtype == tree.v.dtype == np.int64 and tree.length.dtype == float

    def test_weight_is_the_fsum_of_its_lengths(self):
        # [DERIVED: EdgeSet.weight is the math.fsum of the lengths, however the set is
        # built; Kruskal's running total differs from it on most of these trees]
        running_total_differs = False
        for s in range(8):
            inst = gen_random(300, 0.4, 0.4, seed=s)
            for tree in (kruskal_mst(inst, inst.red_side(), RED_SIDE),
                         kruskal_mst(inst, inst.blue_side(), BLUE_SIDE),
                         constrained_mst(inst, inst.red_side(), (inst.P,), (Color.RED,))):
                assert tree.weight.hex() == make_edge_set(inst, tree.pairs()).weight.hex()
                *_, running = accumulate(tree.length.tolist(), initial=0.0)
                running_total_differs |= running != tree.weight
        assert running_total_differs

    def test_finite_lengths_past_the_float_range_rejected(self):
        inst = parse_instance("P 0 0\nP 1e308 0\nP -1e308 0")
        with pytest.raises(PreconditionError, match="^the edge lengths sum past the float range$"):
            kruskal_mst(inst, range(3))


def _tree_arrays(tree):
    return tree.u.tolist(), tree.v.tolist(), tree.length.tolist(), tree.weight


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
        tree = constrained_mst(inst, (0, 1, 2), premerged=[(0, 2)])
        assert tree.pairs() == [(0, 1)] and tree.weight == 4.0

    def test_premerged_square_center_spoke(self):
        # [TRIVIAL: nearest attachment, spoke length s/sqrt(2) for side s=2]
        inst = parse_instance("P 0 0\nP 2 0\nP 0 2\nP 2 2\nR 1 1")
        forced = [(0, 1), (1, 3), (3, 2)]
        tree = constrained_mst(inst, range(5), forced, (Color.RED,))
        assert len(tree.u) == 1
        assert tree.weight == pytest.approx(math.sqrt(2.0))

    # k = 0, k = 1, seeded inputs, and one past the first block of side pairs.
    GROUP_CASES = ([parse_instance("R 0 0\nR 1 0\nB 0 1\nB 2 2"),
                    parse_instance("P 0 0\nR 1 0\nR 0 2\nB 3 1\nB 1 3")]
                   + seeded_instances(40, n_min=4, n_max=40, base_seed=2700)
                   + [gen_random(300, 0.3, 0.3, "plane", seed=27)])

    def test_one_group_equals_its_pair_chain(self):
        # [DERIVED: the group, the pairs that chain it and the pairs of the
        # purple tree join the same components, and Kruskal's tree depends
        # only on the components]
        assert {0, 1} <= {inst.k for inst in self.GROUP_CASES}
        for inst in self.GROUP_CASES:
            chain = list(zip(inst.P, inst.P[1:]))
            purple_tree = kruskal_mst(inst, inst.P, (Color.PURPLE,)).pairs()
            for classes, verts in (((Color.RED,), inst.red_side()), (BLUE_SIDE, inst.blue_side())):
                expect = _tree_arrays(constrained_mst(inst, verts, chain, classes))
                assert _tree_arrays(constrained_mst(inst, verts, (inst.P,), classes)) == expect
                assert _tree_arrays(constrained_mst(inst, verts, purple_tree, classes)) == expect

    def test_empty_group_joins_nothing(self):
        for inst in self.GROUP_CASES:
            for classes, verts in ((RED_SIDE, inst.red_side()), (BLUE_SIDE, inst.blue_side())):
                expect = _tree_arrays(constrained_mst(inst, verts, (), classes))
                assert _tree_arrays(constrained_mst(inst, verts, [(), ()], classes)) == expect

    @pytest.mark.parametrize("vertices, premerged, least", [
        ([-1, 0], (), "-1"), ([99], (), "99"), ([0, 2.5], (), "2.5"),
        ((0, 1, 4), (), "4"), ((0, 1), [(0, 3)], "3"), ([-1, 0, 1], [(0, 5)], "-1")])
    def test_ids_outside_the_points_or_vertices_rejected(self, vertices, premerged, least):
        # e1 has point ids 0..3; a negative id must not index from the end.
        message = f"id {least} is not a point id in the vertex set"
        with pytest.raises(PreconditionError) as raised:
            constrained_mst(e1(), vertices, premerged)
        assert str(raised.value) == message
        if not premerged:
            with pytest.raises(PreconditionError) as raised:
                kruskal_mst(e1(), vertices)
            assert str(raised.value) == message

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
    assert sorted((u, v) for _, u, v in chosen) == kruskal_mst(inst, verts).pairs()
    # Infeasible: no admitted pairs at all.
    assert kruskal(inst.n, [], verts) is None


def test_kruskal_premerged_groups_match_forced_pairs():
    # A group of three joins the same components as two forced pairs.
    inst = line_instance([("P", 0), ("P", 4), ("P", 10), ("P", 11)])
    pairs = sorted_side_pairs(inst, (Color.PURPLE,), range(4))
    w, chosen = kruskal(inst.n, pairs, range(4), [[0, 2, 3]])
    tree = constrained_mst(inst, range(4), [(0, 2), (2, 3)])
    assert chosen == [(4.0, 0, 1)] and tree.pairs() == [(0, 1)] and w == tree.weight == 4.0


class TestRbpSpanning:
    def test_e1_valid(self):
        # [TRIVIAL]
        inst = e1()
        es = make_edge_set(inst, [(0, 1), (0, 2), (1, 3)])
        assert is_rbp_spanning(es)

    def test_red_point_isolated(self):
        # [TRIVIAL]
        inst = e1()
        es = make_edge_set(inst, [(0, 1)])
        assert not is_rbp_spanning(es)

    def test_red_blue_edges_join_neither_side(self):
        # [DERIVED: a red-blue edge has no color class, so it counts on neither side]
        inst = parse_instance("R 0 0\nR 2 0\nB 1 0\nB 1 5\nP 1 -1\n")
        red_blue = [(0, 2), (1, 2), (0, 3), (1, 3)]
        # each side is connected through red-blue edges only where the other lacks an edge
        assert not is_rbp_spanning(make_edge_set(inst, red_blue + [(0, 4), (2, 4), (3, 4)]))
        assert not is_rbp_spanning(make_edge_set(inst, red_blue + [(0, 4), (1, 4), (2, 4)]))
        assert is_rbp_spanning(make_edge_set(inst, red_blue + [(0, 4), (1, 4), (2, 4), (3, 4)]))

    def test_purple_edge_serves_both_sides(self):
        inst = parse_instance("P 0 0\nP 1 0")
        es = make_edge_set(inst, [(0, 1)])
        assert is_rbp_spanning(es)

    def test_arrays_match_the_union_find_loop(self):
        # The union-find loop over single edges that the array check replaced.
        def reference(inst, es):
            sides = [(UnionFind(inst.n), RED_SIDE, inst.red_side()),
                     (UnionFind(inst.n), BLUE_SIDE, inst.blue_side())]
            for ds, side, _ in sides:
                for u, v, c in zip(es.u.tolist(), es.v.tolist(), es.color_class.tolist()):
                    if c in side:
                        ds.union(u, v)
            return all(ds.connected_over(vertices) for ds, _, vertices in sides)

        results = []
        for seed in range(40):
            inst = _instance(_random_coords(12, seed), seed)
            es = make_edge_set(inst, _random_pairs(inst.n, 10 + seed, seed))
            expected = reference(inst, es)
            assert is_rbp_spanning(es) == expected
            results.append(expected)
        assert any(results) and not all(results)


class TestStats:
    def test_e1_optimal_stats(self):
        # [DERIVED: oracle-verified optimum of E1]
        inst = e1()
        sol = solution_stats(make_edge_set(inst, [(0, 1), (0, 2), (1, 3)]), solver="test")
        assert sol.weight == pytest.approx(18.0)
        assert (sol.red_edges, sol.blue_edges, sol.purple_edges) == (1, 1, 1)
        assert sol.max_degree == 2 and sol.purple_crossings == 0

    def test_crossing_purple_edges_counted(self):
        inst = parse_instance("P 0 0\nP 2 2\nP 0 2\nP 2 0")
        sol = solution_stats(make_edge_set(inst, [(0, 1), (2, 3)]), solver="given")
        assert sol.purple_crossings == 1
        assert sol.purple_crossings_per_edge == {(0, 1): 1, (2, 3): 1}

    def test_stats_block_format(self):
        inst = e1()
        sol = solution_stats(make_edge_set(inst, [(0, 1), (0, 2), (1, 3)]), solver="line")
        block = stats_block(sol)
        keys = [line.split()[0] for line in block.strip().splitlines()]
        assert keys == ["weight", "red_edges", "blue_edges", "purple_edges",
                        "max_degree", "purple_crossings", "solver"]
        assert "solver line" in block


def _reference_side_pairs(instance, classes, vertices):
    """The pure-Python sorted_side_pairs that the numpy one replaced, kept as the reference."""
    verts = list(vertices)
    cls = set(classes)
    out = []
    for a in range(len(verts)):
        u = verts[a]
        cu = instance.color_of(u)
        for b in range(a + 1, len(verts)):
            v = verts[b]
            ec = edge_color(cu, instance.color_of(v))
            if ec in cls:
                uu, vv = (u, v) if u < v else (v, u)
                out.append((instance.distance(uu, vv), uu, vv))
    out.sort()
    return out


def _reference_make_edge_set(instance, pairs):
    """The per-pair make_edge_set that the array one replaced, kept as the reference.

    Returns (rows, weight): one (length, u, v, class code) row per distinct
    pair, in (length, u, v) order, and the fsum of their lengths.
    """
    canon = set()
    for u, v in pairs:
        if u > v:
            u, v = v, u
        if (u, v) in canon:
            raise PreconditionError(f"duplicate edge ({u}, {v})")
        canon.add((u, v))
    rows = []
    for u, v in canon:
        _canonical(instance, u, v)  # raises on equal or unknown ids
        cls = edge_color(instance.color_of(u), instance.color_of(v))
        rows.append((instance.distance(u, v), u, v, INVALID_CLASS if cls is None else int(cls)))
    rows.sort()
    return rows, math.fsum(row[0] for row in rows)


def _reference_kruskal(n, sorted_pairs, vertices, premerged=()):
    """Kruskal reading every pair, as before the early exit."""
    ds = UnionFind(n)
    for group in premerged:
        for other in group[1:]:
            ds.union(group[0], other)
    total = 0.0
    chosen = []
    for length, u, v in sorted_pairs:
        if ds.union(u, v):
            total += length
            chosen.append((length, u, v))
    if not ds.connected_over(vertices):
        return None
    return total, chosen


ALL_CLASSES = (Color.RED, Color.BLUE, Color.PURPLE)
CLASS_CHOICES = [(Color.RED,), (Color.BLUE,), (Color.PURPLE,), RED_SIDE, BLUE_SIDE, ALL_CLASSES]


def _instance(coords, seed=0):
    rng = random.Random(seed)
    return Instance(*zip(*coords), [rng.choice(ALL_CLASSES) for _ in coords])


def _purple_instance(coords):
    return Instance(*zip(*coords), [Color.PURPLE] * len(coords))


def _random_coords(n, seed, scale=1.0):
    rng = random.Random(seed)
    return [(rng.random() * scale, rng.random() * scale) for _ in range(n)]


def _lattice_coords(n, side, seed, scale=1.0):
    rng = random.Random(seed)
    cells = rng.sample([(x, y) for x in range(side) for y in range(side)], n)
    return [(x * scale, y * scale) for x, y in cells]


def _near_tie_points():
    """Pairs (0, 1) and (2, 3) share the math.hypot length m; np.hypot puts (0, 1) above m.

    (0, 1) is the vector (17, 27); (2, 3) is (0, 0)-(m, 0), exactly m under both.
    """
    m = math.hypot(17.0, 27.0)
    assert float(np.hypot(17.0, 27.0)) > m
    return _purple_instance([(8.0, -13.5), (25.0, 13.5), (0.0, 0.0), (m, 0.0)])


def _assert_same_pairs(inst, classes, vertices):
    expected = _reference_side_pairs(inst, classes, vertices)
    got = sorted_side_pairs(inst, classes, vertices)
    assert len(got) == len(expected)
    assert list(islice(got, 3)) == expected[:3]
    assert list(sorted_side_pairs(inst, classes, vertices)) == expected


@pytest.fixture(params=[4, graphops._FIRST_BLOCK], ids=["block4", "block_default"])
def block_size(request, monkeypatch):
    """First block size; at 4, blocks end at cut points past long near-tie runs."""
    monkeypatch.setattr(graphops, "_FIRST_BLOCK", request.param)
    return request.param


class TestSortedSidePairs:
    @pytest.mark.parametrize("classes", CLASS_CHOICES)
    def test_seeded_random_sets(self, classes, block_size):
        for seed in range(3):
            inst = _instance(_random_coords(90, seed), seed)
            _assert_same_pairs(inst, classes, range(inst.n))
            _assert_same_pairs(inst, classes, inst.red_side())
            _assert_same_pairs(inst, classes, inst.blue_side())

    @pytest.mark.parametrize("classes", CLASS_CHOICES)
    def test_integer_lattice_ties(self, classes, block_size):
        inst = _instance(_lattice_coords(200, 60, seed=3), seed=3)
        _assert_same_pairs(inst, classes, range(inst.n))
        # The exact re-sort is needed: some admitted pair's np.hypot differs from math.hypot.
        assert any(float(np.hypot(*np.subtract(inst.coords(u), inst.coords(v)))) != d
                   for d, u, v in sorted_side_pairs(inst, classes, range(inst.n)))

    def test_near_tie_where_numpy_order_disagrees(self, monkeypatch):
        inst = _near_tie_points()
        expected = _reference_side_pairs(inst, ALL_CLASSES, range(4))
        m = math.hypot(17.0, 27.0)
        assert [p[1:] for p in expected if p[0] == m] == [(0, 1), (2, 3)]
        # Some block size puts a block boundary between the two tied pairs.
        for size in range(1, 7):
            monkeypatch.setattr(graphops, "_FIRST_BLOCK", size)
            _assert_same_pairs(inst, ALL_CLASSES, range(4))

    @pytest.mark.parametrize("classes", CLASS_CHOICES)
    def test_collinear_points(self, classes, block_size):
        rng = random.Random(5)
        xs = rng.sample(range(1000), 80)
        _assert_same_pairs(_instance([(float(x), 0.0) for x in xs], 5), classes, range(80))
        _assert_same_pairs(_instance([(0.25 * x, 0.5 * x) for x in xs], 6), classes, range(80))

    @pytest.mark.parametrize("scale", [1e150, 1e-300, 2.0 ** 40 * math.ulp(0.0)])
    @pytest.mark.parametrize("classes", CLASS_CHOICES)
    def test_huge_tiny_and_subnormal_coordinates(self, classes, scale, block_size):
        _assert_same_pairs(_instance(_random_coords(60, 7, scale), 7), classes, range(60))
        _assert_same_pairs(_instance(_lattice_coords(60, 30, 8, scale), 8), classes, range(60))

    def test_a_second_read_raises(self):
        # A second read would otherwise resume the block generator where the first stopped.
        inst = _instance(_random_coords(90, 0), 0)
        first_reads = [list, lambda pairs: list(islice(pairs, 3)),
                       lambda pairs: kruskal(inst.n, pairs, range(inst.n)),
                       lambda pairs: next(iter(pairs))]
        for first_read in first_reads:
            for second_read in (list, lambda pairs: kruskal(inst.n, pairs, range(inst.n))):
                pairs = sorted_side_pairs(inst, ALL_CLASSES, range(inst.n))
                first_read(pairs)
                with pytest.raises(AssertionError, match="read once"):
                    second_read(pairs)
        # Of two live iterators, the second raises when it is first advanced.
        pairs = sorted_side_pairs(inst, ALL_CLASSES, range(inst.n))
        one, two = iter(pairs), iter(pairs)
        next(one)
        with pytest.raises(AssertionError, match="read once"):
            next(two)

    def test_empty_and_single_vertex(self):
        inst = e1()
        for verts in ((), (0,)):
            got = sorted_side_pairs(inst, ALL_CLASSES, verts)
            assert len(got) == 0 and list(got) == []

    @pytest.mark.parametrize("classes", [RED_SIDE, ALL_CLASSES])
    def test_far_apart_clusters(self, classes, block_size):
        # The pairs between the clusters lie beyond every intra-cluster radius,
        # so the shell radius doubles up to the span.
        coords = _random_coords(45, 21) + [(x + 1000.0, y + 700.0) for x, y in _random_coords(45, 22)]
        inst = _instance(coords, 21)
        _assert_same_pairs(inst, classes, range(inst.n))
        tree = kruskal_mst(inst, inst.red_side(), RED_SIDE)
        assert tree.weight == pytest.approx(_prim_weight(inst, inst.red_side()), rel=1e-12)

    def test_full_lattice_ties_at_every_shell_radius(self, monkeypatch):
        # Every length of a full lattice repeats, so shell ends fall inside runs of
        # equal lengths; the block sizes move the starting radius across them.
        inst = _instance([(float(x), float(y)) for x in range(14) for y in range(14)], 23)
        expected = _reference_side_pairs(inst, ALL_CLASSES, range(inst.n))
        for size in (1, 2, 3, 5, 8, 13, 40, 200, 1000):
            monkeypatch.setattr(graphops, "_FIRST_BLOCK", size)
            got = sorted_side_pairs(inst, ALL_CLASSES, range(inst.n))
            assert len(got) == len(expected) and list(got) == expected

    @pytest.mark.parametrize("classes", CLASS_CHOICES)
    def test_horizontal_and_vertical_lines(self, classes, block_size):
        rng = random.Random(24)
        ts = [t * 0.125 for t in rng.sample(range(4000), 100)]
        _assert_same_pairs(_instance([(t, 3.0) for t in ts], 24), classes, range(100))
        _assert_same_pairs(_instance([(-2.0, t) for t in ts], 25), classes, range(100))

    @pytest.mark.parametrize("classes", [RED_SIDE, ALL_CLASSES])
    def test_many_points_in_one_cell(self, classes, block_size):
        # The bounding box is set by a few far points; the cluster fills one grid cell.
        coords = _random_coords(80, 26, scale=1e-6) + [(50.0, 0.0), (0.0, 50.0), (50.0, 50.0)]
        _assert_same_pairs(_instance(coords, 26), classes, range(len(coords)))

    @pytest.mark.parametrize("size", [1034, 1035], ids=["grid", "one_pass"])
    def test_just_above_and_below_one_pass(self, size, monkeypatch):
        # 46 purple points have 1035 purple pairs: one more than a block of 1034.
        monkeypatch.setattr(graphops, "_FIRST_BLOCK", size)
        coords = _random_coords(46, 27)
        inst = _purple_instance(coords)
        _assert_same_pairs(inst, (Color.PURPLE,), range(46))

    def test_grid_pairs_find_every_pair_up_to_lim(self):
        # After the shift by -2^20, x = -0.75 * 2^-33 and x + 1 round to cells two
        # apart: the pair of length r = 1 is missed, so lim must lie below it.
        xs = np.array([-2.0 ** 20, -0.75 * 2.0 ** -33, 1.0 - 0.75 * 2.0 ** -33])
        cases = [(xs, np.zeros(3), 1.0, {(1, 2)})]
        rng = random.Random(28)
        for scale in (1.0, 1e150, 1e-300, 2.0 ** 40 * math.ulp(0.0)):
            coords = _random_coords(150, rng.randrange(100), scale) + [(-1e3 * scale, 0.0)]
            for r in (0.01 * scale, 0.05 * scale, 0.3 * scale):
                cases.append((np.array([x for x, _ in coords]), np.array([y for _, y in coords]),
                              r, set()))
        for xs, ys, r, missed in cases:
            a, b, lim = graphops._grid_pairs(xs, ys, r, len(xs) ** 2)
            found = list(zip(a.tolist(), b.tolist()))
            assert len(found) == len(set(found)) and all(u < v for u, v in found)
            near = {(u, v) for u in range(len(xs)) for v in range(u + 1, len(xs))
                    if np.hypot(xs[u] - xs[v], ys[u] - ys[v]) <= lim}
            assert near <= set(found)
            assert missed.isdisjoint(found) and lim < r

    def test_cuts_count_lim_as_the_next_length(self):
        m = math.hypot(17.0, 27.0)
        up = math.nextafter(m, math.inf)
        length = np.array([1.0, m, up])
        assert graphops._cuts(length, 2 * m).tolist() == [1, 3]
        assert graphops._cuts(length, math.nextafter(up, math.inf)).tolist() == [1]
        assert graphops._cuts(length[1:], 2 * m).tolist() == [2]
        assert graphops._cuts(length[1:], up).tolist() == []
        # inf - inf is nan: the inf lengths and lim tie, with no numpy warning.
        length = np.array([1.0, m, math.inf, math.inf])
        assert graphops._cuts(length, math.inf).tolist() == [1, 2]

    @pytest.mark.parametrize("first_block", [4, 64, graphops._FIRST_BLOCK])
    def test_blocks_end_at_the_first_cut_point_past_their_size(self, first_block, monkeypatch):
        events = []
        shells, lengths = graphops._shells, graphops.hypot_lengths

        def recording_shells(*args):
            for u, v, cuts in shells(*args):
                events.append((len(u), cuts.tolist()))
                yield u, v, cuts

        def recording_lengths(instance, u, v):
            events.append(len(u))
            return lengths(instance, u, v)

        monkeypatch.setattr(graphops, "_FIRST_BLOCK", first_block)
        monkeypatch.setattr(graphops, "_shells", recording_shells)
        monkeypatch.setattr(graphops, "hypot_lengths", recording_lengths)
        grown = 0  # blocks that a near-tie run made longer than their size
        for inst in (_instance(_random_coords(200, 29), 29),
                     _instance(_lattice_coords(200, 60, seed=30), 30),
                     _instance([(float(x), float(y)) for x in range(14) for y in range(14)], 31)):
            events.clear()
            pairs = list(sorted_side_pairs(inst, ALL_CLASSES, range(inst.n)))
            size, shell_size, start, cuts = 0, 0, 0, []
            for event in events:
                if isinstance(event, tuple):
                    assert start == shell_size  # the blocks cover the shell before
                    (shell_size, cuts), start = event, 0
                    continue
                end, least = start + event, max(size, first_block)
                assert end in cuts or end == shell_size
                assert end - start >= least or end == shell_size
                assert not any(start + least <= c < end for c in cuts)
                grown += end - start > least and end in cuts
                size, start = size + event, end
            assert start == shell_size and size == len(pairs)
        assert grown

    def test_builds_only_a_prefix(self, monkeypatch):
        inst = _instance(_random_coords(2000, 17), 17)
        verts = inst.red_side()
        total = len(sorted_side_pairs(inst, RED_SIDE, verts))
        assert total == len(verts) * (len(verts) - 1) // 2
        built = []
        shells = graphops._shells

        def counting_shells(*args):
            for shell in shells(*args):
                built.append(len(shell[0]))
                yield shell

        made = []
        distance = Instance.distance

        def counting_distance(self, u, v):
            made.append((u, v))
            return distance(self, u, v)

        monkeypatch.setattr(graphops, "_shells", counting_shells)
        monkeypatch.setattr(Instance, "distance", counting_distance)
        tree = kruskal_mst(inst, verts, RED_SIDE)
        assert len(tree.u) == len(verts) - 1
        assert sum(built) < 0.05 * total
        assert len(made) < 0.05 * total


def _assert_same_edge_set(inst, pairs):
    """make_edge_set of `pairs`, given as tuples and as an array, against the reference."""
    ref_rows, ref_weight = _reference_make_edge_set(inst, pairs)
    for given in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        got = make_edge_set(inst, given)
        assert edge_rows(got) == ref_rows
        assert got.pairs() == [(u, v) for _, u, v, _ in ref_rows]
        assert got.weight == ref_weight
        assert got.length.tolist() == [length for length, _, _, _ in ref_rows]


def _assert_same_error(inst, pairs):
    with pytest.raises(PreconditionError) as expected:
        _reference_make_edge_set(inst, pairs)
    with pytest.raises(PreconditionError) as got:
        make_edge_set(inst, pairs)
    assert str(got.value) == str(expected.value)


def _random_pairs(n, m, seed):
    """Up to m distinct pairs of ids below n, each in a random orientation, in random order."""
    rng = random.Random(seed)
    pairs = list({tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)})
    rng.shuffle(pairs)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]


class TestMakeEdgeSet:
    def test_seeded_random_sets(self):
        for seed in range(10):
            inst = _instance(_random_coords(60, seed), seed)
            _assert_same_edge_set(inst, _random_pairs(inst.n, 200, seed))

    def test_lattice_distance_ties(self):
        for seed in range(10):
            inst = _instance(_lattice_coords(60, 9, seed), seed)
            _assert_same_edge_set(inst, _random_pairs(inst.n, 400, seed))
        # Every pair of a full lattice ties with others.
        inst = _instance([(float(x), float(y)) for x in range(6) for y in range(6)], 3)
        _assert_same_edge_set(inst, _random_pairs(inst.n, 2000, 3))

    def test_concyclic_points(self):
        rng = random.Random(9)
        angles = sorted({rng.random() * 2.0 * math.pi for _ in range(50)})
        inst = _instance([(math.cos(a), math.sin(a)) for a in angles], 9)
        for seed in range(5):
            _assert_same_edge_set(inst, _random_pairs(inst.n, 300, seed))

    def test_equal_lengths_order_by_ids(self):
        # Four sides and two diagonals of a square: two runs of equal lengths.
        inst = _instance([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], 4)
        _assert_same_edge_set(inst, [(3, 2), (1, 3), (0, 3), (2, 1), (2, 0), (1, 0)])

    @pytest.mark.parametrize("scale", [1e150, 1e-300, 2.0 ** 40 * math.ulp(0.0)])
    def test_huge_tiny_and_subnormal_coordinates(self, scale):
        for seed in range(4):
            for coords in (_random_coords(40, seed, scale), _lattice_coords(40, 8, seed, scale)):
                inst = _instance(coords, seed)
                _assert_same_edge_set(inst, _random_pairs(inst.n, 150, seed))

    def test_lattice_of_the_smallest_subnormal(self):
        for seed in range(4):
            inst = _instance(_lattice_coords(40, 8, seed, math.ulp(0.0)), seed)
            _assert_same_edge_set(inst, _random_pairs(inst.n, 150, seed))

    def test_red_blue_pairs_are_kept(self):
        inst = parse_instance("R 0 0\nB 1 0\nP 0 2\nB 3 3\nR 1 1")
        pairs = [(0, 1), (1, 4), (3, 0), (2, 1), (4, 3)]
        _assert_same_edge_set(inst, pairs)
        assert (make_edge_set(inst, pairs).color_class == INVALID_CLASS).sum() == 4

    def test_empty(self):
        _assert_same_edge_set(e1(), [])
        assert make_edge_set(e1(), []).weight == 0.0

    @pytest.mark.parametrize("pairs", [
        [(0, 1), (1, 0)],
        [(0, 1), (2, 3), (3, 2), (1, 0)],
        [(1, 2), (2, 1), (2, 1)],
        [(2, 2)],
        [(0, 1), (3, 3)],
        [(-1, 2)], [(2, -1)], [(0, 4)], [(4, 0)], [(-1, 4)], [(0, 10 ** 6)],
        [(0, 4), (4, 0)],
        [(0, 1), (1, 1), (1, 0)],
        [(0, 1), (2, 9), (1, 0)],
    ])
    def test_errors(self, pairs):
        _assert_same_error(e1(), pairs)


def test_approx_solve_builds_no_edge(tmp_path, monkeypatch):
    # `Solution.edges` is the one place an `Edge` is made, and only when read.
    inst = gen_random(300, 0.4, 0.4, "plane", seed=12)
    path, out = tmp_path / "in.txt", tmp_path / "out.txt"
    path.write_text(serialize_instance(inst))
    solutions = []

    def approx_a(instance):
        solutions.append(cli_approx_a(instance))
        return solutions[-1]

    cli_approx_a = cli.approx_a
    monkeypatch.setattr(cli, "approx_a", approx_a)
    made = []
    edge_init = Edge.__init__

    def counting_init(self, *args):
        made.append(args)
        edge_init(self, *args)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    assert cli.main(["solve", str(path), "--algo", "approx-a", "--out", str(out)]) == 0
    assert made == []
    edges = solutions[0].edges
    assert solutions[0].edges is edges and len(made) == len(edges)
    edge_lines = out.read_text().split("\n\n")[0].splitlines()
    pairs = [tuple(map(int, line.split())) for line in edge_lines]
    rows = [(e.length, e.u, e.v, INVALID_CLASS if e.color_class is None else e.color_class)
            for e in edges]
    assert rows == _reference_make_edge_set(parse_instance(path.read_text()), pairs)[0]


class _CountingPairs:
    """Iterable over a list that counts the pairs read."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.read = 0

    def __iter__(self):
        for pair in self.pairs:
            self.read += 1
            yield pair


class TestKruskalEarlyExit:
    def test_reads_only_a_prefix(self):
        inst = _instance(_random_coords(120, 11), 11)
        pairs = list(sorted_side_pairs(inst, ALL_CLASSES, range(inst.n)))
        counting = _CountingPairs(pairs)
        result = kruskal(inst.n, counting, range(inst.n))
        assert result == _reference_kruskal(inst.n, pairs, range(inst.n))
        assert len(result[1]) == inst.n - 1
        assert counting.read < len(pairs) // 4

    def test_matches_full_run_with_premerged_groups(self):
        rng = random.Random(12)
        for seed in range(40):
            inst = _instance(_random_coords(rng.randrange(6, 40), seed), seed)
            for classes, verts in (((Color.RED,), inst.red_side()),
                                   (RED_SIDE, inst.red_side()),
                                   ((Color.BLUE,), inst.blue_side())):
                pairs = sorted_side_pairs(inst, classes, verts)
                groups = []
                for _ in range(rng.randrange(4)):
                    group = rng.sample(verts, min(len(verts), rng.randrange(1, 4)))
                    if group and rng.random() < 0.5:
                        group.append(group[0])  # repeated id
                    if group:
                        groups.append(group)
                every_pair = list(sorted_side_pairs(inst, classes, verts))
                assert (kruskal(inst.n, pairs, verts, groups)
                        == _reference_kruskal(inst.n, every_pair, verts, groups))

    def test_disconnected_input_returns_none(self):
        inst = _instance(_random_coords(30, 13), 13)
        verts = inst.red_side()
        pairs = sorted_side_pairs(inst, (Color.PURPLE,), verts)
        assert Color.RED in inst.colors and kruskal(inst.n, pairs, verts) is None
        every_pair = list(sorted_side_pairs(inst, (Color.PURPLE,), verts))
        assert _reference_kruskal(inst.n, every_pair, verts) is None


def _random_partition(rng, ids):
    """A random set partition of `ids`: nonempty groups, each in shuffled order."""
    groups = [[] for _ in range(rng.randrange(1, len(ids) + 1))] if ids else []
    for i in ids:
        rng.choice(groups).append(i)
    for group in groups:
        rng.shuffle(group)
    return [group for group in groups if group]


class TestOracleKruskalRuns:
    """`kruskal` as oracle_forest runs it: a side's class-tree pairs, a partition of P premerged."""

    # A palette without red (or blue) leaves that side no class pair: its run is None
    # under a partition of two or more groups, and (0.0, []) under one group.
    @given(st.sampled_from(["plane", "lattice"]), st.integers(2, 40), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([ALL_CLASSES, (Color.BLUE, Color.PURPLE), (Color.RED, Color.PURPLE)]))
    @settings(deadline=None, max_examples=40)
    @hypothesis.seed(32)
    def test_partition_runs_match_reference(self, kind, n, seed, palette):
        rng = random.Random(seed)
        coords = _lattice_coords(n, 7, seed) if kind == "lattice" else _random_coords(n, seed)
        inst = Instance(*zip(*coords), [rng.choice(palette) for _ in coords])
        for color, vertices in ((Color.RED, inst.red_side()), (Color.BLUE, inst.blue_side())):
            every_pair = list(sorted_side_pairs(inst, (color,), vertices))
            found = kruskal(inst.n, sorted_side_pairs(inst, (color,), vertices), vertices)
            tree_pairs = found[1] if found else []
            for _ in range(4):
                partition = _random_partition(rng, list(inst.P))
                result = kruskal(inst.n, tree_pairs, vertices, partition)
                assert result == _reference_kruskal(inst.n, tree_pairs, vertices, partition)
                # The oracle's prune: the class tree's pairs give the run of every class pair.
                assert result == _reference_kruskal(inst.n, every_pair, vertices, partition)


def _filtered_read_case(kind, n, seed, choice):
    """(instance, classes, vertices, premerged groups) for the filtered-read property."""
    rng = random.Random(seed)
    if kind == "lattice":
        coords = [(float(x), float(y)) for x in range(25) for y in range(25)]
    else:
        coords = _random_coords(n, seed)
    inst = _instance(coords, seed)
    classes, vertices = ((RED_SIDE, inst.red_side()), ((Color.RED,), inst.red_side()),
                         ((Color.BLUE,), inst.blue_side()), ((Color.PURPLE,), inst.P),
                         (ALL_CLASSES, range(inst.n)))[choice]
    groups = []
    for _ in range(rng.randrange(5)):
        group = rng.sample(vertices, min(len(vertices), rng.randrange(1, 5)))
        if group and rng.random() < 0.5:
            group.append(group[0])  # repeated id
        groups.append(group)
    return inst, classes, vertices, groups


def _seeded_plane_1000():
    return gen_random(1000, 0.4, 0.4, seed=1000)


class TestFilteredRead:
    """Kruskal makes tuples of a later block only for pairs whose ends are not yet joined."""

    @given(st.sampled_from(["uniform", "lattice"]), st.integers(150, 300),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 4),
           st.sampled_from([64, graphops._FIRST_BLOCK]))
    @settings(deadline=None, max_examples=24)
    @hypothesis.seed(22)
    def test_matches_reading_every_pair(self, kind, n, seed, choice, first_block):
        # [DERIVED: the reference sorts every pair in pure Python and reads them all]
        inst, classes, vertices, groups = _filtered_read_case(kind, n, seed, choice)
        expected = _reference_side_pairs(inst, classes, vertices)
        hypothesis.assume(len(expected) > first_block)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphops, "_FIRST_BLOCK", first_block)
            pairs = sorted_side_pairs(inst, classes, vertices)
            assert (kruskal(inst.n, pairs, vertices, groups)
                    == _reference_kruskal(inst.n, expected, vertices, groups))
            # Read without a parent list, the same blocks give every pair.
            assert list(sorted_side_pairs(inst, classes, vertices)) == expected

    def test_later_blocks_make_tuples_only_for_survivors(self, monkeypatch):
        inst = _seeded_plane_1000()
        verts = inst.red_side()
        made = []
        lengths = graphops.hypot_lengths

        def counting_lengths(instance, u, v):
            made.append(len(u))
            return lengths(instance, u, v)

        monkeypatch.setattr(graphops, "hypot_lengths", counting_lengths)
        # Read without a parent list, every block is made whole: its size as cut.
        every_pair = list(sorted_side_pairs(inst, (Color.RED,), verts))
        cut = made[:]
        made.clear()
        result = kruskal(inst.n, sorted_side_pairs(inst, (Color.RED,), verts), verts, (inst.P,))
        monkeypatch.undo()
        assert made[0] == cut[0] and len(cut) >= len(made) >= 2
        assert sum(made[1:]) < 0.25 * sum(cut[1:len(made)])
        assert result == _reference_kruskal(inst.n, every_pair, verts, (inst.P,))

    def test_one_grid_pass_per_approx_a_tree(self, monkeypatch):
        passes = []
        side_pairs, grid_pairs = graphops.sorted_side_pairs, graphops._grid_pairs

        def counting_side_pairs(*args):
            passes.append(0)
            return side_pairs(*args)

        def counting_grid_pairs(*args):
            passes[-1] += 1
            return grid_pairs(*args)

        monkeypatch.setattr(graphops, "sorted_side_pairs", counting_side_pairs)
        monkeypatch.setattr(graphops, "_grid_pairs", counting_grid_pairs)
        approx_a(_seeded_plane_1000())
        assert passes == [1, 1, 1]

    def test_side_pairs_are_freed_without_the_cycle_collector(self, monkeypatch):
        # A reference cycle through the pairs would keep every shell alive
        # until the cycle collector runs.
        inst = _seeded_plane_1000()
        refs, read = [], []
        side_pairs, lengths = graphops.sorted_side_pairs, graphops.hypot_lengths

        def recording_side_pairs(*args):
            pairs = side_pairs(*args)
            refs.append(weakref.ref(pairs))
            return pairs

        def counting_lengths(instance, u, v):
            read.append(len(u))
            return lengths(instance, u, v)

        monkeypatch.setattr(graphops, "sorted_side_pairs", recording_side_pairs)
        monkeypatch.setattr(graphops, "hypot_lengths", counting_lengths)
        enabled = gc.isenabled()
        gc.disable()
        try:
            constrained_mst(inst, inst.red_side(), (inst.P,), (Color.RED,))
            assert len(refs) == 1 and refs[0]() is None
        finally:
            if enabled:
                gc.enable()
        assert len(read) >= 2  # the read went past the first block


def _reference_crossings(instance, edge_set):
    """The double loop over purple edge pairs that the sweep replaced, kept as the reference."""
    is_purple = edge_set.color_class == Color.PURPLE
    purple = list(zip(edge_set.u[is_purple].tolist(), edge_set.v[is_purple].tolist()))
    per_edge = {e: 0 for e in purple}
    crossings = 0
    for i in range(len(purple)):
        for j in range(i + 1, len(purple)):
            e1, e2 = purple[i], purple[j]
            if set(e1) & set(e2):
                continue
            if edges_properly_cross(instance, e1, e2):
                crossings += 1
                per_edge[e1] += 1
                per_edge[e2] += 1
    return crossings, per_edge


def _random_edge_set(inst, seed, m):
    """Up to m distinct random pairs; every edge is purple in an all-purple instance."""
    rng = random.Random(seed)
    pairs = {tuple(sorted(rng.sample(range(inst.n), 2))) for _ in range(m)}
    return make_edge_set(inst, pairs)


class _CountingOrient:
    """Wrapper around `_orient_sign` that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.fixture
def orient_calls(monkeypatch):
    """Counts the `_orient_sign` calls the crossing count makes."""
    counter = _CountingOrient(graphops._orient_sign)
    monkeypatch.setattr(graphops, "_orient_sign", counter)
    return counter


@pytest.fixture(params=[3, graphops._CROSS_BLOCK], ids=["block3", "block_default"])
def cross_block(request, monkeypatch):
    """Candidate block size; 3 puts block boundaries inside one edge's candidates."""
    monkeypatch.setattr(graphops, "_CROSS_BLOCK", request.param)
    return request.param


def _assert_same_crossings(inst, edge_set):
    sol = solution_stats(edge_set, solver="given")
    expected = _reference_crossings(inst, edge_set)
    assert (sol.purple_crossings, sol.purple_crossings_per_edge) == expected
    return expected[0]


class TestCrossingCount:
    def test_uniform_plane_points(self, cross_block):
        total = 0
        for seed in range(20):
            inst = _purple_instance(_random_coords(40, seed))
            total += _assert_same_crossings(inst, _random_edge_set(inst, seed, 60))
        assert total > 1000

    def test_integer_lattice(self, cross_block, orient_calls):
        total = 0
        for seed in range(20):
            inst = _purple_instance(_lattice_coords(40, 7, seed))
            total += _assert_same_crossings(inst, _random_edge_set(inst, seed, 60))
        assert total > 1000
        assert orient_calls.calls > 0  # some orientations are exactly zero

    def test_collinear_overlapping_segments(self, cross_block):
        rng = random.Random(5)
        xs = rng.sample(range(1000), 60)
        for coords in ([(float(x), 0.0) for x in xs], [(0.25 * x, 0.5 * x) for x in xs],
                       [(0.0, x / 7.0) for x in xs]):
            inst = _purple_instance(coords)
            edge_set = _random_edge_set(inst, 6, 80)
            assert _assert_same_crossings(inst, edge_set) == 0

    def test_t_junctions(self, cross_block):
        # Edge (0, 1) runs along y = x; every other edge has an endpoint on it or on (2, 3).
        coords = [(0.0, 0.0), (8.0, 8.0), (8.0, 0.0), (0.0, 8.0)]
        coords += [(float(t), float(t)) for t in range(1, 8) if t != 4]
        coords += [(1.0, 5.0), (6.0, 1.0), (3.0, 7.0), (7.0, 4.0), (2.0, 6.0)]
        inst = _purple_instance(coords)
        pairs = {(0, 1), (2, 3)}
        pairs |= {(a, b) for a in range(4, 10) for b in range(10, 15)}
        assert _assert_same_crossings(inst, make_edge_set(inst, pairs)) > 0
        for seed in range(10):
            _assert_same_crossings(inst, _random_edge_set(inst, seed, 40))

    def test_concyclic_chords(self, cross_block):
        rng = random.Random(9)
        angles = sorted({rng.random() * 2.0 * math.pi for _ in range(40)})
        inst = _purple_instance([(math.cos(a), math.sin(a)) for a in angles])
        for seed in range(10):
            _assert_same_crossings(inst, _random_edge_set(inst, seed, 60))

    @pytest.mark.parametrize("scale", [1e150, 1e-300])
    def test_huge_and_tiny_coordinates(self, scale, cross_block):
        # At 1e-300 every product underflows, so every orientation takes the fallback.
        total = 0
        for seed in range(4):
            for coords in (_random_coords(30, seed, scale), _lattice_coords(30, 6, seed, scale)):
                inst = _purple_instance(coords)
                total += _assert_same_crossings(inst, _random_edge_set(inst, seed, 40))
        assert total > 100

    @pytest.mark.parametrize("offset, crosses", [(0, 0), (1, 1), (-1, 0)])
    def test_near_collinear_needs_the_exact_fallback(self, offset, crosses, orient_calls):
        # Point 2 sits on, just above or just below the diagonal (0, 1); the float
        # determinant of (0, 1, 2) is at most one ulp of 0.5, far under CROSS_TOL.
        y = 0.5 + offset * math.ulp(0.5)
        inst = _purple_instance([(0.0, 0.0), (1.0, 1.0), (0.5, y), (0.5, -1.0)])
        edge_set = make_edge_set(inst, [(0, 1), (2, 3)])
        assert _assert_same_crossings(inst, edge_set) == crosses
        assert orient_calls.calls > 0

    def test_collinear_line_solve_takes_no_exact_orientation(self, orient_calls):
        inst = gen_random(8000, 0.4, 0.4, "line", seed=8)
        sol = solve_line(inst)
        assert sol.purple_edges > 1000
        assert "purple_crossings 0\n" in stats_block(sol)
        assert orient_calls.calls == 0

    def test_fewer_than_two_purple_edges(self):
        inst = e1()
        for pairs in ([], [(0, 1)], [(0, 2), (1, 3)]):
            sol = solution_stats(make_edge_set(inst, pairs), solver="given")
            assert sol.purple_crossings == 0
            assert sol.purple_crossings_per_edge == {p: 0 for p in pairs if p == (0, 1)}
