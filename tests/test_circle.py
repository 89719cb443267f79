"""Cubic dynamic program for concyclic instances."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rbpspan
from rbpspan import circle
from rbpspan.bench import _circle_instance
from rbpspan.circle import (
    _CASE2,
    B_,
    N_,
    NotConcyclicError,
    P_,
    R_,
    _base_edges,
    _pick,
    combine_final,
    fill_tables,
    fit_circle,
    solve_circle,
    split_arcs,
)
from rbpspan.graphops import BLUE_SIDE, RED_SIDE, kruskal_mst
from rbpspan.line import axis_ends
from rbpspan.model import Color, Instance, parse_instance
from rbpspan.oracle import oracle_forest
from util import reference_chain, seeded_instances


def _circle_text(spec):
    """Instance text from (color, angle_degrees) pairs on the unit circle."""
    lines = []
    for c, deg in spec:
        a = math.radians(deg)
        lines.append(f"{c} {math.cos(a)!r} {math.sin(a)!r}")
    return "\n".join(lines)


def _tables(inst):
    """Angular ordering and table fill, as performed inside solve_circle."""
    cx, cy, _, _ = fit_circle(inst)
    return fill_tables(inst, *split_arcs(inst, cx, cy))


def _by_start(t, lab, s):
    """The entries of label lab over span s by start purple i: ends[lab, s, i + s], i < k."""
    return t.ends[lab, s, s:s + len(t.purple_ids)]


class TestSolveCircle:
    def test_diameter_instance(self):
        # [DERIVED: diameter purple edge + two sqrt(2) attachments]
        inst = parse_instance(_circle_text([("P", 0), ("P", 180), ("R", 90), ("B", 270)]))
        sol = solve_circle(inst)
        assert sol.weight == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))
        assert sol.solver == "circle"

    def test_two_purple_only(self):
        # [TRIVIAL: single purple chord]
        inst = parse_instance(_circle_text([("P", 0), ("P", 90)]))
        sol = solve_circle(inst)
        assert sol.weight == pytest.approx(math.sqrt(2.0))
        assert len(sol.edge_set.u) == 1

    def test_inscribed_square_three_sides(self):
        # [DERIVED: MST of the square, three sides of sqrt(2)]
        inst = parse_instance(_circle_text([("P", 0), ("P", 90), ("P", 180), ("P", 270)]))
        assert solve_circle(inst).weight == pytest.approx(3.0 * math.sqrt(2.0))

    def test_rotation_invariance(self):
        # [TRIVIAL: relabeling symmetry of the index origin]
        spec = [("P", 10), ("R", 40), ("P", 95), ("B", 170), ("P", 230), ("R", 300)]
        w0 = solve_circle(parse_instance(_circle_text(spec))).weight
        shifted = [(c, d + 77.0) for c, d in spec]
        assert solve_circle(parse_instance(_circle_text(shifted))).weight \
            == pytest.approx(w0)

    def test_not_concyclic_raises(self):
        inst = parse_instance("P 0 0\nP 1 0\nP 0 1\nR 5 5")
        with pytest.raises(NotConcyclicError):
            solve_circle(inst)

    def test_nan_tolerance_accepts_nothing(self):
        with pytest.raises(NotConcyclicError):
            solve_circle(parse_instance("P 0 0\nP 1 0\nP 0 1\nR 5 5"), math.nan)

    def test_single_purple_bypass(self):
        inst = parse_instance(_circle_text([("P", 0), ("R", 60), ("R", 200), ("B", 120)]))
        assert solve_circle(inst).weight == pytest.approx(
            oracle_forest(inst).weight, rel=1e-9)
        # [DERIVED: with at most one purple point the sides share no edge, so the
        # answer is the union of the two side MSTs] on a circle with tied chords.
        lattice = _lattice_circle(25, 0)
        points = list(zip(lattice.xs.tolist(), lattice.ys.tolist()))
        for k in (0, 1):
            colors = ["P"] * k + ["R", "B"] * len(points)
            inst = parse_instance("".join(f"{c} {x!r} {y!r}\n"
                                          for c, (x, y) in zip(colors, points)))
            assert inst.k == k
            sides = [kruskal_mst(inst, inst.red_side(), RED_SIDE),
                     kruskal_mst(inst, inst.blue_side(), BLUE_SIDE)]
            assert sorted(solve_circle(inst).edge_set.pairs()) == sorted(
                pair for tree in sides for pair in tree.pairs())

    def test_matches_oracle_on_random_concyclic(self):
        # [DERIVED: oracle_forest cross-validation]
        for inst in seeded_instances(40, n_min=4, n_max=12, k_max=6,
                                     mode="circle", base_seed=700):
            assert solve_circle(inst).weight == pytest.approx(
                oracle_forest(inst).weight, rel=1e-9)

    def test_off_center_circle(self):
        # Concyclicity is detected on any circle, not just the unit one.
        spec = [("P", 0), ("P", 120), ("R", 60), ("B", 250)]
        inst = parse_instance("\n".join(
            f"{c} {3.0 + 2.0 * math.cos(math.radians(d))!r}"
            f" {-1.0 + 2.0 * math.sin(math.radians(d))!r}" for c, d in spec))
        assert solve_circle(inst).weight == pytest.approx(
            oracle_forest(inst).weight, rel=1e-9)


def _arc_base(inst, a, b):
    """The (PC, RC, BC, NC) base entries `fill_tables` forms for the arc from purple a to b."""
    t = _tables(inst)
    i = t.purple_ids.index(a)
    assert t.purple_ids[(i + 1) % len(t.purple_ids)] == b
    return tuple(t.base[:, i].tolist())


def _reference_base(inst, a, b, interior):
    """An arc's (PC, RC, BC, NC) and their edges, from `reference_chain` on each color's chain.

    A color whose endpoints are pre-connected drops its first longest link;
    the other keeps its chain in full, which a color with no interior point
    lacks (inf, and no edges).
    """
    chains = []
    for color in (Color.RED, Color.BLUE):
        nodes = [a, *(u for u in interior if inst.color_of(u) == color), b]
        lengths = [inst.distance(u, v) for u, v in zip(nodes, nodes[1:])]
        links = [tuple(sorted(pair)) for pair in zip(nodes, nodes[1:])]
        drop, dropped = reference_chain(lengths, True)
        full = (reference_chain(lengths)[0], links) if len(nodes) > 2 else (math.inf, None)
        chains.append(((drop, links[:dropped] + links[dropped + 1:]), full))
    (red_drop, red_full), (blue_drop, blue_full) = chains
    options = [(red_drop, blue_drop), (red_drop, blue_full), (red_full, blue_drop),
               (red_full, blue_full)]
    return ([red[0] + blue[0] for red, blue in options],
            [None if red[1] is None or blue[1] is None else sorted(red[1] + blue[1])
             for red, blue in options])


def _cut_arcs(inst, order):
    """Arc i of `split_arcs`' order: the ids strictly between purple i and purple i + 1."""
    ppos = [j for j, u in enumerate(order.tolist()) if inst.color_of(u) == Color.PURPLE]
    return [order[lo + 1:hi].tolist() for lo, hi in zip(ppos, ppos[1:] + [len(order)])]


class TestArcBase:
    def test_empty_arc(self):
        # [TRIVIAL: no interior points; the direct chord is supplied by the DP]
        inst = parse_instance(_circle_text([("P", 0), ("P", 90)]))
        pc, rc, bc, nc = _arc_base(inst, 0, 1)
        assert pc == 0.0
        assert rc == bc == nc == math.inf

    def test_one_red_point(self):
        # [DERIVED: PC keeps the shorter attachment; blue side unbuildable]
        inst = parse_instance(_circle_text([("P", 0), ("R", 30), ("P", 90)]))
        pc, rc, bc, nc = _arc_base(inst, 0, 2)
        d01, d12 = inst.distance(0, 1), inst.distance(1, 2)
        assert pc == pytest.approx(min(d01, d12))
        assert bc == pytest.approx(d01 + d12)
        assert rc == math.inf and nc == math.inf

    def test_one_red_one_blue(self):
        # [DERIVED: NC needs both full chains through both endpoints]
        inst = parse_instance(_circle_text([("P", 0), ("R", 30), ("B", 60), ("P", 90)]))
        nc = _arc_base(inst, 0, 3)[3]
        expected = (inst.distance(0, 1) + inst.distance(1, 3)
                    + inst.distance(0, 2) + inst.distance(2, 3))
        assert nc == pytest.approx(expected)


def test_arc_base_equals_reference_chains():
    # [DERIVED: the chain kernel sums every chain link by link in order, as
    # `reference_chain` does, so the values agree exactly, also where links tie
    # for the longest; `_base_edges` drops the same link the reference drops]
    cases = [_circle_instance(k, extra, seed) for k in (2, 3, 7, 30)
             for extra in (0, 1, k, 4 * k) for seed in range(3)]
    cases += [_lattice_circle(r2, seed) for r2 in (25, 65) for seed in range(40)]
    checked = 0
    for inst in cases:
        if inst.k < 2:
            continue
        cx, cy, _, _ = fit_circle(inst)
        purple_ids, order = split_arcs(inst, cx, cy)
        k = len(purple_ids)
        tables = fill_tables(inst, purple_ids, order)
        arcs = _cut_arcs(inst, order)
        for i in range(k):
            values, edges = _reference_base(inst, purple_ids[i], purple_ids[(i + 1) % k], arcs[i])
            assert tables.base[:, i].tolist() == values
            for lab in range(4):
                if edges[lab] is not None:
                    found = np.sort(_base_edges(tables, [(lab, i)]), axis=1).tolist()
                    assert sorted(map(tuple, found)) == edges[lab]
        checked += 1
    assert checked >= 100


class TestTables:
    def test_entrywise_label_ordering(self):
        # [DERIVED: PC <= RC, BC <= NC entrywise; stronger assumptions cost less]
        for inst in seeded_instances(20, n_min=5, n_max=12, k_max=6,
                                     mode="circle", base_seed=800):
            if inst.k < 2:
                continue
            t = _tables(inst)
            for s in range(1, inst.k):
                pc = _by_start(t, P_, s)
                nc = _by_start(t, N_, s)
                for lab in (R_, B_):
                    mid = _by_start(t, lab, s)
                    assert np.all(pc <= mid + 1e-9)
                    assert np.all(mid <= nc + 1e-9)

    def test_k2_final_combination(self):
        # [TRIVIAL: no intermediate split points at k=2]
        inst = parse_instance(_circle_text([("P", 0), ("P", 180), ("R", 90), ("B", 270)]))
        t = _tables(inst)
        best, s, _ = combine_final(t)
        assert best == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))
        assert s == 1

    def test_some_pairing_always_finite(self):
        # [DERIVED: feasible input always admits a finite combination]
        for inst in seeded_instances(30, n_min=4, n_max=10, k_max=6,
                                     mode="circle", base_seed=900):
            if inst.k < 2:
                continue
            best, _, _ = combine_final(_tables(inst))
            assert math.isfinite(best)


def test_fit_circle_residual():
    inst = parse_instance(_circle_text([("P", 0), ("P", 70), ("R", 140), ("B", 260)]))
    cx, cy, r, residual = fit_circle(inst)
    assert abs(cx) < 1e-9 and abs(cy) < 1e-9
    assert r == pytest.approx(1.0) and residual <= 1e-9


def test_split_arcs_angular_order_and_wrap():
    # [DERIVED: atan2 order is ids 3, 4, 0, 1, 2; it starts at purple 3, and
    # the arc after it wraps past -pi]
    inst = parse_instance(_circle_text([("R", 10), ("P", 60), ("B", 100),
                                        ("P", 200), ("R", 300)]))
    purple_ids, order = split_arcs(inst, 0.0, 0.0)
    assert purple_ids == [3, 1]
    assert order.tolist() == [3, 4, 0, 1, 2]
    assert _cut_arcs(inst, order) == [[4, 0], [2]]


def _lattice_circle(r2, seed):
    """The integer points of x^2 + y^2 = r2, each coloured at random from `seed`.

    Many chords of such a circle have exactly equal lengths, so the DP meets
    exact ties between its options.
    """
    m = math.isqrt(r2)
    rng = random.Random(seed)
    return parse_instance("\n".join(
        f"{rng.choice('RBP')} {x} {y}" for x in range(-m, m + 1) for y in range(-m, m + 1)
        if x * x + y * y == r2))


# Edge lists whose optimum is not unique: choosing the last minimal option
# instead of the first (in the split order, the Case II order of _CASE2 and
# the (s, pairing) order of combine_final) changes each of them.
_TIED_OPTIMA = {
    (25, 11): [(1, 3), (2, 4), (8, 10), (0, 1), (4, 6), (5, 7), (9, 11), (10, 11),
               (1, 5), (4, 8), (5, 11)],
    (25, 26): [(1, 3), (2, 4), (8, 10), (0, 2), (3, 5), (5, 7), (6, 8), (9, 11),
               (2, 6), (0, 5), (6, 11)],
    (65, 9): [(0, 1), (6, 8), (7, 9), (14, 15), (0, 2), (1, 3), (4, 6), (5, 7), (8, 10),
              (9, 11), (12, 14), (13, 15), (11, 15), (1, 6), (1, 9)],
}


class TestExactTies:
    def test_lattice_circles_match_oracle(self):
        # [DERIVED: oracle_forest cross-validation on exactly tied chord lengths]
        checked = 0
        for r2 in (25, 65):
            for seed in range(40):
                inst = _lattice_circle(r2, seed)
                assert inst.n == (12 if r2 == 25 else 16)
                if inst.k > 8:
                    continue
                assert solve_circle(inst).weight == pytest.approx(
                    oracle_forest(inst).weight, rel=1e-9, abs=0.0)
                checked += 1
        assert checked >= 70

    def test_tie_order_is_pinned(self):
        for (r2, seed), pairs in _TIED_OPTIMA.items():
            assert solve_circle(_lattice_circle(r2, seed)).edge_set.pairs() == pairs


def _scaled(inst, factor):
    return Instance(inst.xs * factor, inst.ys * factor, inst.colors)


def _reference_axis_ends(inst):
    """Ids of the first lowest and first highest point on the wider axis, x on ties."""
    xs, ys = inst.xs.tolist(), inst.ys.tolist()
    keys = xs if max(xs) - min(xs) >= max(ys) - min(ys) else ys
    lo = hi = 0
    for i, t in enumerate(keys):
        if t < keys[lo]:
            lo = i
        if t > keys[hi]:
            hi = i
    return lo, hi


def test_fit_circle_anchors_on_axis_ends_at_every_scale(monkeypatch):
    # Lattice circles tie exactly on the wider axis (and between the axes);
    # they are scaled by powers of two, which keep every tie. The seeded
    # circles are scaled by 1e-300, 1e150 and 1e200, where unscaled squares
    # underflow or overflow.
    anchors = []

    def recording_axis_ends(xs, ys):
        a, b, spread = axis_ends(xs, ys)
        anchors.append((a, b))
        return a, b, spread

    monkeypatch.setattr(circle, "axis_ends", recording_axis_ends)
    cases = [(_lattice_circle(r2, seed), factor) for r2 in (25, 65, 325, 1105)
             for seed in range(3) for factor in (1.0, 2.0 ** -990, 2.0 ** 500, 2.0 ** 660)]
    cases += [(inst, factor) for inst in seeded_instances(6, n_min=40, n_max=40, mode="circle",
                                                          base_seed=70)
              for factor in (1.0, 1e-300, 1e150, 1e200)]
    for inst, factor in cases:
        scaled = _scaled(inst, factor)
        anchors.clear()
        _, _, _, residual = fit_circle(scaled)
        assert residual <= 1e-9
        assert anchors == [_reference_axis_ends(scaled)]
        assert solve_circle(scaled).edge_set.pairs() == solve_circle(inst).edge_set.pairs()


def _reference_dp(inst, purple_ids, arcs):
    """The circle recurrence entry by entry: {(label, span, start): (value, choice)}.

    Span 1 is the arc's base entry, or the direct chord on top of its PC entry
    when that is strictly cheaper. A longer span takes the first minimum over
    Case I at splits 1, ..., s - 1, then the Case II variants in `_CASE2`
    order. Each sum is formed in the order `fill_tables` forms it before its
    fold, so values agree exactly. Also returns the entries whose minimum
    both split 1 and Case II's (N, label) variant reach: the two options the
    fill folds into one, which must still pick split 1.
    """
    k = len(purple_ids)
    xy = [inst.coords(p) for p in purple_ids]

    def chord(i, s):
        (ax, ay), (bx, by) = xy[i], xy[(i + s) % k]
        return float(np.hypot(ax - bx, ay - by))

    bases = [_reference_base(inst, purple_ids[i], purple_ids[(i + 1) % k], arcs[i])[0]
             for i in range(k)]
    dp = {}
    fold_ties = []
    for i in range(k):
        for lab in range(4):
            base, direct = bases[i][lab], bases[i][P_] + chord(i, 1)
            dp[lab, 1, i] = (base, ("base",)) if base <= direct else (direct, ("direct",))
    for s in range(2, k):
        for i in range(k):
            for lab in range(4):
                options = [(dp[P_, d, i][0] + chord(i, d) + dp[lab, s - d, (i + d) % k][0],
                            ("I", d)) for d in range(1, s)]
                options += [(dp[left, 1, i][0] + dp[right, s - 1, (i + 1) % k][0],
                             ("II", vi)) for vi, (left, right) in enumerate(_CASE2[lab])]
                dp[lab, s, i] = min(options, key=lambda option: option[0])
                # options[s - 1] is Case II variant 0, which is (N, label)
                if options[0][0] == options[s - 1][0] == dp[lab, s, i][0]:
                    fold_ties.append((lab, s, i))
    return dp, fold_ties


def _decoded(t, lab, s, i):
    """The option `_pick` finds for an entry, by the encoding it documents."""
    c = _pick(t, lab, s, i)
    if s == 1:
        return ("base",) if c == 0 else ("direct",)
    return ("I", c + 1) if c < s - 1 else ("II", c - (s - 1))


def test_fill_tables_matches_reference_dp():
    cases = [_circle_instance(k, extra, seed) for k in range(2, 15)
             for extra in (0, k // 2, 2 * k) for seed in range(2)]
    cases += [_lattice_circle(r2, seed) for r2 in (25, 65) for seed in range(40)]
    # 24-point lattice circles (k = 4..11) where split 1 and the (N, label)
    # variant tie at the minimum of many entries.
    tie_cases = [_lattice_circle(325, seed) for seed in range(10)]
    checked = 0
    for inst, tied in [(inst, False) for inst in cases] + [(inst, True) for inst in tie_cases]:
        if inst.k < 2:
            continue
        cx, cy, _, _ = fit_circle(inst)
        purple_ids, order = split_arcs(inst, cx, cy)
        t = fill_tables(inst, purple_ids, order)
        dp, fold_ties = _reference_dp(inst, purple_ids, _cut_arcs(inst, order))
        for (lab, s, i), (value, how) in dp.items():
            assert _by_start(t, lab, s)[i] == value, (lab, s, i)
            assert _decoded(t, lab, s, i) == how, (lab, s, i)
        assert all(dp[key][1] == ("I", 1) for key in fold_ties)
        assert fold_ties or not tied
        checked += 1
    assert checked >= 160


@given(st.floats(0.0, allow_nan=False), st.floats(0.0, allow_nan=False),
       st.floats(0.0, allow_nan=False))
@example(0.0, 0.0, 0.0)
@example(5e-324, 1e-323, 2.2250738585072014e-308)
@example(1.7976931348623157e308, 1.7976931348623155e308, 1e292)
@example(math.inf, 1.0, 0.0)
@example(1.0, 2.0, math.inf)
@settings(deadline=None, max_examples=300)
@hypothesis.seed(754)
def test_add_then_min_equals_min_then_add(a, b, c):
    # [DERIVED: IEEE addition rounds monotonically, so for a <= b, a + c <= b + c
    # after rounding; overflow to inf keeps the order.] fill_tables relies on
    # this to fold split 1 and Case II's (N, label) variant, which share the
    # right part c, into one left part min(a, b).
    a, b, c = np.float64(a), np.float64(b), np.float64(c)
    with np.errstate(over="ignore"):
        assert np.minimum(a + c, b + c) == np.minimum(a, b) + c


def test_answer_reads_no_span_that_passes_purple_0(monkeypatch):
    # [DERIVED: the final pairings split the circle at purple 0, and each
    # option of a span lies inside the span, so neither `combine_final` nor
    # `_reconstruct` reads a span with purple 0 strictly inside it; a NaN
    # read would win every argmin it met]
    cases = [_circle_instance(k, extra, seed) for k in (3, 7, 30)
             for extra in (0, k) for seed in range(3)]
    cases += [_lattice_circle(r2, seed) for r2 in (25, 65, 325) for seed in range(10)]
    expected = [solve_circle(inst).edge_set for inst in cases]
    fill, masked = circle.fill_tables, []

    def passing_0_as_nan(instance, purple_ids, order):
        tables = fill(instance, purple_ids, order)
        k = len(purple_ids)
        s, j = np.ogrid[:k, :2 * k]
        passes_0 = (j - s < k) & (k < j)  # starts at purple j - s < k, ends past it at j
        tables.ends[:, passes_0] = math.nan
        masked.append(bool(passes_0.any()))
        return tables

    monkeypatch.setattr(circle, "fill_tables", passing_0_as_nan)
    for inst, expect in zip(cases, expected):
        found = solve_circle(inst).edge_set
        assert (found.pairs(), found.weight) == (expect.pairs(), expect.weight)
    assert sum(masked) >= 40


def test_fill_tables_memory_budget():
    # n = 300 with k = 150, the size of the benchmark's circle instances. The
    # bound is the table fill's tracemalloc peak before the end-indexed layout
    # (5.14 MiB), so the DP's footprint cannot creep back up.
    inst = _circle_instance(150, 150, seed=0)
    args = (inst, *split_arcs(inst, 0.0, 0.0))
    tracemalloc.start()
    try:
        fill_tables(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.14 * 2 ** 20


def test_infeasible_base_choice_is_an_internal_error_under_python_O(tmp_path):
    # On an all-purple circle every arc is empty, so its RC, BC and NC base
    # entries are infeasible, and every final pairing reconstructs one of
    # those labels down to span 1. Pointing those span-1 picks at the base
    # entry must stop the solve with exit code 3, also when asserts are off.
    path = tmp_path / "purple.txt"
    path.write_text(_circle_text([("P", 60 * i) for i in range(6)]))
    script = f"""if True:
        import sys
        from rbpspan import circle
        from rbpspan.cli import main
        pick = circle._pick

        def doctored(tables, lab, s, i):
            if s == 1 and tables.base[lab, i] == float('inf'):
                return 0
            return pick(tables, lab, s, i)

        circle._pick = doctored
        print(sys.flags.optimize, main(['solve', {str(path)!r}, '--algo', 'circle']))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(rbpspan.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env=env, check=True)
    assert run.stdout.split() == ["1", "3"]
    assert "internal error: circle DP chose an infeasible base arc" in run.stderr
