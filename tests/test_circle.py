"""Cubic dynamic program for concyclic instances."""

import math
import random

import numpy as np
import pytest

from rbpspan.circle import (
    B_,
    N_,
    NotConcyclicError,
    P_,
    _farthest_pair,
    R_,
    base_arc_costs,
    combine_final,
    fill_tables,
    fit_circle,
    solve_circle,
    split_arcs,
)
from rbpspan.model import Color, Instance, Point, parse_instance
from rbpspan.oracle import oracle_forest
from util import seeded_instances


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
        assert len(sol.edges) == 1

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

    def test_single_purple_bypass(self):
        inst = parse_instance(_circle_text([("P", 0), ("R", 60), ("R", 200), ("B", 120)]))
        assert solve_circle(inst).weight == pytest.approx(
            oracle_forest(inst).weight, rel=1e-9)

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


class TestBaseArcCosts:
    def test_empty_arc(self):
        # [TRIVIAL: no interior points; the direct chord is supplied by the DP]
        inst = parse_instance(_circle_text([("P", 0), ("P", 90)]))
        base = base_arc_costs(inst, 0, 1, [])
        pc, rc, bc, nc = base.values
        assert pc == 0.0
        assert rc == bc == nc == math.inf

    def test_one_red_point(self):
        # [DERIVED: PC keeps the shorter attachment; blue side unbuildable]
        inst = parse_instance(_circle_text([("P", 0), ("R", 30), ("P", 90)]))
        base = base_arc_costs(inst, 0, 2, [1])
        pc, rc, bc, nc = base.values
        d01, d12 = inst.distance(0, 1), inst.distance(1, 2)
        assert pc == pytest.approx(min(d01, d12))
        assert bc == pytest.approx(d01 + d12)
        assert rc == math.inf and nc == math.inf

    def test_one_red_one_blue(self):
        # [DERIVED: NC needs both full chains through both endpoints]
        inst = parse_instance(_circle_text([("P", 0), ("R", 30), ("B", 60), ("P", 90)]))
        base = base_arc_costs(inst, 0, 3, [1, 2])
        nc = base.values[3]
        expected = (inst.distance(0, 1) + inst.distance(1, 3)
                    + inst.distance(0, 2) + inst.distance(2, 3))
        assert nc == pytest.approx(expected)


class TestTables:
    def test_entrywise_label_ordering(self):
        # [DERIVED: PC <= RC, BC <= NC entrywise; stronger assumptions cost less]
        for inst in seeded_instances(20, n_min=5, n_max=12, k_max=6,
                                     mode="circle", base_seed=800):
            if inst.k < 2:
                continue
            t = _tables(inst)
            for s in range(1, t.k):
                pc = t.values[P_][s]
                nc = t.values[N_][s]
                for lab in (R_, B_):
                    mid = t.values[lab][s]
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
    # [DERIVED: atan2 order is ids 3, 4, 0, 1, 2; the last arc wraps past -pi]
    inst = parse_instance(_circle_text([("R", 10), ("P", 60), ("B", 100),
                                        ("P", 200), ("R", 300)]))
    purple_ids, arcs = split_arcs(inst, 0.0, 0.0)
    assert purple_ids == [3, 1]
    assert arcs == [[4, 0], [2]]


def _reference_farthest_pair(instance):
    """The double loop fit_circle used before its numpy candidate search."""
    best = (-1.0, 0, 1)
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            d = instance.distance(i, j)
            if d > best[0]:
                best = (d, i, j)
    return best


def _purple(coords):
    return Instance(Point(i, Color.PURPLE, x, y) for i, (x, y) in enumerate(coords))


def test_farthest_pair_matches_double_loop():
    rng = random.Random(21)
    cases = [
        _purple([(rng.random(), rng.random()) for _ in range(150)]),
        _purple([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),  # diagonals tie exactly
        _purple([(float(x), float(y)) for x in range(12) for y in range(9)]),
        _purple([(3.0 * x, 3.0 * y) for x, y in rng.sample(
            [(x, y) for x in range(40) for y in range(40)], 120)]),
    ]
    cases += [inst for inst in seeded_instances(6, n_min=20, n_max=80, mode="circle",
                                                base_seed=33)]
    for scale in (1e150, 1e-300):
        cases.append(_purple([(math.cos(a) * scale, math.sin(a) * scale)
                              for a in (rng.random() * 2 * math.pi for _ in range(60))]))
    # Both pairs are math.hypot(17, 27) long, but np.hypot puts the later pair above.
    m = math.hypot(17.0, 27.0)
    cases.append(_purple([(0.0, 0.0), (m, 0.0), (8.0, -13.5), (25.0, 13.5)]))
    for inst in cases:
        assert _farthest_pair(inst) == _reference_farthest_pair(inst)
    assert _farthest_pair(cases[1])[1:] == (0, 3)
    assert _farthest_pair(cases[-1])[1:] == (0, 1)
