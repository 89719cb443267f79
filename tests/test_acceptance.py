"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criterion 7 is expected to fail: the adversarial construction it prescribes
does not have the prescribed optimum for any parameter choice (two boundary
attachment edges always beat the long vertical purple edge plus the top
chord). The check is implemented exactly as stated and reported honestly.
"""

import math

import pytest

from rbpspan.approx import GUARANTEE, UNION_GUARANTEE, approx_a, approx_union, ratio_report
from rbpspan.bench import bench_circle, bench_exact, bench_line, scaling_ratio
from rbpspan.exact import solve_exact
from rbpspan.generators import (
    MartiniParams,
    gen_hexagon,
    gen_martini,
    gen_steiner_family,
    hexagon_star,
)
from rbpspan.graphops import kruskal_mst, solution_stats
from rbpspan.line import solve_line
from rbpspan.circle import solve_circle
from rbpspan.model import INVALID_CLASS, Color
from rbpspan.oracle import oracle_forest, oracle_subsets
from util import edge_rows, edges_properly_cross, seeded_instances, segment_instance

REL = 1e-9


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


@pytest.fixture(scope="module")
def exact_batch():
    """200 seeded random planar instances (n <= 9, k <= 4) with exact solutions
    and independently certified optima; shared by criteria 2, 5, and 6."""
    batch = []
    for inst in seeded_instances(200, n_min=4, n_max=9, k_max=4, base_seed=2000):
        batch.append((inst, solve_exact(inst), oracle_forest(inst)))
    return batch


def test_criterion_1_oracle_self_consistency():
    instances = seeded_instances(50, n_min=4, n_max=8, max_allowed=22, base_seed=100)
    mismatches = sum(
        0 if _close(oracle_forest(i).weight, oracle_subsets(i).weight) else 1
        for i in instances)
    _report(1, mismatches == 0,
            f"oracle_forest vs oracle_subsets on {len(instances)} instances, "
            f"{mismatches} weight mismatches")


def test_criterion_2_exact_matches_oracle(exact_batch):
    mismatches = sum(0 if _close(sol.weight, opt.weight) else 1
                     for _, sol, opt in exact_batch)
    _report(2, mismatches == 0,
            f"solve_exact vs oracle_forest on {len(exact_batch)} instances "
            f"(n <= 9, k <= 4), {mismatches} weight mismatches")


def test_criterion_3_line_solver():
    mismatches = 0
    batch = seeded_instances(100, n_min=5, n_max=14, k_max=6, mode="line",
                             base_seed=300)
    for inst in batch:
        if not _close(solve_line(inst).weight, oracle_forest(inst).weight):
            mismatches += 1
    segment_mismatches = 0
    segments = 60
    for seed in range(segments):
        inst = segment_instance(seed, max_interior=5)
        if not _close(solve_line(inst).weight, oracle_subsets(inst).weight):
            segment_mismatches += 1
    _report(3, mismatches == 0 and segment_mismatches == 0,
            f"solve_line vs oracle_forest on {len(batch)} collinear instances "
            f"({mismatches} mismatches); segment formulas vs oracle_subsets on "
            f"{segments} small segments ({segment_mismatches} mismatches)")


def test_criterion_4_circle_solver():
    batch = seeded_instances(100, n_min=5, n_max=16, k_max=6, mode="circle",
                             base_seed=400)
    mismatches = structure_violations = 0
    for inst in batch:
        sol = solve_circle(inst)
        if not _close(sol.weight, oracle_forest(inst).weight):
            mismatches += 1
        if sol.purple_crossings != 0:
            structure_violations += 1
        rows = edge_rows(sol.edge_set)
        purple = [(u, v) for _, u, v, c in rows if c == Color.PURPLE]
        others = [(u, v) for _, u, v, c in rows if c != Color.PURPLE]
        for pe in purple:
            for oe in others:
                if set(pe) & set(oe):
                    continue
                if edges_properly_cross(inst, pe, oe):
                    structure_violations += 1
        purple_degree = {}
        for u, v in purple:
            purple_degree[u] = purple_degree.get(u, 0) + 1
            purple_degree[v] = purple_degree.get(v, 0) + 1
        if purple_degree and max(purple_degree.values()) > 2:
            structure_violations += 1
    _report(4, mismatches == 0 and structure_violations == 0,
            f"solve_circle vs oracle_forest on {len(batch)} concyclic instances "
            f"({mismatches} mismatches); purple-crossing/chord-crossing/"
            f"purple-degree violations: {structure_violations}")


def test_criterion_5_structural_invariants(exact_batch):
    degree_violations = subset_violations = invalid_edges = 0
    checked_subset = 0
    for inst, sol, _ in exact_batch:
        if sol.max_degree > 18:
            degree_violations += 1
        if (sol.edge_set.color_class == INVALID_CLASS).any():
            invalid_edges += 1
        if inst.general_position_violations():
            continue  # the MST-subset claim assumes distinct pairwise distances
        checked_subset += 1
        red_side = inst.red_side()
        blue_side = inst.blue_side()
        red_mst = set(kruskal_mst(inst, red_side).pairs()) if len(red_side) > 1 else set()
        blue_mst = set(kruskal_mst(inst, blue_side).pairs()) if len(blue_side) > 1 else set()
        for _, u, v, c in edge_rows(sol.edge_set):
            if c == Color.RED and (u, v) not in red_mst:
                subset_violations += 1
            if c == Color.BLUE and (u, v) not in blue_mst:
                subset_violations += 1
    _report(5, degree_violations == 0 and subset_violations == 0
            and invalid_edges == 0,
            f"over {len(exact_batch)} exact solutions: {degree_violations} "
            f"degree-18 violations, {invalid_edges} red-blue edges, "
            f"{subset_violations} side-MST containment violations "
            f"({checked_subset} tie-free instances checked)")


def test_criterion_6_approximation_guarantees(exact_batch):
    a_violations = union_violations = 0
    for inst, _, opt in exact_batch:
        if ratio_report(approx_a(inst), opt, certified=True).violated:
            a_violations += 1
        if ratio_report(approx_union(inst), opt, certified=True).violated:
            union_violations += 1
    ratios = []
    for t in (1, 5, 20, 50):
        fam = gen_steiner_family(t)
        ratios.append(approx_a(fam.instance).weight / fam.two_chain.weight)
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    tightness = 1.50 <= ratios[-1] <= 1.58
    _report(6, a_violations == 0 and union_violations == 0
            and nondecreasing and tightness,
            f"guarantee <= {GUARANTEE} violations: {a_violations}; "
            f"<= {UNION_GUARANTEE} violations: {union_violations}; "
            f"lower-bound family ratios {[round(r, 4) for r in ratios]} "
            f"(nondecreasing: {nondecreasing}, final in [1.50, 1.58]: {tightness})")


def test_criterion_7_crossing_construction_m1():
    result = gen_martini(MartiniParams(m=1, chain_points=2))
    inst = result.instance
    sol = solve_exact(inst)
    opt = oracle_forest(inst)
    weight_ok = _close(sol.weight, opt.weight)
    key = tuple(sorted((result.landmarks["p_N"], result.landmarks["p_S"])))
    crossings = sol.purple_crossings_per_edge.get(key)
    edge_ok = crossings == 2
    _report(7, weight_ok and edge_ok,
            f"exact weight matches oracle: {weight_ok}; edge p_N p_S present "
            f"with 2 purple crossings: {edge_ok} (crossing count: {crossings}; "
            "the construction's boundary attachments always beat this edge "
            "plus the top chord, so the prescribed optimum is never optimal)")


@pytest.mark.slow
def test_criterion_7_crossing_construction_m3_slow():
    result = gen_martini(MartiniParams(m=3, chain_points=2))
    inst = result.instance
    opt = oracle_forest(inst, max_purple=10)
    key = tuple(sorted((result.landmarks["p_N"], result.landmarks["p_S"])))
    crossings = opt.purple_crossings_per_edge.get(key)
    _report(7, crossings == 4,
            f"m=3 optimum contains p_N p_S with 4 purple crossings: "
            f"{crossings == 4} (crossing count: {crossings})")


def test_criterion_8_hexagon_star_optimum():
    inst = gen_hexagon()
    opt = oracle_forest(inst)
    star = solution_stats(hexagon_star(inst))
    ok = abs(opt.weight - 30.0) <= 1e-9 and _close(opt.weight, star.weight)
    _report(8, ok,
            f"oracle optimum {opt.weight:.12f} vs 30.0, star weight "
            f"{star.weight:.12f}, star max degree {star.max_degree}")


def test_criterion_9_scaling():
    line_res = bench_line(sizes=(100_000, 1_000_000), reps=5)
    line_ratio = scaling_ratio(line_res, 100_000, 1_000_000)
    circle_res = bench_circle(ks=(100, 200), reps=5)
    circle_ratio = scaling_ratio(circle_res, 100, 200)
    exact_res = bench_exact(ns=(8, 10, 12, 14), reps=1)
    exact_ok = all(t < 60.0 for t in exact_res.values())
    ok = 8.0 <= line_ratio <= 13.0 and 5.0 <= circle_ratio <= 12.0 and exact_ok
    _report(9, ok,
            f"line 1e6/1e5 time ratio {line_ratio:.2f} (want [8, 13]); "
            f"circle k=200/100 ratio {circle_ratio:.2f} (want [5, 12]; medians "
            f"{circle_res[100] * 1e3:.2f} ms and {circle_res[200] * 1e3:.2f} ms); "
            f"exact n<=14 max {max(exact_res.values()):.2f}s (want < 60)")
