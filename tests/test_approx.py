"""Approximation algorithms and ratio instrumentation."""

import math

import pytest

from rbpspan.approx import (
    GUARANTEE,
    RHO_UPPER,
    UNION_GUARANTEE,
    approx_a,
    approx_union,
    ratio_report,
)
from rbpspan.exact import solve_exact
from rbpspan.generators import gen_hexagon, gen_steiner_family
from rbpspan.graphops import is_rbp_spanning
from rbpspan.model import PreconditionError, make_edge_set, parse_instance
from rbpspan.oracle import oracle_forest
from util import e1, seeded_instances


def test_guarantee_constant():
    # [PAPER-derived constant: half the Steiner-ratio bound plus one]
    assert GUARANTEE == pytest.approx(0.5 * RHO_UPPER + 1.0) == pytest.approx(1.605)
    assert UNION_GUARANTEE == 2.0


class TestApproxUnion:
    def test_e1_two_chains(self):
        # [DERIVED: two independent chains of length 10, ratio 20/18]
        sol = approx_union(e1())
        assert sol.weight == pytest.approx(20.0)
        rep = ratio_report(e1(), sol, 18.0, certified=True)
        assert rep.ratio == pytest.approx(20.0 / 18.0)
        assert not rep.violated

    def test_all_purple_collapses_to_mst(self):
        # [TRIVIAL: both side MSTs coincide on all-purple input]
        inst = parse_instance("P 0 0\nP 1 0\nP 3 0")
        sol = approx_union(inst)
        assert sol.weight == pytest.approx(3.0)
        assert ratio_report(inst, sol, oracle_forest(inst)).ratio == pytest.approx(1.0)

    def test_ratio_within_two_on_random_batch(self):
        # [DERIVED: 2-approximation over certified optima]
        for inst in seeded_instances(40, n_min=4, n_max=9, k_max=4, base_seed=1000):
            opt = solve_exact(inst)
            rep = ratio_report(inst, approx_union(inst), opt, certified=True)
            assert rep.ratio <= 2.0 + 1e-9 and not rep.violated


class TestApproxA:
    def test_e1_optimal(self):
        # [DERIVED: MST(P) is the purple edge; attachments are optimal here]
        sol = approx_a(e1())
        assert sol.weight == pytest.approx(18.0)
        assert ratio_report(e1(), sol, 18.0).ratio == pytest.approx(1.0)

    def test_hexagon_weight_30(self):
        # [DERIVED: MST(P) = 18, six red and six blue unit attachments]
        sol = approx_a(gen_hexagon())
        assert sol.weight == pytest.approx(30.0)

    def test_ratio_within_guarantee_on_random_batch(self):
        # [DERIVED: batch run against certified optima]
        for inst in seeded_instances(40, n_min=4, n_max=9, k_max=4, base_seed=1100):
            opt = solve_exact(inst)
            rep = ratio_report(inst, approx_a(inst), opt, certified=True)
            assert rep.ratio <= GUARANTEE + 1e-9 and not rep.violated

    def test_output_is_spanning(self):
        for inst in seeded_instances(20, n_min=3, n_max=10, base_seed=1200):
            for solver in (approx_a, approx_union):
                sol = solver(inst)
                assert is_rbp_spanning(inst, sol.edge_set)


class TestSteinerFamilyRatio:
    def test_t5_between_one_and_guarantee_limit(self):
        fam = gen_steiner_family(5)
        rep = ratio_report(fam.instance, approx_a(fam.instance), fam.two_chain)
        assert 1.0 < rep.ratio < 1.0 + 1.0 / math.sqrt(3.0)


class TestRatioReport:
    def test_non_spanning_reference_rejected(self):
        inst = e1()
        bad = make_edge_set(inst, [(0, 1)])
        with pytest.raises(PreconditionError):
            ratio_report(inst, approx_a(inst), bad)

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(PreconditionError):
            ratio_report(e1(), approx_a(e1()), 0.0)

    @pytest.mark.parametrize("ref", [math.nan, math.inf, -math.inf])
    def test_nonfinite_reference_rejected(self, ref):
        # A nan reference would give ratio nan and never flag a violation; inf would give 0.
        with pytest.raises(PreconditionError, match="positive and finite"):
            ratio_report(e1(), approx_a(e1()), ref, certified=True)

    def test_solver_without_guarantee_rejected(self):
        # An exact solution has no approximation guarantee to be judged against.
        with pytest.raises(PreconditionError, match="no approximation guarantee"):
            ratio_report(e1(), solve_exact(e1()), 18.0)

    def test_violation_flag_only_when_certified(self):
        inst = e1()
        sol = approx_a(inst)
        # Absurdly small reference: flagged only if claimed to be the optimum.
        assert ratio_report(inst, sol, 1.0, certified=True).violated
        assert not ratio_report(inst, sol, 1.0, certified=False).violated
