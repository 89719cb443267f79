"""Instance generators: determinism, certificates, and construction properties."""

import math

import pytest

from rbpspan.circle import fit_circle
from rbpspan.generators import (
    MartiniParams,
    gen_hexagon,
    gen_martini,
    gen_random,
    gen_steiner_family,
    hexagon_star,
)
from rbpspan.graphops import is_rbp_spanning, solution_stats
from rbpspan.line import collinearity_residual
from rbpspan.model import Color, PreconditionError
from rbpspan.oracle import oracle_forest


def _same_points(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("xs", "ys", "colors"))


class TestGenRandom:
    def test_deterministic(self):
        # [TRIVIAL: determinism]
        a = gen_random(5, 0.4, 0.4, "plane", seed=7)
        b = gen_random(5, 0.4, 0.4, "plane", seed=7)
        assert _same_points(a, b)

    def test_line_mode_is_collinear(self):
        # [TRIVIAL]
        inst = gen_random(20, 0.3, 0.3, "line", seed=3)
        assert collinearity_residual(inst) <= 1e-9

    def test_circle_mode_is_concyclic(self):
        # [TRIVIAL]
        inst = gen_random(20, 0.3, 0.3, "circle", seed=3)
        assert fit_circle(inst)[3] <= 1e-9

    @pytest.mark.parametrize("args", [(0, 0.4, 0.4, "plane"),
                                      (5, 0.8, 0.8, "plane"),
                                      (5, -0.1, 0.4, "plane"),
                                      (5, 0.4, 0.4, "sphere")])
    def test_bad_arguments(self, args):
        with pytest.raises(PreconditionError):
            gen_random(*args, seed=0)


class TestHexagon:
    def test_counts(self):
        inst = gen_hexagon()
        assert inst.n == 19 and inst.k == 7  # center + three hexagons
        assert inst.colors.tolist().count(Color.RED) == inst.colors.tolist().count(Color.BLUE) == 6

    def test_star_weight_and_degree(self):
        # [PAPER-derived: 6*3 + 6*1 + 6*1 = 30, center degree 18]
        inst = gen_hexagon()
        sol = solution_stats(hexagon_star(inst), solver="star")
        assert sol.weight == pytest.approx(30.0)
        assert sol.max_degree == 18

    def test_star_is_optimal(self):
        # [DERIVED: oracle_forest with k=7]
        inst = gen_hexagon()
        assert oracle_forest(inst).weight == pytest.approx(30.0, abs=1e-9)

    @pytest.mark.parametrize("rot", [0.0, math.pi / 6.0, -0.1])
    def test_rotation_bounds(self, rot):
        with pytest.raises(PreconditionError):
            gen_hexagon(rot)


class TestSteinerFamily:
    def test_t0_triangle(self):
        # [DERIVED: optimum is the two shortest sides of the unit triangle]
        fam = gen_steiner_family(0)
        assert fam.instance.n == 3 and fam.instance.k == 3
        assert oracle_forest(fam.instance).weight == pytest.approx(2.0)
        assert fam.two_chain.weight == pytest.approx(2.0)

    def test_counts(self):
        fam = gen_steiner_family(4)
        inst = fam.instance
        assert inst.k == 3
        assert inst.colors.tolist().count(Color.RED) == inst.colors.tolist().count(Color.BLUE) == 12

    def test_two_chain_is_feasible(self):
        for t in (0, 1, 5):
            fam = gen_steiner_family(t)
            assert is_rbp_spanning(fam.two_chain)

    def test_two_chain_weight_approaches_twice_smt(self):
        # [DERIVED: each chain tends to the Steiner minimal tree weight sqrt(3)]
        fam = gen_steiner_family(50)
        assert fam.two_chain.weight == pytest.approx(2.0 * math.sqrt(3.0), rel=0.06)

    def test_negative_t_rejected(self):
        with pytest.raises(PreconditionError):
            gen_steiner_family(-1)


class TestMartini:
    def test_counts_m1(self):
        # [DERIVED: 6 purple points and 8 chain points, n = 14]
        result = gen_martini(MartiniParams(m=1, chain_points=2))
        inst = result.instance
        assert inst.k == 6 and inst.n == 14
        assert set(result.landmarks) == {"p_N", "p_S", "p_W", "p_E",
                                         "q_0", "q_1", "r_0", "r_1"}

    def test_landmark_colors(self):
        result = gen_martini(MartiniParams())
        inst = result.instance
        for name, pid in result.landmarks.items():
            assert inst.color_of(pid) == Color.PURPLE

    def test_level_inequality(self):
        # The level chord-to-step inequality quoted by the construction.
        result = gen_martini(MartiniParams(m=3, eps=1e-3))
        inst = result.instance
        lm = result.landmarks
        for i in range(3):
            qq = inst.distance(lm[f"q_{i}"], lm[f"q_{i + 1}"])
            qr = inst.distance(lm[f"q_{i}"], lm[f"r_{i}"])
            assert qq > 0.5 * qr

    def test_triangle_inequality_over_circle_purples(self):
        # ||p_N nu|| + ||p_S eta|| > ||p_N p_S|| for all circle purples.
        result = gen_martini(MartiniParams())
        inst = result.instance
        lm = result.landmarks
        circle = [pid for name, pid in lm.items()
                  if name[0] in "qr" and "_" in name]
        d_ns = inst.distance(lm["p_N"], lm["p_S"])
        for nu in circle:
            for eta in circle:
                assert inst.distance(lm["p_N"], nu) \
                    + inst.distance(lm["p_S"], eta) > d_ns

    def test_deterministic(self):
        a = gen_martini(MartiniParams())
        b = gen_martini(MartiniParams())
        assert _same_points(a.instance, b.instance)
        assert a.landmarks == b.landmarks

    def test_even_m_rejected(self):
        with pytest.raises(PreconditionError):
            gen_martini(MartiniParams(m=2))

    def test_infeasible_eps0_rejected(self):
        with pytest.raises(PreconditionError):
            gen_martini(MartiniParams(eps0=5.0))
