"""Linear-time solver for collinear instances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbpspan.cli import EXIT_OK, main
from rbpspan.line import (
    NotCollinearError,
    chain_sums,
    collinearity_residual,
    prepare_sorted,
    solve_line,
    solve_sorted,
)
from rbpspan.model import parse_instance
from rbpspan.oracle import oracle_forest, oracle_subsets
from util import e1, line_instance, reference_chain, seeded_instances, segment_instance


class TestSolveLine:
    def test_e1(self):
        # [DERIVED: purple edge 10 + attachments 4 + 4]
        sol = solve_line(e1())
        assert sol.weight == pytest.approx(18.0)
        assert sol.solver == "line"

    def test_case_b_drops_largest_gaps(self):
        # [DERIVED: purple edge 10, red cost 10-8=2, blue cost 10-5=5]
        inst = line_instance([("P", 0), ("P", 10), ("R", 1), ("R", 9), ("B", 5)])
        assert solve_line(inst).weight == pytest.approx(17.0)

    def test_purple_chain(self):
        # [DERIVED: no red/blue, chain of purple edges]
        inst = line_instance([("P", 0), ("P", 1), ("P", 3)])
        assert solve_line(inst).weight == pytest.approx(3.0)

    def test_end_segments_attach_to_nearest_purple(self):
        inst = line_instance([("R", -2), ("B", -1), ("P", 0), ("P", 10), ("R", 12)])
        # left: red chain -2 -> 0 (2), blue -1 -> 0 (1); middle purple 10; right 10 -> 12 (2)
        assert solve_line(inst).weight == pytest.approx(15.0)

    def test_no_purple(self):
        inst = line_instance([("R", 0), ("R", 3), ("B", 1), ("B", 2)])
        assert solve_line(inst).weight == pytest.approx(4.0)

    def test_not_collinear_raises_with_residual(self):
        inst = parse_instance("P 0 0\nP 10 0\nR 5 3")
        with pytest.raises(NotCollinearError) as exc:
            solve_line(inst)
        assert exc.value.residual > 1e-9

    def test_nan_tolerance_accepts_nothing(self):
        with pytest.raises(NotCollinearError):
            solve_line(parse_instance("P 0 0\nP 10 0\nR 5 3"), math.nan)

    def test_rotation_invariance(self):
        spec = [("P", 0), ("P", 10), ("R", 4), ("B", 6), ("R", 9)]
        base = solve_line(line_instance(spec)).weight
        c, s = math.cos(0.7), math.sin(0.7)
        rotated = parse_instance(
            "".join(f"{col} {x * c} {x * s}\n" for col, x in spec))
        assert solve_line(rotated).weight == pytest.approx(base)

    def test_matches_oracle_on_random_collinear(self):
        # [DERIVED: oracle_forest cross-validation]
        for inst in seeded_instances(40, n_min=4, n_max=12, k_max=6,
                                     mode="line", base_seed=600):
            assert solve_line(inst).weight == pytest.approx(
                oracle_forest(inst).weight, rel=1e-9)


class TestInteriorSegment:
    def _seg(self, spec):
        """(weight, sorted pairs) of solve_sorted on one segment: purple only at both ends."""
        weight, pairs = solve_sorted(*prepare_sorted(line_instance(spec)))
        return weight, sorted(map(tuple, np.sort(pairs, axis=1).tolist()))

    def test_both_colors_case_b_wins(self):
        # [DERIVED: A=20 vs B=10+4+4=18]
        cost, pairs = self._seg([("P", 0), ("R", 4), ("B", 6), ("P", 10)])
        assert cost == pytest.approx(18.0)
        assert (0, 3) in pairs  # the purple edge

    def test_empty_segment_is_lone_purple_edge(self):
        # [TRIVIAL]
        cost, pairs = self._seg([("P", 0), ("P", 10)])
        assert cost == pytest.approx(10.0) and pairs == [(0, 1)]

    def test_one_color_only(self):
        # [DERIVED: A invalid, B = 10 + (10 - 5) = 15]
        cost, _ = self._seg([("P", 0), ("R", 5), ("P", 10)])
        assert cost == pytest.approx(15.0)

    def test_case_a_wins_when_purple_gap_is_long(self):
        # dense interior of both colors: two chains (2g) beat 3g - gaps
        cost, pairs = self._seg([("P", 0), ("R", 2), ("B", 2.5), ("R", 5),
                                 ("B", 7), ("R", 8), ("B", 9.5), ("P", 10)])
        assert all(p != (0, 7) for p in pairs)  # no purple edge
        assert cost == pytest.approx(20.0)      # both chains in full, 2g

    def test_tie_goes_to_case_b(self):
        # [DERIVED: Case B = 10 + (2 + 2) + (3 + 3) = 20 = Case A = 10 + 10]
        inst = line_instance([("P", 0), ("R", 2), ("B", 3), ("B", 7), ("R", 8), ("P", 10)])
        sol = solve_line(inst)
        assert (0, 5) in sol.edge_set.pairs()
        assert sol.weight == 20.0 == oracle_forest(inst).weight

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=50)
    def test_segment_matches_subset_oracle(self, seed):
        # [DERIVED: exhaustive edge-subset oracle on small segments]
        inst = segment_instance(seed)
        assert solve_line(inst).weight == pytest.approx(
            oracle_subsets(inst).weight, rel=1e-9)


@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=20), min_size=1, max_size=8),
       st.sampled_from([1.0, 10.0]))
@example([[3], [5], [2, 2], [1]], 1.0)
@example([[4, 1, 4, 0, 4, 2, 3, 4, 1, 4, 2, 3, 1]], 10.0)
@settings(deadline=None, max_examples=200)
def test_chain_sums_match_reference(segments, divisor):
    # [DERIVED: equal to the sequential sum, also on tied longest links and on
    # tenths, whose sums depend on the order they are formed in]
    lengths = [m / divisor for segment in segments for m in segment]
    starts = np.zeros(len(lengths), bool)
    starts[np.cumsum([0] + [len(segment) for segment in segments[:-1]])] = True
    full, drop, dropped = chain_sums(np.array(lengths), starts)
    offset, expected = 0, ([], [], [])
    for segment in segments:
        part = lengths[offset:offset + len(segment)]
        drop_sum, longest = reference_chain(part, True)
        for column, value in zip(expected, (reference_chain(part)[0], drop_sum, offset + longest)):
            column.append(value)
        offset += len(segment)
    assert (full.tolist(), drop.tolist(), dropped.tolist()) == expected


def test_solve_sorted_weight_matches_pairs():
    inst = line_instance([("P", 0), ("R", 1), ("B", 2), ("P", 4), ("R", 7)])
    ids, ts, colors = prepare_sorted(inst)
    weight, pairs = solve_sorted(ids, ts, colors)
    total = sum(inst.distance(u, v) for u, v in pairs)
    assert weight == pytest.approx(total)


def test_collinearity_residual_zero_on_lines():
    assert collinearity_residual(line_instance([("P", 0), ("R", 3), ("P", 9)])) == 0.0


@pytest.mark.parametrize("exponent", ["e200", "e-200"])
def test_collinearity_residual_at_extreme_scales(exponent, tmp_path, capsys):
    # [DERIVED: the unit-scale copy's residual is 0.5217; at these scales the
    # unscaled products overflow to inf - inf or underflow to 0 and read 0.0]
    rows = (("P", 0, 0), ("R", 3, 5), ("B", 2, 4), ("P", 6, 3))
    text = "".join(f"{c} {x}{exponent} {y}{exponent}\n" for c, x, y in rows)
    unit = collinearity_residual(parse_instance("".join(f"{c} {x} {y}\n" for c, x, y in rows)))
    residual = collinearity_residual(parse_instance(text))
    assert residual > 0.5 and residual == pytest.approx(unit, rel=1e-12)
    path = tmp_path / "inst.txt"
    path.write_text(text)
    assert main(["solve", str(path), "--algo", "auto"]) == EXIT_OK
    assert "solver line" not in capsys.readouterr().out


def test_collinearity_residual_where_the_spread_overflows():
    # [DERIVED: halving every coordinate keeps each ratio, so the residual is the
    # unit-scale copy's; a spread past the float range read nan before]
    rows = (("P", -3, -2.5), ("R", 0, 2.5), ("B", -1, 1.5), ("P", 3, 0.5))
    unit = collinearity_residual(parse_instance("".join(f"{c} {x} {y}\n" for c, x, y in rows)))
    scale = 5.9e307  # x spans 3.54e308
    huge = parse_instance("".join(f"{c} {x * scale!r} {y * scale!r}\n" for c, x, y in rows))
    assert float(huge.xs.max()) - float(huge.xs.min()) == math.inf
    assert unit > 0.5 and collinearity_residual(huge) == pytest.approx(unit, rel=1e-12)
    line = parse_instance("P 0 0\nP 1e308 0\nP -1e308 0\n")
    assert collinearity_residual(line) == 0.0
    assert prepare_sorted(line)[0].tolist() == [2, 0, 1]
