"""Point-set model: parsing, edge classes, counting, and crossing predicates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rbpspan.generators import gen_hexagon, gen_random
from rbpspan.graphops import sorted_side_pairs
from rbpspan.model import (
    Color,
    Instance,
    InstanceFormatError,
    PreconditionError,
    allowed_edges,
    edge_color,
    make_edge_set,
    parse_instance,
    segments_properly_cross,
    serialize_instance,
)
from util import e1


class TestParsing:
    def test_basic_fields(self):
        # [TRIVIAL: direct field mapping]
        inst = parse_instance("P 0 0\nP 10 0\nR 4 0\nB 6 0")
        assert inst.n == 4 and inst.k == 2
        assert inst.colors.tolist() == [2, 2, 0, 1] and inst.P == (0, 1)

    def test_duplicate_point_rejected(self):
        # [TRIVIAL: coincidence rejection]
        with pytest.raises(InstanceFormatError):
            parse_instance("P 0 0\n# c\nP 0 0")

    def test_comments_and_blank_lines(self):
        inst = parse_instance("# header\n\nP 1 2  # trailing\n")
        assert inst.n == 1 and inst.coords(0) == (1.0, 2.0)

    @pytest.mark.parametrize("text", ["X 0 0", "P 0", "P a 0", "P 0 0 0"])
    def test_malformed_lines(self, text):
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_hexagon_round_trip_bit_identical(self):
        # [DERIVED: round-trip property over generator outputs]
        inst = gen_hexagon()
        again = parse_instance(serialize_instance(inst))
        for name in ("xs", "ys", "colors"):
            assert getattr(again, name).tobytes() == getattr(inst, name).tobytes()

    def test_nonfinite_rejected(self):
        with pytest.raises(InstanceFormatError):
            Instance([math.inf], [0.0], [Color.RED])

    def test_instance_immutable(self):
        inst = e1()
        with pytest.raises(AttributeError):
            inst.xs = ()

    def test_arrays_are_read_only_copies(self):
        # [DERIVED: xs, ys and colors are the only stored form of the points]
        xs = [0.0, 10.0, 4.0, 6.0]
        inst = Instance(xs, [0.0] * 4, [Color.PURPLE, Color.PURPLE, Color.RED, Color.BLUE])
        xs[0] = 99.0
        assert inst.xs.tolist() == [0.0, 10.0, 4.0, 6.0] and inst.ys.tolist() == [0.0] * 4
        assert inst.colors.dtype == np.int8 and inst.colors.tolist() == [2, 2, 0, 1]
        assert inst.P == (0, 1) and not hasattr(inst, "R") and not hasattr(inst, "B")
        assert not inst.xs.flags.writeable and not inst.colors.flags.writeable
        assert not hasattr(inst, "points")
        again = Instance(inst.xs, inst.ys, inst.colors)
        for name in ("xs", "ys", "colors", "P"):
            assert str(getattr(again, name)) == str(getattr(inst, name))

    @pytest.mark.parametrize("xs, ys, colors", [([0.0, 1.0], [0.0], [0, 0]),
                                                ([[0.0]], [[0.0]], [[0]])])
    def test_array_shapes_checked(self, xs, ys, colors):
        with pytest.raises(InstanceFormatError, match="1-d arrays of one length"):
            Instance(xs, ys, colors)


# (rows, message): rows are (color, x, y) in input order.
FORMAT_ERROR_CASES = {
    "no points": ([], "instance has no points"),
    "first non-finite": ([("P", 0.0, 0.0), ("R", 1.0, math.inf), ("B", math.nan, 2.0)],
                         "point 1 has non-finite coordinates"),
    "non-finite after a coincidence": ([("P", 0.0, 0.0), ("R", 0.0, 0.0), ("B", math.inf, 0.0)],
                                       "point 2 has non-finite coordinates"),
    "zero and negative zero": ([("P", 0.0, 1.0), ("R", -0.0, 1.0)],
                               "points 0 and 1 coincide at (-0.0, 1.0)"),
    "two duplicate groups": ([("P", 1.0, 1.0), ("B", 0.0, 0.0), ("R", 2.0, 2.0), ("P", -0.0, 0.0),
                              ("B", 1.0, 1.0)], "points 1 and 3 coincide at (-0.0, 0.0)"),
    "third of a group": ([("P", 5.0, 5.0), ("R", 1.0, 1.0), ("B", 5.0, 5.0), ("P", 5.0, 5.0)],
                         "points 0 and 2 coincide at (5.0, 5.0)"),
}


@pytest.mark.parametrize("rows, message", FORMAT_ERROR_CASES.values(),
                         ids=FORMAT_ERROR_CASES.keys())
def test_instance_format_error_messages(rows, message):
    # [DERIVED: finiteness first, then the first point that repeats an earlier
    # one's place, named with that one; the constructor and the parser agree]
    colors = ["RBP".index(c) for c, _, _ in rows]
    with pytest.raises(InstanceFormatError) as raised:
        Instance([x for _, x, _ in rows], [y for _, _, y in rows], colors)
    assert str(raised.value) == message
    with pytest.raises(InstanceFormatError) as raised:
        parse_instance("".join(f"{c} {x!r} {y!r}  # point\n" for c, x, y in rows))
    assert str(raised.value) == message


@pytest.mark.parametrize("colors, message", [
    ([5, 0], "point 0 has color code 5, not 0, 1 or 2"),
    ([2.7, 2], "point 0 has color code 2.7, not 0, 1 or 2"),
    ([2, 300], "point 1 has color code 300, not 0, 1 or 2"),
    ([0, -1], "point 1 has color code -1, not 0, 1 or 2"),
    ([math.nan, 1], "point 0 has color code nan, not 0, 1 or 2"),
])
def test_color_codes_checked(colors, message):
    # [TRIVIAL: a code outside RED, BLUE, PURPLE is not cast or wrapped into one]
    with pytest.raises(InstanceFormatError) as raised:
        Instance([0.0, 1.0], [0.0, 0.0], colors)
    assert str(raised.value) == message
    assert Instance([0.0, 1.0], [0.0, 0.0], [2.0, np.int64(1)]).colors.tolist() == [2, 1]


class TestEdges:
    def test_purple_purple(self):
        # [TRIVIAL: definition]
        es = make_edge_set(parse_instance("P 0 0\nP 10 0"), [(0, 1)])
        assert es.length[0] == 10.0 and es.color_class[0] == Color.PURPLE

    def test_red_blue_invalid(self):
        # [TRIVIAL: red-blue edges are not allowed]
        assert edge_color(Color.RED, Color.BLUE) is None
        assert edge_color(Color.BLUE, Color.RED) is None

    def test_red_purple_three_four_five(self):
        # [TRIVIAL: 3-4-5 triangle]
        es = make_edge_set(parse_instance("R 0 0\nP 3 4"), [(0, 1)])
        assert es.length[0] == 5.0 and es.color_class[0] == Color.RED

    # A self edge is rejected by make_edge_set, as test_graphops'
    # TestMakeEdgeSet::test_errors checks with [(2, 2)] and [(0, 1), (3, 3)].

    @pytest.mark.parametrize("u, v", [(-1, 2), (2, -1), (0, 4), (4, 0), (-1, 4)])
    def test_unknown_point_id_rejected(self, u, v):
        # e1 has point ids 0..3; a negative id must not index from the end.
        with pytest.raises(PreconditionError, match="unknown point id"):
            make_edge_set(e1(), [(u, v)])

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1, 2), (3,)], "an edge is not a pair of integer point ids"),
        ([(0, 1), (2,)], "an edge is not a pair of integer point ids"),
        ([(0.5, 1)], "an edge is not a pair of integer point ids"),
        ([3], "an edge is not a pair of integer point ids"),
        (np.array([[0.7, 1.2]]),
         "edge array of shape (1, 2) and dtype float64 is not (m, 2) integer ids"),
        (np.array([0, 1, 2]), "edge array of shape (3,) and dtype int64 is not (m, 2) integer ids"),
        (np.array([[0, 1, 2]]),
         "edge array of shape (1, 3) and dtype int64 is not (m, 2) integer ids"),
    ])
    def test_input_that_is_not_id_pairs_rejected(self, pairs, message):
        with pytest.raises(PreconditionError) as raised:
            make_edge_set(e1(), pairs)
        assert str(raised.value) == message

    def test_integer_ids_of_any_type(self):
        for pairs in ([(np.int64(1), 0), (True, 2)], np.array([[1, 0], [1, 2]], dtype=np.uint8),
                      np.array([[1, 0], [1, 2]], dtype=np.int32)):
            assert make_edge_set(e1(), pairs).pairs() == [(1, 2), (0, 1)]

    @pytest.mark.parametrize("big", [2 ** 63, 2 ** 64 - 1])
    def test_id_beyond_int64_named_as_such(self, big):
        # A uint64 id past int64 must not wrap to a negative id before the check.
        for pairs in ([(0, big)], np.array([[0, big]], dtype=np.uint64),
                      np.array([[1, 0], [big, 2]], dtype=np.uint64)):
            with pytest.raises(PreconditionError) as raised:
                make_edge_set(e1(), pairs)
            assert str(raised.value) == "an edge references a point id beyond int64"

    def test_canonical_order(self):
        es = make_edge_set(e1(), [(1, 0)])
        assert es.pairs() == [(0, 1)]
        assert es.length.tolist() == [e1().distance(0, 1)]


def _allowed_count(nr, nb, np_):
    """Closed-form count of allowed edges: the two sides' pairs, purple pairs once."""
    return math.comb(nr + np_, 2) + math.comb(nb + np_, 2) - math.comb(np_, 2)


def _counts(inst):
    """(len(allowed_edges), len(sorted_side_pairs)) over every class and point."""
    return (len(allowed_edges(inst).u),
            len(sorted_side_pairs(inst, tuple(Color), range(inst.n))))


class TestAllowedEdges:
    def test_three_purple(self):
        # [TRIVIAL]
        inst = parse_instance("P 0 0\nP 1 0\nP 0 1")
        assert _counts(inst) == (3, 3) == (_allowed_count(0, 0, 3),) * 2

    def test_two_red_two_blue(self):
        # [TRIVIAL]
        inst = parse_instance("R 0 0\nR 1 0\nB 0 1\nB 1 1")
        assert _counts(inst) == (2, 2) == (_allowed_count(2, 2, 0),) * 2

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    @settings(deadline=None, max_examples=40)
    def test_count_matches_enumeration(self, nr, nb, np_):
        if nr + nb + np_ == 0:
            return
        colors = [Color.RED] * nr + [Color.BLUE] * nb + [Color.PURPLE] * np_
        n = len(colors)
        inst = Instance(range(n), [i * i for i in range(n)], colors)  # distinct coords
        assert _counts(inst) == (_allowed_count(nr, nb, np_),) * 2

    def test_sorted_by_length_then_ids(self):
        # [DERIVED: every allowed pair with its length and class, sorted by (length, u, v)]
        lattice = "".join(f"{'RBP'[(x + 2 * y) % 3]} {x} {y}\n" for x in range(4) for y in range(3))
        for inst in (e1(), parse_instance(lattice), gen_hexagon()):
            expected = sorted((inst.distance(u, v), u, v, edge_color(inst.color_of(u),
                                                                     inst.color_of(v)))
                              for u in range(inst.n) for v in range(u + 1, inst.n)
                              if edge_color(inst.color_of(u), inst.color_of(v)) is not None)
            es = allowed_edges(inst)
            assert list(zip(es.length.tolist(), es.u.tolist(), es.v.tolist(),
                            es.color_class.tolist())) == expected


class TestCrossing:
    def test_x_crossing(self):
        # [TRIVIAL: X crossing]
        assert segments_properly_cross((0, 0), (1, 1), (0, 1), (1, 0))

    def test_disjoint_collinear(self):
        # [TRIVIAL: disjoint collinear]
        assert not segments_properly_cross((0, 0), (1, 0), (2, 0), (3, 0))

    def test_endpoint_touch_not_proper(self):
        # [DERIVED: open-segment convention, exact rational arithmetic near zero]
        assert not segments_properly_cross((0, 0), (2, 2), (1, 1), (3, 0))

    def test_shared_endpoint_rejected(self):
        with pytest.raises(PreconditionError):
            segments_properly_cross((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlap_not_proper(self):
        assert not segments_properly_cross((0, 0), (3, 0), (1, 0), (4, 0))

    @given(st.tuples(*[st.integers(-20, 20)] * 8))
    @settings(deadline=None, max_examples=100)
    def test_symmetry(self, c):
        a, b, cc, d = (c[0], c[1]), (c[2], c[3]), (c[4], c[5]), (c[6], c[7])
        if len({a, b, cc, d}) < 4 or a == b or cc == d:
            return
        r = segments_properly_cross(a, b, cc, d)
        assert segments_properly_cross(cc, d, a, b) == r       # segment swap
        assert segments_properly_cross(b, a, d, cc) == r       # endpoint reversal


# Coordinates whose text form is easy to get wrong: signed zeros, subnormals, huge values.
EXTREME_COORDS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.7976931348623157e308]


class TestRoundTrip:
    @given(st.lists(st.tuples(st.sampled_from("RBP"),
                              st.one_of(st.integers(-1000, 1000).map(lambda i: i / 7.0),
                                        st.sampled_from(EXTREME_COORDS)),
                              st.one_of(st.integers(-1000, 1000).map(lambda i: i / 13.0),
                                        st.sampled_from(EXTREME_COORDS))),
                    min_size=1, max_size=12))
    @settings(deadline=None, max_examples=100)
    def test_parse_serialize_round_trip(self, rows):
        seen = set()
        lines = []
        for c, x, y in rows:
            if (x, y) in seen:  # -0.0 == 0.0: such points coincide
                continue
            seen.add((x, y))
            lines.append(f"{c} {x!r} {y!r}")
        inst = parse_instance("\n".join(lines))
        again = parse_instance(serialize_instance(inst))
        for name in ("xs", "ys", "colors"):  # bitwise: -0.0 differs from 0.0
            assert getattr(again, name).tobytes() == getattr(inst, name).tobytes()

    @seed(20161)
    @given(st.lists(st.tuples(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                        st.sampled_from(EXTREME_COORDS + [1e308, -1e308])),
                              st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                        st.sampled_from(EXTREME_COORDS + [1e308, -1e308])),
                              st.sampled_from(Color)),
                    min_size=1, max_size=12, unique_by=lambda row: row[:2]))
    @settings(deadline=None, max_examples=150)
    def test_constructor_serialize_parse_round_trip(self, rows):
        # [DERIVED: %.17g names every finite float exactly; unique_by treats -0.0 as 0.0,
        # as the coincidence check does]
        xs, ys, colors = zip(*rows)
        inst = Instance(xs, ys, colors)
        again = parse_instance(serialize_instance(inst))
        for name in ("xs", "ys", "colors"):
            assert getattr(again, name).tobytes() == getattr(inst, name).tobytes()


@pytest.mark.parametrize("text, least", [
    ("P 0 0\nR 3 4\nB 0 5\nP 5 0\nR 1e-9 5\nB 2.5 2.5000000000001\n", 3),
    # Lengths past the float range are inf, and no length ties an inf one: no tie, no warning.
    ("P -1.5e308 -1.5e308\nP 0 0\nP 1.5e308 1.5e308\nR 1.5e308 -1.5e308\nB 0 1\n", 0),
    ("".join(f"P {x} {y}\n" for x in range(5) for y in range(4)), 100),
    ("P 0 0\n", 0),
    # 79,800 pairs: more than one block of lengths.
    ("".join(f"P {x} {y}\n" for x in range(20) for y in range(20)), 70_000),
], ids=["near_ties", "inf_lengths", "lattice", "one_point", "blocks"])
def test_general_position_violations_match_pairwise_distances(text, least):
    # [DERIVED: the definition, one `distance` call per pair, sorted by (length, u, v)]
    inst = parse_instance(text)
    dists = sorted((inst.distance(u, v), u, v) for u in range(inst.n) for v in range(u + 1, inst.n))
    expected = [((u1, v1), (u2, v2), d1, d2)
                for (d1, u1, v1), (d2, u2, v2) in zip(dists, dists[1:])
                if d2 - d1 <= 1e-12 * max(1.0, d2) and d2 < math.inf]
    assert len(expected) >= least
    assert inst.general_position_violations() == expected


def test_general_position_violations_memory_budget():
    # At most four 8-byte arrays a pair live at once: the lengths, the sort order, the
    # reordered lengths and the two int32 id arrays. The bound, 36 bytes a pair, is
    # far below the 56 of int64 ids with every array kept until all were reordered.
    inst = gen_random(1000, 0.4, 0.4, "plane", seed=1)
    tracemalloc.start()
    try:
        inst.general_position_violations()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 36 * (1000 * 999 // 2)


def test_general_position_violations_reported_not_fatal():
    # Unit square: all four sides tie at length 1.
    inst = parse_instance("P 0 0\nP 1 0\nP 0 1\nP 1 1")
    assert len(inst.general_position_violations()) >= 3
    inst2 = parse_instance("P 0 0\nP 1 0\nP 10 0")
    assert inst2.general_position_violations() == []
