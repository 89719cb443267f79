"""Point-set model: parsing, edge classes, counting, and crossing predicates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbpspan.generators import gen_hexagon
from rbpspan.model import (
    Color,
    Instance,
    InstanceFormatError,
    Point,
    PreconditionError,
    allowed_edge_count,
    allowed_edges,
    edge_between,
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
        assert inst.R == (2,) and inst.B == (3,) and inst.P == (0, 1)

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
        assert again.points == inst.points

    def test_dense_ids_enforced(self):
        with pytest.raises(InstanceFormatError):
            Instance([Point(1, Color.RED, 0.0, 0.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(InstanceFormatError):
            Instance([Point(0, Color.RED, math.inf, 0.0)])

    def test_instance_immutable(self):
        inst = e1()
        with pytest.raises(AttributeError):
            inst.points = ()


class TestEdges:
    def test_purple_purple(self):
        # [TRIVIAL: definition]
        inst = parse_instance("P 0 0\nP 10 0")
        e = edge_between(inst, 0, 1)
        assert e.length == 10.0 and e.color_class == Color.PURPLE

    def test_red_blue_invalid(self):
        # [TRIVIAL: red-blue edges are not allowed]
        assert edge_color(Color.RED, Color.BLUE) is None
        assert edge_color(Color.BLUE, Color.RED) is None

    def test_red_purple_three_four_five(self):
        # [TRIVIAL: 3-4-5 triangle]
        inst = parse_instance("R 0 0\nP 3 4")
        e = edge_between(inst, 0, 1)
        assert e.length == 5.0 and e.color_class == Color.RED

    def test_self_edge_rejected(self):
        with pytest.raises(PreconditionError):
            edge_between(e1(), 2, 2)

    @pytest.mark.parametrize("u, v", [(-1, 2), (2, -1), (0, 4), (4, 0), (-1, 4)])
    def test_unknown_point_id_rejected(self, u, v):
        # e1 has point ids 0..3; a negative id must not index from the end.
        with pytest.raises(PreconditionError, match="unknown point id"):
            edge_between(e1(), u, v)
        with pytest.raises(PreconditionError, match="unknown point id"):
            make_edge_set(e1(), [(u, v)])

    def test_canonical_order_and_sort_key(self):
        e = edge_between(e1(), 1, 0)
        assert (e.u, e.v) == (0, 1)
        assert e.sort_key == (e.length, 0, 1)


class TestAllowedEdges:
    def test_three_purple(self):
        # [TRIVIAL]
        assert allowed_edge_count(0, 0, 3) == 3

    def test_two_red_two_blue(self):
        # [TRIVIAL]
        assert allowed_edge_count(2, 2, 0) == 2

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    @settings(deadline=None, max_examples=40)
    def test_count_matches_enumeration(self, nr, nb, np_):
        if nr + nb + np_ == 0:
            return
        pts = []
        for color, cnt in ((Color.RED, nr), (Color.BLUE, nb), (Color.PURPLE, np_)):
            for _ in range(cnt):
                i = len(pts)
                pts.append(Point(i, color, float(i), float(i * i)))  # distinct coords
        inst = Instance(pts)
        assert len(allowed_edges(inst)) == allowed_edge_count(nr, nb, np_)

    def test_sorted_by_length_then_ids(self):
        edges = allowed_edges(e1())
        keys = [e.sort_key for e in edges]
        assert keys == sorted(keys)


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


class TestRoundTrip:
    @given(st.lists(st.tuples(st.sampled_from("RBP"),
                              st.integers(-1000, 1000),
                              st.integers(-1000, 1000)),
                    min_size=1, max_size=12))
    @settings(deadline=None, max_examples=60)
    def test_parse_serialize_round_trip(self, rows):
        seen = set()
        lines = []
        for c, xi, yi in rows:
            x, y = xi / 7.0, yi / 13.0
            if (x, y) in seen:
                continue
            seen.add((x, y))
            lines.append(f"{c} {x!r} {y!r}")
        if not lines:
            return
        inst = parse_instance("\n".join(lines))
        assert parse_instance(serialize_instance(inst)).points == inst.points


def test_general_position_violations_reported_not_fatal():
    # Unit square: all four sides tie at length 1.
    inst = parse_instance("P 0 0\nP 1 0\nP 0 1\nP 1 1")
    assert len(inst.general_position_violations()) >= 3
    inst2 = parse_instance("P 0 0\nP 1 0\nP 10 0")
    assert inst2.general_position_violations() == []
