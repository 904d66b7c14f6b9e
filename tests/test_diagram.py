"""Tests for diagram parsing, family generators, moves, and strand extraction."""

import pytest

from biqknot.diagram import (
    Crossing,
    DiagramError,
    ParseError,
    SemiarcDiagram,
    apply_r1,
    apply_r2,
    chain,
    connected_sum,
    parse_pd,
    pretzel,
    pretzel_layout,
    serialize_pd,
    strands,
    torus_2n,
    unknot,
)


def test_parse_single_kink():
    d = parse_pd("X+ 0 1 1 0\n")
    assert d.semiarc_count == 2
    assert len(d.crossings) == 1
    assert d.crossings[0] == Crossing(1, 0, 1, 1, 0)
    assert d.component_count() == 1


def test_parse_free_loop_only():
    d = parse_pd("L 1\n")
    assert d.semiarc_count == 0
    assert d.crossings == ()
    assert d.free_loops == 1


def test_parse_dangling_semiarc():
    # 1 is consumed but never produced, 2 produced but never consumed
    with pytest.raises(ParseError, match="semiarc 1 has no source") as e:
        parse_pd("X+ 0 1 2 0\n")
    assert "semiarc 2 has no destination" in str(e.value)
    assert e.value.line == 1


def test_parse_duplicate_consumer_reports_line():
    text = "X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\nX- 0 1 6 7\n"
    with pytest.raises(ParseError) as e:
        parse_pd(text)
    assert e.value.line == 4


def test_parse_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_pd("X+ 0 1 1 0\nX+ 3 4\n")
    with pytest.raises(ParseError, match="unknown record"):
        parse_pd("Y+ 0 1 1 0\n")


def test_round_trip_families():
    for d in (torus_2n(4), pretzel([3, 3, 3]), chain(5), unknot(), unknot(2)):
        assert parse_pd(serialize_pd(d)) == d
    text = "X+ 0 1 3 2\nX+ 2 3 1 0\n"
    assert serialize_pd(parse_pd(text)) == text


def test_parse_renumbers_sparse_ids():
    sparse = "X+ 10 20 30 40\nX+ 30 40 10 20\n"
    d = parse_pd(sparse)
    assert d.semiarc_count == 4
    assert serialize_pd(d) == "X+ 0 1 2 3\nX+ 2 3 0 1\n"


def test_virtual_crossings_erased():
    # T(2,4) with a virtual crossing detouring two semiarcs: merging the
    # detour ids back reproduces the classical diagram exactly
    text = ("X+ 0 1 3 2\n"
            "X+ 2 3 5 4\n"
            "X+ 4 5 8 9\n"   # outputs detour through the virtual crossing
            "V 8 9 7 6\n"    # 8 continues as 7, 9 continues as 6
            "X+ 6 7 1 0\n")
    d = parse_pd(text)
    assert d.semiarc_count == 8
    assert len(d.crossings) == 4
    assert d == torus_2n(4)


def test_purely_virtual_component_becomes_free_loop():
    d = parse_pd("X+ 0 1 1 0\nV 2 3 3 2\n")
    assert d.free_loops == 1
    assert d.semiarc_count == 2


def test_validation_rejects_double_head():
    with pytest.raises(DiagramError):
        SemiarcDiagram(2, (Crossing(1, 0, 0, 1, 1),))


def test_torus_structure():
    t1 = torus_2n(1)
    assert serialize_pd(t1) == "X+ 0 1 1 0\n"
    t3 = torus_2n(3)
    assert t3.semiarc_count == 6
    assert t3.component_count() == 1
    assert torus_2n(4).component_count() == 2
    assert torus_2n(5).component_count() == 1
    for i, c in enumerate(torus_2n(4).crossings):
        assert (c.u_in, c.o_in) == (2 * i, 2 * i + 1)


def test_unknot_kinks():
    assert unknot().component_count() == 1
    k2 = unknot(2)
    assert len(k2.crossings) == 2
    assert k2.component_count() == 1


def test_unknot_matches_r1_fold():
    # the chain of kinks is torus_2n(1) with a positive kink added on semiarc 0
    # k - 1 times, built in one pass
    folded = torus_2n(1)
    for k in range(1, 61):
        assert unknot(k) == folded
        folded = apply_r1(folded, 0, +1)
    assert unknot(3).crossings == (Crossing(1, 3, 1, 1, 0), Crossing(1, 5, 2, 2, 3),
                                   Crossing(1, 0, 4, 4, 5))
    with pytest.raises(ValueError):
        unknot(-1)


def test_pretzel_one_band_single_twist():
    d = pretzel([1])
    assert len(d.crossings) == 1
    assert d.semiarc_count == 2
    assert d.component_count() == 1


def test_pretzel_band_signs_uniform():
    # all crossings of a positive band share a sign; a negative band flips it
    d = pretzel([3])
    signs = {c.sign for c in d.crossings}
    assert len(signs) == 1
    d2 = pretzel([-3])
    assert {c.sign for c in d2.crossings} == {-signs.pop()}


def test_pretzel_p929():
    d = pretzel([9, 2, 9])
    assert len(d.crossings) == 20
    assert d.semiarc_count == 40
    assert d.component_count() == 1
    dec = strands(d)
    assert len(dec.strands) == len(d.crossings)  # alternating diagram


def test_pretzel_p333():
    d = pretzel([3, 3, 3])
    assert len(d.crossings) == 9
    assert d.component_count() == 1


def test_pretzel_twist_knots_are_knots():
    for m in (2, 3, 4, 5, 6):
        d = pretzel([m, 1, 1])
        assert len(d.crossings) == m + 2
        assert d.component_count() == 1


def test_pretzel_layout_landmarks():
    lay = pretzel_layout([3, 3, 3])
    assert len(lay.top_arcs) == 3
    assert len(set(lay.top_arcs)) == 3
    for corners in lay.band_corners:
        assert corners is not None
        assert len(set(corners)) == 4


def test_pretzel_zero_band():
    # zero-twist bands pass straight through: P(1,0,1) closes into a
    # single component carrying both crossings (hand-traced)
    d = pretzel([1, 0, 1])
    assert len(d.crossings) == 2
    assert d.component_count() == 1
    d = pretzel([3, 0, 3])
    assert len(d.crossings) == 6


def test_pretzel_all_zero_is_free_loops():
    # an all-zero necklace is one circle per gap between bands
    d = pretzel([0])
    assert d.crossings == ()
    assert d.free_loops == 1
    assert pretzel([0, 0, 0]).free_loops == 3


def test_chain_structure():
    d = chain(3)
    assert len(d.crossings) == 6
    assert d.semiarc_count == 12
    assert d.component_count() == 3
    assert chain(5).component_count() == 5
    assert len(strands(chain(5)).strands) == 10  # two strands per ring


def test_chain_rejects_even_and_small():
    with pytest.raises(ValueError):
        chain(4)
    with pytest.raises(ValueError):
        chain(1)


def test_connected_sum_counts_additive():
    t = torus_2n(3)
    s, relabel = connected_sum(t, 0, t, 0)
    assert len(s.crossings) == 2 * len(t.crossings)
    assert s.semiarc_count == 2 * t.semiarc_count
    assert s.component_count() == 1
    assert relabel == {i: i + 6 for i in range(6)}


def test_connected_sum_bad_ids():
    t = torus_2n(3)
    with pytest.raises(DiagramError):
        connected_sum(t, 6, t, 0)


def test_apply_r1_shape():
    t = torus_2n(3)
    for s in range(t.semiarc_count):
        for sign in (1, -1):
            moved = apply_r1(t, s, sign)
            assert len(moved.crossings) == len(t.crossings) + 1
            assert moved.semiarc_count == t.semiarc_count + 2
            assert moved.component_count() == t.component_count()


def test_apply_r2_shape():
    t = torus_2n(4)
    for variant in ("parallel", "antiparallel"):
        moved = apply_r2(t, 0, 5, variant)
        assert len(moved.crossings) == len(t.crossings) + 2
        assert moved.semiarc_count == t.semiarc_count + 4
        assert moved.component_count() == t.component_count()
        signs = [c.sign for c in moved.crossings[-2:]]
        assert sorted(signs) == [-1, 1]


def test_apply_r2_rejects_same_semiarc():
    with pytest.raises(DiagramError):
        apply_r2(torus_2n(3), 2, 2)


def test_strands_partition():
    for d in (torus_2n(3), torus_2n(4), pretzel([3, 3, 3]), chain(3), unknot(1)):
        dec = strands(d)
        seen = sorted(s for path in dec.strands for s in path)
        assert seen == list(range(d.semiarc_count))
        if d.crossings:
            assert len(dec.strands) <= len(d.crossings)
        for c, (uin_s, uout_s, over_s) in zip(d.crossings, dec.crossing_incidence):
            assert dec.strand_of[c.o_in] == dec.strand_of[c.o_out] == over_s
            assert dec.strand_of[c.u_in] == uin_s
            assert dec.strand_of[c.u_out] == uout_s


def test_strands_counts():
    assert len(strands(torus_2n(3)).strands) == 3
    assert len(strands(unknot(1)).strands) == 1


def test_strand_order_follows_flow():
    dec = strands(torus_2n(3))
    for path in dec.strands:
        assert len(path) == 2
    # each strand's two semiarcs are linked by an overpass
    t = torus_2n(3)
    over_next = {c.o_in: c.o_out for c in t.crossings}
    for path in dec.strands:
        assert over_next[path[0]] == path[1]
