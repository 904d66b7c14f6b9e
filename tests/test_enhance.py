"""Tests for the column group enhancement."""

import itertools
import random

import pytest

from biqknot import enhance
from biqknot.algebra import (FiniteBiquandle, biquandle_z, column_permutation, enumerate_endos,
                             make_conjugation_quandle, make_dihedral, make_linear_biquandle,
                             make_module_biquandle)
from biqknot.coloring import colorings_with_loops, count_colorings
from biqknot.diagram import (SemiarcDiagram, apply_r1, apply_r2, chain, pretzel, torus_2n,
                             unknot)
from biqknot.enhance import column_group_multiset, column_group_polynomial
from biqknot.knots import builtin_knot, builtin_table
from biqknot.polynomial import ExponentPolynomial
from biqknot.quiver import build_quiver


def test_multiset_packaging_example():
    p = ExponentPolynomial.from_multiset([0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3])
    assert p == ExponentPolynomial({0: 1, 1: 2, 2: 3, 3: 5})
    assert str(p) == "5u^3 + 3u^2 + 2u + 1"


def test_rejects_general_biquandle():
    with pytest.raises(ValueError, match="quandle"):
        column_group_polynomial(torus_2n(4), biquandle_z())


def test_refuses_a_non_quandle_before_listing_any_coloring(monkeypatch):
    def no_listing(d, y):
        raise AssertionError("colorings listed for a non-quandle")

    monkeypatch.setattr(enhance, "colorings_with_loops", no_listing)
    z = make_linear_biquandle(4, 3, 0, 1, 2)
    with pytest.raises(ValueError, match="quandles only"):
        column_group_polynomial(torus_2n(3), z)
    with pytest.raises(ValueError, match="quandles only"):
        column_group_multiset([(1, 1, 1, 1, 1, 1)], z)


def test_constant_colorings_give_single_column_order():
    # over R_9 each column is an involution, hence the 9u^2 base term
    r9 = make_dihedral(9)
    poly = column_group_polynomial(unknot(1), r9)
    assert poly == ExponentPolynomial({2: 9})


def test_quandle_tables_in_a_plain_biquandle_give_the_same_polynomial():
    r9 = make_dihedral(9)
    plain = FiniteBiquandle(9, r9.over_table, r9.under_table)
    for d in (pretzel([3, 3, 3]), builtin_knot("6_1").diagram):
        assert column_group_polynomial(d, plain) == column_group_polynomial(d, r9)


def test_mass_equals_coloring_count():
    r9 = make_dihedral(9)
    for d in (torus_2n(3), pretzel([3, 3, 3]), chain(3)):
        assert sum(column_group_polynomial(d, r9).coeffs.values()) == count_colorings(d, r9)


def test_published_values_for_6_1_and_9_24():
    r9 = make_dihedral(9)
    expected = ExponentPolynomial({18: 54, 6: 18, 2: 9})
    for name in ("6_1", "9_24"):
        d = builtin_knot(name).diagram
        assert column_group_polynomial(d, r9) == expected


def test_same_subquandle_same_exponent():
    r9 = make_dihedral(9)
    d = builtin_knot("9_24").diagram
    multiset = column_group_multiset(colorings_with_loops(d, r9), r9)
    assert sorted(set(multiset)) == [2, 6, 18]


def test_move_invariance():
    rng = random.Random(31)
    r9 = make_dihedral(9)
    d = pretzel([3, 3, 3])
    base = column_group_polynomial(d, r9)
    s = rng.randrange(d.semiarc_count)
    assert column_group_polynomial(apply_r1(d, s, 1), r9) == base
    a, b = rng.sample(range(d.semiarc_count), 2)
    assert column_group_polynomial(apply_r2(d, a, b, "antiparallel"), r9) == base


def multiset_by_subquandle_columns(d, q):
    """The former route: close each label set pair by pair, then close the group of
    every column of that subquandle by composing tuples."""
    out = []
    for coloring in colorings_with_loops(d, q):
        todo, sub = set(coloring), set()
        while todo:
            x = todo.pop()
            sub.add(x)
            for y in sub:
                for z in (q.under(x, y), q.under(y, x),
                          [q.under(w, y) for w in q.elements()].index(x) + 1,
                          [q.under(w, x) for w in q.elements()].index(y) + 1):
                    if z not in sub:
                        todo.add(z)
        gens = [column_permutation(q, y) for y in sorted(sub)]
        group = frontier = {tuple(q.elements())}
        while frontier:
            frontier = {tuple(g[x - 1] for x in h) for h in frontier for g in gens} - group
            group = group | frontier
        out.append(len(group))
    return out


def test_column_group_multiset_matches_the_subquandle_columns():
    swaps = [p for p in itertools.permutations(range(1, 5))
             if sum(p[i] != i + 1 for i in range(4)) == 2]
    s4 = make_conjugation_quandle(swaps)
    t, one = ((1, 2), (1, 1)), ((1, 0), (0, 1))  # GF(9) with t = 1 + i, i^2 = -1
    gf9 = make_module_biquandle(3, one, ((0, 0), (0, 0)), t, ((0, 1), (2, 0)))  # 1 - t = -i
    cases = [(builtin_knot(name).diagram, make_dihedral(9)) for name in ("6_1", "9_24", "8_1")]
    cases += [(pretzel([3, 3, 3]), make_dihedral(9)), (torus_2n(12), make_dihedral(6)),
              (chain(3), make_dihedral(4)), (torus_2n(4), s4), (builtin_knot("6_1").diagram, s4),
              (torus_2n(3), gf9), (builtin_knot("4_1").diagram, gf9),
              (torus_2n(4), make_linear_biquandle(8, 1, 0, 3, 6)),
              (SemiarcDiagram(4, torus_2n(2).crossings, 1), make_dihedral(6)),
              (SemiarcDiagram(0, (), 0), make_dihedral(3))]
    for d, q in cases:
        assert q.is_quandle()
        listed = colorings_with_loops(d, q)
        assert column_group_multiset(listed, q) == multiset_by_subquandle_columns(d, q)


def test_orders_kept_on_a_shared_algebra_match_a_fresh_one():
    for n in (9, 6):
        shared = make_dihedral(n)
        for name, rec in builtin_table().items():
            assert (column_group_polynomial(rec.diagram, shared)
                    == column_group_polynomial(rec.diagram, make_dihedral(n))), (n, name)


def test_one_quiver_gives_the_count_and_the_column_multiset():
    # repro item 12 reads all three invariants off one quiver: its 7 families,
    # one seeded R1 and one seeded R2 move of each, over its 4 targets
    def times(a, n):
        return tuple((a * x - 1) % n + 1 for x in range(1, n + 1))

    z = biquandle_z()
    targets = [(make_dihedral(3), [times(2, 3)]), (make_dihedral(4), [times(2, 4)]),
               (make_dihedral(9), [times(3, 9)]), (z, enumerate_endos(z))]
    rng = random.Random(12)
    for d in (torus_2n(3), torus_2n(4), chain(3), chain(5),
              pretzel([3, 3, 3]), pretzel([2, 1, 1]), pretzel([3, 1, 1])):
        a, b = rng.sample(range(d.semiarc_count), 2)
        for moved in (d, apply_r1(d, a, rng.choice((1, -1))),
                      apply_r2(d, a, b, rng.choice(("parallel", "antiparallel")))):
            for y, s in targets:
                q = build_quiver(moved, y, s)
                assert len(q.vertices) == count_colorings(moved, y)
                if y.is_quandle():
                    orders = column_group_multiset(q.vertices, y)
                    assert orders == column_group_multiset(colorings_with_loops(moved, y), y)
                    assert (ExponentPolynomial.from_multiset(orders)
                            == column_group_polynomial(moved, y))
