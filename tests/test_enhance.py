"""Tests for the column group enhancement."""

import random

import pytest

from biqknot.algebra import FiniteBiquandle, biquandle_z, make_dihedral
from biqknot.coloring import count_colorings
from biqknot.diagram import apply_r1, apply_r2, chain, pretzel, torus_2n, unknot
from biqknot.enhance import column_group_multiset, column_group_polynomial
from biqknot.knots import builtin_knot
from biqknot.polynomial import ExponentPolynomial


def test_multiset_packaging_example():
    p = ExponentPolynomial.from_multiset([0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3])
    assert p == ExponentPolynomial({0: 1, 1: 2, 2: 3, 3: 5})
    assert str(p) == "5u^3 + 3u^2 + 2u + 1"


def test_rejects_general_biquandle():
    with pytest.raises(ValueError, match="quandle"):
        column_group_polynomial(torus_2n(4), biquandle_z())


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
        assert column_group_polynomial(d, r9).total_mass() == count_colorings(d, r9)


def test_published_values_for_6_1_and_9_24():
    r9 = make_dihedral(9)
    expected = ExponentPolynomial({18: 54, 6: 18, 2: 9})
    for name in ("6_1", "9_24"):
        d = builtin_knot(name).diagram
        assert column_group_polynomial(d, r9) == expected


def test_same_subquandle_same_exponent():
    r9 = make_dihedral(9)
    d = builtin_knot("9_24").diagram
    multiset = column_group_multiset(d, r9)
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
