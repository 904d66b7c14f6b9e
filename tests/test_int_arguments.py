"""Every public entry point refuses a bool, float, text or None where it takes an int.

True would read as 1, 2.0 as 2 and "2" as a count in some arithmetic, so
each of them must be refused with ValueError, never accepted as a number
nor leaked as TypeError or AttributeError. Two documented exceptions:
from_tables reads a text table entry through _decimal, and
validate_axioms reports a bad entry as a shape violation.
"""

import pytest

from biqknot.algebra import (
    AxiomError,
    biquandle_z,
    column_permutation,
    from_tables,
    group_order,
    make_conjugation_quandle,
    make_dihedral,
    make_linear_biquandle,
    make_module_biquandle,
    subquandle_closure,
    validate_axioms,
)
from biqknot.bridge import b1_lower, b2_lower, min_seed_size, wirtinger_saturate
from biqknot.coloring import RelationMatrix
from biqknot.diagram import (
    Crossing,
    SemiarcDiagram,
    apply_r1,
    apply_r2,
    chain,
    connected_sum,
    pretzel,
    torus_2n,
    unknot,
)
from biqknot.polynomial import ExponentPolynomial
from biqknot.quiver import build_quiver

BAD = [True, 2.0, "2", None]

IDENTITY, ZERO, W, ONE_PLUS_W = ((1, 0), (0, 1)), ((0, 0), (0, 0)), ((0, 1), (1, 1)), ((1, 1), (1, 0))

# entry point -> a call with v in place of one of its ints
CALLS = {
    "torus_2n": lambda v: torus_2n(v),
    "unknot": lambda v: unknot(v),
    "chain": lambda v: chain(v),
    "pretzel": lambda v: pretzel([3, v]),
    "apply_r1.semiarc": lambda v: apply_r1(torus_2n(3), v, 1),
    "apply_r1.chirality": lambda v: apply_r1(torus_2n(3), 0, v),
    "apply_r2.semiarc_a": lambda v: apply_r2(torus_2n(3), v, 2),
    "apply_r2.semiarc_b": lambda v: apply_r2(torus_2n(3), 0, v),
    "connected_sum.s1": lambda v: connected_sum(torus_2n(3), v, torus_2n(3), 0),
    "connected_sum.s2": lambda v: connected_sum(torus_2n(3), 0, torus_2n(3), v),
    "make_dihedral": lambda v: make_dihedral(v),
    "make_linear_biquandle.n": lambda v: make_linear_biquandle(v, 3, 0, 1, 2),
    "make_linear_biquandle.d": lambda v: make_linear_biquandle(4, 3, 0, 1, v),
    "make_module_biquandle.n": lambda v: make_module_biquandle(v, IDENTITY, ZERO, W, ONE_PLUS_W),
    "make_module_biquandle.entry": lambda v: make_module_biquandle(2, IDENTITY, ZERO, W,
                                                                   ((1, v), (1, 0))),
    "make_conjugation_quandle.perm": lambda v: make_conjugation_quandle([(2, 1, 3), v]),
    "make_conjugation_quandle.entry": lambda v: make_conjugation_quandle([(v, 1)]),
    "group_order": lambda v: group_order([(v, 1)]),
    "column_permutation": lambda v: column_permutation(make_dihedral(5), v),
    "subquandle_closure": lambda v: subquandle_closure(make_dihedral(5), [v]),
    "min_seed_size": lambda v: min_seed_size(torus_2n(3), v),
    "wirtinger_saturate": lambda v: wirtinger_saturate(torus_2n(3), [v]),
    "b1_lower": lambda v: b1_lower([(make_dihedral(3), v)]),
    "b2_lower": lambda v: b2_lower([(biquandle_z(), v)]),
    "build_quiver": lambda v: build_quiver(torus_2n(3), make_dihedral(3), [(v, 2, 3)]),
    "SemiarcDiagram.semiarc_count": lambda v: SemiarcDiagram(v, (Crossing(1, 0, 1, 1, 0),)),
    "SemiarcDiagram.id": lambda v: SemiarcDiagram(2, (Crossing(1, 0, v, 1, 0),)),
    "SemiarcDiagram.free_loops": lambda v: SemiarcDiagram(0, (), v),
    "RelationMatrix.modulus": lambda v: RelationMatrix(({0: 1},), v, 1),
    "RelationMatrix.cols": lambda v: RelationMatrix(({0: 1},), 2, v),
    "RelationMatrix.column": lambda v: RelationMatrix(({v: 1},), 2, 3),
    "RelationMatrix.coefficient": lambda v: RelationMatrix(({0: v},), 2, 1),
    "ExponentPolynomial": lambda v: ExponentPolynomial(v),
    "ExponentPolynomial.exponent": lambda v: ExponentPolynomial({v: 1}),
    "ExponentPolynomial.coefficient": lambda v: ExponentPolynomial({1: v}),
}


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", CALLS)
def test_an_int_argument_refuses_what_is_no_int(name, bad):
    with pytest.raises(ValueError):
        CALLS[name](bad)


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_table_entries_are_read_or_reported(bad):
    # R_3 with under-table entry (1, 3), which is 2, given as bad: text is read
    # as its decimal, anything else is a shape problem
    r3 = make_dihedral(3)
    under = [list(row) for row in r3.under_table]
    under[0][2] = bad
    if bad == "2":
        assert validate_axioms(r3.over_table, under) == []
        assert from_tables(r3.over_table, under) == r3
    else:
        assert [str(v) for v in validate_axioms(r3.over_table, under)] == [
            f"shape: under table entry {bad!r} at row 1 is not an integer"]
        with pytest.raises(AxiomError):
            from_tables(r3.over_table, under)
