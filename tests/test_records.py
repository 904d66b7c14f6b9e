"""The record types: named tuples with the repr, ==, hash and immutability of frozen records."""

import pytest

from biqknot.algebra import AxiomViolation
from biqknot.bridge import SeedReport
from biqknot.coloring import RelationMatrix
from biqknot.diagram import Crossing, DiagramError, SemiarcDiagram, StrandDecomposition
from biqknot.knots import KnotRecord
from biqknot.polynomial import ExponentPolynomial
from biqknot.quiver import ColoringQuiver
from biqknot.repro import ReproItem

KINK = SemiarcDiagram(2, (Crossing(1, 0, 1, 1, 0),))

# (record type, keyword fields, repr); a keyword left out takes its default
RECORDS = [
    (AxiomViolation, {"axiom": "diagonal", "witness": (1,)},
     "AxiomViolation(axiom='diagonal', witness=(1,))"),
    (SeedReport, {"seed_set": (0,), "saturated": True, "sequence": ((0, 1),),
                  "colored": frozenset({0, 1})},
     "SeedReport(seed_set=(0,), saturated=True, sequence=((0, 1),), colored=frozenset({0, 1}))"),
    (StrandDecomposition, {"strands": ((0, 1),), "strand_of": (0, 0),
                           "crossing_incidence": ((0, 0, 0),), "component_of": (0,),
                           "crossings_of": ((0,),)},
     "StrandDecomposition(strands=((0, 1),), strand_of=(0, 0), crossing_incidence=((0, 0, 0),), "
     "component_of=(0,), crossings_of=((0,),))"),
    (KnotRecord, {"name": "0_1", "diagram": SemiarcDiagram(0, (), 1)},
     "KnotRecord(name='0_1', diagram=SemiarcDiagram(semiarc_count=0, crossings=(), free_loops=1), "
     "determinant=None)"),
    (ColoringQuiver, {"vertices": ((1, 1),), "endos": ((1,),), "targets": ((0,),)},
     "ColoringQuiver(vertices=((1, 1),), endos=((1,),), targets=((0,),))"),
    (ReproItem, {"claim": "c", "provenance": "derived", "expected": "1", "computed": "1",
                 "passed": True, "seconds": 0.5},
     "ReproItem(claim='c', provenance='derived', expected='1', computed='1', passed=True, "
     "seconds=0.5)"),
    (SemiarcDiagram, {"semiarc_count": 2, "crossings": (Crossing(1, 0, 1, 1, 0),)},
     "SemiarcDiagram(semiarc_count=2, crossings=(Crossing(sign=1, u_in=0, o_in=1, u_out=1, "
     "o_out=0),), free_loops=0)"),
    (RelationMatrix, {"rows": ({0: 1},), "modulus": 3, "cols": 1},
     "RelationMatrix(rows=({0: 1},), modulus=3, cols=1)"),
    (ExponentPolynomial, {"coeffs": {2: 1, 0: 3}}, "ExponentPolynomial(coeffs={2: 1, 0: 3})"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_a_record_builds_by_keyword_and_keeps_its_repr_equality_and_hash(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    assert record == cls(**fields)
    assert record == cls(*(fields.get(f, getattr(record, f)) for f in cls._fields))
    if cls is RelationMatrix:  # its rows are dicts, so, as before, it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields))
    first = cls._fields[0]
    for name in (first, "extra"):  # a field or a new attribute: neither can be set
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, first))


@pytest.mark.parametrize("record, change, error, message", [
    (KINK, {"semiarc_count": 5}, DiagramError,
     "semiarc 2 has no head (must be consumed exactly once)"),
    (KINK, {"free_loops": -1}, DiagramError, "free loop count cannot be negative"),
    (KINK, {"semiarc_count": -1}, DiagramError, "semiarc count cannot be negative"),
    (KINK, {"free_loops": 1.0}, DiagramError,
     "semiarc count, ids and free loop count must be integers, got 1.0"),
    (RelationMatrix(({0: 1},), 3, 1), {"modulus": 0}, ValueError,
     "modulus must be >= 1 and cols >= 0, both ints: 0, 1"),
    (RelationMatrix(({0: 1},), 3, 1), {"cols": 0}, ValueError,
     "relation row {0: 1} has a column outside 0..-1"),
    (RelationMatrix(({0: 1},), 3, 1), {"modulus": 3.0}, ValueError,
     "modulus must be >= 1 and cols >= 0, both ints: 3.0, 1"),
    (RelationMatrix(({0: 1},), 3, 1), {"cols": 1.5}, ValueError,
     "modulus must be >= 1 and cols >= 0, both ints: 3, 1.5"),
    (RelationMatrix(({0: 1},), 3, 1), {"rows": ({0: True},)}, ValueError,
     "relation coefficients must be integers"),
    (RelationMatrix(({0: 1},), 3, 1), {"rows": ({0.5: 1},)}, ValueError,
     "relation columns must be ints, got 0.5"),
    (ExponentPolynomial({1: 2}), {"coeffs": {-1: 1}}, ValueError,
     "exponents and coefficients must be nonnegative"),
    (ExponentPolynomial({1: 2}), {"coeffs": {1: 0.5}}, ValueError,
     "exponents and coefficients must be integers"),
], ids=["diagram-count", "diagram-loops", "diagram-negative-count", "diagram-float",
        "matrix-modulus", "matrix-cols", "matrix-float-modulus", "matrix-float-cols",
        "matrix-bool-coefficient", "matrix-float-column", "poly-negative", "poly-float"])
def test_replace_and_make_run_the_constructor_checks(record, change, error, message):
    with pytest.raises(error) as replaced:
        record._replace(**change)
    fields = [change.get(f, getattr(record, f)) for f in record._fields]
    with pytest.raises(error) as made:
        type(record)._make(fields)
    assert str(replaced.value) == str(made.value) == message


def test_replace_and_make_give_the_checked_type():
    moved = KINK._replace(free_loops=2)
    assert type(moved) is SemiarcDiagram and moved.component_count() == 3
    assert type(SemiarcDiagram._make((0, (), 0))) is SemiarcDiagram
    zeroed = ExponentPolynomial({1: 2})._replace(coeffs={1: 0, 2: 1})
    assert zeroed.coeffs == {2: 1} and str(zeroed) == "u^2"  # zero terms dropped, as on building
    assert type(RelationMatrix._make(((), 2, 0))) is RelationMatrix


@pytest.mark.parametrize("args, bad", [
    ((2, (Crossing(1, 0.0, 1, 1, 0.0),)), "0.0"),
    ((0, (), 1.5), "1.5"),
    ((2.0, (Crossing(1, 0, 1, 1, 0),)), "2.0"),
    ((1, (Crossing(1, 0, 0, 0, "0"),)), "'0'"),
    (("2", (Crossing(1, 0, 1, 1, 0),)), "'2'"),
    ((0, (), "1"), "'1'"),
    ((2, (Crossing(1, 0, [1], 1, 0),)), "[1]"),
    ((2, (Crossing(1, 0, True, True, 0),)), "True"),
    ((2, (Crossing(1, 0, 1, 1, 0),), False), "False"),
    ((True, (Crossing(1, 0, 0, 0, 0),)), "True"),
], ids=["float-id", "float-loops", "float-count", "text-id", "text-count", "text-loops", "list-id",
        "bool-ids", "bool-loops", "bool-count"])
def test_a_diagram_takes_integer_counts_and_ids_alone(args, bad):
    with pytest.raises(DiagramError) as caught:
        SemiarcDiagram(*args)
    assert str(caught.value) == f"semiarc count, ids and free loop count must be integers, got {bad}"


@pytest.mark.parametrize("coeffs", [{2.7: 1}, {1: 0.5}, {1: 0.0}, {True: 1}, {1: True}, {"2": 1}])
def test_a_polynomial_takes_integer_exponents_and_coefficients_alone(coeffs):
    with pytest.raises(ValueError, match="^exponents and coefficients must be integers$"):
        ExponentPolynomial(coeffs)
