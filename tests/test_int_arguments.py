"""Every public entry point refuses a bool, float, text or None where it takes an int.

True would read as 1, 2.0 as 2 and "2" as a count in some arithmetic, so
each of them must be refused with ValueError, never accepted as a number
nor leaked as TypeError or AttributeError. The sweep is generated: each
name in biqknot.__all__ (and in EXTRA) has a fixture, valid arguments
and, per parameter of its signature, INT, INTS (a sequence of ints),
ROWS (a sequence of int sequences), RECORDS (a sequence of records or
matrix rows, swept whole) or the reason it is exempt. A sequence of ints
is swept whole, by an entry and by an entry repeated after the valid
ones, which an int it equals would otherwise absorb. BY_HAND holds the
places a signature does not show, such as an id inside a crossing.
FiniteBiquandle's over and under, methods outside the sweep, refuse an
element that is no int in range as well.
Three documented exceptions: from_tables reads a text table entry
through _decimal, validate_axioms reports a bad entry as a shape
violation, and is_hom, a predicate, answers False.
"""

import inspect

import pytest

import biqknot
from biqknot.algebra import (
    AxiomError,
    biquandle_z,
    from_tables,
    is_hom,
    make_dihedral,
    make_module_biquandle,
    validate_axioms,
)
from biqknot.bridge import b1_lower, b2_lower, saturating_closure
from biqknot.coloring import RelationMatrix, coloring_matrix
from biqknot.diagram import Crossing, SemiarcDiagram, torus_2n
from biqknot.enhance import column_group_polynomial
from biqknot.polynomial import ExponentPolynomial
from biqknot.quiver import build_quiver

BAD = [True, 2.0, "2", None]

IDENTITY, ZERO, W, ONE_PLUS_W = ((1, 0), (0, 1)), ((0, 0), (0, 0)), ((0, 1), (1, 1)), ((1, 1), (1, 0))
T23, R3, R5 = torus_2n(3), make_dihedral(3), make_dihedral(5)

INT, INTS, ROWS = "an int", "a sequence of ints", "a sequence of int sequences"
RECORDS = "a sequence of records or rows, swept whole: the ints inside are swept by hand"
OBJECT = "no number: the int rule does not cover it, and a wrong kind may leak TypeError or AttributeError"
RECORD = "a record its builders check: its int fields are swept through them"

# public name -> its valid arguments and each parameter's kind, or why the whole name is exempt
FIXTURES = {
    "AxiomError": "an exception class",
    "FiniteBiquandle": "the unchecked record from_tables and the make_ functions build",
    "biquandle_z": ((), {}),
    "column_permutation": ((R5, 2), {"Q": OBJECT, "y": INT}),
    "enumerate_endos": ((R3,), {"Y": OBJECT}),
    "enumerate_homs": ((R3, R3), {"X": OBJECT, "Y": OBJECT}),
    "from_tables": "reads a text entry through _decimal (test_table_entries_are_read_or_reported)",
    "group_order": (([(2, 1, 3)],), {"gens": ROWS}),
    "make_conjugation_quandle": (([(2, 1, 3), (3, 2, 1), (1, 3, 2)],), {"perms": ROWS}),
    "make_dihedral": ((5,), {"n": INT}),
    "make_linear_biquandle": ((4, 3, 0, 1, 2), dict.fromkeys("nabcd", INT)),
    "make_module_biquandle": ((2, IDENTITY, ZERO, W, ONE_PLUS_W),
                              {"n": INT, **dict.fromkeys("ABCD", RECORDS)}),
    "subquandle_closure": ((R5, [1, 2]), {"Q": OBJECT, "S": INTS}),
    "validate_axioms": "reports a bad entry as a shape violation (test_table_entries_are_read_or_reported)",
    "b1_lower": (([(R3, 9)],), {"counts": RECORDS}),
    "b2_lower": (([(biquandle_z(), 16)],), {"counts": RECORDS}),
    "min_seed_size": ((T23, 6), {"d": OBJECT, "k_max": INT}),
    "wirtinger_saturate": ((T23, [1, 2]), {"d": OBJECT, "seeds": INTS}),
    "coloring_matrix": ((T23, R3), {"d": OBJECT, "Y": OBJECT}),
    "count_colorings": ((T23, R3), {"d": OBJECT, "Y": OBJECT}),
    "count_solutions_snf": ((coloring_matrix(T23, R3),), {"M": OBJECT}),
    "enumerate_colorings": ((T23, R3), {"d": OBJECT, "Y": OBJECT}),
    "Crossing": RECORD,
    "DiagramError": "an exception class",
    "SemiarcDiagram": ((2, (Crossing(1, 0, 1, 1, 0),), 0),
                       {"semiarc_count": INT, "crossings": RECORDS, "free_loops": INT}),
    "apply_r1": ((T23, 0, 1), {"d": OBJECT, "semiarc": INT, "chirality": INT}),
    "apply_r2": ((T23, 0, 2, "parallel"),
                 {"d": OBJECT, "semiarc_a": INT, "semiarc_b": INT, "variant": "a text option"}),
    "chain": ((3,), {"k": INT}),
    "connected_sum": ((T23, 0, T23, 0), {"d1": OBJECT, "s1": INT, "d2": OBJECT, "s2": INT}),
    "parse_pd": (("X+ 0 1 1 0\n",), {"text": "wire text, whose integers _decimal reads"}),
    "pretzel": (([3],), {"twists": INTS}),
    "serialize_pd": ((T23,), {"d": OBJECT}),
    "strands": ((T23,), {"d": OBJECT}),
    "torus_2n": ((3,), {"n": INT}),
    "unknot": ((2,), {"kinks": INT}),
    "column_group_polynomial": ((T23, R3), {"d": OBJECT, "Q": "an algebra: a non-quandle is swept by hand"}),
    "KnotRecord": RECORD,
    "builtin_knot": (("3_1",), {"name": "a knot table name"}),
    "builtin_table": ((), {}),
    "ExponentPolynomial": (({1: 2},), {"coeffs": "a dict: swept whole and by its keys and values by hand"}),
    "ColoringQuiver": RECORD,
    "build_quiver": ((T23, R3, [(1, 2, 3)]), {"d": OBJECT, "Y": OBJECT, "S": ROWS}),
    "in_degree_polynomial": ((build_quiver(T23, R3, [(1, 2, 3)]),), {"q": OBJECT}),
    "quivers_isomorphic": ((build_quiver(T23, R3, [(1, 2, 3)]),) * 2, {"q1": OBJECT, "q2": OBJECT}),
    # outside __all__
    "RelationMatrix": ((({0: 1},), 2, 1),
                       {"rows": RECORDS, "modulus": INT, "cols": INT}),
    "saturating_closure": ((T23, [1, 2]), {"d": OBJECT, "seeds": INTS}),
    "is_hom": ((R3, R3, (1, 2, 3)), {"X": OBJECT, "Y": OBJECT, "image": INTS}),
}
EXTRA = {f.__name__: f for f in (RelationMatrix, saturating_closure, is_hom)}
PREDICATES = {"is_hom"}  # these answer False where the others raise ValueError

# the places a signature does not show: case -> a call with v there
BY_HAND = {
    "make_module_biquandle.entry": lambda v: make_module_biquandle(2, IDENTITY, ZERO, W,
                                                                   ((1, v), (1, 0))),
    "make_module_biquandle.row": lambda v: make_module_biquandle(2, IDENTITY, ZERO, W, ((1, 1), v)),
    "b1_lower": lambda v: b1_lower([(R3, v)]),
    "b2_lower": lambda v: b2_lower([(biquandle_z(), v)]),
    "SemiarcDiagram.id": lambda v: SemiarcDiagram(2, (Crossing(1, 0, v, 1, 0),)),
    "RelationMatrix.column": lambda v: RelationMatrix(({v: 1},), 2, 3),
    "RelationMatrix.coefficient": lambda v: RelationMatrix(({0: v},), 2, 1),
    "ExponentPolynomial": lambda v: ExponentPolynomial(v),
    "ExponentPolynomial.exponent": lambda v: ExponentPolynomial({v: 1}),
    "ExponentPolynomial.coefficient": lambda v: ExponentPolynomial({1: v}),
    "ExponentPolynomial.coefficient.exponent": lambda v: ExponentPolynomial({1: 2}).coefficient(v),
    "column_group_polynomial.Q": lambda v: column_group_polynomial(T23, v),
}

# the ids these cases had when the sweep was a hand-kept list
RENAMED = {"group_order.row": "group_order.generator", "build_quiver.row": "build_quiver.endo",
           "make_conjugation_quandle.row": "make_conjugation_quandle.perm",
           "make_conjugation_quandle": "make_conjugation_quandle.entry"}


def public(name):
    return EXTRA[name] if name in EXTRA else getattr(biqknot, name)


def ways(kind, ok):
    """How v takes the place of the valid value ok: suffix of the case id -> the value.
    None marks the sequence swept whole."""
    if kind == INT:
        return {"": lambda v: v}
    if kind == RECORDS:
        return {None: lambda v: v}
    if kind == INTS:
        return {None: lambda v: v, "": lambda v: [v, *ok[1:]], ".repeat": lambda v: [*ok, v]}
    return {None: lambda v: v, "": lambda v: [(v, *ok[0][1:]), *ok[1:]], ".row": lambda v: [*ok, v]}


def replacing(name, param, put):
    """A call of the named callable on its valid arguments with put(v) as param."""
    bound = inspect.signature(public(name)).bind(*FIXTURES[name][0])
    bound.apply_defaults()

    def call(v):
        bound.arguments[param] = put(v)
        return public(name)(*bound.args, **bound.kwargs)
    return call


def sweep():
    """Case id -> (name, call with v), over every swept parameter and then BY_HAND.

    The id is the name if that is its one swept parameter and nothing of it is
    swept by hand, else name.parameter, and a suffix per way; a sequence swept
    whole is name.parameter."""
    cases, by_hand = {}, {case.partition(".")[0] for case in BY_HAND}
    for name, fixture in FIXTURES.items():
        if isinstance(fixture, str):
            continue
        args, kinds = fixture
        swept = [p for p, kind in kinds.items() if kind in (INT, INTS, ROWS, RECORDS)]
        valid = inspect.signature(public(name)).bind(*args).arguments
        for p in swept:
            at = name if len(swept) == 1 and name not in by_hand else f"{name}.{p}"
            for suffix, put in ways(kinds[p], valid[p]).items():
                case = f"{name}.{p}" if suffix is None else at + suffix
                case = RENAMED.get(case, case)
                assert case not in cases, case
                cases[case] = (name, replacing(name, p, put))
    for case, call in BY_HAND.items():
        assert case not in cases, case
        cases[case] = (case.partition(".")[0], call)
    return cases


CASES = sweep()


def test_every_public_parameter_is_swept_or_exempt():
    # a new public name, or a new parameter, fails here until FIXTURES names it
    assert set(FIXTURES) == {*biqknot.__all__, *EXTRA}
    for name, fixture in FIXTURES.items():
        if not isinstance(fixture, str):
            assert list(fixture[1]) == list(inspect.signature(public(name)).parameters), name


@pytest.mark.parametrize("name", [n for n, f in FIXTURES.items() if not isinstance(f, str)])
def test_the_fixture_arguments_are_valid(name):
    # so that each refusal below comes from the value swept in
    result = public(name)(*FIXTURES[name][0])
    assert result is True or name not in PREDICATES


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", CASES)
def test_an_int_argument_refuses_what_is_no_int(name, bad):
    owner, call = CASES[name]
    if owner in PREDICATES:
        assert call(bad) is False
    else:
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("x, y", [(True, 2), (0, 2), (6, 1), (2, 2.0)], ids=repr)
@pytest.mark.parametrize("op", ["over", "under"])
def test_an_element_is_an_int_in_range(op, x, y):
    # under(True, 2) read row 1 and under(0, 2) row 5, through index -1
    assert (R5.over(1, 2), R5.under(1, 2)) == (1, 3)
    with pytest.raises(ValueError, match="^element"):
        getattr(R5, op)(x, y)


@pytest.mark.parametrize("bad", [*BAD, {1: 0, 2: 0, 3: 0}, {1, 2, 3}], ids=repr)
def test_an_image_that_is_no_int_tuple_is_no_hom(bad):
    # a dict's keys or a set's order are no images of 1..3
    assert is_hom(R3, R3, bad) is False


def test_a_coefficient_is_read_at_an_int_exponent():
    # True and 1.0 used to read the u^1 coefficient
    p = ExponentPolynomial({1: 2, 0: 5})
    assert (p.coefficient(1), p.coefficient(0), p.coefficient(7)) == (2, 5, 0)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"^exponents must be ints, got {bad!r}$"):
            p.coefficient(bad)


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
