"""The linear kernel against its plain-loop references in oracles.py.

coloring._relation_rows, _eliminate and _list_kernel must return exactly
what the references return, dict key order included: the order of a
pivot's rest decides later pivot ties, and so the lister's parameters
and the quiver keys. Systems are random sparse rows mod 1..30 with
planted equality rows and repeats written in another key order; diagrams
are kinked, R1/R2-moved and free-loop ones over scalar and module forms.
"""

import pytest

from biqknot.algebra import (biquandle_z, make_dihedral, make_linear_biquandle,
                             make_module_biquandle)
from biqknot.coloring import (_count_kernel, _eliminate, _list_kernel, _oriented, _prime_powers,
                              _relation_rows)
from biqknot.diagram import SemiarcDiagram, apply_r1, apply_r2, chain, pretzel, torus_2n, unknot

from oracles import eliminate_reference, list_kernel_reference, relation_rows_reference

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def ordered(x):
    """x with every dict read as its list of items, so == also compares key order."""
    if isinstance(x, dict):
        return [(k, ordered(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [ordered(v) for v in x]
    return x


def check_eliminate(rows, n):
    before = ordered(rows)
    for p, k in _prime_powers(n):
        assert ordered(_eliminate(rows, p, k)) == ordered(eliminate_reference(rows, p, k))
    assert ordered(rows) == before


@st.composite
def sparse_systems(draw):
    """(n, cols, rows) mod n: random rows with zero, negative and unreduced coefficients and
    empty rows, planted equality rows u*x_a - u*x_b (u a unit or not), and repeats of rows
    with their keys in another order and their coefficients shifted by multiples of n."""
    n = draw(st.one_of(st.sampled_from((8, 9, 12, 18, 25, 27)), st.integers(1, 30)))
    cols = draw(st.integers(2, 7))
    col = st.integers(0, cols - 1)
    rows = draw(st.lists(st.dictionaries(col, st.integers(-2 * n, 2 * n), max_size=4),
                         max_size=8))
    for _ in range(draw(st.integers(0, 2 * cols))):
        a, b = draw(st.lists(col, min_size=2, max_size=2, unique=True))
        u = draw(st.integers(1, 2 * n))
        rows.insert(draw(st.integers(0, len(rows))),
                    {a: u, b: draw(st.sampled_from((-u, n - u, 2 * n - u)))})
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = draw(st.sampled_from(rows))
        keys = draw(st.permutations(list(row)))
        rows.insert(draw(st.integers(0, len(rows))),
                    {j: row[j] + n * draw(st.integers(-1, 1)) for j in keys})
    return n, cols, rows


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(sparse_systems())
def test_elimination_and_listing_match_the_references_in_order(system):
    n, cols, rows = system
    check_eliminate(rows, n)
    if n**cols <= 20000:  # keeps the listing small
        assert _list_kernel(rows, cols, n) == list_kernel_reference(rows, cols, n)


def test_a_repeat_is_emptied_by_its_first_copy_and_retired():
    # the first copy pivots on its first entry (a tie), which empties the repeat {1: 1, 0: 1}
    rows = [{0: 1, 1: 1}, {2: 1, 3: 1}, {1: 1, 0: 1}]
    assert _eliminate(rows, 5, 1) == ({}, [(0, 0, 1, {1: 1}), (2, 0, 1, {3: 1})])
    check_eliminate(rows, 5)
    check_eliminate([{0: 3, 1: 6, 2: 1}, {2: 1, 1: 15, 0: 12}, {1: 3}, {}], 9)


I2, O2 = ((1, 0), (0, 1)), ((0, 0), (0, 0))
FORMS = [y.linear_form for y in (
    make_dihedral(1), make_dihedral(3), make_dihedral(4), make_dihedral(6),
    make_linear_biquandle(9, 1, 0, 8, 2), biquandle_z(), make_linear_biquandle(3, 1, 1, 2, 0),
    make_module_biquandle(2, I2, O2, ((0, 1), (1, 1)), ((1, 1), (1, 0))),  # GF(4) Alexander
    make_module_biquandle(2, ((0, 1), (1, 0)), O2, ((0, 1), (1, 0)), O2),  # (Z/2)^2, no quandle
    make_module_biquandle(3, I2, O2, ((1, 2), (1, 1)), ((0, 1), (2, 0))),  # GF(9) Alexander
)]


@st.composite
def diagrams(draw):
    """Kinked unknots, tori, chains and pretzels after R1/R2 moves, with free loops."""
    family = draw(st.sampled_from(("unknot", "torus", "chain", "pretzel")))
    if family == "unknot":
        d = unknot(draw(st.integers(1, 6)))
    elif family == "torus":
        d = torus_2n(draw(st.integers(1, 6)))
    elif family == "chain":
        d = chain(draw(st.sampled_from((3, 5))))
    else:
        d = pretzel(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, d.semiarc_count - 1))
        if draw(st.booleans()):
            d = apply_r1(d, a, draw(st.sampled_from((1, -1))))
        else:
            b = draw(st.integers(0, d.semiarc_count - 2))
            d = apply_r2(d, a, b + (b >= a), draw(st.sampled_from(("parallel", "antiparallel"))))
    return SemiarcDiagram(d.semiarc_count, d.crossings, draw(st.integers(0, 2)))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(diagrams(), st.sampled_from(FORMS))
def test_relation_rows_and_listing_match_the_references_in_order(d, form):
    oriented = _oriented(d)
    rows = _relation_rows(oriented, form)
    assert ordered(rows) == ordered(relation_rows_reference(oriented, form))
    n, w = form[0], len(form[1])
    check_eliminate(rows, n)
    cols = d.semiarc_count + d.free_loops
    if _count_kernel(rows, cols * w, n) <= 20000:  # keeps the listing small
        assert _list_kernel(rows, cols, n, w) == list_kernel_reference(rows, cols, n, w)


def test_scalar_rows_are_keyed_by_the_diagrams_own_ints():
    # ids above 256 are distinct objects from any equal int the rows might compute
    for d, y in ((unknot(300), make_dihedral(3)), (torus_2n(150), make_linear_biquandle(9, 1, 0, 8, 2)),
                 (apply_r1(torus_2n(140), 270, -1), make_linear_biquandle(3, 1, 1, 2, 0))):
        oriented = _oriented(d)
        rows = _relation_rows(oriented, y.linear_form)
        assert ordered(rows) == ordered(relation_rows_reference(oriented, y.linear_form))
        for i, quad in enumerate(oriented):
            assert all(any(j is t for t in quad) for row in rows[2 * i:2 * i + 2] for j in row)


def test_kernel_timing_script_runs(capsys):
    # tests/kernel_timing.py: one row per (case, kernel function) a case reaches
    import kernel_timing

    reached = [(case, name) for case, call in kernel_timing.cases()
               for name, calls in kernel_timing.recorded(call).items() if calls]
    assert kernel_timing.main(["--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "function", "calls", "best", "ms",
                              "rows", "merged", "pivots", "retired"]
    assert [tuple(row.rsplit(maxsplit=7)[:2]) for row in rows] == reached
    assert len(reached) == 28
    assert {name for _, name in reached} == set(kernel_timing.KERNEL)  # the quiver map too
