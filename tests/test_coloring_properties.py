"""Property tests: every count and listing route agrees on random moved diagrams.

count_colorings and enumerate_colorings (both from the elimination for
linear algebras, the search otherwise) are compared with the coloring
search and, where it is quick, with brute force, over tori, chains and
pretzels after random R1/R2 moves. The search alone is compared with
brute force on random virtual diagrams over algebras that are not
linear. Random sparse systems with planted
equality rows u*x_a - u*x_b, which the elimination merges first, are
counted and listed against brute force. Quivers keyed by the coordinates
the lister chose freely are compared with the full-tuple index.
"""

import itertools
import math

import pytest

from biqknot.algebra import (biquandle_z, enumerate_endos, from_tables, make_conjugation_quandle,
                             make_dihedral, make_linear_biquandle, make_module_biquandle,
                             parse_biquandle, serialize_biquandle)
from biqknot.coloring import (
    BRUTE_FORCE_GUARD,
    RelationMatrix,
    _list_kernel,
    _oriented,
    _search,
    count_colorings,
    count_solutions_bruteforce,
    colorings_with_loops,
    count_solutions_snf,
    enumerate_colorings,
    list_solutions,
)
from biqknot.diagram import Crossing, SemiarcDiagram, apply_r1, apply_r2, chain, pretzel, torus_2n
from biqknot.quiver import build_quiver

from oracles import brute_force_colorings, targets_by_full_index

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


# R_n, the same tables read back from text, and Z from make_linear_biquandle
ALGEBRAS = ([make_dihedral(n) for n in range(2, 13)]
            + [parse_biquandle(serialize_biquandle(make_dihedral(n))) for n in range(2, 13)]
            + [biquandle_z()])


@st.composite
def moved_diagrams(draw):
    family = draw(st.sampled_from(("torus", "chain", "pretzel")))
    if family == "torus":
        d = torus_2n(draw(st.integers(1, 7)))
    elif family == "chain":
        d = chain(draw(st.sampled_from((3, 5))))
    else:
        d = pretzel(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            s = draw(st.integers(0, d.semiarc_count - 1))
            d = apply_r1(d, s, draw(st.sampled_from((1, -1))))
        else:
            a = draw(st.integers(0, d.semiarc_count - 1))
            b = draw(st.integers(0, d.semiarc_count - 2))
            b += b >= a
            d = apply_r2(d, a, b, draw(st.sampled_from(("parallel", "antiparallel"))))
    return SemiarcDiagram(d.semiarc_count, d.crossings, draw(st.integers(0, 1)))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(moved_diagrams(), st.sampled_from(ALGEBRAS))
def test_elimination_count_matches_enumeration_and_brute_force(d, y):
    count = count_colorings(d, y)
    listed = enumerate_colorings(d, y)
    assert listed == sorted(map(tuple, _search(d.semiarc_count, _oriented(d), y)))
    assert count == len(listed) * y.size**d.free_loops
    # brute force only where it is quick (well inside BRUTE_FORCE_GUARD)
    if y.size**d.semiarc_count <= min(BRUTE_FORCE_GUARD, 20000):
        assert listed == brute_force_colorings(d, y)


def constant_action(sigma):
    """x ." y = x .v y = sigma(x): a biquandle that is not a quandle when sigma moves a point."""
    table = [[sigma[x - 1]] * len(sigma) for x in range(1, len(sigma) + 1)]
    return from_tables(table, table)


# algebras the search alone serves: the S_4 transpositions and two constant actions
NON_LINEAR = [make_conjugation_quandle([p for p in itertools.permutations(range(1, 5))
                                        if sum(a != b for a, b in zip(p, range(1, 5))) == 2]),
              constant_action((2, 3, 1)), constant_action((2, 3, 1, 4))]


# every lister route: R_n with composite n, a non-quandle mod 9, Z, (Z/2)^2 and the search
W, ONE, ZERO = ((0, 1), (1, 1)), ((1, 0), (0, 1)), ((0, 0), (0, 0))
QUIVER_ALGEBRAS = [(y, enumerate_endos(y)) for y in (
    *map(make_dihedral, range(1, 13)), make_linear_biquandle(9, 1, 0, 8, 2), biquandle_z(),
    make_module_biquandle(2, ONE, ZERO, W, ((1, 1), (1, 0))), NON_LINEAR[0])]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.one_of(moved_diagrams(), st.sampled_from((SemiarcDiagram(0, (), 0),
                                                                SemiarcDiagram(0, (), 2)))),
                  st.sampled_from(QUIVER_ALGEBRAS), st.data())
def test_quiver_keys_separate_the_vertices(d, algebra, data):
    y, endos = algebra
    vertices, key = list_solutions(d.semiarc_count + d.free_loops, _oriented(d), y)
    assert key == sorted(set(key)) and all(0 <= c < d.semiarc_count + d.free_loops for c in key)
    assert len({tuple(v[c] for c in key) for v in vertices}) == len(vertices)
    q = build_quiver(d, y, data.draw(st.lists(st.sampled_from(endos), max_size=3)))
    assert q.vertices == tuple(colorings_with_loops(d, y))
    assert q.targets == targets_by_full_index(q)


@st.composite
def virtual_diagrams(draw):
    """Abstract Gauss data: 1-5 crossings reading their inputs and their outputs
    off two random permutations of the semiarc ids, with random signs, so kinks,
    a semiarc in two slots of one crossing and several components all occur."""
    n = draw(st.integers(1, 5))
    ins = draw(st.permutations(range(2 * n)))
    outs = draw(st.permutations(range(2 * n)))
    crossings = tuple(Crossing(draw(st.sampled_from((1, -1))), ins[2 * i], ins[2 * i + 1],
                               outs[2 * i], outs[2 * i + 1]) for i in range(n))
    return SemiarcDiagram(2 * n, crossings, draw(st.integers(0, 1)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(virtual_diagrams(), st.sampled_from(NON_LINEAR))
def test_search_matches_brute_force_on_virtual_diagrams(d, y):
    assert y.linear_form is None  # so count_colorings searches as well
    searched = sorted(map(tuple, _search(d.semiarc_count, _oriented(d), y)))
    assert count_colorings(d, y) == len(searched) * y.size**d.free_loops
    if y.size**d.semiarc_count <= 20000:
        assert searched == brute_force_colorings(d, y)


@st.composite
def planted_equality_systems(draw):
    """(n, cols, rows): sparse rows mod n with equality rows u*x_a - u*x_b planted
    among them, u a unit or not, written unreduced or through -u = n - u."""
    n = draw(st.sampled_from((2, 3, 4, 5, 6, 7, 8, 9, 12, 27)))
    cols = draw(st.integers(2, int(math.log(2000, n))))  # keeps the brute force quick
    col = st.integers(0, cols - 1)
    rows = draw(st.lists(st.dictionaries(col, st.integers(-n, 2 * n), max_size=3), max_size=3))
    for _ in range(draw(st.integers(1, 2 * cols))):
        a, b = draw(st.lists(col, min_size=2, max_size=2, unique=True))
        u = draw(st.integers(1, n - 1))
        minus_u = draw(st.sampled_from((-u, n - u, 2 * n - u)))
        rows.insert(draw(st.integers(0, len(rows))), {a: u, b: minus_u})
    return n, cols, rows


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(planted_equality_systems())
def test_planted_equality_rows_count_and_list_like_brute_force(system):
    n, cols, rows = system
    want = sorted(tuple(v or n for v in vec) for vec in itertools.product(range(n), repeat=cols)
                  if all(sum(a * vec[j] for j, a in row.items()) % n == 0 for row in rows))
    m = RelationMatrix(tuple(rows), n, cols)
    assert count_solutions_snf(m) == count_solutions_bruteforce(m) == len(want)
    assert _list_kernel(rows, cols, n)[0] == want
