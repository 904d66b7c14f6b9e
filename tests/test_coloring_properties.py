"""Property tests: every count and listing route agrees on random moved diagrams.

count_colorings and enumerate_colorings (both from the elimination for
linear algebras, the search otherwise) are compared with the coloring
search and, where it is quick, with brute force, over tori, chains and
pretzels after random R1/R2 moves.
"""

import pytest

from biqknot.algebra import biquandle_z, make_dihedral, parse_biquandle, serialize_biquandle
from biqknot.coloring import (
    BRUTE_FORCE_GUARD,
    _oriented,
    _search,
    brute_force_colorings,
    count_colorings,
    enumerate_colorings,
)
from biqknot.diagram import SemiarcDiagram, apply_r1, apply_r2, chain, pretzel, torus_2n

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


# R_n (no linear_params tag), the same tables read back from text, and the tagged Z
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
