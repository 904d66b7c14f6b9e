"""Property tests: the one column check holds the semiarc rule for every constructor.

SemiarcDiagram must accept id columns exactly when each side (the inputs
u_in + o_in, the outputs u_out + o_out) sorts to 0..m-1, and otherwise
raise the message of the first rule break. parse_pd builds its records in
C from the columns it read and hands the same columns to the check: they
must come out as exactly Crossing and SemiarcDiagram, equal to what the
constructor makes.
"""

import random
from collections import Counter

import pytest

from biqknot.diagram import Crossing, DiagramError, SemiarcDiagram, parse_pd, serialize_pd

from test_diagram import oracle_diagrams, random_virtual_system, varied_text

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def rule_message(m, crossings):
    """The message of the first semiarc rule break: an id out of range, in record order;
    else the least semiarc not consumed, or not produced, exactly once."""
    for s in (s for c in crossings for s in c[1:]):
        if not 0 <= s < m:
            return f"semiarc {s} out of range 0..{m - 1}"
    heads = Counter(s for c in crossings for s in c[1:3])
    tails = Counter(s for c in crossings for s in c[3:5])
    for s in range(m):
        for count, end, verb in (heads[s], "head", "consumed"), (tails[s], "source", "produced"):
            if count != 1:
                word = f"no {end}" if count == 0 else f"multiple {end}s"
                return f"semiarc {s} has {word} (must be {verb} exactly once)"
    return None


@st.composite
def id_side(draw, m, n):
    """2n ids: a permutation of 0..m-1, cut or padded to length, then spliced with
    duplicates, values that leave gaps, -1 or m."""
    side = draw(st.permutations(range(m)))[:2 * n]
    pad = 2 * n - len(side)
    side += draw(st.lists(st.integers(-1, m), min_size=pad, max_size=pad))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        if side:
            side[draw(st.integers(0, len(side) - 1))] = draw(st.sampled_from((-1, m, *range(m))))
    return side


@st.composite
def crossing_columns(draw):
    m = draw(st.integers(0, 12))
    n = draw(st.sampled_from((m // 2, m // 2, (m + 1) // 2, draw(st.integers(0, 7)))))
    ins, outs = draw(id_side(m, n)), draw(id_side(m, n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return m, tuple(map(Crossing, signs, ins[:n], ins[n:], outs[:n], outs[n:]))


@hypothesis.settings(max_examples=600, deadline=None)
@hypothesis.given(crossing_columns())
def test_the_column_check_accepts_exactly_the_sorted_rule(drawn):
    m, crossings = drawn
    ins = [s for c in crossings for s in (c.u_in, c.o_in)]
    outs = [s for c in crossings for s in (c.u_out, c.o_out)]
    if sorted(ins) == list(range(m)) == sorted(outs):
        assert rule_message(m, crossings) is None
        assert SemiarcDiagram(m, crossings) == (m, crossings, 0)
    else:
        with pytest.raises(DiagramError) as e:
            SemiarcDiagram(m, crossings)
        assert str(e.value) == rule_message(m, crossings)


def check_parsed(text):
    d = parse_pd(text)
    assert type(d) is SemiarcDiagram and all(type(c) is Crossing for c in d.crossings)
    assert type(d.crossings) is tuple
    assert SemiarcDiagram(*d) == d


def test_parse_builds_exact_records_on_the_families():
    for d in oracle_diagrams():
        check_parsed(serialize_pd(d))
        assert parse_pd(serialize_pd(d)) == d


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(oracle_diagrams()), st.randoms(use_true_random=False))
def test_parse_builds_exact_records_on_drawn_texts(d, rng):
    check_parsed(varied_text(d, rng))
    check_parsed(random_virtual_system(random.Random(rng.random())))
