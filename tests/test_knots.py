"""Tests for the bundled knot table."""

import math

import pytest

from biqknot import knots
from biqknot.algebra import make_dihedral
from biqknot.bridge import b1_lower, min_seed_size
from biqknot.cli import main
from biqknot.coloring import count_colorings
from biqknot.diagram import parse_pd, serialize_pd
from biqknot.knots import builtin_knot, builtin_table

# every bundled knot is 2-bridge, so the 2-bridge counting rule applies
TWO_BRIDGE = ("3_1", "4_1", "5_1", "5_2", "6_1", "7_1", "7_2", "8_1", "9_1", "9_24")


def test_table_contents():
    table = builtin_table()
    assert set(TWO_BRIDGE) <= set(table)
    for name, rec in table.items():
        crossings = int(name.split("_")[0])
        assert len(rec.diagram.crossings) == crossings
        assert rec.diagram.component_count() == 1
        assert rec.determinant is not None


# the bundled table as text, one 'name | crossings | determinant' line per knot, ';' for a
# line break of the wire format: each knot's `knots show` bytes and the table order
TABLE_LINES = """\
3_1 | X+ 0 1 3 2; X+ 2 3 5 4; X+ 4 5 1 0 | 3
4_1 | X+ 0 5 1 6; X+ 4 1 5 2; X- 6 3 7 4; X- 2 7 3 0 | 5
5_1 | X+ 0 1 3 2; X+ 2 3 5 4; X+ 4 5 7 6; X+ 6 7 9 8; X+ 8 9 1 0 | 5
5_2 | X+ 0 7 1 8; X+ 6 1 7 2; X+ 2 5 3 6; X+ 8 3 9 4; X+ 4 9 5 0 | 7
6_1 | X+ 0 9 1 10; X+ 8 1 9 2; X+ 2 7 3 8; X+ 6 3 7 4; X- 10 5 11 6; X- 4 11 5 0 | 9
7_1 | X+ 0 1 3 2; X+ 2 3 5 4; X+ 4 5 7 6; X+ 6 7 9 8; X+ 8 9 11 10; X+ 10 11 13 12; X+ 12 13 1 0 | 7
7_2 | X+ 0 11 1 12; X+ 10 1 11 2; X+ 2 9 3 10; X+ 8 3 9 4; X+ 4 7 5 8; X+ 12 5 13 6; X+ 6 13 7 0 | 11
8_1 | X+ 0 13 1 14; X+ 12 1 13 2; X+ 2 11 3 12; X+ 10 3 11 4; X+ 4 9 5 10; X+ 8 5 9 6; X- 14 7 15 8; X- 6 15 7 0 | 13
9_1 | X+ 0 1 3 2; X+ 2 3 5 4; X+ 4 5 7 6; X+ 6 7 9 8; X+ 8 9 11 10; X+ 10 11 13 12; X+ 12 13 15 14; X+ 14 15 17 16; X+ 16 17 1 0 | 9
9_24 | X+ 7 0 8 1; X+ 1 8 2 9; X+ 17 2 0 3; X+ 3 16 4 17; X+ 9 4 10 5; X+ 15 10 16 11; X+ 11 14 12 15; X+ 5 12 6 13; X+ 13 6 14 7 | 45
"""


def test_bundled_knots_are_pinned(capsys):
    # a generator change must not silently change `knots show` or the table order
    want = [line.split(" | ") for line in TABLE_LINES.splitlines()]
    table = builtin_table()
    assert list(table) == [name for name, _, _ in want]
    for name, crossings, det in want:
        wire = crossings.replace("; ", "\n") + "\n"
        rec = table[name]
        assert (rec.name, serialize_pd(rec.diagram), rec.determinant) == (name, wire, int(det))
        assert rec.diagram == parse_pd(wire)
        assert main(["knots", "show", name]) == 0
        assert capsys.readouterr().out == wire


def test_determinants():
    dets = {"3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9,
            "7_1": 7, "7_2": 11, "8_1": 13, "9_1": 9, "9_24": 45}
    for name, det in dets.items():
        assert builtin_knot(name).determinant == det


def test_two_bridge_coloring_rule():
    # Col_{R_n}(K) = n * gcd(det, n) for 2-bridge knots; this pins the
    # bundled diagrams against their recorded determinants
    for name in TWO_BRIDGE:
        rec = builtin_knot(name)
        for n in range(3, 13):
            assert count_colorings(rec.diagram, make_dihedral(n)) == n * math.gcd(rec.determinant, n), name


def test_bundled_knots_have_bridge_index_two():
    # the dihedral counts bound b_1 from below and the least seed set bounds it from above;
    # both give 2, so every bundled diagram is a 2-bridge knot, the one named 9_24 included
    for name in TWO_BRIDGE:
        d = builtin_knot(name).diagram
        counts = [(X, count_colorings(d, X)) for X in map(make_dihedral, (3, 5, 7, 11, 13))]
        assert b1_lower(counts) == min_seed_size(d)[0] == 2, name
    assert min_seed_size(builtin_knot("9_24").diagram) == (2, (0, 3))


def test_unknown_knot():
    with pytest.raises(KeyError):
        builtin_knot("10_139")


def test_bundled_table_is_built_once_per_process(monkeypatch, capsys):
    calls = []  # one parse_pd call per build, for 9_24

    def counting(text):
        calls.append(1)
        return parse_pd(text)

    monkeypatch.setattr(knots, "parse_pd", counting)
    knots._builtin.cache_clear()
    try:
        assert main(["knots", "show", "3_1"]) == 0
        assert main(["diagram", "sum", "knot:3_1", "0", "knot:4_1", "0"]) == 0
        assert main(["knots", "list"]) == 0
        builtin_table()
        builtin_knot("9_24")
        assert len(calls) == 1
    finally:
        knots._builtin.cache_clear()
    capsys.readouterr()


def test_builtin_table_is_a_copy():
    table = builtin_table()
    table.pop("3_1")
    table["extra"] = table["4_1"]
    assert "3_1" in builtin_table() and "extra" not in builtin_table()
    assert builtin_knot("3_1").name == "3_1"
