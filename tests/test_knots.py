"""Tests for the bundled knot table."""

import math

import pytest

from biqknot import knots
from biqknot.algebra import make_dihedral
from biqknot.cli import main
from biqknot.coloring import count_colorings
from biqknot.knots import builtin_knot, builtin_table, parse_knot_table

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


def test_unknown_knot():
    with pytest.raises(KeyError):
        builtin_knot("10_139")


def test_parse_knot_table_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_knot_table("just one field\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_knot_table("a | X+ 0 1 1 0 | 1\na | X+ 0 1 1 0 | 1\n")


def test_parse_knot_table_names_the_line_of_a_bad_determinant():
    with pytest.raises(ValueError) as e:
        parse_knot_table("a | X+ 0 1 1 0 | 1\n\nb | X+ 0 1 1 0 | three\n")
    assert str(e.value) == "line 3: determinant must be an integer"


def test_parse_knot_table_names_the_line_of_a_bad_record():
    # the bad record is the second of the line's ';' list, on table line 3
    with pytest.raises(ValueError) as e:
        parse_knot_table("# table\na | X+ 0 1 1 0 | 1\nb | X+ 0 1 1 0; X+ 2 3 | 3\n")
    assert str(e.value) == "line 3: record 2: X+ line takes four semiarc ids"


def test_table_without_determinant():
    recs = parse_knot_table("kink | X+ 0 1 1 0\n")
    assert recs["kink"].determinant is None


def test_bundled_table_is_parsed_once_per_process(monkeypatch, capsys):
    calls = []

    def counting(text):
        calls.append(1)
        return parse_knot_table(text)

    monkeypatch.setattr(knots, "parse_knot_table", counting)
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


def test_parse_knot_table_rejects_an_empty_name():
    with pytest.raises(ValueError) as e:
        parse_knot_table("a | X+ 0 1 1 0\n | X+ 0 1 1 0 | 1\n")
    assert str(e.value) == "line 2: empty knot name"
