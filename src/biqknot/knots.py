"""Named knot diagrams bundled with the library.

Table files hold one knot per line::

    name | X+ 0 1 3 2; X+ 2 3 5 4; ... | determinant

The determinant is optional user-supplied metadata (this library never
computes it); for the bundled 2-bridge knots the test suite checks it
against coloring counts via Col_{R_n} = n * gcd(det, n).
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from typing import NamedTuple

from .diagram import ParseError, SemiarcDiagram, _decimal, any_int_digits, parse_pd


class KnotRecord(NamedTuple):
    name: str
    diagram: SemiarcDiagram
    determinant: int | None = None


def parse_knot_table(text: str) -> dict[str, KnotRecord]:
    """Parse a knot table file into an ordered name -> record map.

    Errors name the table line; a bad crossing record also names its
    place in the ``;``-separated list, counted from 1.
    """
    records: dict[str, KnotRecord] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'name | crossings [| determinant]'")
        name, inline = parts[0], parts[1]
        if not name:
            raise ValueError(f"line {lineno}: empty knot name")
        if name in records:
            raise ValueError(f"line {lineno}: duplicate knot {name!r}")
        det = None
        if len(parts) == 3 and parts[2]:
            try:
                with any_int_digits():
                    det = _decimal(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: determinant must be an integer") from None
        try:
            diagram = parse_pd("\n".join(inline.split(";")))
        except ParseError as e:
            raise ValueError(f"line {lineno}: record {e.line}: {e.message}") from None
        records[name] = KnotRecord(name, diagram, det)
    return records


@cache
def _builtin() -> dict[str, KnotRecord]:
    """The bundled table, read and parsed once per process."""
    return parse_knot_table(resources.files("biqknot").joinpath("data/knots.txt").read_text())


def builtin_table() -> dict[str, KnotRecord]:
    """The bundled table (small Rolfsen knots as verified diagrams), as a fresh dict."""
    return dict(_builtin())


def builtin_knot(name: str) -> KnotRecord:
    table = _builtin()
    if name not in table:
        raise KeyError(f"unknown knot {name!r}; bundled: {', '.join(table)}")
    return table[name]
