"""Named knot diagrams bundled with the library.

Each diagram is built by the diagram module:

- the torus knots 3_1, 5_1, 7_1 and 9_1 are T(2,p), closures of the
  2-braid with p positive crossings: torus_2n(p);
- the twist knots 4_1, 5_2, 6_1, 7_2 and 8_1 are the pretzels P(m,1,1),
  m = 2..6: pretzel([m, 1, 1]);
- 9_24 is a 4-plat, which no generator builds yet, so it is kept as
  wire text and read by parse_pd. Knot tables (KnotInfo) give Rolfsen's
  9_24 bridge index 3, so this 2-bridge diagram is another knot, kept
  with the name and bytes that repro item 09 and criterion 09 read.

All ten are 2-bridge: the tests check that b1_lower over R_3, R_5, R_7,
R_11 and R_13 and min_seed_size both give 2, and each determinant
(metadata, never computed here) against Col_{R_n} = n * gcd(det, n).
That identity is Col_{R_n} = n * |Hom(H, Z/n)|, H being the homology of
the double branched cover, of order det, read for cyclic H: a 2-bridge
knot's double branched cover is a lens space, so H = Z/det. It fails
when H is not cyclic: the Montesinos knot 3,21,21 has H = Z/3 + Z/15
and 27 colorings over R_3, where n * gcd(det, n) = 9 (ROADMAP item 20).
So a 3-bridge entry needs a test based on H.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .diagram import SemiarcDiagram, parse_pd, pretzel, torus_2n


class KnotRecord(NamedTuple):
    name: str
    diagram: SemiarcDiagram
    determinant: int | None = None


_WIRE_9_24 = """\
X+ 7 0 8 1
X+ 1 8 2 9
X+ 17 2 0 3
X+ 3 16 4 17
X+ 9 4 10 5
X+ 15 10 16 11
X+ 11 14 12 15
X+ 5 12 6 13
X+ 13 6 14 7
"""


@cache
def _builtin() -> dict[str, KnotRecord]:
    """The bundled table, built once per process."""
    return {name: KnotRecord(name, diagram, det) for name, diagram, det in (
        ("3_1", torus_2n(3), 3),
        ("4_1", pretzel([2, 1, 1]), 5),
        ("5_1", torus_2n(5), 5),
        ("5_2", pretzel([3, 1, 1]), 7),
        ("6_1", pretzel([4, 1, 1]), 9),
        ("7_1", torus_2n(7), 7),
        ("7_2", pretzel([5, 1, 1]), 11),
        ("8_1", pretzel([6, 1, 1]), 13),
        ("9_1", torus_2n(9), 9),
        ("9_24", parse_pd(_WIRE_9_24), 45),
    )}


def builtin_table() -> dict[str, KnotRecord]:
    """The bundled table (small Rolfsen knots as verified diagrams), as a fresh dict."""
    return dict(_builtin())


def builtin_knot(name: str) -> KnotRecord:
    table = _builtin()
    if name not in table:
        raise KeyError(f"unknown knot {name!r}; bundled: {', '.join(table)}")
    return table[name]
