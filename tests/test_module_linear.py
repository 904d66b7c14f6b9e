"""Module-linear biquandles over (Z/n)^r: elimination against the search and a third oracle.

The third oracle is perfbench/verify.py, loaded read-only: its Alexander
quandle tables over GF(p^k) and its Gaussian elimination over F_p share
no code with biqknot. The search is forced on an algebra by a twin
whose cached linear_form is None.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from biqknot.algebra import (
    FiniteBiquandle,
    biquandle_z,
    enumerate_endos,
    enumerate_homs,
    from_tables,
    make_conjugation_quandle,
    make_dihedral,
    make_module_biquandle,
)
from biqknot.coloring import (
    _search,
    colorings_with_loops,
    count_colorings,
    enumerate_colorings,
    list_solutions,
)
from biqknot.diagram import (
    SemiarcDiagram,
    apply_r1,
    apply_r2,
    chain,
    parse_pd,
    pretzel,
    serialize_pd,
    torus_2n,
)
from biqknot.enhance import column_group_polynomial
from biqknot.knots import builtin_table
from biqknot.quiver import build_quiver

from oracles import brute_force_colorings

_spec = importlib.util.spec_from_file_location(
    "perfbench_verify", Path(__file__).parents[1] / "perfbench" / "verify.py")
verify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify)

# (p, matrix of multiplication by t) for x |> y = t x + (1 - t) y on GF(p^k)
FIELDS = {
    "GF4": (2, ((0, 1), (1, 1))),                   # t = w, w^2 = w + 1
    "GF8": (2, ((0, 0, 1), (1, 0, 1), (0, 1, 0))),  # t^3 = t + 1
    "GF9": (3, ((1, 2), (1, 1))),                   # t = 1 + i, i^2 = -1
}


def alexander(field: str) -> FiniteBiquandle:
    return from_tables(*verify.alexander_tables(*FIELDS[field]))


def searched_twin(y: FiniteBiquandle) -> FiniteBiquandle:
    """The same tables with linear_form cached as None, so every route searches."""
    twin = FiniteBiquandle(y.size, y.over_table, y.under_table)
    vars(twin)["linear_form"] = None
    return twin


def gf9_non_quandle() -> FiniteBiquandle:
    """x ." y = i x and x .v y = -x + (1 + i) y over GF(9) = (Z/3)^2, i^2 = -1."""
    zero = ((0, 0), (0, 0))
    return make_module_biquandle(3, ((0, 2), (1, 0)), zero, ((2, 0), (0, 2)), ((1, 2), (1, 1)))


def moved(d, key: str):
    """d after two R1/R2 moves drawn from key."""
    rng = random.Random(key)
    for _ in range(2):
        if rng.random() < 0.5:
            d = apply_r1(d, rng.randrange(d.semiarc_count), rng.choice((1, -1)))
        else:
            a, b = rng.sample(range(d.semiarc_count), 2)
            d = apply_r2(d, a, b, rng.choice(("parallel", "antiparallel")))
    return d


# the virtual trefoil (Gauss code O1 O2 U1 U2), once with an erased virtual crossing
# and a purely virtual loop, so the parse's union-find runs
VIRTUAL_TREFOIL = parse_pd("X+ 1 3 2 0\nX+ 2 0 3 1\n")
VIRTUAL_WITH_V = parse_pd("X+ 1 3 12 10\nX+ 2 0 3 1\nV 10 12 0 2\nV 20 21 21 20\n")


def diagrams():
    knots = builtin_table()
    out = {f"torus{n}": torus_2n(n) for n in (2, 3, 4, 5, 6, 8)}
    out.update({"chain3": chain(3), "chain5": chain(5), "p333": pretzel([3, 3, 3]),
                "p-235": pretzel([-2, 3, 5]), "virtual3_1": VIRTUAL_TREFOIL,
                "virtual3_1.V": VIRTUAL_WITH_V,
                "loops": SemiarcDiagram(torus_2n(3).semiarc_count, torus_2n(3).crossings, 2)})
    out.update({f"knot{name}": rec.diagram for name, rec in knots.items()})
    for name in ("3_1", "4_1", "7_2"):
        out[f"moved.knot{name}"] = moved(knots[name].diagram, name)
    out["moved.chain3"] = moved(chain(3), "chain3")
    return out


DIAGRAMS = diagrams()


def test_virtual_diagrams_parse_as_expected():
    assert VIRTUAL_WITH_V == SemiarcDiagram(4, VIRTUAL_TREFOIL.crossings, 1)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_elimination_count_matches_search_and_fp_oracle(field):
    y = alexander(field)
    p, t = FIELDS[field]
    assert y.linear_form is not None and len(y.linear_form[1]) == len(t)
    twin = searched_twin(y)
    for name, d in DIAGRAMS.items():
        want = verify.alexander_count(serialize_pd(d), p, t)
        assert count_colorings(d, y) == want, name
        assert count_colorings(d, twin) == want, name


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_elimination_listing_matches_search_tuple_for_tuple(field):
    y = alexander(field)
    twin = searched_twin(y)
    for name, d in DIAGRAMS.items():
        got = enumerate_colorings(d, y)
        assert got == enumerate_colorings(d, twin), name
        assert all(type(c) is tuple for c in got)
        assert colorings_with_loops(d, y) == colorings_with_loops(d, twin), name
    for m in (0, 1, 3):  # no relations: every tuple, and [()] for m = 0
        assert list_solutions(m, [], y)[0] == sorted(map(tuple, _search(m, [], y)))
    assert list_solutions(0, [], y)[0] == [()]
    assert enumerate_colorings(SemiarcDiagram(0, (), 2), y) == [()]
    assert len(colorings_with_loops(SemiarcDiagram(0, (), 2), y)) == y.size**2


def test_non_quandle_module_biquandle_matches_search_and_brute_force():
    y = gf9_non_quandle()
    twin = searched_twin(y)
    for d in (torus_2n(2), torus_2n(3), torus_2n(4), chain(3), VIRTUAL_TREFOIL,
              apply_r1(torus_2n(2), 1, -1), apply_r2(torus_2n(2), 0, 2, "antiparallel")):
        got = enumerate_colorings(d, y)
        assert got == enumerate_colorings(d, twin)
        assert len(got) == count_colorings(d, y) == count_colorings(d, twin)
        if y.size**d.semiarc_count <= 10**5:
            assert got == brute_force_colorings(d, y)


def test_homs_quivers_and_enhancements_match_the_search():
    r3 = make_dihedral(3)
    for field in ("GF4", "GF9"):
        y = alexander(field)
        twin = searched_twin(y)
        endos = enumerate_endos(y)
        assert endos == enumerate_endos(twin)
        assert enumerate_homs(r3, y) == enumerate_homs(r3, twin)
        for d in (torus_2n(3), chain(3), DIAGRAMS["loops"], DIAGRAMS["virtual3_1.V"]):
            assert build_quiver(d, y, endos) == build_quiver(d, twin, endos)
            assert column_group_polynomial(d, y) == column_group_polynomial(d, twin)


@pytest.mark.parametrize("quad", [(0, 1, 2, 3), (0, 2, 3, 1), (2, 0, 1, 3), (2, 3, 0, 1)])
def test_search_completes_each_propagating_pair(quad):
    # the search branches on semiarc 0, then on semiarc 1; placed this way
    # they hold slots (p, q), (p, s), (q, r) and (r, s) of the one quad, so
    # the second branch completes each propagating pair in turn
    swaps = [tuple(p) for p in itertools.permutations(range(1, 5))
             if sum(a != b for a, b in zip(p, range(1, 5))) == 2]
    for y in (searched_twin(biquandle_z()), searched_twin(gf9_non_quandle()),
              make_conjugation_quandle(swaps)):
        assert y.linear_form is None
        placed = []
        for x, z in itertools.product(y.elements(), repeat=2):
            coloring = [0] * 4
            for sem, val in zip(quad, (x, z, y.under(x, z), y.over(z, x))):
                coloring[sem] = val
            placed.append(tuple(coloring))
        assert [tuple(c) for c in _search(4, [quad], y)] == sorted(placed), (quad, y)
