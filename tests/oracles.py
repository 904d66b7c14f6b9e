"""Reference implementations that only the tests run."""

import itertools

from biqknot.algebra import (
    AxiomError,
    AxiomViolation,
    FiniteBiquandle,
    _as_table,
    make_conjugation_quandle,
)
from biqknot.coloring import BRUTE_FORCE_GUARD, Coloring
from biqknot.diagram import SemiarcDiagram, any_int_digits


def targets_by_full_index(q):
    """The quiver's targets with no key: map every coordinate of every vertex and look
    the image up whole."""
    index = {v: i for i, v in enumerate(q.vertices)}
    return tuple(tuple(index[tuple(f[x - 1] for x in v)] for v in q.vertices) for f in q.endos)


def brute_force_colorings(d: SemiarcDiagram, Y: FiniteBiquandle) -> list[Coloring]:
    """Direct filter over all |Y|^semiarcs assignments (test oracle)."""
    if Y.size**d.semiarc_count > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force over {Y.size}^{d.semiarc_count} assignments refused")
    out = []
    for cand in itertools.product(Y.elements(), repeat=d.semiarc_count):
        # read here, not through coloring._oriented, so the oracle stays independent
        for c in d.crossings:
            if c.sign > 0:
                u, o = cand[c.u_in], cand[c.o_in]
                if cand[c.u_out] != Y.under(u, o) or cand[c.o_out] != Y.over(o, u):
                    break
            else:
                u, o = cand[c.u_out], cand[c.o_out]
                if cand[c.u_in] != Y.under(u, o) or cand[c.o_in] != Y.over(o, u):
                    break
        else:
            out.append(cand)
    return out


def transpositions_quandle():
    """The 6 transpositions of S_4 under conjugation: connected, order 6, so not linear."""
    swaps = []
    for i, j in itertools.combinations(range(4), 2):
        p = list(range(1, 5))
        p[i], p[j] = p[j], p[i]
        swaps.append(tuple(p))
    return make_conjugation_quandle(swaps)


def naive_violations(over_table, under_table) -> list[AxiomViolation]:
    """validate_axioms' list, with each exchange law checked one (x, y, z) triple at a time."""
    size = len(over_table)
    try:
        with any_int_digits():
            over = _as_table(over_table, size, "over")
            under = _as_table(under_table, size, "under")
    except AxiomError as e:
        return [AxiomViolation(f"shape: {e}", ())]

    def O(a, b):
        return over[a - 1][b - 1]

    def U(a, b):
        return under[a - 1][b - 1]

    rng = range(1, size + 1)
    out = [AxiomViolation("diagonal x.\"x = x.vx", (x,)) for x in rng if O(x, x) != U(x, x)]
    for y in rng:
        if len({O(x, y) for x in rng}) != size:
            out.append(AxiomViolation("over column not a bijection", (y,)))
        if len({U(x, y) for x in rng}) != size:
            out.append(AxiomViolation("under column not a bijection", (y,)))
    seen = {}
    for x, y in itertools.product(rng, rng):
        img = (O(y, x), U(x, y))
        if img in seen:
            out.append(AxiomViolation("sideways map S not a bijection", (*seen[img], x, y)))
        else:
            seen[img] = (x, y)
    for x, y, z in itertools.product(rng, rng, rng):
        if O(O(x, y), O(z, y)) != O(O(x, z), U(y, z)):
            out.append(AxiomViolation("exchange law (over/over)", (x, y, z)))
        if O(U(x, y), U(z, y)) != U(O(x, z), O(y, z)):
            out.append(AxiomViolation("exchange law (mixed)", (x, y, z)))
        if U(U(x, y), U(z, y)) != U(U(x, z), O(y, z)):
            out.append(AxiomViolation("exchange law (under/under)", (x, y, z)))
    return out
