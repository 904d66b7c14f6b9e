"""Reference implementations that only the tests run."""

import itertools

from biqknot.algebra import FiniteBiquandle, make_conjugation_quandle
from biqknot.coloring import BRUTE_FORCE_GUARD, Coloring
from biqknot.diagram import SemiarcDiagram


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
