"""Reference implementations that only the tests run."""

import itertools
from collections import defaultdict

from biqknot.algebra import (
    AxiomError,
    AxiomViolation,
    FiniteBiquandle,
    _as_table,
    _label,
    make_conjugation_quandle,
)
from biqknot.coloring import BRUTE_FORCE_GUARD, Coloring, _prime_powers
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


def relation_rows_reference(oriented, form) -> list[dict[int, int]]:
    """coloring._relation_rows by one generic loop: every row accumulates its
    (quad slot, coefficient) terms into a dict, for every width."""
    _, A, B, C, D = form
    w = len(A)
    plan = []  # per row of a quad: (quad slot * w + coordinate, coefficient) terms
    for out, M, x, K, y in ((2, C, 0, D, 1), (3, A, 1, B, 0)):
        for i in range(w):
            plan.append([(out * w + i, 1), *((x * w + j, -v) for j, v in enumerate(M[i]) if v),
                         *((y * w + j, -v) for j, v in enumerate(K[i]) if v)])
    rows = []
    for quad in oriented:
        unknowns = quad if w == 1 else [t * w + i for t in quad for i in range(w)]
        for terms in plan:
            row: dict[int, int] = {}
            for at, v in terms:
                c = unknowns[at]
                row[c] = row.get(c, 0) + v
            rows.append(row)
    return rows


def eliminate_reference(rows, p: int, k: int):
    """coloring._eliminate as a plain loop: the rows are indexed by column in a
    second pass, and each pivot is picked from a candidate list by min(), then
    dropped from its columns in a pass of its own (see coloring._eliminate)."""
    q = p**k
    parent: dict[int, int] = {}  # merged column -> a column it equals, nearer its root
    general = []  # the rows that are no unit equality as given
    for row in rows:
        if len(row) == 2:
            (a, u), (b, w) = row.items()
            if u % p and not (u + w) % q:
                while a in parent:  # path halving; parent[a] is stored before a moves
                    g = parent[a]
                    parent[a] = a = parent.get(g, g)
                while b in parent:
                    g = parent[b]
                    parent[b] = b = parent.get(g, g)
                if a != b:
                    parent[b] = a
                continue
        general.append(row)
    for j in reversed(parent):  # j's ancestors were merged after j: map j to its root
        parent[j] = parent.get(parent[j], parent[j])

    root = parent.get
    rows = []  # every built row in place order, zero ones too
    for given in general:
        row: dict[int, int] = {}
        for j, a in given.items():
            j = root(j, j)
            a = (row.pop(j, 0) + a) % q
            if a:
                row[j] = a
        rows.append(row)
    col_rows: defaultdict[int, set[int]] = defaultdict(set)  # column -> indices of rows using it
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    pivots = []
    live = range(len(rows))
    for v in range(k):
        pv, above = p**v, p ** (v + 1)
        kept = []  # rows passed over, all their entries divisible by p^(v+1)
        for i in live:
            row = rows[i]
            if not row:  # zero, a repeat or dependent: retired
                continue
            cands = row if k == 1 else [j for j, a in row.items() if a % above]
            if not cands:
                kept.append(i)
                continue
            j = min(cands, key=lambda c: len(col_rows[c]))
            for c in row:
                col_rows[c].discard(i)
            inv = pow(row.pop(j) // pv, -1, q)
            for r in col_rows.pop(j):
                other = rows[r]
                f = other.pop(j) // pv * inv % q
                for c, a in row.items():
                    b = (other.get(c, 0) - f * a) % q
                    if b:
                        if c not in other:
                            col_rows[c].add(r)
                        other[c] = b
                    elif c in other:
                        del other[c]
                        col_rows[c].discard(r)
            pivots.append((j, v, inv, row))
        live = kept
    return parent, pivots


def list_kernel_reference(rows, cols: int, n: int, width: int = 1) -> tuple[list[Coloring], list[int]]:
    """coloring._list_kernel with back-substitution over the rest dicts and one
    generator expression per column key (see coloring._list_kernel)."""
    if cols == 0:
        return [()], []
    unknowns = cols * width
    gens, free = [], set()  # (order, coefficient per unknown mod n); entries fixing x
    for p, k in _prime_powers(n):
        q = p**k
        e = n // q * pow(n // q, -1, q)  # 1 mod q, 0 mod n/q
        merged, pivots = eliminate_reference(rows, p, k)
        fixed = {*merged, *(j for j, _, _, _ in pivots)}
        params = [(c, q) for c in range(unknowns) if c not in fixed]
        for col, order in params + [(j, p**v) for j, v, _, _ in pivots if v]:
            free.add(col // width)
            g = [0] * unknowns
            g[col] = q // order
            for j, v, inv, rest in reversed(pivots):
                g[j] = (g[j] - inv * (sum(a * g[c] for c, a in rest.items()) // p**v)) % q
            gens.append((order, [g[merged.get(c, c)] * e % n for c in range(unknowns)]))

    def residues(key) -> list[int]:  # an unknown's values over the box
        col = [0]
        for (order, _), a in zip(gens, key):
            col = col * order if not a else [(v + t * a) % n for t in range(order) for v in col]
        return col

    labels = [_label(i, n, width) for i in range(n**width)]
    built: dict[tuple, list[int]] = {}  # coefficients across gens, per coordinate -> the column
    columns = []
    for c in range(cols):
        key = tuple(tuple(g[c * width + i] for _, g in gens) for i in range(width))
        if key not in built:
            index = residues(key[0])
            for i in range(1, width):
                scale = n**i
                index = [a + v * scale for a, v in zip(index, residues(key[i]))]
            built[key] = list(map(labels.__getitem__, index))
        columns.append(built[key])
    return sorted(zip(*columns)), sorted(free)
