"""Coloring enumeration and counting for semiarc diagrams.

A coloring assigns a biquandle element to every semiarc so that each
crossing satisfies the convention relations (positive: u_out = u_in .v
o_in and o_out = o_in ." u_in; negative: the inverse pair). The same
relations, read over the quads (x, y, x .v y, y ." x) of a biquandle X,
say that a map X -> Y is a homomorphism, so one solver serves both.

Over a linear biquandle the relations form a sparse system mod n whose
solutions are a Z/n-module. FiniteBiquandle.linear_form reads one shape
off the tables: x ." y = Ax + By and x .v y = Cx + Dy with r x r
matrices on (Z/n)^r, |Y| = n^r, labelled by algebra._label (r = 1 for
make_linear_biquandle's algebras and the dihedral R_n, r = 2 for
Alexander quandles over GF(4) or GF(9)). Each semiarc has r unknowns,
semiarc s's coordinate i being unknown s*r + i. coloring_matrix hands
out that system as a RelationMatrix of sparse rows, the form the
elimination reads; dense() is for printing. One elimination over each
prime power of n, after a union-find merges the unknowns of each
equality row x_a = x_b, serves two consumers: the counter multiplies
the sizes its pivots leave free; the lister keeps the pivots, reads a
generator per free parameter off them by back-substitution, and lists
the box of their multiples column by column, building each distinct
column once (a quandle crossing's o_in and o_out always share one) and
zipping the columns into rows. Every other algebra is listed, or
counted leaf by leaf, by a worklist propagation search that branches
only when no relation can determine a new value through the forward
relations, the inverse column maps, or the inverse of the sideways map.
The search and brute force stay as the references for both linear
routes. Arithmetic is plain Python integers, so entries can never
overflow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteBiquandle, _label
from .diagram import SemiarcDiagram

Coloring = tuple[int, ...]

BRUTE_FORCE_GUARD = 10**7


def _oriented(d: SemiarcDiagram) -> list[tuple[int, int, int, int]]:
    """Each crossing as (p, q, r, s) with relations r = p .v q, s = q ." p."""
    return [(c.u_in, c.o_in, c.u_out, c.o_out) if c.sign > 0
            else (c.u_out, c.o_out, c.u_in, c.o_in) for c in d.crossings]


def _search(m: int, oriented, Y: FiniteBiquandle):
    """Yield every x in Y^m satisfying each quad's relations, as lists, in search order.

    A quad (p, q, r, s) asks x[r] = x[p] .v x[q] and x[s] = x[q] ." x[p].
    Depth-first over an explicit stack, so no diagram size reaches the
    recursion limit; memory is one assignment per open branch level.
    """
    incident: list[list[int]] = [[] for _ in range(m)]
    for ci, quad in enumerate(oriented):
        for s in set(quad):
            incident[s].append(ci)

    def propagate(assign: list[int], queue: list[int]) -> bool:
        while queue:
            ci = queue.pop()
            p, q, r, s = oriented[ci]
            vp, vq, vr, vs = assign[p], assign[q], assign[r], assign[s]
            derived: list[tuple[int, int]] = []
            if vp and vq:
                derived = [(r, Y.under(vp, vq)), (s, Y.over(vq, vp))]
            elif vp and vs:
                vq = Y.over_col_inv(vp, vs)
                derived = [(q, vq), (r, Y.under(vp, vq))]
            elif vq and vr:
                vp = Y.under_col_inv(vq, vr)
                derived = [(p, vp), (s, Y.over(vq, vp))]
            elif vr and vs:
                vp, vq = Y.sideways_inv(vs, vr)
                derived = [(p, vp), (q, vq)]
            else:
                continue
            for sem, val in derived:
                if assign[sem] == 0:
                    assign[sem] = val
                    queue.extend(incident[sem])
                elif assign[sem] != val:
                    return False
        return True

    # propagating slot pairs within the oriented quad (p, q, r, s)
    partner_pairs = ((0, 1), (0, 3), (1, 2), (2, 3))

    def pick_branch(assign: list[int]) -> int:
        # prefer a semiarc that completes a propagating pair at some
        # crossing, so the branch seeds a Wirtinger-style cascade
        best = None
        for quad in oriented:
            for i, j in partner_pairs:
                a, b = quad[i], quad[j]
                if assign[a] and not assign[b]:
                    best = b if best is None else min(best, b)
                elif assign[b] and not assign[a]:
                    best = a if best is None else min(best, a)
        if best is not None:
            return best
        return assign.index(0)

    root = [0] * m
    if not propagate(root, list(range(len(oriented)))):
        return
    if 0 not in root:
        yield root
        return
    # each frame: a partial assignment, its branch semiarc, the values left to try
    stack = [(root, pick_branch(root), iter(Y.elements()))]
    while stack:
        assign, free, values = stack[-1]
        v = next(values, None)
        if v is None:
            stack.pop()
            continue
        branch = assign.copy()
        branch[free] = v
        if not propagate(branch, list(incident[free])):
            continue
        if 0 in branch:
            stack.append((branch, pick_branch(branch), iter(Y.elements())))
        else:
            yield branch


def list_solutions(m: int, oriented, Y: FiniteBiquandle) -> list[Coloring]:
    """Every x in Y^m satisfying each quad's relations, sorted: from the kernel lattice
    if Y is linear (see FiniteBiquandle.linear_form), else by the search."""
    form = Y.linear_form
    if form is None:
        return sorted(map(tuple, _search(m, oriented, Y)))
    return _list_kernel(_relation_rows(oriented, form), m, form[0], len(form[1]))


def enumerate_colorings(d: SemiarcDiagram, Y: FiniteBiquandle) -> list[Coloring]:
    """All colorings of d's semiarcs by Y, lexicographically sorted.

    A linear Y is listed from the kernel lattice of the elimination that
    count_colorings also runs, any other Y by the coloring search; the
    search and brute_force_colorings are the references. Free loops are
    not materialized; count_colorings folds them in as a factor of |Y|
    each.
    """
    return list_solutions(d.semiarc_count, _oriented(d), Y)


def count_colorings(d: SemiarcDiagram, Y: FiniteBiquandle) -> int:
    """Col_Y(d): coloring count including a factor |Y| per free loop.

    A linear Y (see FiniteBiquandle.linear_form) is counted by sparse
    elimination of its relation system mod n; any other Y by the
    coloring search, tallying leaves without listing them.
    """
    form = Y.linear_form
    if form is None:
        base = sum(1 for _ in _search(d.semiarc_count, _oriented(d), Y))
    else:
        base = _count_kernel(_relation_rows(_oriented(d), form), d.semiarc_count * len(form[1]),
                             form[0])
    return base * Y.size**d.free_loops


def brute_force_colorings(d: SemiarcDiagram, Y: FiniteBiquandle) -> list[Coloring]:
    """Direct filter over all |Y|^semiarcs assignments (test oracle)."""
    if Y.size**d.semiarc_count > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force over {Y.size}^{d.semiarc_count} assignments refused")
    out = []
    for cand in itertools.product(Y.elements(), repeat=d.semiarc_count):
        if satisfies_relations(d, Y, cand):
            out.append(cand)
    return out


def satisfies_relations(d: SemiarcDiagram, Y: FiniteBiquandle, assign) -> bool:
    for c in d.crossings:
        if c.sign > 0:
            u, o = assign[c.u_in], assign[c.o_in]
            if assign[c.u_out] != Y.under(u, o) or assign[c.o_out] != Y.over(o, u):
                return False
        else:
            u, o = assign[c.u_out], assign[c.o_out]
            if assign[c.u_in] != Y.under(u, o) or assign[c.o_in] != Y.over(o, u):
                return False
    return True


def colorings_with_loops(d: SemiarcDiagram, Y: FiniteBiquandle) -> list[Coloring]:
    """Colorings with free-loop values materialized as trailing coordinates.

    Quivers and enhancements act on the full Hom set, so crossingless
    components contribute |Y| independent choices each, appended after
    the semiarc coordinates in sorted order. No quad touches those
    coordinates, so one listing of the longer vector covers them.
    """
    return list_solutions(d.semiarc_count + d.free_loops, _oriented(d), Y)


# -- linear path: relation matrices and Smith normal form ----------------------


@dataclass(frozen=True)
class RelationMatrix:
    """Homogeneous linear relations mod n over the unknowns 0..cols-1.

    One sparse row {column: coefficient} per relation, coefficients read
    mod modulus; dense() writes the rows out in full for printing."""

    rows: tuple[dict[int, int], ...]
    modulus: int
    cols: int

    def __post_init__(self):
        for row in self.rows:
            if row and (min(row) < 0 or max(row) >= self.cols):
                raise ValueError(f"relation row {row} has a column outside 0..{self.cols - 1}")

    def dense(self) -> tuple[tuple[int, ...], ...]:
        """The rows as full tuples of length cols, entries reduced mod modulus."""
        n = self.modulus
        return tuple(tuple(row.get(j, 0) % n for j in range(self.cols)) for row in self.rows)


def _relation_rows(oriented, form) -> list[dict[int, int]]:
    """Sparse rows {unknown: coefficient} of linear_form's relations, 2w per quad.

    With form = (n, A, B, C, D), w x w matrices, a quad (p, q, r, s)
    gives r - Cp - Dq and s - Aq - Bp, each as w rows, one per coordinate
    i, over the unknowns t*w + i (semiarc t, coordinate i). Zero
    coefficients are left out.
    """
    _, A, B, C, D = form
    w = len(A)
    plan = []  # per row of a quad: (quad slot, coordinate, coefficient) terms
    for out, M, x, K, y in ((2, C, 0, D, 1), (3, A, 1, B, 0)):
        for i in range(w):
            plan.append([(out, i, 1), *((x, j, -v) for j, v in enumerate(M[i]) if v),
                         *((y, j, -v) for j, v in enumerate(K[i]) if v)])
    rows = []
    for quad in oriented:
        for terms in plan:
            row: dict[int, int] = {}
            for slot, j, v in terms:
                c = quad[slot] * w + j
                row[c] = row.get(c, 0) + v
            rows.append(row)
    return rows


def coloring_matrix(d: SemiarcDiagram, Y: FiniteBiquandle) -> RelationMatrix:
    """The relation matrix for a linear biquandle on (Z/n)^r: 2r rows per crossing.

    With x ." y = Ax + By and x .v y = Cx + Dy (see
    FiniteBiquandle.linear_form), a positive crossing contributes
    u_out - C*u_in - D*o_in = 0 and o_out - A*o_in - B*u_in = 0, one row
    per coordinate; a negative crossing contributes the same relations
    read through its inverse orientation. Semiarc s owns the columns
    s*r .. s*r + r - 1. Each free loop owns
    the next r columns, which no row touches, in the order
    colorings_with_loops uses, so the null space has Col_Y(d) vectors.
    The rows stay sparse; dense() is for printing.
    """
    form = Y.linear_form
    if form is None:
        raise ValueError("coloring_matrix requires a linear biquandle (see linear_form)")
    cols = (d.semiarc_count + d.free_loops) * len(form[1])
    return RelationMatrix(tuple(_relation_rows(_oriented(d), form)), form[0], cols)


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, k) for every prime power p^k exactly dividing n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _count_kernel(rows, cols: int, n: int) -> int:
    """Number of x in (Z/n)^cols with row . x = 0 mod n for every sparse row.

    The count is the product of the counts mod each p^k exactly dividing n
    (Chinese remainder theorem): p^k per column, of which a pivot of
    valuation v leaves p^v. The pivots are counted as they come, not kept.
    """
    count = 1
    for p, k in _prime_powers(n):
        exponent = k * cols
        for _, v, _, _ in _pivots(rows, p, k):
            exponent -= k - v
        count *= p**exponent
    return count


def _pivots(rows, p: int, k: int):
    """Eliminate the sparse rows mod q = p^k in the local Smith form, yielding each pivot.

    A pivot is (j, v, inv, rest): its row reads p^v*u*x_j + sum(rest[c]*x_c) = 0
    with inv = u^-1 mod q, and every entry of rest divisible by p^v.

    First, each row u*x_a - u*x_b, u a unit (half a quandle diagram's rows),
    merges a and b in a path-halving union-find. Merged columns j come first as
    pivots x_j - x_root = 0 and the other rows are rewritten onto the roots,
    so no later pivot uses j; reverse back-substitution fills j last.

    Phase v pivots on entries of valuation exactly v; no entry of lower
    valuation is left or can arise, because every remaining entry is
    divisible by p^v. Clearing the pivot's column with row operations
    and its row with a unimodular change of variables isolates
    p^v * x_j = 0, which has p^v solutions, so the pivot's row and column
    drop out; later pivots' rows never use an earlier pivot's column.
    Columns never pivoted are free: q choices each. Within a phase the
    pivot is the row's entry whose column has the fewest rows, which
    keeps fill-in low. One pass over the rows suffices per phase: a row
    already passed has every entry divisible by p^(v+1), and eliminating
    into it keeps that so.
    """
    q = p**k
    parent: dict[int, int] = {}  # merged column -> a column it equals, nearer its root

    def find(j: int) -> int:
        while j in parent:
            parent[j] = parent.get(parent[j], parent[j])  # path halving
            j = parent[j]
        return j

    live: dict[int, dict[int, int]] = {}  # row id -> nonzero entries mod q
    for i, row in enumerate(rows):
        entries = {j: v % q for j, v in row.items() if v % q}
        if len(entries) == 2:
            (a, u), (b, w) = entries.items()
            if u + w == q and u % p:
                a, b = find(a), find(b)
                if a != b:
                    parent[b] = a
                continue
        live[i] = entries
    for j in reversed(parent):  # j's ancestors were merged after j: map j to its root
        parent[j] = parent.get(parent[j], parent[j])
    yield from ((j, 0, 1, {r: q - 1}) for j, r in parent.items())
    col_rows: dict[int, set[int]] = {}  # column -> ids of live rows using it
    for i, row in live.items():
        if parent:  # rewrite the row onto the roots
            moved: dict[int, int] = {}
            for j, a in row.items():
                j = parent.get(j, j)
                moved[j] = moved.get(j, 0) + a
            live[i] = row = {j: a % q for j, a in moved.items() if a % q}
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    for v in range(k):
        pv, above = p**v, p ** (v + 1)
        for i in list(live):
            row = live[i]
            cands = row if k == 1 else [j for j, a in row.items() if a % above]
            if not cands:
                continue
            j = min(cands, key=lambda c: len(col_rows[c]))
            del live[i]
            for c in row:
                col_rows[c].discard(i)
            inv = pow(row.pop(j) // pv, -1, q)
            for r in col_rows.pop(j):
                other = live[r]
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
            yield j, v, inv, row


def _list_kernel(rows, cols: int, n: int, width: int = 1) -> list[Coloring]:
    """Every x in ((Z/n)^width)^cols with row . x = 0 mod n, as sorted tuples of labels.

    The rows are over cols * width unknowns, unknown s*width + i being
    coordinate i of entry s. Per p^k, each parameter of the elimination
    gives a generator g: a free unknown of order q = p^k, or a pivot of
    valuation v > 0 of order p^v stepping x_j by p^(k-v); back-substitution
    in reverse pivot order fills in the pivot unknowns. Every null vector
    is sum(t * g) for exactly one 0 <= t < order per generator, so lifting
    each g to Z/n with the CRT idempotent of p^k makes the null space the
    box of their multiples. The box is built column by column: an
    unknown's values depend only on its coefficients across the
    generators, so entries with equal coefficients (a quandle crossing's
    o_in and o_out) share one list. Labels are linear_form's, given by
    algebra._label for r = width.
    """
    if cols == 0:
        return [()]
    unknowns = cols * width
    gens = []  # (order, coefficient per unknown mod n)
    for p, k in _prime_powers(n):
        q = p**k
        e = n // q * pow(n // q, -1, q)  # 1 mod q, 0 mod n/q
        pivots = list(_pivots(rows, p, k))
        pivoted = {j for j, _, _, _ in pivots}
        params = [(c, q) for c in range(unknowns) if c not in pivoted]
        for col, order in params + [(j, p**v) for j, v, _, _ in pivots if v]:
            g = [0] * unknowns
            g[col] = q // order
            for j, v, inv, rest in reversed(pivots):
                g[j] = (g[j] - inv * (sum(a * g[c] for c, a in rest.items()) // p**v)) % q
            gens.append((order, [x * e % n for x in g]))
    shifts = [[(r + s) % n for r in range(n)] for s in range(n)]  # n^2, as Y's own tables

    def residues(key) -> list[int]:  # an unknown's values over the box
        col = [0]
        for (order, _), a in zip(gens, key):
            if not a:
                col = col * order
                continue
            grown: list[int] = []
            for t in range(order):
                grown += map(shifts[t * a % n].__getitem__, col)
            col = grown
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
    return sorted(zip(*columns))


def count_solutions_snf(M: RelationMatrix) -> int:
    """Number of x in (Z/n)^cols with Mx = 0 mod n.

    Counted, straight off M's sparse rows and leaving them unchanged, by
    the same elimination over each prime power of n that count_colorings
    runs, which yields the local Smith normal form: with nonzero diagonal
    d_1..d_r over Z the count is n^(cols - r) * prod_i gcd(d_i, n). It is
    no independent route; the coloring search and brute force are, and the
    tests also check it against integer Smith diagonals.
    """
    if M.modulus < 1:
        raise ValueError("modulus must be >= 1")
    return _count_kernel(M.rows, M.cols, M.modulus)


def count_solutions_bruteforce(M: RelationMatrix) -> int:
    """Count null vectors by direct enumeration (oracle for the SNF path)."""
    n = M.modulus
    if n**M.cols > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force over {n}^{M.cols} vectors refused")
    count = 0
    for vec in itertools.product(range(n), repeat=M.cols):
        if all(sum(a * vec[j] for j, a in row.items()) % n == 0 for row in M.rows):
            count += 1
    return count
