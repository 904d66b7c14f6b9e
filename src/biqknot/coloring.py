"""Coloring enumeration and counting for semiarc diagrams.

A coloring assigns a biquandle element to every semiarc so that each
crossing satisfies the convention relations (positive: u_out = u_in .v
o_in and o_out = o_in ." u_in; negative: the inverse pair). The same
relations, read over the quads (x, y, x .v y, y ." x) of a biquandle X,
say that a map X -> Y is a homomorphism, so one solver serves both.

Over a linear biquandle the relations form a sparse system mod n whose
solutions are a Z/n-module. FiniteBiquandle.linear_form names one shape,
given by a linear constructor or read off the tables: x ." y = Ax + By
and x .v y = Cx + Dy with r x r matrices on (Z/n)^r, |Y| = n^r, labelled
by algebra._label (r = 1 for make_linear_biquandle's algebras and the
dihedral R_n, r = 2 for Alexander quandles over GF(4) or GF(9)). Each
semiarc has r unknowns, semiarc s's coordinate i being unknown s*r + i.
coloring_matrix hands out that system as a RelationMatrix of sparse
rows, the form the elimination reads; dense() is for printing. One
elimination over each prime power of n serves two consumers, one pass
per stage: a union-find merges the unknowns of each equality row x_a =
x_b without building it; every other row is built once on the roots and
indexed by column in the same loop, zero and repeated rows dropped; each
pivot is picked in the pass that drops its row from its columns. Merged
unknowns come back as a map to their roots, the real pivots as a list.
The counter reads their sizes and the pivots' valuations; the lister
back-substitutes a generator per free parameter over the pivots'
entries, copies each root to the unknowns merged into it, and lists the
box of their multiples column by column from the generators' transposed
coefficients, building each distinct column once (a quandle crossing's
o_in and o_out always share one). When every label fits a byte (n^r <=
255) a column is bytes, shifted and relabelled by bytes.translate;
from 256 elements on it is a list of ints. Every other algebra is listed,
or counted leaf by leaf, by a search that branches only when no crossing
has a propagating pair of known values: any such pair names the whole
quad of Y at that crossing, looked up in one table per pair. Which
semiarcs a branch makes known does not depend on its value, so the
search plans its branch order and each level's crossing checks once per
diagram, then runs the plan. list_solutions runs either route and also
hands over the semiarcs it chose freely (owning a generator's unknown, or
branched on), whose values fix a solution; build_quiver keys its vertices
on them. The search and brute force stay as the references for both
linear routes. Arithmetic is plain Python integers, so entries can never
overflow.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .algebra import FiniteBiquandle, _label
from .diagram import SemiarcDiagram, _ints

Coloring = tuple[int, ...]

BRUTE_FORCE_GUARD = 10**7


def _oriented(d: SemiarcDiagram) -> list[tuple[int, int, int, int]]:
    """Each crossing as (p, q, r, s) with relations r = p .v q, s = q ." p."""
    return [(c.u_in, c.o_in, c.u_out, c.o_out) if c.sign > 0
            else (c.u_out, c.o_out, c.u_in, c.o_in) for c in d.crossings]


def _search(m: int, oriented, Y: FiniteBiquandle):
    """Yield every x in Y^m satisfying each quad's relations, as tuples, in search order.

    A quad (p, q, r, s) asks x[r] = x[p] .v x[q] and x[s] = x[q] ." x[p],
    that is, (x[p], x[q], x[r], x[s]) is one of Y's quads (x, y, x .v y,
    y ." x). A known propagating pair of its slots names that quad in the
    pair's table, and every lookup succeeds, so which semiarcs are known
    depends only on which were branched on: the plan (per level, the branch
    semiarc and the crossings it completes) is built once, then run
    depth-first over one assignment and an explicit stack, so no diagram
    size reaches the recursion limit. It returns the plan's branch semiarcs.
    """
    incident: list[list[int]] = [[] for _ in range(m)]
    for ci, quad in enumerate(oriented):
        for s in set(quad):
            incident[s].append(ci)

    # propagating slot pairs within the oriented quad (p, q, r, s); by the
    # axioms each pair's values name exactly one quad of Y, its table[a][b]
    over, under = Y.over_table, Y.under_table
    y_quads = [(x, y, under[x - 1][y - 1], over[y - 1][x - 1])
               for x in Y.elements() for y in Y.elements()]
    lookups = []
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        table = [[None] * (Y.size + 1) for _ in range(Y.size + 1)]
        for full in y_quads:
            table[full[i]][full[j]] = full
        lookups.append((i, j, table))

    known = [False] * m
    fired = [False] * len(oriented)
    # branch on the least s completing a half-known pair, (0, s), else the least unknown, (1, s)
    heap = [(1, s) for s in range(m)]
    plan = []  # per level: (branch semiarc, [(a, b, table, quad reader, new (semiarc, slot))])
    while heap:
        _, free = heapq.heappop(heap)
        if known[free]:
            continue
        known[free] = True
        steps = []
        news = [free]
        while news:
            for ci in incident[news.pop()]:
                if fired[ci]:
                    continue
                quad = oriented[ci]
                for i, j, table in lookups:
                    if known[quad[i]] and known[quad[j]]:
                        break
                else:
                    for i, j, _ in lookups:
                        if known[quad[i]] != known[quad[j]]:
                            heapq.heappush(heap, (0, quad[j] if known[quad[i]] else quad[i]))
                    continue
                fired[ci] = True
                places = {sem: slot for slot, sem in enumerate(quad) if not known[sem]}
                for sem in places:
                    known[sem] = True
                news += places
                steps.append((quad[i], quad[j], table, itemgetter(*quad), tuple(places.items())))
        plan.append((free, steps))

    if not plan:
        yield ()
        return []
    x = [0] * m
    stack = [iter(Y.elements())]  # one value iterator per open level
    while stack:
        free, steps = plan[len(stack) - 1]
        for v in stack[-1]:
            x[free] = v
            for a, b, table, read, places in steps:
                full = table[x[a]][x[b]]
                for sem, slot in places:
                    x[sem] = full[slot]
                if read(x) != full:
                    break
            else:
                if len(stack) < len(plan):
                    stack.append(iter(Y.elements()))
                    break
                yield tuple(x)
        else:
            stack.pop()
    return [free for free, _ in plan]


def list_solutions(m: int, oriented, Y: FiniteBiquandle) -> tuple[list[Coloring], list[int]]:
    """(listing, free): every x in Y^m satisfying each quad's relations, sorted, and the
    coordinates the lister chose freely, sorted, whose values fix x. The kernel lattice
    lists a linear Y (see FiniteBiquandle.linear_form) and hands over its parameters
    (see _list_kernel); the search lists any other Y and hands over its branch semiarcs."""
    form = Y.linear_form
    if form is not None:
        return _list_kernel(_relation_rows(oriented, form), m, form[0], len(form[1]))
    branches = []

    def run():
        branches.extend((yield from _search(m, oriented, Y)))
    return sorted(run()), sorted(branches)


def enumerate_colorings(d: SemiarcDiagram, Y: FiniteBiquandle) -> list[Coloring]:
    """All colorings of d's semiarcs by Y, lexicographically sorted.

    A linear Y is listed from the kernel lattice of the elimination that
    count_colorings also runs, any other Y by the coloring search, which
    is the reference. Free loops are not materialized; count_colorings
    folds them in as a factor of |Y| each.
    """
    return list_solutions(d.semiarc_count, _oriented(d), Y)[0]


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


def colorings_with_loops(d: SemiarcDiagram, Y: FiniteBiquandle) -> list[Coloring]:
    """Colorings with free-loop values materialized as trailing coordinates.

    Quivers and enhancements act on the full Hom set, so crossingless
    components contribute |Y| independent choices each, appended after
    the semiarc coordinates in sorted order. No quad touches those
    coordinates, so one listing of the longer vector covers them.
    """
    return list_solutions(d.semiarc_count + d.free_loops, _oriented(d), Y)[0]


# -- linear path: relation matrices and Smith normal form ----------------------


class RelationMatrix(NamedTuple("RelationMatrix", [
        ("rows", tuple[dict[int, int], ...]), ("modulus", int), ("cols", int)])):
    """Homogeneous linear relations mod n over the unknowns 0..cols-1.

    One sparse row {column: int coefficient} per relation, read mod an int
    modulus; dense() writes the rows out in full for printing."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, rows: tuple[dict[int, int], ...], modulus: int, cols: int):
        if _ints((modulus, cols), error=None) is None or modulus < 1 or cols < 0:
            raise ValueError(f"modulus must be >= 1 and cols >= 0, both ints: {modulus!r}, {cols!r}")
        if not isinstance(rows, (tuple, list)) or not set(map(type, rows)) <= {dict}:
            raise ValueError(f"relation rows must be a sequence of dicts, got {rows!r}")
        used = set().union(*rows)  # every column a row names; a 1.0 or True after a 1 reads as 1
        _ints(used, "relation columns must be ints, got {!r}")
        if used and (min(used) < 0 or max(used) >= cols):
            row = next(row for row in rows if row and (min(row) < 0 or max(row) >= cols))
            raise ValueError(f"relation row {row} has a column outside 0..{cols - 1}")
        _ints(chain.from_iterable(map(dict.values, rows)), "relation coefficients must be integers")
        return super().__new__(cls, rows, modulus, cols)

    def dense(self) -> tuple[tuple[int, ...], ...]:
        """The rows as full tuples of length cols, entries reduced mod modulus."""
        n = self.modulus
        return tuple(tuple(row.get(j, 0) % n for j in range(self.cols)) for row in self.rows)


def _relation_rows(oriented, form) -> list[dict[int, int]]:
    """Sparse rows {unknown: coefficient} of linear_form's relations, 2w per quad.

    With form = (n, A, B, C, D), w x w matrices, a quad (p, q, r, s)
    gives r - Cp - Dq and s - Aq - Bp, each as w rows, one per coordinate
    i, over the unknowns t*w + i (semiarc t, coordinate i). Zero
    coefficients are left out, and a semiarc in two slots (a kink) gets
    their sum, 0 included. For w = 1 the rows are written straight from
    the quad's semiarcs, the unknowns, so they hold no ints of their own.
    """
    _, A, B, C, D = form
    w = len(A)
    rows = []
    if w == 1:
        (a,), (b,), (c,), (d,) = A[0], B[0], C[0], D[0]
        na, nb, nc, nd = -a, -b, -c, -d
        for p, q, r, s in oriented:
            row = {r: 1}
            if c:
                row[p] = 1 - c if p == r else nc
            if d:
                row[q] = row[q] - d if q in row else nd
            rows.append(row)
            row = {s: 1}
            if a:
                row[q] = 1 - a if q == s else na
            if b:
                row[p] = row[p] - b if p in row else nb
            rows.append(row)
        return rows
    plan = []  # per row of a quad: (quad slot * w + coordinate, coefficient) terms
    for out, M, x, K, y in ((2, C, 0, D, 1), (3, A, 1, B, 0)):
        for i in range(w):
            plan.append([(out * w + i, 1), *((x * w + j, -v) for j, v in enumerate(M[i]) if v),
                         *((y * w + j, -v) for j, v in enumerate(K[i]) if v)])
    for quad in oriented:
        unknowns = [t * w + i for t in quad for i in range(w)]
        for terms in plan:
            row: dict[int, int] = {}
            for at, v in terms:
                c = unknowns[at]
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
    (Chinese remainder theorem): p^k per column neither merged nor pivoted,
    and p^v per pivot of valuation v.
    """
    count = 1
    for p, k in _prime_powers(n):
        merged, pivots = _eliminate(rows, p, k)
        count *= p ** (k * (cols - len(merged) - len(pivots)) + sum(v for _, v, _, _ in pivots))
    return count


def _eliminate(rows, p: int, k: int):
    """Eliminate the sparse rows mod q = p^k in the local Smith form: (merged, pivots).

    First, each row given as u*x_a - u*x_b, u a unit (half a quandle
    diagram's rows, every row of a kink chain), merges a and b in a
    path-halving union-find and is not built at all; merged maps each
    column merged away to its root, which is never merged. Every other row
    is then built once, on the roots and mod q, so no pivot uses a merged
    column, and indexed by column in the same loop; zero rows and repeats
    are dropped. A repeat keeps the first copy's place and the last copy's
    entry order: rows are walked in place order and a pivot tie goes to the
    first entry in row order, so this fixes the pivots, the lister's
    parameters and the quiver keys. The rows given are read, never changed.

    pivots lists the pivots in order, each (j, v, inv, rest): its row
    reads p^v*u*x_j + sum(rest[c]*x_c) = 0 with inv = u^-1 mod q, and every
    entry of rest divisible by p^v. Phase v pivots on entries of valuation
    exactly v; no entry of lower valuation is left or can arise, because
    every remaining entry is divisible by p^v. Clearing the pivot's column
    with row operations and its row with a unimodular change of variables
    isolates p^v * x_j = 0, which has p^v solutions, so the pivot's row and
    column drop out; later pivots' rows never use an earlier pivot's
    column. Within a phase the pivot is the row's entry whose column has
    the fewest rows (Markowitz: it keeps fill-in low), found in the pass
    that drops the row from its columns. One pass over the rows
    suffices per phase: a row already passed has every entry divisible by
    p^(v+1), and eliminating into it keeps that so. A row the elimination
    empties is retired: no column lists it and no later phase walks it.
    """
    q = p**k
    parent: dict[int, int] = {}  # merged column -> a column it equals, nearer its root
    root = parent.get
    general = []  # the rows that are no unit equality as given
    for row in rows:
        if len(row) == 2:
            a, b = row
            u = row[a]
            if u % p and not (u + row[b]) % q:
                while a in parent:  # path halving; parent[a] is stored before a moves
                    g = parent[a]
                    parent[a] = a = root(g, g)
                while b in parent:
                    g = parent[b]
                    parent[b] = b = root(g, g)
                if a != b:
                    parent[b] = a
                continue
        general.append(row)
    for j in reversed(parent):  # j's ancestors were merged after j: map j to its root
        parent[j] = root(parent[j], parent[j])

    ids: dict[frozenset, int] = {}  # each distinct nonzero row's entries -> its id
    rows = {}  # id -> row; a repeat keeps the first copy's id and takes its own entry order
    col_rows: defaultdict[int, set[int]] = defaultdict(set)  # column -> ids of rows using it
    for given in general:
        row: dict[int, int] = {}
        for j, a in given.items():
            j = root(j, j)
            a = (row.pop(j, 0) + a) % q
            if a:
                row[j] = a
        if row:
            i = ids.setdefault(frozenset(row.items()), len(ids))
            rows[i] = row
            for j in row:
                col_rows[j].add(i)
    pivots = []
    live = range(len(rows))
    for v in range(k):
        pv, above = p**v, p ** (v + 1)
        kept = []  # rows passed over, all their entries divisible by p^(v+1)
        for i in live:
            row = rows[i]
            if not row:  # retired
                continue
            j, least = None, len(rows)  # no column has as many other rows
            for c, a in row.items():
                users = col_rows[c]
                users.discard(i)
                if len(users) < least and a % above:
                    j, least = c, len(users)
            if j is None:
                for c in row:
                    col_rows[c].add(i)
                kept.append(i)
                continue
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


def _list_kernel(rows, cols: int, n: int, width: int = 1) -> tuple[list[Coloring], list[int]]:
    """Every x in ((Z/n)^width)^cols with row . x = 0 mod n, as sorted tuples of labels.

    The rows are over cols * width unknowns, unknown s*width + i being
    coordinate i of entry s. Per p^k, each parameter of the elimination gives
    a generator g: a free unknown of order q = p^k, or a pivot of valuation
    v > 0 of order p^v stepping x_j by p^(k-v); back-substitution in reverse
    pivot order fills in the pivot unknowns, and each merged unknown copies
    its root. Every null vector is sum(t * g) for exactly one 0 <= t < order
    per generator, so lifting each g to Z/n with the CRT idempotent of p^k
    makes the null space the box of their multiples. The box is built column
    by column: an unknown's values depend only on its coefficients across the
    generators, so entries with equal coefficients (a quandle crossing's o_in
    and o_out) share one column, grown by t * a mod n per generator: one
    addition per listed value, so the cost follows the listing, not n^2.
    Labels are linear_form's, given by algebra._label for r = width.
    While every label fits a byte (n^width <= 255, as translate's tables
    have 256 entries), a column is bytes: each block of a shift is one
    bytes.translate, and so is the relabelling; else it is a list of ints.
    Also returned, sorted: the entries owning a generator's unknown, which fix x,
    as a pivot generator is zero on free unknowns and on later pivots.
    """
    if cols == 0:
        return [()], []
    unknowns = cols * width
    gens, free = [], set()  # (order, coefficient per unknown mod n); entries fixing x
    for p, k in _prime_powers(n):
        q = p**k
        e = n // q * pow(n // q, -1, q)  # 1 mod q, 0 mod n/q
        merged, pivots = _eliminate(rows, p, k)
        fixed = {*merged, *(j for j, _, _, _ in pivots)}
        params = [(c, q) for c in range(unknowns) if c not in fixed]
        steps = [(j, p**v, inv, tuple(rest.items())) for j, v, inv, rest in reversed(pivots)]
        roots = [merged.get(c, c) for c in range(unknowns)]
        for col, order in params + [(j, p**v) for j, v, _, _ in pivots if v]:
            free.add(col // width)
            g = [0] * unknowns
            g[col] = q // order
            for j, pv, inv, rest in steps:
                g[j] = (g[j] - inv * (sum(a * g[c] for c, a in rest) // pv)) % q
            gens.append((order, [g[c] * e % n for c in roots]))

    labels = [_label(i, n, width) for i in range(n**width)]
    small = len(labels) < 256  # every label fits a byte: columns are bytes, mapped by translate
    if small:
        shifts = [(bytes(range(n)) * 2)[s:s + n].ljust(256) for s in range(n)]  # v -> v + s mod n
        relabel = bytes(labels).ljust(256)

    def residues(key):  # an unknown's values over the box
        col = b"\0" if small else [0]
        for (order, _), a in zip(gens, key):
            if not a:
                col = col * order
            elif small:
                col = b"".join([col.translate(shifts[s % n]) for s in range(0, order * a, a)])
            else:
                col = [(v + s) % n for s in range(0, order * a, a) for v in col]
        return col

    coefs = list(zip(*[g for _, g in gens])) if gens else [()] * unknowns  # per unknown
    built: dict[tuple, bytes | list[int]] = {}  # coefficients across gens, per coordinate -> column
    columns = []
    for key in zip(*[iter(coefs)] * width):  # entry c's width coordinates
        if key not in built:
            index = residues(key[0])
            for i in range(1, width):
                scale = n**i
                index = [a + v * scale for a, v in zip(index, residues(key[i]))]
            built[key] = (bytes(index).translate(relabel) if small
                          else list(map(labels.__getitem__, index)))
        columns.append(built[key])
    return sorted(zip(*columns)), sorted(free)


def count_solutions_snf(M: RelationMatrix) -> int:
    """Number of x in (Z/n)^cols with Mx = 0 mod n.

    Counted, straight off M's sparse rows and leaving them unchanged, by
    the same elimination over each prime power of n that count_colorings
    runs, which yields the local Smith normal form: with nonzero diagonal
    d_1..d_r over Z the count is n^(cols - r) * prod_i gcd(d_i, n). It is
    no independent route; the coloring search and brute force are, and the
    tests also check it against integer Smith diagonals.
    """
    return _count_kernel(M.rows, M.cols, M.modulus)


def count_solutions_bruteforce(M: RelationMatrix) -> int:
    """Count null vectors exhaustively, meeting in the middle (oracle for the SNF path).

    x in (Z/n)^cols splits into x_L on the columns range(cols // 2) and
    x_R on the rest, and Mx = 0 mod n exactly when M x_R = -M x_L. So a
    Counter tallies -M x_L over every x_L, and each x_R adds the tally of
    its M x_R: every x is still counted once, in about 2 n^(cols/2) steps
    instead of n^cols. Each half's vectors are built column by column, a
    partial sum extended by t * column for t in range(n), so none is
    summed from scratch; the last column's are streamed, not stored.

    A residue vector is one int with a b-bit field per row, b =
    (2n).bit_length() + 1, so extending a sum is one add of the step
    t * column, packed once per (column, t). Each field then holds less
    than 2n <= 2^(b-1) and never carries into the next; adding lift
    (2^(b-1) - n in every field) sets a field's top bit exactly when the
    field reached n, and that bit, shifted down and times n, is taken
    back off. It reads only M's rows and shares no code with the
    elimination.
    """
    n = M.modulus
    if n**M.cols > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force over {n}^{M.cols} vectors refused")
    b = (2 * n).bit_length() + 1
    fields = range(0, b * len(M.rows), b)
    lift = sum(((1 << (b - 1)) - n) << f for f in fields)
    top = sum(1 << (b - 1) << f for f in fields)

    def extend(sums, steps):
        for s in sums:
            for step in steps:
                x = s + step
                yield x - (((x + lift) & top) >> (b - 1)) * n

    def residues(columns, sign):  # sign * M x mod n for every x on the columns, packed
        sums = [0]
        for j in columns:
            col = [sign * row.get(j, 0) for row in M.rows]
            steps = [sum(t * c % n << f for c, f in zip(col, fields)) for t in range(n)]
            sums = extend(list(sums), steps)
        return sums

    half = M.cols // 2
    left = Counter(residues(range(half), -1))
    return sum(map(left.__getitem__, residues(range(half, M.cols), 1)))
