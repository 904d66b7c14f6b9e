"""Finite biquandles and quandles as validated operation tables.

A finite biquandle on {1..n} is stored as two n x n tables: the over
table records x ." y at row x, column y, and the under table records
x .v y the same way (rows are the first argument, everything 1-based).
A quandle is the special case where the over operation is trivial,
x ." y = x; its under operation is then written x |> y.

Alongside the structures themselves this module provides homomorphism
enumeration, column permutations, subquandle closure, and a small
permutation-group order routine, which together feed the coloring,
quiver and enhancement layers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

Table = tuple[tuple[int, ...], ...]

DEFAULT_GROUP_CAP = 10**6


class AxiomError(ValueError):
    """Raised when a table fails the biquandle axioms."""


class GroupOrderCapExceeded(RuntimeError):
    """Raised when group closure would exceed the exploration cap."""


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}"


def _as_table(rows, n: int, name: str) -> Table:
    if len(rows) != n:
        raise AxiomError(f"{name} table has {len(rows)} rows, expected {n}")
    out = []
    for i, row in enumerate(rows):
        row = tuple(int(v) for v in row)
        if len(row) != n:
            raise AxiomError(f"{name} table row {i + 1} has {len(row)} entries, expected {n}")
        for v in row:
            if not 1 <= v <= n:
                raise AxiomError(f"{name} table entry {v} at row {i + 1} out of range 1..{n}")
        out.append(row)
    return tuple(out)


@dataclass(frozen=True)
class FiniteBiquandle:
    """A finite biquandle given by its over and under operation tables."""

    size: int
    over_table: Table
    under_table: Table

    def over(self, x: int, y: int) -> int:
        return self.over_table[x - 1][y - 1]

    @cached_property
    def linear_form(self) -> tuple | None:
        """The algebra's linear shape, which selects the elimination route; None if it has none.

        (n, A, B, C, D) with r x r matrices over Z/n as tuples of rows, when
        N = n^r and x ." y = Ax + By, x .v y = Cx + Dy on (Z/n)^r, labelled
        as _label says. Each such r is tried, smallest first, so a table
        linear mod N has r = 1. The matrices are read off the unit vectors'
        images, then every entry of both tables is checked against them, so
        no constructor can mislabel an algebra. Computed on first use and
        cached, so building an algebra never pays for it.
        """
        size = self.size
        for r in range(1, max(size.bit_length(), 2)):
            n = round(size ** (1 / r))
            if n**r != size:
                continue
            zero, units = _label(0, n, r), [_label(n**j, n, r) for j in range(r)]
            # A's column j is e_j ." 0 and B's is 0 ." e_j; C and D the same off .v
            columns = ([self.over(u, zero) for u in units], [self.over(zero, u) for u in units],
                       [self.under(u, zero) for u in units], [self.under(zero, u) for u in units])
            mats = [tuple(zip(*(_vector(v, n, r) for v in col))) for col in columns]
            if _module_tables(n, mats) == (self.over_table, self.under_table):
                return (n, *mats)
        return None

    def under(self, x: int, y: int) -> int:
        return self.under_table[x - 1][y - 1]

    def elements(self) -> range:
        return range(1, self.size + 1)

    def is_quandle(self) -> bool:
        return self._is_quandle

    @cached_property
    def _is_quandle(self) -> bool:  # one scan per algebra, not one per column or closure
        return all(self.over_table[x] == tuple([x + 1] * self.size) for x in range(self.size))

    # Inverse column maps and the inverse of the sideways map S(x, y) = (y ." x, x .v y).
    # These exist exactly when the axioms hold; they drive coloring propagation.

    def over_col_inv(self, y: int, z: int) -> int:
        """The x with x ." y = z."""
        return self._over_inv[y - 1][z - 1]

    def under_col_inv(self, y: int, z: int) -> int:
        """The x with x .v y = z."""
        return self._under_inv[y - 1][z - 1]

    def sideways_inv(self, u: int, v: int) -> tuple[int, int]:
        """The (x, y) with S(x, y) = (y ." x, x .v y) = (u, v)."""
        return self._s_inv[(u, v)]

    @cached_property
    def _over_inv(self):
        return _invert_columns(self.over_table, self.size)

    @cached_property
    def _under_inv(self):
        return _invert_columns(self.under_table, self.size)

    @cached_property
    def _s_inv(self):
        return {(self.over(y, x), self.under(x, y)): (x, y)
                for x in self.elements() for y in self.elements()}

    def __str__(self) -> str:
        kind = "Quandle" if self.is_quandle() else "FiniteBiquandle"
        return f"{kind}(n={self.size})"


class Quandle(FiniteBiquandle):
    """A biquandle with trivial over operation; x |> y is the under table."""

    def op(self, x: int, y: int) -> int:
        return self.under(x, y)


def _invert_columns(table: Table, n: int):
    inv = [[0] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            inv[y][table[x][y] - 1] = x + 1
    return tuple(tuple(r) for r in inv)


def validate_axioms(over_table, under_table) -> list[AxiomViolation]:
    """Check the biquandle axioms; return every violation with a witness.

    Shape problems are reported rather than raised. The scan is
    exhaustive (O(n^3) for the exchange laws), which is fine at the
    table sizes this library targets (n <= 16).
    """
    size = len(over_table)
    try:
        over = _as_table(over_table, size, "over")
        under = _as_table(under_table, size, "under")
    except AxiomError as e:
        return [AxiomViolation(f"shape: {e}", ())]
    bad: list[AxiomViolation] = []

    for x in range(1, size + 1):
        if over[x - 1][x - 1] != under[x - 1][x - 1]:
            bad.append(AxiomViolation("diagonal x.\"x = x.vx", (x,)))

    for y in range(1, size + 1):
        col = {over[x - 1][y - 1] for x in range(1, size + 1)}
        if len(col) != size:
            bad.append(AxiomViolation("over column not a bijection", (y,)))
        col = {under[x - 1][y - 1] for x in range(1, size + 1)}
        if len(col) != size:
            bad.append(AxiomViolation("under column not a bijection", (y,)))

    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            img = (over[y - 1][x - 1], under[x - 1][y - 1])
            if img in seen:
                bad.append(AxiomViolation("sideways map S not a bijection", (*seen[img], x, y)))
            else:
                seen[img] = (x, y)

    def O(a, b):
        return over[a - 1][b - 1]

    def U(a, b):
        return under[a - 1][b - 1]

    rng = range(1, size + 1)
    for x, y, z in itertools.product(rng, rng, rng):
        if O(O(x, y), O(z, y)) != O(O(x, z), U(y, z)):
            bad.append(AxiomViolation("exchange law (over/over)", (x, y, z)))
        if O(U(x, y), U(z, y)) != U(O(x, z), O(y, z)):
            bad.append(AxiomViolation("exchange law (mixed)", (x, y, z)))
        if U(U(x, y), U(z, y)) != U(U(x, z), O(y, z)):
            bad.append(AxiomViolation("exchange law (under/under)", (x, y, z)))
    return bad


def from_tables(over_table, under_table) -> FiniteBiquandle:
    """Build a validated biquandle from two n x n tables (1-based entries)."""
    n = len(over_table)
    if n == 0:
        raise AxiomError("empty table")
    violations = validate_axioms(over_table, under_table)
    if violations:
        raise AxiomError(f"not a biquandle: {violations[0]}" +
                         (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""))
    over = _as_table(over_table, n, "over")
    under = _as_table(under_table, n, "under")
    biq = FiniteBiquandle(n, over, under)
    return Quandle(n, over, under) if biq.is_quandle() else biq


def make_dihedral(n: int) -> Quandle:
    """The dihedral quandle R_n on {1..n} with x |> y = 2y - x mod n."""
    if n < 1:
        raise ValueError(f"dihedral quandle needs n >= 1, got {n}")
    over = tuple(tuple([x] * n) for x in range(1, n + 1))
    under = tuple(tuple((2 * y - x - 1) % n + 1 for y in range(1, n + 1))
                  for x in range(1, n + 1))
    return Quandle(n, over, under)


def make_linear_biquandle(n: int, a: int, b: int, c: int, d: int) -> FiniteBiquandle:
    """Biquandle on Z_n with x ." y = ax + by and x .v y = cx + dy, if valid.

    The r = 1 case of make_module_biquandle: elements are 1-based labels
    for the residues 1..n (n standing for 0). Raises AxiomError with the
    first failing axiom and witness otherwise.
    """
    return make_module_biquandle(n, [[a]], [[b]], [[c]], [[d]])


def _label(index: int, n: int, r: int) -> int:
    """The label of the vector in (Z/n)^r with index sum v_i n^i.

    For r = 1 the label is the residue itself, with n standing for 0;
    for r >= 2 it is 1 + index, so label 1 is the zero vector.
    """
    return (index or n) if r == 1 else index + 1


def _vector(label: int, n: int, r: int) -> tuple[int, ...]:
    """The vector in (Z/n)^r that _label gives this label."""
    index = label % n if r == 1 else label - 1
    return tuple(index // n**i % n for i in range(r))


def _module_tables(n: int, mats) -> tuple[Table, Table]:
    """(over, under) of x ." y = Ax + By and x .v y = Cx + Dy on (Z/n)^r, mats = (A, B, C, D).

    Row by row: each coordinate of K y is listed once over all y, and row
    x adds the matching coordinate of M x to it, one list per coordinate.
    """
    r = len(mats[0])
    labels = [_label(i, n, r) for i in range(n**r)]
    coords = list(zip(*(_vector(v, n, r) for v in range(1, n**r + 1))))  # in label order

    def image(row):  # sum_j row[j] v_j, over every vector v
        acc = [0] * n**r
        for m, col in zip(row, coords):
            acc = [a + m * c for a, c in zip(acc, col)]
        return acc

    def table(M, K):
        ky, rows = [image(row) for row in K], []
        for mx in zip(*map(image, M)):
            index = [(mx[0] + t) % n for t in ky[0]]
            for i in range(1, r):
                m, scale = mx[i], n**i
                index = [a + (m + t) % n * scale for a, t in zip(index, ky[i])]
            rows.append(tuple(map(labels.__getitem__, index)))
        return tuple(rows)

    return table(*mats[:2]), table(*mats[2:])


def make_module_biquandle(n: int, A, B, C, D) -> FiniteBiquandle:
    """Biquandle on (Z/n)^r with x ." y = Ax + By and x .v y = Cx + Dy, if valid.

    A, B, C, D are r x r integer matrices, as lists of rows; elements are
    labelled as _label says, like linear_form reads them. Raises
    AxiomError with the first failing axiom and witness.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    mats = [tuple(tuple(int(v) % n for v in row) for row in M) for M in (A, B, C, D)]
    r = len(mats[0])
    if r < 1 or any(len(M) != r or any(len(row) != r for row in M) for M in mats):
        raise ValueError("A, B, C and D must be r x r matrices with r >= 1")
    return from_tables(*_module_tables(n, mats))


def make_conjugation_quandle(perms) -> Quandle:
    """The conjugation quandle x |> y = y^-1 x y on permutations closed under conjugation.

    perms are image tuples over {1..k} (see Permutation) multiplied left
    to right, so x |> y sends y(i) to y(x(i)); element i is perms[i - 1].
    Raises ValueError unless they are distinct permutations of one degree
    whose conjugates by each other stay among them.
    """
    elems = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(elems, start=1)}
    if not elems or len(index) < len(elems) or any(
            len(p) != len(elems[0]) or not is_permutation(p) for p in elems):
        raise ValueError(f"need distinct permutations of one degree, got {elems}")
    under = []
    for x in elems:
        row = []
        for y in elems:
            z = [0] * len(y)
            for xi, yi in zip(x, y):
                z[yi - 1] = y[xi - 1]
            if tuple(z) not in index:
                raise ValueError(f"{y}^-1 {x} {y} = {tuple(z)} is not in the set")
            row.append(index[tuple(z)])
        under.append(row)
    return from_tables([[x] * len(elems) for x in index.values()], under)


def biquandle_z() -> FiniteBiquandle:
    """The 4-element biquandle with x ." y = 3x and x .v y = x + 2y in Z_4."""
    return make_linear_biquandle(4, 3, 0, 1, 2)


def enumerate_homs(X: FiniteBiquandle, Y: FiniteBiquandle) -> list[tuple[int, ...]]:
    """All maps X -> Y preserving both operations, as image tuples, sorted.

    The images of X's elements are unknowns subject to one quad
    (x, y, x .v y, y ." x) per pair of elements, the same relations a
    crossing imposes on its semiarcs. A linear Y is listed from the
    kernel lattice of that system, any other Y by the coloring search;
    is_hom over all maps is the reference.
    """
    from .coloring import list_solutions  # coloring imports this module

    quads = [(x - 1, y - 1, X.under(x, y) - 1, X.over(y, x) - 1)
             for x in X.elements() for y in X.elements()]
    return list_solutions(X.size, quads, Y)


def enumerate_endos(Y: FiniteBiquandle) -> list[tuple[int, ...]]:
    return enumerate_homs(Y, Y)


def is_hom(X: FiniteBiquandle, Y: FiniteBiquandle, image) -> bool:
    """Whether the image tuple defines a biquandle homomorphism X -> Y."""
    if len(image) != X.size or any(not 1 <= v <= Y.size for v in image):
        return False
    f = (0, *image)  # f[x] is the image of x
    for x_over, x_under, fx in zip(X.over_table, X.under_table, image):
        # row x of each table: f(x op y) against f(x) op f(y), over every y at once
        y_over, y_under = (0, *Y.over_table[fx - 1]), (0, *Y.under_table[fx - 1])
        if (list(map(f.__getitem__, x_over)) != list(map(y_over.__getitem__, image))
                or list(map(f.__getitem__, x_under)) != list(map(y_under.__getitem__, image))):
            return False
    return True


# -- permutation utilities for the column group enhancement ------------------

Permutation = tuple[int, ...]  # image of i+1 at index i, over {1..n}


def column_permutation(Q: Quandle, y: int) -> Permutation:
    """The permutation x -> x |> y given by column y of the quandle table."""
    if not Q.is_quandle():
        raise ValueError("column permutations are defined for quandles only")
    if not 1 <= y <= Q.size:
        raise ValueError(f"element {y} out of range 1..{Q.size}")
    return tuple(Q.under(x, y) for x in Q.elements())


def is_permutation(p) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def group_order(gens, cap: int = DEFAULT_GROUP_CAP) -> int:
    """Exact order of the permutation group generated by gens.

    Breadth-first closure; raises GroupOrderCapExceeded rather than ever
    returning a wrong number. Column groups in scope are tiny, so no
    stabilizer-chain machinery is warranted. Each generator is kept as the
    1-shifted tuple (0, *g), so g o h is one map over h.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    n = len(gens[0])
    for g in gens:
        if len(g) != n or not is_permutation(g):
            raise ValueError(f"not a permutation of 1..{n}: {g}")
    shifted = [(0, *g) for g in gens]
    ident = tuple(range(1, n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in shifted:
                hg = tuple(map(g.__getitem__, h))
                if hg not in seen:
                    if len(seen) >= cap:
                        raise GroupOrderCapExceeded(f"group closure exceeded cap {cap}")
                    seen.add(hg)
                    nxt.append(hg)
        frontier = nxt
    return len(seen)


def subquandle_closure(Q: Quandle, S) -> frozenset[int]:
    """Smallest subset containing S closed under |> and its column inverses.

    It is the orbit of S under the columns R_s (x -> x |> s) of s in S,
    read off the rows of the under table: the orbit is contained in the
    closure, and since R_{x |> y} = R_y R_x R_y^-1, the column of every
    orbit element lies in the group the R_s generate, so the orbit is
    closed. On a finite set the forward orbit is already closed under the
    inverse columns.
    """
    if not Q.is_quandle():
        raise ValueError("subquandle closure is defined for quandles only")
    seeds = {int(s) for s in S}
    if not seeds:
        raise ValueError("seed set must be nonempty")
    for s in seeds:
        if not 1 <= s <= Q.size:
            raise ValueError(f"element {s} out of range 1..{Q.size}")
    columns = [s - 1 for s in seeds]
    orbit, todo = set(seeds), list(seeds)
    while todo:
        row = Q.under_table[todo.pop() - 1]
        for z in map(row.__getitem__, columns):
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return frozenset(orbit)


# -- text format --------------------------------------------------------------

def parse_tables(text: str) -> tuple[list[list[int]], list[list[int]]]:
    """Read the biquandle text format into its (over, under) rows, unvalidated.

    First line n >= 1, then n rows of the over table, a blank line, then n
    rows of the under table; whitespace-separated 1-based entries.
    Raises ValueError unless the text has that layout; the axioms, and
    the length of each row, are left to validate_axioms.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty biquandle file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the size, got {lines[0]!r}")
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    rows = lines[1:]
    if len(rows) != 2 * n:
        raise ValueError(f"expected {2 * n} table rows, found {len(rows)}")
    try:
        over = [[int(v) for v in ln.split()] for ln in rows[:n]]
        under = [[int(v) for v in ln.split()] for ln in rows[n:]]
    except ValueError as e:
        raise ValueError(f"bad table entry: {e}")
    return over, under


def parse_biquandle(text: str) -> FiniteBiquandle:
    """Parse the biquandle text format (see parse_tables) into a validated biquandle."""
    return from_tables(*parse_tables(text))


def serialize_biquandle(B: FiniteBiquandle) -> str:
    out = [str(B.size)]
    out += [" ".join(map(str, row)) for row in B.over_table]
    out.append("")
    out += [" ".join(map(str, row)) for row in B.under_table]
    return "\n".join(out) + "\n"
