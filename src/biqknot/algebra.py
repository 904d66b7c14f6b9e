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
    def linear_form(self) -> tuple[int, int, int, int, int] | None:
        """(n, a, b, c, d) when x ." y = ax + by and x .v y = cx + dy mod n, else None.

        Read off the tables, with label L standing for the residue L mod n
        and every one of the n^2 entries checked, so it is the one selector
        of the elimination route and no constructor can mislabel an algebra.
        Computed on first use and cached, so building an algebra never pays
        for it.
        """
        n = self.size
        a, b = self.over(1, n) % n, self.over(n, 1) % n
        c, d = self.under(1, n) % n, self.under(n, 1) % n
        for x in self.elements():
            for y in self.elements():
                if (self.over(x, y) - a * x - b * y) % n or (self.under(x, y) - c * x - d * y) % n:
                    return None
        return (n, a, b, c, d)

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

    Elements are 1-based labels for the residues 1..n (n standing for 0).
    Raises AxiomError with the first failing axiom and witness otherwise.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    over = tuple(tuple((a * x + b * y - 1) % n + 1 for y in range(1, n + 1))
                 for x in range(1, n + 1))
    under = tuple(tuple((c * x + d * y - 1) % n + 1 for y in range(1, n + 1))
                  for x in range(1, n + 1))
    return from_tables(over, under)


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


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: (p o q)(x) = p(q(x))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def is_permutation(p) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def group_order(gens, cap: int = DEFAULT_GROUP_CAP) -> int:
    """Exact order of the permutation group generated by gens.

    Breadth-first closure; raises GroupOrderCapExceeded rather than ever
    returning a wrong number. Column groups in scope are tiny, so no
    stabilizer-chain machinery is warranted.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    n = len(gens[0])
    for g in gens:
        if len(g) != n or not is_permutation(g):
            raise ValueError(f"not a permutation of 1..{n}: {g}")
    ident = tuple(range(1, n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                hg = compose(g, h)
                if hg not in seen:
                    if len(seen) >= cap:
                        raise GroupOrderCapExceeded(f"group closure exceeded cap {cap}")
                    seen.add(hg)
                    nxt.append(hg)
        frontier = nxt
    return len(seen)


def subquandle_closure(Q: Quandle, S) -> frozenset[int]:
    """Smallest subset containing S closed under |> and its column inverses."""
    if not Q.is_quandle():
        raise ValueError("subquandle closure is defined for quandles only")
    todo = {int(s) for s in S}
    if not todo:
        raise ValueError("seed set must be nonempty")
    for s in todo:
        if not 1 <= s <= Q.size:
            raise ValueError(f"element {s} out of range 1..{Q.size}")
    closed: set[int] = set()
    while todo:
        x = todo.pop()
        closed.add(x)
        for y in closed:
            for z in (Q.under(x, y), Q.under(y, x),
                      Q.under_col_inv(y, x), Q.under_col_inv(x, y)):
                if z not in closed:
                    todo.add(z)
    return frozenset(closed)


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
