"""Finite biquandles and quandles as operation tables.

A finite biquandle on {1..n} is two n x n tables: the over table records
x ." y at row x, column y, and the under table records x .v y the same
way (rows are the first argument, everything 1-based). A quandle is the
special case where the over operation is trivial, x ." y = x; its under
operation is then written x |> y. A linear algebra on Z/n built by
make_linear_biquandle or make_dihedral is checked by its coefficients
and carries them instead, building its tables only when a route reads
them.

Alongside the structures themselves this module provides homomorphism
enumeration, column permutations, subquandle closure, and a small
permutation-group order routine, which together feed the coloring,
quiver and enhancement layers.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import add
from typing import NamedTuple

from .diagram import _decimal, _ints, any_int_digits

Table = tuple[tuple[int, ...], ...]

DEFAULT_GROUP_CAP = 10**6

_PARAMETERS = "biquandle parameters must be integers, got {!r}"


class AxiomError(ValueError):
    """Raised when a table fails the biquandle axioms."""


class GroupOrderCapExceeded(ValueError):
    """Raised when group closure would exceed the exploration cap."""


class AxiomViolation(NamedTuple):
    axiom: str
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}" if self.witness else self.axiom


_EXCHANGE_LAWS = ("exchange law (over/over)", "exchange law (mixed)",
                  "exchange law (under/under)")


def _as_table(rows, n: int, name: str) -> Table:
    if len(rows) != n:
        raise AxiomError(f"{name} table has {len(rows)} rows, expected {n}")
    out = []
    for i, row in enumerate(rows):
        try:  # text entries are read by _decimal
            row = tuple(_decimal(v) if isinstance(v, str) else v for v in row)
        except ValueError as e:
            raise AxiomError(f"{name} table row {i + 1}: {e}")
        if len(row) != n:
            raise AxiomError(f"{name} table row {i + 1} has {len(row)} entries, expected {n}")
        for v in row:
            if type(v) is not int:  # no bool, float or other kind
                raise AxiomError(f"{name} table entry {v!r} at row {i + 1} is not an integer")
            if not 1 <= v <= n:
                raise AxiomError(f"{name} table entry {v} at row {i + 1} out of range 1..{n}")
        out.append(row)
    return tuple(out)


class FiniteBiquandle:
    """A finite biquandle given by its over and under operation tables.

    make_linear_biquandle gives form = (n, A, B, C, D) in place of the
    tables: it is linear_form, and each table is built from it on first
    use. == and hash compare the tables however they were given.
    """

    def __init__(self, size: int, over_table: Table = None, under_table: Table = None, *,
                 form=None):
        self.size = size
        if form is None:
            self.over_table, self.under_table = over_table, under_table
        else:
            self.linear_form = form  # fills the cache, so linear_form never reads a table

    over_table = cached_property(lambda self: self._tables[0])
    under_table = cached_property(lambda self: self._tables[1])

    @cached_property
    def _tables(self) -> tuple[Table, Table]:
        return _module_tables(self.linear_form[0], self.linear_form[1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteBiquandle) and self.size == other.size and (
            self.over_table, self.under_table) == (other.over_table, other.under_table)

    def __hash__(self) -> int:
        return hash((self.size, self.over_table, self.under_table))

    def over(self, x: int, y: int) -> int:
        """x ." y; the library's own loops read over_table and skip the check."""
        self._check(x, y)
        return self.over_table[x - 1][y - 1]

    def _check(self, *elements) -> None:
        """Refuse an element that is no int in 1..size: True would read row 1, 0 row size.
        over, under, column_permutation and subquandle_closure check their elements here."""
        for v in _ints(elements, "elements must be ints, got {!r}"):
            if not 0 < v <= self.size:
                raise ValueError(f"element {v} out of range 1..{self.size}")

    @cached_property
    def linear_form(self) -> tuple | None:
        """The algebra's linear shape, which selects the elimination route; None if it has none.

        (n, A, B, C, D) with r x r matrices over Z/n as tuples of rows, when
        N = n^r and x ." y = Ax + By, x .v y = Cx + Dy on (Z/n)^r, labelled
        as _label says. Each such r is tried, smallest first, so a table
        linear mod N has r = 1. The matrices are read off the unit vectors'
        images, then every entry of both tables is checked against them, so
        no table can be mislabelled. make_linear_biquandle gives it; for
        tables it is computed on first use and cached, never on building.
        """
        size = self.size
        for r in range(1, max(size.bit_length(), 2)):
            n = round(size ** (1 / r))
            if n**r != size:
                continue
            zero, units = _label(0, n, r) - 1, [_label(n**j, n, r) - 1 for j in range(r)]
            # A's column j is e_j ." 0 and B's is 0 ." e_j; C and D the same off .v
            over, under = self.over_table, self.under_table
            columns = ([over[u][zero] for u in units], [over[zero][u] for u in units],
                       [under[u][zero] for u in units], [under[zero][u] for u in units])
            mats = [tuple(zip(*(_vector(v, n, r) for v in col))) for col in columns]
            if _module_tables(n, mats) == (over, under):
                return (n, *mats)
        return None

    def under(self, x: int, y: int) -> int:
        """x .v y, checked as over is."""
        self._check(x, y)
        return self.under_table[x - 1][y - 1]

    def elements(self) -> range:
        return range(1, self.size + 1)

    def is_quandle(self) -> bool:
        return self._is_quandle

    @cached_property
    def _is_quandle(self) -> bool:  # one scan per algebra, not one per column or closure
        if "over_table" not in vars(self):  # a constructor's form: x ." y = x iff A = 1, B = 0
            n, A, B = self.linear_form[:3]
            return A == ((1 % n,),) and B == ((0,),)
        return all(self.over_table[x] == tuple([x + 1] * self.size) for x in range(self.size))

    @cached_property
    def checked_endos(self) -> set[tuple[int, ...]]:
        """The image tuples is_hom has accepted as endomorphisms of this algebra.

        Filled by quiver.build_quiver, which checks only maps not in it yet;
        a rejected map is never added, so it is checked, and refused, each time.
        """
        return set()

    @cached_property
    def column_orders(self) -> tuple[dict[frozenset[int], int], dict[frozenset[int], int]]:
        """(label set -> order, subquandle -> order) of the column groups met so far.

        Filled by enhance.column_group_multiset from the colorings it is given.
        Both orders depend on this quandle alone, so every listing by it shares them.
        """
        return {frozenset(): 1}, {}  # empty diagram: no columns act

    def __str__(self) -> str:
        kind = "Quandle" if self.is_quandle() else "FiniteBiquandle"
        return f"{kind}(n={self.size})"


def validate_axioms(over_table, under_table) -> list[AxiomViolation]:
    """Check the biquandle axioms; return every violation with a witness.

    Shape problems are reported rather than raised; an entry is an int,
    or text read by _decimal, and a bool, float or other kind is a shape
    problem. The scan is exhaustive. The exchange laws are checked a
    table row at a time: for each (x, y), both sides of each law over
    every z are built as lists with map and compared, and z is walked
    only where they differ. That is O(n^3) entries read in C, about 6 ms
    for R_27 and 35 ms for R_50 (2-core shared VM, Python 3.11.7).
    from_tables runs the same scan but stops at its first violation.
    """
    return list(_violations(over_table, under_table))


def _violations(over_table, under_table):
    """validate_axioms' violations in its order, one at a time; returns the checked tables."""
    size = len(over_table)
    try:
        with any_int_digits():  # so a message can name an entry of any length
            over = _as_table(over_table, size, "over")
            under = _as_table(under_table, size, "under")
    except AxiomError as e:
        yield AxiomViolation(f"shape: {e}", ())
        return

    for x in range(1, size + 1):
        if over[x - 1][x - 1] != under[x - 1][x - 1]:
            yield AxiomViolation("diagonal x.\"x = x.vx", (x,))

    for y in range(1, size + 1):
        col = {over[x - 1][y - 1] for x in range(1, size + 1)}
        if len(col) != size:
            yield AxiomViolation("over column not a bijection", (y,))
        col = {under[x - 1][y - 1] for x in range(1, size + 1)}
        if len(col) != size:
            yield AxiomViolation("under column not a bijection", (y,))

    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for x in range(1, size + 1):
        for y in range(1, size + 1):
            img = (over[y - 1][x - 1], under[x - 1][y - 1])
            if img in seen:
                yield AxiomViolation("sideways map S not a bijection", (*seen[img], x, y))
            else:
                seen[img] = (x, y)

    # the exchange laws a row of z at a time (see validate_axioms), read from
    # 0-based rows o[a], columns and the flat tables at a*n + b
    o = [[v - 1 for v in row] for row in over]
    u = [[v - 1 for v in row] for row in under]
    o_cols, u_cols = list(zip(*o)), list(zip(*u))
    o_at = [v for row in o for v in row].__getitem__
    u_at = [v for row in u for v in row].__getitem__
    for x, ox, ux in zip(range(size), o, u):
        ox_n, ux_n = [v * size for v in ox], [v * size for v in ux]  # row x, times n
        for y, oy, uy, o_col, u_col in zip(range(size), o, u, o_cols, u_cols):
            # law k holds at every z iff lhs[k] == rhs[k]
            lhs = ([*map(o[ox[y]].__getitem__, o_col)],  # (x ." y) ." (z ." y)
                   [*map(o[ux[y]].__getitem__, u_col)],  # (x .v y) ." (z .v y)
                   [*map(u[ux[y]].__getitem__, u_col)])  # (x .v y) .v (z .v y)
            rhs = ([*map(o_at, map(add, ox_n, uy))],  # (x ." z) ." (y .v z)
                   [*map(u_at, map(add, ox_n, oy))],  # (x ." z) .v (y ." z)
                   [*map(u_at, map(add, ux_n, oy))])  # (x .v z) .v (y ." z)
            if lhs != rhs:
                for z in range(size):
                    for law, left, right in zip(_EXCHANGE_LAWS, lhs, rhs):
                        if left[z] != right[z]:
                            yield AxiomViolation(law, (x + 1, y + 1, z + 1))
    return over, under


def from_tables(over_table, under_table) -> FiniteBiquandle:
    """Build a validated biquandle from two n x n tables (1-based entries); raises
    AxiomError at validate_axioms' first violation, where the scan stops."""
    n = len(over_table)
    if n == 0:
        raise AxiomError("empty table")
    try:
        first = next(_violations(over_table, under_table))
    except StopIteration as done:
        return FiniteBiquandle(n, *done.value)
    raise AxiomError(f"not a biquandle: {first}")


def make_dihedral(n: int) -> FiniteBiquandle:
    """The dihedral quandle R_n on {1..n} with x |> y = 2y - x mod n."""
    if _ints([n], _PARAMETERS)[0] < 1:
        raise ValueError(f"dihedral quandle needs n >= 1, got {n}")
    return make_linear_biquandle(n, 1, 0, -1, 2)


def make_linear_biquandle(n: int, a: int, b: int, c: int, d: int) -> FiniteBiquandle:
    """Biquandle on Z_n with x ." y = ax + by and x .v y = cx + dy, if valid.

    It is make_module_biquandle's r = 1 case: elements are 1-based labels
    for the residues 1..n (n standing for 0). Each axiom validate_axioms
    checks is linear in x, y and z, so it holds iff its coefficients agree
    mod n (Nelson-Rische, "On bilinear biquandles", 2008). The columns
    need units a and c, the diagonal a + b = c + d, and the exchange laws
    bd = 0, ab + b^2 = bc and cd + d^2 = ad; given the diagonal the last two
    are bd = 0 as well, being b(a + b - c) = bd and d(c + d - a) = db. S's
    determinant bd - ac = -ac is then a unit. The tables are built on first
    use, or at once for a rejected spec, whose AxiomError names
    validate_axioms' first failure.
    """
    return make_module_biquandle(n, ((a,),), ((b,),), ((c,),), ((d,),))


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

    A, B, C, D are r x r int matrices, as lists of rows; elements are
    labelled as _label says, like linear_form reads them. Raises
    AxiomError with the first failing axiom and witness.
    """
    mats = [_ints(M, _PARAMETERS, rows=True) for M in (A, B, C, D)]  # None is no matrix
    _ints((n, *(v for M in mats for row in M for v in row)), _PARAMETERS)
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    mats = [tuple(tuple(v % n for v in row) for row in M) for M in mats]
    r = len(mats[0])
    if r < 1 or any(len(M) != r or any(len(row) != r for row in M) for M in mats):
        raise ValueError("A, B, C and D must be r x r matrices with r >= 1")
    a, b, c, d = (M[0][0] for M in mats)  # for r = 1, checked as make_linear_biquandle says
    if r == 1 and math.gcd(a * c, n) == 1 and (a + b - c - d) % n == 0 and b * d % n == 0:
        return FiniteBiquandle(n, form=(n, *mats))
    return from_tables(*_module_tables(n, mats))


def make_conjugation_quandle(perms) -> FiniteBiquandle:
    """The conjugation quandle x |> y = y^-1 x y on permutations closed under conjugation.

    perms are image tuples over {1..k} (see Permutation) multiplied left
    to right, so x |> y sends y(i) to y(x(i)); element i is perms[i - 1].
    Raises ValueError unless they are distinct permutations of one degree
    whose conjugates by each other stay among them.
    """
    elems = _ints(perms, error=None, rows=True)
    index = {p: i for i, p in enumerate(elems or (), start=1)}
    if not elems or len(index) < len(elems) or any(
            len(p) != len(elems[0]) or not is_permutation(p) for p in elems):
        raise ValueError(f"need distinct permutations of one degree, got {perms!r}")
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

    Between quandles only y in a generating set G of X is needed (Joyce,
    "A classifying invariant of knots, the knot quandle", JPAA 23 (1982)):
    the y with f o R_y = R_f(y) o f form a subquandle, as R_(a |> b) =
    R_b R_a R_b^-1 in X and Y. Other pairs keep all |X|^2 quads, since a
    non-quandle's over-relations constrain f. G is found greedily: walking
    X in order, g joins G when it lies outside subquandle_closure(X, G).
    That is |G| closures, |X| |G| (|G| + 1) / 2 table reads at most.
    """
    from .coloring import list_solutions  # coloring imports this module

    gens = X.elements()
    if X.is_quandle() and Y.is_quandle():
        gens, closure = [], frozenset()
        for g in X.elements():
            if g not in closure:
                gens.append(g)
                closure = subquandle_closure(X, gens)
    over, under = X.over_table, X.under_table
    quads = [(x - 1, y - 1, under[x - 1][y - 1] - 1, over[y - 1][x - 1] - 1)
             for x in X.elements() for y in gens]
    return list_solutions(X.size, quads, Y)[0]


def enumerate_endos(Y: FiniteBiquandle) -> list[tuple[int, ...]]:
    return enumerate_homs(Y, Y)


def is_hom(X: FiniteBiquandle, Y: FiniteBiquandle, image) -> bool:
    """Whether the image tuple (or list) of ints defines a biquandle homomorphism X -> Y."""
    if (not isinstance(image, (tuple, list)) or _ints(image, error=None) is None
            or len(image) != X.size or any(not 1 <= v <= Y.size for v in image)):
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


def column_permutation(Q: FiniteBiquandle, y: int) -> Permutation:
    """The permutation x -> x |> y given by column y of the quandle table."""
    if not Q.is_quandle():
        raise ValueError("column permutations are defined for quandles only")
    Q._check(y)  # True would read as column 1
    return tuple(row[y - 1] for row in Q.under_table)


def is_permutation(p) -> bool:
    """Whether p lists 1..len(p) in some order, as ints: a bool or float entry is no element."""
    return _ints(p, error=None) is not None and sorted(p) == list(range(1, len(p) + 1))


def group_order(gens) -> int:
    """Exact order of the permutation group generated by gens.

    Breadth-first closure; raises GroupOrderCapExceeded past
    DEFAULT_GROUP_CAP elements rather than ever returning a wrong number.
    Column groups in scope are tiny, so no stabilizer-chain machinery is
    warranted. Each generator is kept as the 1-shifted tuple (0, *g), so
    g o h is one map over h.
    """
    gens = _ints(gens, "need permutations of 1..n, got {!r}", rows=True)
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
                    if len(seen) >= DEFAULT_GROUP_CAP:
                        raise GroupOrderCapExceeded(
                            f"group closure exceeded cap {DEFAULT_GROUP_CAP}")
                    seen.add(hg)
                    nxt.append(hg)
        frontier = nxt
    return len(seen)


def subquandle_closure(Q: FiniteBiquandle, S) -> frozenset[int]:
    """Smallest subset containing S closed under |> and its column inverses.

    It is the orbit of S under the columns R_s (x -> x |> s) of s in S,
    read off the rows of the under table: the orbit is contained in the
    closure, and since R_{x |> y} = R_y R_x R_y^-1, the column of every
    orbit element lies in the group the R_s generate, so the orbit is
    closed. On a finite set the forward orbit is already closed under the
    inverse columns. enhance reads group orders through it, and
    enumerate_homs grows its generating sets with it.
    """
    if not Q.is_quandle():
        raise ValueError("subquandle closure is defined for quandles only")
    seeds = _ints(S, "elements must be ints, got {!r}")  # before a set merges True into 1
    if not seeds:
        raise ValueError("seed set must be nonempty")
    Q._check(*seeds)
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
    with any_int_digits():
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty biquandle file")
        try:
            n = _decimal(lines[0])
        except ValueError:
            raise ValueError(f"first line must be the size, got {lines[0]!r}")
        if n < 1:
            raise ValueError(f"size must be at least 1, got {n}")
        rows = lines[1:]
        if len(rows) != 2 * n:
            raise ValueError(f"expected {2 * n} table rows, found {len(rows)}")
        try:
            over = [[_decimal(v) for v in ln.split()] for ln in rows[:n]]
            under = [[_decimal(v) for v in ln.split()] for ln in rows[n:]]
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
