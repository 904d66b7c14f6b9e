"""Tests for coloring enumeration, the linear-algebra path, and their oracles."""

import copy
import itertools
import math
import random
import sys
import time

import pytest

from biqknot import algebra, coloring, repro
from biqknot.algebra import (
    AxiomError,
    FiniteBiquandle,
    biquandle_z,
    enumerate_endos,
    from_tables,
    make_dihedral,
    make_linear_biquandle,
    make_module_biquandle,
    parse_biquandle,
    serialize_biquandle,
)
from biqknot.coloring import (
    BRUTE_FORCE_GUARD,
    RelationMatrix,
    _eliminate,
    _list_kernel,
    _oriented,
    _relation_rows,
    _search,
    coloring_matrix,
    colorings_with_loops,
    count_colorings,
    count_solutions_bruteforce,
    count_solutions_snf,
    enumerate_colorings,
    list_solutions,
)
from biqknot.diagram import (
    Crossing,
    SemiarcDiagram,
    apply_r1,
    apply_r2,
    chain,
    connected_sum,
    pretzel,
    torus_2n,
    unknot,
)
from biqknot.knots import builtin_table

from oracles import brute_force_colorings, list_kernel_reference, transpositions_quandle

# the published null space of the T(2,4) relation matrix over the linear
# biquandle Z (residues mod 4); my semiarc k corresponds to coordinate
# (1 - k) mod 8 of these tuples
T24_Z_COLORINGS = {
    (0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 3, 2, 2, 3, 1, 0),
    (0, 2, 2, 0, 0, 2, 2, 0), (0, 3, 1, 2, 2, 1, 3, 0),
    (1, 0, 0, 1, 3, 2, 2, 3), (1, 1, 3, 3, 1, 1, 3, 3),
    (1, 2, 2, 1, 3, 0, 0, 3), (1, 3, 1, 3, 1, 3, 1, 3),
    (2, 0, 0, 2, 2, 0, 0, 2), (2, 1, 3, 0, 0, 3, 1, 2),
    (2, 2, 2, 2, 2, 2, 2, 2), (2, 3, 1, 0, 0, 1, 3, 2),
    (3, 0, 0, 3, 1, 2, 2, 1), (3, 1, 3, 1, 3, 1, 3, 1),
    (3, 2, 2, 3, 1, 0, 0, 1), (3, 3, 1, 1, 3, 3, 1, 1),
}


def to_reference_tuple(coloring):
    out = [0] * 8
    for k, label in enumerate(coloring):
        out[(1 - k) % 8] = label % 4
    return tuple(out)


def test_t24_over_z_matches_published_list():
    cols = enumerate_colorings(torus_2n(4), biquandle_z())
    assert len(cols) == 16
    assert {to_reference_tuple(c) for c in cols} == T24_Z_COLORINGS


def test_t24k_all_have_16():
    z = biquandle_z()
    for k in (1, 2, 3, 4):
        assert count_colorings(torus_2n(4 * k), z) == 16


def test_one_element_target():
    one = make_dihedral(1)
    for d in (torus_2n(3), chain(3), pretzel([3, 3, 3])):
        assert enumerate_colorings(d, one) == [tuple([1] * d.semiarc_count)]


def test_kink_unknot_over_r3_constant():
    cols = enumerate_colorings(unknot(1), make_dihedral(3))
    assert cols == [(1, 1), (2, 2), (3, 3)]


def test_kink_unknot_over_z():
    # count |Z| = 4, but the kink relation forces s0 = 3*s1 (mod 4), so
    # only the diagonal-fixed labels give constants
    cols = enumerate_colorings(unknot(1), biquandle_z())
    assert len(cols) == 4
    assert all((3 * b - a) % 4 == 0 for a, b in cols)


def test_constant_colorings_for_quandles():
    r5 = make_dihedral(5)
    for d in (torus_2n(3), chain(3)):
        cols = set(enumerate_colorings(d, r5))
        for y in r5.elements():
            assert tuple([y] * d.semiarc_count) in cols


def test_free_loops_counted_symbolically():
    d = SemiarcDiagram(0, (), free_loops=2)
    r3 = make_dihedral(3)
    assert enumerate_colorings(d, r3) == [()]
    assert count_colorings(d, r3) == 9
    assert len(colorings_with_loops(d, r3)) == 9


def test_published_counting_claims():
    r9 = make_dihedral(9)
    assert count_colorings(pretzel([9, 2, 9]), r9) == 81
    assert count_colorings(chain(5), make_dihedral(4)) == 64
    s, _ = connected_sum(torus_2n(3), 0, torus_2n(3), 0)
    assert count_colorings(s, r9) == 81
    assert count_colorings(s, make_dihedral(3)) == 27


def test_torus_counts_follow_determinant_rule():
    for p in (3, 5, 7):
        for n in (3, 5, 8, 12):
            assert count_colorings(torus_2n(p), make_dihedral(n)) == n * math.gcd(p, n)


def test_sum_with_kinked_unknot_preserves_counts():
    r3 = make_dihedral(3)
    d = torus_2n(3)
    base = count_colorings(d, r3)
    summed, _ = connected_sum(d, 2, unknot(1), 0)
    assert count_colorings(summed, r3) == base


def test_chain_counts_agree_over_z_and_r4():
    # the published 4^b chain count is derived from dihedral relations
    # mod 4; recorded observation: the linear biquandle Z gives the
    # same counts on these diagrams
    z = biquandle_z()
    r4 = make_dihedral(4)
    for b in (2, 3):
        d = chain(2 * b - 1)
        assert count_colorings(d, r4) == 4**b
        assert count_colorings(d, z) == 4**b


def test_enumeration_matches_brute_force():
    cases = [
        (torus_2n(2), make_dihedral(3)),
        (torus_2n(3), make_dihedral(4)),
        (torus_2n(4), biquandle_z()),
        (unknot(1), biquandle_z()),
        (apply_r1(torus_2n(2), 0, -1), make_dihedral(3)),
        (chain(3), make_dihedral(2)),
    ]
    for d, y in cases:
        assert enumerate_colorings(d, y) == sorted(brute_force_colorings(d, y))


def test_functoriality_under_endomorphisms():
    for d, y in ((torus_2n(4), biquandle_z()), (chain(3), make_dihedral(4))):
        cols = set(enumerate_colorings(d, y))
        for f in enumerate_endos(y):
            for c in cols:
                assert tuple(f[x - 1] for x in c) in cols


def test_move_invariance_counts():
    rng = random.Random(3)
    targets = [make_dihedral(3), make_dihedral(4), biquandle_z()]
    diagrams = [torus_2n(3), torus_2n(4), chain(3), pretzel([3, 3, 3])]
    for d in diagrams:
        base = [count_colorings(d, y) for y in targets]
        s = rng.randrange(d.semiarc_count)
        assert [count_colorings(apply_r1(d, s, rng.choice((1, -1))), y) for y in targets] == base
        a, b = rng.sample(range(d.semiarc_count), 2)
        variant = rng.choice(("parallel", "antiparallel"))
        assert [count_colorings(apply_r2(d, a, b, variant), y) for y in targets] == base


# -- linear path ---------------------------------------------------------------


def test_coloring_matrix_t24():
    m = coloring_matrix(torus_2n(4), biquandle_z())
    assert m.cols == 8
    assert len(m.rows) == 8
    assert count_solutions_snf(m) == 16
    assert count_solutions_bruteforce(m) == 16


def test_coloring_matrix_requires_linear():
    with pytest.raises(ValueError):
        coloring_matrix(torus_2n(3), transpositions_quandle())
    # over (Z/2)^2 each semiarc owns two columns and each relation gives two rows
    m = coloring_matrix(torus_2n(3), gf4_alexander_quandle())
    assert (m.modulus, m.cols, len(m.rows)) == (2, 12, 12)
    assert count_solutions_snf(m) == count_solutions_bruteforce(m) == 16
    # linearity is read off the tables, so R_3 qualifies however it was built
    assert count_solutions_snf(coloring_matrix(torus_2n(3), make_dihedral(3))) == 9


def searched(d, y):
    """The search's listing, independent of the elimination."""
    return sorted(map(tuple, _search(d.semiarc_count, _oriented(d), y)))


def listed_count(d, y):
    """The search route to Col_Y(d), independent of the elimination count."""
    return len(searched(d, y)) * y.size**d.free_loops


def test_matrix_counts_match_enumeration_on_families():
    # R_n is linear: x |> y = -x + 2y
    for n in (3, 4, 9):
        rn = make_linear_biquandle(n, 1, 0, n - 1, 2)
        for d in (torus_2n(3), torus_2n(4), chain(3)):
            assert count_solutions_snf(coloring_matrix(d, rn)) == listed_count(d, rn)
    z = biquandle_z()
    for d in (torus_2n(4), torus_2n(8), apply_r2(torus_2n(4), 0, 5)):
        assert count_solutions_snf(coloring_matrix(d, z)) == listed_count(d, z)


def test_trefoil_r3_null_space():
    r3 = make_linear_biquandle(3, 1, 0, 2, 2)
    m = coloring_matrix(torus_2n(3), r3)
    assert count_solutions_snf(m) == 9


def test_snf_zero_matrix():
    m = RelationMatrix(({},), 4, 3)
    assert count_solutions_snf(m) == 64


def test_snf_empty_matrix():
    m = RelationMatrix((), 5, 3)
    assert count_solutions_snf(m) == 125


def test_snf_known_diagonal():
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert snf_diagonal([[0, 0], [0, 0]]) == []
    # divisibility chain property on a random-ish matrix
    diag = snf_diagonal([[6, 4, 2], [4, 6, 2], [2, 2, 8]])
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_snf_counts_match_brute_force_random():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.choice((4, 9))
        cols = rng.randrange(1, 5 if n == 9 else 7)
        rows = rng.randrange(1, 6)
        mat = tuple(tuple(rng.randrange(n) for _ in range(cols)) for _ in range(rows))
        m = RelationMatrix(sparse(mat), n, cols)
        assert count_solutions_snf(m) == count_solutions_bruteforce(m)


def literal_null_count(m):
    """#{x in (Z/n)^cols : Mx = 0 mod n}, one candidate x at a time."""
    n = m.modulus
    return sum(1 for x in itertools.product(range(n), repeat=m.cols)
               if all(sum(a * x[j] for j, a in row.items()) % n == 0 for row in m.rows))


@pytest.mark.parametrize("m, want", [
    (RelationMatrix((), 5, 0), 1),  # no columns: the empty vector
    (RelationMatrix(({}, {}), 5, 0), 1),
    (RelationMatrix(({0: 2},), 4, 1), 2),  # one column: x in {0, 2}
    (RelationMatrix(({0: 3},), 9, 1), 3),
    (RelationMatrix(({0: 1, 1: 2, 2: 3},), 5, 3), 25),  # odd cols: the halves differ in size
    (RelationMatrix(({0: 1, 1: 2, 2: 3}, {1: 6, 4: 3}), 9, 5), 2187),
    (RelationMatrix((), 3, 4), 81),  # no rows
    (RelationMatrix(({}, {}, {}), 4, 3), 64),  # empty rows
    (RelationMatrix(({0: 1, 2: 3}, {}), 4, 3), 16),
    (RelationMatrix(({0: 1, 1: 2},), 1, 2), 1),  # modulus 1: only the zero vector
    (RelationMatrix(({0: 5},), 1, 9), 1),
    (RelationMatrix(({0: -1, 1: 7, 2: 12}, {1: -9, 3: 5}), 4, 4), 16),  # negative and >= n
    (RelationMatrix(({0: -3, 1: 9}, {0: 18, 2: -27}), 9, 3), 243),
    # moduli at and beside powers of two, where a packed field's width steps
    (RelationMatrix(({0: 1, 1: 1},), 2, 2), 2),
    (RelationMatrix(({0: 3, 1: -3},), 3, 2), 9),
    (RelationMatrix(({0: 1, 1: 6}, {0: -7, 1: 14}), 7, 2), 7),
    (RelationMatrix(({0: 4, 1: 2}, {1: 4}), 8, 2), 16),
    (RelationMatrix(({0: 5, 1: 17}, {0: 51}), 255, 2), 51),
    (RelationMatrix(({0: 128, 1: -64}, {0: 255, 1: 257}), 256, 2), 64),
    (RelationMatrix(({0: 250},), 1000, 1), 250),
    (RelationMatrix(({0: 998, 1: 1998}, {0: -500}), 1000, 2), 1000),
    # 30-60 rows: the packed residues run past 64 bits
    (RelationMatrix(tuple({0: i, 1: 2 * i + 1} for i in range(40)), 9, 2), 1),
    (RelationMatrix(tuple({0: i, 1: 3 * i - 128} for i in range(60)), 256, 2), 128),
    (RelationMatrix(tuple({j: (i * j) % 7 - 3 for j in range(4)} for i in range(45)), 5, 4), 1),
    (RelationMatrix(tuple({0: 2 * i, 2: -6 * i} for i in range(30)), 8, 3), 128),
    # no columns or one, so the left half is empty; empty and all-zero rows
    (RelationMatrix(tuple({} for _ in range(30)), 7, 0), 1),
    (RelationMatrix(({0: 0},), 8, 1), 8),
    (RelationMatrix(({0: 6}, {0: -4}), 8, 1), 2),
    (RelationMatrix(({0: 0, 1: 0}, {0: 4, 1: -8}, {}), 4, 2), 16),
])
def test_bruteforce_matches_literal_filter_on_edge_cases(m, want, monkeypatch):
    assert literal_null_count(m) == want

    def refuse(*args):
        raise AssertionError("the brute-force oracle must not use the elimination")

    # the oracle is independent of the elimination behind the SNF count
    monkeypatch.setattr(coloring, "_eliminate", refuse)
    monkeypatch.setattr(coloring, "_prime_powers", refuse)
    assert count_solutions_bruteforce(m) == want


def test_bruteforce_matches_literal_filter_on_random_matrices():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.choice((rng.randrange(1, 10), rng.choice((15, 16, 17, 31, 32, 33))))
        cols = rng.randrange(0, 7 if n < 4 else 5 if n < 10 else 3)
        rows = tuple({j: rng.randrange(-3 * n, 3 * n) for j in range(cols) if rng.random() < 0.6}
                     for _ in range(rng.randrange(0, 5 if rng.random() < 0.8 else 61)))
        m = RelationMatrix(rows, n, cols)
        assert count_solutions_bruteforce(m) == literal_null_count(m)


def test_bruteforce_matches_literal_filter_on_item_03_matrices(monkeypatch):
    drawn = []

    def recording(m):
        drawn.append(m)
        return count_solutions_bruteforce(m)

    monkeypatch.setattr(repro, "count_solutions_bruteforce", recording)
    _, computed, ok = repro.item_03_snf_path()
    assert ok and computed.endswith("200/200 random")
    assert len(drawn) == 200  # the matrices item 03 draws from random.Random(1729)
    assert [count_solutions_bruteforce(m) for m in drawn] == list(map(literal_null_count, drawn))


def test_bruteforce_guards_refuse_before_enumerating():
    # 3^100 assignments and 2^200 vectors: no enumeration could finish, only the guard answers
    d = unknot(50)
    assert 3**d.semiarc_count > BRUTE_FORCE_GUARD
    with pytest.raises(ValueError, match=rf"^brute force over 3\^{d.semiarc_count} assignments refused$"):
        brute_force_colorings(d, make_dihedral(3))
    with pytest.raises(ValueError, match=r"^brute force over 2\^200 vectors refused$"):
        count_solutions_bruteforce(RelationMatrix(({0: 1},), 2, 200))
    # the bound itself is allowed: 10^7 vectors with no rows are all null
    assert 10**7 == BRUTE_FORCE_GUARD
    assert count_solutions_bruteforce(RelationMatrix((), 10, 7)) == BRUTE_FORCE_GUARD
    with pytest.raises(ValueError, match=r"^brute force over 10\^8 vectors refused$"):
        count_solutions_bruteforce(RelationMatrix((), 10, 8))


def snf_diagonal(rows) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix (oracle).

    Dense elimination over Z, unlike the library's sparse elimination
    over each prime power of the modulus; test_snf_counts_match_sympy_smith_form
    checks it against sympy's smith_normal_form.

    Pivots are chosen by smallest nonzero absolute value to control
    entry growth; unbounded Python integers make the reduction exact
    regardless. The returned entries are positive and form a
    divisibility chain.
    """
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        # locate smallest nonzero entry in the working submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        while True:
            pivot = A[t][t]
            done = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // pivot
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // pivot
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        diag.append(abs(A[t][t]))
        t += 1
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def snf_formula_count(diag, n, cols):
    """n^(cols - r) * prod gcd(d_i, n) for a Smith diagonal d_1..d_r over Z."""
    count = n ** (cols - len(diag))
    for dv in diag:
        count *= math.gcd(dv, n)
    return count


def sparse(mat):
    """Dense rows as RelationMatrix rows: {column: entry} for the nonzero entries."""
    return tuple({j: a for j, a in enumerate(row) if a} for row in mat)


def random_matrix(rng, n, rows, cols, nonzeros=None):
    """Dense rows mod n; with nonzeros set, at most that many per row, like crossing rows."""
    out = []
    for _ in range(rows):
        row = [0] * cols
        for j in (range(cols) if nonzeros is None else rng.sample(range(cols), min(nonzeros, cols))):
            row[j] = rng.randrange(n)
        out.append(tuple(row))
    return tuple(out)


COMPOSITE_MODULI = (4, 8, 9, 12, 27, 36, 72)
PRIMES = (2, 3, 5, 7)


def test_snf_counts_on_composite_moduli():
    rng = random.Random(7)
    for n in COMPOSITE_MODULI:
        max_cols = int(math.log(5000, n))  # keeps the brute force quick
        for _ in range(25):
            cols = rng.randrange(1, max_cols + 1)
            m = RelationMatrix(sparse(random_matrix(rng, n, rng.randrange(0, 6), cols)), n, cols)
            want = count_solutions_bruteforce(m)
            assert count_solutions_snf(m) == want
            assert snf_formula_count(snf_diagonal(m.dense()), n, cols) == want


def test_kernel_listing_matches_brute_force_on_composite_moduli():
    rng = random.Random(13)
    for n in (1,) + COMPOSITE_MODULI:
        max_cols = max(1, int(math.log(5000, n))) if n > 1 else 3
        for _ in range(15):
            cols = rng.randrange(0, max_cols + 1)
            mat = random_matrix(rng, n, rng.randrange(0, 6), cols, nonzeros=rng.choice((None, 2, 3)))
            rows = list(sparse(mat))
            assert _list_kernel(rows, cols, n)[0] == brute_force_kernel(rows, cols, n)


def test_snf_counts_on_sparse_systems_match_diagonal_formula():
    # crossing-shaped rows (at most 3 nonzeros), too large for brute force
    rng = random.Random(11)
    for n in COMPOSITE_MODULI:
        for _ in range(6):
            cols = rng.randrange(5, 25)
            rows = random_matrix(rng, n, rng.randrange(cols // 2, 2 * cols), cols, nonzeros=3)
            m = RelationMatrix(sparse(rows), n, cols)
            assert count_solutions_snf(m) == snf_formula_count(snf_diagonal(rows), n, cols)


def test_snf_counts_match_sympy_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(5)
    for n in COMPOSITE_MODULI:
        for _ in range(4):
            cols = rng.randrange(2, 9)
            rows = random_matrix(rng, n, rng.randrange(1, 9), cols, nonzeros=3)
            snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            diag = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i]]
            assert snf_diagonal(rows) == diag
            m = RelationMatrix(sparse(rows), n, cols)
            assert count_solutions_snf(m) == snf_formula_count(diag, n, cols)
    # systems made mostly of equality rows, which the elimination merges first
    rng = random.Random(17)
    for n in COMPOSITE_MODULI + PRIMES:
        for _ in range(4):
            cols = rng.randrange(2, 9)
            m = RelationMatrix(tuple(equality_system(rng, n, cols)), n, cols)
            rows = m.dense() or ((0,) * cols,)
            snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            diag = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i]]
            assert snf_diagonal(rows) == diag
            assert count_solutions_snf(m) == snf_formula_count(diag, n, cols)


# -- equality rows u*x_a - u*x_b, merged by union-find before the elimination ----


def equality_system(rng, n, cols):
    """Sparse rows mod n, most of them u*x_a - u*x_b with u a unit or not,
    some repeated, some multiples of an earlier row (which a merge or a
    pivot empties), some zero mod n, some equalities only once reduced mod
    n or rewritten onto merged columns, some closing cycles, a few general
    rows between them."""
    rows = []
    for _ in range(rng.randrange(0, 2 * cols + 3)):
        kind = rng.randrange(8)
        a, b, *rest = rng.sample(range(cols), min(3, cols))
        u = rng.randrange(1, n) + n * rng.randrange(-1, 2)  # unreduced coefficients too
        if kind <= 1:
            rows.append({a: u, b: -u} if kind else {a: -u, b: u})
        elif kind == 2 and rows:
            rows.append(dict(rng.choice(rows)))  # a repeated row
        elif kind == 3 and rows:
            s = rng.randrange(-1, n + 1)
            rows.append({j: s * v for j, v in rng.choice(rows).items()})  # a multiple
        elif kind == 4:
            rows.append(rng.choice(({}, {a: n * rng.randrange(-2, 3)}, {a: n, b: -2 * n})))
        elif kind == 5:  # u*x_a - u*x_b once reduced, or once b and c merge
            t = rng.randrange(n)
            rows.append(rng.choice(({a: u, b: n - u, **{j: n for j in rest}},
                                    {a: u, b: t - u, **{j: -t for j in rest}})))
        elif kind == 6:
            cycle = rng.sample(range(cols), rng.randrange(2, cols + 1))
            rows += [{c: u, d: -u} for c, d in zip(cycle, cycle[1:] + cycle[:1])]
        else:
            some = rng.sample(range(cols), rng.randrange(1, min(4, cols + 1)))
            rows.append({j: rng.randrange(n) for j in some})
    rng.shuffle(rows)
    return rows


def brute_force_kernel(rows, cols, n):
    """Every null vector mod n by enumeration, as labels (residue 0 is label n), sorted."""
    return sorted(tuple(v or n for v in vec) for vec in itertools.product(range(n), repeat=cols)
                  if all(sum(a * vec[j] for j, a in row.items()) % n == 0 for row in rows))


def check_kernel_routes(rows, cols, n):
    """Count and listing against brute force and the integer Smith diagonal; rows untouched."""
    m = RelationMatrix(tuple(rows), n, cols)
    before = copy.deepcopy(rows)
    want = brute_force_kernel(rows, cols, n)
    assert count_solutions_snf(m) == count_solutions_bruteforce(m) == len(want)
    assert snf_formula_count(snf_diagonal(m.dense()), n, cols) == len(want)
    assert _list_kernel(rows, cols, n)[0] == want
    assert rows == before
    return len(want)


def merges(rows, p, k):
    """The elimination's merged columns mod p^k, as {j: root}."""
    return _eliminate(rows, p, k)[0]


def test_equality_rows_merge_only_over_units():
    # 2 is a unit mod 9: 2x - 2y = 0 says x = y
    assert len(merges([{0: 2, 1: -2}], 3, 2)) == 1
    assert check_kernel_routes([{0: 2, 1: -2}], 2, 9) == 9
    # look-alikes whose coefficient is no unit must not merge
    assert merges([{0: 3, 1: -3}], 3, 2) == {}
    assert check_kernel_routes([{0: 3, 1: -3}], 2, 9) == 27
    assert merges([{0: 2, 1: -2}], 2, 2) == {}
    assert check_kernel_routes([{0: 2, 1: -2}], 2, 4) == 8
    # 2x + 10y mod 12 is 2x + 2y mod 4 (no unit) but 2x - 2y mod 3 (merges)
    assert len(merges([{0: 2, 1: 10}], 3, 1)) == 1
    assert merges([{0: 2, 1: 10}], 2, 2) == {}
    assert check_kernel_routes([{0: 2, 1: 10}], 2, 12) == 8 * 3
    # repeated and cyclic equalities: one merge per column joined, redundant rows drop out
    cycle = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: -1}, {1: 4, 0: -4}, {0: 1, 1: -1}]
    roots = merges(cycle + [{2: 1, 3: 3}], 7, 1)
    assert len(roots) == 2 and len(set(roots.values())) == 1  # one root, no merged column
    assert not set(roots.values()) & set(roots)
    assert check_kernel_routes(cycle + [{2: 1, 3: 3}], 4, 7) == 7
    assert check_kernel_routes(cycle + [{2: 3, 3: 3}, {3: 2, 0: 5}], 4, 9) == 9
    # a row the merge makes zero drops out; one it makes 2x = 0 mod 4 stays
    assert check_kernel_routes([{0: 1, 1: -1}, {0: 5, 1: -5}, {1: 4, 0: 8}], 2, 12) == 12
    assert check_kernel_routes([{0: 1, 1: -1}, {0: 3, 1: 3}], 3, 12) == 2 * 3 * 12
    # zero rows, repeated rows and rows a merge or a pivot empties say nothing new
    assert check_kernel_routes([{}, {0: 9, 1: -18}, {0: 1, 1: 2}, {1: 2, 0: 1}], 2, 9) == 9
    assert check_kernel_routes([{0: 1, 1: -1}, {0: 3, 1: -3}, {1: 6, 0: -6}], 2, 9) == 9
    assert check_kernel_routes([{0: 1, 1: 2, 2: 1}, {0: 2, 1: 4, 2: 2}, {0: 1, 1: 1}], 3, 5) == 5
    assert check_kernel_routes([{0: 3, 1: 6}, {0: 6, 1: 12}, {1: 3, 2: 3}], 3, 9) == 81
    # equalities only once reduced mod n, or once rewritten onto the roots
    assert check_kernel_routes([{0: 2, 1: -2, 2: 7}], 3, 7) == 49
    assert check_kernel_routes([{0: 1, 1: 11, 2: 12}], 3, 12) == 144
    assert check_kernel_routes([{1: 1, 2: -1}, {0: 3, 1: -1, 2: -2}], 3, 7) == 7
    assert check_kernel_routes([{1: 1, 2: -1}, {0: 3, 1: -1, 2: -2}], 3, 9) == 27
    # a merged column is never pivoted, and a root is never itself merged
    for rows, p, k in ((cycle + [{2: 3, 3: 3}, {3: 2, 0: 5}], 3, 2),
                       ([{0: 1, 1: -1}, {0: 3, 1: 3}], 2, 2),
                       ([{1: 1, 2: -1}, {0: 3, 1: -1, 2: -2}], 7, 1),
                       ([{0: 1, 1: -1}, {2: 1, 0: -1}, {3: 1, 2: -1}, {1: 2, 3: 2}], 3, 1)):
        merged, pivots = _eliminate(rows, p, k)
        assert merged and pivots
        assert not merged.keys() & {j for j, _, _, _ in pivots}
        assert not merged.keys() & set(merged.values())


def test_random_equality_systems_match_brute_force():
    rng = random.Random(23)
    for n in COMPOSITE_MODULI + PRIMES:
        max_cols = max(2, int(math.log(3000, n)))  # keeps the brute force quick
        for _ in range(12):
            cols = rng.randrange(2, max_cols + 1)
            check_kernel_routes(equality_system(rng, n, cols), cols, n)


@pytest.mark.parametrize("n", [9, 12, 27])
def test_heavily_repeated_rows_count_and_list_as_the_distinct_ones(n):
    # each distinct row, general or a unit equality, comes 50-200 times in shuffled
    # order, its keys permuted and its coefficients shifted by multiples of n
    rng = random.Random(n)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for cols in (3, 4, 5, 6):
        distinct = [{j: rng.randrange(1, n) for j in rng.sample(range(cols), rng.randrange(1, 4))}
                    for _ in range(rng.randrange(1, 4))]
        for _ in range(rng.randrange(1, 3)):
            a, b = rng.sample(range(cols), 2)
            u = rng.choice(units)
            distinct.append({a: u, b: -u})
        rows = [{j: row[j] + n * rng.randrange(-2, 3) for j in rng.sample(list(row), len(row))}
                for row in distinct for _ in range(rng.randrange(50, 201))]
        rng.shuffle(rows)
        m = RelationMatrix(tuple(rows), n, cols)
        count = count_solutions_snf(RelationMatrix(tuple(distinct), n, cols))
        assert count_solutions_snf(m) == count
        if n**cols <= BRUTE_FORCE_GUARD:
            assert count_solutions_bruteforce(m) == count
        if count <= 20000:  # keeps the listing small
            listing = _list_kernel(rows, cols, n)
            assert listing == list_kernel_reference(rows, cols, n)
            assert listing[0] == _list_kernel(distinct, cols, n)[0]


def test_equality_chain_with_deep_union_find_tree_counts_q():
    # x_i = x_(i-1), each union linking the newest column's set to the previous
    # one's, builds a 5000-deep union-find tree; the rows x_0 = x_j then walk it
    # again and again, which without path compression is quadratic (about 25 s
    # against 0.3 s on a 2-core VM, so the budget below is generous either way)
    cols = 5000
    rows = [{i: 1, i - 1: -1} for i in range(1, cols)]
    rows += [{0: 1, j: -1} for j in range(cols - 1, 0, -1)]
    start = time.perf_counter()
    for n in (7, 9, 12):
        assert count_solutions_snf(RelationMatrix(tuple(rows), n, cols)) == n
        assert _list_kernel(rows, cols, n)[0] == [(v,) * cols for v in range(1, n + 1)]
    assert time.perf_counter() - start < 8.0


def test_snf_modulus_one_and_invalid():
    assert count_solutions_snf(RelationMatrix(({0: 1, 1: 2},), 1, 2)) == 1
    with pytest.raises(ValueError):
        count_solutions_snf(RelationMatrix(({0: 1},), 0, 1))


def test_relation_matrix_rejects_columns_outside_cols():
    # a row reaching past cols used to count 1 by SNF and 5 by brute force
    for rows in (({2: 1},), ({0: 1}, {-1: 2}), ({0: 1, 1: 1},)):
        with pytest.raises(ValueError):
            RelationMatrix(rows, 5, 1)
    # a coefficient that is no int used to leak pow()'s TypeError (1.5) or count as 1 (True)
    for rows in (({0: 1.5},), ({0: True, 1: -1},), ({0: 1}, {1: 2.0}), ({0: "1"},)):
        with pytest.raises(ValueError, match="^relation coefficients must be integers$"):
            RelationMatrix(rows, 3, 2)
    # a column that is no int: 0.5 used to count 3 by SNF and 9 by brute force
    for rows in (({0.5: 1},), ({0: 1}, {1.5: 2}), ({"1": 1},), ({True: 1},), ({0: 1, 1.0: 1},)):
        with pytest.raises(ValueError, match="^relation columns must be ints, got "):
            RelationMatrix(rows, 3, 2)
    # the check reads the set of named columns: a 1.0 after a 1 is column 1 to both counters
    m = RelationMatrix(({1: 1}, {1.0: 2, 0: 1}), 3, 2)
    assert count_solutions_snf(m) == count_solutions_bruteforce(m) == 1
    # cols that is no int >= 0 used to count 3^-2 or 3^2.5
    for cols in (-2, 2.5, True, "2"):
        with pytest.raises(ValueError, match="cols >= 0, both ints"):
            RelationMatrix((), 3, cols)
    m = RelationMatrix(({0: 5}, {}), 5, 1)  # unreduced and empty rows fit
    assert count_solutions_snf(m) == count_solutions_bruteforce(m) == 5
    assert RelationMatrix(({0: -1, 2: 7},), 4, 3).dense() == ((3, 0, 3),)


def test_relation_matrix_rejects_modulus_below_one():
    # brute force used to count 0 here while the SNF count raised, and dense()
    # divided by zero or printed negative entries
    for modulus in (0, -3, 3.0, True, "3"):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            RelationMatrix(({0: 1},), modulus, 2)


def dense_coloring_matrix(d, y):
    """The relation rows written out in full mod n from d's crossings and y's matrices (oracle).

    A positive crossing asks u_out = C u_in + D o_in and o_out = A o_in + B u_in,
    a negative one the same with in and out swapped: r - Cp - Dq and s - Aq - Bp
    for (p, q, r, s), one row per coordinate, semiarc t's coordinate i being
    column t*w + i.
    """
    n, A, B, C, D = y.linear_form
    w = len(A)
    rows = []
    for c in d.crossings:
        p, q, r, s = ((c.u_in, c.o_in, c.u_out, c.o_out) if c.sign > 0
                      else (c.u_out, c.o_out, c.u_in, c.o_in))
        for out, M, x, K, z in ((r, C, p, D, q), (s, A, q, B, p)):
            for i in range(w):
                row = [0] * (d.semiarc_count * w)
                row[out * w + i] += 1
                for j in range(w):
                    row[x * w + j] -= M[i][j]
                    row[z * w + j] -= K[i][j]
                rows.append(tuple(v % n for v in row))
    return tuple(rows)


def matrix_battery():
    t, one, zero = ((1, 2), (1, 1)), ((1, 0), (0, 1)), ((0, 0), (0, 0))
    gf9 = make_module_biquandle(3, one, zero, t, ((0, 1), (2, 0)))  # x |> y = tx + (1 - t)y
    algebras = [make_dihedral(3), make_dihedral(4), make_linear_biquandle(9, 1, 0, 8, 2),
                biquandle_z(), make_linear_biquandle(8, 5, 0, 1, 4), gf4_alexander_quandle(), gf9]
    t22 = torus_2n(2)
    diagrams = ([torus_2n(p) for p in (1, 2, 3, 4, 6)] + [chain(3), chain(5)]
                + [pretzel(tw) for tw in ([3, 3, 3], [-3, 2, 5], [3, 1, 1])]
                + [unknot(k) for k in (1, 2, 3)]  # a kink's row repeats a column
                + [apply_r1(torus_2n(3), 2, 1), apply_r1(torus_2n(3), 1, -1),
                   apply_r2(torus_2n(4), 0, 5), apply_r2(t22, 0, 2, "antiparallel")]
                + [SemiarcDiagram(0, (), 2), SemiarcDiagram(t22.semiarc_count, t22.crossings, 1),
                   SemiarcDiagram(chain(3).semiarc_count, chain(3).crossings, 2)])
    return [(d, y) for y in algebras for d in diagrams]


def test_sparse_matrix_matches_dense_construction_and_counts():
    for d, y in matrix_battery():
        m = coloring_matrix(d, y)
        loop_cols = (0,) * (d.free_loops * len(y.linear_form[1]))
        assert m.dense() == tuple(row + loop_cols for row in dense_coloring_matrix(d, y))
        rows = copy.deepcopy(m.rows)
        count = count_solutions_snf(m)
        assert m.rows == rows  # counting leaves the rows as they were
        assert count == snf_formula_count(snf_diagonal(m.dense()), m.modulus, m.cols)
        assert count == count_colorings(d, y)


def test_snf_count_never_densifies(monkeypatch):
    def refuse(self):
        raise AssertionError("the SNF count wrote the relation matrix out densely")

    monkeypatch.setattr(RelationMatrix, "dense", refuse)
    m = coloring_matrix(torus_2n(2000), make_linear_biquandle(9, 1, 0, 8, 2))
    assert count_solutions_snf(m) == 9  # n * gcd(p, n) for T(2, p) over R_n


def test_linear_specs_count_without_building_a_table(monkeypatch):
    def refuse(n, mats):
        raise AssertionError(f"built the {n}-element tables")

    monkeypatch.setattr(algebra, "_module_tables", refuse)
    huge = make_dihedral(10**6)
    assert count_colorings(torus_2n(3), huge) == 10**6  # n gcd(3, n) over R_n
    assert count_colorings(torus_2n(3), make_dihedral(999999)) == 3 * 999999
    assert huge.is_quandle() and str(huge) == "Quandle(n=1000000)"
    r1009 = make_linear_biquandle(1009, 1, 0, 1008, 2)  # R_1009 as a linear spec
    assert count_colorings(torus_2n(1009), r1009) == 1009**2  # det T(2, 1009) = 1009
    assert count_solutions_snf(coloring_matrix(chain(3), r1009)) == 1009


# -- which algebras count by elimination ---------------------------------------


def gf4_alexander_quandle():
    """x |> y = w x + (1 + w) y over GF(4) = {0, 1, w, w + 1} (bits), labels element + 1."""

    def times_w(x):  # w (a + b w) = b + (a + b) w, since w^2 = w + 1
        a, b = x & 1, x >> 1
        return b | ((a ^ b) << 1)

    under = [[(times_w(x) ^ y ^ times_w(y)) + 1 for y in range(4)] for x in range(4)]
    over = [[x + 1] * 4 for x in range(4)]
    return from_tables(over, under)


def test_colorings_with_loops_appends_every_free_loop_value():
    # free loops are trailing coordinates no relation touches: the listing is the
    # semiarc colorings times every tuple of loop values, sorted
    for y in (make_dihedral(3), biquandle_z(), gf4_alexander_quandle(), transpositions_quandle(),
              make_dihedral(1)):
        for base in (SemiarcDiagram(0, ()), torus_2n(3), chain(3), unknot(2)):
            for loops in (1, 2):
                d = SemiarcDiagram(base.semiarc_count, base.crossings, loops)
                extras = list(itertools.product(y.elements(), repeat=loops))
                expected = sorted(c + e for c in enumerate_colorings(d, y) for e in extras)
                assert colorings_with_loops(d, y) == expected


def test_linear_form_detected_lazily_from_tables():
    for n in range(1, 13):
        rn = make_dihedral(n)
        assert "over_table" not in vars(rn)  # a constructor's form: building pays for no table
        assert rn.linear_form == (n, ((1 % n,),), ((0,),), (((n - 1) % n,),), ((2 % n,),))
        assert FiniteBiquandle(n, rn.over_table, rn.under_table).linear_form == rn.linear_form
        untagged = parse_biquandle(serialize_biquandle(make_linear_biquandle(n, 1, 0, n - 1, 2)))
        assert untagged.linear_form == rn.linear_form
    assert biquandle_z().linear_form == (4, ((3,),), ((0,),), ((1,),), ((2,),))
    # every table linear mod its size keeps r = 1, whatever its size
    for n in range(1, 6):
        for a, b, c, d in itertools.product(range(n), repeat=4):
            try:
                y = make_linear_biquandle(n, a, b, c, d)
            except AxiomError:
                continue
            assert "over_table" not in vars(y)
            assert y.linear_form == (n, ((a,),), ((b,),), ((c,),), ((d,),))
    assert (make_linear_biquandle(4, -1, 4, 5, -2).linear_form
            == (4, ((3,),), ((0,),), ((1,),), ((2,),)))


def test_gf4_alexander_quandle_is_module_linear_and_counts_match_search():
    q = gf4_alexander_quandle()
    # (Z/2)^2, label 1 + v_0 + 2 v_1: x |> y = w x + (1 + w) y with w = ((0, 1), (1, 1))
    assert q.linear_form == (2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), ((0, 1), (1, 1)),
                             ((1, 1), (1, 0)))
    for d in (torus_2n(2), torus_2n(3), torus_2n(5), apply_r1(torus_2n(3), 2, -1)):
        want = len(brute_force_colorings(d, q))
        assert count_colorings(d, q) == want == listed_count(d, q)
    assert count_colorings(chain(3), q) == listed_count(chain(3), q)
    # T(2,3) has 4^2 GF(4) colorings: its Alexander polynomial t^2 - t + 1 vanishes at w
    assert count_colorings(torus_2n(3), q) == 16


def test_conjugation_quandle_is_not_linear_and_counts_by_search():
    q = transpositions_quandle()
    assert q.linear_form is None
    for d in (torus_2n(2), torus_2n(3), unknot(2), apply_r1(torus_2n(2), 1, -1)):
        want = len(brute_force_colorings(d, q))
        assert count_colorings(d, q) == want == listed_count(d, q)
    assert count_colorings(chain(3), q) == listed_count(chain(3), q)
    # T(2,3): 6 constant colorings and 6 in each of the 4 copies of S_3's transpositions (R_3)
    assert count_colorings(torus_2n(3), q) == 30


def test_chain21_over_r4_counts_without_listing():
    assert count_colorings(chain(21), make_dihedral(4)) == 4**11


def test_long_kinked_unknot_counts():
    assert count_colorings(unknot(2000), make_dihedral(3)) == 3
    # every kink row is an equality, so the chain is one union-find set
    d = unknot(20000)
    for y in (make_dihedral(3), make_linear_biquandle(9, 1, 0, 8, 2)):
        assert count_colorings(d, y) == y.size
        assert enumerate_colorings(d, y) == [(v,) * d.semiarc_count for v in y.elements()]


def test_long_kink_chain_through_the_search():
    # the non-linear twin of test_long_kinked_unknot_counts: each kink is one
    # branch level of a plan built once, with no rescan of every crossing per level
    d = unknot(20000)
    q = transpositions_quandle()
    assert q.linear_form is None  # so the search runs
    assert count_colorings(d, q) == 6
    assert enumerate_colorings(d, q) == [(v,) * d.semiarc_count for v in q.elements()]


def test_search_depth_does_not_use_the_call_stack():
    # each kink costs one branch level, so a recursive search would need a
    # frame per kink; allow far fewer frames than kinks
    d = unknot(300)
    q = transpositions_quandle()
    assert q.linear_form is None  # so the search runs
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert count_colorings(d, q) == 6
        assert len(enumerate_colorings(d, q)) == 6
    finally:
        sys.setrecursionlimit(limit)


# -- lattice listing against the search and brute force -----------------------

# composite moduli and non-quandle linear biquandles; Z is (4, 3, 0, 1, 2)
LATTICE_ALGEBRAS = ([make_dihedral(n) for n in (1, 4, 6, 8, 12, 27)]
                    + [biquandle_z()]
                    + [make_linear_biquandle(n, a, 0, 1, a - 1) for n, a in ((8, 5), (9, 7), (12, 7))])


def test_lattice_listing_matches_search_and_brute_force():
    families = [torus_2n(2), torus_2n(3), torus_2n(4), chain(3), pretzel([3, 1, 1]),
                apply_r1(torus_2n(3), 1, -1), apply_r2(torus_2n(2), 0, 2, "antiparallel"),
                builtin_table()["4_1"].diagram, builtin_table()["5_2"].diagram]
    for y in LATTICE_ALGEBRAS:
        assert y.linear_form is not None
        for d in families:
            got = enumerate_colorings(d, y)
            assert got == searched(d, y)
            assert len(got) * y.size**d.free_loops == count_colorings(d, y)
            if y.size**d.semiarc_count <= 20000:
                assert got == brute_force_colorings(d, y)


def test_listing_over_a_large_dihedral_grows_with_the_output():
    # T(2,3) has n gcd(3, n) colorings over R_n; 3 does not divide 20000, so all
    # 20000 are constant, and listing them must cost about that, not n^2
    got = enumerate_colorings(torus_2n(3), make_dihedral(20000))
    assert got == [(x,) * 6 for x in range(1, 20001)]


def test_lattice_listing_with_free_loops_and_no_semiarcs():
    for y in (make_dihedral(1), make_dihedral(6), biquandle_z(), make_linear_biquandle(8, 5, 0, 1, 4)):
        for d in (SemiarcDiagram(0, (), 0), SemiarcDiagram(0, (), 2),
                  SemiarcDiagram(torus_2n(2).semiarc_count, torus_2n(2).crossings, 1)):
            got = enumerate_colorings(d, y)
            assert got == searched(d, y) == brute_force_colorings(d, y)
            extras = list(itertools.product(y.elements(), repeat=d.free_loops))
            assert colorings_with_loops(d, y) == sorted(c + e for c in got for e in extras)
            assert len(colorings_with_loops(d, y)) == count_colorings(d, y)
    assert enumerate_colorings(SemiarcDiagram(0, (), 1), make_dihedral(5)) == [()]
    assert enumerate_colorings(chain(3), make_dihedral(1)) == [(1,) * chain(3).semiarc_count]


def hom_quads(X):
    """The relations of enumerate_homs: one quad (x, y, x .v y, y ." x) per pair."""
    return [(x - 1, y - 1, X.under(x, y) - 1, X.over(y, x) - 1)
            for x in X.elements() for y in X.elements()]


def test_column_listing_matches_search_tuple_for_tuple():
    r4, r9, r27 = make_dihedral(4), make_dihedral(9), make_dihedral(27)
    l8, l9, l12 = (make_linear_biquandle(n, a, 0, 1, a - 1) for n, a in ((8, 5), (9, 7), (12, 7)))
    # an integer m stands for the m-element algebra itself: the listing of End(y)
    shared = [(chain(9), r4), (pretzel([3, 3, 3]), r9), (torus_2n(4), l9)]
    distinct = [(27, r27), (torus_2n(4), l8), (9, l9), (torus_2n(4), l12)]
    edge = [(chain(3), make_dihedral(1)), (SemiarcDiagram(0, (), 2), make_dihedral(5)),
            (SemiarcDiagram(0, (), 2), l8)]
    for group, cases in (("shared", shared), ("distinct", distinct), ("edge", edge)):
        for d, y in cases:
            if isinstance(d, int):
                m, quads = d, hom_quads(y)
            else:
                m, quads = d.semiarc_count + d.free_loops, _oriented(d)
            assert y.linear_form is not None
            got = list_solutions(m, quads, y)[0]
            assert got == sorted(map(tuple, _search(m, quads, y)))
            assert all(type(c) is tuple and len(c) == m for c in got)
            columns = set(zip(*got))  # equal coefficient vectors give equal columns
            if group == "shared":
                assert len(columns) < m
            elif group == "distinct":
                assert len(columns) == m


def test_byte_and_list_columns_agree_at_the_byte_boundary():
    # up to |Y| = n^r = 255 every label fits a byte and the lister's columns are bytes;
    # from 256 they are lists: both sides list what the search and brute force do
    i3, z3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 0),) * 3
    gf8 = make_module_biquandle(2, i3, z3, ((0, 0, 1), (1, 0, 1), (0, 1, 0)),  # t^3 = t + 1
                                ((1, 0, 1), (1, 1, 1), (0, 1, 1)))  # 1 - t
    gf9 = make_module_biquandle(3, ((1, 0), (0, 1)), ((0, 0), (0, 0)), ((1, 2), (1, 1)),
                                ((0, 1), (2, 0)))
    r255, r256 = make_dihedral(255), make_dihedral(256)
    t22, t23, c3 = torus_2n(2), torus_2n(3), chain(3)
    hopf_loop = SemiarcDiagram(t22.semiarc_count, t22.crossings, 1)
    cases = [(d, y) for y in (r255, r256) for d in (t23, c3, SemiarcDiagram(0, (), 1),
                                                   SemiarcDiagram(0, (), 0))]
    cases += [(d, y) for y in (gf4_alexander_quandle(), gf8, gf9) for d in (t23, c3, hopf_loop)]
    for d, y in cases:
        m, quads = d.semiarc_count + d.free_loops, _oriented(d)
        n, w = y.linear_form[0], len(y.linear_form[1])
        rows = _relation_rows(quads, y.linear_form)
        got = list_solutions(m, quads, y)
        assert got == _list_kernel(rows, m, n, w) == list_kernel_reference(rows, m, n, w)
        listing = got[0]
        assert len(listing) == count_colorings(d, y)
        assert all(type(v) is int for c in listing[:3] for v in c)
        if d is not c3 or y.size < 255:  # the search branches for seconds on chain(3) there
            assert listing == sorted(map(tuple, _search(m, quads, y)))
        if y.size**m <= 20000 and not d.free_loops:
            assert listing == brute_force_colorings(d, y)
        elif n ** (m * w) <= BRUTE_FORCE_GUARD:
            assert count_solutions_bruteforce(coloring_matrix(d, y)) == len(listing)
    assert list_solutions(0, [], r255) == list_solutions(0, [], r256) == ([()], [])
    assert colorings_with_loops(SemiarcDiagram(0, (), 1), r256) == [(x,) for x in range(1, 257)]


@pytest.mark.parametrize("n", [15, 16])
def test_hand_rows_list_on_either_side_of_the_byte_boundary(n):
    # width 2: n^2 = 225 labels fit a byte, 256 do not; brute force over (Z/n)^4
    rng = random.Random(n)
    for _ in range(3):
        rows = [{j: rng.randrange(1, n) for j in rng.sample(range(4), rng.randrange(1, 4))}
                for _ in range(rng.randrange(1, 3))]
        want = sorted((x[0] + n * x[1] + 1, x[2] + n * x[3] + 1)
                      for x in itertools.product(range(n), repeat=4)
                      if all(sum(a * x[j] for j, a in row.items()) % n == 0 for row in rows))
        got = _list_kernel(rows, 2, n, 2)
        assert got[0] == want
        assert got == list_kernel_reference(rows, 2, n, 2)
    assert _list_kernel([], 0, n, 2) == ([()], [])


# -- braid closures: an R3 oracle on whole diagrams ----------------------------


def braid_closure(strands, word):
    """The closure of a braid word of letters (i, e), sigma_i^e.

    sigma_i takes the strand at position i over the one at i + 1, sign +1,
    as in torus_2n; sigma_i^-1 is the negative crossing, the strand at
    i + 1 over. Strands no letter touches become free loops.
    """
    pos, records = list(range(strands)), []
    for i, e in word:
        left, right = pos[i - 1], pos[i]
        pos[i - 1] = strands + 2 * len(records)  # the right strand, moved left
        pos[i] = pos[i - 1] + 1  # the left strand, moved right
        records.append((1, right, left, pos[i - 1], pos[i]) if e > 0
                       else (-1, left, right, pos[i], pos[i - 1]))
    start = {end: p for p, end in enumerate(pos)}  # the closure joins each end to its start
    used = sorted({start.get(s, s) for r in records for s in r[1:]})
    label = {s: k for k, s in enumerate(used)}
    crossings = tuple(Crossing(r[0], *(label[start.get(s, s)] for s in r[1:])) for r in records)
    return SemiarcDiagram(len(used), crossings, sum(p == end for p, end in enumerate(pos)))


S1, S2, S1_INV, S2_INV = (1, 1), (2, 1), (1, -1), (2, -1)


def test_braid_closure_of_sigma1_power_is_torus_2n():
    for n in range(1, 8):
        d, t = braid_closure(2, [S1] * n), torus_2n(n)
        relabel = {}  # crossing k of the closure is crossing k of torus_2n
        for c, ct in zip(d.crossings, t.crossings):
            assert c.sign == ct.sign
            for s, st in zip(c[1:], ct[1:]):
                assert relabel.setdefault(s, st) == st
        assert sorted(relabel.values()) == list(range(t.semiarc_count)) and d.free_loops == 0
        for y in (make_dihedral(3), make_dihedral(5), make_dihedral(9), biquandle_z()):
            assert count_colorings(d, y) == count_colorings(t, y)
    assert braid_closure(3, [S1]) == SemiarcDiagram(2, (Crossing(1, 1, 0, 0, 1),), 1)
    assert braid_closure(3, []) == SemiarcDiagram(0, (), 3)


def test_braid_r3_pairs_count_alike():
    # the braid-form R3 moves: sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2, its all-negative
    # mirror and the two mixed forms; linear:3,1,1,2,0, which validate_axioms accepts but
    # whose counts change under R1 and R3 in the library's convention, is left out
    pairs = [([S1, S2, S1], [S2, S1, S2]), ([S1_INV, S2_INV, S1_INV], [S2_INV, S1_INV, S2_INV]),
             ([S1, S2, S1_INV], [S2_INV, S1, S2]), ([S1_INV, S2, S1], [S2, S1, S2_INV])]
    rng = random.Random(3)
    words = [[rng.choice((S1, S2, S1_INV, S2_INV)) for _ in range(rng.randint(0, 5))]
             for _ in range(60)]
    algebras = [make_dihedral(n) for n in (3, 4, 5, 6, 9)]
    for y in algebras + [transpositions_quandle(), biquandle_z()]:  # the search route, then Z
        for w in words:
            for left, right in pairs:
                counts = [count_colorings(braid_closure(3, w + side), y) for side in (left, right)]
                assert counts[0] == counts[1], (y, w, left)
