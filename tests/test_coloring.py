"""Tests for coloring enumeration, the linear-algebra path, and their oracles."""

import itertools
import math
import random
import sys

import pytest

from biqknot.algebra import (
    biquandle_z,
    enumerate_endos,
    from_tables,
    make_dihedral,
    make_linear_biquandle,
    parse_biquandle,
    serialize_biquandle,
)
from biqknot.coloring import (
    RelationMatrix,
    _list_kernel,
    _oriented,
    _search,
    brute_force_colorings,
    coloring_matrix,
    colorings_with_loops,
    count_colorings,
    count_solutions_bruteforce,
    count_solutions_snf,
    enumerate_colorings,
    list_solutions,
)
from biqknot.diagram import (
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
        coloring_matrix(torus_2n(3), gf4_alexander_quandle())
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
    m = RelationMatrix(((0, 0, 0),), 4, 3)
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
        m = RelationMatrix(mat, n, cols)
        assert count_solutions_snf(m) == count_solutions_bruteforce(m)


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


def test_snf_counts_on_composite_moduli():
    rng = random.Random(7)
    for n in COMPOSITE_MODULI:
        max_cols = int(math.log(5000, n))  # keeps the brute force quick
        for _ in range(25):
            cols = rng.randrange(1, max_cols + 1)
            m = RelationMatrix(random_matrix(rng, n, rng.randrange(0, 6), cols), n, cols)
            want = count_solutions_bruteforce(m)
            assert count_solutions_snf(m) == want
            assert snf_formula_count(snf_diagonal(m.rows), n, cols) == want


def test_kernel_listing_matches_brute_force_on_composite_moduli():
    rng = random.Random(13)
    for n in (1,) + COMPOSITE_MODULI:
        max_cols = max(1, int(math.log(5000, n))) if n > 1 else 3
        for _ in range(15):
            cols = rng.randrange(0, max_cols + 1)
            mat = random_matrix(rng, n, rng.randrange(0, 6), cols, nonzeros=rng.choice((None, 2, 3)))
            want = sorted(tuple(v or n for v in vec) for vec in itertools.product(range(n), repeat=cols)
                          if all(sum(a * v for a, v in zip(row, vec)) % n == 0 for row in mat))
            rows = [{j: a for j, a in enumerate(row) if a} for row in mat]
            assert _list_kernel(rows, cols, n) == want


def test_snf_counts_on_sparse_systems_match_diagonal_formula():
    # crossing-shaped rows (at most 3 nonzeros), too large for brute force
    rng = random.Random(11)
    for n in COMPOSITE_MODULI:
        for _ in range(6):
            cols = rng.randrange(5, 25)
            rows = random_matrix(rng, n, rng.randrange(cols // 2, 2 * cols), cols, nonzeros=3)
            m = RelationMatrix(rows, n, cols)
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
            m = RelationMatrix(rows, n, cols)
            assert count_solutions_snf(m) == snf_formula_count(diag, n, cols)


def test_snf_modulus_one_and_invalid():
    assert count_solutions_snf(RelationMatrix(((1, 2),), 1, 2)) == 1
    with pytest.raises(ValueError):
        count_solutions_snf(RelationMatrix(((1,),), 0, 1))


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
    for y in (make_dihedral(3), biquandle_z(), gf4_alexander_quandle(), make_dihedral(1)):
        for base in (SemiarcDiagram(0, ()), torus_2n(3), chain(3), unknot(2)):
            for loops in (1, 2):
                d = SemiarcDiagram(base.semiarc_count, base.crossings, loops)
                extras = list(itertools.product(y.elements(), repeat=loops))
                expected = sorted(c + e for c in enumerate_colorings(d, y) for e in extras)
                assert colorings_with_loops(d, y) == expected


def test_linear_form_detected_lazily_from_tables():
    for n in range(1, 13):
        rn = make_dihedral(n)
        assert "linear_form" not in vars(rn)  # building never pays for detection
        assert rn.linear_form == (n, 1 % n, 0, (n - 1) % n, 2 % n)
        untagged = parse_biquandle(serialize_biquandle(make_linear_biquandle(n, 1, 0, n - 1, 2)))
        assert untagged.linear_form == rn.linear_form
    assert biquandle_z().linear_form == (4, 3, 0, 1, 2)


def test_gf4_alexander_quandle_is_not_linear_and_counts_by_search():
    q = gf4_alexander_quandle()
    assert q.linear_form is None
    for d in (torus_2n(2), torus_2n(3), torus_2n(5), apply_r1(torus_2n(3), 2, -1)):
        want = len(brute_force_colorings(d, q))
        assert count_colorings(d, q) == want == listed_count(d, q)
    assert count_colorings(chain(3), q) == listed_count(chain(3), q)
    # T(2,3) has 4^2 GF(4) colorings: its Alexander polynomial t^2 - t + 1 vanishes at w
    assert count_colorings(torus_2n(3), q) == 16


def test_chain21_over_r4_counts_without_listing():
    assert count_colorings(chain(21), make_dihedral(4)) == 4**11


def test_long_kinked_unknot_counts():
    assert count_colorings(unknot(2000), make_dihedral(3)) == 3


def test_search_depth_does_not_use_the_call_stack():
    # each kink costs one branch level, so a recursive search would need a
    # frame per kink; allow far fewer frames than kinks
    d = unknot(300)
    q = gf4_alexander_quandle()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert count_colorings(d, q) == 4
        assert len(enumerate_colorings(d, q)) == 4
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
            got = list_solutions(m, quads, y)
            assert got == sorted(map(tuple, _search(m, quads, y)))
            assert all(type(c) is tuple and len(c) == m for c in got)
            columns = set(zip(*got))  # equal coefficient vectors give equal columns
            if group == "shared":
                assert len(columns) < m
            elif group == "distinct":
                assert len(columns) == m
