"""Tests for finite biquandle tables, homomorphisms, and permutation utilities."""

import itertools
import math
import random

import pytest

from biqknot.algebra import (
    AxiomError,
    FiniteBiquandle,
    GroupOrderCapExceeded,
    Quandle,
    biquandle_z,
    column_permutation,
    enumerate_endos,
    enumerate_homs,
    from_tables,
    group_order,
    is_hom,
    make_conjugation_quandle,
    make_dihedral,
    make_linear_biquandle,
    make_module_biquandle,
    parse_biquandle,
    parse_tables,
    serialize_biquandle,
    subquandle_closure,
    validate_axioms,
)

# Four-element tables printed in the literature this library reproduces.
# As printed they fail the diagonal axiom (see tests below); kept here
# verbatim so the failure stays pinned down.
EXAMPLE4_OVER = ((2, 3, 1, 4), (3, 2, 4, 1), (4, 1, 3, 2), (1, 4, 2, 3))
EXAMPLE4_UNDER = ((3, 1, 2, 4), (4, 2, 1, 3), (2, 4, 3, 1), (1, 3, 4, 2))
T_OVER = ((1, 3, 4, 2), (3, 1, 2, 4), (2, 4, 3, 1), (4, 2, 1, 3))
T_UNDER = ((1, 4, 2, 3), (2, 3, 1, 4), (4, 1, 3, 2), (3, 2, 4, 1))


def test_dihedral_r3_rows():
    r3 = make_dihedral(3)
    assert r3.under_table == ((1, 3, 2), (3, 2, 1), (2, 1, 3))
    assert r3.is_quandle()


def test_is_quandle_scans_once_and_types_from_tables():
    r3 = make_dihedral(3)
    plain = FiniteBiquandle(3, r3.over_table, r3.under_table)
    assert column_permutation(plain, 2) == (3, 2, 1)
    assert subquandle_closure(plain, {1, 2}) == frozenset({1, 2, 3})
    assert vars(plain)["_is_quandle"] is True  # cached by the first call
    assert isinstance(from_tables(r3.over_table, r3.under_table), Quandle)
    z = biquandle_z()
    assert not z.is_quandle() and not isinstance(z, Quandle)


def test_parse_tables_is_the_reader_of_parse_biquandle():
    text = "# R_3\n\n3\n1 1 1\n2 2 2\n3 3 3\n\n1 3 2\n3 2 1\n2 1 3\n"
    over, under = parse_tables(text)
    assert over == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
    assert under == [[1, 3, 2], [3, 2, 1], [2, 1, 3]]
    assert parse_biquandle(text) == from_tables(over, under) == make_dihedral(3)
    # rows of the wrong length are left to validate_axioms, which reports their shape
    over, under = parse_tables("2\n1 1 1\n2 2\n\n1 2\n2 1\n")
    assert validate_axioms(over, under)[0].axiom.startswith("shape:")
    for bad in ("", "# only a comment\n", "x\n", "2\n1 1\n2 2\n", "1\n1\nx\n"):
        with pytest.raises(ValueError):
            parse_tables(bad)


def test_dihedral_r1_trivial():
    r1 = make_dihedral(1)
    assert r1.over_table == ((1,),)
    assert r1.under_table == ((1,),)


def test_dihedral_rejects_zero():
    with pytest.raises(ValueError):
        make_dihedral(0)


def test_dihedral_columns_are_involutions():
    for n in (2, 5, 9, 12):
        q = make_dihedral(n)
        for y in q.elements():
            col = column_permutation(q, y)
            assert tuple(col[x - 1] for x in col) == tuple(q.elements())


def test_dihedral_validates_up_to_12():
    for n in range(1, 13):
        q = make_dihedral(n)
        assert validate_axioms(q.over_table, q.under_table) == []


def test_linear_biquandle_z_is_valid():
    z = biquandle_z()
    assert z.size == 4
    assert z.linear_form == (4, ((3,),), ((0,),), ((1,),), ((2,),))
    assert validate_axioms(z.over_table, z.under_table) == []
    # x ." y = 3x, x .v y = x + 2y on labels 1..4 (4 standing for 0)
    assert z.over(1, 1) == 3
    assert z.under(1, 1) == 3
    assert z.under(4, 4) == 4


def test_linear_trivial_biquandle_any_modulus():
    for n in (1, 2, 5, 8):
        b = make_linear_biquandle(n, 1, 0, 1, 0)
        assert b.is_quandle()
        assert all(b.under(x, y) == x for x in b.elements() for y in b.elements())


def test_linear_rejects_noninvertible_over():
    with pytest.raises(AxiomError):
        make_linear_biquandle(4, 2, 0, 1, 2)
    # the report includes the non-bijective column x -> 2x among the violations
    over = [[(2 * x - 1) % 4 + 1 for _ in range(1, 5)] for x in range(1, 5)]
    under = [[(x + 2 * y - 1) % 4 + 1 for y in range(1, 5)] for x in range(1, 5)]
    assert any("bijection" in v.axiom for v in validate_axioms(over, under))


def test_printed_four_element_tables_fail_diagonal():
    # Both printed tables have mismatched diagonals (x."x vs x.vx), a
    # convention-independent defect: transposing or swapping the tables
    # never moves diagonal cells. The validator must say so.
    for over, under in ((EXAMPLE4_OVER, EXAMPLE4_UNDER), (T_OVER, T_UNDER)):
        report = validate_axioms(over, under)
        assert any("diagonal" in v.axiom for v in report)
        with pytest.raises(AxiomError):
            from_tables(over, under)


def test_mutations_of_t_rejected_with_witness():
    rng = random.Random(20240917)
    n = 4
    for _ in range(50):
        under = [list(row) for row in T_UNDER]
        i, j = rng.randrange(n), rng.randrange(n)
        old = under[i][j]
        under[i][j] = rng.choice([v for v in range(1, n + 1) if v != old])
        report = validate_axioms(T_OVER, under)
        assert report, "mutated table unexpectedly valid"
        assert all(v.witness is not None for v in report)


def test_random_mutations_of_valid_quandles_rejected():
    rng = random.Random(7)
    for n in (3, 4, 9):
        q = make_dihedral(n)
        for _ in range(20):
            under = [list(row) for row in q.under_table]
            i, j = rng.randrange(n), rng.randrange(n)
            old = under[i][j]
            under[i][j] = rng.choice([v for v in range(1, n + 1) if v != old])
            report = validate_axioms(q.over_table, under)
            assert report
            assert report[0].witness is not None


def test_validate_reports_shape_error():
    r3 = make_dihedral(3)
    truncated = r3.under_table[:2]
    report = validate_axioms(r3.over_table, truncated)
    assert any(v.axiom.startswith("shape") for v in report)


def test_homs_r3_match_brute_force():
    r3 = make_dihedral(3)
    expected = [img for img in itertools.product(range(1, 4), repeat=3)
                if is_hom(r3, r3, img)]
    got = enumerate_homs(r3, r3)
    assert got == sorted(expected)
    # endomorphisms of a prime dihedral quandle are exactly x -> ax + b
    affine = {tuple((a * x + b - 1) % 3 + 1 for x in range(1, 4))
              for a in range(3) for b in range(3)}
    assert set(got) == affine


def test_homs_from_one_element_biquandle():
    one = make_dihedral(1)
    # into a quandle: every element is a valid constant image
    assert enumerate_homs(one, make_dihedral(3)) == [(1,), (2,), (3,)]
    # into a general biquandle only the diagonal-fixed elements qualify:
    # the image v must satisfy v ." v = v, which for Z means 3v = v mod 4
    assert enumerate_homs(one, biquandle_z()) == [(2,), (4,)]


def gf4_alexander_tables():
    """x |> y = w x + (1 + w) y over GF(4) (bits), labels element + 1; not linear mod 4."""

    def times_w(x):  # w (a + b w) = b + (a + b) w, since w^2 = w + 1
        return (x >> 1) | (((x & 1) ^ (x >> 1)) << 1)

    under = [[(times_w(x) ^ y ^ times_w(y)) + 1 for y in range(4)] for x in range(4)]
    return [[x + 1] * 4 for x in range(4)], under


# multiplication by w and by 1 + w on GF(4) = (Z/2)^2, as rows
W, ONE_PLUS_W, IDENTITY, ZERO = ((0, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 0), (0, 1)), ((0, 0), (0, 0))


def transpositions_quandle():
    """The 6 transpositions of S_4 under conjugation: connected, order 6, so not linear."""
    swaps = []
    for i, j in itertools.combinations(range(4), 2):
        p = list(range(1, 5))
        p[i], p[j] = p[j], p[i]
        swaps.append(tuple(p))
    return make_conjugation_quandle(swaps)


def test_homs_match_is_hom_filter():
    gf4 = from_tables(*gf4_alexander_tables())
    assert gf4.linear_form == (2, IDENTITY, ZERO, W, ONE_PLUS_W)  # listed by elimination
    s4 = transpositions_quandle()
    assert s4.linear_form is None  # listed by the search
    algebras = [make_dihedral(1), make_dihedral(2), make_dihedral(3), make_dihedral(4),
                make_dihedral(6), biquandle_z(), gf4, s4, make_linear_biquandle(8, 5, 0, 1, 4)]
    for X in algebras:
        for Y in algebras:
            if Y.size**X.size > 5000:
                continue
            want = [img for img in itertools.product(Y.elements(), repeat=X.size)
                    if is_hom(X, Y, img)]
            assert enumerate_homs(X, Y) == want, (X, Y)


def test_module_biquandle_builds_the_tables_its_linear_form_reads():
    gf4 = make_module_biquandle(2, IDENTITY, ZERO, W, ONE_PLUS_W)
    assert "linear_form" not in vars(gf4)  # building never pays for detection
    assert gf4 == from_tables(*gf4_alexander_tables())  # label 1 + v_0 + 2 v_1
    assert gf4.is_quandle() and gf4.linear_form == (2, IDENTITY, ZERO, W, ONE_PLUS_W)
    # a non-quandle: x ." y = i x and x .v y = -x + (1 + i) y over GF(9) = (Z/3)^2, i^2 = -1
    i, minus_one, one_plus_i = ((0, 2), (1, 0)), ((2, 0), (0, 2)), ((1, 2), (1, 1))
    y = make_module_biquandle(3, i, ZERO, minus_one, one_plus_i)
    assert y.size == 9 and not y.is_quandle()
    assert y.over(1 + 1, 1) == 1 + 3  # i e_0 = e_1
    assert y.linear_form == (3, i, ZERO, minus_one, one_plus_i)
    # r = 1 is make_linear_biquandle, labels and linear_form alike
    z = make_module_biquandle(4, [[3]], [[0]], [[1]], [[2]])
    assert z == biquandle_z() and z.linear_form == (4, ((3,),), ((0,),), ((1,),), ((2,),))


def test_module_biquandle_rejects_bad_input():
    with pytest.raises(ValueError):
        make_module_biquandle(0, IDENTITY, ZERO, W, ONE_PLUS_W)
    with pytest.raises(ValueError):
        make_module_biquandle(2, IDENTITY, ZERO, W, ((1, 1),))
    with pytest.raises(ValueError):
        make_module_biquandle(2, [], [], [], [])
    with pytest.raises(AxiomError):  # x ." y = 0 is no bijection
        make_module_biquandle(2, ZERO, ZERO, W, ONE_PLUS_W)


def test_linear_form_checks_every_entry_of_both_tables():
    # unvalidated copies, so no constructor vouches for the tables
    gf4 = (2, IDENTITY, ZERO, W, ONE_PLUS_W)
    gf9 = (3, IDENTITY, ZERO, ((1, 2), (1, 1)), ((0, 1), (2, 0)))  # x |> y = tx + (1 - t)y
    cases = [  # (algebra, its form, the labels of the zero and unit vectors)
        (make_dihedral(5), (5, ((1,),), ((0,),), ((4,),), ((2,),)), {5, 1}),
        (biquandle_z(), (4, ((3,),), ((0,),), ((1,),), ((2,),)), {4, 1}),
        (make_module_biquandle(*gf4), gf4, {1, 2, 3}),
        (make_module_biquandle(*gf9), gf9, {1, 2, 4}),
    ]
    for y, form, read in cases:
        n = y.size
        assert FiniteBiquandle(n, y.over_table, y.under_table).linear_form == form
        # the matrices are read off rows and columns `read`; every other entry is only checked
        untouched = [(x, z) for x in range(n) for z in range(n) if {x + 1, z + 1}.isdisjoint(read)]
        assert untouched
        for x, z in untouched:
            for which in (0, 1):
                tables = [[list(row) for row in y.over_table], [list(row) for row in y.under_table]]
                tables[which][x][z] = tables[which][x][z] % n + 1
                over, under = (tuple(map(tuple, tab)) for tab in tables)
                assert FiniteBiquandle(n, over, under).linear_form is None, (form, which, x, z)


def test_conjugation_quandle():
    s4 = transpositions_quandle()
    assert s4.size == 6 and s4.is_quandle() and s4.linear_form is None
    orbit = {1}
    for _ in range(s4.size):
        orbit |= {s4.op(x, y) for x in orbit for y in s4.elements()}
    assert orbit == set(s4.elements())  # connected
    # (1 2) conjugated by (2 3) is (1 3)
    assert s4.op(1, 4) == 2 and s4.op(2, 4) == 1
    # the transpositions of S_3 are R_3 under any labelling: the third one when they differ
    s3 = make_conjugation_quandle([(2, 1, 3), (3, 2, 1), (1, 3, 2)])
    assert s3 == make_dihedral(3) and s3.linear_form == (3, ((1,),), ((0,),), ((2,),), ((2,),))
    for bad in ([], [(1, 1)], [(2, 1), (2, 1, 3)], [(2, 1, 3), (2, 1, 3)],
                [(2, 1, 3), (1, 3, 2)]):  # the last misses (1 3)
        with pytest.raises(ValueError):
            make_conjugation_quandle(bad)


def test_dihedral_endomorphism_count():
    # End(R_n) is the n^2 affine maps x -> ax + b
    for n in range(1, 28):
        affine = {tuple((a * x + b - 1) % n + 1 for x in range(1, n + 1))
                  for a in range(n) for b in range(n)}
        assert enumerate_endos(make_dihedral(n)) == sorted(affine)
        assert len(affine) == n * n


def test_endos_closed_under_composition():
    rng = random.Random(11)
    for target in (make_dihedral(4), biquandle_z(), make_dihedral(6)):
        endos = set(enumerate_endos(target))
        pool = sorted(endos)
        for _ in range(30):
            f = rng.choice(pool)
            g = rng.choice(pool)
            fg = tuple(f[g[i] - 1] for i in range(target.size))
            assert fg in endos


def test_endo_count_dihedral_is_affine_count():
    # every endomorphism of R_n is affine, so there are n^2 of them
    for n in (3, 4, 6, 9):
        assert len(enumerate_endos(make_dihedral(n))) == n * n


def test_column_permutation_r3():
    r3 = make_dihedral(3)
    assert column_permutation(r3, 1) == (1, 3, 2)


def test_column_permutation_r9_reflection():
    r9 = make_dihedral(9)
    col = column_permutation(r9, 1)
    assert col == tuple((2 - x - 1) % 9 + 1 for x in range(1, 10))
    assert tuple(col[x - 1] for x in col) == tuple(range(1, 10))


def test_column_permutation_out_of_range():
    with pytest.raises(ValueError):
        column_permutation(make_dihedral(3), 4)


def test_group_order_identity():
    assert group_order([(1, 2, 3)]) == 1


def test_group_order_r9_columns():
    r9 = make_dihedral(9)
    cols = {y: column_permutation(r9, y) for y in r9.elements()}
    assert group_order([cols[1], cols[4], cols[7]]) == 6
    assert group_order(list(cols.values())) == 18


def test_group_order_single_matches_cycle_lcm():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 10)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        perm = tuple(perm)
        seen = set()
        lcm = 1
        for start in range(1, n + 1):
            if start in seen:
                continue
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = perm[x - 1]
                length += 1
            lcm = math.lcm(lcm, length)
        assert group_order([perm]) == lcm


def test_group_order_cap():
    cycle = tuple(list(range(2, 13)) + [1])
    swap = (2, 1) + tuple(range(3, 13))
    with pytest.raises(GroupOrderCapExceeded):
        group_order([cycle, swap], cap=1000)


def test_subquandle_closure_r9():
    r9 = make_dihedral(9)
    assert subquandle_closure(r9, {1}) == frozenset({1})
    assert subquandle_closure(r9, {1, 4}) == frozenset({1, 4, 7})
    assert subquandle_closure(r9, {1, 2}) == frozenset(range(1, 10))


def test_subquandle_closure_matches_naive_fixpoint():
    # oracle: iterate the raw product closure until stable
    rng = random.Random(13)
    quandles = [make_dihedral(n) for n in (4, 6, 9)]
    quandles += [make_conjugation_quandle(itertools.permutations(range(1, 5))),  # S_4
                 transpositions_quandle(),
                 make_module_biquandle(2, IDENTITY, ZERO, W, ONE_PLUS_W),  # GF(4)
                 # GF(9): x |> y = tx + (1 - t)y, t = 1 + i and 1 - t = -i, i^2 = -1
                 make_module_biquandle(3, IDENTITY, ZERO, ((1, 2), (1, 1)), ((0, 1), (2, 0))),
                 make_linear_biquandle(8, 1, 0, 3, 6),  # x |> y = 3x + 6y mod 8
                 make_linear_biquandle(12, 1, 0, 5, 8)]  # x |> y = 5x + 8y mod 12
    for q in quandles:
        assert q.is_quandle()
        n = q.size
        seeds = [set(c) for k in (1, 2) for c in itertools.combinations(q.elements(), k)]
        seeds += [set(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))) for _ in range(10)]
        for seed in seeds:
            naive = set(seed)
            while True:
                new = {q.under(a, b) for a in naive for b in naive} - naive
                if not new:
                    break
                naive |= new
            assert subquandle_closure(q, seed) == frozenset(naive)


def test_subquandle_closure_idempotent_monotone():
    r9 = make_dihedral(9)
    small = subquandle_closure(r9, {1, 4})
    assert subquandle_closure(r9, small) == small
    assert small <= subquandle_closure(r9, {1, 4, 2})


def test_subquandle_closure_empty_rejected():
    with pytest.raises(ValueError):
        subquandle_closure(make_dihedral(3), set())


def test_subquandle_closure_validates_its_input():
    with pytest.raises(ValueError, match="out of range"):
        subquandle_closure(make_dihedral(3), {4})
    with pytest.raises(ValueError, match="quandles only"):
        subquandle_closure(biquandle_z(), {1})


def test_biquandle_text_round_trip():
    for b in (make_dihedral(5), biquandle_z()):
        text = serialize_biquandle(b)
        back = parse_biquandle(text)
        assert back.over_table == b.over_table
        assert back.under_table == b.under_table
