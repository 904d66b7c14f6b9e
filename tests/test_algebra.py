"""Tests for finite biquandle tables, homomorphisms, and permutation utilities."""

import collections
import itertools
import math
import random
import re

import pytest

from biqknot import algebra, coloring
from biqknot.algebra import (
    AxiomError,
    FiniteBiquandle,
    GroupOrderCapExceeded,
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

from oracles import naive_violations, transpositions_quandle

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
    assert from_tables(r3.over_table, r3.under_table).is_quandle()
    z = biquandle_z()
    assert not z.is_quandle()


def test_parse_tables_is_the_reader_of_parse_biquandle():
    text = "# R_3\n\n3\n1 1 1\n2 2 2\n3 3 3\n\n1 3 2\n3 2 1\n2 1 3\n"
    over, under = parse_tables(text)
    assert over == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
    assert under == [[1, 3, 2], [3, 2, 1], [2, 1, 3]]
    assert parse_biquandle(text) == from_tables(over, under) == make_dihedral(3)
    # rows of the wrong length are left to validate_axioms, which reports their shape
    over, under = parse_tables("2\n1 1 1\n2 2\n\n1 2\n2 1\n")
    assert validate_axioms(over, under)[0].axiom.startswith("shape:")
    for bad in ("", "# only a comment\n", "x\n", "2\n1 1\n2 2\n", "1\n1\nx\n",
                "1\n1\n1_0\n", "1\n+1\n1\n", "1\n\u0661\n1\n", "\u0661\n1\n1\n"):
        with pytest.raises(ValueError):
            parse_tables(bad)


def test_dihedral_r1_trivial():
    r1 = make_dihedral(1)
    assert r1.over_table == ((1,),)
    assert r1.under_table == ((1,),)


def test_dihedral_rejects_zero():
    with pytest.raises(ValueError):
        make_dihedral(0)
    # no int: True used to build with size True, 3.0 leaked a TypeError
    for n in (True, 3.0, "3", None):
        with pytest.raises(ValueError, match=f"^biquandle parameters must be integers, got {n!r}$"):
            make_dihedral(n)


def test_dihedral_tables_are_the_formula():
    # x ." y = x and x |> y = 2y - x mod n on the labels 1..n, written out here
    for n in range(1, 40):
        q, elems = make_dihedral(n), range(1, n + 1)
        assert q.over_table == tuple(tuple(x for _ in elems) for x in elems)
        assert q.under_table == tuple(tuple((2 * y - x - 1) % n + 1 for y in elems) for x in elems)
        assert q.linear_form == (n, ((1 % n,),), ((0,),), (((n - 1) % n,),), ((2 % n,),))
    with pytest.raises(ValueError, match="dihedral quandle needs n >= 1, got -2"):
        make_dihedral(-2)


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


def linear_tables(n, a, b, c, d, build=algebra._module_tables):  # bound before any patch
    return build(n, [((v,),) for v in (a, b, c, d)])


def test_linear_specs_are_accepted_exactly_when_their_tables_validate(monkeypatch):
    """make_linear_biquandle's coefficient identities against validate_axioms' table scan.

    The cases: every (a, b, c, d) mod n <= 5; mod 6 and 8, every one with
    a and c units (columns bijective); mod 7, a seeded 300 of those 1764.
    All 3436 column-bijective ones mod 2..8 would take about 5 s.
    """

    class Rejected(Exception):
        pass

    def rejected(n, mats):  # a rejected spec builds its tables, for the message
        raise Rejected

    rng = random.Random(7)
    units = {n: [a for a in range(n) if math.gcd(a, n) == 1] for n in (6, 7, 8)}
    cases = [(n, *v) for n in range(1, 6) for v in itertools.product(range(n), repeat=4)]
    cases += [(n, a, b, c, d) for n in (6, 8) for a in units[n] for c in units[n]
              for b in range(n) for d in range(n)]
    cases += rng.sample([(7, a, b, c, d) for a in units[7] for c in units[7]
                         for b in range(7) for d in range(7)], 300)
    monkeypatch.setattr(algebra, "_module_tables", rejected)
    accepted = {}
    for case in cases:
        try:
            accepted[case] = make_linear_biquandle(*case)
        except Rejected:
            pass
        assert (case in accepted) == (not validate_axioms(*linear_tables(*case))), case
    monkeypatch.undo()
    assert len(accepted) == 109
    for (n, *coeffs), y in accepted.items():
        plain = FiniteBiquandle(n, *linear_tables(n, *coeffs))
        assert y.linear_form == plain.linear_form == (n, *(((v,),) for v in coeffs))
        assert y == plain and hash(y) == hash(plain)


def test_a_rejected_linear_spec_names_what_validate_axioms_finds():
    for n in range(1, 6):
        for coeffs in itertools.product(range(n), repeat=4):
            tables = linear_tables(n, *coeffs)
            if not validate_axioms(*tables):
                continue
            with pytest.raises(AxiomError) as got:
                make_linear_biquandle(n, *coeffs)
            with pytest.raises(AxiomError) as want:
                from_tables(*tables)
            assert str(got.value) == str(want.value)


def test_a_rejected_spec_raises_at_the_first_violation_with_no_count():
    for n in range(1, 6):
        for coeffs in itertools.product(range(n), repeat=4):
            report = validate_axioms(*linear_tables(n, *coeffs))
            if report:
                with pytest.raises(AxiomError) as got:
                    make_linear_biquandle(n, *coeffs)
                assert str(got.value) == f"not a biquandle: {report[0]}"


def test_a_large_rejected_spec_stops_at_its_first_violation():
    # x ." y = x .v y = x + y: the sideways map S sends (1, 2) and (2, 1) alike, a
    # violation found within n^2 steps, where the full list has millions
    message = "not a biquandle: sideways map S not a bijection fails at (1, 2, 2, 1)"
    with pytest.raises(AxiomError) as got:
        make_linear_biquandle(200, 1, 1, 1, 1)
    assert str(got.value) == message
    text = serialize_biquandle(FiniteBiquandle(200, *linear_tables(200, 1, 1, 1, 1)))
    with pytest.raises(AxiomError) as got:
        parse_biquandle(text)
    assert str(got.value) == message


def test_z2_squared_modules_linear_mod_4_keep_their_r1_form():
    # 4 of the 42 module biquandles on (Z/2)^2 are linear on Z/4 too; linear_form,
    # which tries r = 1 first, names them so, not by the matrices they were built from
    i, z, u, n = IDENTITY, ZERO, ((1, 0), (1, 1)), ((0, 0), (1, 0))
    for mats, coeffs in [((i, z, i, z), (1, 0, 1, 0)), ((i, z, u, n), (1, 0, 3, 2)),
                         ((u, n, i, z), (3, 2, 1, 0)), ((u, n, u, n), (3, 2, 3, 2))]:
        y = make_module_biquandle(2, *mats)
        assert y.linear_form == make_linear_biquandle(4, *coeffs).linear_form
        assert y == make_linear_biquandle(4, *coeffs)


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


def test_from_tables_refuses_an_empty_table():
    with pytest.raises(AxiomError, match="^empty table$"):
        from_tables([], [])


def test_validate_reports_shape_error():
    r3 = make_dihedral(3)
    truncated = r3.under_table[:2]
    report = validate_axioms(r3.over_table, truncated)
    assert any(v.axiom.startswith("shape") for v in report)


@pytest.mark.parametrize("entry, shape", [
    ("١", "over table row 1: invalid literal for int() with base 10: '١'"),
    ("+1", "over table row 1: invalid literal for int() with base 10: '+1'"),
    (1.9, "over table entry 1.9 at row 1 is not an integer"),
    (1.0, "over table entry 1.0 at row 1 is not an integer"),
    (True, "over table entry True at row 1 is not an integer"),
    (None, "over table entry None at row 1 is not an integer"),
])
def test_a_table_entry_is_an_int_or_decimal_text(entry, shape):
    # int() alone would read each of these as 1
    assert validate_axioms([[entry]], [[1]]) == [(f"shape: {shape}", ())]
    with pytest.raises(AxiomError) as caught:
        from_tables([[entry]], [[1]])
    assert str(caught.value) == f"not a biquandle: shape: {shape}"


def test_text_table_entries_are_read_as_decimals():
    r3 = make_dihedral(3)
    text = [[[str(v) for v in row] for row in t] for t in (r3.over_table, r3.under_table)]
    assert validate_axioms(*text) == []
    assert from_tables(*text).under_table == r3.under_table


def mutations(over, under, rng, count):
    """count copies of (over, under), each with one to three entries changed to another label."""
    n = len(over)
    for _ in range(count):
        tables = [[list(row) for row in over], [list(row) for row in under]]
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(tables)[rng.randrange(n)]
            j = rng.randrange(n)
            row[j] = rng.choice([v for v in range(1, n + 1) if v != row[j]] or [row[j]])
        yield tables


def axiom_battery():
    """Table pairs for the triple-loop reference: valid, invalid and misshapen."""
    rng = random.Random(33)
    for _ in range(300):  # random entries, or each column a random permutation
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            yield [[[rng.randint(1, n) for _ in range(n)] for _ in range(n)] for _ in "ou"]
        else:
            columns = [[rng.sample(range(1, n + 1), n) for _ in range(n)] for _ in "ou"]
            yield [list(map(list, zip(*cols))) for cols in columns]
    for _ in range(100):  # trivial over table, under columns permutations fixing x |> x = x
        n = rng.randint(2, 5)
        under = [[0] * n for _ in range(n)]
        for y in range(n):
            rest = [v for v in range(1, n + 1) if v != y + 1]
            rng.shuffle(rest)
            for x in range(n):
                under[x][y] = y + 1 if x == y else rest.pop()
        yield [[x] * n for x in range(1, n + 1)], under
    for n in range(1, 8):
        r = make_dihedral(n)
        yield r.over_table, r.under_table
        yield from mutations(r.over_table, r.under_table, rng, 10)
        for _ in range(10 if n > 3 else 0):  # swap two off-diagonal entries of a column
            under = [list(row) for row in r.under_table]
            y, x1, x2 = rng.sample(range(n), 3)
            under[x1][y], under[x2][y] = under[x2][y], under[x1][y]
            yield r.over_table, under
    for _ in range(60):  # linear: specs, valid or not, and mutations of the valid ones
        n = rng.randint(2, 6)
        tables = linear_tables(n, *(rng.randrange(n) for _ in range(4)))
        yield tables
        if not validate_axioms(*tables):
            yield from mutations(*tables, rng, 3)
    for over, under in ((EXAMPLE4_OVER, EXAMPLE4_UNDER), (T_OVER, T_UNDER)):
        yield over, under
        yield from mutations(over, under, rng, 20)
    matrices = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(2), repeat=4)]
    quads = [(IDENTITY, ZERO, W, ONE_PLUS_W), (IDENTITY, ZERO, IDENTITY, ZERO)]
    quads += [tuple(rng.choice(matrices) for _ in range(4)) for _ in range(100)]
    for mats in quads:  # module tables on (Z/2)^2
        yield algebra._module_tables(2, mats)
    r3 = make_dihedral(3)
    o, u = [list(row) for row in r3.over_table], [list(row) for row in r3.under_table]
    yield o, u[:2]  # too few rows
    yield o, [*u[:2], u[2] + [1]]  # a row too long
    yield [[0, *o[0][1:]], *o[1:]], u  # an entry out of range
    yield o, [*u[:2], [4, 2, 1]]
    yield [["1", "3", "2"], *o[1:]], u  # text is read as decimals
    yield [[1.0, 3, 2], *o[1:]], u
    yield o, [*u[:2], [True, 2, 1]]
    yield [], []


def test_validate_axioms_matches_the_triple_loop():
    # the full list, witnesses and order, and from_tables' first message or its tables
    firsts = collections.Counter()
    for over, under in axiom_battery():
        want = naive_violations(over, under)
        assert validate_axioms(over, under) == want, (over, under)
        firsts[want[0].axiom.split()[0] if want else "valid"] += 1
        if not over:
            continue
        if want:
            with pytest.raises(AxiomError) as got:
                from_tables(over, under)
            assert str(got.value) == f"not a biquandle: {want[0]}"
        else:
            y = from_tables(over, under)
            assert y.over_table == tuple(tuple(map(int, row)) for row in over)
            assert y.under_table == tuple(tuple(map(int, row)) for row in under)
    assert firsts == {"diagonal": 427, "valid": 137, "exchange": 97, "over": 46, "under": 30,
                      "sideways": 10, "shape:": 6}


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


def test_homs_match_is_hom_filter(monkeypatch):
    gf4 = from_tables(*gf4_alexander_tables())
    assert gf4.linear_form == (2, IDENTITY, ZERO, W, ONE_PLUS_W)  # listed by elimination
    s4 = transpositions_quandle()
    assert s4.linear_form is None  # listed by the search
    # trivial quandles x |> y = x, every element a generator
    trivial = [from_tables(*[[[x] * n for x in range(1, n + 1)]] * 2) for n in (2, 3, 4)]
    algebras = [make_dihedral(1), make_dihedral(2), make_dihedral(3), make_dihedral(4),
                make_dihedral(6), biquandle_z(), gf4, s4, make_linear_biquandle(8, 5, 0, 1, 4),
                *trivial]
    for X in algebras:  # every pair, different quandles included
        for Y in algebras:
            if Y.size**X.size > 5000:
                continue
            want = [img for img in itertools.product(Y.elements(), repeat=X.size)
                    if is_hom(X, Y, img)]
            assert enumerate_homs(X, Y) == want, (X, Y)
    # between quandles only the generators' quads are solved; a non-quandle keeps them all
    real, quads = coloring.list_solutions, []
    monkeypatch.setattr(coloring, "list_solutions",
                        lambda m, oriented, Y: quads.append(len(oriented)) or real(m, oriented, Y))
    assert len(enumerate_endos(make_dihedral(27))) == 27 * 27
    assert enumerate_homs(make_dihedral(1), biquandle_z()) == [(2,), (4,)]
    r3 = make_dihedral(3)
    for X, Y in ((r3, biquandle_z()), (biquandle_z(), r3)):
        assert enumerate_homs(X, Y) == [img for img in itertools.product(Y.elements(), repeat=X.size)
                                        if is_hom(X, Y, img)]
    every_map = list(itertools.product(range(1, 5), repeat=4))
    assert enumerate_homs(trivial[2], trivial[2]) == every_map  # x |> y = x: every map is a hom
    assert quads == [54, 1, 9, 16, 16]


def test_generating_set_costs_at_most_x_times_g_reads(monkeypatch):
    # R_27 is generated by {1, 2}: 54 entries read to find them, then one per quad
    r27, reads = make_dihedral(27), []
    monkeypatch.setattr(r27, "under",
                        lambda x, y: reads.append((x, y)) or FiniteBiquandle.under(r27, x, y))
    assert len(enumerate_endos(r27)) == 27 * 27
    assert len(reads) <= 27 * 2 + 54


def test_is_hom_refuses_images_of_the_wrong_shape():
    r3 = make_dihedral(3)
    assert is_hom(r3, r3, (1, 2, 3))
    assert not is_hom(r3, r3, (1, 2))
    assert not is_hom(r3, r3, (1, 2, 3, 1))
    assert not is_hom(r3, r3, (1, 2, 4))
    assert not is_hom(r3, r3, (0, 2, 3))
    for image in ((True, 2, 3), (1.0, 2, 3), (1, 2.0, 3), ("1", 2, 3)):  # True would read as 1
        assert not is_hom(r3, r3, image)


def test_str_names_quandles_and_biquandles():
    assert str(make_dihedral(3)) == "Quandle(n=3)"
    assert str(biquandle_z()) == "FiniteBiquandle(n=4)"


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
    # parameters that are no int, for r >= 2 and for r = 1 (make_linear_biquandle):
    # 1.9 used to be read as 1, "1" and "4" around _decimal's rule
    for make, args, bad in (
            (make_module_biquandle, (2, IDENTITY, ZERO, W, ((1, 1.0), (1, 0))), 1.0),
            (make_module_biquandle, (2, IDENTITY, ZERO, W, ((True, 1), (1, 0))), True),
            (make_module_biquandle, (2.0, IDENTITY, ZERO, W, ONE_PLUS_W), 2.0),
            (make_linear_biquandle, (3, 1.9, 0, 2, 2), 1.9),
            (make_linear_biquandle, (5, "1", 0, "4", 2), "1"),
            (make_linear_biquandle, (True, 1, 0, 1, 0), True),
            (make_linear_biquandle, (4, 3, 0, 1, False), False)):
        with pytest.raises(ValueError, match=f"^biquandle parameters must be integers, got {bad!r}$"):
            make(*args)


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
        orbit |= {s4.under(x, y) for x in orbit for y in s4.elements()}
    assert orbit == set(s4.elements())  # connected
    # (1 2) conjugated by (2 3) is (1 3)
    assert s4.under(1, 4) == 2 and s4.under(2, 4) == 1
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


def test_column_permutation_takes_an_int_element_alone():
    # True used to read as column 1, and 2.0 to leak a TypeError
    r5 = make_dihedral(5)
    for y in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"^elements must be ints, got {re.escape(repr(y))}$"):
            column_permutation(r5, y)


def test_group_order_refuses_non_int_entries():
    # (1.0, 2.0, 3.0) used to sort as 1, 2, 3 and give order 1
    for g in ((1.0, 2.0, 3.0), (True, 2, 3), (2, True), ("1", "2")):
        assert not algebra.is_permutation(g)
        with pytest.raises(ValueError, match="^not a permutation of "):
            group_order([g])
    assert algebra.is_permutation((2, 3, 1)) and algebra.is_permutation(())


def test_column_permutation_refuses_a_non_quandle():
    with pytest.raises(ValueError, match="^column permutations are defined for quandles only$"):
        column_permutation(biquandle_z(), 1)


def test_group_order_identity():
    assert group_order([(1, 2, 3)]) == 1
    assert group_order([]) == 1  # no generators: the trivial group


def test_group_order_refuses_a_non_permutation():
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(1, 1, 2\)$"):
        group_order([(1, 2, 3), (1, 1, 2)])


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


def test_group_order_cap(monkeypatch):
    cycle = tuple(list(range(2, 13)) + [1])
    swap = (2, 1) + tuple(range(3, 13))
    monkeypatch.setattr(algebra, "DEFAULT_GROUP_CAP", 1000)
    with pytest.raises(GroupOrderCapExceeded, match="exceeded cap 1000"):
        group_order([cycle, swap])


def test_subquandle_closure_r9():
    r9 = make_dihedral(9)
    assert subquandle_closure(r9, {1}) == frozenset({1})
    assert subquandle_closure(r9, {1, 4}) == frozenset({1, 4, 7})
    assert subquandle_closure(r9, {1, 2}) == frozenset(range(1, 10))


def test_subquandle_closure_takes_int_elements_alone():
    # int() used to read 1.5 as element 1
    r9 = make_dihedral(9)
    for seeds in ([1.5], [True], [1, 2.0], ["1"], [1, "a"]):
        with pytest.raises(ValueError, match="^elements must be ints, got "):
            subquandle_closure(r9, seeds)


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
