"""The reference battery: every headline value this library reproduces.

Each item checks one published or derived claim at its exact expected
value and reports pass/fail. Items 1 and 9 contain sub-checks that are
expected to fail: the four-element example tables are printed with
mismatched diagonals in the source material (no reading of the encoding
fixes a diagonal), and an in-degree exponent of 3 is unattainable over
R_9 at 81 vertices (coloring sets are modules, so in-degree exponents
are kernel sizes 9, 27 or 81). Those checks are kept literal rather
than weakened; everything else passes.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .algebra import (
    AxiomViolation,
    biquandle_z,
    enumerate_endos,
    make_dihedral,
    make_linear_biquandle,
    validate_axioms,
)
from .bridge import b1_lower, min_seed_size
from .coloring import (
    RelationMatrix,
    _oriented,
    _search,
    coloring_matrix,
    count_colorings,
    count_solutions_bruteforce,
    count_solutions_snf,
    enumerate_colorings,
)
from .diagram import apply_r1, apply_r2, chain, connected_sum, pretzel, torus_2n, unknot
from .enhance import column_group_polynomial
from .knots import builtin_table
from .polynomial import ExponentPolynomial
from .quiver import build_quiver, in_degree_polynomial, quivers_isomorphic

# tables printed in the source material (see tests for the defect analysis)
EXAMPLE4_OVER = ((2, 3, 1, 4), (3, 2, 4, 1), (4, 1, 3, 2), (1, 4, 2, 3))
EXAMPLE4_UNDER = ((3, 1, 2, 4), (4, 2, 1, 3), (2, 4, 3, 1), (1, 3, 4, 2))
T_OVER = ((1, 3, 4, 2), (3, 1, 2, 4), (2, 4, 3, 1), (4, 2, 1, 3))
T_UNDER = ((1, 4, 2, 3), (2, 3, 1, 4), (4, 1, 3, 2), (3, 2, 4, 1))

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


@dataclass(frozen=True)
class ReproItem:
    claim: str
    provenance: str  # "published" | "derived" | "definition"
    expected: str
    computed: str
    passed: bool
    seconds: float


def _times(a, n):
    """x -> a x on R_n, 1-based labels."""
    return tuple((a * x - 1) % n + 1 for x in range(1, n + 1))


def _iterated_sum(d, copies):
    acc = d
    for _ in range(copies - 1):
        acc, _ = connected_sum(acc, 0, d, 0)
    return acc


def item_01_algebra_validation():
    fails = []
    for n in range(1, 13):
        q = make_dihedral(n)
        if validate_axioms(q.over_table, q.under_table):
            fails.append(f"R_{n}")
    z = biquandle_z()
    if validate_axioms(z.over_table, z.under_table):
        fails.append("Z")
    if validate_axioms(EXAMPLE4_OVER, EXAMPLE4_UNDER):
        fails.append("4-element example table")
    if validate_axioms(T_OVER, T_UNDER):
        fails.append("biquandle T")
    rng = random.Random(20240917)
    rejected = 0
    for _ in range(50):
        under = [list(row) for row in T_UNDER]
        i, j = rng.randrange(4), rng.randrange(4)
        old = under[i][j]
        under[i][j] = rng.choice([v for v in range(1, 5) if v != old])
        report = validate_axioms(T_OVER, under)
        if report and isinstance(report[0], AxiomViolation):
            rejected += 1
    expected = "R_1..R_12, Z, 4-element example, T all valid; 50/50 mutations rejected"
    computed = (f"invalid: {', '.join(fails) if fails else 'none'}; "
                f"{rejected}/50 mutations rejected")
    return expected, computed, not fails and rejected == 50


def item_02_torus_z_colorings():
    z = biquandle_z()
    counts = {k: count_colorings(torus_2n(4 * k), z) for k in (1, 2, 3, 4)}
    cols = enumerate_colorings(torus_2n(4), z)
    # semiarc k of torus_2n(4) is coordinate (1 - k) mod 8 of the reference tuples
    relabeled = set()
    for c in cols:
        ref = [0] * 8
        for k, label in enumerate(c):
            ref[(1 - k) % 8] = label % 4
        relabeled.add(tuple(ref))
    list_ok = relabeled == T24_Z_COLORINGS
    expected = "Col_Z(T(2,4k)) = 16 for k=1..4; k=1 list matches the published 16 tuples"
    computed = f"counts {sorted(counts.values())}; list match {list_ok}"
    return expected, computed, all(v == 16 for v in counts.values()) and list_ok


def item_03_snf_path():
    z = biquandle_z()
    t24 = count_solutions_snf(coloring_matrix(torus_2n(4), z))
    family_ok = True

    def listed(d, y):  # the search route, independent of the elimination
        return sum(1 for _ in _search(d.semiarc_count, _oriented(d), y)) * y.size**d.free_loops

    for n in (3, 4, 9):
        rn = make_linear_biquandle(n, 1, 0, n - 1, 2)
        for d in (torus_2n(3), torus_2n(4), chain(3), pretzel([3, 1, 1])):
            if count_solutions_snf(coloring_matrix(d, rn)) != listed(d, rn):
                family_ok = False
    for d in (torus_2n(4), torus_2n(8), apply_r2(torus_2n(4), 0, 5)):
        if count_solutions_snf(coloring_matrix(d, z)) != listed(d, z):
            family_ok = False
    rng = random.Random(1729)
    random_ok = 0
    for _ in range(200):
        n = rng.choice((4, 9))
        cols = rng.randrange(1, 5 if n == 9 else 7)
        rows = rng.randrange(1, 7)
        mat = tuple({j: v for j in range(cols) if (v := rng.randrange(n))} for _ in range(rows))
        m = RelationMatrix(mat, n, cols)
        if count_solutions_snf(m) == count_solutions_bruteforce(m):
            random_ok += 1
    expected = "T(2,4)/Z matrix count 16; = enumeration on linear families; 200/200 random matrices match brute force"
    computed = f"T(2,4): {t24}; families {'ok' if family_ok else 'MISMATCH'}; {random_ok}/200 random"
    return expected, computed, t24 == 16 and family_ok and random_ok == 200


def item_04_chain_counts():
    r4 = make_dihedral(4)
    got = {b: count_colorings(chain(2 * b - 1), r4) for b in (2, 3, 4)}
    expected = "Col_{R_4}(chain(2b-1)) = 4^b for b = 2, 3, 4"
    computed = ", ".join(f"b={b}: {v}" for b, v in got.items())
    return expected, computed, all(got[b] == 4**b for b in got)


def item_05_quiver_separation_a():
    r4 = make_dihedral(4)
    phi = _times(2, 4)
    ok = True
    parts = []
    for b in (2, 3):
        qa = build_quiver(_iterated_sum(torus_2n(4), b - 1), r4, [phi])
        qb = build_quiver(chain(2 * b - 1), r4, [phi])
        pa, pb = in_degree_polynomial(qa), in_degree_polynomial(qb)
        want_a = ExponentPolynomial({0: 4**b - 2**b, 2**b: 2**b})
        want_b = ExponentPolynomial({0: 4**b - 2, 2 ** (2 * b - 1): 2})
        iso = quivers_isomorphic(qa, qb)
        ok &= pa == want_a and pb == want_b and not iso
        parts.append(f"b={b}: sums {pa}; chain {pb}; iso {iso}")
    expected = ("sums: (4^b-2^b) + 2^b u^(2^b); chains: (4^b-2) + 2 u^(2^(2b-1)); not isomorphic")
    return expected, "; ".join(parts), ok


def item_06_pretzel_and_granny_counts():
    r9 = make_dihedral(9)
    a = count_colorings(pretzel([9, 2, 9]), r9)
    b = count_colorings(_iterated_sum(torus_2n(3), 2), r9)
    expected = "Col_{R_9}(P(9,2,9)) = 81 and Col_{R_9}(T(2,3)#T(2,3)) = 81"
    return expected, f"P(9,2,9): {a}; granny: {b}", a == 81 and b == 81


def item_07_quiver_separation_b():
    r9 = make_dihedral(9)
    phi = _times(3, 9)
    granny = build_quiver(_iterated_sum(torus_2n(3), 2), r9, [phi])
    pg = in_degree_polynomial(granny)
    ok = pg == ExponentPolynomial({0: 78, 27: 3})
    parts = [f"granny {pg}"]
    for r in (1, 2):
        qp = build_quiver(pretzel([9, 2 * r, 9]), r9, [phi])
        pp = in_degree_polynomial(qp)
        iso = quivers_isomorphic(qp, granny)
        ok &= pp == ExponentPolynomial({0: 72, 9: 9}) and not iso
        parts.append(f"P(9,{2*r},9) {pp}; iso {iso}")
    expected = "pretzels: 72 + 9u^9; granny: 78 + 3u^27; not isomorphic (r = 1, 2)"
    return expected, "; ".join(parts), ok


def item_08_determinant_battery():
    bad = []
    for p in (3, 5, 7):
        d = torus_2n(p)
        for n in range(3, 13):
            got = count_colorings(d, make_dihedral(n))
            if got != n * math.gcd(p, n):
                bad.append((p, n, got))
    expected = "Col_{R_n}(T(2,p)) = n*gcd(p,n) for p in {3,5,7}, n in 3..12"
    return expected, f"mismatches: {bad if bad else 'none'}", not bad


def item_09_enhancement_and_u3():
    r9 = make_dihedral(9)
    table = builtin_table()
    want = ExponentPolynomial({18: 54, 6: 18, 2: 9})
    p61 = column_group_polynomial(table["6_1"].diagram, r9)
    p924 = column_group_polynomial(table["9_24"].diagram, r9)
    phi = _times(3, 9)
    q61 = in_degree_polynomial(build_quiver(table["6_1"].diagram, r9, [phi]))
    q924 = in_degree_polynomial(build_quiver(table["9_24"].diagram, r9, [phi]))
    ok = (p61 == want and p924 == want and q61.coefficient(3) == 0
          and q924.coefficient(3) > 0)
    expected = ("column polynomials both 54u^18 + 18u^6 + 9u^2; "
                "in-degree u^3 coefficient zero for 6_1, positive for 9_24")
    computed = (f"6_1 {p61}; 9_24 {p924}; in-degree 6_1 {q61} (u^3 {q61.coefficient(3)}); "
                f"9_24 {q924} (u^3 {q924.coefficient(3)})")
    return expected, computed, ok


def item_10_taniguchi_spot_check():
    r6 = make_dihedral(6)
    endos = enumerate_endos(r6)
    table = builtin_table()
    by_count: dict[int, list] = {}
    for name, rec in table.items():
        by_count.setdefault(count_colorings(rec.diagram, r6), []).append(name)
    checked, ok = 0, True
    for count, names in sorted(by_count.items()):
        quivs = {n: build_quiver(table[n].diagram, r6, endos) for n in names}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                checked += 1
                if not quivers_isomorphic(quivs[a], quivs[b]):
                    ok = False
    expected = "equal Col_{R_6} implies isomorphic quivers over S = End(R_6) (squarefree modulus)"
    return expected, f"{checked} pairs checked, all isomorphic: {ok}", ok and checked > 0


def item_11_bridge_machinery():
    found = min_seed_size(torus_2n(3))
    r3 = make_dihedral(3)
    lower = b1_lower([(r3, count_colorings(torus_2n(3), r3))])
    kink = min_seed_size(unknot(1))
    ok = found is not None and found[0] == 2 and lower == 2 and kink == (1, (0,))
    expected = "min seeds: trefoil 2 (= counting bound), 1-kink unknot 1"
    computed = f"trefoil {found}, bound {lower}; kink {kink}"
    return expected, computed, ok


def item_12_move_invariance():
    rng = random.Random(20250810)
    targets = [("R_3", make_dihedral(3), _times(2, 3)),
               ("R_4", make_dihedral(4), _times(2, 4)),
               ("R_9", make_dihedral(9), _times(3, 9)),
               ("Z", biquandle_z(), None)]
    z_endos = enumerate_endos(biquandle_z())
    families = [torus_2n(3), torus_2n(4), chain(3), chain(5),
                pretzel([3, 3, 3]), pretzel([2, 1, 1]), pretzel([3, 1, 1])]
    failures = 0
    for trial in range(30):
        d = rng.choice(families)
        if rng.random() < 0.5:
            moved = apply_r1(d, rng.randrange(d.semiarc_count), rng.choice((1, -1)))
        else:
            a, b = rng.sample(range(d.semiarc_count), 2)
            moved = apply_r2(d, a, b, rng.choice(("parallel", "antiparallel")))
        for name, y, phi in targets:
            if count_colorings(d, y) != count_colorings(moved, y):
                failures += 1
                continue
            s = [phi] if phi is not None else z_endos
            before = in_degree_polynomial(build_quiver(d, y, s))
            after = in_degree_polynomial(build_quiver(moved, y, s))
            if before != after:
                failures += 1
                continue
            if y.is_quandle():
                if column_group_polynomial(d, y) != column_group_polynomial(moved, y):
                    failures += 1
    expected = "30 randomized move applications leave counts, in-degree and column polynomials unchanged"
    return expected, f"failures: {failures}", failures == 0


ITEMS = [
    ("01-algebra-validation", "published", item_01_algebra_validation),
    ("02-torus-z-16", "published", item_02_torus_z_colorings),
    ("03-snf-path", "published/derived", item_03_snf_path),
    ("04-chain-counts", "published", item_04_chain_counts),
    ("05-quiver-separation-a", "published", item_05_quiver_separation_a),
    ("06-pretzel-granny-counts", "published", item_06_pretzel_and_granny_counts),
    ("07-quiver-separation-b", "published", item_07_quiver_separation_b),
    ("08-determinant-battery", "published", item_08_determinant_battery),
    ("09-column-enhancement", "published", item_09_enhancement_and_u3),
    ("10-taniguchi-spot-check", "published", item_10_taniguchi_spot_check),
    ("11-bridge-machinery", "derived", item_11_bridge_machinery),
    ("12-move-invariance", "derived", item_12_move_invariance),
]

# sub-checks that cannot pass as stated; see the test suite for the analysis
KNOWN_DEFECTS = {
    "01-algebra-validation": "the printed 4-element tables violate the diagonal axiom",
    "09-column-enhancement": "u^3 in-degree terms are unattainable over R_9 at 81 vertices",
}


def run_items(names=None) -> list[ReproItem]:
    selected = [(claim, prov, fn) for claim, prov, fn in ITEMS
                if names is None or claim in names]
    if names is not None:
        missing = set(names) - {c for c, _, _ in selected}
        if missing:
            raise KeyError(f"unknown repro items: {sorted(missing)}")
    results = []
    for claim, prov, fn in selected:
        start = time.perf_counter()
        expected, computed, passed = fn()
        results.append(ReproItem(claim, prov, expected, computed, passed,
                                 time.perf_counter() - start))
    return sorted(results, key=lambda r: r.claim)
