"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import biqknot as bq  # noqa: E402
import biqknot.repro  # noqa: E402,F401

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402


def _inputs(workload):
    algebras = {k: gen.build_algebra(bq, s) for k, s in gen.algebra_specs(workload).items()}
    return bq.builtin_table(), algebras


@pytest.mark.parametrize("workload", ["count", "invariants", "repro-cli"])
def test_generator_is_deterministic_per_seed(workload):
    knots, algebras = _inputs(workload)
    a = gen.ops_for(workload, 7, 0, bq, knots, algebras)
    assert a == gen.ops_for(workload, 7, 0, bq, knots, algebras)
    b = gen.ops_for(workload, 8, 0, bq, knots, algebras)
    assert a != b
    # the seed and pass change how inputs are written, never which slots a pass has
    c = gen.ops_for(workload, 7, 1, bq, knots, algebras)
    assert [op.name for op in a] == [op.name for op in c]
    assert sorted(op.name for op in a) == sorted(op.name for op in b)
    # enough ops for a p90 with at least 10 samples beyond it
    assert len(a) >= 100


def test_verifier_rejects_a_wrong_count():
    knots, algebras = _inputs("count")
    ctx = ops.Context(bq, algebras, BENCH, sys.executable, {})
    op = next(op for op in gen.ops_for("count", 1, 0, bq, knots, algebras) if op.name == "torus12.Z")
    right = ops.run_count(ctx, *op.args)
    assert right == 16 and ops.check_equal(ctx, op, right) is None
    assert ops.check_equal(ctx, op, right + 1) is not None

    listing = next(op for op in gen.ops_for("invariants", 1, 0, bq, knots, _inputs("invariants")[1])
                   if op.name == "list.torus4.Z")
    cols = bq.enumerate_colorings(bq.parse_pd(listing.args[0]), algebras["Z"])
    Z = algebras["Z"]
    assert verify.check_listing(cols, listing.args[0], Z.over_table, Z.under_table, 16) is None
    assert verify.check_listing(cols[:-1], listing.args[0], Z.over_table, Z.under_table, 16) is not None
    broken = cols[:-1] + [tuple(v % 4 + 1 for v in cols[-1][:1]) + cols[-1][1:]]
    assert verify.check_listing(sorted(broken), listing.args[0], Z.over_table, Z.under_table, 16) is not None


def test_closed_forms_agree_with_the_library():
    rng = __import__("random").Random(3)
    for p, n in [(3, 3), (4, 4), (6, 9), (7, 5), (10, 6)]:
        assert verify.torus_count(p, n) == bq.count_colorings(bq.torus_2n(p), bq.make_dihedral(n))
    for tw, n in [((9, 2, 9), 9), ((3, 3, 3), 9), ((5, 3, 3), 3), ((2, 4, 6), 4), ((-3, 2, 3), 3)]:
        assert verify.pretzel_count(tw, n) == bq.count_colorings(bq.pretzel(list(tw)), bq.make_dihedral(n))
    for b in (2, 3):
        assert verify.chain_count(2 * b - 1) == bq.count_colorings(bq.chain(2 * b - 1), bq.make_dihedral(4))
    for n in range(1, 7):
        assert verify.affine_endos(n) == bq.enumerate_endos(bq.make_dihedral(n))
        R = bq.make_dihedral(n)
        brute = [f for f in itertools.product(range(1, n + 1), repeat=n) if bq.algebra.is_hom(R, R, f)]
        assert verify.affine_endos(n) == brute
    for p, T in (gen.GF4, gen.GF9):
        Q = bq.from_tables(*verify.alexander_tables(p, T))
        for d in (bq.torus_2n(3), bq.torus_2n(4), bq.pretzel([3, 3, 3])):
            text = gen.wire(d, rng)
            assert verify.alexander_count(text, p, T) == bq.count_colorings(d, Q)
            if Q.size ** d.semiarc_count <= 10**5:
                brute = verify.brute_force_count(text, Q.over_table, Q.under_table, 10**5)
                assert brute == bq.count_colorings(d, Q)


def test_self_time_on_a_synthetic_span_tree():
    S = spans.Span
    tree = [S("op", 0.0, 10.0),
            S("a", 1.0, 5.0, parent=0), S("b", 2.0, 3.0, parent=1), S("b", 3.5, 4.0, parent=1),
            S("c", 6.0, 9.0, parent=0), S("c", 7.0, 8.0, parent=4)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 1.0, 0.5, 2.0, 1.0])
    m = spans.layer_metrics([S("op", 0.0, 4.0),
                             S("coloring.enumerate", 0.5, 3.5, parent=0, info={"colorings": 4}),
                             S("coloring.enumerate", 1.0, 2.0, parent=1, info={"colorings": 1})])
    # a nested call of the same layer counts once in calls, busy time and counts,
    # while self time adds up over all spans of the layer
    assert m["coloring.enumerate.calls"] == 1
    assert m["coloring.enumerate.busy_s"] == pytest.approx(3.0)
    assert m["coloring.enumerate.self_s"] == pytest.approx(3.0)
    assert m["coloring.enumerate.colorings"] == 4
    assert m["coloring.enumerate.us_per_coloring"] == pytest.approx(3.0 / 4 * 1e6)


def test_subsets_tried_matches_the_search_order():
    for n, k_max in [(5, 3), (7, 4)]:
        order = [c for k in range(1, k_max + 1) for c in itertools.combinations(range(n), k)]
        for i, combo in enumerate(order):
            assert spans.combinations_before(n, k_max, (len(combo), combo)) == i + 1
        assert spans.combinations_before(n, k_max, None) == len(order)
    d = bq.chain(5)
    n = len(bq.strands(d).strands)
    found = bq.min_seed_size(d)
    order = [c for k in range(1, 7) for c in itertools.combinations(range(n), k)]
    assert spans.combinations_before(n, 6, found) == order.index(found[1]) + 1
