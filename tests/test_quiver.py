"""Tests for coloring quivers, in-degree polynomials, and quiver isomorphism."""

import itertools
import random
import re
import sys

import pytest

from biqknot import quiver
from biqknot.algebra import (biquandle_z, enumerate_endos, make_conjugation_quandle,
                             make_dihedral, make_module_biquandle)
from biqknot.coloring import _oriented, colorings_with_loops, list_solutions
from biqknot.diagram import (Crossing, SemiarcDiagram, apply_r1, apply_r2, chain, connected_sum,
                             pretzel, torus_2n, unknot)
from biqknot.knots import builtin_knot
from biqknot.polynomial import ExponentPolynomial
from biqknot.quiver import ColoringQuiver, build_quiver, in_degree_polynomial, quivers_isomorphic

from oracles import targets_by_full_index


def doubling(n):
    """The endomorphism x -> 2x of R_n as an image tuple."""
    return tuple((2 * x - 1) % n + 1 for x in range(1, n + 1))


def tripling(n):
    return tuple((3 * x - 1) % n + 1 for x in range(1, n + 1))


def iterated_sum(d, copies):
    acc = d
    for _ in range(copies - 1):
        acc, _ = connected_sum(acc, 0, d, 0)
    return acc


def test_doubling_map_matches_published_example():
    assert doubling(4) == (2, 4, 2, 4)


def test_quiver_shape_and_functoriality():
    r4 = make_dihedral(4)
    q = build_quiver(torus_2n(4), r4, [doubling(4)])
    assert len(q.vertices) == 16
    assert len(q.targets) == 1 and len(q.targets[0]) == 16
    # x -> 2x sends every vertex to its doubled coloring, an all-even-label vertex
    for v, w in enumerate(q.targets[0]):
        assert q.vertices[w] == tuple(doubling(4)[x - 1] for x in q.vertices[v])
        assert all(x % 2 == 0 for x in q.vertices[w])


def test_quiver_identity_self_loops():
    r3 = make_dihedral(3)
    ident = tuple(range(1, 4))
    q = build_quiver(torus_2n(3), r3, [ident])
    assert q.targets == (tuple(range(9)),)
    assert in_degree_polynomial(q) == ExponentPolynomial({1: 9})


def test_quiver_empty_s():
    q = build_quiver(torus_2n(3), make_dihedral(3), [])
    assert q.endos == () and q.targets == ()
    assert in_degree_polynomial(q) == ExponentPolynomial({0: 9})


def test_quiver_rejects_non_endomorphism():
    # a rejection is never remembered: the same map is refused on every call,
    # also after the algebra has accepted other maps
    r3, bad = make_dihedral(3), (2, 1, 1)
    message = r"\(2, 1, 1\) is not an endomorphism of the target biquandle"
    with pytest.raises(ValueError, match=message):
        build_quiver(torus_2n(3), r3, [bad])
    with pytest.raises(ValueError, match=message):
        build_quiver(torus_2n(3), r3, [bad])
    build_quiver(torus_2n(3), r3, enumerate_endos(r3))
    with pytest.raises(ValueError, match=message):
        build_quiver(torus_2n(3), r3, [(1, 2, 3), bad])
    assert bad not in r3.checked_endos


@pytest.mark.parametrize("bad", [(1.0, 2, 3), (True, 2, 3)])
def test_quiver_refuses_a_map_with_entries_that_are_not_ints(bad):
    # (1.0, 2, 3) equals and hashes like the identity (1, 2, 3), so the refusal comes before
    # the algebra's cache of accepted maps; it holds after the identity is cached too
    r3 = make_dihedral(3)
    message = rf"{re.escape(str(bad))} is not an endomorphism of the target biquandle"
    with pytest.raises(ValueError, match=message):
        build_quiver(torus_2n(3), r3, [bad])
    assert build_quiver(torus_2n(3), r3, [(1, 2, 3)]).endos == ((1, 2, 3),)
    assert bad in r3.checked_endos  # equal to the cached identity
    with pytest.raises(ValueError, match=message):
        build_quiver(torus_2n(3), r3, [bad])
    with pytest.raises(ValueError, match=message):
        build_quiver(torus_2n(3), r3, [(1, 2, 3), bad])


def test_build_quiver_checks_each_endo_once_per_algebra(monkeypatch):
    calls = []
    real = quiver.is_hom
    monkeypatch.setattr(quiver, "is_hom", lambda X, Y, f: calls.append(f) or real(X, Y, f))
    r9, d = make_dihedral(9), torus_2n(3)
    endos = enumerate_endos(r9)
    first = build_quiver(d, r9, endos)
    assert sorted(calls) == sorted(endos)
    calls.clear()
    assert build_quiver(d, r9, endos) == first
    assert calls == []
    fresh = make_dihedral(9)  # equal, but a new object: its maps are checked again
    assert fresh == r9
    assert build_quiver(d, fresh, endos) == first
    assert sorted(calls) == sorted(endos)


def test_out_degree_equals_s_size():
    z = biquandle_z()
    endos = enumerate_endos(z)
    q = build_quiver(torus_2n(4), z, endos)
    # one target per (endo, vertex): every vertex has out-degree |S|
    assert len(q.targets) == len(endos)
    assert all(len(row) == len(q.vertices) for row in q.targets)
    assert all(0 <= w < len(q.vertices) for row in q.targets for w in row)
    poly = in_degree_polynomial(q)
    # one term per vertex, and the in-degrees sum to the edge count
    assert sum(poly.coeffs.values()) == len(q.vertices)
    assert sum(c * e for e, c in poly.coeffs.items()) == len(q.vertices) * len(endos)


def test_targets_match_the_full_tuple_index():
    swaps = [p for p in itertools.permutations(range(1, 5))
             if sum(p[i] != i + 1 for i in range(4)) == 2]
    s4 = make_conjugation_quandle(swaps)  # not linear: listed by the search
    w, one, zero = ((0, 1), (1, 1)), ((1, 0), (0, 1)), ((0, 0), (0, 0))
    gf4 = make_module_biquandle(2, one, zero, w, ((1, 1), (1, 0)))  # x |> y = wx + (1 + w)y
    loops = SemiarcDiagram(4, torus_2n(2).crossings, 2)
    rng = random.Random(41)
    cases = []
    for n in range(3, 10):
        r = make_dihedral(n)
        endos = enumerate_endos(r)
        for d in (torus_2n(n), pretzel([3, 3, 3]), chain(3), builtin_knot("6_1").diagram):
            cases += [(d, r, []), (d, r, [doubling(n)]), (d, r, rng.sample(endos, 4))]
        cases.append((torus_2n(4), r, endos))
    for y in (biquandle_z(), gf4, s4):
        endos = enumerate_endos(y)
        for d in (torus_2n(4), chain(3), builtin_knot("5_2").diagram, loops):
            cases += [(d, y, endos), (d, y, endos[-1:])]
    for n in (255, 256):  # either side of the byte columns: every label fits a byte up to 255
        affine = [tuple((a * x + b - 1) % n + 1 for x in range(1, n + 1))
                  for a, b in ((2, 0), (3, 7), (-1, 1), (n - 2, 5))]
        cases += [(d, make_dihedral(n), affine) for d in (torus_2n(3), chain(3))]
    cases += [(loops, make_dihedral(3), [tripling(3)]),
              (SemiarcDiagram(0, (), 0), make_dihedral(5), enumerate_endos(make_dihedral(5))),
              (unknot(1), make_dihedral(1), [(1,)])]  # one vertex, with and without coordinates
    for d, y, endos in cases:
        q = build_quiver(d, y, endos)
        assert q.vertices == tuple(colorings_with_loops(d, y))
        assert q.endos == tuple(map(tuple, endos))
        assert q.targets == targets_by_full_index(q)


def test_targets_map_only_separating_columns():
    # T(2,9) over R_9: 81 colorings on 18 semiarcs, keyed by the 2 the lister chose freely
    d = torus_2n(9)
    vertices, key = list_solutions(d.semiarc_count, _oriented(d), make_dihedral(9))
    assert len(key) == 2
    assert len({tuple(v[c] for c in key) for v in vertices}) == len(vertices) == 81
    d = unknot(1)
    assert list_solutions(d.semiarc_count, _oriented(d), make_dihedral(1)) == ([(1, 1)], [])  # no key


def test_separation_torus_sums_vs_chains():
    r4 = make_dihedral(4)
    phi = doubling(4)
    for b in (2, 3):
        qa = build_quiver(iterated_sum(torus_2n(4), b - 1), r4, [phi])
        expected_a = ExponentPolynomial({0: 4**b - 2**b, 2**b: 2**b})
        assert in_degree_polynomial(qa) == expected_a
        qb = build_quiver(chain(2 * b - 1), r4, [phi])
        expected_b = ExponentPolynomial({0: 4**b - 2, 2 ** (2 * b - 1): 2})
        assert in_degree_polynomial(qb) == expected_b
        assert not quivers_isomorphic(qa, qb)


def test_separation_pretzel_vs_granny():
    r9 = make_dihedral(9)
    phi = tripling(9)
    granny = iterated_sum(torus_2n(3), 2)
    qg = build_quiver(granny, r9, [phi])
    assert in_degree_polynomial(qg) == ExponentPolynomial({0: 78, 27: 3})
    for r in (1, 2):
        qp = build_quiver(pretzel([9, 2 * r, 9]), r9, [phi])
        assert in_degree_polynomial(qp) == ExponentPolynomial({0: 72, 9: 9})
        assert not quivers_isomorphic(qp, qg)


def test_quiver_isomorphic_to_itself_and_relabelings():
    r4 = make_dihedral(4)
    phi = doubling(4)
    q = build_quiver(torus_2n(4), r4, [phi])
    assert quivers_isomorphic(q, q)
    # a different diagram of the same link gives an isomorphic quiver
    moved = apply_r2(apply_r1(torus_2n(4), 0, -1), 1, 6, "parallel")
    q2 = build_quiver(moved, r4, [phi])
    assert quivers_isomorphic(q, q2)


def test_iso_backtracking_does_not_use_the_call_stack():
    # 256 vertices, one backtracking level each; allow far fewer frames
    r4 = make_dihedral(4)
    d = chain(7)
    moved = apply_r2(apply_r1(d, 0, -1), 1, 6, "parallel")
    q1, q2 = build_quiver(d, r4, [doubling(4)]), build_quiver(moved, r4, [doubling(4)])
    assert len(q1.vertices) == 256
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert quivers_isomorphic(q1, q2)
    finally:
        sys.setrecursionlimit(limit)


def test_iso_backtracking_with_two_endos_does_not_use_the_call_stack():
    # |S| = 2 takes the refine/backtrack route: 256 vertices under the same tight limit
    r4 = make_dihedral(4)
    S = [doubling(4), (1, 2, 3, 4)]
    d = chain(7)
    moved = apply_r2(apply_r1(d, 0, -1), 1, 6, "parallel")
    q1, q2 = build_quiver(d, r4, S), build_quiver(moved, r4, S)
    assert len(q1.vertices) == 256
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert quivers_isomorphic(q1, q2)
    finally:
        sys.setrecursionlimit(limit)


def relabel(d, rng):
    """d with its semiarcs renumbered by a random permutation."""
    p = list(range(d.semiarc_count))
    rng.shuffle(p)
    return SemiarcDiagram(d.semiarc_count, tuple(
        Crossing(c.sign, p[c.u_in], p[c.o_in], p[c.u_out], p[c.o_out]) for c in d.crossings),
        d.free_loops)


def functional_quiver(f):
    """The one-endomorphism quiver v -> f[v], with placeholder vertices."""
    return ColoringQuiver(tuple((v,) for v in range(len(f))), ((1,),), (tuple(f),))


def backtrack_route(q1, q2):
    """The refine/backtrack decision, which every quiver with |S| != 1 takes."""
    n = len(q1.vertices)
    a1, a2 = quiver._adjacency(q1, n), quiver._adjacency(q2, n)
    c1, c2 = quiver._refine(a1, n), quiver._refine(a2, n)
    return sorted(c1) == sorted(c2) and quiver._backtrack(a1, a2, c1, c2, n)


def test_least_rotation_matches_brute_force():
    rng = random.Random(4)
    seqs = [[7] * 5, [1, 2] * 4, [3, 1, 2] * 3, [2, 1, 1, 2, 1, 1], [0], [5, 4]]
    for _ in range(300):
        n = rng.randrange(1, 13)
        base = [rng.randrange(3) for _ in range(rng.randrange(1, 5))]
        seqs.append([rng.randrange(4) for _ in range(n)])
        seqs.append(base * rng.randrange(1, 4))  # periodic
    for seq in seqs:
        best = min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))
        assert quiver._least_rotation(seq) == best


def test_functional_graph_iso_matches_networkx_and_backtracking():
    nx = pytest.importorskip("networkx")

    def graph(f):
        g = nx.DiGraph()
        g.add_nodes_from(range(len(f)))
        g.add_edges_from(enumerate(f))
        return g

    # a 4-cycle with leaves at adjacent or at opposite vertices: same tree codes, other order
    pairs = [([1, 2, 3, 0, 0, 1], [1, 2, 3, 0, 0, 2], False)]
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(1, 13)
        f = [rng.randrange(n) for _ in range(n)]
        p = list(range(n))
        rng.shuffle(p)
        g = [0] * n
        for v in range(n):
            g[p[v]] = p[f[v]]  # f conjugated by p
        near = list(g)
        near[rng.randrange(n)] = rng.randrange(n)
        other = [rng.randrange(n) for _ in range(n)]
        pairs += [(f, g, True), (f, near, None), (f, other, None)]
    for f, h, known in pairs:
        q1, q2 = functional_quiver(f), functional_quiver(h)
        expected = nx.isomorphism.DiGraphMatcher(graph(f), graph(h)).is_isomorphic()
        assert quivers_isomorphic(q1, q2) == expected == backtrack_route(q1, q2)
        assert known in (None, expected)


def test_multi_endo_iso_matches_networkx():
    # |S| != 1 takes the refine/backtrack route; networkx's VF2 on the
    # multidigraphs is the oracle, parallel edges and loops counted
    nx = pytest.importorskip("networkx")

    def multigraph(q):
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(len(q.vertices)))
        g.add_edges_from((v, w) for row in q.targets for v, w in enumerate(row))
        return g

    def arrays(n, targets):
        return ColoringQuiver(tuple((v,) for v in range(n)),
                              tuple((k,) for k in range(len(targets))), tuple(map(tuple, targets)))

    rng = random.Random(20)
    pairs = []
    for _ in range(300):
        n, s = rng.randrange(1, 10), rng.choice((0, 2, 3))
        targets = [[rng.randrange(n) for _ in range(n)] for _ in range(s)]
        p = list(range(n))
        rng.shuffle(p)
        moved = [[0] * n for _ in range(s)]
        for k, row in enumerate(targets):
            for v, w in enumerate(row):
                moved[k][p[v]] = p[w]  # row k conjugated by p
        rng.shuffle(moved)
        other = [[rng.randrange(n) for _ in range(n)] for _ in range(s)]
        q = arrays(n, targets)
        pairs += [(q, arrays(n, moved), True), (q, arrays(n, other), None)]
        if s:
            near = [list(row) for row in moved]
            near[rng.randrange(s)][rng.randrange(n)] = rng.randrange(n)
            pairs.append((q, arrays(n, near), None))
    r4, r6, z = make_dihedral(4), make_dihedral(6), biquandle_z()
    for y, d in ((r4, torus_2n(4)), (r4, chain(3)), (r6, torus_2n(3)), (r6, pretzel([3, 3, 3])),
                 (z, torus_2n(4)), (z, chain(3))):
        endos = enumerate_endos(y)
        q = build_quiver(d, y, endos)
        for moved in (apply_r1(d, 0, -1), apply_r2(apply_r1(d, 0, 1), 1, 6, "parallel")):
            pairs.append((q, build_quiver(moved, y, endos), True))
    for q1, q2, known in pairs:
        expected = nx.is_isomorphic(multigraph(q1), multigraph(q2))
        assert quivers_isomorphic(q1, q2) == expected
        assert known in (None, expected)
    # 1024 vertices with |S| = 16: networkx takes seconds on this pair, so it is checked as known
    d, endos = chain(9), enumerate_endos(r4)
    moved = apply_r2(apply_r1(d, 0, -1), 1, 6, "parallel")
    q1, q2 = build_quiver(d, r4, endos), build_quiver(moved, r4, endos)
    assert len(q1.vertices) == 1024 and len(q1.endos) == 16
    assert quivers_isomorphic(q1, q2)


def test_relabeled_torus_copies_take_the_canonical_route(monkeypatch):
    # T(2,9) over R_9 with x -> 2x against R2-moved, relabeled copies: the
    # refine/backtrack route stalls on some of these, the canonical one never runs it
    def refuse(*args):
        raise AssertionError("|S| = 1 must not refine or backtrack")

    monkeypatch.setattr(quiver, "_refine", refuse)
    monkeypatch.setattr(quiver, "_backtrack", refuse)
    r9, rng = make_dihedral(9), random.Random(3)
    d = torus_2n(9)
    q = build_quiver(d, r9, [doubling(9)])
    assert len(q.vertices) == 81
    for _ in range(20):
        a, b = rng.sample(range(d.semiarc_count), 2)
        moved = relabel(apply_r2(d, a, b, rng.choice(("parallel", "antiparallel"))), rng)
        assert quivers_isomorphic(q, build_quiver(moved, r9, [doubling(9)]))


def test_iso_size_guard_only_on_the_backtrack_route():
    r4 = make_dihedral(4)
    d = chain(11)
    q = build_quiver(d, r4, [doubling(4)])
    assert len(q.vertices) == 4096
    assert quivers_isomorphic(q, build_quiver(apply_r1(d, 0, 1), r4, [doubling(4)]))
    sums = build_quiver(iterated_sum(torus_2n(4), 5), r4, [doubling(4)])
    assert len(sums.vertices) == 4096
    assert not quivers_isomorphic(q, sums)
    # |S| = 2 takes the refine/backtrack route, at this size as at any other
    two = build_quiver(d, r4, [doubling(4), (1, 2, 3, 4)])
    assert quivers_isomorphic(two, build_quiver(apply_r1(d, 0, 1), r4, [doubling(4), (1, 2, 3, 4)]))
    assert not quivers_isomorphic(
        two, build_quiver(iterated_sum(torus_2n(4), 5), r4, [doubling(4), (1, 2, 3, 4)]))


def test_iso_size_guard_comes_after_the_count_checks():
    # two endomorphisms each, so the backtrack route: differing vertex
    # counts answer False before any refinement, however large one side is
    big = ColoringQuiver(tuple((v,) for v in range(2001)), ((1,), (1,)), (tuple(range(2001)),) * 2)
    small = ColoringQuiver(tuple((v,) for v in range(5)), ((1,), (1,)), (tuple(range(5)),) * 2)
    assert not quivers_isomorphic(big, small)
    assert not quivers_isomorphic(small, big)


def test_iso_of_two_empty_quivers_with_two_endos():
    endos = ((1, 2, 3), (1, 1, 1))
    q = ColoringQuiver((), endos, ((), ()))
    assert quivers_isomorphic(q, ColoringQuiver((), endos, ((), ())))


def test_quiver_iso_rejects_different_edge_structure():
    r3 = make_dihedral(3)
    ident = tuple(range(1, 4))
    q_id = build_quiver(torus_2n(3), r3, [ident])
    q_2x = build_quiver(torus_2n(3), r3, [doubling(3)])
    assert not quivers_isomorphic(q_id, q_2x)


def test_iso_does_not_require_matching_labels():
    # same multidigraph built from different endomorphism sets
    r5 = make_dihedral(5)
    q1 = build_quiver(torus_2n(2), r5, [doubling(5)])
    q2 = build_quiver(torus_2n(2), r5, [tripling(5)])
    # on the 5 constant colorings both maps act as a 4-cycle plus the
    # fixed constant 5, so the quivers agree as graphs
    assert quivers_isomorphic(q1, q2)


def test_in_degree_polynomial_move_invariance():
    rng = random.Random(9)
    r9 = make_dihedral(9)
    phi = tripling(9)
    d = pretzel([3, 3, 3])
    base = in_degree_polynomial(build_quiver(d, r9, [phi]))
    for _ in range(3):
        s = rng.randrange(d.semiarc_count)
        moved = apply_r1(d, s, rng.choice((1, -1)))
        assert in_degree_polynomial(build_quiver(moved, r9, [phi])) == base


def test_polynomial_str_and_parse():
    p = ExponentPolynomial({18: 54, 6: 18, 2: 9})
    assert str(p) == "54u^18 + 18u^6 + 9u^2"
    q = ExponentPolynomial({0: 12, 4: 4})
    assert str(q) == "4u^4 + 12"
    assert str(ExponentPolynomial({})) == "0"


def test_polynomial_rejects_negative_terms_and_hashes_by_value():
    for coeffs in ({-1: 2}, {3: -1}):
        with pytest.raises(ValueError, match="^exponents and coefficients must be nonnegative$"):
            ExponentPolynomial(coeffs)
    p = ExponentPolynomial({2: 9, 6: 18, 0: 0})  # zero coefficients are dropped
    q = ExponentPolynomial.from_multiset([6] * 18 + [2] * 9)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, ExponentPolynomial({2: 9})}) == 2
