"""Tests for Wirtinger saturation, seed search, and counting bounds."""

import itertools
import math
import random

import pytest

from biqknot.algebra import (
    biquandle_z,
    make_dihedral,
    parse_biquandle,
    parse_tables,
    validate_axioms,
)
from biqknot.bridge import (
    _log_bound,
    b1_lower,
    b2_lower,
    min_seed_size,
    saturating_closure,
    wirtinger_saturate,
)
from biqknot.coloring import count_colorings
from biqknot.diagram import (
    Crossing,
    SemiarcDiagram,
    apply_r1,
    apply_r2,
    chain,
    parse_pd,
    pretzel,
    serialize_pd,
    strands,
    torus_2n,
    unknot,
)
from biqknot.knots import builtin_table


def test_all_seeds_saturate_trivially():
    d = chain(3)
    n = len(strands(d).strands)
    rep = wirtinger_saturate(d, range(n))
    assert rep.saturated
    assert rep.sequence == ()
    assert len(rep.seed_set) == n


def test_trefoil_two_seeds():
    d = torus_2n(3)
    rep = wirtinger_saturate(d, (0, 1))
    assert rep.saturated
    assert len(rep.seed_set) == 2
    assert len(rep.sequence) == 1  # third strand colored by one move
    rep1 = wirtinger_saturate(d, (0,))
    assert not rep1.saturated


def test_sequence_steps_record_crossing_and_strand():
    d = torus_2n(3)
    rep = wirtinger_saturate(d, (0, 1))
    ci, new_strand = rep.sequence[0]
    assert 0 <= ci < len(d.crossings)
    assert new_strand == 2
    assert new_strand in rep.colored


def test_chain_needs_two_seeds():
    d = chain(3)
    assert not wirtinger_saturate(d, (0,)).saturated
    assert min_seed_size(d)[0] >= 2


def test_unknown_strand_rejected():
    with pytest.raises(ValueError):
        wirtinger_saturate(torus_2n(3), (7,))
    with pytest.raises(ValueError):
        wirtinger_saturate(torus_2n(3), ())


def test_seed_strands_must_be_ints():
    # int() used to read 0.7 as strand 0 and True as strand 1
    for seeds in ([0.7], [True], [0, 1.0], ["1"], [0, "a"]):
        with pytest.raises(ValueError, match="^strand ids must be ints, got "):
            wirtinger_saturate(torus_2n(3), seeds)


def test_the_closure_oracle_refuses_what_saturation_refuses():
    # it used to return {0.7} for [0.7], and {0, 1, 2, 7} for [7, 0, 1] on T(2,3)
    t23 = torus_2n(3)
    cases = [([0.7], "^strand ids must be ints, got 0.7$"),
             ([True], "^strand ids must be ints, got True$"),
             ([0, 1.0], "^strand ids must be ints, got 1.0$"),
             (["1"], "^strand ids must be ints, got '1'$"),
             ([7, 0, 1], r"^unknown strand id 7 \(diagram has 3\)$"),
             ([-1], r"^unknown strand id -1 \(diagram has 3\)$"),
             ([3], r"^unknown strand id 3 \(diagram has 3\)$"),
             ([], "^seed set must be nonempty$")]
    for seeds, message in cases:
        for check in (wirtinger_saturate, saturating_closure):
            with pytest.raises(ValueError, match=message):
                check(t23, seeds)
    assert saturating_closure(unknot(0), []) == wirtinger_saturate(unknot(0), []).colored == frozenset()
    assert saturating_closure(t23, [2, 0, 2]) == {0, 1, 2}


def test_min_seed_sizes():
    assert min_seed_size(unknot(1)) == (1, (0,))
    k, witness = min_seed_size(torus_2n(3))
    assert k == 2
    assert wirtinger_saturate(torus_2n(3), witness).saturated
    assert min_seed_size(pretzel([3, 3, 3]))[0] == 3


def test_min_seed_respects_cap():
    assert min_seed_size(pretzel([3, 3, 3]), k_max=2) is None


def test_witness_is_lexicographically_least():
    d = torus_2n(3)
    k, witness = min_seed_size(d)
    all_sat = [c for c in itertools.combinations(range(3), 2)
               if wirtinger_saturate(d, c).saturated]
    assert witness == min(all_sat)


def test_saturation_monotone():
    rng = random.Random(17)
    d = pretzel([3, 3, 3])
    n = len(strands(d).strands)
    for _ in range(10):
        small = set(rng.sample(range(n), 2))
        big = small | set(rng.sample(range(n), 2))
        sat_small = wirtinger_saturate(d, small)
        sat_big = wirtinger_saturate(d, big)
        assert sat_small.colored <= sat_big.colored


def test_saturation_confluence_with_reachability_oracle():
    rng = random.Random(23)
    for d in (torus_2n(3), torus_2n(4), chain(3), pretzel([3, 3, 3]), pretzel([9, 2, 9])):
        n = len(strands(d).strands)
        for _ in range(8):
            seeds = set(rng.sample(range(n), rng.randrange(1, min(4, n) + 1)))
            rep = wirtinger_saturate(d, seeds)
            assert rep.colored == saturating_closure(d, seeds)


def test_single_seed_iff_reachable():
    for d in (unknot(1), torus_2n(3), chain(3)):
        n = len(strands(d).strands)
        single = any(len(saturating_closure(d, {s})) == n for s in range(n))
        assert (min_seed_size(d)[0] == 1) == single


def split_sum(*diagrams):
    """The split link of the diagrams side by side: semiarcs renumbered, nothing linked."""
    crossings, offset = [], 0
    for d in diagrams:
        crossings += [Crossing(c.sign, c.u_in + offset, c.o_in + offset, c.u_out + offset,
                               c.o_out + offset) for c in d.crossings]
        offset += d.semiarc_count
    return SemiarcDiagram(offset, tuple(crossings))


# virtual diagrams, their virtual crossings erased on parsing: the virtual trefoil (over,
# over, under, under along its one component); a knot whose one semiarc passes over and
# then under the one crossing; a Hopf-like link of two one-semiarc cycles, one all over
VIRTUAL = [parse_pd("X+ 3 7 4 0\nX+ 5 1 6 2\nV 0 4 1 5\nV 2 6 3 7\n"),
           parse_pd("X+ 0 1 2 3\nV 2 3 1 0\n"), parse_pd("X- 0 1 2 3\nV 2 3 0 1\n")]
# with free loops: a purely virtual loop (ids 100, 101) and L records
LOOPED = [parse_pd(serialize_pd(torus_2n(3)) + "V 100 101 101 100\n"),
          parse_pd("L 2\n" + serialize_pd(chain(3))), parse_pd("V 9 7 8 6\nL 1\nX+ 6 8 9 7\n")]


def exhaustive_min_seed(d, k_max=6):
    """The first saturating subset by size, then lexicographically, by wirtinger_saturate."""
    n = len(strands(d).strands)
    for k in range(1, min(k_max, n) + 1):
        for combo in itertools.combinations(range(n), k):
            if wirtinger_saturate(d, combo).saturated:
                return k, combo
    return None


def test_min_seed_size_matches_exhaustive_saturation():
    # the search starts at the component count and skips subsets that miss a component;
    # the exhaustive one tries every subset from size 1, so caps go below and above the count
    diagrams = [torus_2n(p) for p in (1, 2, 3, 4, 5, 8)] + [chain(3), chain(5), chain(7)]
    diagrams += [split_sum(torus_2n(3), unknot(1)), split_sum(chain(3), torus_2n(3)),
                 split_sum(unknot(1), unknot(1), unknot(2)),
                 split_sum(torus_2n(4), pretzel([3, 3, 3]))]
    diagrams += [rec.diagram for rec in builtin_table().values()] + VIRTUAL
    for d in diagrams:
        for k_max in range(0, d.component_count() + 2):
            assert min_seed_size(d, k_max) == exhaustive_min_seed(d, k_max)
        assert min_seed_size(d) == exhaustive_min_seed(d)
    assert min_seed_size(chain(7)) is None  # seven components need seven seeds
    assert min_seed_size(split_sum(torus_2n(3), unknot(1)))[0] == 3


def test_min_seed_size_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="k_max"):
        min_seed_size(torus_2n(3), -1)


@pytest.mark.parametrize("k_max", [True, False, 2.5, 3.0, "3", None])
def test_min_seed_size_rejects_a_cap_that_is_not_an_int(k_max):
    # True would read as a cap of 1 seed, and 2.5 escape range() as TypeError
    with pytest.raises(ValueError) as e:
        min_seed_size(torus_2n(3), k_max)
    assert str(e.value) == f"k_max must be an int, got {k_max!r}"


def test_b1_lower_examples():
    r3 = make_dihedral(3)
    assert b1_lower([(r3, 9)]) == 2
    assert b1_lower([(r3, 3)]) == 1
    assert b1_lower([(r3, 9), (make_dihedral(4), 4)]) == 2
    z = biquandle_z()
    assert b2_lower([(z, 16)]) == 2
    with pytest.raises(ValueError):
        b1_lower([(z, 16)])  # Z is not a quandle
    with pytest.raises(ValueError):
        b1_lower([(r3, 0)])


def test_bound_consistency_on_instances():
    # counting lower bound never exceeds the seed-search upper bound
    r3 = make_dihedral(3)
    r4 = make_dihedral(4)
    for d in (torus_2n(3), torus_2n(5), chain(3), pretzel([3, 3, 3])):
        lower = b1_lower([(r3, count_colorings(d, r3)), (r4, count_colorings(d, r4))])
        found = min_seed_size(d)
        assert found is not None
        assert lower <= found[0]


def with_loops(d, loops):
    return SemiarcDiagram(d.semiarc_count, d.crossings, d.free_loops + loops)


def test_each_free_loop_costs_one_seed():
    looped = with_loops(torus_2n(3), 2)  # three components
    assert min_seed_size(looped) == (4, (0, 1))
    assert min_seed_size(looped, k_max=3) is None  # the cap counts the loops too
    for d in (unknot(0), parse_pd("L 1\n")):
        assert min_seed_size(d) == (1, ())
        assert min_seed_size(d, k_max=0) is None
        rep = wirtinger_saturate(d, ())
        assert rep.saturated and rep.sequence == ()


def test_min_seed_size_with_loops_matches_exhaustive_saturation():
    # the strands of a looped diagram are the loop-free diagram's, searched under the cap
    # the loops leave; the witness still lists strands only
    diagrams = [torus_2n(3), chain(3), split_sum(torus_2n(3), unknot(1)),
                split_sum(chain(3), torus_2n(3)), split_sum(unknot(1), unknot(1), unknot(2))]
    for d in diagrams:
        for loops in (1, 2):
            looped = with_loops(d, loops)
            for k_max in range(0, looped.component_count() + 2):
                found = exhaustive_min_seed(d, k_max - loops)
                expected = found and (found[0] + loops, found[1])
                assert min_seed_size(looped, k_max) == expected
                if expected:
                    assert wirtinger_saturate(looped, expected[1]).saturated


def restart_loop(d, seeds):
    """The moves by a scan that restarts at crossing 0 after every move."""
    dec = strands(d)
    labels = set(seeds)
    sequence = []
    progress = True
    while progress:
        progress = False
        for ci, (u_in_s, u_out_s, over_s) in enumerate(dec.crossing_incidence):
            if over_s not in labels:
                continue
            for src, dst in ((u_in_s, u_out_s), (u_out_s, u_in_s)):
                if src in labels and dst not in labels:
                    labels.add(dst)
                    sequence.append((ci, dst))
                    progress = True
                    break
            if progress:
                break
    return tuple(sequence)


def rotating_strand_walk(d):
    """The strand paths by a walk that rotates each all-over cycle to its least semiarc."""
    over_next = {c.o_in: c.o_out for c in d.crossings}
    over_prev = {c.o_out: c.o_in for c in d.crossings}
    assigned, paths = set(), []
    for s in range(d.semiarc_count):
        if s in assigned:
            continue
        start, is_cycle = s, False
        while start in over_prev:
            start = over_prev[start]
            if start == s:
                is_cycle = True
                break
        if is_cycle:
            cyc = [s]
            cur = over_next[s]
            while cur != s:
                cyc.append(cur)
                cur = over_next[cur]
            pivot = cyc.index(min(cyc))
            path = cyc[pivot:] + cyc[:pivot]
        else:
            path = [start]
            cur = start
            while cur in over_next:
                cur = over_next[cur]
                path.append(cur)
        assigned.update(path)
        paths.append(tuple(path))
    return tuple(paths)


# two components: an under-cycle 0 -> 1 -> 2 and an all-over cycle 5 -> 3 -> 4
ALL_OVER = parse_pd("X+ 0 5 1 3\nX+ 1 3 2 4\nX+ 2 4 0 5\n")


def relabeled(d, rng):
    p = list(range(d.semiarc_count))
    rng.shuffle(p)
    return SemiarcDiagram(d.semiarc_count, tuple(
        Crossing(c.sign, p[c.u_in], p[c.o_in], p[c.u_out], p[c.o_out]) for c in d.crossings),
        d.free_loops)


def moved(d, rng):
    if rng.random() < 0.5:
        return apply_r1(d, rng.randrange(d.semiarc_count), rng.choice((1, -1)))
    a, b = rng.sample(range(d.semiarc_count), 2)
    return apply_r2(d, a, b, rng.choice(("parallel", "antiparallel")))


def oracle_battery(rng):
    base = [torus_2n(p) for p in (1, 2, 3, 4, 5, 8)] + [chain(3), chain(5), unknot(1)]
    base += [pretzel([3, 3, 3]), pretzel([9, 2, 9]), pretzel([3, -2, 5]), ALL_OVER]
    base += VIRTUAL + LOOPED
    base += [rec.diagram for rec in builtin_table().values()]
    for d in base:
        yield d
        yield relabeled(d, rng)
        yield moved(moved(d, rng), rng)
        yield relabeled(moved(d, rng), rng)
    for _ in range(20):
        yield relabeled(ALL_OVER, rng)


def test_strands_match_the_rotating_walk():
    assert strands(ALL_OVER).strands == ((0,), (1,), (2,), (3, 4, 5))
    for d in oracle_battery(random.Random(29)):
        assert strands(d).strands == rotating_strand_walk(d)


def test_strands_name_their_component_and_their_crossings():
    for d in oracle_battery(random.Random(41)):
        dec = strands(d)
        cycles = d.components()
        assert len(dec.component_of) == len(dec.crossings_of) == len(dec.strands)
        for path, comp in zip(dec.strands, dec.component_of):
            assert set(path) <= set(cycles[comp])
        # the inverse of crossing_incidence: each crossing once, in increasing order
        assert dec.crossings_of == tuple(
            tuple(ci for ci, named in enumerate(dec.crossing_incidence) if i in named)
            for i in range(len(dec.strands)))


def test_moves_match_the_restart_loop():
    rng = random.Random(31)
    for d in oracle_battery(random.Random(37)):
        n = len(strands(d).strands)
        for _ in range(8):
            seeds = rng.sample(range(n), rng.randrange(1, n + 1))
            assert wirtinger_saturate(d, seeds).sequence == restart_loop(d, seeds)


# x ." y = x .v y = sigma(x) with sigma = (1 2 3 4): no constant map is a coloring
SIGMA_SHIFT = "4\n" + "2 2 2 2\n3 3 3 3\n4 4 4 4\n1 1 1 1\n\n" * 2


def test_zero_count_error_names_the_true_reason():
    assert validate_axioms(*parse_tables(SIGMA_SHIFT)) == []
    X = parse_biquandle(SIGMA_SHIFT)
    assert count_colorings(torus_2n(3), X) == 0
    with pytest.raises(ValueError, match="^a coloring count of 0 gives no bridge bound$"):
        b2_lower([(X, 0)])


def exact_log_bound(size, count):
    """Smallest b with size**b >= count, by walking the powers."""
    b, power = 0, 1
    while power < count:
        b, power = b + 1, power * size
    return b


def test_log_bound_matches_the_power_loop():
    rng = random.Random(11)
    cases = [(size, size**e + d) for size in (2, 3, 7, 10, 1024) for e in range(200) for d in (-1, 0, 1)]
    cases += [(rng.randint(2, 40), rng.randint(1, 10 ** rng.randint(1, 80))) for _ in range(3000)]
    for size, count in cases:
        if count >= 1:
            assert _log_bound(size, count) == exact_log_bound(size, count), (size, count)
    # far past where the power loop takes seconds
    assert _log_bound(3, 3**100000) == 100000
    assert _log_bound(3, 3**100000 + 1) == 100001


def test_log_bound_is_exact_on_powers_and_their_neighbours():
    for size in (2, 3, 10, 1009, 2**61 - 1):
        for e in (1, 2, 64, 1000, 4000):  # up to 4000 digits at size 10 and 75 000 at 2**61 - 1
            for count in (size**e - 1, size**e, size**e + 1):
                want = exact_log_bound(size, count)
                assert _log_bound(size, count) == want, (size, e, count - size**e)
                # the float estimate never tops the answer, so the b -= 1 loop stays idle
                assert int(math.log(count, size)) <= want


def test_bounds_need_a_pair_and_two_elements():
    with pytest.raises(ValueError) as e:
        b2_lower([])
    assert str(e.value) == "need at least one (algebra, count) pair"
    with pytest.raises(ValueError) as e:
        b1_lower([(make_dihedral(1), 1)])
    assert str(e.value) == "counting bounds need |X| >= 2"
