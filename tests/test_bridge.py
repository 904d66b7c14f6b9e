"""Tests for Wirtinger saturation, seed search, and counting bounds."""

import itertools
import random

import pytest

from biqknot.algebra import biquandle_z, make_dihedral
from biqknot.bridge import (
    b1_lower,
    b2_lower,
    min_seed_size,
    saturating_closure,
    wirtinger_saturate,
)
from biqknot.coloring import count_colorings
from biqknot.diagram import Crossing, SemiarcDiagram, chain, pretzel, strands, torus_2n, unknot
from biqknot.knots import builtin_table


def test_all_seeds_saturate_trivially():
    d = chain(3)
    n = len(strands(d).strands)
    rep = wirtinger_saturate(d, range(n))
    assert rep.saturated
    assert rep.sequence == ()
    assert rep.b1_upper == n


def test_trefoil_two_seeds():
    d = torus_2n(3)
    rep = wirtinger_saturate(d, (0, 1))
    assert rep.saturated
    assert rep.b1_upper == 2
    assert len(rep.sequence) == 1  # third strand colored by one move
    rep1 = wirtinger_saturate(d, (0,))
    assert not rep1.saturated
    assert rep1.b1_upper is None


def test_sequence_steps_record_crossing_and_strand():
    d = torus_2n(3)
    rep = wirtinger_saturate(d, (0, 1))
    ci, new_strand = rep.sequence[0]
    assert 0 <= ci < len(d.crossings)
    assert new_strand == 2
    assert rep.final.labels[new_strand] in (0, 1)


def test_chain_needs_two_seeds():
    d = chain(3)
    assert not wirtinger_saturate(d, (0,)).saturated
    assert min_seed_size(d)[0] >= 2


def test_unknown_strand_rejected():
    with pytest.raises(ValueError):
        wirtinger_saturate(torus_2n(3), (7,))
    with pytest.raises(ValueError):
        wirtinger_saturate(torus_2n(3), ())


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
        assert sat_small.final.colored <= sat_big.final.colored


def test_saturation_confluence_with_reachability_oracle():
    rng = random.Random(23)
    for d in (torus_2n(3), torus_2n(4), chain(3), pretzel([3, 3, 3]), pretzel([9, 2, 9])):
        n = len(strands(d).strands)
        for _ in range(8):
            seeds = set(rng.sample(range(n), rng.randrange(1, min(4, n) + 1)))
            rep = wirtinger_saturate(d, seeds)
            assert rep.final.colored == saturating_closure(d, seeds)


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
    diagrams += [rec.diagram for rec in builtin_table().values()]
    for d in diagrams:
        for k_max in range(0, d.component_count() + 2):
            assert min_seed_size(d, k_max) == exhaustive_min_seed(d, k_max)
        assert min_seed_size(d) == exhaustive_min_seed(d)
    assert min_seed_size(chain(7)) is None  # seven components need seven seeds
    assert min_seed_size(split_sum(torus_2n(3), unknot(1)))[0] == 3


def test_min_seed_size_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="k_max"):
        min_seed_size(torus_2n(3), -1)


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
