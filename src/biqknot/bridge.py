"""Wirtinger coloring sequences and bridge index bounds.

Saturation works on strands (maximal overpasses): a coloring move
colors one under-strand of a crossing from the other, provided the
overstrand is already colored. Every move runs through one engine,
`_moves`. A seed set that saturates every strand, plus one seed per
free loop (a loop has no strand to color from), certifies an upper
bound for the overpass bridge index on this diagram; counting
invariants give the complementary lower bounds via Col <= |X|^b.
"""

from __future__ import annotations

import heapq
import itertools
from typing import NamedTuple

from .diagram import SemiarcDiagram, StrandDecomposition, strands


class SeedReport(NamedTuple):
    seed_set: tuple[int, ...]
    saturated: bool
    sequence: tuple[tuple[int, int], ...]  # (crossing index, newly colored strand)
    colored: frozenset[int]


def _moves(dec: StrandDecomposition, seeds):
    """Yield (crossing index, newly colored strand) per move from the seeds, to exhaustion.

    The least eligible crossing fires next. A crossing only becomes eligible
    when one of its strands gets colored, so the heap holds every eligible one.
    """
    colored = set(seeds)
    heap = sorted({ci for s in colored for ci in dec.crossings_of[s]})
    while heap:
        ci = heapq.heappop(heap)
        u_in_s, u_out_s, over_s = dec.crossing_incidence[ci]
        if over_s in colored and (u_in_s in colored) != (u_out_s in colored):
            new = u_out_s if u_in_s in colored else u_in_s
            colored.add(new)
            yield ci, new
            for cj in dec.crossings_of[new]:
                heapq.heappush(heap, cj)


def wirtinger_saturate(d: SemiarcDiagram, seeds) -> SeedReport:
    """Run coloring moves to exhaustion from the given seed strands.

    Moves apply deterministically: at each step the lowest-index
    eligible crossing fires. Saturation is order-independent (the moves
    are monotone), so the deterministic order is just for reproducible
    sequences. The report holds the sorted seeds, the moves and the
    colored strands. Only a diagram without strands takes no seeds.
    """
    dec = strands(d)
    seed_set = _seed_set(dec, seeds)
    sequence = tuple(_moves(dec, seed_set))
    colored = frozenset(seed_set).union(s for _, s in sequence)
    return SeedReport(seed_set, len(colored) == len(dec.strands), sequence, colored)


def _seed_set(dec: StrandDecomposition, seeds) -> tuple[int, ...]:
    """The seeds sorted, once each; ValueError unless they are ints naming strands of dec,
    and at least one when dec has strands."""
    n_strands = len(dec.strands)
    given = set(seeds)
    for s in given:
        if type(s) is not int:  # int() would read 0.7 as 0 and True as 1
            raise ValueError(f"strand ids must be ints, got {s!r}")
    seed_set = tuple(sorted(given))
    if not seed_set and n_strands:
        raise ValueError("seed set must be nonempty")
    for s in seed_set:
        if not 0 <= s < n_strands:
            raise ValueError(f"unknown strand id {s} (diagram has {n_strands})")
    return seed_set


def saturating_closure(d: SemiarcDiagram, seeds) -> frozenset[int]:
    """Strand set reachable from the seeds; independent oracle for saturation.

    Treats each crossing as a hyperedge {under, over} -> other-under and
    closes under reachability, without tracking tokens or move order.
    Refuses the seeds wirtinger_saturate refuses, with its messages.
    """
    dec = strands(d)
    reached = set(_seed_set(dec, seeds))
    changed = True
    while changed:
        changed = False
        for u_in_s, u_out_s, over_s in dec.crossing_incidence:
            if over_s not in reached:
                continue
            if u_in_s in reached and u_out_s not in reached:
                reached.add(u_out_s)
                changed = True
            elif u_out_s in reached and u_in_s not in reached:
                reached.add(u_in_s)
                changed = True
    return frozenset(reached)


def min_seed_size(d: SemiarcDiagram, k_max: int = 6) -> tuple[int, tuple[int, ...]] | None:
    """Smallest saturating seed count of at most k_max, with its witness strands.

    Each free loop costs one seed, and the strands are searched
    exhaustively over subsets in increasing cardinality, then
    lexicographic order, so the witness is the lexicographically least
    strand set of minimal size; the seed count minus the witness length
    is the number of free loops. Returns None when no seed set within
    the cap saturates; raises ValueError unless k_max is an int >= 0
    (bool refused). The count is an upper bound certificate for the
    overpass bridge index of the underlying link on this diagram.

    A move colors an under-strand from the other under-strand of the same
    component, so a saturating set meets every component: on every
    diagram, the number of components is at most the seed count, hence
    at most b_1. The search starts at that size and skips subsets that
    miss a component; neither changes the witness.
    """
    if type(k_max) is not int:  # True would read as a cap of 1
        raise ValueError(f"k_max must be an int, got {k_max!r}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    dec = strands(d)
    component = dec.component_of
    n_strands, n_components = len(dec.strands), len(set(component))
    for k in range(n_components, min(k_max - d.free_loops, n_strands) + 1):
        for combo in itertools.combinations(range(n_strands), k):
            if len(set(map(component.__getitem__, combo))) < n_components:
                continue
            moves = sum(1 for _ in _moves(dec, combo))
            if k + moves == n_strands:
                return k + d.free_loops, combo
    return None


def _log_bound(size: int, count: int) -> int:
    """Smallest b with size^b >= count (exact integer arithmetic)."""
    if size < 2:
        raise ValueError("counting bounds need |X| >= 2")
    if type(count) is not int:  # True would read as a count of 1
        raise ValueError(f"coloring counts must be ints, got {count!r}")
    if count <= 0:
        raise ValueError(f"a coloring count of {count} gives no bridge bound")
    # size < 2**L for L = size.bit_length(), so size**b <= 2**(b*L) <= count: b tops no answer
    b = (count.bit_length() - 1) // size.bit_length()
    power = size**b
    while power < count:
        power *= size
        b += 1
    return b


def b1_lower(counts) -> int:
    """Bridge index lower bound from quandle counting invariants.

    counts is a list of (quandle, count) pairs; the bound is the max
    of ceil(log_|X| Col) over the battery. Quandle counts bound the
    overpass index b1; the same computation on general biquandles
    (b2_lower) bounds the height-function index b2.
    """
    counts = list(counts)
    if not all(X.is_quandle() for X, _ in counts):
        raise ValueError("b1 bounds need quandle counting invariants")
    return b2_lower(counts)


def b2_lower(counts) -> int:
    """The same bound over (FiniteBiquandle, Col value) pairs, for b2.

    It holds only over algebras whose counts are Reidemeister invariant in
    the library's crossing convention: every quandle, but not every table
    validate_axioms accepts (see the diagram module).
    """
    counts = list(counts)
    if not counts:
        raise ValueError("need at least one (algebra, count) pair")
    return max(_log_bound(X.size, col) for X, col in counts)
