"""Wirtinger coloring sequences and bridge index bounds.

Saturation works on strands (maximal overpasses) with abstract color
tokens: a coloring move copies the token from one under-strand of a
crossing to the other, provided the overstrand is already colored.
A seed set that saturates every strand certifies an upper bound for
the overpass bridge index on this diagram; counting invariants give
the complementary lower bounds via Col <= |X|^b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteBiquandle
from .diagram import SemiarcDiagram, strands


@dataclass(frozen=True)
class PartialColoring:
    colored: frozenset[int]
    labels: dict[int, int]  # strand -> token, defined exactly on colored


@dataclass(frozen=True)
class SeedReport:
    seed_set: tuple[int, ...]
    saturated: bool
    sequence: tuple[tuple[int, int], ...]  # (crossing index, newly colored strand)
    final: PartialColoring
    b1_upper: int | None


def wirtinger_saturate(d: SemiarcDiagram, seeds) -> SeedReport:
    """Run coloring moves to exhaustion from the given seed strands.

    Moves apply deterministically: at each step the lowest-index
    eligible crossing fires. Saturation is order-independent (the moves
    are monotone), so the deterministic order is just for reproducible
    sequences.
    """
    dec = strands(d)
    n_strands = len(dec.strands)
    seed_set = tuple(sorted({int(s) for s in seeds}))
    if not seed_set:
        raise ValueError("seed set must be nonempty")
    for s in seed_set:
        if not 0 <= s < n_strands:
            raise ValueError(f"unknown strand id {s} (diagram has {n_strands})")

    labels = {s: i for i, s in enumerate(seed_set)}
    sequence: list[tuple[int, int]] = []
    progress = True
    while progress:
        progress = False
        for ci, (u_in_s, u_out_s, over_s) in enumerate(dec.crossing_incidence):
            if over_s not in labels:
                continue
            for src, dst in ((u_in_s, u_out_s), (u_out_s, u_in_s)):
                if src in labels and dst not in labels:
                    labels[dst] = labels[src]
                    sequence.append((ci, dst))
                    progress = True
                    break
            if progress:
                break
    saturated = len(labels) == n_strands
    report = SeedReport(
        seed_set=seed_set,
        saturated=saturated,
        sequence=tuple(sequence),
        final=PartialColoring(frozenset(labels), dict(labels)),
        b1_upper=len(seed_set) if saturated else None,
    )
    return report


def saturating_closure(d: SemiarcDiagram, seeds) -> frozenset[int]:
    """Strand set reachable from the seeds; independent oracle for saturation.

    Treats each crossing as a hyperedge {under, over} -> other-under and
    closes under reachability, without tracking tokens or move order.
    """
    dec = strands(d)
    reached = set(seeds)
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
    """Smallest saturating seed set of size <= k_max, with its witness.

    Exhaustive over strand subsets in increasing cardinality, then
    lexicographic, so the witness is the lexicographically least seed
    set of minimal size. Returns None when no subset within the cap
    saturates; raises ValueError when k_max < 0. The size is an upper
    bound certificate for the overpass bridge index of the underlying
    link on this diagram. Each subset is tested by a worklist closure
    over one strand decomposition, which reaches the same strands as
    wirtinger_saturate.

    A move colors an under-strand from the other under-strand of the same
    component, so a saturating set meets every component: on every
    diagram, the number of components is at most the seed count, hence
    at most b_1. The search starts at that size and skips subsets that
    miss a component; neither changes the witness.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    dec = strands(d)
    n_strands = len(dec.strands)
    if n_strands == 0:
        return None
    cycles = d.components()
    component_of = {s: c for c, cycle in enumerate(cycles) for s in cycle}
    component = [component_of[path[0]] for path in dec.strands]
    touching: list[list[tuple[int, int, int]]] = [[] for _ in range(n_strands)]
    for incidence in dec.crossing_incidence:
        for s in set(incidence):
            touching[s].append(incidence)
    for k in range(len(cycles), min(k_max, n_strands) + 1):
        for combo in itertools.combinations(range(n_strands), k):
            if len(set(map(component.__getitem__, combo))) < len(cycles):
                continue
            # a move can first fire when one of its crossing's strands gets
            # colored, so only the crossings of newly colored strands are rechecked
            colored, todo = set(combo), list(combo)
            while todo:
                for u_in_s, u_out_s, over_s in touching[todo.pop()]:
                    if over_s in colored and (u_in_s in colored) != (u_out_s in colored):
                        new = u_in_s if u_out_s in colored else u_out_s
                        colored.add(new)
                        todo.append(new)
            if len(colored) == n_strands:
                return k, combo
    return None


def _log_bound(size: int, count: int) -> int:
    """Smallest b with size^b >= count (exact integer arithmetic)."""
    if count <= 0:
        raise ValueError("coloring counts are always positive (constants color everything)")
    b = 0
    power = 1
    while power < count:
        power *= size
        b += 1
    return b


def b1_lower(counts) -> int:
    """Bridge index lower bound from quandle counting invariants.

    counts is a list of (Quandle, Col value) pairs; the bound is the max
    of ceil(log_|X| Col) over the battery. Quandle counts bound the
    overpass index b1; the same computation on general biquandles
    (b2_lower) bounds the height-function index b2.
    """
    return _counting_bound(counts, require_quandle=True)


def b2_lower(counts) -> int:
    return _counting_bound(counts, require_quandle=False)


def _counting_bound(counts, require_quandle: bool) -> int:
    counts = list(counts)
    if not counts:
        raise ValueError("need at least one (algebra, count) pair")
    best = 0
    for X, col in counts:
        if isinstance(X, FiniteBiquandle):
            if require_quandle and not X.is_quandle():
                raise ValueError("b1 bounds need quandle counting invariants")
            size = X.size
        else:
            size = int(X)
        if size < 2:
            raise ValueError("counting bounds need |X| >= 2")
        best = max(best, _log_bound(size, col))
    return best
