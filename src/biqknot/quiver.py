"""Coloring quivers: colorings as vertices, endomorphism actions as edges.

Given a diagram d, a finite biquandle Y and a set S of endomorphisms of
Y, post-composition with each f in S sends colorings to colorings, so
the quiver is |S| functions on its vertex set: targets[k][v] is the
vertex that endos[k] sends vertex v to. Read as a multidigraph, every
vertex has one edge per f in S, so all out-degrees equal |S| by
construction; distinct endomorphisms agreeing on a vertex give parallel
edges. Edge triples (source, target, endo index) are only derived at the
CLI's dump boundary.

Targets are read off a few coordinates: those list_solutions chose freely
(the kernel's parameters, or the search's branch semiarcs; for T(2,9)
over R_9, 2 of 18) fix each coloring, so they index the vertices and
each f maps only them: while every label fits a byte (|Y| <= 255), a key
column is bytes and f maps it in one bytes.translate, else entry by
entry. This is sound because every f is checked to be an endomorphism,
once per algebra object on first use, so f o v is always a vertex.

Isomorphism has one contract at every size: differing vertex or edge
counts answer no; with one endomorphism on both sides each quiver is a
functional graph, compared by a linear-time canonical form; any other |S|
refines vertex classes by degree, then places vertices smallest class
first, each only where every edge to a placed vertex, with its
multiplicity, matches in both directions. That route's time follows the
structure, not the size: it can run for minutes on two 27-vertex quivers
with |S| = 3 (ROADMAP item 5).

Free loops contribute unconstrained coordinates; they are materialized
here (appended after the semiarc coordinates) so the quiver is the full
Hom-set object.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import NamedTuple

from .algebra import FiniteBiquandle, is_hom
from .coloring import Coloring, _oriented, list_solutions
from .diagram import SemiarcDiagram, _ints
from .polynomial import ExponentPolynomial

class ColoringQuiver(NamedTuple):
    vertices: tuple[Coloring, ...]
    endos: tuple[tuple[int, ...], ...]
    targets: tuple[tuple[int, ...], ...]  # targets[k][v]: the vertex endos[k] sends v to


def build_quiver(d: SemiarcDiagram, Y: FiniteBiquandle, S) -> ColoringQuiver:
    """The coloring quiver of d over Y with edge set S (endomorphisms of Y).

    Each f in S is checked to be an endomorphism once per algebra object,
    on first use: Y.checked_endos keeps the maps already accepted. A map
    with an entry that is not an int is refused before that lookup, since
    (1.0, 2, 3) equals and hashes like (1, 2, 3).
    """
    endos = _ints(S, "{!r} is not an endomorphism of the target biquandle", rows=True)
    checked = Y.checked_endos
    for f in endos:
        if _ints(f, error=None) is None or f not in checked:  # is_hom refuses what is no int
            if not is_hom(Y, Y, f):
                raise ValueError(f"{f} is not an endomorphism of the target biquandle")
            checked.add(f)
    listing, key = list_solutions(d.semiarc_count + d.free_loops, _oriented(d), Y)
    vertices = tuple(listing)  # colorings_with_loops(d, Y), keyed by the coordinates in key
    return ColoringQuiver(vertices, endos, _targets(vertices, key, endos, Y.size))


def _targets(vertices, key, endos, size: int) -> tuple[tuple[int, ...], ...]:
    """targets[k][v], the index of endos[k] o vertices[v]: f o v is a vertex (f is a hom), so
    its values on the key coordinates name it. When every label fits a byte (size < 256), a
    key column is bytes and f maps it in one bytes.translate, else entry by entry."""
    if not key:  # one vertex (or none): every f fixes it
        return tuple((0,) * len(vertices) for _ in endos)
    small = size < 256
    columns = [(bytes if small else list)(map(itemgetter(c), vertices)) for c in key]
    index = {k: i for i, k in enumerate(zip(*columns))}
    image = bytes.translate if small else lambda c, f: map(f.__getitem__, c)
    fs = [bytes(f).ljust(256) if small else f for f in [(0, *f) for f in endos]]  # f[x] = f(x)
    return tuple(tuple(map(index.__getitem__, zip(*[image(c, f) for c in columns]))) for f in fs)


def in_degree_polynomial(q: ColoringQuiver) -> ExponentPolynomial:
    """The distribution of in-degrees, packaged as a polynomial in u."""
    deg = [0] * len(q.vertices)
    for row in q.targets:
        for w in row:
            deg[w] += 1
    return ExponentPolynomial.from_multiset(deg)


def quivers_isomorphic(q1: ColoringQuiver, q2: ColoringQuiver) -> bool:
    """Directed-multigraph isomorphism, ignoring edge labels.

    Differing vertex or edge counts answer False. Otherwise, if both
    quivers have exactly one endomorphism, each is a functional graph and
    is compared by its canonical form (see _functional_form), in time
    linear in the vertices. Every other pair goes through iterated
    in/out-degree refinement and then backtracking, which places vertices
    by (class size, class, vertex) and maps v to w only if every edge to a
    placed vertex, with its multiplicity, matches in both directions. No
    size is refused on either route, and nothing bounds the backtracking's
    time: it can run for minutes on 27 vertices (ROADMAP item 5).
    """
    n1, n2 = len(q1.vertices), len(q2.vertices)
    if n1 != n2 or n1 * len(q1.endos) != n2 * len(q2.endos):
        return False
    if len(q1.endos) == len(q2.endos) == 1:
        codes: dict[tuple[int, ...], int] = {}  # shared, so both forms use the same codes
        return _functional_form(q1.targets[0], codes) == _functional_form(q2.targets[0], codes)
    a1, a2 = _adjacency(q1, n1), _adjacency(q2, n2)
    col1, col2 = _refine(a1, n1), _refine(a2, n2)
    return sorted(col1) == sorted(col2) and _backtrack(a1, a2, col1, col2, n1)


def _functional_form(f, codes: dict) -> list[tuple[int, ...]]:
    """A canonical form of the functional graph v -> f[v]: equal iff isomorphic.

    Every component is a cycle with a rooted in-tree at each cycle vertex.
    Kahn's pass strips the tree vertices leaves first, so each vertex is
    coded after all its children: the code is the interned sorted tuple of
    the children's codes (Aho-Hopcroft-Ullman). A cycle is the least
    rotation of its vertices' codes read along f; the form is the sorted
    list of cycles.
    """
    indeg = [0] * len(f)
    for w in f:
        indeg[w] += 1
    below: list[list[int]] = [[] for _ in f]  # codes of each vertex's children
    order = [v for v, d in enumerate(indeg) if not d]
    for v in order:  # grows while it is read
        w = f[v]
        below[w].append(codes.setdefault(tuple(sorted(below[v])), len(codes)))
        indeg[w] -= 1
        if not indeg[w]:
            order.append(w)
    cycles = []
    for v in range(len(f)):
        seq = []
        while indeg[v]:  # v is on a cycle not yet read
            indeg[v] = 0
            seq.append(codes.setdefault(tuple(sorted(below[v])), len(codes)))
            v = f[v]
        if seq:
            cycles.append(_least_rotation(seq))
    return sorted(cycles)


def _least_rotation(seq) -> tuple:
    """The lexicographically least rotation of seq, by a linear two-candidate scan.

    Rotations i and j agree on k symbols; on a mismatch the larger loses,
    with every rotation starting within its next k symbols.
    """
    n, s = len(seq), list(seq) * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return tuple(s[i:i + n])


def _adjacency(q: ColoringQuiver, n: int):
    out_mult: list[dict[int, int]] = [dict() for _ in range(n)]
    in_mult: list[dict[int, int]] = [dict() for _ in range(n)]
    for src, dsts in enumerate(zip(*q.targets)):  # by source, then endo
        for dst in dsts:
            out_mult[src][dst] = out_mult[src].get(dst, 0) + 1
            in_mult[dst][src] = in_mult[dst].get(src, 0) + 1
    return out_mult, in_mult


def _refine(adj, n: int) -> list[int]:
    out_mult, in_mult = adj
    colors = [0] * n
    for _ in range(n):
        sigs = []
        for v in range(n):
            out_sig = sorted((mult, colors[w]) for w, mult in out_mult[v].items())
            in_sig = sorted((mult, colors[w]) for w, mult in in_mult[v].items())
            sigs.append((colors[v], tuple(out_sig), tuple(in_sig)))
        relabel = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [relabel[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _backtrack(a1, a2, col1, col2, n: int) -> bool:
    out1, in1 = a1
    out2, in2 = a2
    # order source vertices by ascending class size, then class id
    class_size = Counter(col1)
    order = sorted(range(n), key=lambda v: (class_size[col1[v]], col1[v], v))
    candidates = {c: [v for v in range(n) if col2[v] == c] for c in set(col2)}
    mapping = [-1] * n
    inverse = [-1] * n

    def fits(v: int, w: int) -> bool:
        # out-, then in-edges: v's to placed vertices must be w's to their images, and back
        for e1, e2 in ((out1[v], out2[w]), (in1[v], in2[w])):
            for edges, other, image in ((e1, e2, mapping), (e2, e1, inverse)):
                for x, mult in edges.items():
                    y = image[x]
                    if y != -1 and other.get(y, 0) != mult:
                        return False
        return True

    if n == 0:
        return True
    # stack[k] iterates the candidates left for order[k]; depth lives on the heap,
    # so no quiver size reaches the recursion limit
    stack = [iter(candidates[col1[order[0]]])]
    while stack:
        k = len(stack) - 1
        v = order[k]
        if mapping[v] != -1:  # unplace v before trying its next candidate
            inverse[mapping[v]] = mapping[v] = -1  # targets assign left to right
        for w in stack[-1]:
            if inverse[w] == -1 and fits(v, w):
                mapping[v], inverse[w] = w, v
                break
        else:
            stack.pop()
            continue
        if k + 1 == n:
            return True
        stack.append(iter(candidates[col1[order[k + 1]]]))
    return False
