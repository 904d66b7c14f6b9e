"""Reference values and output checks that do not go through biqknot.

Every expected value the benchmark compares against comes from here: a
closed form, or a second computation written independently of the
library (a wire-format reader, a relation checker, linear algebra over
F_p, affine endomorphisms, in-degree counting). Checks run outside the
timed region.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

# wire format: one "X+ a b c d" / "X- a b c d" line per crossing, "L k" for free loops


def read_wire(text: str) -> tuple[int, list[tuple[int, int, int, int, int]], int]:
    """(semiarc count, [(sign, u_in, o_in, u_out, o_out)], free loops) of a wire text."""
    crossings, loops = [], 0
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "L":
            loops += int(parts[1])
            continue
        sign = {"X+": 1, "X-": -1}[parts[0]]
        crossings.append((sign, *(int(p) for p in parts[1:])))
    return 2 * len(crossings), crossings, loops


def satisfies(crossings, over, under, col) -> bool:
    """Whether col (1-based labels per semiarc) satisfies every crossing relation."""
    for sign, ui, oi, uo, oo in crossings:
        if sign < 0:
            ui, oi, uo, oo = uo, oo, ui, oi
        u, o = col[ui], col[oi]
        if col[uo] != under[u - 1][o - 1] or col[oo] != over[o - 1][u - 1]:
            return False
    return True


def brute_force_count(text: str, over, under, guard: int) -> int:
    """Colorings by direct search over all assignments; refused above guard."""
    m, crossings, loops = read_wire(text)
    n = len(over)
    if n**m > guard:
        raise ValueError(f"brute force over {n}^{m} assignments refused")
    return sum(satisfies(crossings, over, under, c)
               for c in itertools.product(range(1, n + 1), repeat=m)) * n**loops


# -- closed forms --------------------------------------------------------------


def torus_count(p: int, n: int) -> int:
    """Col_{R_n}(T(2,p)) = n * gcd(p, n): the Goeritz matrix of T(2,p) is (p)."""
    return n * math.gcd(p, n)


def chain_count(k: int) -> int:
    """Col_{R_4}(chain(2b-1)) = 4^b."""
    return 4 ** ((k + 1) // 2)


def pretzel_count(twists, n: int) -> int:
    """Col_{R_n} of a 3-strand pretzel from its 2x2 Goeritz matrix.

    G = [[p+q, -q], [-q, q+r]] has invariant factors g = gcd(p, q, r) and
    |det G| / g with det G = pq + qr + rp; Fox n-colorings number
    n * gcd(g, n) * gcd(|det G| / g, n).
    """
    p, q, r = twists
    g = math.gcd(p, q, r)
    det = abs(p * q + q * r + r * p)
    return n * math.gcd(g, n) * math.gcd(det // g, n)


def affine_endos(n: int) -> list[tuple[int, ...]]:
    """End(R_n) as the n^2 affine maps x -> a x + b, 1-based image tuples, sorted."""
    return sorted({tuple((a * (x % n) + b) % n or n for x in range(1, n + 1))
                   for a in range(n) for b in range(n)})


def in_degree_coeffs(colorings, endos) -> dict[int, int]:
    """In-degree distribution {degree: vertices} of the quiver on colorings under endos."""
    hits = Counter(tuple(f[x - 1] for x in v) for v in colorings for f in endos)
    return dict(Counter(hits.get(v, 0) for v in colorings))


# -- Alexander quandles over GF(p^k) -------------------------------------------


def _matvec(M, v, p):
    return tuple(sum(M[i][j] * v[j] for j in range(len(v))) % p for i in range(len(M)))


def alexander_tables(p: int, T) -> tuple[list[list[int]], list[list[int]]]:
    """(over, under) tables of x |> y = T x + (1 - T) y on F_p^k, 1-based.

    T is the k x k matrix of multiplication by t in a basis of GF(p^k);
    element vector (a_0, ..., a_{k-1}) has label 1 + sum a_i p^i.
    """
    k = len(T)
    elems = [tuple(v // p**i % p for i in range(k)) for v in range(p**k)]
    label = {e: i + 1 for i, e in enumerate(elems)}
    one_minus_t = [[(int(i == j) - T[i][j]) % p for j in range(k)] for i in range(k)]
    under = [[label[tuple((a + b) % p for a, b in zip(_matvec(T, x, p), _matvec(one_minus_t, y, p)))]
              for y in elems] for x in elems]
    over = [[label[x]] * len(elems) for x in elems]
    return over, under


def rank_mod_p(rows, p: int) -> int:
    """Rank over the field F_p by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank, cols = 0, len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def alexander_count(text: str, p: int, T) -> int:
    """Colorings by the Alexander quandle (F_p^k, T): p^(nullity) of the F_p-linear relations."""
    m, crossings, loops = read_wire(text)
    k = len(T)
    rows = []
    for sign, ui, oi, uo, oo in crossings:
        if sign < 0:
            ui, oi, uo, oo = uo, oo, ui, oi
        # uo = T ui + (1 - T) oi and oo = oi, coordinate by coordinate
        for i in range(k):
            row = [0] * (m * k)
            row[uo * k + i] += 1
            for j in range(k):
                row[ui * k + j] -= T[i][j]
                row[oi * k + j] -= int(i == j) - T[i][j]
            rows.append([v % p for v in row])
            row = [0] * (m * k)
            row[oo * k + i] += 1
            row[oi * k + i] -= 1
            rows.append([v % p for v in row])
    return p ** (m * k - rank_mod_p(rows, p)) * (p**k) ** loops


# -- output checks -------------------------------------------------------------


def check_listing(cols, text: str, over, under, expected: int) -> str | None:
    """A coloring list is sorted, distinct, of the expected size, and every entry colors."""
    if len(cols) != expected:
        return f"listed {len(cols)} colorings, expected {expected}"
    if any(a >= b for a, b in zip(cols, cols[1:])):
        return "listing is not strictly sorted"
    _, crossings, _ = read_wire(text)
    for c in cols:
        if not satisfies(crossings, over, under, c):
            return f"{c} violates a crossing relation"
    return None


def check_seeds(found, components: int, k_max: int, n_strands: int, saturates) -> str | None:
    """min_seed_size output against a saturation oracle saturates(seeds) -> bool.

    Each component needs its own seed, so a link with more components than
    k_max has no answer, and an answer equal to the component count is
    minimal. Otherwise the answer k is minimal when no k-1 strands saturate
    (saturation is monotone in the seed set).
    """
    if components > k_max:
        return None if found is None else f"found {found} but {components} components > k_max {k_max}"
    if found is None:
        return "no seed set found"
    k, witness = found
    if len(witness) != k or not saturates(witness):
        return f"witness {witness} does not saturate"
    if k == components or not any(saturates(c) for c in itertools.combinations(range(n_strands), k - 1)):
        return None
    return f"a set of {k - 1} strands saturates"
