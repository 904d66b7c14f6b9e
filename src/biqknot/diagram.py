"""Oriented virtual link diagrams as signed crossing lists over semiarcs.

A diagram is abstract Gauss data: crossings are 4-valent vertices, each
record naming the semiarcs entering and leaving on the under and over
strands. Virtual crossings are never stored; they impose no coloring
relations, so erasing them loses nothing in this setting.

Wire format, one crossing per line::

    X+ <u_in> <o_in> <u_out> <o_out>
    X- <u_in> <o_in> <u_out> <o_out>
    L <free_loops>                      (optional, crossingless components)
    V <s_in> <t_in> <s_out> <t_out>     (virtual crossing, erased on parse)

Semiarcs are nonnegative integers of any length, read, like L counts,
by _decimal; every id must occur exactly once as an input (u_in/o_in)
and once as an output (u_out/o_out), so semiarcs chain into oriented
closed components. A ``#`` starts a comment.

parse_pd reads the records in bulk and renumbers the ids 0..m-1 in
increasing order; SemiarcDiagram alone checks the semiarc rule, on the
raw records (V read as X+) before virtual crossings are erased; text
that fails is rescanned by _raise_first_error to name its first bad
line. A Crossing is a named tuple, equal to its plain 5-tuple
(sign, u_in, o_in, u_out, o_out); a SemiarcDiagram is one too,
(semiarc_count, crossings, free_loops), checked however it is built,
by its constructor, _make or _replace. Every int argument of the library is
checked by _ints, as every integer read from text is by _decimal.

Crossing relation convention used throughout the library: a positive
crossing imposes u_out = u_in .v o_in and o_out = o_in ." u_in; a
negative crossing imposes the inverse relations u_in = u_out .v o_out
and o_in = o_out ." u_out. The move-invariance tests check this pairing
only on the algebras they run: validate_axioms accepts some non-quandle
tables whose counts change under R1 here (linear:3,1,1,2,0 colors L 1
in 3 ways, torus2:1 in 1).
"""

from __future__ import annotations

import itertools
import sys
from typing import NamedTuple, NoReturn


class DiagramError(ValueError):
    pass


class ParseError(DiagramError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class Crossing(NamedTuple):
    sign: int  # +1 or -1, checked by SemiarcDiagram
    u_in: int
    o_in: int
    u_out: int
    o_out: int


class SemiarcDiagram(NamedTuple("SemiarcDiagram", [
        ("semiarc_count", int), ("crossings", tuple[Crossing, ...]), ("free_loops", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, semiarc_count: int, crossings: tuple[Crossing, ...], free_loops: int = 0):
        self = super().__new__(cls, semiarc_count, crossings, free_loops)
        try:  # None or 5, or an entry that is no 5-field record, is no crossing list
            signs, u_in, o_in, u_out, o_out = zip(*crossings) if len(crossings) else ((),) * 5
        except (TypeError, ValueError):
            raise DiagramError(f"crossings must be crossing records, got {crossings!r}") from None
        sign = "crossing sign must be +1 or -1, got {!r}"  # not 1.0, not True
        if not set(_ints(signs, sign, DiagramError)) <= {1, -1}:
            raise DiagramError(sign.format(next(s for s in signs if s not in (1, -1))))
        ins, outs = u_in + o_in, u_out + o_out
        for values in (semiarc_count, free_loops), ins, outs:  # in this order, no copy
            _ints(values, "semiarc count, ids and free loop count must be integers, got {!r}",
                  DiagramError)
        if semiarc_count < 0:
            raise DiagramError("semiarc count cannot be negative")
        every = list(range(semiarc_count))
        if sorted(ins) != every or sorted(outs) != every:
            self._raise_semiarc_error()
        if free_loops < 0:
            raise DiagramError("free loop count cannot be negative")
        return self

    def _raise_semiarc_error(self):
        """Name the first semiarc out of range, or not consumed or produced exactly once."""
        heads = [0] * self.semiarc_count
        tails = [0] * self.semiarc_count
        for c in self.crossings:
            for s in c[1:]:
                if not 0 <= s < self.semiarc_count:
                    raise DiagramError(f"semiarc {s} out of range 0..{self.semiarc_count - 1}")
            heads[c.u_in] += 1
            heads[c.o_in] += 1
            tails[c.u_out] += 1
            tails[c.o_out] += 1
        for s in range(self.semiarc_count):
            for count, end, verb in ((heads[s], "head", "consumed"), (tails[s], "source", "produced")):
                if count != 1:
                    word = f"no {end}" if count == 0 else f"multiple {end}s"
                    raise DiagramError(f"semiarc {s} has {word} (must be {verb} exactly once)")

    def components(self) -> list[tuple[int, ...]]:
        """Oriented closed components with >= 1 crossing, as semiarc cycles."""
        nxt = [-1] * self.semiarc_count  # nxt[s] continues s through the crossing consuming it
        for c in self.crossings:
            nxt[c.u_in] = c.u_out
            nxt[c.o_in] = c.o_out
        seen = [False] * self.semiarc_count
        comps = []
        for start in range(self.semiarc_count):
            if seen[start]:
                continue
            cycle = []
            s = start
            while not seen[s]:
                seen[s] = True
                cycle.append(s)
                s = nxt[s]
            comps.append(tuple(cycle))
        return comps

    def component_count(self) -> int:
        return len(self.components()) + self.free_loops


# -- wire format ---------------------------------------------------------------


_SIGNS = {"X+": 1, "X-": -1, "V": 0}  # 0: a virtual crossing


class any_int_digits:
    """Lift the interpreter's int/str digit limit inside a with block.

    Ids and counts may have any number of digits. The caller's limit is
    restored on every exit, so in-process callers keep their own.
    """

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


def _decimal(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits only, the rule of every integer reader:
    int() alone would take '+', '_', spaces and other scripts' digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _ints(values, what: str = "", error=ValueError, rows: bool = False):
    """values as a tuple of ints: the rule of every int argument, as _decimal is of every
    integer read from text. Any iterable is read (a set of seeds too), and a bool, float,
    text or other entry is refused: True would pass as 1, 1.0 hash as 1, 2.0 escape as
    TypeError. A refusal raises error(what.format(bad, where)), bad being the first entry
    that is no int and where its position, or values itself and "" if it is no iterable;
    error=None returns None instead. The entries' types are read as one set, so no Python
    loop runs unless one is bad. rows=True reads values as a tuple of tuples, refusing
    only an entry that is no iterable: the caller checks each row's ints."""
    try:
        values = tuple(map(tuple, values)) if rows else tuple(values)
    except TypeError:  # None, 5 or 2.0, or a row that is one
        bad, where = values, ""
    else:
        if rows or set(map(type, values)) <= {int}:
            return values
        bad, where = next((v, i) for i, v in enumerate(values) if type(v) is not int)
    if error:
        raise error(what.format(bad, where))


def parse_pd(text: str) -> SemiarcDiagram:
    """Parse the wire format; validates and canonically renumbers semiarcs."""
    with any_int_digits():
        d = _parse_valid(text)
        if d is None:
            _raise_first_error(text)
    return d


def _parse_valid(text: str) -> SemiarcDiagram | None:
    """The diagram of valid wire text, read in bulk; None if any check fails."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    records = list(filter(None, map(str.split, lines)))
    loops = [r for r in records if r[0] == "L"]
    if loops:
        if not all(len(r) == 2 for r in loops):
            return None
        records = [r for r in records if r[0] != "L"]
    if not set(map(len, records)) <= {5}:
        return None
    tokens = list(itertools.chain.from_iterable(records))
    del lines, records  # only the flat token list holds the text from here on
    signs = list(map(_SIGNS.get, tokens[0::5]))
    if None in signs:
        return None
    del tokens[0::5]
    tokens += [count for _, count in loops]  # the L counts, after the ids
    # _decimal in one pass: int() reads split ASCII text with no '_' or '+' as _decimal does
    joined = "".join(tokens)
    if not joined.isascii() or "_" in joined or "+" in joined:
        return None
    try:
        ids = list(map(int, tokens))
    except ValueError:
        return None
    del tokens, joined
    if min(ids, default=0) < 0:
        return None
    free_loops = sum(ids[4 * len(signs):])
    del ids[4 * len(signs):]
    m = len(ids) // 2  # the semiarc count, if each id is consumed and produced once
    if max(ids, default=-1) != m - 1:  # number the ids 0, 1, ... in increasing order
        relabel = {s: i for i, s in enumerate(sorted(set(ids)))}
        ids = list(map(relabel.__getitem__, ids))

    virtual = 0 in signs
    checked = [sign or 1 for sign in signs] if virtual else signs  # V reads as X+ here
    try:
        d = SemiarcDiagram(m, tuple(map(Crossing._make, zip(
            checked, ids[0::4], ids[1::4], ids[2::4], ids[3::4]))), free_loops)
    except DiagramError:
        return None
    if virtual:
        real = [c for sign, c in zip(signs, d.crossings) if sign]
        virtuals = [c[1:] for sign, c in zip(signs, d.crossings) if not sign]
        relabel, semiarcs, virtual_loops = _erase_virtuals(range(m), real, virtuals)
        d = SemiarcDiagram(semiarcs, tuple(Crossing(c.sign, *map(relabel.__getitem__, c[1:]))
                                           for c in real), free_loops + virtual_loops)
    return d


def _raise_first_error(text: str) -> NoReturn:
    """Raise the ParseError of the first bad line of text that failed a bulk check.

    Reads line by line what _parse_valid and SemiarcDiagram check in bulk,
    so such text always has a bad line: a malformed record, or else a
    semiarc consumed or produced twice, or else dangling semiarcs,
    reported together.
    """
    head_line: dict[int, int] = {}
    tail_line: dict[int, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "L":
            try:
                if len(parts) == 2 and _decimal(parts[1]) >= 0:
                    continue
            except ValueError:
                pass
            raise ParseError("L line takes one nonnegative count", lineno)
        if tag not in ("X+", "X-", "V"):
            raise ParseError(f"unknown record {tag!r}", lineno)
        if len(parts) != 5:
            raise ParseError(f"{tag} line takes four semiarc ids", lineno)
        try:
            ids = [_decimal(p) for p in parts[1:]]
        except ValueError:
            raise ParseError("semiarc ids must be integers", lineno)
        if any(i < 0 for i in ids):
            raise ParseError("semiarc ids must be nonnegative", lineno)
        for pair, seen, verb in ((ids[:2], head_line, "consumed"), (ids[2:], tail_line, "produced")):
            for s in pair:
                if s in seen:
                    raise ParseError(f"semiarc {s} {verb} twice (also line {seen[s]})", lineno)
                seen[s] = lineno

    dangling = sorted((s, f"semiarc {s} has no {end}", seen[s])
                      for seen, other, end in ((head_line, tail_line, "source"),
                                               (tail_line, head_line, "destination"))
                      for s in seen.keys() - other.keys())
    raise ParseError("; ".join(msg for _, msg, _ in dangling), dangling[0][2])


def _erase_virtuals(ids, crossings, virtuals) -> tuple[dict[int, int], int, int]:
    """(id -> semiarc, semiarc count, free loops) once each virtual crossing joins
    its through-going semiarc pairs.

    The joined classes are numbered in increasing order of the id that a
    real crossing consumes at their downstream end (each union puts the
    upstream class under the downstream one, so that id is the root);
    classes touching no real crossing are purely virtual components,
    counted as free loops.
    """
    parent = {s: s for s in ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (s_in, t_in, s_out, t_out) in virtuals:
        for a, b in ((s_in, s_out), (t_in, t_out)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

    rep = {s: find(s) for s in parent}
    used = {rep[s] for crossing in crossings for s in crossing[1:]}
    semiarc = {r: i for i, r in enumerate(sorted(used))}
    return ({s: semiarc[r] for s, r in rep.items() if r in semiarc}, len(used),
            len(set(rep.values()) - used))


def serialize_pd(d: SemiarcDiagram) -> str:
    lines = [f"X{'+' if c.sign > 0 else '-'} {c.u_in} {c.o_in} {c.u_out} {c.o_out}"
             for c in d.crossings]
    if d.free_loops:
        lines.append(f"L {d.free_loops}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- family generators ---------------------------------------------------------


def torus_2n(n: int) -> SemiarcDiagram:
    """Closure of the 2-braid with n positive crossings, T(2, n).

    Semiarc numbering: crossing i has inputs 2i (under) and 2i+1 (over)
    and outputs (2i+3) mod 2n (under) and (2i+2) mod 2n (over).
    """
    _ints([n], "n must be an int, got {!r}", DiagramError)
    if n < 1:
        raise ValueError(f"torus_2n needs n >= 1, got {n}")
    m = 2 * n
    crossings = tuple(Crossing(1, 2 * i, 2 * i + 1, (2 * i + 3) % m, (2 * i + 2) % m)
                      for i in range(n))
    return SemiarcDiagram(m, crossings)


def unknot(kinks: int = 0) -> SemiarcDiagram:
    """An unknot diagram: crossingless loop, or a chain of positive kinks.

    The chain is torus_2n(1) after kinks - 1 calls of apply_r1(d, 0, +1),
    built in one pass.
    """
    _ints([kinks], "kinks must be an int, got {!r}", DiagramError)
    if kinks < 0:
        raise ValueError(f"unknot needs kinks >= 0, got {kinks}")
    if kinks == 0:
        return SemiarcDiagram(0, (), free_loops=1)
    # kink i >= 1 reads semiarc 2i over itself into 2i + 1; every kink is entered
    # by the tail 2i + 3 of the next one, the last kink by semiarc 0
    entry = [2 * i + 3 for i in range(kinks - 1)] + [0]
    crossings = [Crossing(1, entry[0], 1, 1, 0)]
    crossings += [Crossing(1, entry[i], 2 * i, 2 * i, 2 * i + 1) for i in range(1, kinks)]
    return SemiarcDiagram(2 * kinks, tuple(crossings))


_NE, _NW, _SW, _SE = range(4)  # corners in counterclockwise order; port = 4 * crossing + corner


def pretzel(twists) -> SemiarcDiagram:
    """Standard pretzel diagram P(t_1, ..., t_k), signed twist counts.

    Numbering contract, which stored semiarc labels (benchmark slots, golden
    CLI output) rely on:

    - band i is a column of |t_i| crossings, numbered top to bottom after
      those of bands 0..i-1; t_i > 0 puts each crossing's NE-SW strand over,
      t_i < 0 its NW-SE strand;
    - the arcs between crossing corners are listed as: the outer top arc
      into band 0, the top connectors from band i to band i + 1, the arcs
      inside each band, the bottom connectors from band i to band i + 1,
      the outer bottom arc;
    - a zero-twist band passes its two strands straight through: the arcs
      it joins merge into one, which keeps the place and direction of the
      first-listed of them, and a merge that closes without reaching a
      crossing is a free loop (so an all-zero necklace is one free loop
      per band);
    - semiarcs are numbered in traversal order: each component is entered
      by its first-listed arc, in that arc's direction, starting from the
      outer top arc into band 0.
    """
    twists = _ints(twists, "twists[{1}] must be an int, got {0!r}", DiagramError)
    if not twists:
        raise ValueError("pretzel needs at least one band")
    k = len(twists)
    over, first = [], []  # per crossing: is the NE-SW strand over; per band: its top crossing
    for t in twists:
        first.append(len(over))
        over += [t > 0] * abs(t)

    def port(i, c):
        """Band i's port at corner c; a negative junction id when t_i = 0."""
        if not twists[i]:
            return -1 - 2 * i - (c in (_NE, _SE))
        return 4 * (first[i] + (c in (_SW, _SE)) * (abs(twists[i]) - 1)) + c

    arcs = [(port((i - 1) % k, _NE), port(i, _NW)) for i in range(k)]
    arcs += [(4 * ci + lo, 4 * ci + 4 + hi)
             for i, t in enumerate(twists) for ci in range(first[i], first[i] + abs(t) - 1)
             for lo, hi in ((_SW, _NW), (_SE, _NE))]
    arcs += [(port(i, _SE), port((i + 1) % k, _SW)) for i in range(k)]

    # merge the arcs joined at junctions, each into the first-listed arc of its chain
    ends: dict[int, list[tuple[int, int]]] = {}  # junction -> its two (arc, end) places
    for a, arc in enumerate(arcs):
        for e, p in enumerate(arc):
            if p < 0:
                ends.setdefault(p, []).append((a, e))
    merged = [False] * len(arcs)

    def tip(a, e):
        """The port ending arc a's chain beyond its end e; None if the chain closes."""
        while arcs[a][e] < 0:
            a, e = next(x for x in ends[arcs[a][e]] if x != (a, e))
            if merged[a]:  # only the chain's own first arc can be: it closed
                return None
            merged[a] = True
            e = 1 - e
        return arcs[a][e]

    clean, free_loops = [], 0
    for a in range(len(arcs)):
        if not merged[a]:
            merged[a] = True
            head = tip(a, 1)
            if head is None:
                free_loops += 1
            else:
                clean.append((tip(a, 0), head))

    # number semiarcs along each component; a strand leaves a crossing at the
    # port diagonally opposite (port ^ 2) the one it entered by
    ports = 4 * len(over)
    at_arc, label, entered = [0] * ports, [0] * ports, [False] * ports
    for i, (a, b) in enumerate(clean):
        at_arc[a] = at_arc[b] = i
    seen, m = [False] * len(clean), 0
    for j in range(len(clean)):
        src, dst = clean[j]
        while not seen[j]:
            seen[j] = entered[dst] = True
            label[src] = label[dst] = m
            m += 1
            src = dst ^ 2
            j = at_arc[src]
            a, b = clean[j]
            dst = b if a == src else a

    crossings = []
    for ci, anti in enumerate(over):
        o, u = 4 * ci + (_NE if anti else _NW), 4 * ci + (_NW if anti else _NE)
        o_in, u_in = (o if entered[o] else o ^ 2), (u if entered[u] else u ^ 2)
        # positive: the over exit corner is one counterclockwise step past the under exit corner
        sign = 1 if ((o_in ^ 2) - (u_in ^ 2)) % 4 == 1 else -1
        crossings.append(Crossing(sign, label[u_in], label[o_in], label[u_in ^ 2], label[o_in ^ 2]))
    return SemiarcDiagram(m, tuple(crossings), free_loops)


def chain(k: int) -> SemiarcDiagram:
    """Closed chain of k rings (k odd), 2k crossings.

    Ring r owns semiarcs 4r..4r+3: 4r and 4r+1 form the outer strand,
    4r+2 and 4r+3 the inner strand. Ring r passes over ring r+1 with its
    outer strand and over ring r-1 with its inner strand, reproducing
    the outer/inner relation pattern of the chain-link coloring count.
    """
    _ints([k], "k must be an int, got {!r}", DiagramError)
    if k < 3 or k % 2 == 0:
        raise ValueError(f"chain is defined for odd k >= 3, got {k}")
    crossings = []
    for r in range(k):
        p = (r - 1) % k
        # ring r dives under ring p's outer strand, then p dives under r's inner
        crossings.append(Crossing(1, 4 * r + 3, 4 * p, 4 * r, 4 * p + 1))
        crossings.append(Crossing(1, 4 * p + 1, 4 * r + 2, 4 * p + 2, 4 * r + 3))
    return SemiarcDiagram(4 * k, tuple(crossings))


# -- diagram surgery -----------------------------------------------------------


def _replace_head(crossings, target: int, replacement: int):
    """Rewire the input slot consuming `target` to read `replacement`; a checked
    diagram has exactly one, since each caller range-checks `target`."""
    return [c._replace(u_in=replacement) if c.u_in == target
            else c._replace(o_in=replacement) if c.o_in == target else c
            for c in crossings]


def connected_sum(d1: SemiarcDiagram, s1: int, d2: SemiarcDiagram, s2: int
                  ) -> tuple[SemiarcDiagram, dict[int, int]]:
    """Splice semiarc s1 of d1 with semiarc s2 of d2, respecting orientation.

    Returns the summed diagram and the relabeling applied to d2's
    semiarcs. The splice location matters for virtual knots, so both
    semiarcs are explicit arguments.
    """
    _ints([s1], "s1 must be an int, got {!r}", DiagramError)
    _ints([s2], "s2 must be an int, got {!r}", DiagramError)
    if not 0 <= s1 < d1.semiarc_count:
        raise DiagramError(f"semiarc {s1} not in first diagram")
    if not 0 <= s2 < d2.semiarc_count:
        raise DiagramError(f"semiarc {s2} not in second diagram")
    off = d1.semiarc_count
    relabel = {s: s + off for s in range(d2.semiarc_count)}
    shifted = [Crossing(c.sign, c.u_in + off, c.o_in + off, c.u_out + off, c.o_out + off)
               for c in d2.crossings]
    # cut both semiarcs and cross-join: s1 now ends where s2 ended and vice versa
    left = _replace_head(d1.crossings, s1, s2 + off)
    right = _replace_head(shifted, s2 + off, s1)
    return (SemiarcDiagram(d1.semiarc_count + d2.semiarc_count,
                           tuple(left) + tuple(right),
                           d1.free_loops + d2.free_loops),
            relabel)


def apply_r1(d: SemiarcDiagram, semiarc: int, chirality: int) -> SemiarcDiagram:
    """Insert a kink of the given sign on a semiarc (first passage under)."""
    _ints([semiarc], "semiarc must be an int, got {!r}", DiagramError)
    _ints([chirality], "chirality must be an int, got {!r}", DiagramError)
    if not 0 <= semiarc < d.semiarc_count:
        raise DiagramError(f"semiarc {semiarc} not in diagram")
    if chirality not in (1, -1):
        raise DiagramError("chirality must be +1 or -1")
    loop, tail = d.semiarc_count, d.semiarc_count + 1
    crossings = _replace_head(d.crossings, semiarc, tail)
    crossings.append(Crossing(chirality, semiarc, loop, loop, tail))
    return SemiarcDiagram(d.semiarc_count + 2, tuple(crossings), d.free_loops)


def apply_r2(d: SemiarcDiagram, semiarc_a: int, semiarc_b: int,
             variant: str = "parallel") -> SemiarcDiagram:
    """Poke semiarc_a under semiarc_b: two new crossings of opposite sign.

    variant "parallel" threads b through both crossings in its own flow
    direction; "antiparallel" threads it in reverse (b meets the second
    crossing first). The caller asserts the two semiarcs bound a common
    face in the intended embedding; as Gauss data any pair is accepted
    and coloring counts are invariant either way.
    """
    _ints([semiarc_a], "semiarc_a must be an int, got {!r}", DiagramError)
    _ints([semiarc_b], "semiarc_b must be an int, got {!r}", DiagramError)
    if not 0 <= semiarc_a < d.semiarc_count or not 0 <= semiarc_b < d.semiarc_count:
        raise DiagramError("semiarc not in diagram")
    if semiarc_a == semiarc_b:
        raise DiagramError("r2 needs two distinct semiarcs")
    m = d.semiarc_count
    a1, a2, b1, b2 = m, m + 1, m + 2, m + 3
    crossings = _replace_head(d.crossings, semiarc_a, a2)
    crossings = _replace_head(crossings, semiarc_b, b2)
    if variant == "parallel":
        crossings.append(Crossing(1, semiarc_a, semiarc_b, a1, b1))
        crossings.append(Crossing(-1, a1, b1, a2, b2))
    elif variant == "antiparallel":
        crossings.append(Crossing(1, semiarc_a, b1, a1, b2))
        crossings.append(Crossing(-1, a1, semiarc_b, a2, b1))
    else:
        raise DiagramError(f"unknown r2 variant {variant!r}")
    return SemiarcDiagram(m + 4, tuple(crossings), d.free_loops)


# -- strand (maximal overpass) extraction --------------------------------------


class StrandDecomposition(NamedTuple):
    """Partition of semiarcs into strands (maximal overpasses).

    strands(d) cuts each cycle of d.components() after every semiarc
    that passes under; a cycle that never does stays whole, from its
    least semiarc. strands[i] lists strand i's semiarcs in flow order,
    strands numbered by least semiarc; strand_of maps each semiarc to
    its strand. crossing_incidence[c] gives, per crossing, the two
    (adjacent) under-strands and the over-strand; crossings_of[i], its
    inverse, lists those naming strand i, once each and increasing.
    component_of[i] indexes strand i's cycle in d.components().
    """

    strands: tuple[tuple[int, ...], ...]
    strand_of: tuple[int, ...]
    crossing_incidence: tuple[tuple[int, int, int], ...]
    component_of: tuple[int, ...]
    crossings_of: tuple[tuple[int, ...], ...]


def strands(d: SemiarcDiagram) -> StrandDecomposition:
    """Split every component at its undercrossings."""
    goes_under = [False] * d.semiarc_count
    for c in d.crossings:
        goes_under[c.u_in] = True
    found = []  # (path, component)
    for comp, cycle in enumerate(d.components()):
        ends = [i + 1 for i, s in enumerate(cycle) if goes_under[s]] or [0]  # [0]: never under
        found += [(cycle[a:b], comp) for a, b in zip(ends, ends[1:])]
        found.append((cycle[ends[-1]:] + cycle[:ends[0]], comp))  # the strand across the start
    found.sort(key=lambda strand: min(strand[0]))

    strand_of = [-1] * d.semiarc_count
    for i, (path, _) in enumerate(found):
        for s in path:
            strand_of[s] = i
    incidence = tuple((strand_of[c.u_in], strand_of[c.u_out], strand_of[c.o_in])
                      for c in d.crossings)
    crossings_of: list[list[int]] = [[] for _ in found]
    for ci, named in enumerate(incidence):
        for s in set(named):
            crossings_of[s].append(ci)
    paths, component_of = zip(*found) if found else ((), ())
    return StrandDecomposition(paths, tuple(strand_of), incidence, component_of,
                               tuple(map(tuple, crossings_of)))
