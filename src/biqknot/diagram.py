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

Semiarcs are nonnegative integers; every id must occur exactly once as
an input (u_in/o_in) and once as an output (u_out/o_out), so semiarcs
chain into oriented closed components.

Crossing relation convention used throughout the library: a positive
crossing imposes u_out = u_in .v o_in and o_out = o_in ." u_in; a
negative crossing imposes the inverse relations u_in = u_out .v o_out
and o_in = o_out ." u_out. The move-invariance tests certify that this
pairing is self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DiagramError(ValueError):
    pass


class ParseError(DiagramError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass(frozen=True)
class Crossing:
    sign: int  # +1 or -1
    u_in: int
    o_in: int
    u_out: int
    o_out: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DiagramError(f"crossing sign must be +1 or -1, got {self.sign}")

    def inputs(self) -> tuple[int, int]:
        return (self.u_in, self.o_in)

    def outputs(self) -> tuple[int, int]:
        return (self.u_out, self.o_out)


@dataclass(frozen=True)
class SemiarcDiagram:
    semiarc_count: int
    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def __post_init__(self):
        heads = [0] * self.semiarc_count
        tails = [0] * self.semiarc_count
        for c in self.crossings:
            for s in (*c.inputs(), *c.outputs()):
                if not 0 <= s < self.semiarc_count:
                    raise DiagramError(f"semiarc {s} out of range 0..{self.semiarc_count - 1}")
            heads[c.u_in] += 1
            heads[c.o_in] += 1
            tails[c.u_out] += 1
            tails[c.o_out] += 1
        for s in range(self.semiarc_count):
            if heads[s] != 1:
                word = "no head" if heads[s] == 0 else "multiple heads"
                raise DiagramError(f"semiarc {s} has {word} (must be consumed exactly once)")
            if tails[s] != 1:
                word = "no source" if tails[s] == 0 else "multiple sources"
                raise DiagramError(f"semiarc {s} has {word} (must be produced exactly once)")
        if self.free_loops < 0:
            raise DiagramError("free loop count cannot be negative")

    def successor(self) -> list[int]:
        """next[s] = the semiarc continuing s through the crossing that consumes it."""
        nxt = [-1] * self.semiarc_count
        for c in self.crossings:
            nxt[c.u_in] = c.u_out
            nxt[c.o_in] = c.o_out
        return nxt

    def components(self) -> list[tuple[int, ...]]:
        """Oriented closed components with >= 1 crossing, as semiarc cycles."""
        nxt = self.successor()
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


def parse_pd(text: str) -> SemiarcDiagram:
    """Parse the wire format; validates and canonically renumbers semiarcs."""
    crossings: list[tuple[int, int, int, int, int]] = []
    virtuals: list[tuple[int, int, int, int]] = []
    free_loops = 0
    head_line: dict[int, int] = {}
    tail_line: dict[int, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "L":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError("L line takes one nonnegative count", lineno)
            free_loops += int(parts[1])
            continue
        if tag not in ("X+", "X-", "V"):
            raise ParseError(f"unknown record {tag!r}", lineno)
        if len(parts) != 5:
            raise ParseError(f"{tag} line takes four semiarc ids", lineno)
        try:
            ids = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError("semiarc ids must be integers", lineno)
        if any(i < 0 for i in ids):
            raise ParseError("semiarc ids must be nonnegative", lineno)
        a_in, b_in, a_out, b_out = ids
        for s in (a_in, b_in):
            if s in head_line:
                raise ParseError(f"semiarc {s} consumed twice (also line {head_line[s]})", lineno)
            head_line[s] = lineno
        for s in (a_out, b_out):
            if s in tail_line:
                raise ParseError(f"semiarc {s} produced twice (also line {tail_line[s]})", lineno)
            tail_line[s] = lineno
        if tag == "V":
            virtuals.append((a_in, b_in, a_out, b_out))
        else:
            crossings.append((1 if tag == "X+" else -1, a_in, b_in, a_out, b_out))

    dangling = []
    for s in sorted(set(head_line) - set(tail_line)):
        dangling.append((s, f"semiarc {s} has no source", head_line[s]))
    for s in sorted(set(tail_line) - set(head_line)):
        dangling.append((s, f"semiarc {s} has no destination", tail_line[s]))
    if dangling:
        dangling.sort()
        raise ParseError("; ".join(msg for _, msg, _ in dangling), dangling[0][2])

    # erase virtual crossings: each joins its through-going semiarc pairs
    parent = {s: s for s in head_line}

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

    used = set()
    for (_, a_in, b_in, a_out, b_out) in crossings:
        used.update((find(a_in), find(b_in), find(a_out), find(b_out)))

    # classes touching no real crossing are purely-virtual components
    all_classes = {find(s) for s in parent}
    free_loops += len(all_classes - used)

    relabel = {rep: i for i, rep in enumerate(sorted(used))}
    out = tuple(Crossing(sign, relabel[find(a)], relabel[find(b)],
                         relabel[find(c)], relabel[find(d)])
                for sign, a, b, c, d in crossings)
    return SemiarcDiagram(len(used), out, free_loops)


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


# generic builder: unoriented crossings with a declared over-diagonal get
# oriented by traversal, then emitted as signed crossing records

_CCW = ("ne", "nw", "sw", "se")  # compass corners in counterclockwise order
_DIAG = {"nw": "se", "se": "nw", "ne": "sw", "sw": "ne"}

Port = tuple[int, str]


@dataclass
class _Builder:
    over_diags: list[str]  # per crossing: "main" = NW-SE over, "anti" = NE-SW over
    arcs: list[tuple] = field(default_factory=list)  # nodes: ("p", ci, corner) | ("j", label)

    def build(self) -> tuple[SemiarcDiagram, dict[Port, int]]:
        # splice arcs at shared junction nodes (each junction occurs in
        # exactly two arcs) until only port-to-port arcs remain
        changed = True
        arcs = [list(a) for a in self.arcs]
        while changed:
            changed = False
            for i, arc in enumerate(arcs):
                if arc is None:
                    continue
                for endpos in (0, -1):
                    node = arc[endpos]
                    if node[0] != "j":
                        continue
                    for k, other in enumerate(arcs):
                        if other is None or k == i:
                            continue
                        if other[0] == node or other[-1] == node:
                            if other[0] == node:
                                tail = other[1:]
                            else:
                                tail = other[-2::-1]
                            if endpos == 0:
                                arcs[i] = list(reversed(tail)) + arc[1:]
                            else:
                                arcs[i] = arc[:-1] + tail
                            arcs[k] = None
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
        free_loops = 0
        clean: list[tuple[Port, Port]] = []
        for arc in arcs:
            if arc is None:
                continue
            ends = [n for n in (arc[0], arc[-1])]
            if ends[0][0] == "j" and ends[1][0] == "j":
                # a cycle of junctions only: crossingless component
                free_loops += 1
                continue
            if ends[0][0] == "j" or ends[1][0] == "j":
                raise DiagramError("dangling junction in diagram wiring")
            clean.append(((ends[0][1], ends[0][2]), (ends[1][1], ends[1][2])))

        at_port: dict[Port, int] = {}
        for idx, (a, b) in enumerate(clean):
            for p in (a, b):
                if p in at_port:
                    raise DiagramError(f"port {p} used twice")
                at_port[p] = idx
        for ci in range(len(self.over_diags)):
            for corner in _CCW:
                if (ci, corner) not in at_port:
                    raise DiagramError(f"port ({ci}, {corner}) unattached")

        # orient by traversal; semiarc ids in discovery order
        semiarc_of_arc: dict[int, int] = {}
        flow: dict[Port, tuple[str, int]] = {}  # port -> ("in"/"out", semiarc)
        next_id = 0
        for start_idx in range(len(clean)):
            if start_idx in semiarc_of_arc:
                continue
            idx, src, dst = start_idx, *clean[start_idx]
            while idx not in semiarc_of_arc:
                semiarc_of_arc[idx] = next_id
                flow[src] = ("out", next_id)
                flow[dst] = ("in", next_id)
                next_id += 1
                entry = dst
                exit_port = (entry[0], _DIAG[entry[1]])
                idx = at_port[exit_port]
                a, b = clean[idx]
                src, dst = (a, b) if a == exit_port else (b, a)

        crossings = []
        for ci, diag in enumerate(self.over_diags):
            over_ports = ((ci, "nw"), (ci, "se")) if diag == "main" else ((ci, "ne"), (ci, "sw"))
            under_ports = ((ci, "ne"), (ci, "sw")) if diag == "main" else ((ci, "nw"), (ci, "se"))
            (o_in, o_out) = _in_out(flow, over_ports)
            (u_in, u_out) = _in_out(flow, under_ports)
            # positive crossing: the over exit corner is one counterclockwise
            # step past the under exit corner
            sign = 1 if (_CCW.index(o_out[1]) - _CCW.index(u_out[1])) % 4 == 1 else -1
            crossings.append(Crossing(sign, flow[u_in][1], flow[o_in][1],
                                      flow[u_out][1], flow[o_out][1]))
        d = SemiarcDiagram(next_id, tuple(crossings), free_loops)
        port_semiarc = {p: s for p, (_, s) in flow.items()}
        return d, port_semiarc


def _in_out(flow, ports):
    a, b = ports
    if flow[a][0] == "in" and flow[b][0] == "out":
        return a, b
    if flow[b][0] == "in" and flow[a][0] == "out":
        return b, a
    raise DiagramError(f"strand through {a}/{b} has inconsistent flow")


@dataclass(frozen=True)
class PretzelLayout:
    """A pretzel diagram plus the semiarc ids of its documented landmarks.

    top_arcs[i] is the semiarc running over the top into band i (for a
    3-band pretzel these carry the three local maxima of the standard
    height function). band_corners[i] = (nw, ne, sw, se) semiarc ids of
    band i's corner arcs; for a band of m positive twists with top labels
    a = nw, b = ne, a dihedral coloring forces sw = m*b - (m-1)*a and
    se = (m+1)*b - m*a.
    """

    diagram: SemiarcDiagram
    top_arcs: tuple[int, ...]
    band_corners: tuple[tuple[int, int, int, int] | None, ...]


def pretzel_layout(twists) -> PretzelLayout:
    twists = list(twists)
    if not twists:
        raise ValueError("pretzel needs at least one band")
    k = len(twists)
    sizes = [abs(t) for t in twists]
    base = [0] * k
    for i in range(1, k):
        base[i] = base[i - 1] + sizes[i - 1]
    over_diags = []
    for t in twists:
        over_diags.extend(["anti" if t > 0 else "main"] * abs(t))

    def top_l(i):
        return ("p", base[i], "nw") if sizes[i] else ("j", (i, "L"))

    def top_r(i):
        return ("p", base[i], "ne") if sizes[i] else ("j", (i, "R"))

    def bot_l(i):
        return ("p", base[i] + sizes[i] - 1, "sw") if sizes[i] else ("j", (i, "L"))

    def bot_r(i):
        return ("p", base[i] + sizes[i] - 1, "se") if sizes[i] else ("j", (i, "R"))

    b = _Builder(over_diags)
    top_arc_index: list[int] = []
    # arc 0 enters band 0 from the outer top arc; connectors follow in band order
    b.arcs.append((top_r(k - 1), top_l(0)))
    top_arc_index.append(0)
    for i in range(k - 1):
        b.arcs.append((top_r(i), top_l(i + 1)))
        top_arc_index.append(len(b.arcs) - 1)
    for i in range(k):
        for j in range(sizes[i] - 1):
            ci = base[i] + j
            b.arcs.append((("p", ci, "sw"), ("p", ci + 1, "nw")))
            b.arcs.append((("p", ci, "se"), ("p", ci + 1, "ne")))
    for i in range(k - 1):
        b.arcs.append((bot_r(i), bot_l(i + 1)))
    b.arcs.append((bot_r(k - 1), bot_l(0)))

    diagram, port_semiarc = b.build()

    tops = []
    for i, arc_i in enumerate(top_arc_index):
        # semiarc at the band-entry port of that connector (band i's nw stub)
        tgt = top_l(i)
        if tgt[0] == "p":
            tops.append(port_semiarc[(tgt[1], tgt[2])])
        else:
            tops.append(-1)  # zero-twist band: connector merged through
    corners = []
    for i in range(k):
        if sizes[i] == 0:
            corners.append(None)
            continue
        corners.append((port_semiarc[(base[i], "nw")],
                        port_semiarc[(base[i], "ne")],
                        port_semiarc[(base[i] + sizes[i] - 1, "sw")],
                        port_semiarc[(base[i] + sizes[i] - 1, "se")]))
    return PretzelLayout(diagram, tuple(tops), tuple(corners))


def pretzel(twists) -> SemiarcDiagram:
    """Standard pretzel diagram P(t_1, ..., t_k), signed twist counts."""
    return pretzel_layout(twists).diagram


def chain(k: int) -> SemiarcDiagram:
    """Closed chain of k rings (k odd), 2k crossings.

    Ring r owns semiarcs 4r..4r+3: 4r and 4r+1 form the outer strand,
    4r+2 and 4r+3 the inner strand. Ring r passes over ring r+1 with its
    outer strand and over ring r-1 with its inner strand, reproducing
    the outer/inner relation pattern of the chain-link coloring count.
    """
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
    """Rewire the one input slot consuming `target` to read `replacement`."""
    out = []
    done = False
    for c in crossings:
        if not done and c.u_in == target:
            c = Crossing(c.sign, replacement, c.o_in, c.u_out, c.o_out)
            done = True
        elif not done and c.o_in == target:
            c = Crossing(c.sign, c.u_in, replacement, c.u_out, c.o_out)
            done = True
        out.append(c)
    if not done:
        raise DiagramError(f"semiarc {target} has no consumer")
    return out


def connected_sum(d1: SemiarcDiagram, s1: int, d2: SemiarcDiagram, s2: int
                  ) -> tuple[SemiarcDiagram, dict[int, int]]:
    """Splice semiarc s1 of d1 with semiarc s2 of d2, respecting orientation.

    Returns the summed diagram and the relabeling applied to d2's
    semiarcs. The splice location matters for virtual knots, so both
    semiarcs are explicit arguments.
    """
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


@dataclass(frozen=True)
class StrandDecomposition:
    """Partition of semiarcs into maximal overpasses.

    strands[i] lists the semiarcs of strand i in flow order. strand_of
    maps each semiarc to its strand. crossing_incidence[c] gives, per
    crossing, the two (adjacent) under-strands and the over-strand.
    """

    strands: tuple[tuple[int, ...], ...]
    strand_of: tuple[int, ...]
    crossing_incidence: tuple[tuple[int, int, int], ...]


def strands(d: SemiarcDiagram) -> StrandDecomposition:
    """Split every component at its undercrossings."""
    over_next = {}
    over_prev = {}
    for c in d.crossings:
        over_next[c.o_in] = c.o_out
        over_prev[c.o_out] = c.o_in

    strand_of = [-1] * d.semiarc_count
    paths: list[tuple[int, ...]] = []
    for s in range(d.semiarc_count):
        if strand_of[s] != -1:
            continue
        # rewind to the start of the overpass, watching for all-over cycles
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
        idx = len(paths)
        for p in path:
            strand_of[p] = idx
        paths.append(tuple(path))

    incidence = tuple((strand_of[c.u_in], strand_of[c.u_out], strand_of[c.o_in])
                      for c in d.crossings)
    return StrandDecomposition(tuple(paths), tuple(strand_of), incidence)
