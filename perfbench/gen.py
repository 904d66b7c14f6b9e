"""Seeded workload inputs with their reference values.

A workload is a fixed template of slots. Each slot fixes an input (a
family, its parameters, an algebra); the seed and the pass pick how it
is written: the crossing order always, the endomorphisms and small
parameter jitter, and the semiarc labels where the cost does not hinge
on them (count's tori, chains and Alexander-quandle slots). Pretzels,
R1/R2-moved copies and the invariants slots keep their labels and
moves: those move the search costs by 4x to 20x. Sizes and costs are
thus alike on every seed, and run-to-run spread reflects the program.

The program sees only wire-format text and algebra specs. The library
is used here to build base diagrams and apply moves; every expected
value comes from verify.py or from a second route recorded per slot.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import verify

# Alexander quandles x |> y = t x + (1 - t) y: GF(4) with t = w (w^2 = w + 1)
# and GF(9) with t = 1 + i (i^2 = -1), as (p, matrix of multiplication by t)
GF4 = (2, ((0, 1), (1, 1)))
GF9 = (3, ((1, 2), (1, 1)))

REPRO_ITEMS = ("01-algebra-validation", "02-torus-z-16", "03-snf-path", "04-chain-counts",
               "05-quiver-separation-a", "06-pretzel-granny-counts", "07-quiver-separation-b",
               "08-determinant-battery", "09-column-enhancement", "10-taniguchi-spot-check",
               "11-bridge-machinery", "12-move-invariance")
KNOWN_RED = {"01-algebra-validation", "09-column-enhancement"}
REPRO_SUBSETS = {
    "count": ("01-algebra-validation", "02-torus-z-16", "03-snf-path", "04-chain-counts",
              "06-pretzel-granny-counts", "08-determinant-battery"),
    "invariants": ("05-quiver-separation-a", "07-quiver-separation-b", "09-column-enhancement",
                   "10-taniguchi-spot-check", "11-bridge-machinery", "12-move-invariance"),
    "repro-cli": None,  # run_items() over all twelve
}
CLI_GROUPS = {
    "count": ("color.count", "color.list", "color.matrix", "diagram.gen",
              "diagram.validate", "knots.list"),
    "invariants": ("enhance.colgroup", "quiver.indeg", "quiver.build", "quiver.iso",
                   "bridge.seeds", "bridge.lower", "repro.item"),
}
CLI_GROUPS["repro-cli"] = CLI_GROUPS["count"] + CLI_GROUPS["invariants"]


@dataclass(frozen=True)
class Op:
    name: str       # template slot
    kind: str       # entry point the op drives (see ops.KINDS)
    args: tuple     # wire-format texts, algebra keys and parameters
    expected: object
    known_limit: str | None = None  # exception type of a documented Python-limit defect


def table_text(over, under) -> str:
    rows = [" ".join(map(str, r)) for r in over] + [""] + [" ".join(map(str, r)) for r in under]
    return f"{len(over)}\n" + "\n".join(rows) + "\n"


def algebra_specs(workload: str) -> dict[str, tuple]:
    """Algebra key -> spec the program builds: ("dihedral", n), ("linear", params) or ("table", text)."""
    if workload == "count":
        specs = {f"R{n}": ("dihedral", n) for n in (3, 4, 5, 7, 9, 11, 27)}
        specs.update({f"L{n}": ("linear", (n, 1, 0, n - 1, 2)) for n in (3, 5, 7, 9, 27)})
        specs["Z"] = ("linear", (4, 3, 0, 1, 2))
        specs["GF4"] = ("table", table_text(*verify.alexander_tables(*GF4)))
        specs["GF9"] = ("table", table_text(*verify.alexander_tables(*GF9)))
        return specs
    if workload == "invariants":
        specs = {f"R{n}": ("dihedral", n) for n in (3, 4, 5, 6, 9, 12, 16, 27)}
        specs["Z"] = ("linear", (4, 3, 0, 1, 2))
        return specs
    if workload == "repro-cli":
        # what the quick-start commands build in their own processes
        return {"Z": ("linear", (4, 3, 0, 1, 2)), "R3": ("dihedral", 3),
                "R4": ("dihedral", 4), "R9": ("dihedral", 9)}
    raise KeyError(workload)


def build_algebra(bq, spec):
    kind, value = spec
    if kind == "dihedral":
        return bq.algebra.make_dihedral(value)
    if kind == "linear":
        return bq.algebra.make_linear_biquandle(*value)
    return bq.algebra.parse_biquandle(value)


# -- writing diagrams ------------------------------------------------------------


def wire(d, rng: random.Random, relabel: bool = True) -> str:
    """Wire text of d with a seeded crossing order and, if relabel, seeded semiarc labels."""
    perm = list(range(d.semiarc_count))
    if relabel:
        rng.shuffle(perm)
    lines = [f"X{'+' if c.sign > 0 else '-'} {perm[c.u_in]} {perm[c.o_in]} "
             f"{perm[c.u_out]} {perm[c.o_out]}" for c in d.crossings]
    rng.shuffle(lines)
    if d.free_loops:
        lines.append(f"L {d.free_loops}")
    return "\n".join(lines) + "\n"


def moved(bq, d, key: str, moves: int = 2):
    """d after R1/R2 moves drawn from key; every coloring invariant is unchanged.

    Where the moves land changes the coloring search's cost by up to 20x,
    so they depend on the slot, not on the seed.
    """
    D, rng = bq.diagram, random.Random(key)
    for _ in range(moves):
        if rng.random() < 0.5:
            d = D.apply_r1(d, rng.randrange(d.semiarc_count), rng.choice((1, -1)))
        else:
            a, b = rng.sample(range(d.semiarc_count), 2)
            d = D.apply_r2(d, a, b, rng.choice(("parallel", "antiparallel")))
    return d


def affine(n: int, rng: random.Random) -> tuple[int, ...]:
    """A seeded non-constant, non-identity endomorphism x -> a x + b of R_n."""
    a, b = rng.randrange(2, n), rng.randrange(n)
    return tuple((a * (x % n) + b) % n or n for x in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def _unknot(bq, kinks: int):
    return bq.diagram.unknot(kinks)  # quadratic in kinks: built once per process


def scale(n: int, a: int) -> tuple[int, ...]:
    return tuple((a * x - 1) % n + 1 for x in range(1, n + 1))


# -- workload templates ----------------------------------------------------------


def ops_for(workload: str, seed: int, pass_index: int, bq, knots, algebras) -> list[Op]:
    """The ops of one pass: the workload's fixed template, written from (seed, pass).

    Every pass has the same slots in the same order; each pass writes
    them afresh, so a slot's median over passes also averages over how
    its input is written.
    """
    if workload == "repro-cli":  # nothing to write afresh: the seed orders the commands
        return _repro_cli_ops(random.Random(f"{workload}/{seed}"))
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return {"count": _count_ops, "invariants": _invariant_ops}[workload](bq, rng, knots, algebras)


def _count_ops(bq, rng, knots, algebras) -> list[Op]:
    D = bq.diagram
    ops: list[Op] = []

    def add(name, kind, d, alg, expected, known_limit=None, relabel=True):
        ops.append(Op(name, kind, (wire(d, rng, relabel), alg), expected, known_limit))

    # enumeration route near its cliffs: Col_{R_4}(chain(2b-1)) = 4^b
    for k in (13, 11, 9, 7, 5):
        add(f"chain{k}.R4", "count", D.chain(k), "R4", verify.chain_count(k))
    # a valid input that hits the recursion limit of the coloring search today
    add("unknot2000.R3", "count", _unknot(bq, 2000), "R3", 3, "RecursionError", relabel=False)
    # linear route (what `color matrix` runs): SNF on T(2,p) near 200 and 120, then seven
    # copies of T(2,80) that hold the 90th percentile of op times (ranks 8 to 14 from the top)
    for n, base in ((9, 200), (27, 120)):
        p = base + rng.randint(-2, 2)
        add(f"torus{base}.L{n}", "snf", D.torus_2n(p), f"L{n}", verify.torus_count(p, n))
    for copy in "abcdefg":
        add(f"torus80.L9.{copy}", "snf", D.torus_2n(80), "L9", verify.torus_count(80, 9))
    # pretzels over R_27 and R_9: Fox colorings from the 2x2 Goeritz matrix. Their search
    # cost moves 4x with the semiarc labels, so these and the moved copies keep theirs.
    for tw, n in (((9, 4, 9), 27), ((9, 6, 9), 27), ((9, 2, 9), 9), ((3, 3, 3), 9), ((5, 3, 3), 9),
                  ((7, 2, 7), 9), ((3, 5, 7), 9), ((2, 3, 9), 9), ((9, 3, 3), 9), ((5, 5, 5), 9)):
        add(f"p{''.join(map(str, tw))}.R{n}", "count", D.pretzel(list(tw)), f"R{n}",
            verify.pretzel_count(tw, n), relabel=False)
    # T(2,p) over R_n by enumeration, and through SNF on the dihedral-as-linear tag
    for p in (5, 9, 15, 21, 27, 33):
        for n in (3, 5, 7, 9, 11):
            add(f"torus{p}.R{n}", "count", D.torus_2n(p), f"R{n}", verify.torus_count(p, n))
    for p in (10, 20, 30, 40):
        for n in (3, 5, 7, 9):
            add(f"torus{p}.L{n}", "snf", D.torus_2n(p), f"L{n}", verify.torus_count(p, n))
    # R1/R2-moved copies count like the original
    for p, n in ((9, 9), (15, 5), (21, 3), (11, 11), (25, 5), (27, 3), (7, 7), (35, 7)):
        add(f"moved.torus{p}.R{n}", "count", moved(bq, D.torus_2n(p), f"torus{p}"), f"R{n}",
            verify.torus_count(p, n), relabel=False)
    for tw, n in (((3, 3, 3), 9), ((5, 3, 3), 3), ((7, 2, 7), 7), ((3, 3, 3), 3)):
        add(f"moved.p{''.join(map(str, tw))}.L{n}", "snf", moved(bq, D.pretzel(list(tw)), f"p{tw}"),
            f"L{n}", verify.pretzel_count(tw, n), relabel=False)
    # the non-linear biquandle Z: Col_Z(T(2,4k)) = 16
    for k in range(1, 9):
        add(f"torus{4 * k}.Z", "count", D.torus_2n(4 * k), "Z", 16)
    # Alexander quandles given as tables go through the search; reference is F_p linear algebra
    for alg, gf in (("GF4", GF4), ("GF9", GF9)):
        for name, d in (("torus6", D.torus_2n(6)), ("torus8", D.torus_2n(8)), ("chain5", D.chain(5)),
                        ("p333", D.pretzel([3, 3, 3])), ("knot9_24", knots["9_24"].diagram),
                        ("moved.knot7_2", moved(bq, knots["7_2"].diagram, "7_2"))):
            text = wire(d, rng, relabel=not name.startswith(("p", "moved")))
            ops.append(Op(f"{name}.{alg}", "count", (text, alg), verify.alexander_count(text, *gf)))
    return ops


def _invariant_ops(bq, rng, knots, algebras) -> list[Op]:
    D = bq.diagram
    granny, _ = D.connected_sum(D.torus_2n(3), 0, D.torus_2n(3), 0)
    sum44, _ = D.connected_sum(D.torus_2n(4), 0, D.torus_2n(4), 0)
    k = {name: rec.diagram for name, rec in knots.items()}
    det = {name: rec.determinant for name, rec in knots.items()}
    ops: list[Op] = []

    def text(d):  # labels kept: listings, quivers and the seed search all hinge on them
        return wire(d, rng, relabel=False)

    # listings: sorted, distinct, every entry a coloring, as many as the closed form says
    listings = [("p929.R9", D.pretzel([9, 2, 9]), "R9", verify.pretzel_count((9, 2, 9), 9)),
                ("p333.R9", D.pretzel([3, 3, 3]), "R9", verify.pretzel_count((3, 3, 3), 9)),
                ("chain7.R4", D.chain(7), "R4", verify.chain_count(7)),
                ("chain5.R4", D.chain(5), "R4", verify.chain_count(5)),
                ("torus4.Z", D.torus_2n(4), "Z", 16), ("torus12.Z", D.torus_2n(12), "Z", 16)]
    listings += [(f"torus{p}.R{n}", D.torus_2n(p), f"R{n}", verify.torus_count(p, n))
                 for p, n in ((9, 9), (15, 5), (12, 6), (16, 4), (27, 3), (27, 9))]
    listings += [("p555.R5", D.pretzel([5, 5, 5]), "R5", verify.pretzel_count((5, 5, 5), 5))]
    listings += [(f"knot{name}.R{n}", k[name], f"R{n}", n * math.gcd(det[name], n))
                 for name, n in (("9_24", 9), ("6_1", 9), ("5_2", 5), ("8_1", 3), ("7_2", 6),
                                 ("9_1", 9), ("5_1", 5))]
    for name, d, alg, count in listings:
        ops.append(Op(f"list.{name}", "enumerate", (text(d), alg), count))
    # End(R_n) is the n^2 affine maps
    for n in (27, 16, 12, 9, 6, 5, 4, 3):
        ops.append(Op(f"endos.R{n}", "endos", (f"R{n}",), verify.affine_endos(n)))

    # in-degree polynomials: the published separated values, then seeded endomorphisms
    # and all of End, each against in-degrees counted here from a checked listing
    def indeg(name, d, alg, endos, expected=None, count=None):
        wired = text(d)
        if expected is None:
            Y = algebras[alg]
            cols = bq.coloring.enumerate_colorings(bq.diagram.parse_pd(wired), Y)
            bad = verify.check_listing(cols, wired, Y.over_table, Y.under_table, count)
            if bad:
                raise AssertionError(f"reference listing for {name}: {bad}")
            expected = verify.in_degree_coeffs(cols, endos)
        ops.append(Op(f"indeg.{name}", "indeg", (wired, alg, tuple(endos)), expected))

    indeg("granny.R9", granny, "R9", [scale(9, 3)], {0: 78, 27: 3})
    indeg("p929.R9", D.pretzel([9, 2, 9]), "R9", [scale(9, 3)], {0: 72, 9: 9})
    indeg("p949.R9", D.pretzel([9, 4, 9]), "R9", [scale(9, 3)], {0: 72, 9: 9})
    indeg("torus4.R4", D.torus_2n(4), "R4", [scale(4, 2)], {0: 12, 4: 4})
    indeg("sum44.R4", sum44, "R4", [scale(4, 2)], {0: 56, 8: 8})
    indeg("chain3.R4", D.chain(3), "R4", [scale(4, 2)], {0: 14, 8: 2})
    indeg("chain5.R4", D.chain(5), "R4", [scale(4, 2)], {0: 62, 32: 2})
    tc, pc = verify.torus_count, verify.pretzel_count
    for name, d, n, count in (("moved.chain7", moved(bq, D.chain(7), "chain7", 1), 4, verify.chain_count(7)),
                              ("torus9", D.torus_2n(9), 9, tc(9, 9)),
                              ("p333", D.pretzel([3, 3, 3]), 9, pc((3, 3, 3), 9)),
                              ("knot9_24", k["9_24"], 9, 9 * math.gcd(det["9_24"], 9)),
                              ("knot6_1", k["6_1"], 9, 9 * math.gcd(det["6_1"], 9)),
                              ("torus12", D.torus_2n(12), 6, tc(12, 6)),
                              ("torus16", D.torus_2n(16), 4, tc(16, 4)),
                              ("moved.knot7_2", moved(bq, k["7_2"], "7_2"), 6, 6 * math.gcd(det["7_2"], 6)),
                              ("moved.p929", moved(bq, D.pretzel([9, 2, 9]), "p929"), 9, pc((9, 2, 9), 9)),
                              ("torus15", D.torus_2n(15), 5, tc(15, 5))):
        indeg(f"{name}.R{n}", d, f"R{n}", [affine(n, rng), affine(n, rng)], count=count)
    for name, d, n, count in (("chain5", D.chain(5), 4, verify.chain_count(5)),
                              ("knot6_1", k["6_1"], 6, 6 * math.gcd(det["6_1"], 6)),
                              ("torus5", D.torus_2n(5), 5, tc(5, 5)), ("torus9", D.torus_2n(9), 9, tc(9, 9)),
                              ("knot8_1", k["8_1"], 3, 3 * math.gcd(det["8_1"], 3)),
                              ("torus6", D.torus_2n(6), 6, tc(6, 6)),
                              ("knot9_24", k["9_24"], 9, 9 * math.gcd(det["9_24"], 9))):
        indeg(f"{name}.R{n}.End", d, f"R{n}", verify.affine_endos(n), count=count)

    # isomorphism: moved copies are isomorphic, the published pairs are separated
    def iso(name, d1, d2, alg, endos, expected, known_limit=None):
        ops.append(Op(f"iso.{name}", "iso", (text(d1), text(d2), alg, tuple(endos)),
                      expected, known_limit))

    for name, d, n, endos in (("chain7", D.chain(7), 4, [scale(4, 2)]),
                              ("chain5", D.chain(5), 4, [scale(4, 2)]),
                              ("p929", D.pretzel([9, 2, 9]), 9, [scale(9, 3)]),
                              ("knot9_24", k["9_24"], 9, [scale(9, 3)]),
                              ("knot7_2.End", k["7_2"], 6, verify.affine_endos(6)),
                              ("torus12.End", D.torus_2n(12), 4, verify.affine_endos(4)),
                              ("p333", D.pretzel([3, 3, 3]), 9, [scale(9, 3)])):
        iso(f"{name}.R{n}", d, moved(bq, d, name), f"R{n}", endos, True)
    iso("sum44-chain5.R4", sum44, D.chain(5), "R4", [scale(4, 2)], False)
    iso("torus4-chain3.R4", D.torus_2n(4), D.chain(3), "R4", [scale(4, 2)], False)
    iso("p929-granny.R9", D.pretzel([9, 2, 9]), granny, "R9", [scale(9, 3)], False)
    iso("p949-granny.R9", D.pretzel([9, 4, 9]), granny, "R9", [scale(9, 3)], False)
    iso("granny-p929.R9", granny, moved(bq, D.pretzel([9, 2, 9]), "p929"), "R9", [scale(9, 3)], False)
    # 1024 vertices, under the library's 2000-vertex guard: the backtrack recursion overflows today
    iso("chain9.R4", D.chain(9), moved(bq, D.chain(9), "chain9"), "R4", [scale(4, 2)], True, "RecursionError")

    # column group enhancement: the published value, then R1/R2 invariance
    published = {18: 54, 6: 18, 2: 9}
    for name, d in (("knot6_1", k["6_1"]), ("knot9_24", k["9_24"]), ("p929", D.pretzel([9, 2, 9])),
                    ("moved.knot6_1", moved(bq, k["6_1"], "6_1")),
                    ("moved.p929", moved(bq, D.pretzel([9, 2, 9]), "p929"))):
        ops.append(Op(f"colgroup.{name}.R9", "colgroup", (text(d), "R9"), published))
    for name, d, alg in (("p333", D.pretzel([3, 3, 3]), "R9"), ("torus9", D.torus_2n(9), "R9"),
                         ("knot6_1", k["6_1"], "R3"), ("knot9_1", k["9_1"], "R9"),
                         ("knot5_2", k["5_2"], "R5"), ("torus12", D.torus_2n(12), "R6"),
                         ("chain5", D.chain(5), "R4"), ("knot7_2", k["7_2"], "R12"),
                         ("torus15", D.torus_2n(15), "R5"), ("knot4_1", k["4_1"], "R5")):
        expected = bq.enhance.column_group_polynomial(d, algebras[alg]).coeffs
        ops.append(Op(f"colgroup.moved.{name}.{alg}", "colgroup",
                      (text(moved(bq, d, name)), alg), dict(expected)))

    # seed search; chain(7) has more components than k_max, so the search is exhaustive
    seeds = [(f"knot{name}", k[name], 1) for name in knots]
    seeds += [(f"torus{p}", D.torus_2n(p), 1) for p in (3, 11, 21, 31)]
    seeds += [(f"torus{p}", D.torus_2n(p), 2) for p in (4, 12)]
    seeds += [("chain3", D.chain(3), 3), ("chain5", D.chain(5), 5), ("chain7", D.chain(7), 7),
              ("p333", D.pretzel([3, 3, 3]), 1), ("moved.knot5_2", moved(bq, k["5_2"], "5_2"), 1)]
    for name, d, components in seeds:
        ops.append(Op(f"seeds.{name}", "seeds", (text(d), 6), components))
    return ops


def _repro_cli_ops(rng) -> list[Op]:
    # eight copies of each command, so that the latency tail has enough samples; the seed
    # orders them, and every pass of a run repeats that order
    keys = [key for _ in range(8) for key in CLI_GROUPS["repro-cli"]]
    rng.shuffle(keys)
    return [Op("repro.all", "repro", (None,), KNOWN_RED)] + [Op(f"cli.{k}", "cli", (k,), None) for k in keys]


def extra_ops(workload: str) -> list[Op]:
    """Paths run once per pass beside the loop of count and invariants: their repro items and CLI calls."""
    if workload == "repro-cli":
        return []
    names = REPRO_SUBSETS[workload]
    return ([Op("repro.subset", "repro", (names,), KNOWN_RED & set(names))]
            + [Op(f"cli.{key}", "cli", (key,), None) for key in CLI_GROUPS[workload]])

