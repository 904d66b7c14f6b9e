"""Time the wire reader, the linear kernel of coloring.py and the quiver map layer by layer.

Usage, from the checkout root:

    python tests/kernel_timing.py [--repeat 7]

Each case is one public call on inputs from the benchmark's slots, or at
the lister's byte boundary: labels fit a byte for |Y| <= 255, where the
columns are bytes, and not for R_256, where they are lists. It runs once
with diagram.parse_pd, coloring._relation_rows, _count_kernel and
_list_kernel and quiver._targets wrapped to record their arguments; then
each of them is timed alone on what it was given, so search and
isomorphism time stay out. The two parse cases read, then count, the
wire text of the count workload's two largest diagrams, unknot(2000)
and T(2,200); their parse_pd lines time the wire reader. A line gives
the calls per case and the best of --repeat runs of all of them, in ms.
The _count_kernel and _list_kernel lines also give the elimination's
traffic, summed over the calls and their prime powers and computed
outside the timed runs: the relation rows given, the unit equalities the
union-find merged, the pivots, and the rows retired without a pivot
(zero, repeated or dependent). The script imports the
biqknot of the checkout it lives in; pytest does not collect it (its
name does not start with test_).
"""

from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biqknot import coloring, diagram, quiver  # noqa: E402
from biqknot.algebra import enumerate_endos, make_dihedral, make_linear_biquandle  # noqa: E402
from biqknot.diagram import chain, serialize_pd, torus_2n, unknot  # noqa: E402

KERNEL = {"parse_pd": diagram, "_relation_rows": coloring, "_count_kernel": coloring,
          "_list_kernel": coloring, "_targets": quiver}  # name -> the module it is looked up in
ELIMINATING = {"_count_kernel", "_list_kernel"}  # each eliminates its (rows, cols, n, ...)


def cases():
    """(name, call) pairs: each call reaches the kernel the way its benchmark slot does."""
    L9, L27 = make_linear_biquandle(9, 1, 0, 8, 2), make_linear_biquandle(27, 1, 0, 26, 2)
    count, listing = coloring.count_colorings, coloring.enumerate_colorings
    build = quiver.build_quiver
    R4, R9 = make_dihedral(4), make_dihedral(9)
    return [
        ("T(2,80) / linear:9,1,0,8,2", lambda d=torus_2n(80): count(d, L9)),
        ("T(2,200) / linear:9,1,0,8,2", lambda d=torus_2n(200): count(d, L9)),
        ("T(2,120) / linear:27,1,0,26,2", lambda d=torus_2n(120): count(d, L27)),
        ("unknot(2000) / R_3", lambda d=unknot(2000): count(d, make_dihedral(3))),
        ("parse, count unknot(2000) / R_3",
         lambda t=serialize_pd(unknot(2000)): count(diagram.parse_pd(t), make_dihedral(3))),
        ("parse, count T(2,200) / L_9",
         lambda t=serialize_pd(torus_2n(200)): count(diagram.parse_pd(t), L9)),
        ("list chain(9) / R_4", lambda d=chain(9): listing(d, R4)),
        ("End(R_27)", lambda: enumerate_endos(make_dihedral(27))),
        ("quiver T(2,9) / End(R_9)", lambda d=torus_2n(9), S=enumerate_endos(R9): build(d, R9, S)),
        ("quiver chain(9) / R_4, x -> 2x", lambda d=chain(9): build(d, R4, [(2, 4, 2, 4)])),
        ("list T(2,15) / R_255, bytes", lambda d=torus_2n(15): listing(d, make_dihedral(255))),
        ("list T(2,16) / R_256, lists", lambda d=torus_2n(16): listing(d, make_dihedral(256))),
    ]


def recorded(call) -> dict[str, list[tuple]]:
    """The arguments of every kernel call that call makes, per kernel function."""
    seen = {name: [] for name in KERNEL}
    saved = {name: getattr(module, name) for name, module in KERNEL.items()}

    def wrap(name):
        def record(*args):
            seen[name].append(args)
            return saved[name](*args)
        return record

    try:
        for name, module in KERNEL.items():
            setattr(module, name, wrap(name))
        call()
    finally:
        for name, fn in saved.items():
            setattr(KERNEL[name], name, fn)
    return seen


def traffic(calls) -> tuple[int, int, int, int]:
    """(rows given, equalities merged, pivots, rows retired) over the calls' eliminations:
    every row given merges, pivots or is retired."""
    given = merged = pivots = 0
    for rows, _, n, *_ in calls:
        for p, k in coloring._prime_powers(n):
            parent, found = coloring._eliminate(rows, p, k)
            given, merged, pivots = given + len(rows), merged + len(parent), pivots + len(found)
    return given, merged, pivots, given - merged - pivots


def best_ms(fn, calls, repeat: int) -> float:
    """Best of repeat runs of fn over every recorded call, in ms per run."""
    timer = timeit.Timer(lambda: [fn(*args) for args in calls])
    number = max(1, int(0.02 / max(timer.timeit(1), 1e-6)))  # about 20 ms per run
    return min(timer.repeat(repeat, number)) / number * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="runs per timing; the best is printed")
    args = ap.parse_args(argv)
    print(f"{'case':32} {'function':15} {'calls':>5} {'best ms':>9}"
          f" {'rows':>6} {'merged':>6} {'pivots':>6} {'retired':>7}")
    for case, call in cases():
        for name, calls in recorded(call).items():
            if calls:
                ms = best_ms(getattr(KERNEL[name], name), calls, args.repeat)
                rows, merged, pivots, retired = traffic(calls) if name in ELIMINATING else ("-",) * 4
                print(f"{case:32} {name:15} {len(calls):5} {ms:9.3f}"
                      f" {rows:>6} {merged:>6} {pivots:>6} {retired:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
