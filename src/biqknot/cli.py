"""Command line interface wiring all modules together.

Diagram arguments accept a file path (wire format), a bundled knot as
``knot:NAME``, or a generator spec: ``torus2:N``, ``pretzel:T1,T2,...``,
``chain:K``. Algebra arguments accept a file path (biquandle text
format) or ``dihedral:N`` / ``linear:N,A,B,C,D``.

Exit status: 0 on success (and on an all-pass repro run), 1 on a
computational failure (invalid table, failed repro item), 2 on usage
errors. Output is byte-stable across runs; timings are opt-in.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import algebra, bridge, coloring, diagram, enhance, knots, quiver, repro


class UsageError(ValueError):
    pass


def load_diagram(spec: str) -> diagram.SemiarcDiagram:
    kind, _, rest = spec.partition(":")
    if kind == "knot":
        return knots.builtin_knot(rest).diagram
    if kind == "torus2":
        return diagram.torus_2n(int(rest))
    if kind == "pretzel":
        return diagram.pretzel([int(t) for t in rest.split(",")])
    if kind == "chain":
        return diagram.chain(int(rest))
    try:
        with open(spec) as fh:
            return diagram.parse_pd(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read diagram {spec!r}: {e}")


def load_biquandle(spec: str) -> algebra.FiniteBiquandle:
    kind, _, rest = spec.partition(":")
    if kind == "dihedral":
        return algebra.make_dihedral(int(rest))
    if kind == "linear":
        n, a, b, c, d = (int(v) for v in rest.split(","))
        return algebra.make_linear_biquandle(n, a, b, c, d)
    try:
        with open(spec) as fh:
            return algebra.parse_biquandle(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read biquandle {spec!r}: {e}")


def parse_endo_arg(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def endo_set(Y, args) -> list[tuple[int, ...]]:
    if getattr(args, "all_endos", False):
        return algebra.enumerate_endos(Y)
    if getattr(args, "endo", None):
        return [parse_endo_arg(e) for e in args.endo]
    return [tuple(Y.elements())]  # identity by default


def emit(args, human_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# -- subcommand handlers --------------------------------------------------------


def cmd_algebra(args) -> int:
    if args.action == "dihedral":
        print(algebra.serialize_biquandle(algebra.make_dihedral(args.n)), end="")
        return 0
    if args.action == "linear":
        biq = algebra.make_linear_biquandle(args.n, args.a, args.b, args.c, args.d)
        print(algebra.serialize_biquandle(biq), end="")
        return 0
    if args.action == "validate":
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(str(e))
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        n = int(lines[0])
        rows = [ln for ln in lines[1:] if ln]
        over = [[int(v) for v in ln.split()] for ln in rows[:n]]
        under = [[int(v) for v in ln.split()] for ln in rows[n:]]
        report = algebra.validate_axioms(over, under)
        if not report:
            emit(args, ["valid biquandle"], {"valid": True, "violations": []})
            return 0
        emit(args, [str(v) for v in report],
             {"valid": False, "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                                             for v in report]})
        return 1
    if args.action == "endos":
        Y = load_biquandle(args.file)
        for f in algebra.enumerate_endos(Y):
            print(" ".join(map(str, f)))
        return 0
    raise UsageError(f"unknown algebra action {args.action!r}")


def cmd_diagram(args) -> int:
    if args.action == "gen":
        kind = args.params[0]
        if kind == "torus2":
            d = diagram.torus_2n(int(args.params[1]))
        elif kind == "pretzel":
            d = diagram.pretzel([int(t) for t in args.params[1].split(",")])
        elif kind == "chain":
            d = diagram.chain(int(args.params[1]))
        else:
            raise UsageError(f"unknown generator {kind!r} (torus2|pretzel|chain)")
        print(diagram.serialize_pd(d), end="")
        return 0
    if args.action == "validate":
        try:
            d = load_diagram(args.params[0])
        except diagram.DiagramError as e:
            emit(args, [f"invalid: {e}"], {"valid": False, "error": str(e)})
            return 1
        emit(args, [f"valid: {len(d.crossings)} crossings, {d.semiarc_count} semiarcs, "
                    f"{d.component_count()} components"],
             {"valid": True, "crossings": len(d.crossings),
              "semiarcs": d.semiarc_count, "components": d.component_count()})
        return 0
    if args.action == "sum":
        d1 = load_diagram(args.params[0])
        d2 = load_diagram(args.params[2])
        s, _ = diagram.connected_sum(d1, int(args.params[1]), d2, int(args.params[3]))
        print(diagram.serialize_pd(s), end="")
        return 0
    if args.action == "strands":
        d = load_diagram(args.params[0])
        dec = diagram.strands(d)
        lines = [f"strand {i}: {' '.join(map(str, path))}"
                 for i, path in enumerate(dec.strands)]
        lines += [f"crossing {ci}: under {u} -> {v}, over {o}"
                  for ci, (u, v, o) in enumerate(dec.crossing_incidence)]
        emit(args, lines, {"strands": [list(p) for p in dec.strands],
                           "crossing_incidence": [list(t) for t in dec.crossing_incidence]})
        return 0
    raise UsageError(f"unknown diagram action {args.action!r}")


def cmd_color(args) -> int:
    if not args.params:
        raise UsageError(f"color {args.action} needs a diagram argument")
    d = load_diagram(args.params[0])
    if args.action in ("count", "list"):
        if len(args.params) != 2:
            raise UsageError(f"color {args.action} <pd> <biquandle>")
        Y = load_biquandle(args.params[1])
        if args.action == "count":
            count = coloring.count_colorings(d, Y)
            emit(args, [str(count)], {"count": count})
            return 0
        cols = coloring.enumerate_colorings(d, Y)
        if args.table:
            header = "\t".join(str(s) for s in range(d.semiarc_count))
            lines = [header] + ["\t".join(map(str, c)) for c in cols]
        else:
            lines = [" ".join(map(str, c)) for c in cols]
        if d.free_loops:
            lines.append(f"# free loops contribute a factor {Y.size}^{d.free_loops}")
        emit(args, lines, {"colorings": [list(c) for c in cols],
                           "free_loops": d.free_loops})
        return 0
    if args.action == "matrix":
        if len(args.params) != 6:
            raise UsageError("color matrix <pd> <n> <a> <b> <c> <d>")
        n, a, b, c, dd = (int(v) for v in args.params[1:])
        Y = algebra.make_linear_biquandle(n, a, b, c, dd)
        m = coloring.coloring_matrix(d, Y)
        solutions = coloring.count_solutions_snf(m)
        lines = [" ".join(map(str, row)) for row in m.rows]
        lines.append(f"# solutions mod {m.modulus}: {solutions}")
        emit(args, lines, {"rows": [list(r) for r in m.rows], "modulus": m.modulus,
                           "cols": m.cols, "solutions": solutions})
        return 0
    raise UsageError(f"unknown color action {args.action!r}")


def quiver_payload(q) -> dict:
    return {"vertices": [list(v) for v in q.vertices],
            "edges": [list(e) for e in q.edges],
            "endos": [list(f) for f in q.endos]}


def cmd_quiver(args) -> int:
    if args.action == "iso":
        qa = _load_quiver_dump(args.pd)
        qb = _load_quiver_dump(args.alg)
        result = quiver.quivers_isomorphic(qa, qb)
        emit(args, ["isomorphic" if result else "not isomorphic"], {"isomorphic": result})
        return 0
    d = load_diagram(args.pd)
    Y = load_biquandle(args.alg)
    q = quiver.build_quiver(d, Y, endo_set(Y, args))
    if args.action == "build":
        emit(args, [f"vertices {len(q.vertices)}",
                    f"edges {len(q.edges)}"]
             + [f"{s} -> {t} [{k}]" for s, t, k in q.edges],
             quiver_payload(q))
        return 0
    if args.action == "indeg":
        poly = quiver.in_degree_polynomial(q)
        emit(args, [str(poly)], {"in_degree_polynomial": str(poly),
                                 "coefficients": {str(e): c for e, c in poly.coeffs.items()}})
        return 0
    raise UsageError(f"unknown quiver action {args.action!r}")


def _load_quiver_dump(path: str) -> quiver.ColoringQuiver:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read quiver dump {path!r}: {e}")
    return quiver.ColoringQuiver(tuple(tuple(v) for v in data["vertices"]),
                                 tuple(tuple(e) for e in data["edges"]),
                                 tuple(tuple(f) for f in data["endos"]))


def cmd_bridge(args) -> int:
    d = load_diagram(args.pd)
    if args.action == "seeds":
        found = bridge.min_seed_size(d, args.kmax)
        if found is None:
            emit(args, [f"no saturating seed set of size <= {args.kmax}"],
                 {"found": False, "k_max": args.kmax})
            return 0
        k, witness = found
        report = bridge.wirtinger_saturate(d, witness)
        lines = [f"min seeds: {k}", f"witness strands: {' '.join(map(str, witness))}"]
        lines += [f"move: crossing {ci} colors strand {s}" for ci, s in report.sequence]
        emit(args, lines, {"found": True, "min_seeds": k, "witness": list(witness),
                           "sequence": [list(step) for step in report.sequence]})
        return 0
    if args.action == "lower":
        pairs = []
        for spec in args.alg:
            Y = load_biquandle(spec)
            pairs.append((Y, coloring.count_colorings(d, Y)))
        fn = bridge.b1_lower if args.mode == "b1" else bridge.b2_lower
        bound = fn(pairs)
        lines = [f"{args.mode} >= {bound}"]
        lines += [f"  |X| = {Y.size}: Col = {col}" for Y, col in pairs]
        emit(args, lines, {"mode": args.mode, "bound": bound,
                           "counts": [[Y.size, col] for Y, col in pairs]})
        return 0
    raise UsageError(f"unknown bridge action {args.action!r}")


def cmd_enhance(args) -> int:
    d = load_diagram(args.pd)
    Q = load_biquandle(args.alg)
    poly = enhance.column_group_polynomial(d, Q)
    emit(args, [str(poly)], {"column_group_polynomial": str(poly),
                             "coefficients": {str(e): c for e, c in poly.coeffs.items()}})
    return 0


def cmd_knots(args) -> int:
    table = knots.builtin_table()
    if args.action == "list":
        lines = [f"{name}: {len(rec.diagram.crossings)} crossings, det {rec.determinant}"
                 for name, rec in table.items()]
        emit(args, lines, {name: {"crossings": len(rec.diagram.crossings),
                                  "determinant": rec.determinant}
                           for name, rec in table.items()})
        return 0
    if args.action == "show":
        if not args.name:
            raise UsageError("knots show <name>")
        rec = knots.builtin_knot(args.name)
        print(diagram.serialize_pd(rec.diagram), end="")
        return 0
    raise UsageError(f"unknown knots action {args.action!r}")


def cmd_repro(args) -> int:
    names = None if args.item is None else set(args.item)
    items = repro.run_items(names)
    if args.format == "json":
        payload = [{"claim": it.claim, "provenance": it.provenance,
                    "expected": it.expected, "computed": it.computed,
                    "passed": it.passed} for it in items]
        if args.timings:
            for row, it in zip(payload, items):
                row["seconds"] = round(it.seconds, 3)
        print(json.dumps(payload, sort_keys=True))
    else:
        for it in items:
            status = "PASS" if it.passed else "FAIL"
            timing = f" ({it.seconds:.2f}s)" if args.timings else ""
            print(f"{status} {it.claim} [{it.provenance}]{timing}")
            if not it.passed:
                print(f"  expected: {it.expected}")
                print(f"  computed: {it.computed}")
                if it.claim in repro.KNOWN_DEFECTS:
                    print(f"  note: {repro.KNOWN_DEFECTS[it.claim]}")
        passed = sum(1 for it in items if it.passed)
        print(f"{passed}/{len(items)} items passed")
    return 0 if all(it.passed for it in items) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biqknot",
        description="biquandle colorings, coloring quivers, and bridge bounds "
                    "for virtual link diagrams")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    # accept --format after the subcommand as well
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("human", "json"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                                argparse.ArgumentParser(parents=[shared], **kw))

    p = sub.add_parser("algebra", help="biquandle construction and validation")
    p.add_argument("action", choices=("validate", "dihedral", "linear", "endos"))
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_dispatch_algebra)

    p = sub.add_parser("diagram", help="generators, surgery, strands")
    p.add_argument("action", choices=("gen", "validate", "sum", "strands"))
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("color", help="coloring counts and enumeration")
    p.add_argument("action", choices=("count", "list", "matrix"))
    p.add_argument("params", nargs="*",
                   help="count/list: <pd> <biquandle>; matrix: <pd> <n> <a> <b> <c> <d>")
    p.add_argument("--table", action="store_true", help="tab-separated coloring table")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("quiver", help="coloring quivers and isomorphism")
    p.add_argument("action", choices=("build", "indeg", "iso"))
    p.add_argument("pd", help="diagram spec, or first dump file for 'iso'")
    p.add_argument("alg", help="biquandle spec, or second dump file for 'iso'")
    p.add_argument("--endo", action="append",
                   help="endomorphism as comma-separated images (repeatable)")
    p.add_argument("--all-endos", action="store_true")
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("bridge", help="Wirtinger seeds and counting bounds")
    p.add_argument("action", choices=("seeds", "lower"))
    p.add_argument("pd")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--alg", action="append", default=[])
    p.add_argument("--mode", choices=("b1", "b2"), default="b1")
    p.set_defaults(fn=cmd_bridge)

    p = sub.add_parser("enhance", help="column group enhancement")
    p.add_argument("action", choices=("colgroup",))
    p.add_argument("pd")
    p.add_argument("alg")
    p.set_defaults(fn=cmd_enhance)

    p = sub.add_parser("knots", help="bundled knot table")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_knots)

    p = sub.add_parser("repro", help="run the reference value battery")
    p.add_argument("--all", action="store_true", help="run every item (default)")
    p.add_argument("--item", action="append", help="run one item by claim id (repeatable)")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_repro)

    return parser


def _dispatch_algebra(args) -> int:
    # unpack positional params for the algebra actions
    if args.action == "dihedral":
        if len(args.params) != 1:
            raise UsageError("algebra dihedral <n>")
        args.n = int(args.params[0])
    elif args.action == "linear":
        if len(args.params) != 5:
            raise UsageError("algebra linear <n> <a> <b> <c> <d>")
        args.n, args.a, args.b, args.c, args.d = (int(v) for v in args.params)
    elif args.action in ("validate", "endos"):
        if len(args.params) != 1:
            raise UsageError(f"algebra {args.action} <file>")
        args.file = args.params[0]
    return cmd_algebra(args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (algebra.AxiomError, diagram.DiagramError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
