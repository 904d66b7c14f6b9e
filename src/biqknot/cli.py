"""Command line interface: each subcommand handler imports the modules it runs.

Diagram arguments accept a file path (wire format), a bundled knot as
``knot:NAME``, or a generator spec: ``torus2:N``, ``pretzel:T1,T2,...``,
``chain:K``. Algebra arguments accept a file path (biquandle text
format) or ``dihedral:N`` / ``linear:N,A,B,C,D``. Each input format has
one reader below, the one place that rejects its malformed input.

Exit status: 0 on success (and on an all-pass repro run), 1 on a
computational failure (a value or file the library rejects, a failed
repro item, an input too large for memory), 2 on usage errors (an
unreadable file, a malformed spec or argument). Output is byte-stable
across runs; timings are opt-in.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import diagram


class UsageError(ValueError):
    pass


def _int(text: str) -> int:
    """The integer diagram._decimal reads in text; a usage error if it reads none."""
    try:
        return diagram._decimal(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def _ints(text: str, count: int | None = None) -> list[int]:
    """Comma-separated integers, exactly `count` of them when it is given."""
    values = [_int(v) for v in text.split(",")]
    if count is not None and len(values) != count:
        raise UsageError(f"expected {count} comma-separated integers, got {text!r}")
    return values


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {what} {path!r}: {e}")


def _params(args, *names: str) -> list[str]:
    """The positional parameters, which must be one per name in the usage line."""
    if len(args.params) != len(names):
        raise UsageError(" ".join([args.command, args.action, *(f"<{n}>" for n in names)]))
    return args.params


# spec kind -> constructor from the text after the colon; `diagram gen KIND ARG`
# reads the same table
GENERATORS = {
    "torus2": lambda arg: diagram.torus_2n(_int(arg)),
    "pretzel": lambda arg: diagram.pretzel(_ints(arg)),
    "chain": lambda arg: diagram.chain(_int(arg)),
}

# algebra spec kind -> (name of its constructor in `algebra`, names of its integer parameters)
ALGEBRAS = {
    "dihedral": ("make_dihedral", ("n",)),
    "linear": ("make_linear_biquandle", ("n", "a", "b", "c", "d")),
}

# the actions whose output has only a text form, so they refuse --format json
TEXT_ONLY = ("algebra dihedral", "algebra linear", "algebra endos", "diagram gen", "diagram sum",
             "knots show")


def load_diagram(spec: str) -> diagram.SemiarcDiagram:
    kind, _, rest = spec.partition(":")
    if kind == "knot":
        from . import knots
        return knots.builtin_knot(rest).diagram
    if kind in GENERATORS:
        return GENERATORS[kind](rest)
    return diagram.parse_pd(_read(spec, "diagram"))


def load_biquandle(spec: str) -> algebra.FiniteBiquandle:
    from . import algebra
    kind, _, rest = spec.partition(":")
    if kind in ALGEBRAS:
        make, names = ALGEBRAS[kind]
        return getattr(algebra, make)(*_ints(rest, len(names)))
    return algebra.parse_biquandle(_read(spec, "biquandle"))


def endo_set(Y, args) -> list[tuple[int, ...]]:
    from . import algebra
    if args.all_endos:
        if args.endo:
            raise UsageError("--all-endos and --endo exclude each other")
        return algebra.enumerate_endos(Y)
    if args.endo:
        return [tuple(_ints(e)) for e in args.endo]
    return [tuple(Y.elements())]  # identity by default


def emit(args, human_lines, payload) -> None:
    if args.format == "json":
        import json
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# -- subcommand handlers --------------------------------------------------------
# argparse's choices fix the actions, so each handler's last block serves its last action


def cmd_algebra(args) -> int:
    from . import algebra
    if args.action in ALGEBRAS:
        values = ",".join(_params(args, *ALGEBRAS[args.action][1]))
        print(algebra.serialize_biquandle(load_biquandle(f"{args.action}:{values}")), end="")
        return 0
    (path,) = _params(args, "file")
    if args.action == "validate":
        report = algebra.validate_axioms(*algebra.parse_tables(_read(path, "biquandle")))
        if not report:
            emit(args, ["valid biquandle"], {"valid": True, "violations": []})
            return 0
        emit(args, [str(v) for v in report],
             {"valid": False, "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                                             for v in report]})
        return 1
    Y = load_biquandle(path)
    for f in algebra.enumerate_endos(Y):
        print(" ".join(map(str, f)))
    return 0


def cmd_diagram(args) -> int:
    if args.action == "gen":
        kind, arg = _params(args, "kind", "arg")
        if kind not in GENERATORS:
            raise UsageError(f"unknown generator {kind!r} ({'|'.join(GENERATORS)})")
        print(diagram.serialize_pd(GENERATORS[kind](arg)), end="")
        return 0
    if args.action == "sum":
        pd1, s1, pd2, s2 = _params(args, "pd", "semiarc", "pd", "semiarc")
        s, _ = diagram.connected_sum(load_diagram(pd1), _int(s1), load_diagram(pd2), _int(s2))
        print(diagram.serialize_pd(s), end="")
        return 0
    (spec,) = _params(args, "pd")
    if args.action == "validate":
        try:
            d = load_diagram(spec)
        except diagram.DiagramError as e:
            emit(args, [f"invalid: {e}"], {"valid": False, "error": str(e)})
            return 1
        components = d.component_count()
        emit(args, [f"valid: {len(d.crossings)} crossings, {d.semiarc_count} semiarcs, "
                    f"{components} components"],
             {"valid": True, "crossings": len(d.crossings),
              "semiarcs": d.semiarc_count, "components": components})
        return 0
    d = load_diagram(spec)
    dec = diagram.strands(d)
    lines = [f"strand {i}: {' '.join(map(str, path))}"
             for i, path in enumerate(dec.strands)]
    lines += [f"crossing {ci}: under {u} -> {v}, over {o}"
              for ci, (u, v, o) in enumerate(dec.crossing_incidence)]
    emit(args, lines, {"strands": [list(p) for p in dec.strands],
                       "crossing_incidence": [list(t) for t in dec.crossing_incidence]})
    return 0


def cmd_color(args) -> int:
    from . import coloring
    if args.table and args.action != "list":
        raise UsageError(f"color {args.action} takes no --table; it applies to color list")
    if args.table and args.format == "json":
        raise UsageError("color list --table prints text only; it takes no --format json")
    if args.action == "matrix":
        pd, *coeffs = _params(args, "pd", *ALGEBRAS["linear"][1])
        d = load_diagram(pd)
        m = coloring.coloring_matrix(d, load_biquandle(f"linear:{','.join(coeffs)}"))
        solutions = coloring.count_solutions_snf(m)
        dense = m.dense()
        lines = [" ".join(map(str, row)) for row in dense]
        lines.append(f"# solutions mod {m.modulus}: {solutions}")
        emit(args, lines, {"rows": [list(r) for r in dense], "modulus": m.modulus,
                           "cols": m.cols, "solutions": solutions})
        return 0
    pd, spec = _params(args, "pd", "biquandle")
    d = load_diagram(pd)
    Y = load_biquandle(spec)
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


def cmd_quiver(args) -> int:
    from . import quiver
    if args.action == "iso":
        if args.endo or args.all_endos:
            raise UsageError("quiver iso reads its endomorphisms from the dumps; "
                             "--endo and --all-endos apply to build and indeg")
        qa = _load_quiver_dump(args.pd)
        qb = _load_quiver_dump(args.alg)
        result = quiver.quivers_isomorphic(qa, qb)
        emit(args, ["isomorphic" if result else "not isomorphic"], {"isomorphic": result})
        return 0
    d = load_diagram(args.pd)
    Y = load_biquandle(args.alg)
    q = quiver.build_quiver(d, Y, endo_set(Y, args))
    if args.action == "build":
        # (source, target, endo index), by source and then by endo
        edges = [(s, t, k) for s, dsts in enumerate(zip(*q.targets)) for k, t in enumerate(dsts)]
        emit(args, [f"vertices {len(q.vertices)}", f"edges {len(edges)}"]
             + [f"{s} -> {t} [{k}]" for s, t, k in edges],
             {"vertices": [list(v) for v in q.vertices], "edges": [list(e) for e in edges],
              "endos": [list(f) for f in q.endos]})
        return 0
    poly = quiver.in_degree_polynomial(q)
    emit(args, [str(poly)], {"in_degree_polynomial": str(poly),
                             "coefficients": {str(e): c for e, c in poly.coeffs.items()}})
    return 0


def _load_quiver_dump(path: str) -> quiver.ColoringQuiver:
    """The quiver in a `quiver build --format json` dump, checked before it is used."""
    import json
    from . import quiver
    try:
        data = json.loads(_read(path, "quiver dump"))
    except json.JSONDecodeError as e:
        raise ValueError(f"quiver dump {path!r} is not JSON: {e}")

    def int_lists(key: str) -> tuple[tuple[int, ...], ...]:
        rows = data.get(key) if isinstance(data, dict) else None
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
                and diagram._ints([v for r in rows for v in r], error=None) is not None):
            raise ValueError(f"quiver dump {path!r} needs {key!r}: a list of integer lists")
        return tuple(map(tuple, rows))

    vertices, edges, endos = int_lists("vertices"), int_lists("edges"), int_lists("endos")
    n, m = len(vertices), len(endos)
    targets = [[-1] * n for _ in endos]
    for e in edges:
        if len(e) != 3 or not all(0 <= v < b for v, b in zip(e, (n, n, m))):
            raise ValueError(f"quiver dump {path!r}: edge {list(e)} is not a (source, target, "
                             f"endo) triple within {n} vertices and {m} endos")
        s, t, k = e
        targets[k][s] = t
    if len(edges) != n * m or any(-1 in row for row in targets):
        raise ValueError(f"quiver dump {path!r}: a coloring quiver has exactly one edge "
                         f"per (vertex, endo) pair ({n} vertices, {m} endos)")
    return quiver.ColoringQuiver(vertices, endos, tuple(map(tuple, targets)))


def cmd_bridge(args) -> int:
    from . import bridge, coloring
    d = load_diagram(args.pd)
    if args.action == "seeds":
        if args.alg or args.mode:
            raise UsageError("bridge seeds takes no --alg or --mode; they apply to bridge lower")
        k_max = 6 if args.kmax is None else _int(args.kmax)
        if k_max < 0:
            raise UsageError(f"--kmax must be >= 0, got {k_max}")
        found = bridge.min_seed_size(d, k_max)
        if found is None:
            emit(args, [f"no saturating seed set of size <= {k_max}"],
                 {"found": False, "k_max": k_max})
            return 0
        k, witness = found
        report = bridge.wirtinger_saturate(d, witness)
        lines = [f"min seeds: {k}", " ".join(["witness strands:", *map(str, witness)])]
        if d.free_loops:
            lines.append(f"free loops: {d.free_loops}")
        lines += [f"move: crossing {ci} colors strand {s}" for ci, s in report.sequence]
        emit(args, lines, {"found": True, "min_seeds": k, "witness": list(witness),
                           "sequence": [list(step) for step in report.sequence]})
        return 0
    if args.kmax is not None:
        raise UsageError("bridge lower takes no --kmax; it applies to bridge seeds")
    if not args.alg:
        raise UsageError("bridge lower needs at least one --alg")
    mode = args.mode or "b1"
    pairs = []
    for spec in args.alg:
        Y = load_biquandle(spec)
        pairs.append((Y, coloring.count_colorings(d, Y)))
    fn = bridge.b1_lower if mode == "b1" else bridge.b2_lower
    bound = fn(pairs)
    lines = [f"{mode} >= {bound}"]
    lines += [f"  |X| = {Y.size}: Col = {col}" for Y, col in pairs]
    emit(args, lines, {"mode": mode, "bound": bound,
                       "counts": [[Y.size, col] for Y, col in pairs]})
    return 0


def cmd_enhance(args) -> int:
    from . import enhance
    d = load_diagram(args.pd)
    Q = load_biquandle(args.alg)
    poly = enhance.column_group_polynomial(d, Q)
    emit(args, [str(poly)], {"column_group_polynomial": str(poly),
                             "coefficients": {str(e): c for e, c in poly.coeffs.items()}})
    return 0


def cmd_knots(args) -> int:
    from . import knots
    if args.action == "show":
        if not args.name:
            raise UsageError("knots show <name>")
        print(diagram.serialize_pd(knots.builtin_knot(args.name).diagram), end="")
        return 0
    table = knots.builtin_table()
    lines = [f"{name}: {len(rec.diagram.crossings)} crossings, det {rec.determinant}"
             for name, rec in table.items()]
    emit(args, lines, {name: {"crossings": len(rec.diagram.crossings),
                              "determinant": rec.determinant}
                       for name, rec in table.items()})
    return 0


def cmd_repro(args) -> int:
    from . import repro
    items = repro.run_items(None if args.item is None else set(args.item))
    rows, lines = [], []
    for it in items:
        rows.append({"claim": it.claim, "provenance": it.provenance, "expected": it.expected,
                     "computed": it.computed, "passed": it.passed})
        timing = ""
        if args.timings:
            rows[-1]["seconds"] = round(it.seconds, 3)
            timing = f" ({it.seconds:.2f}s)"
        lines.append(f"{'PASS' if it.passed else 'FAIL'} {it.claim} [{it.provenance}]{timing}")
        if not it.passed:
            lines += [f"  expected: {it.expected}", f"  computed: {it.computed}"]
            if it.claim in repro.KNOWN_DEFECTS:
                lines.append(f"  note: {repro.KNOWN_DEFECTS[it.claim]}")
    passed = sum(1 for it in items if it.passed)
    lines.append(f"{passed}/{len(items)} items passed")
    emit(args, lines, rows)
    return 0 if passed == len(items) else 1


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
    p.set_defaults(fn=cmd_algebra)

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
    p.add_argument("--kmax", help="seeds: largest seed set tried (default 6)")
    p.add_argument("--alg", action="append", default=[])
    p.add_argument("--mode", choices=("b1", "b2"), help="lower: bound to report (default b1)")
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
    p.add_argument("--item", action="append", help="run one item by claim id (repeatable)")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    with diagram.any_int_digits():  # counts, like wire ids, may have any number of digits
        try:
            action = f"{args.command} {getattr(args, 'action', '')}"
            if args.format == "json" and action in TEXT_ONLY:
                raise UsageError(f"{action} prints text only; it takes no --format json")
            code = args.fn(args)
            sys.stdout.flush()  # so a reader that left early is caught here, not at exit
            return code
        except BrokenPipeError:
            # the reader closed the pipe: send the rest to devnull so that the exit-time
            # flush cannot fail again (the SIGPIPE recipe in Python's signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except UsageError as e:
            print(f"usage error: {e}", file=sys.stderr)
            return 2
        except (ValueError, KeyError) as e:
            # str() of a KeyError quotes its message
            print(f"error: {e.args[0] if isinstance(e, KeyError) and e.args else e}", file=sys.stderr)
            return 1
        except MemoryError:
            print("error: out of memory; the input is too large for this machine", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
