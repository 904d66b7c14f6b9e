"""What each op kind calls in biqknot, and how its output is checked.

An op receives wire-format text and algebra keys, parses inside the
timed call like a user of the library would, and calls the public API
by module attribute at call time, so that the traced run's wrappers
see every layer. A check returns None when the output is right, or a
message; it runs outside the timed region.
"""

from __future__ import annotations

import functools
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path

import verify


@functools.cache
def golden() -> dict:
    """Quick-start commands with the stdout bytes and exit code they must give."""
    return json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@dataclass
class Context:
    bq: object          # the biqknot package
    algebras: dict      # key -> built algebra
    tmp: Path           # scratch directory for CLI input files
    python: str         # interpreter for CLI subprocesses
    env: dict           # their environment
    reference: float = 0.0  # last reference sample (see reference.py)


def _parse(ctx, text):
    return ctx.bq.diagram.parse_pd(text)


def run_count(ctx, text, alg):
    return ctx.bq.coloring.count_colorings(_parse(ctx, text), ctx.algebras[alg])


def run_snf(ctx, text, alg):
    c = ctx.bq.coloring
    return c.count_solutions_snf(c.coloring_matrix(_parse(ctx, text), ctx.algebras[alg]))


def run_enumerate(ctx, text, alg):
    return ctx.bq.coloring.enumerate_colorings(_parse(ctx, text), ctx.algebras[alg])


def run_endos(ctx, alg):
    return ctx.bq.algebra.enumerate_endos(ctx.algebras[alg])


def run_indeg(ctx, text, alg, endos):
    q = ctx.bq.quiver
    return q.in_degree_polynomial(q.build_quiver(_parse(ctx, text), ctx.algebras[alg], endos))


def run_iso(ctx, text1, text2, alg, endos):
    q, Y = ctx.bq.quiver, ctx.algebras[alg]
    return q.quivers_isomorphic(q.build_quiver(_parse(ctx, text1), Y, endos),
                                q.build_quiver(_parse(ctx, text2), Y, endos))


def run_colgroup(ctx, text, alg):
    return ctx.bq.enhance.column_group_polynomial(_parse(ctx, text), ctx.algebras[alg])


def run_seeds(ctx, text, k_max):
    return ctx.bq.bridge.min_seed_size(_parse(ctx, text), k_max)


def run_repro(ctx, names):
    return ctx.bq.repro.run_items(None if names is None else set(names))


def run_cli(ctx, key):
    """One cold `python -m biqknot.cli` process, as the quick start runs it."""
    g = golden()["commands"][key]
    proc = subprocess.run([ctx.python, "-m", "biqknot.cli", *g["argv"]], cwd=ctx.tmp,
                          input=g.get("stdin", "").encode(), capture_output=True,
                          env=ctx.env, timeout=120)
    return proc.returncode, proc.stdout


def check_equal(ctx, op, result):
    return None if result == op.expected else f"got {result!r}, expected {op.expected!r}"


def check_enumerate(ctx, op, result):
    text, alg = op.args
    Y = ctx.algebras[alg]
    return verify.check_listing(result, text, Y.over_table, Y.under_table, op.expected)


def check_poly(ctx, op, result):
    got = dict(result.coeffs)
    return None if got == op.expected else f"got {got}, expected {op.expected}"


def check_seeds(ctx, op, result):
    text, k_max = op.args
    d = _parse(ctx, text)
    n_strands = len(ctx.bq.diagram.strands(d).strands)
    closure = ctx.bq.bridge.saturating_closure
    return verify.check_seeds(result, op.expected, k_max, n_strands,
                              lambda seeds: len(closure(d, seeds)) == n_strands)


def check_repro(ctx, op, result):
    failing = {it.claim for it in result if not it.passed}
    if failing == op.expected:
        return None
    return f"failing items {sorted(failing)}, expected {sorted(op.expected)}"


def check_cli(ctx, op, result):
    g = golden()["commands"][op.args[0]]
    code, out = result
    if code != g["code"]:
        return f"exit code {code}, expected {g['code']}"
    return None if out == g["stdout"].encode() else "stdout differs from the golden bytes"


KINDS = {
    "count": (run_count, check_equal),
    "snf": (run_snf, check_equal),
    "enumerate": (run_enumerate, check_enumerate),
    "endos": (run_endos, check_equal),
    "indeg": (run_indeg, check_poly),
    "iso": (run_iso, check_equal),
    "colgroup": (run_colgroup, check_poly),
    "seeds": (run_seeds, check_seeds),
    "repro": (run_repro, check_repro),
    "cli": (run_cli, check_cli),
}


def write_cli_files(tmp: Path) -> None:
    """Input files the quick-start commands read (quiver dumps for `quiver iso`)."""
    for name, text in golden()["files"].items():
        (tmp / name).write_text(text)
