"""Layered benchmark of biqknot: one workload, one seed, one closed-loop client.

Usage (from the checkout root):

    python3 perfbench/run.py --workload count|invariants|repro-cli --seed N \
        --seconds S --trace 0|1 [--out FILE] [--spans FILE]

A single process runs one op after another, no threads or pools; each
CLI op is one cold subprocess at a time. Every op output is checked
outside the timed region. Passes of the workload's slots (the same
slots each pass, written afresh, see gen.py) repeat until the op time
reaches --seconds and at least MIN_PASSES ran. An op's time is scaled to a fixed machine
speed by a reference loop sampled around and during it (see
reference.py); its service time is the median over passes. Latency percentiles are taken
over the service times of the 100 or more ops of a pass, throughput is
the verified ops of a pass over the sum of their service times.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json for --trace 0
and the per-layer metrics for --trace 1. The traced run alternates
untraced and traced copies of each pass, so it also gives the tracing
overhead.

Known Python-limit defects (RecursionError on valid inputs) are run
and listed as outcome `known_limit`; they are not counted in `failed`,
which counts wrong answers and unexpected exceptions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import gen
import ops
import spans
from reference import SAMPLE_NOMINAL_S, Speed, sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("count", "invariants", "repro-cli")
SETUP_RUNS = 7
MIN_PASSES = 2


@dataclass
class Record:
    slot: int           # position in the pass; every pass has the same slots
    name: str
    kind: str
    seconds: float
    outcome: str        # ok | wrong | error | known_limit
    detail: str | None
    traced: bool
    extra: bool         # measured beside the closed loop (repro subset, CLI group)
    pass_index: int
    scale: float        # to a nominal-speed machine, see reference.py
    repro: dict | None = None  # claim -> seconds, for repro ops

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def execute(ctx, op, slot: int, tracer, traced: bool, extra: bool, pass_index: int) -> Record:
    run, check = ops.KINDS[op.kind]
    if traced:
        tracer.op = (pass_index, slot)
        tracer.active = True
        root = tracer.open(f"op.{op.name}")
    with Speed(ctx.reference) as speed:
        start = time.perf_counter()
        try:
            result, error = run(ctx, *op.args), None
        except Exception as e:  # every op outcome is recorded, never raised
            result, error = None, e
        seconds = time.perf_counter() - start - speed.overhead
    if traced:
        tracer.close(root)
        tracer.active = False
    ctx.reference = speed.after
    if error is not None:
        kind = type(error).__name__
        outcome = "known_limit" if kind == op.known_limit else "error"
        detail = f"{kind}: {error}"[:200]
    else:
        detail = check(ctx, op, result)
        outcome = "ok" if detail is None else "wrong"
    repro = {it.claim: it.seconds for it in result} if op.kind == "repro" and result else None
    return Record(slot, op.name, op.kind, seconds, outcome, detail, traced, extra, pass_index,
                  speed.scale(), repro)


def setup_seconds(workload: str, env: dict) -> float:
    """Median scaled set-up time over fresh interpreters, after one untimed warm-up."""
    times = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True).stdout
        seconds, scale = (float(v) for v in out.split())
        if i:
            times.append(seconds * scale)
    return statistics.median(times)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def meta() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    u = os.uname()
    return {"machine": f"{u.sysname} {u.release} {u.machine} ({u.nodename})",
            "nproc": os.cpu_count(), "python": sys.version.split()[0], "commit": commit}


def service_times(records) -> dict[int, float]:
    """Each slot's scaled time, median over the passes that repeated it."""
    times: dict[int, list[float]] = {}
    for r in records:
        times.setdefault(r.slot, []).append(r.scaled)
    return {slot: statistics.median(v) for slot, v in times.items()}


def service_by_name(records) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r.name, []).append(r.scaled)
    return {name: statistics.median(v) for name, v in times.items()}


def end_to_end(records, setup_s: float) -> dict[str, float]:
    loop = [r for r in records if not r.extra and not r.traced]
    service = service_times(loop)
    failed_slots = {r.slot for r in loop if r.outcome != "ok"}
    times = list(service.values())
    cli = service_by_name(r for r in records if r.kind == "cli" and not r.traced)
    return {
        "ops_per_s": (len(service) - len(failed_slots)) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": percentile(times, 90) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "repro_s": statistics.median(r.scaled for r in records if r.kind == "repro" and not r.traced),
        "cli_cold_ms": statistics.median(cli.values()) * 1e3,
    }


def per_layer(records, span_list, traced_passes: int) -> dict[str, float]:
    out = spans.layer_metrics(span_list, traced_passes)
    untraced = [r for r in records if not r.traced]
    for claim in gen.REPRO_ITEMS:
        times = [r.repro[claim] * r.scale for r in untraced if r.repro and claim in r.repro]
        out[f"repro.item.{claim}.s"] = statistics.median(times) if times else 0.0
    cli = service_by_name(r for r in untraced if r.kind == "cli")
    for key in gen.CLI_GROUPS["repro-cli"]:
        out[f"cli.cold.{key}.ms"] = cli.get(f"cli.{key}", 0.0) * 1e3
    loop = [r for r in records if not r.extra]
    traced = service_times(r for r in loop if r.traced)
    plain = service_times(r for r in loop if not r.traced)
    out["tracing.overhead_ratio"] = sum(traced.values()) / sum(plain.values())
    out["ops.fail_ratio"] = sum(r.outcome != "ok" for r in records) / len(records)
    return out


def report(workload, seed, records, passes) -> list[str]:
    loop = [r for r in records if not r.extra and not r.traced]
    times = list(service_times(loop).values())
    n = len(times)
    lines = [f"workload {workload} seed {seed}: {passes} passes of {n} ops, "
             f"{sum(r.seconds for r in loop):.3f} s of loop op time, {len(records)} ops in all"]
    # highest whole percentile that still has at least 10 samples beyond it
    top = max((q for q in range(1, 100) if n - math.ceil(q / 100 * n) >= 10), default=None)
    if top is not None:
        lines.append(f"latency over {n} op service times: p{top} = {percentile(times, top) * 1e3:.3f} ms "
                     f"is the highest percentile with >= 10 samples beyond it")
    speed = statistics.median(r.scale for r in records)
    lines.append(f"machine speed: reference loop at {1 / speed:.3f} x its nominal {SAMPLE_NOMINAL_S} s "
                 f"(median over ops); times are scaled by the reference sampled around and during each op")
    outcomes = Counter(r.outcome if r.outcome in ("ok", "wrong") else f"{r.outcome} {r.detail.split(':')[0]}"
                       for r in records)
    lines.append("outcomes by kind: " + json.dumps(dict(sorted(outcomes.items()))))
    for r in [r for r in records if r.outcome != "ok"][:40]:
        where = f"pass {r.pass_index}" + (", traced" if r.traced else "")
        lines.append(f"  {r.outcome}: {r.name} ({where}): {r.detail}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the result with run metadata as JSON")
    ap.add_argument("--spans", type=Path, help="with --trace 1, write every span as a JSON line at exit")
    args = ap.parse_args(argv)
    if not (SRC / "biqknot" / "__init__.py").is_file():
        print(f"no biqknot sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    sys.path.insert(0, str(SRC))
    import biqknot as bq
    import biqknot.repro  # noqa: F401  (not imported by the package itself)

    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_s = setup_seconds(args.workload, env)
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    tracer = spans.Tracer()
    try:
        if args.trace:
            tracer.install(bq, spans.layer_table(bq))
        tracer.active = bool(args.trace)
        algebras = {k: gen.build_algebra(bq, s) for k, s in gen.algebra_specs(args.workload).items()}
        knots = bq.builtin_table()
        tracer.active = False
        ctx = ops.Context(bq, algebras, tmp, sys.executable, env)
        ops.write_cli_files(tmp)
        ops.run_cli(ctx, "knots.list")  # untimed: byte-compiles the package for the cold calls
        ctx.reference = sample()

        records: list[Record] = []
        measured, passes = 0.0, 0
        # whole passes of the same slots until --seconds of op time, and at least MIN_PASSES
        while measured < args.seconds or passes < MIN_PASSES:
            pass_ops = gen.ops_for(args.workload, args.seed, passes, bq, knots, algebras)
            modes = (False,) if not args.trace else ((False, True) if passes % 2 == 0 else (True, False))
            for traced in modes:
                for slot, op in enumerate(pass_ops):
                    records.append(execute(ctx, op, slot, tracer, traced, False, passes))
            # paths beside the loop, spread over the run like the loop itself
            for slot, op in enumerate(gen.extra_ops(args.workload), start=len(pass_ops)):
                records.append(execute(ctx, op, slot, tracer, False, True, passes))
            measured += sum(r.seconds for r in records if r.pass_index == passes)
            passes += 1
    finally:
        tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(records, tracer.spans, passes) if args.trace else end_to_end(records, setup_s)
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
    failed = sum(r.outcome in ("wrong", "error") for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted}}
    info = meta()
    lines = report(args.workload, args.seed, records, passes)
    lines.append("run: " + json.dumps(info, sort_keys=True))
    for name in wanted:
        lines.append(f"{name} = {metrics[name]:.6g} {units[name]}")
    print("\n".join(lines))
    if args.spans:
        with args.spans.open("w") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                        "meta": info, "report": lines, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
