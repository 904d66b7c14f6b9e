"""Record one point of the BENCH trajectory: every workload, untraced and traced.

Usage (from the checkout root):

    python3 perfbench/record.py --label 1 [--seed 1]

Runs run.py once per workload with --trace 0 and once with --trace 1,
at BENCHMARK.json's run_seconds, and writes
perfbench/trajectory/BENCH_<label>.json with each run's machine, nproc,
Python version, commit, report lines and result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_tmp" / f"record-{os.getpid()}"
    out_dir.mkdir(parents=True)
    runs = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            out = out_dir / "run.json"
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(declared["run_seconds"]),
                            "--trace", str(trace), "--out", str(out)], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            runs.append(json.loads(out.read_text()))
            out.unlink()
            print(f"{workload} trace {trace}: correct {runs[-1]['result']['correct']}", flush=True)
    out_dir.rmdir()
    try:
        out_dir.parent.rmdir()
    except OSError:
        pass
    target = HERE / "trajectory" / f"BENCH_{args.label}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps({"label": args.label, "seed": args.seed,
                                  "run_seconds": declared["run_seconds"], "runs": runs}, indent=1) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
