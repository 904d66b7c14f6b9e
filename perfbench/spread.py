"""Run-to-run spread of the end-to-end metrics over seeds.

Usage: python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs run.py once per seed and prints, per metric, the median and the
distance between the first and third quartiles as a share of the
median, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    lo, hi = (int(v) for v in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    for m in declared["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:>12}: median {med:.5g} {m['unit']}, spread {(q3 - q1) / med:.3f} "
              f"(bound {m['bound']}, target < {m['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
