"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload cv_fit --runs 10 --seconds 30 --first-seed 1

Runs `bench/run.py` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median. Raw results go to
.bench_results/spread-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                         results[-1]["metrics"].items()
                                         if args.trace == 0), flush=True)

    out = HERE.parent / ".bench_results" / f"spread-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results) + "\n")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, failed shares {sorted(shares)}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"  {name:48s} median {med:.6g} {first['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
