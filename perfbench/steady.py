"""Steadiness check: run the benchmark on several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) as a
share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workload desk-grid ...] [--first-seed 1]

Runs one benchmark process at a time from the checkout root. Prints one
table per workload and, last, a JSON object with every run's metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_runs = {}
    steady = True
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']},"
                  f" failed {result['failed']}/{result['attempted']}", flush=True)
        all_runs[workload] = runs
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':32s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
              f" {'spread':>7s} {'bound':>6s}")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bounds[metric] / 3 else "  <-- over bound/3"
            if spread > bounds[metric]:
                steady = False
                flag = "  <-- OVER BOUND"
            print(f"  {metric:32s} {median:11.5g} {q1:11.5g} {q3:11.5g}"
                  f" {spread:7.3f} {bounds[metric]:6.2f}{flag}")
        print(flush=True)
    print(json.dumps(all_runs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
