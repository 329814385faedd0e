"""Benchmark evodiags end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload in turn, each in a process of its
own, so that its peak memory is its own. Each workload prints its
metrics by name and unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench/`` in the checkout and are removed at the end; a traced run
leaves ``.perfbench/trace-<workload>-seed<n>.json``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# process started from here (environment is inherited).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ["desk-grid", "headline-smooth", "headline-sparse"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "evodiags" / "cli.py").is_file():
        print(f"error: no evodiags sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
            if code != 0:
                return code
        return 0

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import workloads

    name = args.workload
    work = OUT / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(name=name, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), root=ROOT, work=work)
    try:
        result = workloads.run_workload(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']},"
          f" correct {result['correct']}")
    if run.reference is not None:
        times = run.reference.times
        print(f"  reference kernel: {len(times)} samples, mean"
              f" {1e3 * sum(times) / len(times):.4g} ms; times scaled by"
              f" {run.reference.scale():.4g} (unscaled figures in brackets)")
    for metric, entry in result["metrics"].items():
        unscaled = run.unscaled.get(metric, entry)["value"]
        note = f"  ({unscaled:.6g})" if unscaled != entry["value"] else ""
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}{note}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
