"""Time fresh ``evodiags describe`` processes, one per line read on stdin.

For each input line it launches ``python -m evodiags.cli describe`` in the
current directory, waits for it, and writes one JSON line with its wall
time in seconds, its exit code and its output. It ends when stdin closes.

The benchmark keeps one of these running per workload and waits for it
only after reading its own peak memory, so that the ``describe``
processes never count in the workload's ``RUSAGE_CHILDREN``. It imports
nothing heavy, so launching from it costs little.
"""

import json
import subprocess
import sys
import time


def main() -> int:
    for _ in sys.stdin:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "evodiags.cli", "describe"],
            capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        print(json.dumps({"seconds": seconds, "returncode": proc.returncode,
                          "stdout": proc.stdout, "stderr": proc.stderr[-500:]}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
