"""A fixed reference kernel that gauges the machine's speed during a run.

The machine the benchmark was tuned on drifts in speed by 20-30% over
minutes, and every metric of a run moves with it: in one set of 10
headline-smooth runs, ``gens_per_s`` rose from 212 to 270 and
``analyze_s`` fell from 0.048 to 0.034 s as the set went on. No layout
of a 35 s run removes a drift that slow. So an untraced run calls
``Reference.sample`` throughout its timed part, and its times are
reported scaled to the speed at which one sample takes ``NOMINAL_S``.

The kernel uses numpy, scipy and the ``csv`` module only, never
``evodiags``, and its inputs are fixed. So a change to the program moves
a scaled figure exactly as much as the raw one; only the machine's speed
is divided out. Half of a sample is array work like the selection
kernels' (``cdist``, ``argsort``, elementwise updates), half is
interpreter work like the CSV writes and ``analyze``'s parsing.
"""

import csv
import io
import time

import numpy as np
from scipy.spatial.distance import cdist

# The median time of one sample on the machine the benchmark was tuned on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1); it only sets the
# scale of the reported figures.
NOMINAL_S = 0.017


class Reference:
    """Times samples of the reference kernel; ``scale`` is the factor
    that turns a time measured in this run into one at ``NOMINAL_S``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.uniform(0.0, 10.0, size=(512, 100))
        self.steps = rng.normal(0.0, 1.0, size=(512, 100))
        self.rows = [[str(g)] + [repr(float(x)) for x in rng.uniform(0.0, 100.0, 9)]
                     for g in range(1000)]
        self.text = "".join(",".join(row) + "\n" for row in self.rows)
        self.checksum = None
        self.times = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        nearest = np.argsort(cdist(self.points[:256], self.points), axis=1)
        moved = np.clip(self.points + self.steps, 0.0, 10.0)
        parsed = sum(float(x) for row in csv.reader(io.StringIO(self.text))
                     for x in row)
        out = io.StringIO()
        csv.writer(out).writerows(self.rows)
        checksum = (int(nearest[:, 1].sum()), float(moved.sum()), parsed,
                    len(out.getvalue()))
        self.times.append(time.perf_counter() - t0)
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError(f"reference kernel gave {checksum}, not {self.checksum}")

    def scale(self) -> float:
        return NOMINAL_S * len(self.times) / sum(self.times)
