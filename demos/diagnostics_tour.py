"""Tour of the eight search-space diagnostics.

One genotype is pushed through every translation function so the
differences are visible side by side: which genes are expressed, where
the active region sits, and what the sawtooth valleys do to trait
values.

Run with: python demos/diagnostics_tour.py
"""

import numpy as np

from evodiags import PEAKS, DiagnosticKind, apply_valleys, translate

# A dimensionality-10 genotype with a clear structure: an early
# non-increasing run, a rise at index 3, and the maximum at index 5.
genotype = np.array([62.0, 55.5, 51.0, 80.0, 12.5, 97.1, 88.0, 63.0, 70.0, 9.0])

print("genotype:", np.array2string(genotype, precision=1))
print()
header = f"{'diagnostic':36s} {'activation':>10s}  phenotype"
print(header)
print("-" * len(header))
for kind in DiagnosticKind:
    # Translation works on (N, D) blocks; one genotype is a block of one row.
    traits, activation = translate(genotype[None], kind)
    shown = "-" if activation is None else str(activation[0])
    row = np.array2string(traits[0], precision=1, floatmode="fixed")
    print(f"{kind.value:36s} {shown:>10s}  {row}")

# The sawtooth transform behind the four valley variants: values rise
# untouched to the first peak at 8, then ever-wider valleys descend with
# slope -1 and snap back at the next peak.
print("\nsawtooth peaks:", [int(p) for p in PEAKS])
print(f"{'v':>6s} {'sawtooth(v)':>12s}")
values = np.array([2.0, 8.0, 8.5, 9.0, 10.0, 14.0, 20.0, 36.0, 50.0, 53.0, 75.0, 99.0, 100.0])
for v, out in zip(values, apply_valleys(values)):
    print(f"{v:6.1f} {out:12.1f}")
