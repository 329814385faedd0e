"""How differently the eight schemes distribute parenthood.

A small population is evaluated on the contradictory-objectives
diagnostic (one expressed trait per member) and every scheme picks 4000
parents from it. The parent-count histogram shows each scheme's
signature: truncation concentrates on the top ranks, sharing flattens
crowded niches, lexicase favors per-case specialists, novelty search
ignores fitness entirely.

Run with: python demos/selection_pressures.py
"""

import numpy as np

from evodiags import (
    DiagnosticKind,
    SchemeKind,
    SchemeParams,
    evaluate_population,
    fresh_scheme_state,
    select,
)

rng = np.random.default_rng(7)

# Twelve members across three niches (activation genes 0, 1, 2), with
# niche 0 heavily crowded and niche 2 held by a single specialist.
genes = np.zeros((12, 6))
genes[0:8, 0] = np.linspace(70.0, 90.0, 8)   # crowded niche, decent fitness
genes[8:11, 1] = np.linspace(50.0, 95.0, 3)  # smaller niche, wider spread
genes[11, 2] = 85.0                          # lone specialist
pop = evaluate_population(genes, DiagnosticKind.CONTRADICTORY_OBJECTIVES)

print("member  activation  total fitness")
for i, (activation, fitness) in enumerate(zip(pop.activation_genes, pop.total_fitness)):
    print(f"{i:6d} {activation:11d} {fitness:14.1f}")

print("\nparent counts over 4000 picks:")
print(f"{'scheme':20s} " + " ".join(f"{i:>4d}" for i in range(12)))
for kind in SchemeKind:
    state = fresh_scheme_state(SchemeParams(scheme=kind, tr=3, ts=3))
    idx = select(pop, state, 4000, np.random.default_rng(13))
    counts = np.bincount(idx, minlength=12)
    print(f"{kind.value:20s} " + " ".join(f"{c:4d}" for c in counts))
