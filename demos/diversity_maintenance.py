"""Activation-gene diversity under four schemes.

The contradictory-objectives diagnostic expresses only each member's
highest gene, so a population can satisfy many traits only by holding
many activation genes at once. Short replicates show the takeover
dynamics: truncation collapses to one niche almost immediately, while
lexicase and nondominated sorting hold a spread of niches.

Run with: python demos/diversity_maintenance.py  (about half a minute)
"""

from evodiags import (
    DiagnosticKind,
    ReplicateConfig,
    SchemeKind,
    SchemeParams,
    run_replicate,
)

GENERATIONS = 1500

print(f"contradictory objectives, population 64, dimensionality 10, "
      f"{GENERATIONS} generations\n")
print(f"{'scheme':20s} activation-gene coverage every 300 generations")
for scheme in (SchemeKind.TRUNCATION, SchemeKind.SHARING_PHENOTYPIC,
               SchemeKind.LEXICASE, SchemeKind.NSGA):
    config = ReplicateConfig(
        diagnostic=DiagnosticKind.CONTRADICTORY_OBJECTIVES,
        # Raw sharing distances: crowding penalties act on near-clones,
        # which is what keeps nondominated sorting's niches alive.
        scheme=SchemeParams(scheme=scheme, normalize_sharing=False),
        pop_size=64, generations=GENERATIONS, dim=10, seed=11, record_stride=300)
    result = run_replicate(config)
    coverage = [r.activation_gene_coverage for r in result.records]
    satisfied = result.records[-1].satisfactory_trait_coverage
    print(f"{scheme.value:20s} {coverage}   final satisfied traits: {satisfied}")
