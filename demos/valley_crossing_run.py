"""Fitness-valley crossing: sharing versus elitist selection.

On the valley-crossing diagnostic every trait must traverse ever-wider
fitness valleys (peaks at 8, 9, 11, 14, 18, ...). Elitist schemes stall
once a valley is too wide for a single lucky mutation to jump; fitness
sharing keeps lower-fitness lineages alive long enough to walk down into
a valley and up the far side.

Run with: python demos/valley_crossing_run.py  (about half a minute)
"""

from evodiags import (
    DiagnosticKind,
    ReplicateConfig,
    SchemeKind,
    SchemeParams,
    run_replicate,
)

GENERATIONS = 4000

print(f"valley crossing, population 64, dimensionality 10, {GENERATIONS} generations\n")
print(f"{'scheme':20s} {'best perf':>10s} {'last peak reached':>18s}   valley index per 800 gens")
for scheme in (SchemeKind.TRUNCATION, SchemeKind.TOURNAMENT,
               SchemeKind.SHARING_GENOTYPIC, SchemeKind.SHARING_PHENOTYPIC,
               SchemeKind.RANDOM):
    config = ReplicateConfig(
        diagnostic=DiagnosticKind.VALLEY_CROSSING,
        scheme=SchemeParams(scheme=scheme),  # normalized sharing distances
        pop_size=64, generations=GENERATIONS, dim=10, seed=29, record_stride=800)
    result = run_replicate(config)
    valleys = [r.largest_valley_reached for r in result.records]
    best = max(r.best_performance for r in result.records)
    print(f"{scheme.value:20s} {best:10.2f} {str(valleys[-1]):>18s}   {valleys}")

print("\n(valley index k means the peak at position k of the schedule "
      "8, 9, 11, 14, 18, 23, ... was attained)")
