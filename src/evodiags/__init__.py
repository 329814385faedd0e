"""Search-space diagnostics for evolutionary selection schemes.

Eight handcrafted genotype-to-phenotype translations isolate specific
problem characteristics (smooth exploitation, ordered exploitation,
contradictory objectives, multi-path exploration, and valley-crossing
variants of each); eight parent-selection schemes run against them in
replicated, seeded experiments with per-generation metric tracking and
nonparametric significance testing.

Every function works on whole populations, stored as (N, D) arrays; a
single genotype is a block of one row, e.g. ``translate(g[None], kind)``.

Modules:
    core: genome blocks, bounded batch mutation, the frozen population, SplitMix64.
    diagnostics: the eight translations, one ``DIAGNOSTICS`` row each
        (``translate``, ``evaluate_population``), and the sawtooth.
    selection: truncation, tournament, fitness sharing (genotypic and
        phenotypic), lexicase, nondominated sorting, novelty search, and
        the random control, one ``SCHEMES`` row each behind ``select``.
        One frozen ``SchemeParams`` configures every scheme, novelty's
        ``novelty_k`` and ``pmin`` included; ``fresh_scheme_state``
        starts the run state that ``select`` updates (novelty's archive
        and current ``pmin``).
    evolve: the per-replicate generational loop.
    metrics: generation records and their CSV format.
    stats: Kruskal-Wallis, Wilcoxon rank-sum, Bonferroni correction.
    cli: experiment grids (``run``), their analysis (``analyze``), and
        the catalog (``describe``).
"""

from .core import (
    ConfigurationError,
    MutationParams,
    Population,
    mutate_batch,
    random_genotypes,
    rebound,
)
from .diagnostics import (
    PEAKS,
    DiagnosticKind,
    apply_valleys,
    evaluate_population,
    translate,
)
from .evolve import ReplicateConfig, ReplicateResult, run_replicate
from .metrics import (
    GenerationRecord,
    activation_gene_coverage,
    has_satisfactory_solution,
    largest_valley_reached,
    read_records_csv,
    satisfactory_trait_coverage,
    snapshot,
    write_records_csv,
)
from .selection import (
    NoveltyState,
    SchemeKind,
    SchemeParams,
    SchemeState,
    fitness_sharing_select,
    fresh_scheme_state,
    lexicase_select,
    novelty_scores,
    novelty_select,
    nsga_select,
    random_select,
    select,
    sharing_kernel,
    stochastic_remainder,
    tournament_select,
    truncation_select,
)
from .stats import bonferroni, kruskal_wallis, wilcoxon_rank_sum

__version__ = "0.1.0"
