"""The generational loop for one replicate.

Each generation evaluates the population under the configured
diagnostic, records metrics, selects parents with replacement, and
builds the next generation entirely from mutated offspring (no survivor
elitism). A replicate owns one seeded random stream consumed in a fixed
order (initialization, then per generation: selection, reproduction), so
reruns with the same configuration are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ConfigurationError, MutationParams, _check_init_range, mutate_batch, random_genotypes)
from .diagnostics import DiagnosticKind, evaluate_population
from .metrics import GenerationRecord, best_index, has_satisfactory_solution, snapshot
from .native import keep_freed_memory
from .selection import SchemeKind, SchemeParams, fresh_scheme_state, select

BOUNDS_CHECK_STRIDE = 1000


@dataclass
class ReplicateConfig:
    """Everything one replicate needs to run deterministically."""

    diagnostic: DiagnosticKind
    scheme: SchemeParams
    pop_size: int = 512
    generations: int = 50_000
    dim: int = 100
    mutation: MutationParams = field(default_factory=MutationParams)
    init_lo: float = 0.0
    init_hi: float = 1.0
    seed: int = 0
    record_stride: int = 1
    include_archive: bool = False

    def __post_init__(self) -> None:
        # A bad setting raises here, not mid-run.
        self.diagnostic = DiagnosticKind(self.diagnostic)
        if self.pop_size < 1:
            raise ConfigurationError(f"pop_size must be >= 1, got {self.pop_size}")
        if self.generations < 1:
            raise ConfigurationError(
                f"generations must be >= 1, got {self.generations}")
        _check_init_range(self.dim, self.init_lo, self.init_hi)
        if self.scheme.scheme is SchemeKind.TRUNCATION and self.scheme.tr > self.pop_size:
            raise ConfigurationError(
                f"tr={self.scheme.tr} exceeds population size {self.pop_size}")
        if self.record_stride < 1:
            raise ConfigurationError(
                f"stride (record_stride) must be >= 1, got {self.record_stride}")


@dataclass
class ReplicateResult:
    """Recorded metrics plus a summary of the final population."""

    records: list[GenerationRecord]
    satisfactory_generation: Optional[int]
    best_genotype: np.ndarray
    best_phenotype: np.ndarray


def run_replicate(config: ReplicateConfig) -> ReplicateResult:
    """Run one full replicate from its seed.

    Metrics snapshot the evaluated population before selection, so the
    generation-0 record reflects the random initialization. Records cover
    every ``record_stride``-th generation plus the final one; the
    satisfactory-solution scan runs every generation regardless of
    stride. Every ``BOUNDS_CHECK_STRIDE`` generations a gene outside the
    gene range raises RuntimeError.

    The first replicate in a process sets glibc's malloc to keep freed
    blocks for the rest of the process, so resident memory stays near
    its peak instead of shrinking between generations. Without glibc
    the setting does nothing.
    """
    keep_freed_memory()
    rng = np.random.default_rng(config.seed)
    state = fresh_scheme_state(config.scheme)
    archive = state.novelty.archive if state.novelty else None

    genotypes = random_genotypes(
        config.pop_size, config.dim, config.init_lo, config.init_hi, rng)
    pop = evaluate_population(genotypes, config.diagnostic)

    def take_snapshot(generation: int) -> GenerationRecord:
        return snapshot(
            pop, generation, config.diagnostic,
            archive=archive, include_archive=config.include_archive)

    records = [take_snapshot(0)]
    satisfactory_generation = 0 if has_satisfactory_solution(pop) else None

    for gen in range(1, config.generations + 1):
        parents = select(pop, state, config.pop_size, rng)
        offspring = mutate_batch(pop.genotypes[parents], config.mutation, rng)
        pop = evaluate_population(offspring, config.diagnostic)
        if satisfactory_generation is None and has_satisfactory_solution(pop):
            satisfactory_generation = gen
        if gen % config.record_stride == 0 or gen == config.generations:
            records.append(take_snapshot(gen))
        if gen % BOUNDS_CHECK_STRIDE == 0:
            lo, hi = pop.genotypes.min(), pop.genotypes.max()
            # A raise, not an assert, so that python -O keeps it; NaN fails it.
            if not (lo >= config.mutation.lo and hi <= config.mutation.hi):
                raise RuntimeError(
                    f"generation {gen}: genes span [{lo}, {hi}], outside the gene "
                    f"range [{config.mutation.lo}, {config.mutation.hi}]")

    best = best_index(pop)
    return ReplicateResult(
        records=records,
        satisfactory_generation=satisfactory_generation,
        best_genotype=pop.genotypes[best].copy(),
        best_phenotype=pop.phenotypes[best].copy(),
    )
