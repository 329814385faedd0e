"""Genome representation, initialization, and bounded point mutation.

A genotype is a fixed-length vector of floating-point trait values in
[0.0, 100.0]. Populations are stored as dense (N, D) arrays so that
evaluation and variation stay vectorized; every function here works on
whole blocks, and a single genotype is a block of one row.

All randomness flows through an explicit ``numpy.random.Generator`` so a
replicate is bit-reproducible from its seed. Evaluation is pure and
consumes no randomness. :func:`splitmix64` derives the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

LOWER_BOUND: float = 0.0
UPPER_BOUND: float = 100.0
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


class ConfigurationError(ValueError):
    """Raised when a parameter value violates its documented range."""


@dataclass(frozen=True)
class MutationParams:
    """Per-gene point mutation settings.

    Each gene independently receives, with probability ``mutation_rate``,
    an additive draw from Normal(0, mutation_stddev**2). Out-of-range results
    are reflected back across the violated bound, ``lo`` or ``hi``; the
    bounds are the gene range and are not settable.
    """

    mutation_rate: float = 0.007
    mutation_stddev: float = 1.0
    lo: ClassVar[float] = LOWER_BOUND
    hi: ClassVar[float] = UPPER_BOUND

    def __post_init__(self) -> None:
        # Every range check is written so that NaN and infinity fail it.
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError(
                f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if not 0.0 < self.mutation_stddev < math.inf:
            raise ConfigurationError(
                f"mutation_stddev must be finite and positive, got {self.mutation_stddev}")


class Population:
    """Fixed-size collection of evaluated individuals, stored columnar as
    three arrays: (N, D) genotypes and phenotypes, and (N,) total fitness.

    The population takes ownership of the arrays it is given and freezes
    them (non-writeable), so the caller's arrays become read-only too. An
    array that does not own its data, such as a view, is copied first, so
    no writeable alias remains. Derive new populations from copies rather
    than editing in place.
    """

    def __init__(self, genotypes: np.ndarray, phenotypes: np.ndarray,
                 total_fitness: np.ndarray) -> None:
        genotypes = _owned(genotypes, np.float64)
        phenotypes = _owned(phenotypes, np.float64)
        total_fitness = _owned(total_fitness, np.float64)
        if genotypes.ndim != 2 or phenotypes.shape != genotypes.shape:
            raise ValueError("genotypes and phenotypes must be matching (N, D) arrays")
        if total_fitness.shape != (genotypes.shape[0],):
            raise ValueError("total_fitness must have one entry per member")
        self.genotypes = genotypes
        self.phenotypes = phenotypes
        self.total_fitness = total_fitness

    def __len__(self) -> int:
        return self.genotypes.shape[0]


def _owned(values, dtype) -> np.ndarray:
    """``values`` as a frozen array of ``dtype`` that owns its data; it is
    copied only when it is a view or has another dtype."""
    arr = np.asarray(values, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def random_genotypes(
    n: int,
    dim: int,
    lo: float,
    hi: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw an (n, dim) block of genotypes, genes independently uniform on
    [lo, hi), in row-major order.

    Initial populations start far below the gene cap (default range is
    [0, 1)), so early search has to climb the whole scale.
    """
    _check_init_range(dim, lo, hi)
    if n < 1:
        raise ConfigurationError(f"population size must be >= 1, got {n}")
    return rng.uniform(lo, hi, size=(n, dim))


def _check_init_range(dim: int, lo: float, hi: float) -> None:
    # The messages name the keys of a run config, which are the field names
    # of ReplicateConfig.
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    if not lo < hi:
        raise ConfigurationError(
            f"initialization range requires init_lo < init_hi, got "
            f"init_lo = {lo}, init_hi = {hi}")
    if lo < LOWER_BOUND or hi > UPPER_BOUND:
        raise ConfigurationError(
            f"initialization range init_lo = {lo}, init_hi = {hi} must lie within "
            f"[{LOWER_BOUND}, {UPPER_BOUND}]")


def rebound(values: np.ndarray) -> np.ndarray:
    """Reflect values outside the gene range back across the violated
    bound.

    A value of -0.7 becomes 0.7 and 100.7 becomes 99.3. Unit-scale steps
    cannot overshoot twice from inside the range, so a single reflection
    suffices; the final clip only guards against pathological inputs.
    """
    v = np.asarray(values, dtype=np.float64)
    v = np.where(v < LOWER_BOUND, LOWER_BOUND + (LOWER_BOUND - v), v)
    v = np.where(v > UPPER_BOUND, UPPER_BOUND - (v - UPPER_BOUND), v)
    return np.clip(v, LOWER_BOUND, UPPER_BOUND)


def mutate_batch(
    genotypes: np.ndarray,
    params: MutationParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mutate a writeable (N, D) float64 block of genotypes in place, in
    any memory layout, and return it.

    Each gene independently mutates with probability
    ``params.mutation_rate``; the other genes stay as they are. Draws the
    hit mask first and then one normal step per hit, in row-major order,
    so the consumed stream is a pure function of the generator state and
    the block shape. Pass a copy to keep the original block.
    """
    hits = np.flatnonzero(rng.random(genotypes.shape) < params.mutation_rate)
    if hits.size:
        steps = rng.normal(0.0, params.mutation_stddev, size=hits.size)
        # take and put read flat positions in row-major order whatever the
        # block's layout, and put writes the block itself, not a copy.
        genotypes.put(hits, rebound(genotypes.take(hits) + steps))
    return genotypes


def splitmix64(x: int) -> int:
    """SplitMix64's output from state ``x`` (Steele, Lea & Flood 2014); it
    makes the replicate seeds and the row hash's multipliers."""
    x = (x + SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)
