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

from dataclasses import dataclass
from typing import ClassVar, Optional

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

    Each gene independently receives, with probability ``per_gene_rate``,
    an additive draw from Normal(0, step_stddev**2). Out-of-range results
    are reflected back across the violated bound, ``lo`` or ``hi``; the
    bounds are the gene range and are not settable.
    """

    per_gene_rate: float = 0.007
    step_stddev: float = 1.0
    lo: ClassVar[float] = LOWER_BOUND
    hi: ClassVar[float] = UPPER_BOUND

    def __post_init__(self) -> None:
        if not 0.0 <= self.per_gene_rate <= 1.0:
            raise ConfigurationError(
                f"per_gene_rate must be in [0, 1], got {self.per_gene_rate}")
        if self.step_stddev <= 0.0:
            raise ConfigurationError(
                f"step_stddev must be positive, got {self.step_stddev}")


class Population:
    """Fixed-size collection of evaluated individuals, stored columnar.

    The population takes ownership of the arrays it is given and freezes
    them (non-writeable), so the caller's arrays become read-only too. An
    array that does not own its data, such as a view, is copied first, so
    no writeable alias remains. Derive new populations from copies rather
    than editing in place.
    """

    def __init__(
        self,
        genotypes: np.ndarray,
        phenotypes: np.ndarray,
        total_fitness: np.ndarray,
        activation_genes: Optional[np.ndarray] = None,
    ) -> None:
        genotypes = _owned(genotypes, np.float64)
        phenotypes = _owned(phenotypes, np.float64)
        total_fitness = _owned(total_fitness, np.float64)
        if genotypes.ndim != 2 or phenotypes.shape != genotypes.shape:
            raise ValueError("genotypes and phenotypes must be matching (N, D) arrays")
        if total_fitness.shape != (genotypes.shape[0],):
            raise ValueError("total_fitness must have one entry per member")
        if activation_genes is not None:
            activation_genes = _owned(activation_genes, np.int64)
            if activation_genes.shape != (genotypes.shape[0],):
                raise ValueError("activation_genes must have one entry per member")
        self.genotypes = genotypes
        self.phenotypes = phenotypes
        self.total_fitness = total_fitness
        self.activation_genes = activation_genes

    @property
    def dim(self) -> int:
        return self.genotypes.shape[1]

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
    if dim < 1:
        raise ConfigurationError(f"dimensionality must be >= 1, got {dim}")
    if not lo < hi:
        raise ConfigurationError(f"initialization range requires lo < hi, got [{lo}, {hi})")
    if lo < LOWER_BOUND or hi > UPPER_BOUND:
        raise ConfigurationError(
            f"initialization range [{lo}, {hi}) must lie within "
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
    """Mutate a writeable (N, D) float64 block of genotypes in place and
    return it.

    Each gene independently mutates with probability
    ``params.per_gene_rate``; the other genes stay as they are. Draws the
    hit mask first and then one normal step per hit, in row-major order,
    so the consumed stream is a pure function of the generator state and
    the block shape. Pass a copy to keep the original block.
    """
    mask = rng.random(genotypes.shape) < params.per_gene_rate
    n_hits = int(mask.sum())
    if n_hits:
        steps = rng.normal(0.0, params.step_stddev, size=n_hits)
        genotypes[mask] = rebound(genotypes[mask] + steps)
    return genotypes


def splitmix64(x: int) -> int:
    """SplitMix64's output from state ``x`` (Steele, Lea & Flood 2014); it
    makes the replicate seeds and the row hash's multipliers."""
    x = (x + SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)
