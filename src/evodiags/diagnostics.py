"""The eight genotype-to-phenotype translation functions.

Four base translations each isolate one search-space character:

* ``exploitation-rate``: genes copy straight into traits, giving D
  independent smooth gradients.
* ``ordered-exploitation``: only the leading non-increasing run of genes
  ("active region") is expressed; everything after the first rise is 0.
* ``contradictory-objectives``: only the single highest gene (the
  "activation gene") is expressed, creating D mutually exclusive optima.
* ``multipath-exploration``: the non-increasing run starting at the
  activation gene is expressed, creating D pathways of unequal length.

The four valley variants apply the same translations and then pass every
would-be trait through a sawtooth transform whose peaks sit at
8, 9, 11, 14, ... 99 with linearly descending, ever-wider valleys
between them. Crossing a valley requires accepting worse trait values
before recovering them at the next peak.

All translations are pure and operate row-wise on (N, D) blocks. An
activation gene can be read back from traits alone, as the metrics do
for archived phenotypes.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import Population


class DiagnosticKind(str, Enum):
    """Canonical diagnostic names used in configs, CLI flags, and filenames."""

    EXPLOITATION_RATE = "exploitation-rate"
    ORDERED_EXPLOITATION = "ordered-exploitation"
    CONTRADICTORY_OBJECTIVES = "contradictory-objectives"
    MULTIPATH_EXPLORATION = "multipath-exploration"
    VALLEY_CROSSING = "valley-crossing"
    ORDERED_EXPLOITATION_VALLEYS = "ordered-exploitation-valleys"
    CONTRADICTORY_OBJECTIVES_VALLEYS = "contradictory-objectives-valleys"
    MULTIPATH_VALLEYS = "multipath-valleys"


# Peak k of the sawtooth sits at VALLEY_START + k (k + 1) / 2, so the k-th
# valley is k units wide: 8, 9, 11, 14, 18, 23, 29, 36, 44, 53, 63, 74,
# 86, 99. The next peak, 113, would lie past the gene cap of 100.
VALLEY_START: float = 8.0
PEAKS = VALLEY_START + np.array([k * (k + 1) / 2.0 for k in range(14)])
PEAKS.flags.writeable = False


def all_diagnostic_names() -> list[str]:
    return [kind.value for kind in DiagnosticKind]


# ---------------------------------------------------------------------------
# Base translations
# ---------------------------------------------------------------------------


def _exploitation_rate_rows(rows: np.ndarray) -> tuple[np.ndarray, None]:
    """Express every gene as its trait."""
    return rows.copy(), None


def _expressed_run(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Express each row's non-increasing run that opens at gene
    ``start[i]`` and closes before the first later gene that rises above
    its predecessor; every other trait is 0."""
    cols = np.arange(rows.shape[1])
    rising = np.zeros_like(rows, dtype=bool)
    rising[:, 1:] = rows[:, 1:] > rows[:, :-1]
    rise_after_start = rising & (cols > start[:, np.newaxis])
    has_end = rise_after_start.any(axis=1)
    region_end = np.where(has_end, rise_after_start.argmax(axis=1), rows.shape[1])
    active = (cols >= start[:, np.newaxis]) & (cols < region_end[:, np.newaxis])
    return np.where(active, rows, 0.0)


def _phenotype_activations(traits: np.ndarray) -> np.ndarray:
    """Activation genes read back from traits, one per row that expresses
    any: the first nonzero trait, as the activation translations express
    a positive trait there (the sawtooth keeps it positive) and none
    before it. All-zero rows carry none."""
    nonzero = traits > 0.0
    return nonzero[nonzero.any(axis=1)].argmax(axis=1)


def _ordered_exploitation_rows(rows: np.ndarray) -> tuple[np.ndarray, None]:
    """Express each row's leading non-increasing run; later traits are 0."""
    return _expressed_run(rows, np.zeros(rows.shape[0], dtype=np.intp)), None


def _contradictory_objectives_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express only each row's highest gene, its activation gene (ties go
    to the lower index)."""
    n = rows.shape[0]
    activation = rows.argmax(axis=1)
    traits = np.zeros_like(rows)
    sel = np.arange(n)
    traits[sel, activation] = rows[sel, activation]
    return traits, activation


def _multipath_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express the non-increasing run that opens at each row's activation
    gene (its highest, ties to the lower index)."""
    activation = rows.argmax(axis=1)
    return _expressed_run(rows, activation), activation


# ---------------------------------------------------------------------------
# Sawtooth transform
# ---------------------------------------------------------------------------


def apply_valleys(traits: np.ndarray) -> np.ndarray:
    """Map traits through the peaked valley profile, element-wise.

    Values at or below ``VALLEY_START`` pass through unchanged, so zero
    (inactive) traits stay zero; every peak is a fixed point; between
    peaks the output descends from the last peak with slope -1 and snaps
    back to the input value at the next peak. Past the final peak the
    last descent simply continues to the domain bound. Traits come from
    in-range genes, so they lie in [0, 100].
    """
    v = np.asarray(traits, dtype=np.float64)
    # The last peak at or below v. The first peak is VALLEY_START, so every
    # v without one lies in the identity region v <= VALLEY_START, where
    # the wrapped index -1 picks an anchor that is never used.
    anchor = PEAKS[np.searchsorted(PEAKS, v, side="right") - 1]
    return np.where(v <= VALLEY_START, v, anchor - (v - anchor))


# ---------------------------------------------------------------------------
# The catalog and the dispatcher
# ---------------------------------------------------------------------------


class Diagnostic(NamedTuple):
    """A diagnostic's base translation, whether the sawtooth follows it,
    whether it has activation genes, and its one-line description."""

    rows: Callable[[np.ndarray], tuple[np.ndarray, Optional[np.ndarray]]]
    valleys: bool
    activation: bool
    describe: str


DIAGNOSTICS = {
    DiagnosticKind.EXPLOITATION_RATE: Diagnostic(
        _exploitation_rate_rows, False, False,
        "genes copy straight to traits; D independent smooth gradients"),
    DiagnosticKind.ORDERED_EXPLOITATION: Diagnostic(
        _ordered_exploitation_rows, False, False,
        "only the leading non-increasing run of genes is expressed"),
    DiagnosticKind.CONTRADICTORY_OBJECTIVES: Diagnostic(
        _contradictory_objectives_rows, False, True,
        "only the highest gene is expressed; one optimum per trait"),
    DiagnosticKind.MULTIPATH_EXPLORATION: Diagnostic(
        _multipath_rows, False, True,
        "non-increasing run from the highest gene; pathways of unequal length"),
    DiagnosticKind.VALLEY_CROSSING: Diagnostic(
        _exploitation_rate_rows, True, False,
        "exploitation-rate traits pushed through the sawtooth valleys"),
    DiagnosticKind.ORDERED_EXPLOITATION_VALLEYS: Diagnostic(
        _ordered_exploitation_rows, True, False,
        "ordered-exploitation with sawtooth valleys"),
    DiagnosticKind.CONTRADICTORY_OBJECTIVES_VALLEYS: Diagnostic(
        _contradictory_objectives_rows, True, True,
        "contradictory-objectives with sawtooth valleys"),
    DiagnosticKind.MULTIPATH_VALLEYS: Diagnostic(
        _multipath_rows, True, True,
        "multipath-exploration with sawtooth valleys"),
}


def translate(genotypes: np.ndarray, kind: DiagnosticKind) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Translate an (N, D) genotype block into traits under ``kind``.

    Returns the (N, D) trait block and, for activation diagnostics, the
    (N,) activation indices (None otherwise). Valley variants run the base
    translation and then the sawtooth; activation genes are determined
    from the raw genes, before the sawtooth is applied.
    """
    diagnostic = DIAGNOSTICS[kind]
    traits, activation = diagnostic.rows(np.asarray(genotypes, dtype=np.float64))
    if diagnostic.valleys:
        traits = apply_valleys(traits)
    return traits, activation


def evaluate_population(genotypes: np.ndarray, kind: DiagnosticKind) -> Population:
    """Evaluate an (N, D) genotype block into a frozen population.

    The population takes ownership of ``genotypes`` and freezes it (see
    :class:`~evodiags.core.Population`); pass a copy to keep a writeable
    block.
    """
    traits, activation = translate(genotypes, kind)
    return Population(
        genotypes=genotypes,
        phenotypes=traits,
        total_fitness=traits.sum(axis=1),
        activation_genes=activation,
    )
