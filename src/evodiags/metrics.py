"""Per-generation data tracking and the CSV row format.

Tracked quantities:

* best performance: average trait of the generation's best individual
  (highest total fitness, lowest index on ties);
* satisfactory trait coverage: how many distinct trait indices any member
  satisfies (trait >= 99% of the 100.0 upper bound);
* activation gene coverage: how many distinct activation genes are
  present (activation diagnostics only);
* largest valley reached: index of the last sawtooth peak attained by any
  gene of the best individual (valley diagnostics only);
* archive size (novelty search only).

For novelty search the archive can optionally count toward best
performance and both coverages (archived activation genes are read back
from traits by ``diagnostics``), since archived phenotypes are part of
what the search has found.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Population, UPPER_BOUND
from .diagnostics import DIAGNOSTICS, PEAKS, DiagnosticKind, _phenotype_activations

SATISFACTORY_THRESHOLD: float = 0.99 * UPPER_BOUND

# Valley metric value when no gene has reached the first peak.
NO_VALLEY = -1


def _int_cell(value: Optional[int]) -> str:
    return "" if value is None else str(value)


def _int_or_none(text: str) -> Optional[int]:
    return None if text == "" else int(text)


def _column(write: Callable[[object], str], read: Callable[[str], object], **kwargs):
    """A record field that is one CSV column, with its formatter and parser."""
    return field(metadata={"csv": (write, read)}, **kwargs)


@dataclass(frozen=True)
class GenerationRecord:
    """One CSV row, one column per field in order. None marks a field the
    diagnostic does not define and is written as an empty cell; the valley
    column writes ``NO_VALLEY`` as "none"."""

    generation: int = _column(str, int)
    best_performance: float = _column(repr, float)
    best_total_fitness: float = _column(repr, float)
    satisfactory_trait_coverage: Optional[int] = _column(_int_cell, _int_or_none, default=None)
    activation_gene_coverage: Optional[int] = _column(_int_cell, _int_or_none, default=None)
    largest_valley_reached: Optional[int] = _column(
        lambda value: "none" if value == NO_VALLEY else _int_cell(value),
        lambda text: NO_VALLEY if text == "none" else _int_or_none(text), default=None)
    archive_size: Optional[int] = _column(_int_cell, _int_or_none, default=None)


CSV_HEADER = [f.name for f in fields(GenerationRecord)]
_record_values = attrgetter(*CSV_HEADER)
_FORMATTERS, _PARSERS = zip(*(f.metadata["csv"] for f in fields(GenerationRecord)))


def has_satisfactory_solution(pop: Population) -> bool:
    """True if any member satisfies every trait simultaneously."""
    return bool((pop.phenotypes >= SATISFACTORY_THRESHOLD).all(axis=1).any())


def satisfactory_trait_coverage(
    pop: Population, extra_phenotypes: Optional[np.ndarray] = None
) -> int:
    """Count trait indices satisfied by at least one solution."""
    covered = (pop.phenotypes >= SATISFACTORY_THRESHOLD).any(axis=0)
    if extra_phenotypes is not None and len(extra_phenotypes):
        extra = np.asarray(extra_phenotypes, dtype=np.float64)
        covered = covered | (extra >= SATISFACTORY_THRESHOLD).any(axis=0)
    return int(covered.sum())


def activation_gene_coverage(pop: Population) -> int:
    """Count distinct activation genes across the population."""
    if pop.activation_genes is None:
        raise ValueError("population was evaluated without activation genes")
    return int(np.unique(pop.activation_genes).size)


def largest_valley_reached(genes: np.ndarray) -> int:
    """Index of the last peak attained by any gene; -1 below the first peak.

    Peak index k equals the number of fully crossed valleys, so a max
    gene of 20.0 (peaks 8, 9, 11, 14, 18 attained) reports 4.
    """
    top = float(np.max(np.asarray(genes, dtype=np.float64)))
    return int(np.searchsorted(PEAKS, top, side="right")) - 1


def best_index(pop: Population) -> int:
    """Index of the highest total fitness, lowest index on ties."""
    return int(np.argmax(pop.total_fitness))


def snapshot(
    pop: Population,
    generation: int,
    kind: DiagnosticKind,
    archive: Optional[Sequence[np.ndarray]] = None,
    include_archive: bool = False,
) -> GenerationRecord:
    """Assemble the record for one generation.

    Coverage fields are populated only for activation diagnostics, the
    valley field only for valley diagnostics, and the archive size only
    when an archive is supplied. With ``include_archive`` the archive
    competes for best performance and contributes satisfied traits; the
    valley metric stays population-based because archived phenotypes
    carry no genes.
    """
    best = best_index(pop)
    best_total = float(pop.total_fitness[best])
    archive_rows = None
    if archive is not None and len(archive) and include_archive:
        archive_rows = np.asarray(archive, dtype=np.float64)
        best_total = max(best_total, float(archive_rows.sum(axis=1).max()))

    diagnostic = DIAGNOSTICS[kind]
    sat_cov = None
    act_cov = None
    if diagnostic.activation:
        sat_cov = satisfactory_trait_coverage(pop, archive_rows)
        if archive_rows is None:
            act_cov = activation_gene_coverage(pop)
        else:
            act_cov = int(np.union1d(
                pop.activation_genes, _phenotype_activations(archive_rows)).size)

    valley = None
    if diagnostic.valleys:
        valley = largest_valley_reached(pop.genotypes[best])

    archived = len(archive) if archive is not None else None
    return GenerationRecord(
        generation, best_total / pop.dim, best_total, sat_cov, act_cov, valley, archived)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def write_records_csv(path, records: Sequence[GenerationRecord]) -> None:
    """Write records deterministically: same records give identical bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([write(value)
                             for write, value in zip(_FORMATTERS, _record_values(rec))])


def read_records_csv(path) -> list[GenerationRecord]:
    """Parse a record CSV back to the exact records that produced it.

    A missing or wrong header, a row of the wrong length or a cell its
    column cannot parse raises ValueError.
    """
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no header line")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}: malformed row {row!r}")
            records.append(GenerationRecord(
                *[parse(cell) for parse, cell in zip(_PARSERS, row)]))
    return records
