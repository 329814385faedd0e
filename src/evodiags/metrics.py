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
performance and satisfactory trait coverage, since archived phenotypes
are part of what the search has found.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Population, UPPER_BOUND
from .diagnostics import DIAGNOSTICS, PEAKS, DiagnosticKind

SATISFACTORY_THRESHOLD: float = 0.99 * UPPER_BOUND

CSV_HEADER = [
    "generation",
    "best_performance",
    "best_total_fitness",
    "satisfactory_trait_coverage",
    "activation_gene_coverage",
    "largest_valley_reached",
    "archive_size",
]

# Valley metric value when no gene has reached the first peak.
NO_VALLEY = -1


@dataclass(frozen=True)
class GenerationRecord:
    """One CSV row. None marks a field the diagnostic does not define."""

    generation: int
    best_performance: float
    best_total_fitness: float
    satisfactory_trait_coverage: Optional[int] = None
    activation_gene_coverage: Optional[int] = None
    largest_valley_reached: Optional[int] = None
    archive_size: Optional[int] = None


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


def _phenotype_activations(rows: np.ndarray) -> np.ndarray:
    """Activation genes recovered from expressed traits alone, one per
    row that expresses any trait.

    Every activation diagnostic expresses a contiguous region starting at
    the activation gene and nowhere before it, so the first nonzero trait
    index is the activation gene; all-zero phenotypes carry none.
    """
    nonzero = rows > 0.0
    return nonzero[nonzero.any(axis=1)].argmax(axis=1)


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

    return GenerationRecord(
        generation=generation,
        best_performance=best_total / pop.dim,
        best_total_fitness=best_total,
        satisfactory_trait_coverage=sat_cov,
        activation_gene_coverage=act_cov,
        largest_valley_reached=valley,
        archive_size=len(archive) if archive is not None else None,
    )


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def _format_cell(value, valley_field: bool = False) -> str:
    if value is None:
        return ""
    if valley_field and value == NO_VALLEY:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(text: str, kind: str):
    if text == "":
        return None
    if kind == "valley":
        return NO_VALLEY if text == "none" else int(text)
    if kind == "int":
        return int(text)
    return float(text)


def write_records_csv(path, records: Sequence[GenerationRecord]) -> None:
    """Write records deterministically: same records give identical bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([
                _format_cell(rec.generation),
                _format_cell(rec.best_performance),
                _format_cell(rec.best_total_fitness),
                _format_cell(rec.satisfactory_trait_coverage),
                _format_cell(rec.activation_gene_coverage),
                _format_cell(rec.largest_valley_reached, valley_field=True),
                _format_cell(rec.archive_size),
            ])


def read_records_csv(path) -> list[GenerationRecord]:
    """Parse a record CSV back to the exact records that produced it."""
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}: malformed row {row!r}")
            records.append(GenerationRecord(
                generation=_parse_cell(row[0], "int"),
                best_performance=_parse_cell(row[1], "float"),
                best_total_fitness=_parse_cell(row[2], "float"),
                satisfactory_trait_coverage=_parse_cell(row[3], "int"),
                activation_gene_coverage=_parse_cell(row[4], "int"),
                largest_valley_reached=_parse_cell(row[5], "valley"),
                archive_size=_parse_cell(row[6], "int"),
            ))
    return records
