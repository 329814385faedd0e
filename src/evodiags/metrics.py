"""Per-generation data tracking and the CSV row format: a
``GenerationRecord`` is a named tuple of its row's columns, in order.

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

Both coverages read phenotype blocks only; the activation genes are read
back from traits by ``diagnostics.activation_genes``. For novelty search
the archive can optionally count toward best performance and both
coverages, as one more block, since archived phenotypes are part of what
the search has found.
"""

from __future__ import annotations

import contextlib
import csv
import os
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import Population, UPPER_BOUND
from .diagnostics import DIAGNOSTICS, LAST_PEAK, DiagnosticKind, activation_genes

SATISFACTORY_THRESHOLD: float = 0.99 * UPPER_BOUND

# Valley metric value when no gene has reached the first peak.
NO_VALLEY = -1


def _int_cell(value: Optional[int]) -> str:
    return "" if value is None else str(value)


def _int_or_none(text: str) -> Optional[int]:
    return None if text == "" else int(text)


def _valley_cell(value: Optional[int]) -> str:
    return "none" if value == NO_VALLEY else _int_cell(value)


def _valley_or_none(text: str) -> Optional[int]:
    return NO_VALLEY if text == "none" else _int_or_none(text)


class GenerationRecord(NamedTuple):
    """One CSV row: the fields are its columns, in order. None marks a
    field the diagnostic does not define and is written as an empty cell;
    the valley column writes ``NO_VALLEY`` as "none"."""

    generation: int
    best_performance: float
    best_total_fitness: float
    satisfactory_trait_coverage: Optional[int] = None
    activation_gene_coverage: Optional[int] = None
    largest_valley_reached: Optional[int] = None
    archive_size: Optional[int] = None


CSV_HEADER = list(GenerationRecord._fields)
_FORMATTERS = (str, repr, repr, _int_cell, _int_cell, _valley_cell, _int_cell)
_PARSERS = (int, float, float, _int_or_none, _int_or_none, _valley_or_none, _int_or_none)


def has_satisfactory_solution(pop: Population) -> bool:
    """True if any member satisfies every trait simultaneously."""
    return bool((pop.phenotypes >= SATISFACTORY_THRESHOLD).all(axis=1).any())


def satisfactory_trait_coverage(*phenotypes: np.ndarray) -> int:
    """Count trait indices satisfied by at least one row of the blocks."""
    covered = False
    for block in phenotypes:
        covered = covered | (block >= SATISFACTORY_THRESHOLD).any(axis=0)
    return int(np.count_nonzero(covered))


def activation_gene_coverage(*phenotypes: np.ndarray) -> int:
    """Count distinct activation genes across the rows of the blocks."""
    genes = np.concatenate([activation_genes(block) for block in phenotypes])
    return int(np.count_nonzero(np.bincount(genes)))


def largest_valley_reached(genes: np.ndarray) -> int:
    """Index of the last peak attained by any gene; -1 below the first peak.

    Peak index k equals the number of fully crossed valleys, so a max
    gene of 20.0 (peaks 8, 9, 11, 14, 18 attained) reports 4. Genes lie
    in [0, 100], the domain of ``LAST_PEAK``.
    """
    return int(LAST_PEAK[int(np.max(genes))])


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
    competes for best performance and adds its satisfied traits and
    activation genes; the valley metric stays population-based because
    archived phenotypes carry no genes.
    """
    best = best_index(pop)
    best_total = float(pop.total_fitness[best])
    blocks = [pop.phenotypes]
    if archive is not None and len(archive) and include_archive:
        archive_rows = np.asarray(archive, dtype=np.float64)
        best_total = max(best_total, float(archive_rows.sum(axis=1).max()))
        blocks.append(archive_rows)

    diagnostic = DIAGNOSTICS[kind]
    sat_cov = None
    act_cov = None
    if diagnostic.activation:
        sat_cov = satisfactory_trait_coverage(*blocks)
        act_cov = activation_gene_coverage(*blocks)

    valley = None
    if diagnostic.valleys:
        valley = largest_valley_reached(pop.genotypes[best])

    archived = len(archive) if archive is not None else None
    return GenerationRecord(generation, best_total / pop.phenotypes.shape[1], best_total,
                            sat_cov, act_cov, valley, archived)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def written_whole(path, **open_args):
    """Open ``<path>.part`` for writing and rename it onto ``path`` once the
    block ends. If the block or the write raises, the ``.part`` file is
    removed and the error raised again, so no partial file is left."""
    part = f"{path}.part"
    try:
        with open(part, "w", **open_args) as handle:
            yield handle
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def write_records_csv(path, records: Sequence[GenerationRecord]) -> None:
    """Write records deterministically: same records give identical bytes.
    The rows go through :func:`written_whole`, so ``path`` appears only
    once whole."""
    with written_whole(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([write(value) for write, value in zip(_FORMATTERS, rec)])


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
