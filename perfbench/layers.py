"""Per-layer timing for the traced run, taken from outside the package.

``traced_replicate`` is the benchmark's own copy of
``evodiags.evolve.run_replicate``'s loop. It makes the same public calls
in the same order, so it draws the same random stream and must write the
same CSV bytes, and it times each call. ``pool_spans`` and
``analyze_spans`` wrap names that ``evodiags.cli`` looks up at call time,
for the traced run only, and restore them afterwards.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from evodiags import cli
from evodiags.core import mutate_batch, random_genotypes
from evodiags.diagnostics import evaluate_population
from evodiags.evolve import BOUNDS_CHECK_STRIDE, ReplicateConfig
from evodiags.metrics import has_satisfactory_solution, snapshot, write_records_csv
from evodiags.selection import SchemeKind, fresh_scheme_state, select

clock = time.perf_counter


@dataclass
class ReplicateTrace:
    """Seconds spent in each layer over one replicate, plus counts."""

    scheme: str
    generations: int
    rows_written: int = 0
    select_s: float = 0.0
    mutate_s: float = 0.0
    evaluate_s: float = 0.0
    record_s: float = 0.0
    csv_write_s: float = 0.0
    wall_s: float = 0.0  # the replicate, without the distinct-row counting
    counting_s: float = 0.0  # the benchmark's distinct-row counting
    distinct_rows: int = 0  # summed over the generations selected from


def distinct_rows(phenotypes: np.ndarray) -> int:
    """Distinct phenotype rows; adding 0.0 makes -0.0 equal 0.0."""
    rows = np.ascontiguousarray(phenotypes + 0.0)
    return len({row.tobytes() for row in rows})


def traced_replicate(config: ReplicateConfig, scheme: str, path: Path) -> ReplicateTrace:
    """Run one replicate as ``run_replicate`` does, timing every call, and
    write its CSV with ``write_records_csv``."""
    trace = ReplicateTrace(scheme=scheme, generations=config.generations)
    start = clock()
    rng = np.random.default_rng(config.seed)
    state = fresh_scheme_state(config.scheme)
    archive = state.novelty.archive if state.scheme is SchemeKind.NOVELTY else None
    genotypes = random_genotypes(
        config.pop_size, config.dim, config.init_lo, config.init_hi, rng)
    pop = evaluate_population(genotypes, config.diagnostic)
    records = [snapshot(pop, 0, config.diagnostic, archive=archive,
                        include_archive=config.include_archive)]
    satisfactory = 0 if has_satisfactory_solution(pop) else None
    for gen in range(1, config.generations + 1):
        t0 = clock()
        trace.distinct_rows += distinct_rows(pop.phenotypes)
        trace.counting_s += clock() - t0
        t0 = clock()
        parents = select(pop, state, config.pop_size, rng)
        t1 = clock()
        offspring = mutate_batch(pop.genotypes[parents], config.mutation, rng)
        t2 = clock()
        pop = evaluate_population(offspring, config.diagnostic)
        t3 = clock()
        if satisfactory is None and has_satisfactory_solution(pop):
            satisfactory = gen
        if gen % config.record_stride == 0 or gen == config.generations:
            records.append(snapshot(pop, gen, config.diagnostic, archive=archive,
                                    include_archive=config.include_archive))
        t4 = clock()
        trace.select_s += t1 - t0
        trace.mutate_s += t2 - t1
        trace.evaluate_s += t3 - t2
        trace.record_s += t4 - t3
        if gen % BOUNDS_CHECK_STRIDE == 0:
            assert pop.genotypes.min() >= config.mutation.lo
            assert pop.genotypes.max() <= config.mutation.hi
    t0 = clock()
    write_records_csv(path, records)
    trace.csv_write_s = clock() - t0
    trace.rows_written = len(records)
    trace.wall_s = clock() - start - trace.counting_s
    return trace


@contextmanager
def pool_spans(span_dir: Path):
    """Record one span per replicate around the ``run_replicate`` and
    ``write_records_csv`` calls that ``cli`` makes in its pool workers.

    Workers are forked, so they inherit the wrapped names; each appends
    its spans to a file named after its process id.
    """
    span_dir.mkdir(parents=True, exist_ok=True)
    original_run, original_write = cli.run_replicate, cli.write_records_csv
    started = {}

    def run_replicate(config):
        started["t"] = clock()
        return original_run(config)

    def write(path, records):
        original_write(path, records)
        span = {"file": os.path.basename(path), "start": started.pop("t"),
                "end": clock()}
        with open(span_dir / f"spans-{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(span) + "\n")

    cli.run_replicate, cli.write_records_csv = run_replicate, write
    try:
        yield
    finally:
        cli.run_replicate, cli.write_records_csv = original_run, original_write


def read_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


@dataclass
class AnalyzeTrace:
    csv_read_s: float = 0.0
    rows_read: int = 0
    stats_s: float = 0.0


@contextmanager
def analyze_spans(trace: AnalyzeTrace):
    """Time ``analyze``'s CSV reads and its statistics calls."""
    names = ("read_records_csv", "kruskal_wallis", "wilcoxon_rank_sum", "bonferroni")
    originals = {name: getattr(cli, name) for name in names}

    def wrap(name):
        fn = originals[name]

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - t0
            if name == "read_records_csv":
                trace.csv_read_s += elapsed
                trace.rows_read += len(out)
            else:
                trace.stats_s += elapsed
            return out
        return timed

    for name in names:
        setattr(cli, name, wrap(name))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
