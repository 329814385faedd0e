"""The benchmark's three workloads.

Each workload runs whole rounds for about ``seconds`` (at least
``MIN_ROUNDS``), with ``analyze`` passes over a fixed set of the CSVs it
wrote between them, and then checks every output with ``checks``. The
untraced run reports the end-to-end metrics; the traced run
(``trace=True``) reports the per-layer metrics from ``layers`` and checks
that its CSVs are byte-identical to untraced ones.

* ``desk-grid``: per round, the ``run`` command over all 8 diagnostics x
  8 schemes x ``DESK["replicates"]`` at 128 x 20 with 2 pool workers,
  then 1-worker runs, each of one diagnostic and one scheme.
* ``headline-smooth`` / ``headline-sparse``: per round, replicates of
  every scheme at 512 x 100 on valley-crossing / contradictory-objectives,
  in this process, in an order that moves each round.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from evodiags import cli
from evodiags.evolve import run_replicate
from evodiags.metrics import write_records_csv

import checks
import layers
from reference import Reference

clock = time.perf_counter

SCHEMES = cli.all_scheme_names()
DIAGNOSTICS = cli.all_diagnostic_names()

# Four replicates per treatment: with fewer, every rank-sum p-value of
# the 28 scheme pairs is at least 0.1, and the Bonferroni product is
# always capped at 1.
DESK = {"pop_size": 128, "dim": 20, "generations": 30, "replicates": 4,
        "stride": 1}
DESK_WORKERS = 2
# Generations of the 1-worker runs, one diagnostic and one scheme at a
# time, chosen so that each scheme's 8 runs in a round are about 0.8 s: at
# 128 x 20 a generation (with its share of the CLI's per-replicate work)
# costs about 0.21 ms under the cheap schemes, 0.63 ms under sharing,
# lexicase and novelty, 1.2 ms under nsga. Short runs spread over the
# round, rather than one block per scheme, average out the machine's
# second-to-second speed changes.
DESK_SCHEME_GENERATIONS = {
    "truncation": 120, "tournament": 100, "random": 120,
    "sharing-genotypic": 40, "sharing-phenotypic": 40, "lexicase": 40,
    "nsga": 20, "novelty": 40,
}

HEADLINE_DIAGNOSTIC = {
    "headline-smooth": "valley-crossing",
    "headline-sparse": "contradictory-objectives",
}
HEADLINE = {"pop_size": 512, "dim": 100, "stride": 1}
# Generations per replicate (ms per generation at 512 x 100 in brackets),
# and HEADLINE_SPLIT replicates per round (1 where not given), spread over
# the round. A scheme's time in a run is a few seconds, and the machine's
# speed changes from second to second: one 1 s block per round of a cheap
# scheme left its ms_per_gen with spreads up to 0.3 across runs, and three
# 1 s nsga replicates per run on headline-smooth up to 0.2. So the cheap
# schemes run four replicates of about 0.25 s per round, and on
# headline-smooth the costly ones other than novelty run three of about
# 0.33 s, since nearly every phenotype there is distinct from the start.
# On headline-sparse they keep one replicate of about 1 s, long enough for
# their distinct-row counts to settle. Novelty runs one replicate of 150
# generations on both, long enough for its archive to start growing on
# valley-crossing.
HEADLINE_GENERATIONS = {
    # cheap schemes (1.6), sharing (22), lexicase (33), nsga (36)
    "headline-smooth": {
        "truncation": 150, "tournament": 150, "random": 150,
        "sharing-genotypic": 15, "sharing-phenotypic": 15, "lexicase": 10,
        "nsga": 10, "novelty": 150},
    # cheap schemes (0.8), sharing (19), lexicase (4.5), nsga (23)
    "headline-sparse": {
        "truncation": 300, "tournament": 275, "random": 300,
        "sharing-genotypic": 55, "sharing-phenotypic": 55, "lexicase": 220,
        "nsga": 45, "novelty": 150},
}
HEADLINE_SPLIT = {
    "headline-smooth": {
        "truncation": 4, "tournament": 4, "random": 4, "sharing-genotypic": 3,
        "sharing-phenotypic": 3, "lexicase": 3, "nsga": 3},
    "headline-sparse": {"truncation": 4, "tournament": 4, "random": 4},
}

ANALYZE_METRICS = ["best_performance", "best_total_fitness",
                   "satisfactory_trait_coverage", "activation_gene_coverage",
                   "largest_valley_reached"]
MIN_ROUNDS = 2


@dataclass
class Run:
    name: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    problems: checks.Problems = field(default_factory=checks.Problems)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    trace_log: dict = field(default_factory=dict)
    setup: "SetupTimer | None" = None  # untraced runs only
    reference: Reference | None = None  # untraced runs only
    unscaled: dict = field(default_factory=dict)

    def report(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def time_setup(self) -> None:
        """One ``describe`` launch, in untraced runs; called at the start
        and in the middle of every round."""
        if self.setup is not None:
            self.setup.launch()

    def sample_speed(self) -> None:
        """One sample of the reference kernel, in untraced runs; called
        between the timed steps all through the run."""
        if self.reference is not None:
            self.reference.sample()

    def scale_times(self) -> None:
        """Report every time at the reference speed (``reference.py``),
        keeping the measured figures in ``unscaled``."""
        factor = self.reference.scale()
        self.unscaled = {name: dict(entry) for name, entry in self.metrics.items()}
        for entry in self.metrics.values():
            if entry["unit"] in ("s", "ms"):
                entry["value"] *= factor
            elif entry["unit"] == "1/s":
                entry["value"] /= factor


def rounds(seconds: float):
    """Yield round numbers until the round boundary nearest to ``seconds``
    (at least ``MIN_ROUNDS``): another round starts only while less than
    half of the mean round time would run past ``seconds``."""
    start = clock()
    r = 0
    while r < MIN_ROUNDS or (clock() - start) * (1 + 0.5 / r) < seconds:
        yield r
        r += 1


def rotated(r: int) -> list[str]:
    k = r % len(SCHEMES)
    return SCHEMES[k:] + SCHEMES[:k]


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited children:
    the pool workers. The ``describe`` launches are not among them, since
    ``SetupTimer`` is waited for only after this is read."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class SetupTimer:
    """Fresh ``evodiags describe`` processes, launched one at a time by a
    ``setup_timer.py`` helper and spread over the workload's rounds, so
    that ``setup_s`` meets the same machine speed as the other metrics."""

    def __init__(self, run: Run):
        self.run = run
        self.times = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("setup_timer.py"))],
            cwd=run.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def launch(self) -> None:
        self.proc.stdin.write("describe\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("setup_timer.py ended early")
        result = json.loads(line)
        self.times.append(result["seconds"])
        if result["returncode"] != 0 or not all(
                name in result["stdout"] for name in DIAGNOSTICS + SCHEMES):
            self.run.problems.add(
                f"describe exited {result['returncode']}: {result['stderr']}")

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=180)
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@dataclass
class Analyze:
    """Passes of ``cli.analyze`` over ``ANALYZE_METRICS``, interleaved with
    a workload's rounds so that they meet the same machine speed."""

    run: Run
    in_dir: Path
    times: list = field(default_factory=list)
    printed: dict = field(default_factory=dict)
    trace: layers.AnalyzeTrace = field(default_factory=layers.AnalyzeTrace)

    @property
    def out_dir(self) -> Path:
        return self.run.work / "analyze-out"

    def one_pass(self) -> None:
        run = self.run
        self.out_dir.mkdir(exist_ok=True)
        spans = (layers.analyze_spans(self.trace) if run.trace
                 else contextlib.nullcontext())
        with spans:
            t0 = clock()
            for metric in ANALYZE_METRICS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.analyze(str(self.in_dir), metric=metric,
                                       out_path=str(self.out_dir / f"{metric}.csv"))
                run.attempted += 1
                if code != 0:
                    run.failed += 1
                    run.problems.add(f"analyze {metric} exited {code}")
                self.printed[metric] = buf.getvalue()
            self.times.append(clock() - t0)

    def finish(self, finals: dict) -> None:
        """Check the last pass against scipy; report the analyze metrics."""
        run = self.run
        for metric in ANALYZE_METRICS:
            per_metric = {}
            for (diagnostic, scheme), rows_list in finals.items():
                values = [checks.final_value(rows, metric) for rows in rows_list]
                values = [v for v in values if v is not None]
                if values:
                    per_metric.setdefault(diagnostic, {})[scheme] = values
            checks.check_analyze(self.printed[metric],
                                 self.out_dir / f"{metric}.csv",
                                 per_metric, metric, run.problems)
        passes = len(self.times)
        if run.trace:
            run.report("csv_read_us_per_row",
                       1e6 * self.trace.csv_read_s / self.trace.rows_read, "us")
            run.report("csv_rows_read", self.trace.rows_read / passes, "count")
            run.report("stats_ms", 1e3 * self.trace.stats_s / passes, "ms")
        else:
            run.report("analyze_s", sum(self.times) / passes, "s")


def finals_of(paths_rows) -> dict:
    """Group parsed CSV rows by (diagnostic, scheme), in file-name order."""
    finals = {}
    for path, rows in sorted(paths_rows, key=lambda item: item[0].name):
        diagnostic, scheme, _ = path.stem.split("__")
        finals.setdefault((diagnostic, scheme), []).append(rows)
    return finals


# ---------------------------------------------------------------------------
# Layer metrics shared by the traced runs
# ---------------------------------------------------------------------------


def report_layers(run: Run, traces: list, archive_sizes: list) -> None:
    gens = sum(t.generations for t in traces)
    for scheme in SCHEMES:
        mine = [t for t in traces if t.scheme == scheme]
        scheme_gens = sum(t.generations for t in mine)
        run.report(f"select_ms.{scheme}",
                   1e3 * sum(t.select_s for t in mine) / scheme_gens, "ms")
        run.report(f"distinct_rows.{scheme}",
                   sum(t.distinct_rows for t in mine) / scheme_gens, "rows")
    run.report("mutate_ms", 1e3 * sum(t.mutate_s for t in traces) / gens, "ms")
    run.report("evaluate_ms", 1e3 * sum(t.evaluate_s for t in traces) / gens, "ms")
    run.report("record_ms", 1e3 * sum(t.record_s for t in traces) / gens, "ms")
    run.report("csv_write_us_per_row",
               1e6 * sum(t.csv_write_s for t in traces)
               / sum(t.rows_written for t in traces), "us")
    run.report("archive_size", statistics.mean(archive_sizes), "rows")
    run.trace_log["replicates"] = [asdict(t) for t in traces]


def final_archive_size(rows) -> int:
    return int(rows[-1][checks.HEADER.index("archive_size")])


# ---------------------------------------------------------------------------
# desk-grid
# ---------------------------------------------------------------------------


def desk_overrides(base_seed: int, out_dir: Path, workers: int, schemes,
                   generations: int = DESK["generations"],
                   diagnostics=DIAGNOSTICS) -> dict:
    return dict(DESK, diagnostics=list(diagnostics), schemes=list(schemes),
                base_seed=base_seed, output_dir=str(out_dir), workers=workers,
                generations=generations)


def desk_argv(overrides: dict) -> list[str]:
    argv = ["run"]
    for diagnostic in overrides["diagnostics"]:
        argv += ["--diagnostic", diagnostic]
    for scheme in overrides["schemes"]:
        argv += ["--scheme", scheme]
    for key in ("replicates", "pop_size", "dim", "generations", "stride",
                "workers"):
        argv += ["--" + key.replace("_", "-"), str(overrides[key])]
    return argv + ["--seed", str(overrides["base_seed"]),
                   "--output-dir", overrides["output_dir"]]


def desk_files(schemes, diagnostics=DIAGNOSTICS) -> list[tuple[str, str, int, str]]:
    return [(d, s, rep, cli.replicate_filename(d, s, rep))
            for d in diagnostics for s in schemes
            for rep in range(DESK["replicates"])]


def run_grid(run: Run, overrides: dict) -> float:
    """``evodiags run`` in this process; returns its wall time."""
    n = len(desk_files(overrides["schemes"], overrides["diagnostics"]))
    buf = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buf):
        code = cli.main(desk_argv(overrides))
    wall = clock() - t0
    run.attempted += n
    if code != 0:
        run.failed += n
        run.problems.add(f"run exited {code}: {buf.getvalue()[-500:]}")
    checks.check_manifest(Path(overrides["output_dir"]), overrides["base_seed"],
                          overrides["diagnostics"], overrides["schemes"],
                          DESK["replicates"],
                          run.problems)
    return wall


def desk_grid(run: Run) -> None:
    """Per round: the grid with 2 workers; then, in untraced runs, 1-worker
    runs of one diagnostic and one scheme each (``DESK_SCHEME_GENERATIONS``),
    diagnostic by diagnostic, or, in traced runs, the same grid again
    untraced and through the traced loop. Analyze passes over round 0's
    grid come after the 2-worker grid and, in untraced runs, after the
    second, fourth and sixth diagnostic. Untraced runs time a ``describe``
    launch before the 2-worker grid and after the fourth diagnostic, and
    sample the reference kernel before and after the 2-worker grid and
    after every 1-worker run."""
    grid_gens = len(desk_files(SCHEMES)) * DESK["generations"]
    pool_walls, untraced_walls, idle = [], [], []
    scheme_walls = dict.fromkeys(SCHEMES, 0.0)
    scheme_gens = dict.fromkeys(SCHEMES, 0)
    traces = []
    written = []  # (directory, diagnostics, schemes, generations) to check
    analyze = Analyze(run, run.work / "round0" / "pool")
    for r in rounds(run.seconds):
        base_seed = run.seed * 1000 + r
        rdir = run.work / f"round{r}"
        pool_dir = rdir / "pool"
        written.append((pool_dir, DIAGNOSTICS, SCHEMES, DESK["generations"]))
        if not run.trace:
            run.time_setup()
            run.sample_speed()
            pool_walls.append(run_grid(run, desk_overrides(
                base_seed, pool_dir, DESK_WORKERS, SCHEMES)))
            run.sample_speed()
            analyze.one_pass()
            for i, diagnostic in enumerate(DIAGNOSTICS):
                for scheme in rotated(r + i):
                    single = rdir / "single" / f"{diagnostic}__{scheme}"
                    gens = DESK_SCHEME_GENERATIONS[scheme]
                    scheme_walls[scheme] += run_grid(run, desk_overrides(
                        base_seed, single, 1, [scheme], gens, [diagnostic]))
                    files = desk_files([scheme], [diagnostic])
                    scheme_gens[scheme] += len(files) * gens
                    written.append((single, [diagnostic], [scheme], gens))
                    for *_, name in files:
                        checks.check_prefix(pool_dir / name, single / name,
                                            run.problems)
                    run.sample_speed()
                if i % 2 == 1 and i < len(DIAGNOSTICS) - 1:
                    analyze.one_pass()
                if i == 3:
                    run.time_setup()
            continue
        span_dir = rdir / "spans"
        with layers.pool_spans(span_dir):
            wall = run_grid(run, desk_overrides(
                base_seed, pool_dir, DESK_WORKERS, SCHEMES))
        spans = layers.read_spans(span_dir)
        if len(spans) != len(desk_files(SCHEMES)):
            run.problems.add(f"{len(spans)} pool spans in round {r}")
        pool_walls.append(wall)
        idle.append(DESK_WORKERS * wall - sum(s["end"] - s["start"] for s in spans))
        run.trace_log.setdefault("pool_spans", []).append(spans)
        analyze.one_pass()
        untraced = rdir / "untraced"
        untraced_walls.append(run_grid(run, desk_overrides(
            base_seed, untraced, DESK_WORKERS, SCHEMES)))
        loop_dir = rdir / "traced-loop"
        loop_dir.mkdir()
        config = cli.parse_config(None, desk_overrides(base_seed, loop_dir, 1, SCHEMES))
        for i, scheme in enumerate(rotated(r)):
            for d, s, rep, name in desk_files([scheme]):
                traces.append(layers.traced_replicate(
                    config.replicate_config(d, s, rep), s, loop_dir / name))
                run.attempted += 1
            if i == 3:
                analyze.one_pass()
        for *_, name in desk_files(SCHEMES):
            checks.check_same_bytes(pool_dir / name, untraced / name, run.problems)
            checks.check_same_bytes(loop_dir / name, untraced / name, run.problems)
    rss = peak_rss_mb()

    parsed = {}
    for directory, diagnostics, schemes, gens in written:
        for d, s, rep, name in desk_files(schemes, diagnostics):
            parsed[directory / name] = checks.check_replicate_csv(
                directory / name, d, s, gens, DESK["stride"],
                DESK["dim"], DESK["pop_size"], run.problems)
    analyze.finish(finals_of((p, rows) for p, rows in parsed.items()
                             if p.parent == analyze.in_dir))

    gens_per_s = grid_gens * len(pool_walls) / sum(pool_walls)
    if run.trace:
        archive = [final_archive_size(rows) for p, rows in parsed.items()
                   if "__novelty__" in p.name and p.parent.name == "pool"]
        report_layers(run, traces, archive)
        run.report("pool_idle_s", statistics.median(idle), "s")
        untraced = grid_gens * len(untraced_walls) / sum(untraced_walls)
        run.report("trace_overhead_gens_per_s", gens_per_s - untraced, "1/s")
        return
    run.report("gens_per_s", gens_per_s, "1/s")
    for scheme in SCHEMES:
        run.report(f"ms_per_gen.{scheme}",
                   1e3 * scheme_walls[scheme] / scheme_gens[scheme], "ms")
    run.report("peak_rss_mb", rss, "MB")


# ---------------------------------------------------------------------------
# headline-smooth, headline-sparse
# ---------------------------------------------------------------------------


def headline_config(run: Run, scheme: str):
    return cli.parse_config(None, dict(
        HEADLINE, generations=HEADLINE_GENERATIONS[run.name][scheme],
        base_seed=run.seed, schemes=[scheme], replicates=1))


def headline_schedule(name: str, r: int) -> list[tuple[str, int]]:
    """Round ``r``'s (scheme, replicate index) pairs, in order: the
    ``HEADLINE_SPLIT`` replicates of each scheme, each scheme's replicates
    spaced evenly over the round, in the order of ``rotated(r)``."""
    order = rotated(r)
    slots = []
    for i, scheme in enumerate(order):
        k = HEADLINE_SPLIT[name].get(scheme, 1)
        for j in range(k):
            slots.append(((j + (i + 0.5) / len(order)) / k, scheme, r * k + j))
    return [(scheme, rep) for _, scheme, rep in sorted(slots)]


def headline(run: Run) -> None:
    """Per round, the replicates of ``headline_schedule`` in this process,
    each followed by an analyze pass and, in untraced runs, a sample of
    the reference kernel. Untraced runs also time a ``describe`` launch at
    the start and in the middle of each round.

    analyze's input is written before the rounds, so that its passes span
    the whole run: the desk grid (8 schemes x 4 replicates at 128 x 20, 30
    generations) on this workload's diagnostic, through ``evodiags run``
    with 1 worker. Passes over CSVs of the rounds themselves could start
    only after round 0, and analyze_s would time only the later part of a
    run: in a run of two rounds, its second half."""
    diagnostic = HEADLINE_DIAGNOSTIC[run.name]
    results = run.work / "results"
    results.mkdir(parents=True)
    analyze = Analyze(run, run.work / "analyze-in")
    run_grid(run, desk_overrides(run.seed, analyze.in_dir, 1, SCHEMES,
                                 diagnostics=[diagnostic]))
    scheme_walls = dict.fromkeys(SCHEMES, 0.0)
    scheme_gens = dict.fromkeys(SCHEMES, 0)
    replicates, traces, idle, finals_pop = [], [], [], {}
    gens = wall = 0.0
    for r in rounds(run.seconds):
        run.time_setup()
        round_start = clock()
        round_busy = 0.0
        schedule = headline_schedule(run.name, r)
        for i, (scheme, rep) in enumerate(schedule):
            if i == len(schedule) // 2:
                run.time_setup()
            config = headline_config(run, scheme).replicate_config(
                diagnostic, scheme, rep)
            path = results / cli.replicate_filename(diagnostic, scheme, rep)
            if run.trace:
                trace = layers.traced_replicate(config, scheme, path)
                traces.append(trace)
                elapsed = trace.wall_s
                round_busy += trace.counting_s
            else:
                t0 = clock()
                result = run_replicate(config)
                write_records_csv(path, result.records)
                elapsed = clock() - t0
                finals_pop[path] = (result.best_genotype, result.best_phenotype)
            run.attempted += 1
            scheme_walls[scheme] += elapsed
            scheme_gens[scheme] += config.generations
            gens += config.generations
            wall += elapsed
            round_busy += elapsed
            replicates.append((rep, scheme, path, config))
            t0 = clock()
            analyze.one_pass()
            round_busy += clock() - t0
            run.sample_speed()
        idle.append(clock() - round_start - round_busy)
    rss = peak_rss_mb()

    if run.trace:
        # The same replicates untraced: byte identity, and the overhead.
        untraced = run.work / "untraced"
        untraced.mkdir()
        untraced_wall = 0.0
        for _, _, path, config in replicates:
            t0 = clock()
            result = run_replicate(config)
            write_records_csv(untraced / path.name, result.records)
            untraced_wall += clock() - t0
            run.attempted += 1
            finals_pop[path] = (result.best_genotype, result.best_phenotype)
            checks.check_same_bytes(path, untraced / path.name, run.problems)

    parsed = {}
    for rep, scheme, path, config in replicates:
        checks.check_seed(config.seed, run.seed, diagnostic, scheme, rep, run.problems)
        rows = checks.check_replicate_csv(
            path, diagnostic, scheme, config.generations, HEADLINE["stride"],
            HEADLINE["dim"], HEADLINE["pop_size"], run.problems)
        parsed[path] = rows
        genotype, phenotype = finals_pop[path]
        checks.check_final_population(path.name, diagnostic, genotype, phenotype,
                                      rows, run.problems)
    analyze.finish(finals_of(
        (analyze.in_dir / name, checks.check_replicate_csv(
            analyze.in_dir / name, d, s, DESK["generations"], DESK["stride"],
            DESK["dim"], DESK["pop_size"], run.problems))
        for d, s, _, name in desk_files(SCHEMES, [diagnostic])))

    if run.trace:
        archive = [final_archive_size(rows) for p, rows in parsed.items()
                   if "__novelty__" in p.name]
        report_layers(run, traces, archive)
        run.report("pool_idle_s", statistics.median(idle), "s")
        run.report("trace_overhead_gens_per_s",
                   gens / wall - gens / untraced_wall, "1/s")
        return
    run.report("gens_per_s", gens / wall, "1/s")
    for scheme in SCHEMES:
        run.report(f"ms_per_gen.{scheme}",
                   1e3 * scheme_walls[scheme] / scheme_gens[scheme], "ms")
    run.report("peak_rss_mb", rss, "MB")


def run_workload(run: Run) -> dict:
    workload = desk_grid if run.name == "desk-grid" else headline
    if run.trace:
        workload(run)
    else:
        run.setup = SetupTimer(run)
        run.reference = Reference()
        try:
            workload(run)
        finally:
            run.setup.close()
        run.report("setup_s", statistics.median(run.setup.times), "s")
        run.scale_times()
    if run.trace:
        run.trace_log["metrics"] = run.metrics
        path = run.work.parent / f"trace-{run.name}-seed{run.seed}.json"
        path.write_text(json.dumps(run.trace_log) + "\n")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": run.metrics}
