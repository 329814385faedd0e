"""Experiment orchestration: the ``run``, ``analyze``, and ``describe``
subcommands.

``run`` executes a treatment grid (every configured diagnostic crossed
with every configured scheme, times the replicate count), writing one
metrics CSV per replicate plus a JSON manifest of the configuration and
derived seeds (:func:`~evodiags.core.splitmix64` absorbs each
treatment label). It builds and checks every replicate's config before
it creates the output directory. Replicates are independent and run on
a worker pool; each owns its seed and output file, so worker scheduling
cannot change any file's bytes.

``analyze`` reads a result directory and, per diagnostic, runs the
Kruskal-Wallis omnibus across schemes on an end-of-run metric; when the
omnibus is significant it runs all pairwise rank-sum tests with a
Bonferroni correction and writes a comparisons CSV.

Configuration files are flat ``key = value`` lines with ``#`` comments;
command-line flags override file values. The keys are ``ExperimentConfig``'s
fields. Each field of ``ReplicateConfig``, ``SchemeParams`` and
``MutationParams`` that a replicate is not given reads the key of its name
(``record_stride`` reads ``stride``) and defaults to the field's default.
A run flag is its key with ``-`` for ``_``, of the key's type; ``--seed``
sets ``base_seed``, and ``--diagnostic``/``--scheme`` append to their lists.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from . import native
from .core import MASK64, ConfigurationError, MutationParams, splitmix64
from .diagnostics import DIAGNOSTICS, DiagnosticKind, all_diagnostic_names
from .evolve import ReplicateConfig, run_replicate
from .metrics import CSV_HEADER, read_records_csv, write_records_csv, written_whole
from .selection import NATIVE_SCHEMES, SCHEMES, SchemeKind, SchemeParams, all_scheme_names
from .stats import SIGNIFICANCE_LEVEL, bonferroni, kruskal_wallis, wilcoxon_rank_sum

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_IO_ERROR = 2


@dataclass
class ExperimentConfig:
    """A full treatment grid: diagnostics x schemes x replicates."""

    diagnostics: list[str] = field(
        default_factory=lambda: [DiagnosticKind.EXPLOITATION_RATE.value])
    schemes: list[str] = field(
        default_factory=lambda: [SchemeKind.TRUNCATION.value])
    replicates: int = 50
    base_seed: int = 1
    output_dir: str = "results"
    pop_size: int = ReplicateConfig.pop_size
    generations: int = ReplicateConfig.generations
    dim: int = ReplicateConfig.dim
    stride: int = ReplicateConfig.record_stride
    mutation_rate: float = MutationParams.mutation_rate
    mutation_stddev: float = MutationParams.mutation_stddev
    init_lo: float = ReplicateConfig.init_lo
    init_hi: float = ReplicateConfig.init_hi
    tr: int = SchemeParams.tr
    ts: int = SchemeParams.ts
    sigma: float = SchemeParams.sigma
    alpha: float = SchemeParams.alpha
    normalize_sharing: bool = SchemeParams.normalize_sharing
    novelty_k: int = SchemeParams.novelty_k
    pmin: float = SchemeParams.pmin
    workers: int = 0  # 0 means all available cores
    include_archive: bool = ReplicateConfig.include_archive

    def __post_init__(self) -> None:
        for key, valid in (("diagnostics", all_diagnostic_names()),
                           ("schemes", all_scheme_names())):
            names = list(getattr(self, key))
            setattr(self, key, names)
            if not names:
                raise ConfigurationError(f"{key} must name at least one, got none")
            for name in names:
                if name not in valid:
                    raise ConfigurationError(f"unknown {key[:-1]} {name!r}; "
                                             f"valid choices: {', '.join(valid)}")
                # A repeat would run the same replicates into the same files.
                if names.count(name) > 1:
                    raise ConfigurationError(f"{key} names {name!r} more than once")
        if self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be >= 1, got {self.replicates}")
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")

    def replicate_config(self, diagnostic: str, scheme: str, rep: int) -> ReplicateConfig:
        return self._build(
            ReplicateConfig, diagnostic=diagnostic,
            scheme=self._build(SchemeParams, scheme=scheme),
            mutation=self._build(MutationParams),
            seed=replicate_seed(self.base_seed, diagnostic, scheme, rep))

    def _build(self, cls, **given):
        """Build ``cls``, reading each field not ``given`` from the key of its
        name, or of its ``_FIELD_KEYS`` name; a field with no key raises."""
        return cls(**given, **{f.name: getattr(self, _FIELD_KEYS.get(f.name, f.name))
                               for f in fields(cls) if f.name not in given})


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def replicate_seed(base_seed: int, diagnostic: str, scheme: str, rep: int) -> int:
    """Derive the replicate's seed: base_seed + mix(treatment, rep) mod 2**64.

    The mix is a splitmix64 absorption of the treatment label bytes, so
    seeds are stable across runs and platforms and pairwise distinct for
    practical grid sizes. A ``DiagnosticKind`` or ``SchemeKind`` member
    is labelled by its value, so it gets the seed of its name.
    """
    # An f-string spells a (str, Enum) member "DiagnosticKind.X" on
    # Python 3.11; a plain string has no value attribute.
    diagnostic = getattr(diagnostic, "value", diagnostic)
    scheme = getattr(scheme, "value", scheme)
    h = 0
    for byte in f"{diagnostic}|{scheme}|{rep}".encode("utf-8"):
        h = splitmix64(h ^ byte)
    return (base_seed + h) & MASK64


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

# Config file keys and their types: the ExperimentConfig field annotations.
_CONFIG_TYPES = get_type_hints(ExperimentConfig)
# The one library field whose key has another name.
_FIELD_KEYS = {"record_stride": "stride"}


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated config from a key=value file plus overrides."""
    values: dict = {}
    if path is not None:
        values.update(_read_config_file(path))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def _read_config_file(path: str) -> dict:
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(sorted(_CONFIG_TYPES))}")
        values[key] = _convert(key, value, f"{path}:{lineno}")
    return values


def _convert(key: str, value: str, where: str):
    kind = _CONFIG_TYPES[key]
    try:
        if kind == list[str]:
            return [part.strip() for part in value.split(",") if part.strip()]
        if kind is bool:
            lowered = value.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: bad value for {key!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def replicate_filename(diagnostic: str, scheme: str, rep: int) -> str:
    return f"{diagnostic}__{scheme}__rep{rep}.csv"


def _run_one(task) -> dict:
    diagnostic, scheme, rep, out_path, rep_config = task
    result = run_replicate(rep_config)
    write_records_csv(out_path, result.records)
    return {
        "diagnostic": diagnostic,
        "scheme": scheme,
        "replicate": rep,
        "seed": rep_config.seed,
        "file": os.path.basename(out_path),
        "satisfactory_generation": result.satisfactory_generation,
    }


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the grid and write per-replicate CSVs plus manifest.json."""
    out_dir = Path(config.output_dir)
    # The replicate configs check every setting before the directory exists.
    tasks = []
    for diagnostic in config.diagnostics:
        for scheme in config.schemes:
            for rep in range(config.replicates):
                tasks.append((
                    diagnostic, scheme, rep,
                    str(out_dir / replicate_filename(diagnostic, scheme, rep)),
                    config.replicate_config(diagnostic, scheme, rep),
                ))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    workers = config.workers or os.cpu_count() or 1
    workers = min(workers, len(tasks))
    _native_kernels(config)  # built and loaded here, so a forked worker inherits them
    try:
        if workers > 1:
            # Fork where the platform offers it, whatever its default start method.
            fork = "fork" in multiprocessing.get_all_start_methods()
            with multiprocessing.get_context("fork" if fork else None).Pool(workers) as pool:
                # One replicate per dispatch: replicate costs differ by
                # orders of magnitude across schemes, and batches of them
                # leave workers idle at the end of a grid.
                entries = pool.map(_run_one, tasks, chunksize=1)
        else:
            entries = [_run_one(task) for task in tasks]
    except OSError as exc:
        _write_manifest(out_dir, config, [], note=f"aborted: {exc}")
        print(f"error: I/O failure during run: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    _write_manifest(out_dir, config, entries)
    print(f"wrote {len(entries)} replicate files to {out_dir}")
    return EXIT_OK


def _native_kernels(config: ExperimentConfig) -> Optional[bool]:
    """Whether the grid's schemes run on the compiled kernels, loading them
    if need be; None for a grid whose schemes call none."""
    if not any(SchemeKind(scheme) in NATIVE_SCHEMES for scheme in config.schemes):
        return None
    return native.kernels() is not None


def _write_manifest(out_dir: Path, config: ExperimentConfig,
                    entries: list[dict], note: Optional[str] = None) -> None:
    manifest = {
        "config": vars(config),
        "seed_rule": ("base_seed + h mod 2**64, where h starts at 0 and absorbs "
                      "each UTF-8 byte of '<diagnostic>|<scheme>|<rep>' as "
                      "h = splitmix64(h ^ byte)"),
        "replicates": entries,
        # The fallback writes the same bytes, but runs lexicase several times slower.
        "native_kernels": _native_kernels(config),
    }
    if note:
        manifest["note"] = note
    with written_whole(out_dir / "manifest.json", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_METRIC_COLUMNS = CSV_HEADER[1:]

COMPARISONS_HEADER = [
    "group_a", "group_b", "metric", "statistic", "p_raw", "p_adjusted",
    "significant",
]


def _final_metric_value(path: Path, metric: str) -> Optional[float]:
    records = read_records_csv(path)
    if not records:
        raise ValueError("no data rows")
    value = getattr(records[-1], metric)
    if value is None:
        return None
    return float(value)


def analyze(
    result_dir: str,
    metric: str = "best_performance",
    out_path: Optional[str] = None,
) -> int:
    """Compare schemes per diagnostic on an end-of-run metric.

    The metric is taken from each replicate CSV's final row; the valley
    metric's "none" cells rank below every reached valley (as -1). A
    diagnostic with fewer than two schemes or three values in all is
    skipped. Unparseable files are listed, skipped, and turn the exit
    code nonzero.
    """
    if metric not in _METRIC_COLUMNS:
        print(f"error: unknown metric {metric!r}; choices: "
              f"{', '.join(_METRIC_COLUMNS)}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    directory = Path(result_dir)
    if not directory.is_dir():
        print(f"error: {result_dir} is not a directory", file=sys.stderr)
        return EXIT_IO_ERROR

    grouped: dict[str, dict[str, list[float]]] = {}
    bad_files = []
    for path in sorted(directory.glob("*.csv")):
        stem_parts = path.stem.split("__")
        if len(stem_parts) != 3 or not stem_parts[2].startswith("rep"):
            continue  # not a replicate file (the comparisons CSV, say)
        diagnostic, scheme, _ = stem_parts
        try:
            value = _final_metric_value(path, metric)
        except (OSError, ValueError) as exc:
            bad_files.append(f"{path.name}: {exc}")
            continue
        if value is not None:
            grouped.setdefault(diagnostic, {}).setdefault(scheme, []).append(value)

    rows = []
    for diagnostic in sorted(grouped):
        per_scheme = grouped[diagnostic]
        if len(per_scheme) < 2:
            print(f"{diagnostic}: fewer than two schemes, skipping")
            continue
        if sum(map(len, per_scheme.values())) < 3:
            print(f"{diagnostic}: fewer than three values, skipping")
            continue
        schemes = sorted(per_scheme)
        h_stat, omnibus_p = kruskal_wallis([per_scheme[s] for s in schemes])
        print(f"{diagnostic}: kruskal-wallis H={h_stat:.4f} p={omnibus_p:.4g} "
              f"on {metric}")
        if omnibus_p >= SIGNIFICANCE_LEVEL:
            continue
        pairs = list(combinations(schemes, 2))
        raw_ps = []
        stats = []
        for lhs, rhs in pairs:
            u_stat, p = wilcoxon_rank_sum(per_scheme[lhs], per_scheme[rhs])
            stats.append(u_stat)
            raw_ps.append(p)
        adjusted = bonferroni(raw_ps)
        for (lhs, rhs), u_stat, p_raw, p_adj in zip(pairs, stats, raw_ps, adjusted):
            rows.append([
                f"{diagnostic}__{lhs}",
                f"{diagnostic}__{rhs}",
                metric,
                repr(float(u_stat)),
                repr(float(p_raw)),
                repr(float(p_adj)),
                str(p_adj < SIGNIFICANCE_LEVEL).lower(),
            ])

    destination = Path(out_path) if out_path else directory / "comparisons.csv"
    try:
        with written_whole(destination, newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows([COMPARISONS_HEADER, *rows])
    except OSError as exc:
        print(f"error: cannot write {destination}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(f"wrote {len(rows)} comparisons to {destination}")

    if bad_files:
        print("skipped unreadable files:", file=sys.stderr)
        for entry in bad_files:
            print(f"  {entry}", file=sys.stderr)
        return EXIT_IO_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def describe() -> int:
    print("diagnostics:")
    for kind in DiagnosticKind:
        print(f"  {kind.value:36s} {DIAGNOSTICS[kind].describe}")
    print("\nselection schemes:")
    for kind in SchemeKind:
        print(f"  {kind.value:36s} {SCHEMES[kind].describe}")
    print("\nmetrics columns:", ", ".join(CSV_HEADER))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evodiags",
        description="Run selection-scheme diagnostics and analyze the results.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a diagnostic x scheme grid")
    run_p.add_argument("--config", help="key = value configuration file")
    run_p.add_argument("--diagnostic", action="append", dest="diagnostics",
                       metavar="NAME", help="diagnostic to run (repeatable)")
    run_p.add_argument("--scheme", action="append", dest="schemes",
                       metavar="NAME", help="selection scheme to run (repeatable)")
    for key in ("replicates", "pop_size", "generations", "dim", "stride",
                "output_dir", "workers"):
        run_p.add_argument("--" + key.replace("_", "-"), type=_CONFIG_TYPES[key])
    run_p.add_argument("--seed", type=int, dest="base_seed")
    run_p.add_argument("--include-archive", action="store_const", const=True,
                       dest="include_archive",
                       help="count the novelty archive in performance metrics")

    analyze_p = sub.add_parser("analyze", help="compare schemes per diagnostic")
    analyze_p.add_argument("result_dir")
    analyze_p.add_argument("--metric", default="best_performance",
                           help="end-of-run metric column to compare")
    analyze_p.add_argument("--out", dest="out_path",
                           help="comparisons CSV destination")

    sub.add_parser("describe", help="print the diagnostic and scheme catalog")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            # Every run flag but --config stores to an ExperimentConfig field.
            overrides = {key: value for key, value in vars(args).items()
                         if key not in ("command", "config")}
            config = parse_config(args.config, overrides)
            return run_experiment(config)
        if args.command == "analyze":
            return analyze(args.result_dir, metric=args.metric,
                           out_path=args.out_path)
        return describe()
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
