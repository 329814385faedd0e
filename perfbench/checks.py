"""Output checks made apart from the program.

Nothing here calls into ``evodiags``: seeds are recomputed with the
benchmark's own splitmix64, CSVs are parsed with the ``csv`` module,
translations are scalar re-statements of the diagnostics' definitions,
and statistics come straight from ``scipy.stats``. Every check appends a
line to a ``Problems`` list instead of raising, so one run reports every
fault it saw.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import combinations
from pathlib import Path

from scipy import stats as sps

HEADER = [
    "generation", "best_performance", "best_total_fitness",
    "satisfactory_trait_coverage", "activation_gene_coverage",
    "largest_valley_reached", "archive_size",
]
VALLEY_DIAGNOSTICS = {
    "valley-crossing", "ordered-exploitation-valleys",
    "contradictory-objectives-valleys", "multipath-valleys",
}
ACTIVATION_DIAGNOSTICS = {
    "contradictory-objectives", "multipath-exploration",
    "contradictory-objectives-valleys", "multipath-valleys",
}
UPPER = 100.0
# Sawtooth peaks v_initial + k (k + 1) / 2 with v_initial = 8, up to 100.
PEAKS = [8.0 + k * (k + 1) / 2.0 for k in range(14)]
ALPHA = 0.05
# The rank-sum test enumerates exactly up to this combined sample size
# when the data are tie-free (documented in evodiags.stats).
EXACT_LIMIT = 12
_MASK64 = (1 << 64) - 1


class Problems(list):
    def add(self, message: str) -> None:
        self.append(message)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def expected_seed(base_seed: int, diagnostic: str, scheme: str, rep: int) -> int:
    """Absorb the label "<diagnostic>|<scheme>|<rep>" one byte at a time."""
    h = 0
    for byte in f"{diagnostic}|{scheme}|{rep}".encode("utf-8"):
        h = splitmix64(h ^ byte)
    return (base_seed + h) & _MASK64


def check_seed(seed: int, base_seed: int, diagnostic: str, scheme: str,
               rep: int, problems: Problems) -> None:
    want = expected_seed(base_seed, diagnostic, scheme, rep)
    if seed != want:
        problems.add(f"seed of {diagnostic}|{scheme}|{rep}: {seed} != {want}")


def check_manifest(directory: Path, base_seed: int, diagnostics, schemes,
                   replicates: int, problems: Problems) -> None:
    manifest = json.loads((directory / "manifest.json").read_text())
    entries = manifest["replicates"]
    seen = set()
    for entry in entries:
        key = (entry["diagnostic"], entry["scheme"], entry["replicate"])
        seen.add(key)
        check_seed(entry["seed"], base_seed, *key, problems)
        if entry["file"] != f"{key[0]}__{key[1]}__rep{key[2]}.csv":
            problems.add(f"{directory}: manifest file name {entry['file']!r}")
    want = {(d, s, r) for d in diagnostics for s in schemes
            for r in range(replicates)}
    if seen != want or len(entries) != len(want):
        problems.add(f"{directory}: manifest lists {len(entries)} replicates,"
                     f" expected {len(want)}")


# ---------------------------------------------------------------------------
# Replicate CSVs
# ---------------------------------------------------------------------------


def expected_generations(generations: int, stride: int) -> list[int]:
    gens = list(range(0, generations + 1, stride))
    if gens[-1] != generations:
        gens.append(generations)
    return gens


def _int_in(text: str, lo: int, hi: int) -> bool:
    return text.isdigit() and lo <= int(text) <= hi


def check_replicate_csv(path: Path, diagnostic: str, scheme: str,
                        generations: int, stride: int, dim: int,
                        pop_size: int, problems: Problems) -> list[list[str]]:
    """Check one replicate CSV and return its data rows as strings."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != HEADER:
        problems.add(f"{path.name}: bad header")
        return []
    rows = rows[1:]
    gens = [int(row[0]) for row in rows]
    if gens != expected_generations(generations, stride):
        problems.add(f"{path.name}: generations {gens[:3]}..{gens[-3:]}")
    activation = diagnostic in ACTIVATION_DIAGNOSTICS
    valley = diagnostic in VALLEY_DIAGNOSTICS
    novelty = scheme == "novelty"
    last_archive = 0
    for row in rows:
        where = f"{path.name} generation {row[0]}"
        if len(row) != len(HEADER):
            problems.add(f"{where}: {len(row)} fields")
            continue
        _, perf, total, sat, act, valley_cell, archive = row
        if float(perf) != float(total) / dim:
            problems.add(f"{where}: best_performance {perf} != {total} / {dim}")
        if not 0.0 <= float(total) <= UPPER * dim:
            problems.add(f"{where}: best_total_fitness {total} out of range")
        if (sat != "") != activation or (act != "") != activation:
            problems.add(f"{where}: coverage fields present={sat!r},{act!r}")
        elif activation and not (_int_in(sat, 0, dim)
                                 and _int_in(act, 1, min(dim, pop_size))):
            problems.add(f"{where}: coverage {sat}, {act} out of range")
        if (valley_cell != "") != valley:
            problems.add(f"{where}: valley field {valley_cell!r}")
        elif valley and valley_cell != "none" and not _int_in(
                valley_cell, 0, len(PEAKS) - 1):
            problems.add(f"{where}: valley {valley_cell} out of range")
        if (archive != "") != novelty:
            problems.add(f"{where}: archive field {archive!r}")
        elif novelty:
            if not archive.isdigit() or int(archive) < last_archive:
                problems.add(f"{where}: archive size {archive} after {last_archive}")
            else:
                last_archive = int(archive)
    return rows


def final_value(rows: list[list[str]], metric: str):
    """The last row's value of ``metric``; "none" valleys read as -1."""
    cell = rows[-1][HEADER.index(metric)]
    if cell == "":
        return None
    return -1.0 if cell == "none" else float(cell)


def check_same_bytes(a: Path, b: Path, problems: Problems) -> None:
    if a.read_bytes() != b.read_bytes():
        problems.add(f"{a.parent.name}/{a.name} and {b.parent.name}/{b.name} differ")


def check_prefix(a: Path, b: Path, problems: Problems) -> None:
    """Two runs of one replicate with different budgets: a replicate's seed
    does not depend on its budget, so at stride 1 the shorter run's CSV
    must be the first bytes of the longer run's."""
    short, long = sorted((a.read_bytes(), b.read_bytes()), key=len)
    if not long.startswith(short):
        problems.add(f"{a.parent.name}/{a.name} and {b.parent.name}/{b.name}"
                     " do not start alike")


# ---------------------------------------------------------------------------
# Final populations of the headline workloads
# ---------------------------------------------------------------------------


def sawtooth(value: float) -> float:
    if value <= PEAKS[0]:
        return value
    anchor = max(p for p in PEAKS if p <= value)
    return anchor - (value - anchor)


def translate(diagnostic: str, genes: list[float]) -> list[float]:
    """Scalar translations of the two headline diagnostics."""
    if diagnostic == "valley-crossing":
        return [sawtooth(g) for g in genes]
    if diagnostic == "contradictory-objectives":
        top = genes.index(max(genes))  # ties go to the lower index
        return [g if i == top else 0.0 for i, g in enumerate(genes)]
    raise ValueError(f"no scalar translation for {diagnostic}")


def last_peak_index(top_gene: float) -> int:
    reached = [k for k, peak in enumerate(PEAKS) if peak <= top_gene]
    return reached[-1] if reached else -1


def check_final_population(name: str, diagnostic: str, best_genotype,
                           best_phenotype, rows: list[list[str]],
                           problems: Problems) -> None:
    genes = [float(g) for g in best_genotype]
    traits = [float(t) for t in best_phenotype]
    if translate(diagnostic, genes) != traits:
        problems.add(f"{name}: best_phenotype is not the translation of best_genotype")
    total = float(rows[-1][2])
    if not math.isclose(total, math.fsum(traits), rel_tol=1e-12, abs_tol=1e-9):
        problems.add(f"{name}: final best_total_fitness {total} != {math.fsum(traits)}")
    if diagnostic in VALLEY_DIAGNOSTICS:
        want = last_peak_index(max(genes))
        cell = rows[-1][5]
        got = -1 if cell == "none" else int(cell)
        if got != want:
            problems.add(f"{name}: largest_valley_reached {got} != {want}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_OMNIBUS = re.compile(
    r"^(\S+): kruskal-wallis H=(\S+) p=(\S+) on (\S+)$", re.MULTILINE)


def _tie_free(values) -> bool:
    return len(set(values)) == len(values)


def expected_comparisons(finals: dict, metric: str):
    """Omnibus results and comparison rows recomputed with scipy.

    ``finals`` maps diagnostic -> scheme -> final values parsed by the
    benchmark. Returns ({diagnostic: (H, p)}, [row tuples]).
    """
    omnibus, rows = {}, []
    for diagnostic in sorted(finals):
        groups = finals[diagnostic]
        if len(groups) < 2:
            continue
        schemes = sorted(groups)
        pooled = [v for s in schemes for v in groups[s]]
        if len(set(pooled)) == 1:
            h, p = 0.0, 1.0
        else:
            h, p = sps.kruskal(*(groups[s] for s in schemes))
        omnibus[diagnostic] = (float(h), float(p))
        if p >= ALPHA:
            continue
        pairs = list(combinations(schemes, 2))
        tests = []
        for lhs, rhs in pairs:
            a, b = groups[lhs], groups[rhs]
            if len(set(a + b)) == 1:
                tests.append((len(a) * len(b) / 2.0, 1.0))
                continue
            exact = _tie_free(a + b) and len(a) + len(b) <= EXACT_LIMIT
            res = sps.mannwhitneyu(a, b, alternative="two-sided",
                                   method="exact" if exact else "asymptotic",
                                   use_continuity=True)
            tests.append((float(res.statistic), float(res.pvalue)))
        for (lhs, rhs), (u, p_raw) in zip(pairs, tests):
            p_adj = min(1.0, p_raw * len(pairs))
            rows.append((f"{diagnostic}__{lhs}", f"{diagnostic}__{rhs}", metric,
                         u, p_raw, p_adj, p_adj < ALPHA))
    return omnibus, rows


def check_analyze(stdout: str, comparisons: Path, finals: dict, metric: str,
                  problems: Problems) -> None:
    omnibus, want_rows = expected_comparisons(finals, metric)
    printed = {m.group(1): (float(m.group(2)), float(m.group(3)))
               for m in _OMNIBUS.finditer(stdout) if m.group(4) == metric}
    if set(printed) != set(omnibus):
        problems.add(f"analyze {metric}: omnibus for {sorted(printed)},"
                     f" expected {sorted(omnibus)}")
    for diagnostic, (h, p) in omnibus.items():
        got_h, got_p = printed.get(diagnostic, (math.nan, math.nan))
        # analyze prints H with 4 decimals and p with 4 significant digits.
        if not (abs(got_h - h) <= 5e-5 + 1e-9 * h
                and math.isclose(got_p, p, rel_tol=1e-3, abs_tol=1e-300)):
            problems.add(f"analyze {metric} {diagnostic}: H={got_h} p={got_p},"
                         f" scipy H={h} p={p}")
    with open(comparisons, newline="") as handle:
        got_rows = list(csv.reader(handle))[1:]
    if len(got_rows) != len(want_rows):
        problems.add(f"analyze {metric}: {len(got_rows)} comparison rows,"
                     f" expected {len(want_rows)}")
        return
    for got, want in zip(got_rows, want_rows):
        same = (got[:3] == list(want[:3])
                and all(math.isclose(float(g), w, rel_tol=1e-9, abs_tol=1e-12)
                        for g, w in zip(got[3:6], want[3:6]))
                and got[6] == str(want[6]).lower())
        if not same:
            problems.add(f"analyze {metric}: row {got} != {want}")
