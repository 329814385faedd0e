"""Acceptance suite: scaled-down qualitative reproductions plus oracle checks.

The behavioral criteria run the real experiment pipeline at desk scale
(population 128, dimensionality 20, 5000 generations, 10 replicates).
Two grids run longer:

* exploitation ordering runs 10,000 generations: pilot runs put
  lexicase's first satisfactory solution near generation 7000 at this
  population-to-dimensionality ratio, so the 5000-generation default
  would censor the quantity that grid exists to compare;
* the lexicase-versus-random valley comparison runs the paper's 50,000
  generations. Under random selection genes only drift, with a spread
  of about sqrt(0.007 g), so at 5000 generations the best average trait
  of every random replicate is still below the first peak at 8.0, and a
  comparison there measures how fast a scheme climbs the smooth ramp,
  not whether it crosses valleys. Replicate seeds do not depend on the
  generation budget, so the first 5000 generations of these runs are
  exactly the 5000-generation runs of the same treatments; the
  5000-generation valley grid reads them from there instead of running
  them twice.

On a shared 2-core machine two full runs of the suite took 441 s and
483 s; setting up criterion 4's two valley grids took 253 s and 301 s
of that, most of it the 50,000-generation lexicase replicates.

Sharing-distance reading per grid (the distance normalization flag
exists because both readings of sigma are defensible):

* contradictory-objectives grid: raw distances, under which same-front
  sharing penalizes clone piles and nondominated sorting retains niches;
* valley-crossing grid: diameter-normalized distances, under which
  sharing pressure is broad enough to push lineages through valleys.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them as they complete, or ``-rA`` for a summary).
"""

import json
import time
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from evodiags import (
    DiagnosticKind,
    NoveltyParams,
    NoveltyState,
    Population,
    SchemeKind,
    apply_valleys,
    bonferroni,
    kruskal_wallis,
    novelty_select,
    read_records_csv,
    run_replicate,
    stochastic_remainder,
    tournament_select,
    translate,
    wilcoxon_rank_sum,
    write_records_csv,
)
from evodiags.cli import ExperimentConfig, replicate_filename, run_experiment

from oracles import (
    SAWTOOTH_PEAKS,
    oracle_contradictory_objectives,
    oracle_exploitation_rate,
    oracle_multipath_exploration,
    oracle_ordered_exploitation,
    oracle_sawtooth,
)

pytestmark = pytest.mark.acceptance

POP_SIZE = 128
DIM = 20
GENERATIONS = 5_000
EXPLOIT_GENERATIONS = 10_000
VALLEY_GENERATIONS = 50_000
REPLICATES = 10
BASE_SEED = 2023
ALPHA = 0.05

ALL_SCHEMES = [kind.value for kind in SchemeKind]
LONG_VALLEY_SCHEMES = ["lexicase", "random"]


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def run_grid(tmp_path_factory, label: str, **overrides) -> Path:
    values = dict(
        replicates=REPLICATES, base_seed=BASE_SEED, pop_size=POP_SIZE,
        generations=GENERATIONS, dim=DIM, stride=GENERATIONS,
        workers=0, include_archive=True)
    values.update(overrides)
    out = tmp_path_factory.mktemp(label)
    config = ExperimentConfig(output_dir=str(out), **values)
    assert run_experiment(config) == 0
    return out


def final_metric(out: Path, diagnostic: str, scheme: str, metric: str) -> list:
    values = []
    for rep in range(REPLICATES):
        records = read_records_csv(out / replicate_filename(diagnostic, scheme, rep))
        values.append(getattr(records[-1], metric))
    return values


def run_max(out: Path, diagnostic: str, scheme: str,
            until: dict[str, Optional[int]]) -> dict[str, list]:
    """Per replicate, the largest value of each metric in ``until`` over
    the generations up to its bound (None: the whole run), reading each
    file once."""
    values = {metric: [] for metric in until}
    for rep in range(REPLICATES):
        records = read_records_csv(out / replicate_filename(diagnostic, scheme, rep))
        for metric, last in until.items():
            values[metric].append(max(getattr(r, metric) for r in records
                                      if last is None or r.generation <= last))
    return values


def satisfactory_generations(out: Path, diagnostic: str, scheme: str,
                             censor: int) -> list[int]:
    manifest = json.loads((out / "manifest.json").read_text())
    by_key = {(e["diagnostic"], e["scheme"], e["replicate"]):
              e["satisfactory_generation"] for e in manifest["replicates"]}
    return [censor if by_key[(diagnostic, scheme, rep)] is None
            else by_key[(diagnostic, scheme, rep)] for rep in range(REPLICATES)]


@pytest.fixture(scope="module")
def exploit_grid(tmp_path_factory):
    return run_grid(
        tmp_path_factory, "exploit",
        diagnostics=["exploitation-rate", "ordered-exploitation"],
        schemes=["truncation", "tournament", "lexicase"],
        generations=EXPLOIT_GENERATIONS, stride=EXPLOIT_GENERATIONS)


@pytest.fixture(scope="module")
def contradictory_grid(tmp_path_factory):
    return run_grid(
        tmp_path_factory, "contradictory",
        diagnostics=["contradictory-objectives"],
        schemes=ALL_SCHEMES, normalize_sharing=False)


@pytest.fixture(scope="module")
def valley_grid(tmp_path_factory):
    # Lexicase and random come from the first GENERATIONS generations of
    # valley_long_grid.
    return run_grid(
        tmp_path_factory, "valley",
        diagnostics=["valley-crossing"],
        schemes=[s for s in ALL_SCHEMES if s not in LONG_VALLEY_SCHEMES],
        normalize_sharing=True, stride=1)


@pytest.fixture(scope="module")
def valley_long_grid(tmp_path_factory):
    return run_grid(
        tmp_path_factory, "valley-long",
        diagnostics=["valley-crossing"], schemes=LONG_VALLEY_SCHEMES,
        normalize_sharing=True, generations=VALLEY_GENERATIONS, stride=1)


# ---------------------------------------------------------------------------
# 1. Exploitation ordering
# ---------------------------------------------------------------------------


def test_criterion_1_exploitation_ordering(exploit_grid):
    censor = EXPLOIT_GENERATIONS + 1
    ok = True
    details = []
    for diagnostic in ("exploitation-rate", "ordered-exploitation"):
        gens = {scheme: satisfactory_generations(exploit_grid, diagnostic,
                                                 scheme, censor)
                for scheme in ("truncation", "tournament", "lexicase")}
        for scheme, values in gens.items():
            reached = sum(v <= EXPLOIT_GENERATIONS for v in values)
            ok &= reached >= 9
            details.append(f"{diagnostic}/{scheme} reached {reached}/10")
        medians = {s: float(np.median(v)) for s, v in gens.items()}
        ok &= medians["truncation"] < medians["tournament"] < medians["lexicase"]
        _, p_tt = wilcoxon_rank_sum(gens["truncation"], gens["tournament"],
                                    alternative="less")
        _, p_tl = wilcoxon_rank_sum(gens["tournament"], gens["lexicase"],
                                    alternative="less")
        ok &= p_tt < ALPHA and p_tl < ALPHA
        details.append(
            f"{diagnostic} medians {medians['truncation']:.0f}<"
            f"{medians['tournament']:.0f}<{medians['lexicase']:.0f} "
            f"p={p_tt:.2g}/{p_tl:.2g}")
    report(1, "exploitation-ordering", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. Contradictory-objectives collapse and coverage ordering
# ---------------------------------------------------------------------------


def test_criterion_2_contradictory_collapse_and_ordering(contradictory_grid):
    diag = "contradictory-objectives"
    ok = True
    details = []
    for scheme in ("truncation", "tournament"):
        coverage = final_metric(contradictory_grid, diag, scheme,
                                "activation_gene_coverage")
        collapsed = sum(c == 1 for c in coverage)
        ok &= collapsed >= 9
        details.append(f"{scheme} collapsed {collapsed}/10")
    sat = {scheme: final_metric(contradictory_grid, diag, scheme,
                                "satisfactory_trait_coverage")
           for scheme in ("nsga", "lexicase", "sharing-phenotypic")}
    _, p_nl = wilcoxon_rank_sum(sat["nsga"], sat["lexicase"], alternative="greater")
    _, p_ls = wilcoxon_rank_sum(sat["lexicase"], sat["sharing-phenotypic"],
                                alternative="greater")
    ok &= p_nl < ALPHA and p_ls < ALPHA
    details.append(
        f"sat medians nsga={np.median(sat['nsga']):.0f} "
        f"lexicase={np.median(sat['lexicase']):.0f} "
        f"sharing-phenotypic={np.median(sat['sharing-phenotypic']):.0f} "
        f"p={p_nl:.2g}/{p_ls:.2g}")
    report(2, "contradictory-objectives-collapse", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Novelty extremes
# ---------------------------------------------------------------------------


def test_criterion_3_novelty_extremes(contradictory_grid):
    diag = "contradictory-objectives"
    ok = True
    details = []
    novelty_sat = final_metric(contradictory_grid, diag, "novelty",
                               "satisfactory_trait_coverage")
    ok &= all(v == 0 for v in novelty_sat)
    details.append(f"novelty satisfactory traits {sorted(set(novelty_sat))}")
    novelty_cov = final_metric(contradictory_grid, diag, "novelty",
                               "activation_gene_coverage")
    details.append(f"novelty coverage median {np.median(novelty_cov):.0f}")
    for scheme in ALL_SCHEMES:
        if scheme == "novelty":
            continue
        other = final_metric(contradictory_grid, diag, scheme,
                             "activation_gene_coverage")
        _, p = wilcoxon_rank_sum(novelty_cov, other, alternative="greater")
        ok &= p < ALPHA
        if p >= ALPHA:
            details.append(f"vs {scheme} p={p:.3g} (median {np.median(other):.0f})")
    report(3, "novelty-extremes", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. Valley crossing
# ---------------------------------------------------------------------------


def test_criterion_4_valley_crossing(valley_grid, valley_long_grid):
    diag = "valley-crossing"
    long_runs = {
        scheme: run_max(valley_long_grid, diag, scheme,
                        {"best_performance": GENERATIONS,
                         "largest_valley_reached": None})
        for scheme in LONG_VALLEY_SCHEMES}
    perf = {scheme: maxima["best_performance"]
            for scheme, maxima in long_runs.items()}
    for scheme in set(ALL_SCHEMES) - set(LONG_VALLEY_SCHEMES):
        perf[scheme] = run_max(valley_grid, diag, scheme,
                               {"best_performance": None})["best_performance"]
    ok = True
    details = [
        "best-ever medians " + " ".join(
            f"{s}={np.median(v):.1f}" for s, v in sorted(perf.items()))]
    for sharing in ("sharing-genotypic", "sharing-phenotypic"):
        for other in ALL_SCHEMES:
            if other in ("sharing-genotypic", "sharing-phenotypic"):
                continue
            _, p = wilcoxon_rank_sum(perf[sharing], perf[other],
                                     alternative="greater")
            ok &= p < ALPHA
            if p >= ALPHA:
                details.append(f"{sharing} vs {other} p={p:.3g}")
    # Lexicase keeps exact ties case by case, so it never selects a step
    # down into a valley and stalls at a peak; drift under random
    # selection keeps crossing. Compared on the peak index reached, at
    # the paper's generation budget.
    valleys = {scheme: long_runs[scheme]["largest_valley_reached"]
               for scheme in LONG_VALLEY_SCHEMES}
    _, p_rl = wilcoxon_rank_sum(valleys["random"], valleys["lexicase"],
                                alternative="greater")
    ok &= p_rl < ALPHA
    details.append(
        f"run-max valley medians over {VALLEY_GENERATIONS} generations "
        f"lexicase={np.median(valleys['lexicase']):.1f} "
        f"random={np.median(valleys['random']):.1f} "
        f"random>lexicase p={p_rl:.2g}")
    report(4, "valley-crossing", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Sawtooth correctness
# ---------------------------------------------------------------------------


def test_criterion_5_sawtooth_correctness():
    peaks = np.array(SAWTOOTH_PEAKS)
    ok = np.array_equal(apply_valleys(peaks), peaks)
    grid = np.linspace(0.0, 100.0, 10_001)
    out = apply_valleys(grid)
    expected = np.array([oracle_sawtooth(v) for v in grid])
    ok &= np.array_equal(out, expected)
    ok &= bool(np.all(out <= grid))
    equality = (grid <= 8.0) | np.isin(grid, SAWTOOTH_PEAKS)
    ok &= np.array_equal(out == grid, equality)
    report(5, "sawtooth-correctness", ok,
           f"14 peak fixed points, {grid.size}-point grid bit-exact vs oracle")


# ---------------------------------------------------------------------------
# 6. Diagnostic oracles
# ---------------------------------------------------------------------------


def test_criterion_6_diagnostic_oracles():
    mismatches = 0
    cases = 0
    combos = list(product([0.0, 1.0, 2.0, 3.0], repeat=5))
    oracles = {
        DiagnosticKind.EXPLOITATION_RATE: oracle_exploitation_rate,
        DiagnosticKind.ORDERED_EXPLOITATION: oracle_ordered_exploitation,
        DiagnosticKind.CONTRADICTORY_OBJECTIVES: oracle_contradictory_objectives,
        DiagnosticKind.MULTIPATH_EXPLORATION: oracle_multipath_exploration,
    }
    for kind, oracle in oracles.items():
        # The whole enumeration as one block, compared row by row.
        traits, act = translate(np.array(combos), kind)
        rows = traits.tolist()
        if act is not None:
            rows = list(zip(rows, act.tolist()))
        cases += len(combos)
        mismatches += sum(row != oracle(combo) for row, combo in zip(rows, combos))
    report(6, "diagnostic-oracles", mismatches == 0,
           f"{cases} enumerated evaluations, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 7. Selection distributions
# ---------------------------------------------------------------------------


def test_criterion_7_selection_distributions():
    ok = True
    details = []
    # Stochastic remainder: weights [3, 1], two slots per draw. Index 0
    # always keeps its floor slot; the leftover slot is an even coin, so
    # the count of index-0 picks over 10**4 draws is 10**4 + Bin(10**4, .5).
    rng = np.random.default_rng(0)
    zero_picks = 0
    for _ in range(10_000):
        zero_picks += int(np.sum(stochastic_remainder(
            np.array([3.0, 1.0]), 2, rng) == 0))
    sd = np.sqrt(10_000 * 0.25)
    ok &= abs(zero_picks - 15_000) <= 3 * sd
    details.append(f"remainder picks {zero_picks} (15000 +/- {3 * sd:.0f})")

    pheno = np.array([[0.0], [100.0]])
    pop = Population(pheno.copy(), pheno.copy(), pheno.sum(axis=1))
    idx = tournament_select(pop, 2, 10_000, np.random.default_rng(1))
    rate = float(np.mean(idx == 1))
    ok &= abs(rate - 0.75) <= 0.02
    details.append(f"tournament-2 better-pick rate {rate:.3f}")

    # Size-2 novelty tournaments on scores {0, 50}: member 1 sits far from
    # the archive point that member 0 duplicates.
    state = NoveltyState(NoveltyParams(k=1, pmin=10**9, save_period=10**9))
    state.archive.append(np.array([0.0, 0.0]))
    pheno = np.array([[0.0, 0.0], [30.0, 40.0]])
    pop = Population(pheno.copy(), pheno.copy(), pheno.sum(axis=1))
    idx = novelty_select(pop, state, 10_000, np.random.default_rng(2))
    nov_rate = float(np.mean(idx == 1))
    ok &= abs(nov_rate - 0.75) <= 0.02
    details.append(f"novelty-2 better-pick rate {nov_rate:.3f}")
    report(7, "selection-distributions", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Stats oracle
# ---------------------------------------------------------------------------


def test_criterion_8_stats_oracle():
    import scipy.stats
    u, p_exact = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    ok = u == 0.0 and abs(p_exact - 0.1) < 1e-12
    h, p_kw = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    ok &= abs(h - 7.2) < 1e-12
    ok &= abs(p_kw - scipy.stats.chi2.sf(7.2, df=2)) < 1e-3
    ok &= bonferroni([0.6, 0.9]) == [1.0, 1.0]
    report(8, "stats-oracle", ok,
           f"rank-sum p={p_exact}, H={h}, KW p={p_kw:.4f}, capped bonferroni")


# ---------------------------------------------------------------------------
# 9. Determinism and the smoke grid
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_smoke_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    config = ExperimentConfig(
        diagnostics=[k.value for k in DiagnosticKind],
        schemes=ALL_SCHEMES,
        replicates=1, base_seed=99, output_dir=str(out),
        pop_size=32, generations=200, dim=10, stride=20, workers=0)
    started = time.monotonic()
    assert run_experiment(config) == 0
    elapsed = time.monotonic() - started
    files = sorted(out.glob("*.csv"))
    ok = len(files) == 64 and elapsed < 300.0

    # Rerunning a config with the same seed must reproduce files byte for byte.
    rerun_dir = tmp_path_factory.mktemp("smoke-rerun")
    identical = True
    for diagnostic, scheme in (("exploitation-rate", "truncation"),
                               ("contradictory-objectives", "novelty"),
                               ("multipath-valleys", "nsga")):
        rep_config = config.replicate_config(diagnostic, scheme, 0)
        result = run_replicate(rep_config)
        again = rerun_dir / replicate_filename(diagnostic, scheme, 0)
        write_records_csv(again, result.records)
        original = out / replicate_filename(diagnostic, scheme, 0)
        identical &= original.read_bytes() == again.read_bytes()
    ok &= identical
    report(9, "determinism-and-smoke-grid", ok,
           f"64 treatments in {elapsed:.0f}s, spot reruns byte-identical={identical}")
