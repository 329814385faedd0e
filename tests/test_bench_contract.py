"""The benchmark's hooks into the package must keep working.

``perfbench/layers.py`` keeps its own copy of ``run_replicate``'s loop so
that it can time each layer. That copy calls ``random_genotypes``,
``fresh_scheme_state``, ``select(pop, state, n, rng)``, ``mutate_batch``,
``evaluate_population`` and ``snapshot`` with ``config.diagnostic``,
``has_satisfactory_solution`` and ``write_records_csv``, and it reads
``state.scheme``, ``state.novelty.archive``, ``BOUNDS_CHECK_STRIDE`` and
``config.mutation.lo``/``hi`` by name. Its ``pool_spans`` wraps
``cli.run_replicate`` and ``cli.write_records_csv``, and its
``analyze_spans`` wraps ``cli.read_records_csv``, ``cli.kruskal_wallis``,
``cli.wilcoxon_rank_sum`` and ``cli.bonferroni``, each of which ``cli``
must look up at call time.

These tests load the file as it is. They check that its replicate writes
the same CSV bytes as ``run_replicate`` followed by ``write_records_csv``,
and that its wrappers see every replicate of a grid and every read and
statistic of an analysis, so a change to any of those names, or to the
loop's order of random draws, fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from evodiags import (
    DiagnosticKind,
    ReplicateConfig,
    SchemeKind,
    SchemeParams,
    read_records_csv,
    run_replicate,
    write_records_csv,
)
from evodiags import cli, evolve

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scheme, diagnostic", [
    (SchemeKind.NOVELTY, DiagnosticKind.CONTRADICTORY_OBJECTIVES),
    (SchemeKind.NSGA, DiagnosticKind.VALLEY_CROSSING),
])
def test_traced_replicate_writes_the_run_replicate_bytes(
        tmp_path, monkeypatch, scheme, diagnostic):
    layers = load_layers()
    # A short stride makes both loops run their bounds check, which reads
    # config.mutation.lo and hi, within the 40 generations.
    monkeypatch.setattr(layers, "BOUNDS_CHECK_STRIDE", 10)
    monkeypatch.setattr(evolve, "BOUNDS_CHECK_STRIDE", 10)
    config = ReplicateConfig(
        diagnostic=diagnostic,
        # A low pmin makes the novelty archive grow within the run.
        scheme=SchemeParams(scheme=scheme, pmin=1.0),
        pop_size=16, generations=40, dim=5, seed=3, include_archive=True)
    direct, traced = tmp_path / "direct.csv", tmp_path / "traced.csv"
    write_records_csv(direct, run_replicate(config).records)
    trace = layers.traced_replicate(config, scheme.value, traced)
    assert trace.rows_written == 41
    assert traced.read_bytes() == direct.read_bytes()
    if scheme is SchemeKind.NOVELTY:
        assert read_records_csv(traced)[-1].archive_size > 0


def test_pool_and_analyze_spans_see_the_grid_and_its_analysis(tmp_path):
    layers = load_layers()
    config = cli.ExperimentConfig(
        diagnostics=["exploitation-rate"], schemes=["truncation", "random"],
        replicates=2, base_seed=4, output_dir=str(tmp_path / "grid"),
        pop_size=8, generations=10, dim=3, workers=1)
    with layers.pool_spans(tmp_path / "spans"):
        assert cli.run_experiment(config) == 0
    files = sorted(path.name for path in (tmp_path / "grid").glob("*.csv"))
    spans = layers.read_spans(tmp_path / "spans")
    assert len(files) == 4
    assert sorted(span["file"] for span in spans) == files
    trace = layers.AnalyzeTrace()
    with layers.analyze_spans(trace):
        assert cli.analyze(config.output_dir, out_path=str(tmp_path / "cmp.csv")) == 0
    assert trace.rows_read == 4 * 11
    assert trace.stats_s > 0
