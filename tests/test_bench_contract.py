"""The benchmark's traced replicate must write what ``run_replicate`` writes.

``perfbench/layers.py`` keeps its own copy of ``run_replicate``'s loop so
that it can time each layer. That copy calls ``fresh_scheme_state``,
``select(pop, state, n, rng)``, ``state.scheme`` and
``state.novelty.archive`` by name. These tests load the file as it is and
check that its replicate writes the same CSV bytes as ``run_replicate``
followed by ``write_records_csv``, so a change to any of those names, or
to the loop's order of random draws, fails here rather than in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from evodiags import (
    DiagnosticKind,
    DiagnosticSpec,
    NoveltyParams,
    ReplicateConfig,
    SchemeKind,
    SchemeParams,
    read_records_csv,
    run_replicate,
    write_records_csv,
)

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
def test_traced_replicate_writes_the_run_replicate_bytes(tmp_path, scheme, diagnostic):
    config = ReplicateConfig(
        diagnostic=DiagnosticSpec(diagnostic),
        # A low pmin makes the novelty archive grow within the run.
        scheme=SchemeParams(scheme=scheme, novelty=NoveltyParams(pmin=1.0)),
        pop_size=16, generations=40, dim=5, seed=3, include_archive=True)
    direct, traced = tmp_path / "direct.csv", tmp_path / "traced.csv"
    write_records_csv(direct, run_replicate(config).records)
    trace = load_layers().traced_replicate(config, scheme.value, traced)
    assert trace.rows_written == 41
    assert traced.read_bytes() == direct.read_bytes()
    if scheme is SchemeKind.NOVELTY:
        assert read_records_csv(traced)[-1].archive_size > 0
