import ctypes
import platform

import numpy as np
import pytest

from evodiags import evolve, native
from evodiags import (
    DiagnosticKind,
    MutationParams,
    ReplicateConfig,
    SchemeKind,
    SchemeParams,
    run_replicate,
)
from evodiags.core import ConfigurationError


def config(diag=DiagnosticKind.EXPLOITATION_RATE, scheme=SchemeKind.RANDOM, **kw):
    defaults = dict(
        diagnostic=diag,
        scheme=SchemeParams(scheme=scheme),
        pop_size=16, generations=20, dim=5, seed=1, record_stride=1)
    defaults.update(kw)
    return ReplicateConfig(**defaults)


def test_zero_mutation_single_member_is_a_fixed_point():
    cfg = config(pop_size=1, generations=30,
                 mutation=MutationParams(mutation_rate=0.0))
    result = run_replicate(cfg)
    fitness = [r.best_total_fitness for r in result.records]
    assert len(set(fitness)) == 1


def test_truncation_one_with_zero_mutation_copies_the_best():
    cfg = config(scheme=SchemeKind.TRUNCATION, generations=1,
                 mutation=MutationParams(mutation_rate=0.0))
    cfg.scheme = SchemeParams(scheme=SchemeKind.TRUNCATION, tr=1)
    result = run_replicate(cfg)
    # After one generation everyone is a copy of the generation-0 best.
    assert result.records[1].best_total_fitness == pytest.approx(
        result.records[0].best_total_fitness)
    assert np.allclose(result.best_phenotype.sum(), result.records[0].best_total_fitness)


def test_single_generation_stride_one_gives_two_records():
    result = run_replicate(config(generations=1))
    assert [r.generation for r in result.records] == [0, 1]


def test_records_cover_strides_plus_final_generation():
    result = run_replicate(config(generations=25, record_stride=10))
    assert [r.generation for r in result.records] == [0, 10, 20, 25]


def test_replicates_are_bit_identical_under_same_seed():
    cfg_a = config(diag=DiagnosticKind.MULTIPATH_VALLEYS, scheme=SchemeKind.NSGA,
                   generations=40, seed=77)
    cfg_b = config(diag=DiagnosticKind.MULTIPATH_VALLEYS, scheme=SchemeKind.NSGA,
                   generations=40, seed=77)
    a = run_replicate(cfg_a)
    b = run_replicate(cfg_b)
    assert a.records == b.records
    assert a.satisfactory_generation == b.satisfactory_generation
    assert np.array_equal(a.best_genotype, b.best_genotype)


def test_longer_run_starts_with_the_shorter_run():
    # The acceptance suite reads 5000-generation results off the first
    # 5000 generations of 50,000-generation runs.
    for scheme in (SchemeKind.LEXICASE, SchemeKind.RANDOM):
        short = run_replicate(config(
            diag=DiagnosticKind.VALLEY_CROSSING, scheme=scheme,
            generations=40, seed=78))
        long = run_replicate(config(
            diag=DiagnosticKind.VALLEY_CROSSING, scheme=scheme,
            generations=70, seed=78))
        assert long.records[:41] == short.records


def test_different_seeds_diverge():
    a = run_replicate(config(generations=30, seed=1))
    b = run_replicate(config(generations=30, seed=2))
    assert a.records != b.records


def test_novelty_state_does_not_leak_between_replicates():
    cfg = config(scheme=SchemeKind.NOVELTY, generations=30, seed=5)
    # Low threshold: the archive grows quickly.
    cfg.scheme = SchemeParams(scheme=SchemeKind.NOVELTY, pmin=0.5)
    first = run_replicate(cfg)
    assert first.records[-1].archive_size > 0
    second = run_replicate(cfg)  # would start from the first run's archive if it leaked
    assert first.records == second.records


def test_population_bounds_hold_throughout():
    cfg = config(scheme=SchemeKind.TOURNAMENT, generations=1500, pop_size=8,
                 dim=3, mutation=MutationParams(mutation_rate=0.5, mutation_stddev=30.0))
    result = run_replicate(cfg)  # the periodic bounds check raises on a stray gene
    assert result.records[-1].best_performance <= 100.0


@pytest.mark.parametrize("stray", [100.5, -0.5, np.nan])
def test_bounds_check_raises_on_a_gene_outside_the_range(monkeypatch, stray):
    # A raise, unlike an assert, survives python -O.
    def mutate_out_of_range(genotypes, params, rng):
        genotypes[0, 0] = stray
        return genotypes
    monkeypatch.setattr(evolve, "mutate_batch", mutate_out_of_range)
    monkeypatch.setattr(evolve, "BOUNDS_CHECK_STRIDE", 5)
    with pytest.raises(RuntimeError, match="generation 5: genes span"):
        run_replicate(config(generations=12))


def test_running_best_fitness_non_decreasing_under_strong_truncation():
    cfg = config(scheme=SchemeKind.TRUNCATION, pop_size=32, dim=5,
                 generations=400, seed=9)
    cfg.scheme = SchemeParams(scheme=SchemeKind.TRUNCATION, tr=1)
    result = run_replicate(cfg)
    best = [r.best_total_fitness for r in result.records]
    running = np.maximum.accumulate(best)
    assert np.array_equal(running, np.maximum.accumulate(running))
    # The recorded best should track the running maximum closely: with
    # tr=1 every member descends from the previous best.
    assert best[-1] > best[0]


def test_satisfactory_generation_set_on_easy_exploitation_run():
    # Truncation on the plain exploitation gradient at toy scale; pilots
    # put first satisfaction near generation 2500 for every seed tried.
    cfg = ReplicateConfig(
        diagnostic=DiagnosticKind.EXPLOITATION_RATE,
        scheme=SchemeParams(scheme=SchemeKind.TRUNCATION),
        pop_size=32, generations=3000, dim=10, seed=3, record_stride=300)
    result = run_replicate(cfg)
    assert result.satisfactory_generation is not None
    assert result.records[-1].best_performance >= 99.0


def test_satisfactory_generation_none_when_unreachable():
    result = run_replicate(config(generations=10))
    assert result.satisfactory_generation is None


def test_replicate_config_coerces_the_diagnostic_name():
    assert config(diag="valley-crossing").diagnostic is DiagnosticKind.VALLEY_CROSSING
    with pytest.raises(ValueError):
        config(diag="no-such-diagnostic")


def test_replicate_config_validation():
    with pytest.raises(ConfigurationError):
        config(pop_size=0)
    with pytest.raises(ConfigurationError):
        config(generations=0)
    with pytest.raises(ConfigurationError):
        config(record_stride=0)


def test_replicate_config_rejects_what_would_fail_mid_run():
    with pytest.raises(ConfigurationError, match="tr=8"):
        config(scheme=SchemeKind.TRUNCATION, pop_size=4)
    with pytest.raises(ConfigurationError, match="initialization range"):
        config(init_lo=1.0, init_hi=1.0)


def no_library(name):
    raise OSError(f"cannot load {name}")


def no_mallopt(name):
    return object()


@pytest.mark.parametrize("cdll", [no_library, no_mallopt], ids=["no-library", "no-mallopt"])
def test_keep_freed_memory_returns_quietly_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    # Past the once-per-process cache, twice.
    assert native.keep_freed_memory.__wrapped__() is None
    assert native.keep_freed_memory.__wrapped__() is None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_a_replicate_reuses_the_memory_it_freed():
    import resource

    # Without the malloc setting, each generation of this replicate faults
    # in about 1,400 fresh pages for its pair distances and novelty blocks.
    cfg = config(DiagnosticKind.VALLEY_CROSSING, SchemeKind.NOVELTY,
                 pop_size=512, dim=100, generations=20, record_stride=20)
    run_replicate(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_replicate(cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / cfg.generations < 50
