from itertools import product

import numpy as np
import pytest

from evodiags import (
    DiagnosticKind,
    Population,
    apply_valleys,
    evaluate_population,
    translate,
)
from evodiags.diagnostics import DIAGNOSTICS, PEAKS, VALLEY_START, _phenotype_activations

from oracles import (
    SAWTOOTH_PEAKS,
    oracle_contradictory_objectives,
    oracle_exploitation_rate,
    oracle_multipath_exploration,
    oracle_ordered_exploitation,
    oracle_sawtooth,
)

FIG_ORDERED = np.array([96.9, 90.1, 63.7, 54.5, 48.1, 44.3, 35.3, 37.7, 50.0, 60.0])
FIG_MULTIPATH = np.array([1.0, 2.0, 99.2, 87.6, 57.0, 50.1, 31.5, 39.4, 10.0, 5.0])
EXPLOIT = DiagnosticKind.EXPLOITATION_RATE
ORDERED = DiagnosticKind.ORDERED_EXPLOITATION
CONTRA = DiagnosticKind.CONTRADICTORY_OBJECTIVES
MULTI = DiagnosticKind.MULTIPATH_EXPLORATION


def translate_one(genotype, kind):
    """Translate one genotype as a one-row block: (traits, activation)."""
    traits, activation = translate(np.asarray(genotype, dtype=np.float64)[None], kind)
    return traits[0], None if activation is None else int(activation[0])


def evaluate_one(genotype, kind):
    return evaluate_population(np.asarray(genotype, dtype=np.float64)[None], kind)


# ---------------------------------------------------------------------------
# Base translations
# ---------------------------------------------------------------------------


def test_exploitation_rate_copies_genotype():
    g = np.array([96.9, 90.1, 63.7, 0.0, 42.0])
    assert np.array_equal(translate_one(g, EXPLOIT)[0], g)


def test_exploitation_rate_idempotent():
    g = np.random.default_rng(0).uniform(0, 100, size=20)
    once = translate_one(g, EXPLOIT)[0]
    assert np.array_equal(translate_one(once, EXPLOIT)[0], once)


def test_ordered_exploitation_stops_at_first_rise():
    expected = np.array([96.9, 90.1, 63.7, 54.5, 48.1, 44.3, 35.3, 0, 0, 0])
    assert np.array_equal(translate_one(FIG_ORDERED, ORDERED)[0], expected)


def test_ordered_exploitation_increasing_genotype_keeps_only_first():
    g = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(translate_one(g, ORDERED)[0], [1.0, 0.0, 0.0, 0.0])


def test_ordered_exploitation_nonincreasing_genotype_fully_active():
    g = np.array([9.0, 9.0, 5.0, 1.0])
    assert np.array_equal(translate_one(g, ORDERED)[0], g)


def test_contradictory_objectives_expresses_only_the_max():
    g = np.array([10.0, 20.0, 97.1, 5.0])
    traits, activation = translate_one(g, CONTRA)
    assert activation == 2
    assert np.array_equal(traits, [0.0, 0.0, 97.1, 0.0])


def test_contradictory_objectives_tie_goes_to_lower_index():
    traits, activation = translate_one(np.array([5.0, 5.0, 0.0]), CONTRA)
    assert activation == 0
    assert np.array_equal(traits, [5.0, 0.0, 0.0])


def test_contradictory_objectives_all_zero():
    traits, activation = translate_one(np.zeros(4), CONTRA)
    assert activation == 0
    assert np.array_equal(traits, np.zeros(4))


def test_multipath_active_region_from_the_max():
    traits, activation = translate_one(FIG_MULTIPATH, MULTI)
    assert activation == 2
    expected = np.array([0, 0, 99.2, 87.6, 57.0, 50.1, 31.5, 0, 0, 0])
    assert np.array_equal(traits, expected)


def test_multipath_max_at_end():
    traits, activation = translate_one(np.array([1.0, 2.0, 3.0]), MULTI)
    assert activation == 2
    assert np.array_equal(traits, [0.0, 0.0, 3.0])


def test_multipath_equals_ordered_on_nonincreasing_input():
    g = np.array([9.0, 7.0, 7.0, 1.0])
    traits, activation = translate_one(g, MULTI)
    assert activation == 0
    assert np.array_equal(traits, translate_one(g, ORDERED)[0])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_base_translations_match_brute_force_on_enumerated_genotypes(dim):
    # Every genotype over the values, translated as one block and compared
    # with the oracle row by row.
    combos = list(product([0.0, 1.0, 2.0, 3.0], repeat=dim))
    block = np.array(combos)
    plain = {
        DiagnosticKind.EXPLOITATION_RATE: oracle_exploitation_rate,
        DiagnosticKind.ORDERED_EXPLOITATION: oracle_ordered_exploitation,
    }
    for kind, oracle in plain.items():
        traits, activation = translate(block, kind)
        assert activation is None
        assert traits.tolist() == [oracle(combo) for combo in combos]
    with_activation = {
        DiagnosticKind.CONTRADICTORY_OBJECTIVES: oracle_contradictory_objectives,
        DiagnosticKind.MULTIPATH_EXPLORATION: oracle_multipath_exploration,
    }
    for kind, oracle in with_activation.items():
        traits, activation = translate(block, kind)
        got = list(zip(traits.tolist(), activation.tolist()))
        assert got == [oracle(combo) for combo in combos]


def test_traits_equal_gene_or_zero_for_base_diagnostics():
    rng = np.random.default_rng(12)
    genes = rng.uniform(0, 100, size=(200, 15))
    for kind in (DiagnosticKind.EXPLOITATION_RATE,
                 DiagnosticKind.ORDERED_EXPLOITATION,
                 DiagnosticKind.CONTRADICTORY_OBJECTIVES,
                 DiagnosticKind.MULTIPATH_EXPLORATION):
        pop = evaluate_population(genes, kind)
        matches = (pop.phenotypes == genes) | (pop.phenotypes == 0.0)
        assert matches.all()


def test_active_regions_are_contiguous_and_nonincreasing():
    rng = np.random.default_rng(13)
    genes = rng.uniform(0, 100, size=(200, 12))
    for kind in (DiagnosticKind.ORDERED_EXPLOITATION,
                 DiagnosticKind.MULTIPATH_EXPLORATION):
        pop = evaluate_population(genes, kind)
        for row, gene_row in zip(pop.phenotypes, genes):
            active = np.flatnonzero(row != 0.0)
            if active.size == 0:
                continue
            assert np.array_equal(active, np.arange(active[0], active[-1] + 1))
            run = gene_row[active[0]:active[-1] + 1]
            assert np.all(np.diff(run) <= 0.0)


# ---------------------------------------------------------------------------
# Sawtooth
# ---------------------------------------------------------------------------


def test_sawtooth_default_peaks_match_closed_form():
    assert list(PEAKS) == SAWTOOTH_PEAKS
    assert not PEAKS.flags.writeable


def test_sawtooth_peaks_are_fixed_points():
    peaks = np.array(SAWTOOTH_PEAKS)
    assert np.array_equal(apply_valleys(peaks), peaks)


def test_sawtooth_identity_below_initial_peak():
    values = np.array([5.0, 0.0, 8.0])
    assert np.array_equal(apply_valleys(values), values)


def test_sawtooth_descent_examples():
    out = apply_valleys(np.array([8.5, 10.0, 20.0]))
    assert out == pytest.approx([7.5, 8.0, 16.0])


def test_sawtooth_continues_descending_past_last_peak():
    out = apply_valleys(np.array([99.5, 100.0]))
    assert out == pytest.approx([98.5, 98.0])


def test_sawtooth_grid_matches_oracle_bit_exactly():
    grid = np.linspace(0.0, 100.0, 10_001)
    out = apply_valleys(grid)
    expected = np.array([oracle_sawtooth(v) for v in grid])
    assert np.array_equal(out, expected)


def test_sawtooth_never_exceeds_input_and_equality_set_is_exact():
    grid = np.linspace(0.0, 100.0, 10_001)
    out = apply_valleys(grid)
    assert np.all(out <= grid)
    expected_equal = (grid <= 8.0) | np.isin(grid, SAWTOOTH_PEAKS)
    assert np.array_equal(out == grid, expected_equal)


def test_sawtooth_slopes_are_unit_magnitude():
    step = 0.001
    grid = np.arange(0.0, 100.0, step)
    out = apply_valleys(grid)
    slopes = np.diff(out) / step
    # Exclude intervals that straddle a kink (the initial peak or any peak).
    breaks = np.concatenate([[VALLEY_START], PEAKS])
    straddles = np.zeros(len(grid) - 1, dtype=bool)
    for b in breaks:
        straddles |= (grid[:-1] < b) & (grid[1:] >= b)
    assert np.all(np.isclose(np.abs(slopes[~straddles]), 1.0))


def test_apply_valleys_preserves_inactive_zeros():
    assert np.array_equal(apply_valleys(np.zeros(5)), np.zeros(5))


def test_apply_valleys_fixed_point_phenotype():
    traits = np.full(6, 99.0)
    assert np.array_equal(apply_valleys(traits), traits)


def test_apply_valleys_transforms_active_traits():
    out = apply_valleys(np.array([96.9, 90.1, 0.0]))
    expected = [oracle_sawtooth(96.9), oracle_sawtooth(90.1), 0.0]
    assert np.array_equal(out, expected)
    assert out[0] == pytest.approx(75.1)
    assert out[1] == pytest.approx(81.9)


# ---------------------------------------------------------------------------
# Catalog and dispatch
# ---------------------------------------------------------------------------


def test_activation_flag_per_kind():
    flags = {kind: DIAGNOSTICS[kind].activation for kind in DiagnosticKind}
    assert flags == {
        DiagnosticKind.EXPLOITATION_RATE: False,
        DiagnosticKind.ORDERED_EXPLOITATION: False,
        DiagnosticKind.CONTRADICTORY_OBJECTIVES: True,
        DiagnosticKind.MULTIPATH_EXPLORATION: True,
        DiagnosticKind.VALLEY_CROSSING: False,
        DiagnosticKind.ORDERED_EXPLOITATION_VALLEYS: False,
        DiagnosticKind.CONTRADICTORY_OBJECTIVES_VALLEYS: True,
        DiagnosticKind.MULTIPATH_VALLEYS: True,
    }


@pytest.mark.parametrize("kind", [k for k in DiagnosticKind if DIAGNOSTICS[k].activation])
def test_activation_genes_read_back_from_traits(kind):
    rng = np.random.default_rng(41)
    genes = rng.uniform(0.0, 100.0, size=(2000, 20))
    # Tie every row's maximum at a second gene; grid-valued rows tie more,
    # and all-zero rows express nothing.
    genes[np.arange(2000), rng.integers(0, 20, size=2000)] = genes.max(axis=1)
    genes[:500] = rng.integers(0, 9, size=(500, 20)) * 12.5
    genes[:10] = 0.0
    traits, activation = translate(genes, kind)
    expresses = traits.any(axis=1)
    assert expresses.sum() == 1990
    assert np.array_equal(_phenotype_activations(traits), activation[expresses])


def test_evaluate_dispatch_matches_exploitation_rate():
    g = np.random.default_rng(2).uniform(0, 100, size=10)
    pop = evaluate_one(g, DiagnosticKind.EXPLOITATION_RATE)
    assert np.array_equal(pop.phenotypes[0], g)
    assert pop.total_fitness[0] == pytest.approx(g.sum())
    assert pop.activation_genes is None


def test_evaluate_valley_crossing_on_all_peaks_genotype():
    g = np.full(10, 99.0)
    pop = evaluate_one(g, DiagnosticKind.VALLEY_CROSSING)
    assert pop.total_fitness[0] == pytest.approx(99.0 * 10)


def test_evaluate_contradictory_valleys_transforms_single_trait():
    g = np.array([1.0, 97.1, 2.0, 0.5])
    pop = evaluate_one(g, DiagnosticKind.CONTRADICTORY_OBJECTIVES_VALLEYS)
    assert pop.activation_genes.tolist() == [1]
    expected = oracle_sawtooth(97.1)
    assert pop.phenotypes[0, 1] == expected
    assert expected == pytest.approx(74.9)
    assert np.count_nonzero(pop.phenotypes[0]) == 1


def test_valley_variants_match_base_then_sawtooth_composition():
    rng = np.random.default_rng(21)
    genes = rng.uniform(0, 100, size=(50, 8))
    pairs = [
        (DiagnosticKind.VALLEY_CROSSING, DiagnosticKind.EXPLOITATION_RATE),
        (DiagnosticKind.ORDERED_EXPLOITATION_VALLEYS, DiagnosticKind.ORDERED_EXPLOITATION),
        (DiagnosticKind.CONTRADICTORY_OBJECTIVES_VALLEYS, DiagnosticKind.CONTRADICTORY_OBJECTIVES),
        (DiagnosticKind.MULTIPATH_VALLEYS, DiagnosticKind.MULTIPATH_EXPLORATION),
    ]
    for valley_kind, base_kind in pairs:
        valley_pop = evaluate_population(genes, valley_kind)
        base_pop = evaluate_population(genes, base_kind)
        assert np.array_equal(valley_pop.phenotypes, apply_valleys(base_pop.phenotypes))
        if valley_pop.activation_genes is not None:
            assert np.array_equal(valley_pop.activation_genes, base_pop.activation_genes)


def test_evaluate_is_pure_and_bit_stable():
    g = np.random.default_rng(30).uniform(0, 100, size=25)
    before = g.copy()
    a = evaluate_one(g, DiagnosticKind.MULTIPATH_VALLEYS)
    b = evaluate_one(g, DiagnosticKind.MULTIPATH_VALLEYS)
    assert np.array_equal(g, before)
    assert np.array_equal(a.phenotypes, b.phenotypes)
    assert np.array_equal(a.total_fitness, b.total_fitness)
    assert np.array_equal(a.activation_genes, b.activation_genes)


def test_population_arrays_are_frozen():
    genes = np.random.default_rng(31).uniform(0, 100, size=(4, 3))
    pop = evaluate_population(genes, DiagnosticKind.EXPLOITATION_RATE)
    with pytest.raises(ValueError):
        pop.phenotypes[0, 0] = 1.0
    with pytest.raises(ValueError):
        pop.genotypes[0, 0] = 1.0
    with pytest.raises(ValueError):
        pop.total_fitness[0] = 1.0
    assert pop.total_fitness[1] == pytest.approx(pop.phenotypes[1].sum())
    # An array that owns its data is kept, not copied, and frozen in place.
    assert pop.genotypes is genes
    assert not genes.flags.writeable
    # A view of a writeable block is copied, so writes through the block
    # cannot reach the population.
    block = np.random.default_rng(32).uniform(0, 100, size=(4, 3))
    view_pop = Population(block[:2], block[:2], block[:2].sum(axis=1))
    block[0, 0] = -1.0
    assert view_pop.genotypes[0, 0] != -1.0
    assert view_pop.phenotypes[0, 0] != -1.0
