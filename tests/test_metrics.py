import numpy as np
import pytest

from evodiags import (
    DiagnosticKind,
    GenerationRecord,
    activation_gene_coverage,
    evaluate_population,
    has_satisfactory_solution,
    largest_valley_reached,
    read_records_csv,
    satisfactory_trait_coverage,
    snapshot,
    write_records_csv,
)
from evodiags.metrics import NO_VALLEY, best_index


def pop_from_phenotypes(pheno, kind=DiagnosticKind.EXPLOITATION_RATE):
    # Exploitation rate copies genes to traits, so the phenotype doubles
    # as the genotype for metric-only tests.
    return evaluate_population(np.asarray(pheno, dtype=np.float64), kind)


def performance(traits):
    """Best performance recorded for a one-member population."""
    return snapshot(pop_from_phenotypes(np.asarray(traits)[None]), 0,
                    DiagnosticKind.EXPLOITATION_RATE).best_performance


def test_performance_boundaries():
    assert performance(np.full(10, 100.0)) == 100.0
    assert performance(np.zeros(10)) == 0.0


def test_performance_partial_active_region():
    traits = np.array([96.9, 90.1, 63.7, 54.5, 48.1, 44.3, 35.3, 0, 0, 0])
    assert performance(traits) == pytest.approx(43.29)


def test_is_satisfactory_threshold():
    def satisfactory(value):
        return has_satisfactory_solution(pop_from_phenotypes([[value]]))

    assert satisfactory(99.0)
    assert not satisfactory(98.999)
    assert satisfactory(100.0)


def test_satisfactory_trait_coverage_counts_unique_columns():
    pheno = np.array([
        [99.5, 0.0, 0.0, 0.0],
        [99.2, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 99.9],
        [0.0, 50.0, 0.0, 0.0],
    ])
    assert satisfactory_trait_coverage(pop_from_phenotypes(pheno)) == 2


def test_satisfactory_trait_coverage_zero_when_none():
    assert satisfactory_trait_coverage(pop_from_phenotypes(np.full((3, 4), 50.0))) == 0


def test_satisfactory_trait_coverage_includes_extra_phenotypes():
    pop = pop_from_phenotypes(np.full((2, 3), 10.0))
    extra = np.array([[0.0, 99.5, 0.0]])
    assert satisfactory_trait_coverage(pop, extra) == 1


def test_activation_gene_coverage_counts_distinct():
    genes = np.array([
        [9.0, 1.0, 1.0],
        [1.0, 9.0, 1.0],
        [1.0, 9.0, 1.0],
        [1.0, 1.0, 9.0],
    ])
    pop = evaluate_population(genes, DiagnosticKind.CONTRADICTORY_OBJECTIVES)
    assert activation_gene_coverage(pop) == 3


def test_activation_gene_coverage_rejects_non_activation_population():
    pop = pop_from_phenotypes(np.ones((2, 2)))
    with pytest.raises(ValueError):
        activation_gene_coverage(pop)


def test_largest_valley_reached_values():
    assert largest_valley_reached(np.array([1.0, 7.9])) == NO_VALLEY
    assert largest_valley_reached(np.array([99.0, 1.0])) == 13
    assert largest_valley_reached(np.array([20.0, 3.0])) == 4
    assert largest_valley_reached(np.array([8.0])) == 0


def test_largest_valley_monotone_in_max_gene():
    rng = np.random.default_rng(1)
    values = np.sort(rng.uniform(0, 100, size=200))
    reached = [largest_valley_reached(np.array([v])) for v in values]
    assert all(b >= a for a, b in zip(reached, reached[1:]))


def test_best_index_lowest_on_ties():
    pheno = np.array([[5.0], [7.0], [7.0]])
    assert best_index(pop_from_phenotypes(pheno)) == 1


def test_has_satisfactory_solution_requires_all_traits():
    pheno = np.array([[99.5, 98.0], [99.5, 99.5]])
    assert has_satisfactory_solution(pop_from_phenotypes(pheno))
    assert not has_satisfactory_solution(pop_from_phenotypes(pheno[:1]))


def test_snapshot_fields_for_plain_diagnostic():
    pheno = np.array([[10.0, 20.0], [30.0, 40.0]])
    rec = snapshot(pop_from_phenotypes(pheno), 7, DiagnosticKind.EXPLOITATION_RATE)
    assert rec.generation == 7
    assert rec.best_total_fitness == pytest.approx(70.0)
    assert rec.best_performance == pytest.approx(35.0)
    assert rec.satisfactory_trait_coverage is None
    assert rec.activation_gene_coverage is None
    assert rec.largest_valley_reached is None
    assert rec.archive_size is None


def test_snapshot_best_performance_times_dim_equals_total():
    rng = np.random.default_rng(2)
    pheno = rng.uniform(0, 100, size=(20, 7))
    rec = snapshot(pop_from_phenotypes(pheno), 0, DiagnosticKind.EXPLOITATION_RATE)
    assert rec.best_performance * 7 == pytest.approx(rec.best_total_fitness, abs=1e-9)


def test_snapshot_activation_diagnostic_records_coverages():
    genes = np.array([[9.0, 1.0], [1.0, 9.0], [1.0, 99.5]])
    pop = evaluate_population(genes, DiagnosticKind.CONTRADICTORY_OBJECTIVES)
    rec = snapshot(pop, 3, DiagnosticKind.CONTRADICTORY_OBJECTIVES)
    assert rec.activation_gene_coverage == 2
    assert rec.satisfactory_trait_coverage == 1


def test_snapshot_valley_diagnostic_records_valley_of_best():
    kind = DiagnosticKind.VALLEY_CROSSING
    genes = np.array([[20.0, 3.0], [5.0, 5.0]])
    pop = evaluate_population(genes, kind)
    rec = snapshot(pop, 1, kind)
    assert rec.largest_valley_reached == 4


def test_snapshot_archive_competes_only_when_included():
    kind = DiagnosticKind.CONTRADICTORY_OBJECTIVES
    genes = np.array([[50.0, 1.0], [1.0, 40.0]])
    pop = evaluate_population(genes, kind)
    archive = [np.array([0.0, 99.5])]
    rec_off = snapshot(pop, 0, kind, archive=archive, include_archive=False)
    assert rec_off.best_total_fitness == pytest.approx(50.0)
    assert rec_off.satisfactory_trait_coverage == 0
    assert rec_off.archive_size == 1
    rec_on = snapshot(pop, 0, kind, archive=archive, include_archive=True)
    assert rec_on.best_total_fitness == pytest.approx(99.5)
    assert rec_on.best_performance * 2 == pytest.approx(rec_on.best_total_fitness)
    assert rec_on.satisfactory_trait_coverage == 1


def test_satisfied_traits_subset_of_activation_genes_on_contradictory():
    rng = np.random.default_rng(3)
    genes = rng.uniform(0, 100, size=(64, 6))
    genes[rng.integers(0, 64, 10), rng.integers(0, 6, 10)] = 99.9
    kind = DiagnosticKind.CONTRADICTORY_OBJECTIVES
    pop = evaluate_population(genes, kind)
    satisfied = set(np.flatnonzero((pop.phenotypes >= 99.0).any(axis=0)))
    activations = set(pop.activation_genes.tolist())
    assert satisfied <= activations


def test_records_csv_round_trip():
    records = [
        GenerationRecord(0, 1.5, 15.0, None, None, None, None),
        GenerationRecord(10, 43.29, 432.9, 3, 5, NO_VALLEY, 12),
        GenerationRecord(20, 99.0, 990.0, 10, 10, 13, None),
    ]
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        write_records_csv(path, records)
        again = read_records_csv(path)
        assert again == records
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == ("generation,best_performance,best_total_fitness,"
                          "satisfactory_trait_coverage,activation_gene_coverage,"
                          "largest_valley_reached,archive_size")
        with open(path) as fh:
            body = fh.read()
        assert "none" in body  # below-first-peak marker
