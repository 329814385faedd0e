import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest

from evodiags import (
    ConfigurationError,
    DiagnosticKind,
    MutationParams,
    NoveltyState,
    Population,
    SchemeKind,
    SchemeParams,
    evaluate_population,
    fresh_scheme_state,
    lexicase_select,
    mutate_batch,
    novelty_scores,
    novelty_select,
    random_genotypes,
    select,
    sharing_kernel,
    stochastic_remainder,
    truncation_select,
)
from evodiags import selection
from evodiags.selection import niche_counts, nsga_front_assignment

from oracles import (
    oracle_dominates,
    oracle_fronts,
    oracle_fronts_dense,
    oracle_hash_multipliers,
    oracle_lexicase,
    oracle_lexicase_by_case,
    oracle_niche_counts_cdist,
    oracle_novelty_scores,
    oracle_novelty_scores_cdist,
    oracle_nsga_shared_cdist,
)


def make_pop(phenotypes, genotypes=None):
    pheno = np.asarray(phenotypes, dtype=np.float64)
    geno = pheno.copy() if genotypes is None else np.asarray(genotypes, dtype=np.float64)
    return Population(geno, pheno, pheno.sum(axis=1))


def fronts_of(phenotypes):
    """The nondominated fronts of a block's rows, front 0 first."""
    return selection._fronts(*selection._distinct_rows(phenotypes))


def dominates(x, y):
    """Whether x dominates y, read off the fronts of the two-row block."""
    fronts = fronts_of(np.array([x, y], dtype=np.float64))
    return [f.tolist() for f in fronts] == [[0], [1]]


def fitness_pop(fitnesses):
    """Single-trait population whose total fitness equals the given values."""
    return make_pop(np.asarray(fitnesses, dtype=np.float64)[:, np.newaxis])


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def test_truncation_top_two_each_get_half_the_slots():
    pop = fitness_pop([10.0, 20.0, 30.0, 40.0])
    idx = truncation_select(pop, tr=2, n=4, rng=np.random.default_rng(0))
    assert Counter(idx) == {3: 2, 2: 2}


def test_truncation_single_survivor_parents_everything():
    pop = fitness_pop([1.0, 9.0, 3.0])
    idx = truncation_select(pop, tr=1, n=4, rng=np.random.default_rng(0))
    assert np.array_equal(idx, [1, 1, 1, 1])


def test_truncation_full_width_is_one_offspring_each():
    pop = fitness_pop([5.0, 1.0, 3.0, 2.0])
    idx = truncation_select(pop, tr=4, n=4, rng=np.random.default_rng(0))
    assert sorted(idx) == [0, 1, 2, 3]


def test_truncation_remainder_goes_to_top_ranks():
    pop = fitness_pop([1.0, 2.0, 3.0, 4.0])
    idx = truncation_select(pop, tr=3, n=5, rng=np.random.default_rng(0))
    counts = Counter(idx)
    assert counts[3] == 2 and counts[2] == 2 and counts[1] == 1


def test_truncation_rejects_tr_above_population_size():
    pop = fitness_pop([1.0, 2.0])
    with pytest.raises(ConfigurationError):
        truncation_select(pop, tr=3, n=2, rng=np.random.default_rng(0))


def test_truncation_ties_split_randomly():
    pop = fitness_pop([7.0, 7.0, 1.0])
    seen = set()
    for seed in range(40):
        idx = truncation_select(pop, tr=1, n=2, rng=np.random.default_rng(seed))
        seen.add(idx[0])
    assert seen == {0, 1}


def test_truncation_only_top_tr_ever_selected():
    rng = np.random.default_rng(3)
    fitness = rng.uniform(0, 100, size=20)
    pop = fitness_pop(fitness)
    tr = 6
    idx = truncation_select(pop, tr=tr, n=20, rng=rng)
    top = set(np.argsort(-fitness)[:tr])
    assert set(idx) <= top


# ---------------------------------------------------------------------------
# Tournament
# ---------------------------------------------------------------------------


def test_tournament_size_one_is_uniform_random():
    pop = fitness_pop([0.0, 100.0])
    rng = np.random.default_rng(4)
    idx = select(pop, fresh_scheme_state(SchemeParams(scheme=SchemeKind.TOURNAMENT, ts=1)),
                 20_000, rng)
    share = np.mean(idx == 1)
    assert share == pytest.approx(0.5, abs=0.02)


def test_tournament_containing_the_best_is_won_by_it():
    fitness = np.array([1.0, 2.0, 3.0, 99.0])
    pop = fitness_pop(fitness)
    idx = select(pop, fresh_scheme_state(SchemeParams(scheme=SchemeKind.TOURNAMENT, ts=4)),
                 10_000, np.random.default_rng(5))
    # Sampling is with replacement, so the best wins exactly when present:
    # P = 1 - (3/4)**4.
    expected = 1.0 - (3.0 / 4.0) ** 4
    assert np.mean(idx == 3) == pytest.approx(expected, abs=0.015)


def test_tournament_two_on_zero_vs_hundred_picks_better_three_quarters():
    pop = fitness_pop([0.0, 100.0])
    idx = select(pop, fresh_scheme_state(SchemeParams(scheme=SchemeKind.TOURNAMENT, ts=2)),
                 10_000, np.random.default_rng(6))
    assert np.mean(idx == 1) == pytest.approx(0.75, abs=0.02)


def test_tournament_ties_resolved_uniformly():
    pop = fitness_pop([5.0, 5.0])
    idx = select(pop, fresh_scheme_state(SchemeParams(scheme=SchemeKind.TOURNAMENT, ts=2)),
                 10_000, np.random.default_rng(7))
    assert np.mean(idx == 0) == pytest.approx(0.5, abs=0.02)


def test_rank_schemes_invariant_under_monotone_fitness_transform():
    rng = np.random.default_rng(8)
    fitness = rng.uniform(0, 100, size=16)
    pop_raw = fitness_pop(fitness)
    pop_warped = fitness_pop(np.exp(fitness / 25.0) + 3.0)
    for scheme in (lambda p, r: truncation_select(p, 4, 16, r),
                   lambda p, r: select(p, fresh_scheme_state(
                       SchemeParams(scheme=SchemeKind.TOURNAMENT, ts=8)), 16, r)):
        a = scheme(pop_raw, np.random.default_rng(99))
        b = scheme(pop_warped, np.random.default_rng(99))
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Sharing
# ---------------------------------------------------------------------------


def test_sharing_kernel_values():
    d = np.array([0.0, 0.3, 0.15, 5.0])
    assert sharing_kernel(d, 0.3, 1.0) == pytest.approx([1.0, 0.0, 0.5, 0.0])
    assert np.array_equal(sharing_kernel(d, 0.0, 1.0), np.zeros(4))  # sigma 0 disables sharing


def test_niche_count_identical_population():
    m = niche_counts(np.full((6, 3), 42.0), 0.3, 1.0)
    assert m == pytest.approx(np.full(6, 6.0))


def test_niche_count_distant_members_only_self():
    m = niche_counts(np.diag([100.0, 100.0, 100.0]), 0.3, 1.0)
    assert m == pytest.approx(np.ones(3))


def test_niche_count_two_members_at_half_sigma():
    # Raw distance 0.15 with normalization off: m = 1 + (1 - 0.15/0.3) = 1.5.
    m = niche_counts(np.array([[0.0, 0.0], [0.15, 0.0]]), 0.3, 1.0, normalize=False)
    assert m == pytest.approx([1.5, 1.5])
    # Same geometry scaled up to normalized units: distance/diameter = 0.15.
    diameter = 100.0 * np.sqrt(2.0)
    m = niche_counts(np.array([[0.0, 0.0], [0.15 * diameter, 0.0]]), 0.3, 1.0,
                     normalize=True)
    assert m == pytest.approx([1.5, 1.5])


def test_sharing_identical_members_select_uniformly_in_expectation():
    pop = make_pop(np.full((4, 2), 10.0))
    rng = np.random.default_rng(9)
    state = fresh_scheme_state(
        SchemeParams(scheme=SchemeKind.SHARING_PHENOTYPIC, sigma=0.3, alpha=1.0))
    counts = Counter(select(pop, state, 4000, rng))
    for i in range(4):
        assert counts[i] == pytest.approx(1000, abs=120)


def test_sharing_two_distant_clusters_follow_raw_fitness_ratio():
    # Two tight clusters far apart; one has double the raw fitness.
    pheno = np.array([[100.0, 100.0]] * 3 + [[50.0, 50.0]] * 3)
    pheno = pheno + np.random.default_rng(1).normal(0, 1e-9, size=pheno.shape)
    pop = make_pop(np.abs(pheno))
    rng = np.random.default_rng(10)
    state = fresh_scheme_state(
        SchemeParams(scheme=SchemeKind.SHARING_PHENOTYPIC, sigma=0.3, alpha=1.0))
    idx = select(pop, state, 30_000, rng)
    high = np.mean(np.asarray(idx) < 3)
    assert high / (1 - high) == pytest.approx(2.0, rel=0.05)


def test_sharing_sigma_zero_reduces_to_raw_stochastic_remainder():
    fitness = np.array([4.0, 2.0, 2.0])
    pop = fitness_pop(fitness)
    state = fresh_scheme_state(
        SchemeParams(scheme=SchemeKind.SHARING_PHENOTYPIC, sigma=0.0, alpha=1.0))
    idx = select(pop, state, 8, np.random.default_rng(11))
    assert Counter(idx) == {0: 4, 1: 2, 2: 2}


def test_sharing_genotypic_uses_genotypes():
    # Same phenotypes, different genotypes: genotypic metric must see the
    # genotypes. Genotypic niche counts are [2, 2, 1], so shared fitness
    # is [10, 10, 20] and four slots split exactly 1, 1, 2; phenotypic
    # counts are all 3, so three slots split exactly 1, 1, 1.
    pheno = np.full((3, 2), 10.0)
    geno = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 100.0]])
    pop = make_pop(pheno, genotypes=geno)
    rng = np.random.default_rng(12)
    genotypic, phenotypic = (
        fresh_scheme_state(SchemeParams(scheme=scheme, sigma=0.3, alpha=1.0))
        for scheme in (SchemeKind.SHARING_GENOTYPIC, SchemeKind.SHARING_PHENOTYPIC))
    assert Counter(select(pop, genotypic, 4, rng)) == {0: 1, 1: 1, 2: 2}
    assert Counter(select(pop, phenotypic, 3, rng)) == {0: 1, 1: 1, 2: 1}


def test_shared_fitness_never_exceeds_raw():
    rng = np.random.default_rng(12)
    pheno = rng.uniform(0, 100, size=(30, 4))
    pop = make_pop(pheno)
    m = niche_counts(pop.phenotypes, 0.3, 1.0)
    assert np.all(m >= 1.0)
    assert np.all(pop.total_fitness / m <= pop.total_fitness + 1e-12)


# ---------------------------------------------------------------------------
# Exact pair distances: every block equals the cdist form bit for bit
# ---------------------------------------------------------------------------


def clustered_rows(n, distinct, dim, seed):
    """``n`` rows drawn from ``distinct`` close rows, each drawn at least
    once, so that every pair lies inside sigma and each row sum adds
    ``n`` unequal terms."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(40.0, 60.0, size=(distinct, dim))
    picks = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])
    return base[rng.permutation(picks)]


EXACT_BLOCKS = {
    "clones": np.full((6, 3), 42.0),
    "signed-zeros": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [3.0, 4.0]] * 2),
    "one-row": np.array([[5.0, 7.0, 9.0]]),
    "two-rows": np.array([[0.0, 0.0], [0.15 * 100.0 * np.sqrt(2.0), 0.0]]),
    "all-distinct": clustered_rows(40, 40, 5, seed=30),
    "half-distinct": clustered_rows(64, 32, 10, seed=31),
    "half-plus-one-distinct": clustered_rows(64, 33, 10, seed=32),
    "few-distinct-wide": clustered_rows(96, 12, 100, seed=33),
}


@pytest.mark.parametrize("name", sorted(EXACT_BLOCKS))
@pytest.mark.parametrize("sigma, normalize", [(0.3, True), (0.0, True), (40.0, False)])
@pytest.mark.parametrize("fortran", [True, False])
def test_niche_counts_equal_the_cdist_form_bit_for_bit(name, sigma, normalize, fortran):
    # The input's memory layout changes no bit.
    points = EXACT_BLOCKS[name]
    expected = oracle_niche_counts_cdist(points, sigma, 1.0, normalize)
    if fortran:
        points = np.asfortranarray(points)
    assert np.array_equal(niche_counts(points, sigma, 1.0, normalize), expected)


def test_kernel_block_covers_only_the_distinct_rows(monkeypatch):
    # Whatever the share of distinct rows, -0.0 and 0.0 being one value.
    block_rows = []
    sharing_block = selection._sharing_block

    def spy(rows, *args):
        block_rows.append(rows.shape[0])
        return sharing_block(rows, *args)

    monkeypatch.setattr(selection, "_sharing_block", spy)
    for name in ["half-distinct", "half-plus-one-distinct", "signed-zeros"]:
        niche_counts(EXACT_BLOCKS[name], 0.3, 1.0)
    assert block_rows == [32, 33, 3]


def test_fortran_ordered_gather_changes_the_row_sums():
    # The same kernel values, gathered back column-major, sum to other
    # bits; this fixture would catch that gather.
    points = EXACT_BLOCKS["half-distinct"]
    distinct, inverse = selection._distinct_rows(points)
    kernel = selection._sharing_block(distinct, 0.3, 1.0, True)
    c_order = kernel[inverse[:, np.newaxis], inverse]
    f_order = kernel[inverse][:, inverse]
    assert np.array_equal(c_order, f_order)
    expected = oracle_niche_counts_cdist(points, 0.3, 1.0)
    assert np.array_equal(np.maximum(c_order.sum(axis=1), 1.0), expected)
    assert not np.array_equal(np.maximum(f_order.sum(axis=1), 1.0), expected)


# ---------------------------------------------------------------------------
# Stochastic remainder
# ---------------------------------------------------------------------------


def test_stochastic_remainder_integer_expectations_are_deterministic():
    idx = stochastic_remainder(np.array([2.0, 1.0, 1.0]), 4, np.random.default_rng(13))
    assert Counter(idx) == {0: 2, 1: 1, 2: 1}


def test_stochastic_remainder_equal_weights_full_rotation():
    idx = stochastic_remainder(np.ones(8), 8, np.random.default_rng(14))
    assert sorted(idx) == list(range(8))


def test_stochastic_remainder_fractional_slots_match_expectation():
    # Weights [3, 1], n=2: index 0 always gets its floor slot, the last
    # slot splits 50/50, so mean counts approach [1.5, 0.5].
    totals = np.zeros(2)
    for seed in range(10_000):
        idx = stochastic_remainder(np.array([3.0, 1.0]), 2, np.random.default_rng(seed))
        assert Counter(idx)[0] >= 1
        totals += np.bincount(idx, minlength=2)
    mean_counts = totals / 10_000
    # Per-run count of index 0 is 1 + Bernoulli(0.5): sd = 0.5, 3 sigma band.
    assert abs(mean_counts[0] - 1.5) < 3 * 0.5 / np.sqrt(10_000)


def test_stochastic_remainder_all_zero_weights_uniform_fallback():
    idx = stochastic_remainder(np.zeros(4), 12_000, np.random.default_rng(15))
    counts = np.bincount(idx, minlength=4)
    assert counts.min() > 2600


def test_stochastic_remainder_clamps_negative_weights():
    idx = stochastic_remainder(np.array([-5.0, 1.0]), 6, np.random.default_rng(16))
    assert set(idx) == {1}


# ---------------------------------------------------------------------------
# Lexicase
# ---------------------------------------------------------------------------


def test_lexicase_two_specialists_both_reachable():
    pop = make_pop(np.array([[1.0, 0.0], [0.0, 1.0]]))
    idx = lexicase_select(pop, 2000, np.random.default_rng(17))
    share = np.mean(np.asarray(idx) == 0)
    assert share == pytest.approx(0.5, abs=0.05)
    assert set(idx) == {0, 1}


def test_lexicase_identical_phenotypes_uniform():
    pop = make_pop(np.full((4, 3), 5.0))
    idx = lexicase_select(pop, 8000, np.random.default_rng(18))
    counts = np.bincount(idx, minlength=4)
    assert counts.min() > 1700


def test_lexicase_dominant_specialist_always_wins():
    # A ties the best on both cases and is strictly inside every filter.
    pop = make_pop(np.array([[2.0, 2.0], [2.0, 1.0], [1.0, 2.0]]))
    idx = lexicase_select(pop, 500, np.random.default_rng(19))
    assert set(idx) == {0}


def test_lexicase_strictly_best_everywhere_is_unique_selection():
    rng = np.random.default_rng(20)
    pheno = rng.uniform(0, 50, size=(10, 4))
    pheno[7] = 60.0
    pop = make_pop(pheno)
    idx = lexicase_select(pop, 100, np.random.default_rng(21))
    assert set(idx) == {7}


def test_lexicase_duplicate_case_does_not_change_survivors():
    # Survivors of a full pass depend on the case set, not multiplicity.
    base = np.array([[3.0, 1.0], [3.0, 1.0], [2.0, 5.0]])
    dup = np.hstack([base, base[:, :1]])
    for n in range(40):
        a = lexicase_select(make_pop(base), 1, np.random.default_rng(n))
        assert a[0] in {0, 1, 2}
        b = lexicase_select(make_pop(dup), 1, np.random.default_rng(n + 100))
        assert b[0] in {0, 1, 2}
    full_a = set(lexicase_select(make_pop(base), 400, np.random.default_rng(1)))
    full_b = set(lexicase_select(make_pop(dup), 400, np.random.default_rng(2)))
    assert full_a == full_b == {0, 1, 2}


def lexicase_against_oracle(pheno, n, seed):
    """Check lexicase_select's picks against the case-by-case oracle on
    the same stream (the case orders, then one draw per pick), and return
    how many cases each pick used. Both leave the stream in one state."""
    rng = np.random.default_rng(seed)
    got = lexicase_select(make_pop(pheno), n, rng)
    stream = np.random.default_rng(seed)
    orders = stream.permuted(np.tile(np.arange(pheno.shape[1]), (n, 1)), axis=1)
    draws = stream.random(n)
    picks, cases_used = oracle_lexicase(pheno.tolist(), orders, draws)
    assert got.tolist() == picks
    assert rng.bit_generator.state == stream.bit_generator.state
    return cases_used


def near_tie_block(rng, top, keep_parent):
    """48 x 100 rows: 40 rows whose columns each hold the levels 0..39 in
    a random order, ``top`` one- or two-step mutants of a parent at level
    41 everywhere (the first of them the parent itself if
    ``keep_parent``), and clones of the low rows. Each column holds 41 or
    42 values, so one exact key covers 9 cases, while the mutants tie on
    every case but the one or two each lost."""
    dim = 100
    below = rng.permuted(np.tile(np.arange(40.0), (dim, 1)), axis=1).T
    block = np.full((top, dim), 41.0)
    for row in block[int(keep_parent):]:
        lost = rng.choice(dim, size=int(rng.integers(1, 3)), replace=False)
        row[lost] -= rng.integers(1, 3, size=lost.size)
    clones = below[rng.integers(0, len(below), size=8 - top)]
    return rng.permutation(np.vstack([below, block, clones]))


def key_cases(pheno):
    """The fewest and the most cases one exact float key can cover: how
    many of the largest, and of the smallest, column radices (distinct
    values per column) multiply to less than 2**53."""
    radix = np.sort([len(np.unique(column)) for column in pheno.T]).astype(np.float64)
    return tuple(int((np.cumprod(r) < 2.0 ** 53).sum()) for r in (radix[::-1], radix))


def test_lexicase_matches_case_by_case_oracle():
    # The populations cover clones, exact ties, -0.0 against 0.0, more
    # distinct trait values than one exact float key holds, and one-step
    # mutants of a single parent, which tie on all cases but one.
    rng = np.random.default_rng(23)
    shapes = [(1, 3), (6, 1), (12, 4), (30, 20), (40, 60), (64, 100)]
    for trial in range(60):
        size, dim = shapes[trial % len(shapes)]
        if trial % 3 == 0:
            pheno = rng.uniform(0, 100, size=(size, dim))
        elif trial % 3 == 1:
            pheno = np.tile(rng.uniform(0, 100, size=dim), (size, 1))
            hit = rng.integers(0, dim, size=size)
            pheno[np.arange(size), hit] += rng.choice([-1.0, 1.0], size=size)
        else:
            levels = rng.integers(0, 3, size=(max(1, size // 3), dim)) * 0.5
            pheno = levels[rng.integers(0, len(levels), size=size)]
            pheno[pheno == 0.0] = rng.choice([0.0, -0.0], size=(pheno == 0.0).sum())
        lexicase_against_oracle(pheno, int(rng.integers(1, 50)), int(rng.integers(1 << 32)))
    # Near ties on many-valued columns, where picks settle over several
    # passes: some within the first key, some still open after two.
    settled_in_first_key = open_after_two_keys = 0
    for trial in range(12):
        pheno = near_tie_block(rng, top=(2, 4, 8)[trial % 3], keep_parent=trial % 2 == 1)
        fewest, most = key_cases(pheno)
        assert fewest == most == 9
        cases_used = lexicase_against_oracle(pheno, 64, int(rng.integers(1 << 32)))
        settled_in_first_key += sum(used <= fewest for used in cases_used)
        open_after_two_keys += sum(used > 2 * most for used in cases_used)
    assert settled_in_first_key >= 10
    assert open_after_two_keys >= 10
    # One member, and clones only: a single distinct row wins every pick.
    for pheno in (rng.uniform(0, 100, size=(1, 5)), np.tile(rng.uniform(0, 100, size=7), (16, 1))):
        lexicase_against_oracle(pheno, 12, int(rng.integers(1 << 32)))


def test_lexicase_matches_numpy_oracle_at_headline_scale():
    # A valley-crossing population at 512 x 100 evolving under lexicase:
    # after a few generations its columns hold about 50 values, so one
    # key covers about 9 cases and picks settle over many passes.
    rng = np.random.default_rng(29)
    diagnostic = DiagnosticKind.VALLEY_CROSSING
    pop = evaluate_population(random_genotypes(512, 100, 0.0, 1.0, rng), diagnostic)
    for _ in range(8):
        stream = copy.deepcopy(rng)
        parents = lexicase_select(pop, 512, rng)
        orders = stream.permuted(np.tile(np.arange(100), (512, 1)), axis=1)
        draws = stream.random(512)
        assert np.array_equal(parents, oracle_lexicase_by_case(pop.phenotypes, orders, draws))
        assert rng.bit_generator.state == stream.bit_generator.state
        offspring = mutate_batch(pop.genotypes[parents], MutationParams(), rng)
        pop = evaluate_population(offspring, diagnostic)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
def test_trait_ranks_equal_the_per_column_unique_inverse(n):
    rng = np.random.default_rng(n)
    # Few distinct values per column make ties; -0.0 and 0.0 are one value.
    values = rng.choice([-0.0, 0.0, 1.5, -2.0, 7.25, 100.0], size=(n, 4))
    values[:, 0] = np.where(np.arange(n) % 2, 0.0, -0.0)
    values[:, 3] = rng.permutation(n) - n // 2.0  # no ties, up to n ranks
    ranks = selection._trait_ranks(values)
    assert ranks.dtype == (np.uint8 if n < 256 else np.uint16)
    assert ranks.shape == (4, n) and ranks.flags.c_contiguous
    for c in range(4):
        _, expected = np.unique(values[:, c], return_inverse=True)
        assert np.array_equal(ranks[c], expected)


def mutant_block(rng, losses, dim=100):
    """40 rows whose columns each hold the levels 0..39 in a random
    order, then, for each case k and each step in ``losses``, a mutant of
    a parent at level 41 everywhere that loses that step on case k alone.
    Each column holds 42 values, so one exact key covers 9 cases. The
    mutants tie on every case but their own, so a key over 9 cases leaves
    the mutants of every other case tied: with one step lost and 40
    cases, 31 of them."""
    below = rng.permuted(np.tile(np.arange(40.0), (dim, 1)), axis=1).T
    mutants = np.full((len(losses) * dim, dim), 41.0)
    for i, (step, case) in enumerate((s, c) for s in losses for c in range(dim)):
        mutants[i, case] -= step
    return rng.permutation(np.vstack([below, mutants]))


def test_lexicase_candidate_passes_match_the_oracle():
    # Once the first key has run, later keys cover each open pick's own
    # candidate rows only. These blocks reach that path's edges.
    rng = np.random.default_rng(31)
    # Many rows tied after the first key: 40 one-step mutants, no parent.
    pheno = mutant_block(rng, [1.0], dim=40)
    assert key_cases(pheno) == (9, 9)
    cases_used = lexicase_against_oracle(pheno, 64, int(rng.integers(1 << 32)))
    assert set(cases_used) == {39}  # the last two mutants part at the 39th case
    # Columns of one value (radix 1) between many-valued ones: the mutants
    # that lost on them become the parent's clones, and every key runs
    # over them without a change of place value.
    for constant in (slice(None, None, 3), slice(1, None, 2)):
        pheno = mutant_block(rng, [1.0])
        pheno[:, constant] = 7.0
        lexicase_against_oracle(pheno, 64, int(rng.integers(1 << 32)))
    # Picks open until the last case: the two mutants that lose one and two
    # steps on the last case tie on all others.
    pheno = mutant_block(rng, [1.0, 2.0])
    cases_used = lexicase_against_oracle(pheno, 32, int(rng.integers(1 << 32)))
    assert set(cases_used) == {100}


def test_lexicase_single_improvement_wins_among_many_one_step_losses():
    # 60 mutants each lose one step on their own trait; one gains a step
    # on trait 65. The gainer ties everyone else wherever it does not win,
    # so it must win every pick, wherever trait 65 falls in the order:
    # 61 traits with two values each do not fit one exact float key.
    base = np.zeros(70)
    pheno = np.tile(base, (62, 1))
    pheno[np.arange(60), np.arange(60)] = -1.0
    pheno[61, 65] = 1.0
    idx = lexicase_select(make_pop(pheno), 300, np.random.default_rng(24))
    assert set(idx.tolist()) == {61}


# ---------------------------------------------------------------------------
# Dominance and fronts
# ---------------------------------------------------------------------------


def test_dominates_basic_cases():
    assert dominates([1.0, 1.0], [1.0, 0.0])
    assert not dominates([1.0, 1.0], [1.0, 1.0])
    assert not dominates([2.0, 0.0], [1.0, 1.0])
    assert not dominates([1.0, 1.0], [2.0, 0.0])
    assert not dominates([1.0, 0.0], [1.0, 1.0])


def test_fronts_single_front_when_incomparable():
    fronts = fronts_of(np.diag([3.0, 2.0, 1.0]))
    assert len(fronts) == 1
    assert sorted(fronts[0]) == [0, 1, 2]


def test_fronts_chain_gives_singletons():
    pheno = np.array([[4.0, 4.0], [3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
    fronts = fronts_of(pheno)
    assert [list(f) for f in fronts] == [[0], [1], [2], [3]]


def test_fronts_mixed_example():
    pheno = np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0], [1.0, 1.0], [0.0, 2.0]])
    fronts = fronts_of(pheno)
    assert sorted(fronts[0]) == [0, 1, 2]
    assert sorted(fronts[1]) == [3, 4]


def test_fronts_match_brute_force_on_random_grids():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = rng.integers(2, 9)
        d = rng.integers(1, 4)
        pheno = rng.integers(0, 4, size=(n, d)).astype(float)
        got = [sorted(f.tolist()) for f in fronts_of(pheno)]
        assert got == oracle_fronts(pheno.tolist())
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert dominates(pheno[i], pheno[j]) == oracle_dominates(
                        pheno[i], pheno[j])


def test_nsga_identical_front_selects_uniformly():
    pop = make_pop(np.full((8, 2), 7.0))
    state = fresh_scheme_state(SchemeParams(scheme=SchemeKind.NSGA, sigma=0.3, alpha=1.0))
    idx = select(pop, state, 8000, np.random.default_rng(23))
    counts = np.bincount(idx, minlength=8)
    assert counts.min() > 800


def test_nsga_two_singleton_fronts_ratio():
    # Distant phenotypes (no sharing): shared fitness N for the dominator,
    # 0.99 N for the dominated.
    pheno = np.array([[100.0, 100.0], [0.0, 0.0]])
    shared = nsga_front_assignment(pheno, 0.3, 1.0, normalize=True)
    assert shared[0] == pytest.approx(2.0)
    assert shared[1] == pytest.approx(0.99 * 2.0)


def test_nsga_front_fitness_strictly_ordered():
    rng = np.random.default_rng(24)
    pheno = rng.uniform(0, 100, size=(40, 3))
    shared = nsga_front_assignment(pheno, 0.3, 1.0)
    fronts = fronts_of(pheno)
    previous_min = np.inf
    for front in fronts:
        values = shared[front]
        assert values.max() < previous_min + 1e-12
        previous_min = values.min()


def test_nsga_sigma_zero_is_pure_front_ranking():
    pheno = np.array([[5.0, 5.0], [5.0, 5.0], [1.0, 1.0]])
    shared = nsga_front_assignment(pheno, 0.0, 1.0)
    assert shared[0] == shared[1] == 3.0
    assert shared[2] == pytest.approx(0.99 * 3.0)


NSGA_BLOCKS = {
    "chain-of-one-row-fronts": np.array([[4.0, 4.0], [3.0, 3.0], [2.0, 2.0], [1.0, 1.0]]),
    "clones-and-one-row-fronts": np.array(
        [[50.0, 50.0], [50.0, 50.0], [49.0, 49.0], [-0.0, 1.0], [0.0, 1.0], [48.0, 52.0]]),
    "clustered": clustered_rows(64, 24, 4, seed=34),
    "all-distinct": clustered_rows(40, 40, 3, seed=35),
}


@pytest.mark.parametrize("name", sorted(NSGA_BLOCKS))
@pytest.mark.parametrize("sigma", [0.3, 0.0])
def test_nsga_shared_equals_per_front_cdist_bit_for_bit(name, sigma):
    pheno = NSGA_BLOCKS[name]
    fronts = fronts_of(pheno)
    expected = oracle_nsga_shared_cdist(pheno, fronts, sigma, 1.0)
    assert np.array_equal(nsga_front_assignment(pheno, sigma, 1.0), expected)


def test_nsga_fixtures_have_one_row_fronts():
    for name in ["chain-of-one-row-fronts", "clones-and-one-row-fronts"]:
        assert min(len(f) for f in fronts_of(NSGA_BLOCKS[name])) == 1


def fronts_and_dense_objectives(monkeypatch, pheno):
    """``_fronts`` of the block, checked against the dense oracle, and
    how many objectives it tested on the whole block before the pairs.

    A spy on ``np.count_nonzero`` sees one survivor count per
    ``_DENSE_STRIDE`` objectives tested densely.
    """
    distinct, inverse = selection._distinct_rows(pheno)
    counts = []
    count_nonzero = np.count_nonzero

    def spy(block, *args, **kwargs):
        counts.append(block.shape)
        return count_nonzero(block, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(selection.np, "count_nonzero", spy)
        fronts = selection._fronts(distinct, inverse)
    assert counts == [(len(distinct),) * 2] * len(counts)
    expected = oracle_fronts_dense(distinct, inverse)
    assert [f.tolist() for f in fronts] == [f.tolist() for f in expected]
    return fronts, min(selection._DENSE_STRIDE * len(counts), pheno.shape[1])


def evolved_under_nsga(diagnostic, seed, generations):
    """The populations of a 512 x 100 run under nsga, generation 0 first."""
    rng = np.random.default_rng(seed)
    pop = evaluate_population(random_genotypes(512, 100, 0.0, 1.0, rng), diagnostic)
    pops = [pop]
    state = fresh_scheme_state(SchemeParams(scheme=SchemeKind.NSGA, sigma=0.3, alpha=1.0))
    for _ in range(generations):
        parents = select(pop, state, 512, rng)
        pop = evaluate_population(mutate_batch(pop.genotypes[parents], MutationParams(), rng),
                                  diagnostic)
        pops.append(pop)
    return pops


def test_fronts_of_evolved_smooth_populations_switch_to_pairs(monkeypatch):
    # Valley-crossing: after 8 objectives under 1% of pairs are left.
    for pop in evolved_under_nsga(DiagnosticKind.VALLEY_CROSSING, 40, 5):
        _, dense = fronts_and_dense_objectives(monkeypatch, pop.phenotypes)
        assert dense == selection._DENSE_STRIDE


def test_fronts_of_evolved_sparse_populations_stay_dense(monkeypatch):
    # Contradictory-objectives: most pairs tie at zero on most objectives,
    # and about 4% of pairs are left after 96.
    for pop in evolved_under_nsga(DiagnosticKind.CONTRADICTORY_OBJECTIVES, 41, 5):
        fronts, dense = fronts_and_dense_objectives(monkeypatch, pop.phenotypes)
        assert dense >= 96
        assert len(fronts) > 1


def chain_block(rng):
    """96 rows of 21 objectives: a chain of 16 rows beside 80 random rows.

    The chain beats every random row on objective 0 and loses on
    objective 1, so few pairs are left after 8 objectives, but each
    chain pair is left up to the last objective. There rows 6 and 7
    swap, so they share a front, and rows 10 and 11 tie, so they do not.
    """
    dim = 21
    steps = np.arange(16.0, 0.0, -1.0)[:, np.newaxis]
    chain = np.hstack([200.0 + steps, -100.0 + steps, 40.0 + np.tile(steps, (1, dim - 2))])
    chain[[6, 7], -1] = chain[[7, 6], -1]
    chain[11, -1] = chain[10, -1]
    block = np.vstack([rng.uniform(0.0, 100.0, size=(80, dim)), chain])
    return block[rng.permutation(96)]


def test_fronts_of_a_chain_left_to_the_last_objective(monkeypatch):
    rng = np.random.default_rng(42)
    for _ in range(5):
        fronts, dense = fronts_and_dense_objectives(monkeypatch, chain_block(rng))
        assert dense == selection._DENSE_STRIDE
        assert len(fronts) >= 15


@pytest.mark.parametrize("dim", [1, 5, 7, 8, 9, 21])
def test_fronts_when_objectives_are_not_a_multiple_of_the_stride(monkeypatch, dim):
    rng = np.random.default_rng(43 + dim)
    # 0/1 rows: about 10% of pairs are left after 8 objectives, 1% after 16.
    _, dense = fronts_and_dense_objectives(
        monkeypatch, rng.integers(0, 2, size=(60, dim)).astype(float))
    assert dense == min(dim, 2 * selection._DENSE_STRIDE)
    # One nonzero trait per row, as in contradictory-objectives.
    sparse = np.zeros((64, dim))
    sparse[np.arange(64), rng.integers(0, dim, 64)] = rng.uniform(1.0, 9.0, 64)
    fronts_and_dense_objectives(monkeypatch, sparse)
    # Continuous rows: under 1% of pairs are left after 8 objectives.
    _, dense = fronts_and_dense_objectives(monkeypatch, rng.uniform(0.0, 1.0, (64, dim)))
    assert dense == min(dim, selection._DENSE_STRIDE)


def test_fronts_of_a_single_distinct_row(monkeypatch):
    fronts, _ = fronts_and_dense_objectives(monkeypatch, np.full((10, 12), 3.0))
    assert [f.tolist() for f in fronts] == [list(range(10))]


# ---------------------------------------------------------------------------
# Novelty
# ---------------------------------------------------------------------------


def test_novelty_scores_identical_population_all_zero():
    pheno = np.full((5, 3), 9.0)
    assert np.array_equal(novelty_scores(pheno, [], 15), np.zeros(5))


def test_novelty_scores_two_members_euclidean():
    pheno = np.array([[0.0, 0.0], [3.0, 4.0]])
    scores = novelty_scores(pheno, [], 15)
    assert np.allclose(scores, [5.0, 5.0])


def test_novelty_scores_three_member_geometry():
    # Mutual distances 5, 5, 8: k=2 means (5+5)/2 for the apex, (5+8)/2 for the rest.
    pheno = np.array([[0.0, 0.0], [5.0, 0.0], [-1.4, 4.8]])
    scores = novelty_scores(pheno, [], 2)
    assert scores[0] == pytest.approx(5.0)
    assert scores[1] == pytest.approx(6.5)
    assert scores[2] == pytest.approx(6.5)


def test_novelty_scores_against_brute_force_with_archive():
    rng = np.random.default_rng(25)
    pheno = rng.uniform(0, 100, size=(12, 3))
    archive = [rng.uniform(0, 100, size=3) for _ in range(7)]
    got = novelty_scores(pheno, archive, 4)
    expected = oracle_novelty_scores(pheno, archive, 4)
    assert np.allclose(got, expected)


def test_novelty_scores_single_member_empty_archive():
    assert novelty_scores(np.array([[1.0, 2.0]]), [], 15)[0] == 0.0


def test_novelty_scores_pool_smaller_than_k_uses_all():
    pheno = np.array([[0.0], [3.0], [9.0]])
    scores = novelty_scores(pheno, [], 15)
    assert scores[0] == pytest.approx((3.0 + 9.0) / 2)


@pytest.mark.parametrize("name", sorted(EXACT_BLOCKS))
@pytest.mark.parametrize("archive_rows, fortran", [
    pytest.param(rows, fortran, id=f"{rows}-fortran" if fortran else str(rows))
    for fortran in (False, True) for rows in (0, 1, 9)])
def test_novelty_scores_equal_the_cdist_form_bit_for_bit(name, archive_rows, fortran):
    # The input's memory layout changes no bit.
    pheno = EXACT_BLOCKS[name]
    rng = np.random.default_rng(36)
    archive = [rng.uniform(40.0, 60.0, size=pheno.shape[1]) for _ in range(archive_rows)]
    archive += [pheno[0].copy()] if archive_rows else []  # a clone in the archive
    expected = oracle_novelty_scores_cdist(pheno, archive, 15)
    if fortran:
        pheno = np.asfortranarray(pheno)
    assert np.array_equal(novelty_scores(pheno, archive, 15), expected)


def test_novelty_blocks_cover_only_the_distinct_rows(monkeypatch):
    # The population block and the archive block alike.
    block_rows = []
    pair_block, archive_block = selection.pair_block, selection.cross_distances

    def spy_pairs(rows, *args):
        block_rows.append(rows.shape[0])
        return pair_block(rows, *args)

    def spy_archive(rows, archive):
        block_rows.append(rows.shape[0])
        return archive_block(rows, archive)

    monkeypatch.setattr(selection, "pair_block", spy_pairs)
    monkeypatch.setattr(selection, "cross_distances", spy_archive)
    for name in ["half-distinct", "half-plus-one-distinct", "signed-zeros"]:
        pheno = EXACT_BLOCKS[name]
        novelty_scores(pheno, [pheno[0] + 1.0], 15)
    assert block_rows == [32, 32, 33, 33, 3, 3]


# 0/1 rows, some repeated: every word is zero below its top 12 bits.
ROUND_ROWS = (clustered_rows(256, 200, 32, seed=38) >= 50.0).astype(np.float64)
HASHED_BLOCKS = {**EXACT_BLOCKS, "round-valued": ROUND_ROWS}


@pytest.mark.parametrize("dim", [1, 2, 20, 100, 257])
def test_hash_multipliers_equal_the_vectorized_splitmix(dim):
    multipliers = selection._hash_multipliers(dim)
    assert multipliers.dtype == np.uint64 and not multipliers.flags.writeable
    assert np.array_equal(multipliers, oracle_hash_multipliers(dim))


def test_round_valued_rows_group_by_the_hash(monkeypatch):
    # Hashing the words unfolded, these rows collide and every call
    # falls back to the sort.
    sorts = []
    unique = np.unique

    def spy(values, *args, **kwargs):
        sorts.append("axis" in kwargs)
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(selection.np, "unique", spy)
    distinct, inverse = selection._distinct_rows(ROUND_ROWS)
    assert sorts == [False]
    assert np.array_equal(distinct[inverse], ROUND_ROWS)
    assert len(distinct) == len({tuple(row) for row in ROUND_ROWS})


@pytest.mark.parametrize("name", sorted(HASHED_BLOCKS))
def test_hash_collisions_fall_back_to_the_sort(monkeypatch, name):
    # With every row hashing alike, the byte check fails unless all rows
    # are equal, and the rows are grouped by the sort; no output moves.
    points = HASHED_BLOCKS[name]
    archive = [points[0] + 1.0, points[-1].copy()]
    before = (niche_counts(points, 0.3, 1.0), novelty_scores(points, archive, 15),
              lexicase_select(make_pop(points), 64, np.random.default_rng(37)))
    monkeypatch.setattr(selection, "_hash_multipliers", lambda dim: np.zeros(dim, np.uint64))
    distinct, inverse = selection._distinct_rows(points)
    assert np.array_equal(distinct[inverse], points + 0.0)
    assert len(distinct) == len({tuple(row) for row in points})
    after = (niche_counts(points, 0.3, 1.0), novelty_scores(points, archive, 15),
             lexicase_select(make_pop(points), 64, np.random.default_rng(37)))
    for was, now in zip(before, after):
        assert np.array_equal(was, now)


def test_novelty_archive_threshold_and_burst_raise(monkeypatch):
    monkeypatch.setattr(selection, "NOVELTY_SAVE_PERIOD", 10**9)
    # Six members pairwise far apart: scores exceed pmin, burst > 4 raises it.
    pheno = np.diag(np.full(6, 90.0))
    state = NoveltyState(pmin=10.0)
    pop = make_pop(pheno)
    novelty_select(pop, state, k=2, n=6, rng=np.random.default_rng(26))
    assert len(state.archive) == 6
    assert state.pmin == pytest.approx(12.5)
    assert state.generations_since_add == 0


def test_novelty_pmin_decays_after_quiet_window(monkeypatch):
    monkeypatch.setattr(selection, "NOVELTY_SAVE_PERIOD", 10**9)
    pheno = np.full((4, 2), 5.0)  # all identical: scores 0, never archived
    state = NoveltyState(pmin=10.0)
    pop = make_pop(pheno)
    rng = np.random.default_rng(27)
    for _ in range(499):
        novelty_select(pop, state, k=15, n=4, rng=rng)
    assert state.pmin == pytest.approx(10.0)
    novelty_select(pop, state, k=15, n=4, rng=rng)
    assert state.pmin == pytest.approx(9.5)
    assert state.generations_since_add == 0
    for _ in range(500):
        novelty_select(pop, state, k=15, n=4, rng=rng)
    assert state.pmin == pytest.approx(10.0 * 0.95 * 0.95)


def test_novelty_random_save_appends_population_phenotype(monkeypatch):
    monkeypatch.setattr(selection, "NOVELTY_SAVE_PERIOD", 1)  # save every generation
    pheno = np.full((3, 2), 1.0)
    state = NoveltyState(pmin=10.0)
    pop = make_pop(pheno)
    novelty_select(pop, state, k=15, n=3, rng=np.random.default_rng(28))
    assert len(state.archive) == 1
    assert np.array_equal(state.archive[0], [1.0, 1.0])
    # Random saves do not reset the threshold stagnation counter.
    assert state.generations_since_add == 1


def test_novelty_tournament_prefers_high_scores(monkeypatch):
    monkeypatch.setattr(selection, "NOVELTY_SAVE_PERIOD", 10**9)
    pheno = np.array([[0.0, 0.0], [30.0, 40.0]])  # scores 50 each... symmetric
    # Use an archive to break symmetry: member 0 sits on the archive point.
    state = NoveltyState(pmin=10**9)
    state.archive.append(np.array([0.0, 0.0]))
    pop = make_pop(pheno)
    wins = 0
    trials = 10_000
    idx = novelty_select(pop, state, k=1, n=trials, rng=np.random.default_rng(29))
    wins = np.mean(np.asarray(idx) == 1)
    # Scores: member 0 -> 0 (clone of archive point), member 1 -> 50.
    assert wins == pytest.approx(0.75, abs=0.02)


def test_novelty_archive_append_only_across_generations(monkeypatch):
    monkeypatch.setattr(selection, "NOVELTY_SAVE_PERIOD", 50)
    rng = np.random.default_rng(30)
    state = NoveltyState(pmin=5.0)
    archive = state.archive
    sizes = []
    for _ in range(30):
        pheno = rng.uniform(0, 100, size=(10, 2))
        pop = make_pop(pheno)
        novelty_select(pop, state, k=3, n=10, rng=rng)
        sizes.append(len(state.archive))
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert state.archive is archive  # one list for the whole run
    assert state.pmin > 0


# ---------------------------------------------------------------------------
# Random control and the dispatcher
# ---------------------------------------------------------------------------


def test_random_select_single_member():
    pop = fitness_pop([5.0])
    state = fresh_scheme_state(SchemeParams(scheme=SchemeKind.RANDOM))
    assert np.array_equal(select(pop, state, 6, np.random.default_rng(31)), np.zeros(6))


def test_random_select_binomial_spread():
    pop = fitness_pop([1.0, 2.0, 3.0, 4.0])
    state = fresh_scheme_state(SchemeParams(scheme=SchemeKind.RANDOM))
    idx = select(pop, state, 10_000, np.random.default_rng(32))
    counts = np.bincount(idx, minlength=4)
    sd = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) < 3 * sd)


def test_random_select_deterministic():
    pop = fitness_pop([1.0, 2.0])
    state = fresh_scheme_state(SchemeParams(scheme=SchemeKind.RANDOM))
    a = select(pop, state, 50, np.random.default_rng(33))
    b = select(pop, state, 50, np.random.default_rng(33))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_every_scheme_returns_n_indices_in_range(scheme):
    rng = np.random.default_rng(34)
    pheno = rng.uniform(0, 100, size=(12, 5))
    pop = make_pop(pheno)
    for n in (12, 0):
        state = fresh_scheme_state(SchemeParams(scheme=scheme, tr=4, ts=3))
        idx = select(pop, state, n, np.random.default_rng(35))
        assert idx.shape == (n,)
        assert ((idx >= 0) & (idx < 12)).all()


def test_scheme_params_validation():
    with pytest.raises(ConfigurationError):
        SchemeParams(scheme=SchemeKind.TRUNCATION, tr=0)
    with pytest.raises(ConfigurationError):
        SchemeParams(scheme=SchemeKind.TOURNAMENT, ts=0)
    with pytest.raises(ConfigurationError):
        SchemeParams(scheme=SchemeKind.NOVELTY, novelty_k=0)
    for key, bad in (("sigma", -1.0), ("alpha", 0.0), ("pmin", 0.0)):
        for value in (bad, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match=f"{key} must be"):
                SchemeParams(scheme=SchemeKind.NSGA, **{key: value})


def test_scheme_and_novelty_params_reject_assignment():
    params = SchemeParams(scheme=SchemeKind.NOVELTY)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.tr = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.pmin = 1.0


def test_fresh_scheme_state_starts_each_run_from_the_params(monkeypatch):
    monkeypatch.setattr(selection, "NOVELTY_SAVE_PERIOD", 10**9)
    params = SchemeParams(scheme=SchemeKind.NOVELTY, novelty_k=2)
    first = fresh_scheme_state(params)
    select(make_pop(np.diag(np.full(6, 90.0))), first, 6, np.random.default_rng(36))
    assert len(first.novelty.archive) == 6 and first.novelty.pmin == pytest.approx(12.5)
    assert params.pmin == 10.0  # the config keeps the starting pmin
    second = fresh_scheme_state(params)
    assert second.scheme is SchemeKind.NOVELTY
    assert second.novelty.archive == [] and second.novelty.pmin == 10.0
    assert fresh_scheme_state(SchemeParams(scheme=SchemeKind.NSGA)).novelty is None
