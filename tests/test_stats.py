from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtr

from evodiags import bonferroni, kruskal_wallis, wilcoxon_rank_sum
from evodiags import stats

from oracles import oracle_midranks_and_tie_term


def test_midranks_with_ties():
    ranks = stats._ranks_and_ties(np.array([10.0, 20.0, 20.0, 30.0]))[0]
    assert list(ranks) == [1.0, 2.5, 2.5, 4.0]


def test_ranks_and_tie_term_equal_the_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        values = rng.integers(-3, 4, n) * 0.5
        values[rng.random(n) < 0.2] = -0.0  # ties with 0.0
        ranks, tie_term = stats._ranks_and_ties(values)
        expected_ranks, expected_term = oracle_midranks_and_tie_term(values.tolist())
        assert ranks.tolist() == expected_ranks
        assert tie_term == expected_term


def test_kruskal_wallis_three_group_example():
    h, p = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert h == pytest.approx(7.2)
    assert p == pytest.approx(scipy.stats.chi2.sf(7.2, df=2), abs=1e-3)
    assert p == pytest.approx(0.02732, abs=1e-4)


def test_kruskal_wallis_identical_groups():
    h, p = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert h == 0.0
    assert p == 1.0


def test_kruskal_wallis_matches_scipy_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(20):
        groups = [rng.normal(loc, 1.0, size=rng.integers(4, 12)).tolist()
                  for loc in (0.0, 0.3, 1.0)]
        h, p = kruskal_wallis(groups)
        ref = scipy.stats.kruskal(*groups)
        assert h == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_kruskal_wallis_matches_scipy_with_ties():
    groups = [[1, 1, 2, 3], [2, 2, 3, 4], [4, 4, 5, 1]]
    h, p = kruskal_wallis(groups)
    ref = scipy.stats.kruskal(*groups)
    assert h == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-12)


def test_kruskal_wallis_input_validation():
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0], [2.0]])


def test_kruskal_wallis_two_groups_equals_squared_rank_sum_z():
    # With two tie-free groups, H is the square of the standardized
    # Mann-Whitney statistic (without continuity correction).
    rng = np.random.default_rng(1)
    a = rng.normal(0, 1, size=9)
    b = rng.normal(0.5, 1, size=7)
    h, _ = kruskal_wallis([a, b])
    u, _ = wilcoxon_rank_sum(a, b)
    mean_u = len(a) * len(b) / 2.0
    var_u = len(a) * len(b) * (len(a) + len(b) + 1) / 12.0
    z = (u - mean_u) / np.sqrt(var_u)
    assert h == pytest.approx(z * z, rel=1e-9)


def test_rank_sum_exact_textbook_example():
    u, p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    assert p == pytest.approx(0.1)


def test_rank_sum_exact_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.permutation(100)[:5].astype(float)
        b = np.setdiff1d(np.arange(100), a)[
            rng.permutation(95)[:6]].astype(float)
        for alt, scipy_alt in (("two-sided", "two-sided"),
                               ("greater", "greater"), ("less", "less")):
            u, p = wilcoxon_rank_sum(a, b, alternative=alt)
            ref = scipy.stats.mannwhitneyu(a, b, alternative=scipy_alt,
                                           method="exact")
            assert u == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_rank_sum_identical_samples_p_one():
    _, p = wilcoxon_rank_sum([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert p == pytest.approx(1.0, abs=1e-9)


def test_rank_sum_two_sided_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, size=14)
    b = rng.normal(1, 1, size=11)
    _, p_ab = wilcoxon_rank_sum(a, b)
    _, p_ba = wilcoxon_rank_sum(b, a)
    assert p_ab == pytest.approx(p_ba, rel=1e-12)


def test_rank_sum_exact_and_normal_paths_agree_for_medium_samples(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in range(10):
        pool = rng.permutation(1000)[:20].astype(float)
        a, b = pool[:10], pool[10:]
        monkeypatch.setattr(stats, "EXACT_ENUMERATION_LIMIT", 20)
        _, p_exact = wilcoxon_rank_sum(a, b)
        monkeypatch.setattr(stats, "EXACT_ENUMERATION_LIMIT", 0)
        _, p_normal = wilcoxon_rank_sum(a, b)
        assert abs(p_exact - p_normal) < 0.02


def test_rank_sum_normal_approx_matches_scipy_with_ties():
    a = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 7.0]
    b = [2.0, 3.0, 3.0, 4.0, 5.0, 8.0, 9.0, 9.0]
    for first, second in ((a, b), (b, a)):
        for alt in ("two-sided", "greater", "less"):
            u, p = wilcoxon_rank_sum(first, second, alternative=alt)
            ref = scipy.stats.mannwhitneyu(first, second, alternative=alt,
                                           method="asymptotic", use_continuity=True)
            assert u == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, rel=1e-9)


def _three_way_exact_p(u_obs, n_a, n_b, alternative):
    # Each alternative counted on its own, by enumeration.
    n = n_a + n_b
    total = comb(n, n_a)
    offset = n_a * (n_a + 1) // 2
    u_values = [sum(c) - offset for c in combinations(range(1, n + 1), n_a)]
    u_obs = round(u_obs)
    le = sum(1 for u in u_values if u <= u_obs)
    ge = sum(1 for u in u_values if u >= u_obs)
    if alternative == "less":
        return le / total
    if alternative == "greater":
        return ge / total
    return min(1.0, 2.0 * min(le, ge) / total)


def _three_way_normal_p(u_obs, n_a, n_b, tie_term, alternative):
    # Each alternative with its own z; two-sided folds |U - mean|.
    n = n_a + n_b
    mean_u = n_a * n_b / 2.0
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:
        return 1.0
    sd = np.sqrt(var_u)
    if alternative == "greater":
        z = (u_obs - mean_u - 0.5) / sd
        return float(ndtr(-z))
    if alternative == "less":
        z = (u_obs - mean_u + 0.5) / sd
        return float(ndtr(z))
    z = (abs(u_obs - mean_u) - 0.5) / sd
    z = max(z, 0.0)
    return float(min(1.0, 2.0 * ndtr(-z)))


def test_rank_sum_tails_match_the_three_way_formulas_bit_for_bit():
    # Tied and untied samples, combined sizes on both sides of the
    # enumeration limit, every alternative.
    rng = np.random.default_rng(17)
    got, expected = [], []
    for trial in range(400):
        n_a, n_b = (int(k) for k in rng.integers(1, 11, size=2))
        if trial % 2:
            a, b = rng.integers(0, 5, n_a) * 1.0, rng.integers(0, 5, n_b) * 1.0
        else:
            a, b = rng.normal(0.0, 1.0, n_a), rng.normal(rng.uniform(-1, 1), 1.0, n_b)
        tie_term = stats._ranks_and_ties(np.concatenate([a, b]))[1]
        for alt in ("two-sided", "less", "greater"):
            u, p = wilcoxon_rank_sum(a, b, alternative=alt)
            got.append(p)
            if tie_term == 0.0 and n_a + n_b <= stats.EXACT_ENUMERATION_LIMIT:
                expected.append(_three_way_exact_p(u, n_a, n_b, alt))
            else:
                expected.append(_three_way_normal_p(u, n_a, n_b, tie_term, alt))
    got, expected = np.array(got), np.array(expected)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_rank_sum_directional_alternatives_are_coherent():
    a = [10.0, 11.0, 12.0]
    b = [1.0, 2.0, 3.0]
    _, p_greater = wilcoxon_rank_sum(a, b, alternative="greater")
    _, p_less = wilcoxon_rank_sum(a, b, alternative="less")
    assert p_greater < 0.1 < p_less


def test_rank_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([], [1.0])
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0], [2.0], alternative="sideways")


def test_p_values_always_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(0, 1, size=rng.integers(2, 15))
        b = rng.normal(rng.uniform(-2, 2), 1, size=rng.integers(2, 15))
        for alt in ("two-sided", "greater", "less"):
            _, p = wilcoxon_rank_sum(a, b, alternative=alt)
            assert 0.0 <= p <= 1.0


def test_bonferroni_examples():
    assert bonferroni([0.01, 0.04]) == [0.02, 0.08]
    assert bonferroni([0.7]) == [0.7]
    assert bonferroni([0.6, 0.9]) == [1.0, 1.0]
    with pytest.raises(ValueError):
        bonferroni([1.5])


def test_empty_sample_rejected_and_plain_sequences_used():
    # An empty group has no ranks; a nan p-value would read as significant
    # in analyze (nan >= alpha is False).
    with pytest.raises(ValueError):
        kruskal_wallis([[], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0, 2.0], ())
    g1, g2 = (1.0, 2.0, 3.0), [4.0, 5.0, 6.0]
    u, p = wilcoxon_rank_sum(g1, g2)
    assert (u, p) == (0.0, pytest.approx(0.1))
    h, _ = kruskal_wallis([g1, g2, np.array([7.0, 8.0, 9.0])])
    assert h == pytest.approx(7.2)
