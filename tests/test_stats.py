import numpy as np
import pytest
import scipy.stats

from evodiags import bonferroni, kruskal_wallis, wilcoxon_rank_sum
from evodiags import stats
from evodiags.stats import midranks

from oracles import oracle_midranks_and_tie_term


def test_midranks_with_ties():
    assert list(midranks(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]


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
    u, p = wilcoxon_rank_sum(a, b)
    ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                   method="asymptotic", use_continuity=True)
    assert u == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue, rel=1e-9)


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
