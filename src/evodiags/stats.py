"""Nonparametric comparisons across selection schemes.

The analysis protocol is: a Kruskal-Wallis omnibus test across all
schemes on a metric, followed (when significant at 0.05) by pairwise
Wilcoxon rank-sum tests with a Bonferroni correction.

Rank statistics are computed here with midranks and tie corrections;
only the chi-square survival function and the normal distribution
function come from scipy (``scipy.special``, which imports far faster
than ``scipy.stats``). The rank-sum p-value is exact (full
enumeration) for small tie-free samples and a continuity-corrected
normal approximation otherwise.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np
from scipy.special import chdtrc, ndtr

SIGNIFICANCE_LEVEL: float = 0.05

# Largest combined sample size enumerated exactly (tie-free data only).
EXACT_ENUMERATION_LIMIT: int = 12


def _ranks_and_ties(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Midranks 1..n of ``values``, ties assigned the mean of their rank
    span, and the tie term: the sum of t**3 - t over tie groups of size
    t, which is 0 exactly when no two values tie."""
    _, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True, equal_nan=False)
    t = counts.astype(np.float64)
    return (np.cumsum(t) - (t - 1.0) / 2.0)[inverse], float((t ** 3 - t).sum())


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Omnibus rank test across two or more groups.

    Returns the tie-corrected H statistic and its chi-square p-value with
    ``len(groups) - 1`` degrees of freedom. Fully identical data gives
    H = 0 and p = 1.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValueError("kruskal_wallis needs at least two groups")
    if any(len(arr) == 0 for arr in arrays):
        raise ValueError("every group must be non-empty")
    pooled = np.concatenate(arrays)
    n_total = len(pooled)
    if n_total < 3:
        raise ValueError("kruskal_wallis needs at least three observations")
    ranks, tie_term = _ranks_and_ties(pooled)
    h = 0.0
    offset = 0
    for arr in arrays:
        r = ranks[offset:offset + len(arr)]
        h += r.sum() ** 2 / len(arr)
        offset += len(arr)
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    correction = 1.0 - tie_term / (n_total ** 3 - n_total)
    if correction <= 0.0:
        return 0.0, 1.0  # every observation identical
    h /= correction
    h = max(h, 0.0)
    return h, float(chdtrc(len(arrays) - 1, h))


def wilcoxon_rank_sum(
    a: Sequence[float],
    b: Sequence[float],
    alternative: str = "two-sided",
) -> tuple[float, float]:
    """Rank-sum test via the Mann-Whitney U statistic for the first sample.

    ``alternative='greater'`` tests whether ``a`` tends larger than ``b``.
    P-values come from exact enumeration when the combined sample is
    small (<= ``EXACT_ENUMERATION_LIMIT``) and tie-free, otherwise from
    the normal approximation with tie-corrected variance and continuity
    correction.
    """
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    pooled = np.concatenate([a, b])
    ranks, tie_term = _ranks_and_ties(pooled)
    u_stat = float(ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0)
    if tie_term == 0.0 and n_a + n_b <= EXACT_ENUMERATION_LIMIT:
        p = _exact_rank_sum_p(u_stat, n_a, n_b, alternative)
    else:
        p = _normal_rank_sum_p(u_stat, n_a, n_b, tie_term, alternative)
    return u_stat, p


def _exact_rank_sum_p(u_obs: float, n_a: int, n_b: int, alternative: str) -> float:
    """Enumerate every rank assignment of sample a among n_a + n_b ranks."""
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


def _normal_rank_sum_p(
    u_obs: float, n_a: int, n_b: int, tie_term: float, alternative: str
) -> float:
    n = n_a + n_b
    mean_u = n_a * n_b / 2.0
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:
        return 1.0  # all observations tied
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


def bonferroni(p_values: Sequence[float]) -> list[float]:
    """Multiply each p by the comparison count, capping at 1."""
    ps = [float(p) for p in p_values]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value out of range: {p}")
    k = len(ps)
    return [min(1.0, p * k) for p in ps]

