"""Independent brute-force reimplementations used as test oracles.

Everything here is written as plain scalar loops straight from the
definitions, deliberately sharing no code with the package, so the
vectorized implementations can be checked against them on enumerated
inputs. The ``*_cdist`` oracles instead keep the full-matrix
``scipy.spatial.distance.cdist`` form of a distance computation, so that
a faster form can be checked against it bit for bit, and
``oracle_lexicase_by_case`` filters case by case in numpy, and
``oracle_fronts_dense`` tests every pair on every objective, both fast
enough for populations at the paper's scale.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

SAWTOOTH_PEAKS = [8.0, 9.0, 11.0, 14.0, 18.0, 23.0, 29.0, 36.0, 44.0, 53.0, 63.0, 74.0, 86.0, 99.0]


def oracle_exploitation_rate(genes):
    return [float(g) for g in genes]


def oracle_ordered_exploitation(genes):
    traits = []
    active = True
    for i, gene in enumerate(genes):
        if i > 0 and gene > genes[i - 1]:
            active = False
        traits.append(float(gene) if active else 0.0)
    return traits


def oracle_contradictory_objectives(genes):
    best = 0
    for i, gene in enumerate(genes):
        if gene > genes[best]:
            best = i
    traits = [0.0] * len(genes)
    traits[best] = float(genes[best])
    return traits, best


def oracle_multipath_exploration(genes):
    best = 0
    for i, gene in enumerate(genes):
        if gene > genes[best]:
            best = i
    traits = [0.0] * len(genes)
    traits[best] = float(genes[best])
    i = best + 1
    while i < len(genes) and genes[i] <= genes[i - 1]:
        traits[i] = float(genes[i])
        i += 1
    return traits, best


def oracle_sawtooth(value, peaks=None, v_initial=8.0):
    peaks = SAWTOOTH_PEAKS if peaks is None else peaks
    if value <= v_initial:
        return float(value)
    anchor = None
    for peak in peaks:
        if peak <= value:
            anchor = peak
        else:
            break
    return anchor - (value - anchor)


def oracle_dominates(x, y):
    at_least_one_better = False
    for xi, yi in zip(x, y):
        if xi < yi:
            return False
        if xi > yi:
            at_least_one_better = True
    return at_least_one_better


def oracle_fronts(phenotypes):
    """Front peeling straight from the definition."""
    remaining = list(range(len(phenotypes)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            dominated = any(
                oracle_dominates(phenotypes[j], phenotypes[i])
                for j in remaining if j != i)
            if not dominated:
                front.append(i)
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def oracle_fronts_dense(distinct, inverse):
    """The fronts of the rows ``distinct[inverse]`` from the full
    dominance block: every pair of distinct rows is tested on every
    objective, and each front's members are subtracted from the
    dominator counts with a dense row sum."""
    distinct = np.asarray(distinct, dtype=np.float64)
    dom = np.ones((len(distinct),) * 2, dtype=bool)
    for column in distinct.T:
        dom &= column[:, np.newaxis] >= column
    np.fill_diagonal(dom, False)
    dominator_count = dom.sum(axis=0)
    front_of = np.empty(len(distinct), dtype=np.int64)
    assigned = np.zeros(len(distinct), dtype=bool)
    n_fronts = 0
    while not assigned.all():
        current = np.flatnonzero((dominator_count == 0) & ~assigned)
        front_of[current] = n_fronts
        n_fronts += 1
        assigned[current] = True
        dominator_count = dominator_count - dom[current].sum(axis=0)
    row_front = front_of[np.asarray(inverse)]
    return [np.flatnonzero(row_front == k) for k in range(n_fronts)]


def oracle_novelty_scores(phenotypes, archive, k):
    pool = [np.asarray(p, dtype=float) for p in phenotypes]
    pool += [np.asarray(p, dtype=float) for p in archive]
    scores = []
    for i, row in enumerate(phenotypes):
        row = np.asarray(row, dtype=float)
        dists = []
        for j, other in enumerate(pool):
            if j == i:
                continue  # self appears once at its own pool slot
            dists.append(float(np.sqrt(((row - other) ** 2).sum())))
        if not dists:
            scores.append(0.0)
            continue
        dists.sort()
        take = min(k, len(dists))
        scores.append(sum(dists[:take]) / take)
    return scores


def oracle_lexicase(phenotypes, case_orders, draws):
    """One lexicase pick per case order, filtering case by case.

    Candidates must equal the best value on each case in turn; the
    survivors, in index order, split the pick by its uniform draw.
    Returns the picks and, for each, how many cases it filtered on.
    """
    picks, cases_used = [], []
    for order, draw in zip(case_orders, draws):
        candidates = list(range(len(phenotypes)))
        for used, case in enumerate(order, start=1):
            best = max(phenotypes[i][case] for i in candidates)
            candidates = [i for i in candidates if phenotypes[i][case] == best]
            if len(candidates) == 1:
                break
        picks.append(candidates[int(draw * len(candidates))])
        cases_used.append(used)
    return picks, cases_used


def oracle_lexicase_by_case(phenotypes, case_orders, draws):
    """:func:`oracle_lexicase` for every pick at once: one numpy pass per
    case position, each keeping the candidates that equal their pick's
    best on that pick's case, over the whole population."""
    pheno = np.asarray(phenotypes, dtype=np.float64)
    n = len(case_orders)
    alive = np.ones((n, pheno.shape[0]), dtype=bool)
    for cases in np.asarray(case_orders).T:
        values = pheno[:, cases].T
        best = np.where(alive, values, -np.inf).max(axis=1, keepdims=True)
        alive &= values == best
    slot = np.floor(np.asarray(draws) * alive.sum(axis=1)).astype(np.int64)
    return (np.cumsum(alive, axis=1) > slot[:, np.newaxis]).argmax(axis=1)


def oracle_midranks_and_tie_term(values):
    """Midranks 1..n, ties sharing the mean of their rank span, and the
    sum of t**3 - t over tie groups of size t."""
    ordered = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) and values[ordered[j + 1]] == values[ordered[i]]:
            j += 1
        for k in ordered[i:j + 1]:
            ranks[k] = (i + j) / 2.0 + 1.0
        tie_term += float(j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    return ranks, tie_term


def oracle_niche_counts_cdist(points, sigma, alpha, normalize=True):
    """Per-row sums of the sharing kernel over ``cdist(points, points)``,
    distances scaled by the diameter ``100 * sqrt(D)`` when normalizing."""
    points = np.asarray(points, dtype=np.float64)
    dmat = cdist(points, points)
    if normalize:
        dmat = dmat / (100.0 * np.sqrt(points.shape[1]))
    if sigma == 0.0:
        kernel = np.zeros_like(dmat)
    else:
        kernel = np.where(dmat < sigma, 1.0 - (dmat / sigma) ** alpha, 0.0)
    return np.maximum(kernel.sum(axis=1), 1.0)


def oracle_nsga_shared_cdist(phenotypes, fronts, sigma, alpha, normalize=True):
    """nsga's shared fitness with one ``cdist`` block per front: front 0
    starts from the population size, each later front from 0.99 times the
    previous front's smallest shared value."""
    pheno = np.asarray(phenotypes, dtype=np.float64)
    shared = np.empty(pheno.shape[0])
    dummy = float(pheno.shape[0])
    for front in fronts:
        shared[front] = dummy / oracle_niche_counts_cdist(
            pheno[front], sigma, alpha, normalize)
        dummy = 0.99 * shared[front].min()
    return shared


def oracle_novelty_scores_cdist(phenotypes, archive, k):
    """Novelty scores from ``cdist(P, vstack([P, A]))``, self excluded."""
    pheno = np.asarray(phenotypes, dtype=np.float64)
    n = pheno.shape[0]
    pool = np.vstack([pheno, np.asarray(archive, dtype=np.float64).reshape(-1, pheno.shape[1])])
    if pool.shape[0] < 2:
        return np.zeros(n)
    dists = cdist(pheno, pool)
    dists[np.arange(n), np.arange(n)] = np.inf
    kk = min(k, pool.shape[0] - 1)
    return np.partition(dists, kk - 1, axis=1)[:, :kk].mean(axis=1)
