"""Parent selection schemes.

Every scheme maps an evaluated population to ``n`` parent indices chosen
with replacement. Aggregate schemes (truncation, tournament, fitness
sharing, nondominated sorting) rank on total fitness or shared variants
of it; lexicase treats each trait as a test case; novelty search scores
behavioral distinctness against the population and a growing archive;
random selection is the control. One frozen :class:`SchemeParams`
configures every scheme, novelty's ``novelty_k`` and starting ``pmin``
included; novelty's other rules are the ``NOVELTY_*`` constants.

Sharing distances are normalized by the search space diameter
(``upper_bound * sqrt(D)``), so that ``sigma`` reads as a fraction of
it, unless a flag asks for raw ones; novelty's are always raw, as its
threshold ``pmin`` is. Every distance block equals the ``cdist`` form
bit for bit, but computes each pair once (``pdist``) over the distinct
rows, grouped for every scheme by one hashed rule (:func:`_distinct_rows`).
Sharing and nsga take niche counts by :func:`_clone_counts`, novelty
gathers distances back per member, and nsga's :func:`_fronts` tests its
later objectives only on the pairs still in the dominance block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .core import MASK64, SPLITMIX_GAMMA, UPPER_BOUND, ConfigurationError, Population, splitmix64


class SchemeKind(str, Enum):
    """Canonical scheme names used in configs, CLI flags, and filenames."""

    TRUNCATION = "truncation"
    TOURNAMENT = "tournament"
    SHARING_GENOTYPIC = "sharing-genotypic"
    SHARING_PHENOTYPIC = "sharing-phenotypic"
    LEXICASE = "lexicase"
    NSGA = "nsga"
    NOVELTY = "novelty"
    RANDOM = "random"


def all_scheme_names() -> list[str]:
    return [kind.value for kind in SchemeKind]


# Novelty search's fixed rules: ``pmin`` rises by ``NOVELTY_RAISE_FACTOR``
# when more than ``NOVELTY_BURST_LIMIT`` phenotypes clear it in one
# generation, and falls by ``NOVELTY_DECAY_FACTOR`` after
# ``NOVELTY_DECAY_WINDOW`` generations in a row without one; about one
# random population phenotype per ``NOVELTY_SAVE_PERIOD`` generations is
# archived regardless of score; parents come from
# size-``NOVELTY_TOURNAMENT_SIZE`` tournaments on the scores.
NOVELTY_BURST_LIMIT = 4
NOVELTY_RAISE_FACTOR = 1.25
NOVELTY_DECAY_WINDOW = 500
NOVELTY_DECAY_FACTOR = 0.95
NOVELTY_SAVE_PERIOD = 200
NOVELTY_TOURNAMENT_SIZE = 2


@dataclass
class NoveltyState:
    """One novelty run's state: neighbor count ``k``, current threshold
    ``pmin``, the append-only archive (one list for the whole run) and
    the generations since the last threshold addition."""

    k: int
    pmin: float
    archive: list[np.ndarray] = field(default_factory=list)
    generations_since_add: int = 0


@dataclass(frozen=True)
class SchemeParams:
    """Per-scheme configuration; :func:`fresh_scheme_state` starts a run
    from it. ``novelty_k`` and ``pmin`` are novelty search's neighbor
    count and starting archive threshold."""

    scheme: SchemeKind
    tr: int = 8
    ts: int = 8
    sigma: float = 0.3
    alpha: float = 1.0
    normalize_distance: bool = True
    novelty_k: int = 15
    pmin: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", SchemeKind(self.scheme))
        if self.tr < 1:
            raise ConfigurationError(f"tr must be >= 1, got {self.tr}")
        if self.ts < 1:
            raise ConfigurationError(f"ts must be >= 1, got {self.ts}")
        if self.sigma < 0.0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")
        if self.alpha <= 0.0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        if self.novelty_k < 1:
            raise ConfigurationError(f"novelty_k must be >= 1, got {self.novelty_k}")
        if self.pmin <= 0.0:
            raise ConfigurationError(f"pmin must be positive, got {self.pmin}")


@dataclass
class SchemeState:
    """What :func:`select` reads and updates over one replicate: the
    frozen params, plus the run state of novelty search (None for every
    other scheme)."""

    params: SchemeParams
    novelty: Optional[NoveltyState] = None

    @property
    def scheme(self) -> SchemeKind:
        return self.params.scheme


def fresh_scheme_state(params: SchemeParams) -> SchemeState:
    """A new replicate's state; no two replicates share an archive."""
    is_novelty = params.scheme is SchemeKind.NOVELTY
    return SchemeState(params, NoveltyState(params.novelty_k, params.pmin) if is_novelty else None)


# ---------------------------------------------------------------------------
# Fitness-ranked schemes
# ---------------------------------------------------------------------------


def truncation_select(
    pop: Population, tr: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Keep the top ``tr`` by total fitness; parents split the brood evenly.

    Ties in the sort are settled randomly. Each survivor receives
    ``n // tr`` offspring slots; any remainder is dealt round-robin from
    the best rank down.
    """
    if tr > len(pop):
        raise ConfigurationError(f"tr={tr} exceeds population size {len(pop)}")
    order = _random_tie_sort(pop.total_fitness, rng)
    counts = np.full(tr, n // tr, dtype=np.int64)
    counts[: n % tr] += 1
    return np.repeat(order[:tr], counts)


def tournament_select(
    pop: Population, ts: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Hold ``n`` independent size-``ts`` tournaments on total fitness.

    Entrants are sampled uniformly with replacement; the highest total
    fitness wins, ties settled uniformly among the tied entrants.
    """
    return _score_tournaments(pop.total_fitness, ts, n, rng)


def random_select(pop: Population, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws with replacement; the no-selection-pressure control."""
    return rng.integers(0, len(pop), size=n)


def _random_tie_sort(fitness: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices sorted by descending fitness with random tie order."""
    perm = rng.permutation(len(fitness))
    return perm[np.argsort(-fitness[perm], kind="stable")]


def _score_tournaments(
    scores: np.ndarray, size: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    entrants = rng.integers(0, len(scores), size=(n, size))
    vals = scores[entrants]
    is_best = vals == vals.max(axis=1, keepdims=True)
    # Random argmax among tied entrants.
    tiebreak = np.where(is_best, rng.random((n, size)), -1.0)
    return entrants[np.arange(n), tiebreak.argmax(axis=1)]


# ---------------------------------------------------------------------------
# Fitness sharing
# ---------------------------------------------------------------------------


def sharing_kernel(d: np.ndarray, sigma: float, alpha: float) -> np.ndarray:
    """Sharing contribution of neighbors at distances ``d``, element-wise.

    Returns ``1 - (d / sigma) ** alpha`` for ``d < sigma`` and 0 beyond;
    ``sigma == 0`` disables sharing entirely (kernel is 0 everywhere).
    """
    d = np.asarray(d, dtype=np.float64)
    if sigma == 0.0:
        return np.zeros_like(d)
    return np.where(d < sigma, 1.0 - (d / sigma) ** alpha, 0.0)


def _pair_block(
    rows: np.ndarray, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``f(cdist(rows, rows))`` bit for bit, for an element-wise ``f``.

    ``pdist`` gives each pair's distance once, with ``cdist``'s
    arithmetic, so ``f`` runs on N(N-1)/2 values; the diagonal, where
    ``cdist`` gives 0, is ``f(0)``.
    """
    block = squareform(f(pdist(rows)))
    np.fill_diagonal(block, f(np.zeros(1)))
    return block


def _sharing_block(
    rows: np.ndarray, sigma: float, alpha: float, normalize: bool
) -> np.ndarray:
    """The sharing kernel of every pair of ``rows``, self pairs included."""
    scale = UPPER_BOUND * np.sqrt(rows.shape[1]) if normalize else 1.0
    return _pair_block(rows, lambda d: sharing_kernel(d / scale, sigma, alpha))


def _clone_counts(kernel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Niche counts of the members whose distinct rows of ``kernel`` are
    ``rows``: each member's kernel sum over all members, floored at 1.

    Row a of the C-ordered gather holds, in member order and in one
    contiguous row, the terms of every member whose distinct row is a,
    so each count adds the values the block over all members would, in
    the same order, to the same bits; a column-major gather does not.
    """
    return np.maximum(np.take(kernel, rows, axis=1).sum(axis=1), 1.0)[rows]


def niche_counts(
    points: np.ndarray, sigma: float, alpha: float, normalize: bool = True
) -> np.ndarray:
    """Per-row sum of the sharing kernel over all rows (self included).

    Distances are Euclidean, optionally scaled by the space diameter. The
    self term contributes 1, so counts are always >= 1; with sharing
    disabled (sigma 0) every count is exactly 1.

    The counts equal the row sums of the kernel of ``cdist(points,
    points)`` bit for bit. The kernel is computed over the distinct rows
    only, each pair once.
    """
    distinct, inverse = _distinct_rows(points)
    return _clone_counts(_sharing_block(distinct, sigma, alpha, normalize), inverse)


def fitness_sharing_select(
    pop: Population,
    points: np.ndarray,
    sigma: float,
    alpha: float,
    n: int,
    rng: np.random.Generator,
    normalize: bool = True,
) -> np.ndarray:
    """Divide each fitness by its niche count among ``points`` (the
    population's genotypes or phenotypes), then stochastic remainder."""
    m = niche_counts(points, sigma, alpha, normalize)
    return stochastic_remainder(pop.total_fitness / m, n, rng)


def stochastic_remainder(
    weights: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic remainder selection with replacement.

    Each index i deterministically receives ``floor(n * w_i / sum w)``
    slots; leftover slots are drawn with replacement in proportion to the
    fractional remainders. Negative weights are clamped to 0; if every
    weight is 0 the draw degrades to uniform random.
    """
    w = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    total = w.sum()
    if total <= 0.0:
        return rng.integers(0, len(w), size=n)
    expected = n * w / total
    base = np.floor(expected).astype(np.int64)
    chosen = np.repeat(np.arange(len(w)), base)
    leftover = n - int(base.sum())
    if leftover > 0:
        frac = expected - base
        frac_total = frac.sum()
        if frac_total <= 0.0:
            extra = rng.integers(0, len(w), size=leftover)
        else:
            extra = rng.choice(len(w), size=leftover, p=frac / frac_total)
        chosen = np.concatenate([chosen, extra])
    return chosen


# ---------------------------------------------------------------------------
# Lexicase
# ---------------------------------------------------------------------------


# Float64 holds every integer below 2**53 exactly, so mixed-radix keys
# whose radix product stays below this limit compare without rounding.
_KEY_LIMIT = 2.0 ** 53


@functools.lru_cache
def _hash_multipliers(dim: int) -> np.ndarray:
    """The row hash's odd multipliers, SplitMix64's first ``dim`` outputs from 0; read-only."""
    z = np.array([splitmix64(k * SPLITMIX_GAMMA & MASK64) | 1 for k in range(dim)],
                 dtype=np.uint64)
    z.flags.writeable = False
    return z


def _distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a float block and each row's index among them.

    Rows compare as floats: adding 0.0 turns -0.0 into 0.0, after which
    byte equality of two rows is float equality. Rows group by a hash of
    their words, checked byte for byte, or on a collision by a sort. No
    output depends on the order of the groups: callers read per member.
    """
    rows = np.ascontiguousarray(values, dtype=np.float64) + 0.0
    words = rows.view(np.uint64)
    # Round values such as 1.0 have zero low words, and products carry no bit down.
    hashes = (words ^ (words >> np.uint64(32))) @ _hash_multipliers(rows.shape[1])
    _, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
    if (words[first[inverse]] == words).all():
        return rows[first], inverse
    return np.unique(rows, axis=0, return_inverse=True)


def _trait_ranks(values: np.ndarray) -> np.ndarray:
    """Dense ranks of an (N, D) block, transposed: ``ranks[c, i]`` is the
    rank of ``values[i, c]`` among column ``c`` (0 for the smallest).

    Ranks keep every tie and every order of the values. They come one
    contiguous row per column, in the smallest unsigned type that holds
    N, which numpy compares much faster than floats.
    """
    traits = np.ascontiguousarray(values.T)
    order = np.argsort(traits, axis=1)
    columns = np.arange(traits.shape[0])[:, np.newaxis]
    ordered = traits[columns, order]
    steps = np.zeros(traits.shape, dtype=np.min_scalar_type(traits.shape[1]))
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    ranks[columns, order] = np.cumsum(steps, axis=1, dtype=steps.dtype)
    return ranks


def lexicase_select(pop: Population, n: int, rng: np.random.Generator) -> np.ndarray:
    """Filter candidates through shuffled test cases, one parent at a time.

    Each trait is a test case. For every parent pick, the case order is
    reshuffled and candidates must tie the running best (exact float
    equality) on each case in turn; once one candidate remains (or cases
    run out) a parent is drawn uniformly from the survivors.

    Implementation note: individuals with identical phenotypes pass or
    fail every filter together, and any survivors left after a full pass
    are exact phenotype ties. Filtering therefore runs over the distinct
    phenotype rows, and the winning row's members split the pick
    uniformly. Filtering on cases ``c1, c2, ...`` in turn keeps the row
    whose traits, read in that order, form the lexicographically largest
    sequence. Traits are replaced by their dense ranks within each
    column, which keeps every tie and every order, so a run of
    consecutive cases reads as one mixed-radix number per row, computed
    for all picks at once by one matrix product. A run lasts while its
    radix product stays below ``_KEY_LIMIT``, where the numbers are exact
    floats. Each pass keys one run, and later passes key only the picks
    still open, those left with more than one candidate. With about 50
    ranks per column a run covers about 9 cases, so a 100-case population
    can take 10 or more passes, but the open picks thin out quickly.
    """
    pheno = pop.phenotypes
    dim = pheno.shape[1]
    distinct, inverse = _distinct_rows(pheno)
    orders = rng.permuted(np.tile(np.arange(dim), (n, 1)), axis=1)
    winner_rows = np.zeros(n, dtype=np.int64)
    if distinct.shape[0] > 1:
        ranks = _trait_ranks(distinct).astype(np.float64)
        radix = ranks.max(axis=1) + 1.0
        # The picks still open, their case orders, and (after the first
        # pass) alive[i, r], which says row r is still a candidate for
        # open pick i. Distinct rows cannot tie on every case, so each
        # pick ends with exactly one row alive.
        picks = np.arange(n)
        start = 0
        while start < dim:
            # Radix products over each pick's remaining cases. They are
            # exact below the limit and never fall back below it once
            # past, and a single case always fits, its radix being at
            # most N.
            spans = np.cumprod(radix[orders[:, start:]], axis=1)
            length = int((spans < _KEY_LIMIT).sum(axis=1).min())
            # A case's place value is the radix product of the run's
            # later cases; the quotient of exact integers is exact.
            place = spans[:, length - 1:length] / spans[:, :length]
            weights = np.zeros((picks.size, dim))
            rows = np.arange(picks.size)[:, np.newaxis]
            weights[rows, orders[:, start:start + length]] = place
            keys = weights @ ranks
            if start:
                keys = np.where(alive, keys, -1.0)
            alive = keys == keys.max(axis=1, keepdims=True)
            winner_rows[picks] = alive.argmax(axis=1)
            start += length
            still_open = alive.sum(axis=1) > 1
            if not still_open.any():
                break
            picks, orders, alive = picks[still_open], orders[still_open], alive[still_open]
    # Uniform pick among the clones sharing the winning phenotype.
    members_by_row = np.argsort(inverse, kind="stable")
    class_sizes = np.bincount(inverse, minlength=distinct.shape[0])
    offsets = np.concatenate([[0], np.cumsum(class_sizes)])
    draws = rng.random(n)
    slot = np.floor(draws * class_sizes[winner_rows]).astype(np.int64)
    return members_by_row[offsets[winner_rows] + slot]


# ---------------------------------------------------------------------------
# Nondominated sorting
# ---------------------------------------------------------------------------


# Dominance is tested on all pairs, ``_DENSE_STRIDE`` objectives between
# counts of the pairs left, and on those pairs alone once they are fewer
# than ``_PAIR_SHARE`` of the block. After 8 objectives 0.3% of pairs are
# left on evolved 512 x 100 valley-crossing populations, so they switch;
# contradictory-objectives keeps 91-93%, and 3-5% after 96 objectives.
_DENSE_STRIDE = 8
_PAIR_SHARE = 1 / 32


def _fronts(distinct: np.ndarray, inverse: np.ndarray) -> list[np.ndarray]:
    """Nondominated fronts of the rows ``distinct[inverse]``, front 0
    first, each the ascending indices of its rows. Dominance between
    distinct rows is ``>=`` on every objective; booleans do not round, so
    testing later objectives only on the pairs left changes no front."""
    ranks = _trait_ranks(distinct)
    n = distinct.shape[0]
    dom = ~np.eye(n, dtype=bool)  # row i >= row j so far
    for done in range(_DENSE_STRIDE, len(ranks) + _DENSE_STRIDE, _DENSE_STRIDE):
        chunk = ranks[done - _DENSE_STRIDE:done]
        dom &= (chunk[:, :, np.newaxis] >= chunk[:, np.newaxis]).all(axis=0)
        if np.count_nonzero(dom) < _PAIR_SHARE * dom.size:
            break
    i, j = np.nonzero(dom)
    keep = (ranks[done:, i] >= ranks[done:, j]).all(axis=0)
    i, j = i[keep], j[keep]  # row i dominates row j
    dominators = np.bincount(j, minlength=n)
    fronts = []
    while (current := dominators == 0).any():
        fronts.append(np.flatnonzero(current[inverse]))
        # A peeled row's count drops to -1, so it is never peeled again.
        dominators -= np.bincount(j[current[i]], minlength=n) + current
    return fronts


# Each front's dummy fitness, as a fraction of the previous front's
# smallest shared fitness.
_FRONT_DECAY = 0.99


def nsga_front_assignment(
    phenotypes: np.ndarray, sigma: float, alpha: float, normalize: bool = True
) -> np.ndarray:
    """Rank by front, then share a per-front dummy fitness within each front.

    Front 0 starts from a dummy fitness equal to the population size; each
    later front starts at ``_FRONT_DECAY`` times the smallest shared
    fitness of the front before it, preserving strict cross-front
    ordering. Sharing uses phenotypic similarity restricted to same-front
    members: one kernel block over the distinct rows serves every front,
    and each front's niche counts are :func:`_clone_counts` of its
    members, the bits :func:`niche_counts` gives on the front alone.
    Returns the shared fitness of every row.
    """
    distinct, inverse = _distinct_rows(phenotypes)
    kernel = _sharing_block(distinct, sigma, alpha, normalize)
    shared = np.empty(len(inverse), dtype=np.float64)
    dummy = float(len(inverse))
    for front in _fronts(distinct, inverse):
        shared[front] = dummy / _clone_counts(kernel, inverse[front])
        dummy = _FRONT_DECAY * shared[front].min()
    return shared


def nsga_select(
    pop: Population,
    sigma: float,
    alpha: float,
    n: int,
    rng: np.random.Generator,
    normalize: bool = True,
) -> np.ndarray:
    """Stochastic remainder over front-ranked, within-front-shared fitness."""
    shared = nsga_front_assignment(pop.phenotypes, sigma, alpha, normalize)
    return stochastic_remainder(shared, n, rng)


# ---------------------------------------------------------------------------
# Novelty search
# ---------------------------------------------------------------------------


def novelty_scores(
    phenotypes: np.ndarray, archive: Sequence[np.ndarray], k: int
) -> np.ndarray:
    """Mean raw Euclidean distance to the k nearest phenotype neighbors.

    The neighbor pool is the current population plus the archive; each
    member is excluded from its own pool exactly once, but other members
    at distance zero still count. Pools smaller than k average over every
    available neighbor; an empty pool scores 0. Both blocks cover only
    the distinct rows, gathered back per member, so the partition and
    the mean see the values and order of the blocks over all members.
    """
    distinct, inverse = _distinct_rows(phenotypes)
    n = len(inverse)
    # The block equals cdist(distinct, vstack([distinct, archive])) bit for bit.
    dists = _pair_block(distinct, np.asarray)
    if len(archive):
        dists = np.hstack([dists, cdist(distinct, np.asarray(archive, dtype=np.float64))])
    columns = np.concatenate([inverse, np.arange(len(distinct), dists.shape[1])])
    dists = dists.take(columns, axis=1)[inverse]
    available = dists.shape[1] - 1
    if available < 1:
        return np.zeros(n, dtype=np.float64)
    dists[np.arange(n), np.arange(n)] = np.inf  # self, excluded once
    kk = min(k, available)
    dists.partition(kk - 1, axis=1)  # the gather is the call's own block
    return dists[:, :kk].mean(axis=1)


def novelty_select(
    pop: Population, state: NoveltyState, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Score novelty, update the run state in place, then run size-two
    tournaments on the scores.

    Archive update order: threshold additions, burst check on ``pmin``,
    stagnation decay of ``pmin``, then the periodic random save.
    """
    scores = novelty_scores(pop.phenotypes, state.archive, state.k)
    novel = np.flatnonzero(scores > state.pmin)
    state.archive.extend(pop.phenotypes[novel])
    if novel.size > NOVELTY_BURST_LIMIT:
        state.pmin *= NOVELTY_RAISE_FACTOR
    if novel.size > 0:
        state.generations_since_add = 0
    else:
        state.generations_since_add += 1
        if state.generations_since_add >= NOVELTY_DECAY_WINDOW:
            state.pmin *= NOVELTY_DECAY_FACTOR
            state.generations_since_add = 0
    if rng.random() < 1.0 / NOVELTY_SAVE_PERIOD:
        state.archive.append(pop.phenotypes[rng.integers(len(pop))].copy())
    return _score_tournaments(scores, NOVELTY_TOURNAMENT_SIZE, n, rng)


# ---------------------------------------------------------------------------
# The catalog and the dispatcher
# ---------------------------------------------------------------------------


class Scheme(NamedTuple):
    """How :func:`select` runs a scheme, and its one-line description."""

    select: Callable[[Population, SchemeState, int, np.random.Generator], np.ndarray]
    describe: str


SCHEMES = {
    SchemeKind.TRUNCATION: Scheme(
        lambda pop, state, n, rng: truncation_select(pop, state.params.tr, n, rng),
        "top tr by total fitness parent the next generation"),
    SchemeKind.TOURNAMENT: Scheme(
        lambda pop, state, n, rng: tournament_select(pop, state.params.ts, n, rng),
        "best total fitness out of ts random entrants"),
    SchemeKind.SHARING_GENOTYPIC: Scheme(
        lambda pop, state, n, rng: fitness_sharing_select(
            pop, pop.genotypes, state.params.sigma, state.params.alpha, n, rng,
            state.params.normalize_distance),
        "fitness divided by genotypic niche count, stochastic remainder"),
    SchemeKind.SHARING_PHENOTYPIC: Scheme(
        lambda pop, state, n, rng: fitness_sharing_select(
            pop, pop.phenotypes, state.params.sigma, state.params.alpha, n, rng,
            state.params.normalize_distance),
        "fitness divided by phenotypic niche count, stochastic remainder"),
    SchemeKind.LEXICASE: Scheme(
        lambda pop, state, n, rng: lexicase_select(pop, n, rng),
        "filter through shuffled per-trait test cases"),
    SchemeKind.NSGA: Scheme(
        lambda pop, state, n, rng: nsga_select(
            pop, state.params.sigma, state.params.alpha, n, rng,
            state.params.normalize_distance),
        "nondominated fronts with within-front fitness sharing"),
    SchemeKind.NOVELTY: Scheme(
        lambda pop, state, n, rng: novelty_select(pop, state.novelty, n, rng),
        "size-2 tournaments on mean distance to k nearest phenotypes"),
    SchemeKind.RANDOM: Scheme(
        lambda pop, state, n, rng: random_select(pop, n, rng),
        "uniform random control"),
}


def select(
    pop: Population, state: SchemeState, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Run the state's scheme and return ``n`` parent indices."""
    return SCHEMES[state.scheme].select(pop, state, n, rng)
