"""Property checks of the exact kernels, on drawn blocks.

Every pair block the schemes use must equal ``cdist`` bit for bit, and
so must what each scheme makes of it: sharing's niche counts, nsga's
shared fitness and novelty's scores, each against its all-member
``cdist`` form. nsga's fronts must be the dense peel's, and lexicase
must pick what the case-by-case oracle picks from the same stream. Each
holds on the compiled kernels and on the fallback alike. The blocks
are drawn from small grids of integers, scaled: ties, clones, signed
zeros and constant columns are common, and a scale such as 0.1 makes
the sums round, so a kernel that fuses a multiply and an add, or adds
the dimensions in another order, gives other bits. The draws are fixed
(``derandomize``) and bounded, and keep no example database, so every
run checks the same blocks.
"""

import contextlib
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from evodiags import Population, native, selection
from evodiags.core import UPPER_BOUND

from oracles import (
    oracle_fronts_dense,
    oracle_lexicase_by_case,
    oracle_niche_counts_cdist,
    oracle_novelty_scores_cdist,
    oracle_nsga_shared_cdist,
)

EXACT = settings(derandomize=True, max_examples=100, deadline=None, database=None)

PATHS = ["native", "fallback"]


@st.composite
def blocks(draw, min_rows=1):
    """Up to 600 rows of up to 120 dimensions on a grid of integer steps."""
    n = draw(st.integers(min_rows, 600))
    d = draw(st.integers(1, 120))
    steps = draw(st.sampled_from([1, 3, 40, 1000]))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 2.5e-4, 1e-160]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(-steps, steps + 1, size=(n, d)) * scale
    clones = rng.integers(0, n, size=n)
    cloned = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    block[cloned] = block[clones[cloned]]
    block[rng.random((n, d)) < 0.5] *= -1.0  # a zero becomes -0.0
    block[:, rng.random(d) < draw(st.sampled_from([0.0, 0.2]))] = scale  # constant columns
    return block


@st.composite
def case_blocks(draw):
    """Up to 200 rows of up to 40 cases, as in evolved populations: clones
    of fewer distinct rows, each case on five levels, so that rows tie on
    most cases; zeros of both signs; constant cases, some of them zeros of
    both signs, which are one value."""
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(-2, 3, size=(draw(st.integers(1, n)), d)) * 0.5
    block = levels[rng.integers(0, len(levels), size=n)]
    constant = rng.random(d) < draw(st.sampled_from([0.0, 0.25]))
    block[:, constant] = rng.integers(-1, 2, size=constant.sum())
    block[(block == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    return block


def on_path(path: str):
    """The kernels as they load, or none, so that scipy serves. Where a
    compiler is found the kernels must load: the load-time check refuses
    a kernel that gives other bits, and that must fail, not skip."""
    if path == "native":
        if shutil.which(native._COMPILER) is None:
            pytest.skip(f"no compiler {native._COMPILER!r} on the PATH")
        assert native.kernels() is not None, (
            "the kernels did not build, or failed their load-time check against scipy")
        return contextlib.nullcontext()
    return mock.patch.object(native, "kernels", lambda: None)


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and np.array_equal(
        got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(block=blocks())
def test_the_pair_block_equals_cdist(path, block):
    with on_path(path):
        got = native.pair_block(block, np.asarray)
    assert same_bits(got, cdist(block, block))


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(block=blocks(min_rows=2), data=st.data())
def test_the_cross_block_equals_cdist(path, block, data):
    # Rows on both sides, clones across them: an archive holds copies of
    # the population's rows.
    split = data.draw(st.integers(1, len(block) - 1))
    a, b = block[:split], block[split:]
    with on_path(path):
        got = native.cross_distances(a, b)
    assert same_bits(got, cdist(a, b))


# The kernels take rows four at a time, the last block's rows and the
# pairs within each block one at a time: 1-9 rows meet every remainder,
# on both sides of a cross block. Values scaled by 0.1 round; the
# squares of those scaled by 1e-160 underflow.
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("rows", range(1, 10))
def test_every_row_block_remainder_equals_pdist_and_cdist(path, rows):
    rng = np.random.default_rng(rows)
    for scale in (0.1, 1e-160):
        block = rng.integers(-40, 41, size=(rows, 6)) * scale
        other = rng.integers(-40, 41, size=(9, 6)) * scale
        with on_path(path):
            assert same_bits(native.pair_block(block, np.asarray), squareform(pdist(block)))
            for columns in range(1, 10):
                got = native.cross_distances(block, other[:columns])
                assert same_bits(got, cdist(block, other[:columns]))


def distinct_by_unique(block):
    """The distinct rows and each row's index among them, by numpy alone."""
    return np.unique(block + 0.0, axis=0, return_inverse=True)


def same_groups(labels, expected):
    """Whether two labelings of the members put the same members together."""
    pairs = np.unique(np.column_stack([labels, expected]), axis=0)
    return len(pairs) == len(np.unique(labels)) == len(np.unique(expected))


@pytest.mark.parametrize("hashes", ["hashed", "colliding"])
@EXACT
@given(block=blocks())
def test_distinct_rows_group_as_unique_does(hashes, block):
    # With every multiplier zero, all rows hash alike, so the byte check
    # fails wherever two rows differ, and the sort serves.
    colliding = mock.patch.object(selection, "_hash_multipliers",
                                  lambda dim: np.zeros(dim, dtype=np.uint64))
    with colliding if hashes == "colliding" else contextlib.nullcontext():
        distinct, inverse = selection._distinct_rows(block)
    expected, expected_inverse = distinct_by_unique(block)
    assert distinct.shape == expected.shape
    assert same_groups(inverse, expected_inverse)
    assert same_bits(distinct[inverse], block + 0.0)


@EXACT
@given(block=blocks())
def test_trait_ranks_are_each_columns_unique_inverse(block):
    ranks = selection._trait_ranks(block)
    assert ranks.dtype == np.min_scalar_type(len(block))
    assert np.array_equal(ranks, [np.unique(column, return_inverse=True)[1] for column in block.T])


@st.composite
def sharing(draw):
    """A block and sharing settings whose kernel reaches some pairs: a
    radius up to 1.5 times the block's spread, read raw or as a fraction
    of the diameter, and the kernel's exponent."""
    block = draw(blocks())
    normalize = draw(st.booleans())
    spread = np.ptp(block) * np.sqrt(block.shape[1])
    sigma = draw(st.sampled_from([0.0, 0.1, 0.5, 1.5])) * spread
    if normalize:
        sigma /= UPPER_BOUND * np.sqrt(block.shape[1])
    return block, float(sigma), draw(st.sampled_from([1.0, 2.0])), normalize


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(drawn=sharing())
def test_niche_counts_equal_the_cdist_form(path, drawn):
    block, sigma, alpha, normalize = drawn
    with on_path(path):
        got = selection.niche_counts(block, sigma, alpha, normalize)
    assert same_bits(got, oracle_niche_counts_cdist(block, sigma, alpha, normalize))


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(drawn=sharing())
def test_nsga_shared_fitness_equals_the_per_front_cdist_form(path, drawn):
    block, sigma, alpha, normalize = drawn
    fronts = oracle_fronts_dense(*distinct_by_unique(block))
    with on_path(path):
        got = selection.nsga_front_assignment(block, sigma, alpha, normalize)
    assert same_bits(got, oracle_nsga_shared_cdist(block, fronts, sigma, alpha, normalize))


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(block=blocks(), data=st.data())
def test_novelty_scores_equal_the_cdist_form(path, block, data):
    # The archive holds copies of the population's rows and rows of the
    # same values in other places.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    copies = block[rng.integers(0, len(block), size=data.draw(st.integers(0, 20)))]
    shuffled = rng.choice(block.ravel(), size=(data.draw(st.integers(0, 40)), block.shape[1]))
    archive = list(rng.permutation(np.vstack([copies, shuffled])))
    k = data.draw(st.integers(1, 30))
    with on_path(path):
        got = selection.novelty_scores(block, archive, k)
    assert same_bits(got, oracle_novelty_scores_cdist(block, archive, k))


# nsga's fronts call no native code, so they have one path.
@EXACT
@given(block=blocks())
def test_the_fronts_equal_the_dense_peel(block):
    distinct, inverse = distinct_by_unique(block)
    got = selection._fronts(distinct, inverse)
    assert [f.tolist() for f in got] == [f.tolist() for f in oracle_fronts_dense(distinct, inverse)]


# The oracle keeps every pick open to the last case, over every member.
LEXICASE = dict(block=case_blocks(), n=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(**LEXICASE)
@example(block=np.full((9, 4), -0.0), n=7, seed=0)  # one distinct row
@example(block=np.eye(3), n=0, seed=0)  # no picks
def test_lexicase_picks_equal_the_case_by_case_oracle(path, block, n, seed):
    rng, stream = np.random.default_rng(seed), np.random.default_rng(seed)
    with on_path(path):
        got = selection.lexicase_select(Population(block.copy(), block, block.sum(axis=1)), n, rng)
    orders = stream.permuted(np.tile(np.arange(block.shape[1]), (n, 1)), axis=1)
    assert got.shape == (n,)
    assert np.array_equal(got, oracle_lexicase_by_case(block, orders, stream.random(n)))
    assert rng.bit_generator.state == stream.bit_generator.state


@pytest.mark.parametrize("path", PATHS)
@EXACT
@given(**LEXICASE)
def test_the_lexicase_filter_keeps_the_lowest_row_left(path, block, n, seed):
    # Over rows that are not distinct, a pick can end with clones left;
    # the oracle's zero draw takes the lowest of them.
    cases = np.tile(np.arange(block.shape[1]), (n, 1))
    orders = np.random.default_rng(seed).permuted(cases, axis=1)
    with on_path(path):
        got = native.lexicase_rows(block, orders)
    assert np.array_equal(got, oracle_lexicase_by_case(block, orders, np.zeros(n)))
