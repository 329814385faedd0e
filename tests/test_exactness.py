"""Property checks of the exact distance blocks, on drawn blocks.

Every pair block the schemes use must equal ``cdist`` bit for bit, on
the compiled kernels and on scipy's fallback alike. The blocks are drawn
from small grids of integers, scaled: ties, clones, signed zeros and
constant columns are common, and a scale such as 0.1 makes the sums
round, so a kernel that fuses a multiply and an add, or adds the
dimensions in another order, gives other bits. The draws are fixed
(``derandomize``) and bounded, and keep no example database, so every
run checks the same blocks.
"""

import contextlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from evodiags import native, selection

# On a failure, hypothesis's pytest plugin imports its patch writer, whose
# libcst import raises a DeprecationWarning from mypy_extensions. With
# warnings as errors, that would end the session instead of reporting the
# failure, so the module is imported here first, with the warning ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
    block[:, rng.random(d) < draw(st.sampled_from([0.0, 0.2]))] = scale  # constant columns
    clones = rng.integers(0, n, size=n)
    cloned = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    block[cloned] = block[clones[cloned]]
    block[rng.random((n, d)) < 0.5] *= -1.0  # a zero becomes -0.0
    return block


def on_path(path: str):
    """The kernels as they load, or none, so that scipy serves."""
    if path == "native":
        if native.kernels() is None:
            pytest.skip("no compiled kernels could be built here")
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
        got = selection._pair_block(block, np.asarray)
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
