import numpy as np
import pytest

from evodiags import (
    ConfigurationError,
    MutationParams,
    mutate_batch,
    random_genotypes,
    rebound,
)


def test_rebound_reflects_below_lower_bound():
    assert rebound(np.array([-0.7])) == pytest.approx([0.7])


def test_rebound_reflects_above_upper_bound():
    assert rebound(np.array([100.7])) == pytest.approx([99.3])


def test_rebound_is_identity_in_range():
    assert np.array_equal(rebound(np.array([50.0])), [50.0])
    values = np.linspace(0.0, 100.0, 101)
    assert np.array_equal(rebound(values), values)


def test_rebound_maps_one_full_span_overshoot_back_in_range():
    lo, hi = 0.0, 100.0
    v = np.linspace(lo - (hi - lo), hi + (hi - lo), 4001)
    out = rebound(v)
    assert out.min() >= lo and out.max() <= hi


def test_random_genotype_range_and_length():
    rng = np.random.default_rng(1)
    g = random_genotypes(1, 100, 0.0, 1.0, rng)[0]
    assert g.shape == (100,)
    assert g.min() >= 0.0 and g.max() < 1.0


def test_random_genotype_empty_interval_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigurationError):
        random_genotypes(1, 3, 0.0, 0.0, rng)
    with pytest.raises(ConfigurationError):
        random_genotypes(1, 0, 0.0, 1.0, rng)
    with pytest.raises(ConfigurationError):
        random_genotypes(1, 3, -1.0, 1.0, rng)
    with pytest.raises(ConfigurationError):
        random_genotypes(0, 3, 0.0, 1.0, rng)


def test_random_genotype_deterministic_under_fixed_seed():
    a = random_genotypes(1, 5, 0.0, 1.0, np.random.default_rng(42))
    b = random_genotypes(1, 5, 0.0, 1.0, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_random_genotypes_match_sequential_single_draws():
    block = random_genotypes(4, 7, 0.0, 1.0, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    singles = np.concatenate(
        [random_genotypes(1, 7, 0.0, 1.0, rng) for _ in range(4)])
    assert np.array_equal(block, singles)


def test_mutation_params_validation():
    with pytest.raises(ConfigurationError):
        MutationParams(mutation_rate=-0.1)
    with pytest.raises(ConfigurationError):
        MutationParams(mutation_rate=1.5)
    for stddev in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="mutation_stddev must be"):
            MutationParams(mutation_stddev=stddev)


def test_mutate_zero_rate_is_identity():
    rng = np.random.default_rng(3)
    g = rng.uniform(0, 100, size=50)
    out = mutate_batch(g[None].copy(), MutationParams(mutation_rate=0.0), rng)[0]
    assert np.array_equal(out, g)


def test_mutate_vanishing_stddev_is_near_identity():
    rng = np.random.default_rng(4)
    g = rng.uniform(1, 99, size=50)
    params = MutationParams(mutation_rate=1.0, mutation_stddev=1e-12)
    out = mutate_batch(g[None].copy(), params, rng)[0]
    assert np.max(np.abs(out - g)) < 1e-9


def test_mutate_mean_step_magnitude_matches_half_normal():
    # With every gene mutating once, E|delta| = sqrt(2/pi) ~= 0.7979.
    rng = np.random.default_rng(5)
    g = np.full(10_000, 50.0)
    params = MutationParams(mutation_rate=1.0, mutation_stddev=1.0)
    out = mutate_batch(g[None].copy(), params, rng)[0]
    mean_abs = np.mean(np.abs(out - g))
    assert mean_abs == pytest.approx(np.sqrt(2.0 / np.pi), rel=0.05)


def test_mutate_mutates_the_given_block_in_place():
    rng = np.random.default_rng(6)
    g = rng.uniform(0, 100, size=(3, 20))
    before = g.copy()
    out = mutate_batch(g, MutationParams(mutation_rate=1.0), rng)
    assert out is g
    assert np.all(g != before)  # every gene was hit


@pytest.mark.parametrize("start", [0.0, 100.0])
def test_mutation_fuzz_never_leaves_bounds(start):
    # 10**6 mutation draws pinned at each boundary.
    rng = np.random.default_rng(int(start) + 7)
    params = MutationParams(mutation_rate=1.0, mutation_stddev=1.0)
    block = np.full((100, 10_000), start)
    out = mutate_batch(block, params, rng)
    assert out.min() >= 0.0
    assert out.max() <= 100.0


def test_mutate_batch_deterministic_under_fixed_seed():
    g = np.random.default_rng(0).uniform(0, 100, size=(32, 10))
    a = mutate_batch(g.copy(), MutationParams(), np.random.default_rng(11))
    b = mutate_batch(g.copy(), MutationParams(), np.random.default_rng(11))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_mutate_batch_mutates_any_writeable_layout_in_place(layout):
    # A flat view taken by reshape(-1) of such a block is a copy, so a
    # kernel that wrote through one would leave the block unchanged.
    g = np.random.default_rng(12).uniform(0, 100, size=(16, 30))
    if layout == "fortran":
        block = np.asfortranarray(g)
    else:
        block = np.zeros((32, 60))[::2, ::2]
        block[:] = g
    assert not block.flags.c_contiguous and block.flags.writeable
    params = MutationParams(mutation_rate=0.2, mutation_stddev=5.0)
    rng, rng_c = np.random.default_rng(13), np.random.default_rng(13)
    expected = mutate_batch(g.copy(), params, rng_c)
    out = mutate_batch(block, params, rng)
    assert out is block
    assert np.array_equal(block, expected)
    assert not np.array_equal(block, g)
    assert rng.bit_generator.state == rng_c.bit_generator.state
