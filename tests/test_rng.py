import math

import numpy as np
import pytest

from sws.rng import GAMMA, MASK64, SplitMix64, derive_seed, finalize64


def reference_stream(seed, n):
    """Straight transliteration of the published sequential algorithm:
    state += gamma, then xor-shift/multiply finalizer. Serves as an
    independent oracle for the counter-based implementation."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_mix_constants_frozen():
    assert GAMMA == 0x9E3779B97F4A7C15
    assert finalize64(GAMMA) == reference_stream(0, 1)[0]


def test_scalar_stream_matches_reference():
    for seed in (0, 1, 42, 0xDEADBEEF, MASK64):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(20)]
        assert got == reference_stream(seed, 20)


def test_block_matches_scalar_stream():
    a, b = SplitMix64(987), SplitMix64(987)
    scalar = [a.next_u64() for _ in range(37)]
    block = b.block_u64(37)
    assert block.dtype == np.uint64
    assert [int(x) for x in block] == scalar


def test_block_continues_after_scalar_draws():
    a, b = SplitMix64(55), SplitMix64(55)
    a.next_u64(); a.next_u64(); a.next_u64()
    b_vals = b.block_u64(8)[3:]
    a_vals = a.block_u64(5)
    assert np.array_equal(a_vals, b_vals)


def test_block_zero_and_negative():
    rng = SplitMix64(1)
    assert rng.block_u64(0).size == 0
    with pytest.raises(ValueError):
        rng.block_u64(-1)


def test_uniform_is_top_53_bits():
    a, b = SplitMix64(77), SplitMix64(77)
    u = a.uniform()
    assert u == (b.next_u64() >> 11) / float(1 << 53)
    assert 0.0 <= u < 1.0
    us = SplitMix64(77).block_uniform(1000)
    assert us.min() >= 0.0 and us.max() < 1.0
    assert us[0] == u


def test_uniform_signed_range_and_map():
    rng = SplitMix64(3)
    v = rng.block_uniform_signed(500)
    assert v.min() >= -1.0 and v.max() < 1.0
    np.testing.assert_array_equal(v, 2.0 * SplitMix64(3).block_uniform(500) - 1.0)


def test_block_normal_matches_box_muller_recompute():
    n = 11
    z = SplitMix64(13).block_normal(n)
    raw = SplitMix64(13).block_u64(12)  # 2 * ceil(11/2) draws consumed
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    r = np.sqrt(-2.0 * np.log(u1))
    want = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:n]
    np.testing.assert_array_equal(z, want)


def test_block_normal_moments():
    z = SplitMix64(101).block_normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_truncated_normal_bound_and_shape():
    z = SplitMix64(7).truncated_normal((40, 25), std=0.02, bound=2.0)
    assert z.shape == (40, 25)
    assert np.abs(z).max() <= 2.0 * 0.02
    # Rejection must actually discard something at this sample size
    # (P(|N| > 2) ~ 4.6%), and keep determinism.
    again = SplitMix64(7).truncated_normal((40, 25), std=0.02, bound=2.0)
    np.testing.assert_array_equal(z, again)


def test_truncated_normal_of_a_zero_size_shape_is_empty():
    rng = SplitMix64(7)
    for shape in ((0,), (16, 0), (0, 3, 2)):
        z = rng.truncated_normal(shape, std=0.02)
        assert z.shape == shape and z.dtype == np.float64
    assert np.array_equal(rng.truncated_normal((5,)), SplitMix64(7).truncated_normal((5,)))  # drew nothing


@pytest.mark.parametrize("shape", [(8, 2**62), (2**32, 2**32), (3, 2**62 + 1)])
def test_truncated_normal_past_numpy_index_range_is_a_memory_error(shape):
    # np.prod wraps these to 0, 0 and a negative count.
    with pytest.raises(MemoryError, match="more than numpy can index"):
        SplitMix64(7).truncated_normal(shape)


def test_truncated_normal_scales_by_std():
    base = SplitMix64(7).truncated_normal((30,), std=1.0)
    scaled = SplitMix64(7).truncated_normal((30,), std=0.5)
    np.testing.assert_allclose(scaled, base * 0.5, rtol=1e-15)


def test_randbelow_range_and_determinism():
    rng = SplitMix64(21)
    vals = [rng.randbelow(6) for _ in range(600)]
    assert set(vals) <= set(range(6))
    assert len(set(vals)) == 6
    rng2 = SplitMix64(21)
    assert [rng2.randbelow(6) for _ in range(600)] == vals


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


def test_permutation_is_bijection():
    p = SplitMix64(9).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_permutation_matches_fisher_yates_oracle():
    seed, n = 31, 12
    want = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        want[i], want[j] = want[j], want[i]
    got = SplitMix64(seed).permutation(n)
    assert got.tolist() == want


def test_permutation_trivial_sizes():
    assert SplitMix64(0).permutation(0).tolist() == []
    assert SplitMix64(0).permutation(1).tolist() == [0]


def test_derive_seed_sensitivity():
    base = derive_seed(0xABCDEF, 3, 4)
    assert base != derive_seed(0xABCDEF, 4, 3)
    assert base != derive_seed(0xABCDEF, 3)
    assert base != derive_seed(0xABCDE0, 3, 4)
    assert 0 <= base <= MASK64
    assert derive_seed(0xABCDEF, 3, 4) == base


def test_derived_streams_do_not_collide():
    # Two epoch streams from one base seed should look unrelated.
    s1 = SplitMix64(derive_seed(5, 0)).block_u64(64)
    s2 = SplitMix64(derive_seed(5, 1)).block_u64(64)
    assert not np.array_equal(s1, s2)


def test_expected_gaussian_rejection_rate():
    # With bound=2 about 95.45% of draws survive; sanity-check the
    # implementation is not silently clamping instead of rejecting.
    z = SplitMix64(99).truncated_normal((100_000,), std=1.0, bound=2.0)
    inside_1sigma = float(np.mean(np.abs(z) <= 1.0))
    # For a truncated (not clamped) standard normal, P(|z|<=1 | |z|<=2) ~ 0.715.
    assert math.isclose(inside_1sigma, 0.7148, abs_tol=0.01)
    assert np.abs(z).max() <= 2.0
