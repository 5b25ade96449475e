import numpy as np
import pytest

from bac.rng import GOLDEN, SplitMix64, derive_seed, mix64


def test_known_outputs_match_reference_vector():
    # first three outputs of the standard SplitMix64 stream seeded with 0
    stream = SplitMix64(0)
    raw = stream._raw(3)
    assert [int(v) for v in raw] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_take_is_positionally_stable():
    a = SplitMix64(42)
    b = SplitMix64(42)
    first = a.take(100)
    assert np.array_equal(first[:37], b.take(37))
    assert np.array_equal(first[37:], b.take(63))


def test_uniform_bounds():
    vals = SplitMix64(3).uniform(10_000, 0.25)
    assert vals.min() >= -0.25
    assert vals.max() < 0.25


def test_normal_moments_roughly_standard():
    vals = SplitMix64(5).normal(200_001)  # odd count exercises the pair split
    assert abs(vals.mean()) < 0.01
    assert abs(vals.std() - 1.0) < 0.01


def test_derive_seed_distinct_and_deterministic():
    seeds = [derive_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [derive_seed(7, i) for i in range(100)]


def test_mix64_scalar_matches_vector():
    arr = mix64(np.array([1, 2, 3], dtype=np.uint64))
    assert int(arr[1]) == int(mix64(2))
    assert int(GOLDEN) == 0x9E3779B97F4A7C15


def _out_of_place_bits(seed, start, n):
    """The stream's raw words by the plain formula mix64(seed + idx * GOLDEN),
    one temporary per operation."""
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed) + idx * GOLDEN
        z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("offset", [0, 1, 13])
def test_in_place_draws_equal_out_of_place_formulas(seed, offset):
    scale = 2.0 ** -53
    for n in (1, 2, 9, 1000):
        stream = SplitMix64(seed)
        stream.take(offset)
        bits = _out_of_place_bits(seed, offset, n) >> np.uint64(11)
        assert np.array_equal(stream.take(n), bits.astype(np.float64) * scale)

        stream = SplitMix64(seed)
        stream.take(offset)
        want = (2.0 * (bits.astype(np.float64) * scale) - 1.0) * 0.37
        assert np.array_equal(stream.uniform(n, 0.37), want)

        stream = SplitMix64(seed)
        stream.take(offset)
        pairs = (n + 1) // 2
        u = (_out_of_place_bits(seed, offset, 2 * pairs) >> np.uint64(11)).astype(np.float64)
        radius = np.sqrt(-2.0 * np.log((u[:pairs] + 1.0) * scale))
        theta = 2.0 * np.pi * (u[pairs:] * scale)
        want = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        assert np.array_equal(stream.normal(n), want)


def test_mix64_leaves_its_input_unchanged():
    z = np.array([1, 2, 3], dtype=np.uint64)
    mix64(z)
    assert z.tolist() == [1, 2, 3]
    assert isinstance(mix64(5), np.uint64)
