import numpy as np
import pytest

from gossipsim.rng import child_seed, child_seeds, mix64, unit_uniforms


def test_mix64_reference_values():
    # first outputs of the SplitMix64 stream seeded with 0
    assert child_seed(0, 0) == 0xE220A8397B1DCDAF
    assert child_seed(0, 1) == 0x6E789E6AA1B965F4
    assert child_seed(0, 2) == 0x06C45D188009454F


def test_mix64_is_stable():
    assert mix64(1234567890123456789) == mix64(1234567890123456789)
    assert mix64(1) != mix64(2)


def test_vectorized_matches_scalar():
    idx = np.arange(1000, dtype=np.int64)
    vec = child_seeds(987654321, idx)
    assert [int(x) for x in vec[:5]] == [child_seed(987654321, i) for i in range(5)]
    assert int(vec[999]) == child_seed(987654321, 999)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_vectorized_matches_scalar_at_the_extremes(seed, dtype):
    top = 2**31 - 1 if dtype == np.int32 else 2**40
    indices = np.array([0, 1, 2, 12345, top - 1, top], dtype=dtype)
    before = indices.copy()
    assert [int(x) for x in child_seeds(seed, indices)] == [child_seed(seed, int(i)) for i in indices]
    assert np.array_equal(indices, before) and indices.dtype == dtype  # mixed in a copy
    assert list(unit_uniforms(seed, indices)) == [(child_seed(seed, int(i)) >> 11) * 2.0**-53 for i in indices]


def test_unit_uniforms_range_and_mean():
    u = unit_uniforms(7, np.arange(200_000, dtype=np.int64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert (child_seed(7, 123) >> 11) * 2.0**-53 == u[123]


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        child_seed(1, -1)


def test_distinct_streams():
    a = unit_uniforms(1, np.arange(100, dtype=np.int64))
    b = unit_uniforms(2, np.arange(100, dtype=np.int64))
    assert not np.array_equal(a, b)
