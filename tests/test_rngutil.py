import numpy as np
import pytest
from scipy.special import ndtri

from sparsekm.rngutil import standard_normal


class _FixedIntegers:
    """A generator stub whose integers() returns the given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.int64)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 53, np.int64)
        return self.draws.reshape(size)


def test_extreme_draws_are_finite_and_the_rest_keep_their_bits():
    # (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0, where ndtri is +inf
    top = (1 << 53) - 1
    draws = np.array([0, 1, 12345, 1 << 52, top - 1, top], dtype=np.int64)
    out = standard_normal(_FixedIntegers(draws), (2, 3)).ravel()
    assert np.all(np.isfinite(out))
    assert out[-1] == ndtri(np.nextafter(1.0, 0.0)) and out[-1] > out[-2]
    want = ndtri((draws[:-1] + 0.5) * 2.0**-53)
    assert out[:-1].tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(), 7, (0,), (2, 3), (60, 2000)])
def test_same_bits_and_type_as_the_clamped_expression(shape):
    def clamped(rng):
        k = rng.integers(0, 1 << 53, size=shape, dtype=np.int64)
        return ndtri(np.minimum((k + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0)))

    got, want = standard_normal(np.random.default_rng(11), shape), clamped(np.random.default_rng(11))
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
