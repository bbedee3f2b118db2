"""Deterministic random-stream derivation and portable Gaussian draws.

Every stochastic component derives its own PCG64 stream from a master seed
plus an integer path, so reruns with the same seed are bit-identical and
components never share a stream by accident.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags; one per independent consumer of a master seed.
STREAM_RESTART = 1
STREAM_DATASET = 2
STREAM_PERMUTE = 3
STREAM_RUN = 4
STREAM_METHOD = 5


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator derived from ``seed`` and an integer path."""
    entropy = [int(seed) & _MASK64] + [int(x) & _MASK64 for x in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit child seed for the same path, for seeding nested components."""
    entropy = [int(seed) & _MASK64] + [int(x) & _MASK64 for x in path]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via the inverse CDF of open-interval uniforms.

    The uniforms are (k + 0.5) * 2**-53 for k drawn from [0, 2**53), capped
    at the largest float64 below 1 (k = 2**53 - 1 rounds to 1.0 otherwise),
    so they lie strictly inside (0, 1) and the transform never hits an
    infinity. Pinning the transform keeps draws reproducible across
    platforms. scipy is imported here, so only the data generators pay for
    it.
    """
    from scipy.special import ndtri

    u = np.asarray(rng.integers(0, 1 << 53, size=shape, dtype=np.int64) + 0.5)
    u *= 2.0**-53
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return ndtri(u, out=u)[()]  # a scalar for shape ()
