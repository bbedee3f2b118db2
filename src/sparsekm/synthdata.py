"""Seeded synthetic benchmark generators.

Two families: a three-class Gaussian design where only the first q of p
features carry class separation, and a two-class curve design where the
classes coincide in shape on the left half of the domain and drift apart
on the right half. Draws go through the pinned inverse-CDF normal
transform, so a scenario's seed fully determines the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datatypes import Dataset, Partition, whole_fields
from .errors import ValidationError
from .rngutil import STREAM_DATASET, spawn_rng, standard_normal

# The curve design's coefficient laws: a ~ N(3, 0.5^2) and b ~ N(2, 0.25^2)
# in both classes; c ~ N(0, 0.5^2) in class 1 and N(0.5, 0.5^2) in class 2.
A_MEAN, A_SD = 3.0, 0.5
B_MEAN, B_SD = 2.0, 0.25
C_SD, C_SHIFT = 0.5, 0.5
# The Gaussian design's noise level: every feature has standard deviation SIGMA.
SIGMA = 0.2


@dataclass(frozen=True)
class MvScenario:
    """Three balanced Gaussian classes in p dimensions, q informative.

    Feature j has baseline mean j/p (1-based j). On the first q features,
    class 2 is shifted up and class 3 down by 1.5 SIGMA; all remaining
    features are pure noise shared across classes.
    """

    p: int
    q: int = 10
    n_per_class: int = 20
    seed: int = 0

    def __post_init__(self):
        whole_fields(self, p=1, q=1, n_per_class=1, seed=None)
        if self.q > self.p:
            raise ValidationError(f"q={self.q} outside [1, {self.p}]")


def mv_mean_matrix(s: MvScenario) -> np.ndarray:
    """Class-by-feature mean matrix (3, p) for the Gaussian design."""
    base = (np.arange(1, s.p + 1, dtype=np.float64)) / s.p
    mu = np.tile(base, (3, 1))
    shift = 1.5 * SIGMA
    mu[1, : s.q] += shift
    mu[2, : s.q] -= shift
    return mu


def gen_mv(s: MvScenario) -> tuple[Dataset, Partition]:
    """Draw one dataset from the Gaussian design with its true labels."""
    labels = np.repeat(np.arange(1, 4, dtype=np.int64), s.n_per_class)
    mu = mv_mean_matrix(s)
    rng = spawn_rng(s.seed, STREAM_DATASET)
    noise = standard_normal(rng, (labels.size, s.p))
    values = mu[labels - 1] + SIGMA * noise
    return Dataset(values), Partition(labels, 3)


@dataclass(frozen=True)
class FdScenario:
    """Two classes of random curves on [0, 1], separated only on (1/2, 1].

    Both classes share the same random functional form on [0, 1/2]; past
    the midpoint the second class mirrors the decay term and couples the
    level shift c with slope, so the class mean difference starts at ~1/2
    and grows toward the right endpoint. c is the only parameter whose law
    differs between classes (mean 0 vs C_SHIFT). Curves carry no additive
    noise; all variation comes from the coefficient draws.
    """

    n_grid: int = 200
    n_per_class: int = 100
    seed: int = 0

    def __post_init__(self):
        whole_fields(self, n_grid=2, n_per_class=1, seed=None)


def curve_main(x, a, b, c):
    """First-class curve: (b sin(b pi x) + a)(a - 4x) + c."""
    x = np.asarray(x, dtype=np.float64)
    return (b * np.sin(b * np.pi * x) + a) * (a - 4.0 * x) + c


def curve_alt(x, a, b, c):
    """Second-class curve: equals curve_main up to x = 1/2, then mirrors
    the decay term and re-couples c; continuous at the midpoint for any
    (a, b, c)."""
    x = np.asarray(x, dtype=np.float64)
    left = curve_main(x, a, b, c)
    right = (b * np.sin(b * np.pi * x) + a) * (a - 4.0 * (1.0 - x)) - 2.0 * c * (x - 1.0)
    return np.where(x <= 0.5, left, right)


def gen_fd(s: FdScenario) -> tuple[Dataset, Partition]:
    """Draw one curve dataset from the two-class design with true labels."""
    grid = np.linspace(0.0, 1.0, s.n_grid)
    rng = spawn_rng(s.seed, STREAM_DATASET)
    n = s.n_per_class
    curves = np.empty((2 * n, s.n_grid), dtype=np.float64)
    for cls, (builder, c_mean) in enumerate(
        [(curve_main, 0.0), (curve_alt, C_SHIFT)]
    ):
        a = A_MEAN + A_SD * standard_normal(rng, n)
        b = B_MEAN + B_SD * standard_normal(rng, n)
        c = c_mean + C_SD * standard_normal(rng, n)
        curves[cls * n : (cls + 1) * n] = builder(grid, a[:, None], b[:, None], c[:, None])
    labels = np.repeat(np.array([1, 2], dtype=np.int64), n)
    return Dataset(curves, grid=grid), Partition(labels, 2)


__all__ = [
    "MvScenario",
    "FdScenario",
    "mv_mean_matrix",
    "gen_mv",
    "gen_fd",
    "curve_main",
    "curve_alt",
]
