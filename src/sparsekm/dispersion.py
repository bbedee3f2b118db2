"""Between-cluster dispersion scores and the weighted objective."""

from __future__ import annotations

import numpy as np

from .datatypes import Dataset, Dispersion, Partition, Weights
from .errors import DimensionMismatch, NonFiniteDistances, PartitionMismatch


def _between(d, part: Partition):
    """Moment-form between-cluster sum of squares of every column.

    sum_k S_k^2 / N_k - S^2 / N with S_k the cluster column sums; returns
    the values clipped at zero and whether any needed clipping. Squares past
    float64 raise NonFiniteDistances naming the first such column.
    """
    if part.n_obs != d.n_obs:
        raise PartitionMismatch(
            f"partition labels {part.n_obs} observations, dataset has {d.n_obs}"
        )
    values = d.values
    sums = np.empty((part.k, values.shape[1]), dtype=np.float64)
    sizes = np.empty(part.k, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, part.k + 1):
            members = part.labels == j
            sizes[j - 1] = np.count_nonzero(members)
            sums[j - 1] = values[members].sum(axis=0)
        total = values.sum(axis=0)
        between = (sums * sums / sizes[:, None]).sum(axis=0) - total * total / d.n_obs
    if not np.isfinite(between).all():
        raise NonFiniteDistances(
            f"between-cluster sum of squares overflows float64 at feature "
            f"{int(np.argmin(np.isfinite(between)))} (0-based)"
        )
    clamped = bool(np.any(between < 0.0))
    if clamped:
        between = np.maximum(between, 0.0)
    return between, clamped


def bcss_per_feature(d: Dataset, part: Partition) -> Dispersion:
    """Per-feature between-cluster sum of squares, pair-sum convention.

    Computed as the total mean pairwise squared difference minus its
    within-cluster counterpart, which collapses to the moment identity
    b_j = 2 * (sum_k S_kj^2 / N_k - S_j^2 / N). This equals twice the
    classical centroid-form BCSS; the thresholding solvers are invariant
    to that scale.
    """
    between, clamped = _between(d, part)
    return Dispersion(2.0 * between, clamped=clamped)


def bcss_pointwise(d: Dataset, part: Partition) -> Dispersion:
    """Pointwise between-cluster sum of squares on the dataset grid.

    Uses the half-pair-sum convention, which equals the classical
    centroid-form BCSS at every grid point. Tiny negative values from
    cancellation are clipped to zero and flagged.
    """
    between, clamped = _between(d, part)
    return Dispersion(between, grid=d.grid, clamped=clamped)


def weighted_objective(w: Weights, disp: Dispersion) -> float:
    """Weighted between-cluster dispersion, the alternating loop's objective.

    sum_j w_j b_j under unit masses; the quadrature form sum_g q_g w_g b_g
    when ``disp`` carries a grid.
    """
    if w.w.shape != disp.b.shape:
        raise DimensionMismatch(
            f"weights length {w.w.size} does not match dispersion ({disp.b.size})"
        )
    # Two formulas on purpose: each path keeps its own summation order.
    if disp.quad_weights is None:
        return float(np.dot(w.w, disp.b))
    return float(np.sum(disp.quad_weights * w.w * disp.b))


__all__ = [
    "Dispersion",
    "bcss_per_feature",
    "bcss_pointwise",
    "weighted_objective",
]
