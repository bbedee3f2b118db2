"""Weighted K-means engine and the alternating sparse clustering loop.

The weighted problem is reduced to plain Lloyd iteration by scaling each
column by the square root of its (quadrature-adjusted) weight; centroids
in that transformed space are ordinary cluster means. The alternating
loop then cycles dispersion -> weights -> partition until a partition
repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datatypes import Dataset, FunctionalDataset, Partition, SparseClusterResult
from .dispersion import (
    bcss_per_feature,
    bcss_pointwise,
    weighted_objective,
)
from .errors import (
    DimensionMismatch,
    KTooLarge,
    PartitionMismatch,
    SparsityOutOfRange,
    TooFewDistinctRows,
    ValidationError,
)
from .rngutil import STREAM_RESTART, spawn_rng
from .solvers import (
    functional_threshold_weights,
    hard_threshold_weights,
    soft_threshold_weights,
)


@dataclass(frozen=True)
class KMeansConfig:
    """Engine knobs shared by every clustering entry point.

    ``k`` is used directly by weighted_kmeans; the sparse_* entry points
    take K explicitly and override it. Identical seeds and inputs give
    bit-identical results.
    """

    k: int = 2
    n_init: int = 10
    max_iter_lloyd: int = 100
    max_iter_outer: int = 20
    seed: int = 0

    def __post_init__(self):
        if int(self.k) < 2:
            raise ValidationError(f"k must be >= 2, got {self.k}")
        if int(self.n_init) < 1:
            raise ValidationError(f"n_init must be >= 1, got {self.n_init}")
        if int(self.max_iter_lloyd) < 1 or int(self.max_iter_outer) < 1:
            raise ValidationError("iteration caps must be >= 1")


def _pairwise_sq_dists(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(z * z, axis=1)[:, None]
        + np.sum(centroids * centroids, axis=1)[None, :]
        - 2.0 * (z @ centroids.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(z: np.ndarray, k: int, rng) -> np.ndarray:
    """D^2-sampled initial centroids (kmeans++ style)."""
    n = z.shape[0]
    centroids = np.empty((k, z.shape[1]), dtype=np.float64)
    pick = int(rng.integers(n))
    centroids[0] = z[pick]
    d2 = np.sum((z - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            r = rng.random() * total
            pick = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centroids[j] = z[pick]
        np.minimum(d2, np.sum((z - centroids[j]) ** 2, axis=1), out=d2)
    return centroids


def _lloyd(z: np.ndarray, k: int, centroids: np.ndarray, max_iter: int):
    """Lloyd iteration until the assignment is a fixed point.

    Returns (labels, wcss, wcss_history); history holds the post-assignment
    within-cluster sum of squares of every step and is non-increasing. An
    empty cluster is re-seeded at the observation farthest from its own
    centroid, which never increases the criterion; no observation seeds two
    clusters. With fewer than k distinct rows no reseed can separate the
    clusters, so TooFewDistinctRows is raised.
    """
    n = z.shape[0]
    rows = np.arange(n)
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(z, centroids)
        new_labels = d2.argmin(axis=1)
        closest = d2[rows, new_labels]
        free = None  # reseed candidates; a row taken this pass drops to -1
        for j in range(k):
            if not np.any(new_labels == j):
                if free is None:
                    n_distinct = np.unique(z, axis=0).shape[0]
                    if n_distinct < k:
                        raise TooFewDistinctRows(f"{n_distinct} distinct rows for k={k} clusters")
                    free = closest.copy()
                far = int(np.argmax(free))
                new_labels[far] = j
                closest[far] = 0.0
                free[far] = -1.0
        history.append(float(closest.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = labels == j
            if np.any(members):
                centroids[j] = z[members].mean(axis=0)
    return labels, history[-1], history


def _canonical_labels(labels0: np.ndarray) -> np.ndarray:
    """Relabel 0-based cluster ids to 1..k by order of first appearance."""
    _, first, inverse = np.unique(labels0, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return (rank[inverse] + 1).astype(np.int64)


def _transformed_matrix(d, w) -> np.ndarray:
    """Scale columns by sqrt(weight times sample mass); unit masses for vectors."""
    w_arr = np.asarray(getattr(w, "w", w), dtype=np.float64)
    if w_arr.shape != (d.values.shape[1],):
        raise DimensionMismatch(
            f"weights length {w_arr.size} does not match the {d.values.shape[1]} columns"
        )
    scale = w_arr if d.quad_weights is None else d.quad_weights * w_arr
    if np.any(scale < 0.0):
        raise SparsityOutOfRange("weights must be nonnegative")
    return d.values * np.sqrt(scale)[None, :]


def _centroids_from_partition(z: np.ndarray, part: Partition) -> np.ndarray:
    centroids = np.empty((part.k, z.shape[1]), dtype=np.float64)
    for j in range(1, part.k + 1):
        centroids[j - 1] = z[part.labels == j].mean(axis=0)
    return centroids


def _best_weighted_lloyd(z, cfg: KMeansConfig, warm: Partition | None):
    """Best-of-restarts Lloyd in the transformed space.

    Candidates are the warm start (when given) followed by n_init seeded
    kmeans++ draws; selection is by strictly smaller WCSS, so earlier
    candidates win ties. Putting the warm start first makes the outer
    alternation's objective non-decreasing.
    """
    k = int(cfg.k)
    if k > z.shape[0]:
        raise KTooLarge(f"k={k} exceeds the {z.shape[0]} observations")
    best_labels, best_wcss = None, np.inf
    if warm is not None:
        if warm.n_obs != z.shape[0]:
            raise PartitionMismatch(
                f"warm-start partition labels {warm.n_obs} observations, data has {z.shape[0]}"
            )
        labels, wcss, _ = _lloyd(z, k, _centroids_from_partition(z, warm), cfg.max_iter_lloyd)
        best_labels, best_wcss = labels, wcss
    for r in range(int(cfg.n_init)):
        rng = spawn_rng(cfg.seed, STREAM_RESTART, r)
        labels, wcss, _ = _lloyd(z, k, _kmeanspp_init(z, k, rng), cfg.max_iter_lloyd)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition(_canonical_labels(best_labels), k), best_wcss


def weighted_kmeans(d, w, cfg: KMeansConfig, init_partition: Partition | None = None) -> Partition:
    """K-means under a fixed feature weighting.

    ``w`` is a WeightVector, WeightFunction or bare array with one entry
    per column of ``d``; ``cfg.k`` sets the number of clusters. An optional ``init_partition`` joins the restart pool as a
    warm start and wins ties.
    """
    z = _transformed_matrix(d, w)
    part, _ = _best_weighted_lloyd(z, cfg, init_partition)
    return part


def uniform_weights(d) -> np.ndarray:
    """The no-selection weighting: constant, with unit (quadrature) L2 norm."""
    return np.full(d.values.shape[1], 1.0 / np.sqrt(d.domain_measure))


def _alternate(d, k, cfg, solve, dispersion):
    """Shared alternating loop: dispersion -> weights -> partition.

    ``solve`` maps a dispersion object to weights; ``dispersion`` maps a
    partition to the dispersion object. The weights are a function of the
    partition, so the loop stops when the partition repeats: a fixed point,
    or a cycle, whose revisited partition is returned. A run capped by
    max_iter_outer is not converged. Either way the returned weights and
    the last trace entry belong to the returned partition.
    """
    cfg = replace(cfg, k=int(k))
    part = weighted_kmeans(d, uniform_weights(d), cfg)
    trace, seen = [], set()
    while True:
        disp = dispersion(d, part)
        weights = solve(disp)
        trace.append(weighted_objective(weights, disp))
        if part.key() in seen or len(trace) >= int(cfg.max_iter_outer):
            break
        seen.add(part.key())
        nxt = weighted_kmeans(d, weights, cfg, init_partition=part)
        if nxt == part:
            break
        part = nxt
    return SparseClusterResult(
        partition=part,
        weights=weights,
        objective_trace=tuple(trace),
        iterations=len(trace),
        converged=part.key() in seen,
    )


def sparse_kmeans_mv(d: Dataset, k: int, m: int, cfg: KMeansConfig | None = None) -> SparseClusterResult:
    """Sparse K-means with hard-threshold feature selection.

    Alternates per-feature dispersion scoring, the closed-form top-(p-m)
    weight rule, and weighted K-means warm-started from the current
    partition. m is the number of features forced to zero weight.
    """
    cfg = cfg or KMeansConfig()
    return _alternate(
        d,
        k,
        cfg,
        solve=lambda disp: hard_threshold_weights(disp, m),
        dispersion=bcss_per_feature,
    )


def soft_sparse_kmeans_mv(d: Dataset, k: int, s: float, cfg: KMeansConfig | None = None) -> SparseClusterResult:
    """Sparse K-means with the soft-threshold (L1 budget) baseline rule."""
    cfg = cfg or KMeansConfig()
    return _alternate(
        d,
        k,
        cfg,
        solve=lambda disp: soft_threshold_weights(disp, s),
        dispersion=bcss_per_feature,
    )


def sparse_kmeans_fd(d: FunctionalDataset, k: int, m: float, cfg: KMeansConfig | None = None) -> SparseClusterResult:
    """Sparse clustering of curves with level-set domain selection.

    m is the measure of the domain forced to zero weight; distances are
    quadrature-weighted throughout.
    """
    cfg = cfg or KMeansConfig()
    return _alternate(
        d,
        k,
        cfg,
        solve=lambda disp: functional_threshold_weights(disp, m, grid=d.grid),
        dispersion=bcss_pointwise,
    )


__all__ = [
    "KMeansConfig",
    "weighted_kmeans",
    "sparse_kmeans_mv",
    "soft_sparse_kmeans_mv",
    "sparse_kmeans_fd",
    "uniform_weights",
]
