"""Weighted K-means engine and the alternating sparse clustering loop.

The weighted problem is reduced to plain Lloyd iteration by scaling each
column by the square root of its (quadrature-adjusted) weight; centroids
in that transformed space are ordinary cluster means. When the transformed
matrix has more columns than rows, Lloyd runs on the Cholesky factor of its
row Gram matrix, which has the same distances. The alternating
loop then cycles dispersion -> weights -> partition until a partition
repeats.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .datatypes import (Dataset, Partition, SparseClusterResult, check_sample, count_m, l1_budget, measure_m,
                        require_grid, whole_fields)
from .dispersion import (
    bcss_per_feature,
    bcss_pointwise,
    weighted_objective,
)
from .errors import (
    DimensionMismatch,
    KTooLarge,
    NonFiniteDistances,
    PartitionMismatch,
    SparsityOutOfRange,
    TooFewDistinctRows,
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
    bit-identical results. Every field is a whole number, stored as an int.
    """

    k: int = 2
    n_init: int = 10
    max_iter_lloyd: int = 100
    max_iter_outer: int = 20
    seed: int = 0

    def __post_init__(self):
        whole_fields(self, k=2, n_init=1, max_iter_lloyd=1, max_iter_outer=1, seed=None)


_SEED_BLOCK_CELLS = 1 << 16  # cells of the (S, n) bound rows _certified_picks forms for S restarts at once
_UNIT = 2.0**-53  # the unit roundoff u of float64
_TINY = 2.0**-1022  # the smallest normal float64
_NORM_CAP = np.finfo(np.float64).max / 8  # n times the largest squared row norm the bounds take


@functools.lru_cache(maxsize=1024)
def _restart_draws(seed: int, n_init: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The kmeans++ draws of restarts 0..n_init-1 over n rows, read-only.

    Restart r's stream is spawn_rng(seed, STREAM_RESTART, r); it draws its
    first pick, integers(n), and then one random() uniform for each of the
    k - 1 later picks. Returns the (n_init,) first picks and the
    (n_init, k - 1) uniforms. They do not depend on the data, so they are
    drawn once per key; the cache hands the same arrays to every caller.
    """
    firsts, uniforms = np.empty(n_init, dtype=np.intp), np.empty((n_init, k - 1))
    for r in range(n_init):
        rng = spawn_rng(seed, STREAM_RESTART, r)
        firsts[r], uniforms[r] = rng.integers(n), rng.random(k - 1)
    firsts.setflags(write=False)
    uniforms.setflags(write=False)
    return firsts, uniforms


def _kmeanspp_init(z: np.ndarray, k: int, seed: int, n_init: int) -> np.ndarray:
    """D^2-sampled initial centroids (kmeans++ style) of n_init restarts, as
    a fresh (n_init, k, a) stack.

    Restart r takes its draws from _restart_draws. Its picks are those of
    its exact D^2 rows, the sums of squared differences of _exact_picks, and
    each of its picks is the first index whose cumulative D^2 sum is above
    the threshold fl(u_r·T), T the D^2 total, or n - 1 when none is.
    _certified_picks picks every restart first from one product per pick
    and proves, from bounds on those rows, that the exact rows would pick
    the same; the restarts it cannot certify, and only those, are picked
    again by _exact_picks, each under its own restart index, so that a zero
    total replays its own stream. Every restart picks as it would drawing
    from its own stream one draw after another.

    The bounds follow Higham, "Accuracy and Stability of Numerical
    Algorithms" (2nd ed.), ch. 3, with u = 2^-53 and g_m = mu/(1 - mu).
    Rows are compared with the Gram form D~_i = s_i + s_p - 2 z_i·z_p of
    the row norms s, whose true value is t_i = |z_i - z_p|^2:

    - An exact row, a sum of non-negative rounded squares of rounded
      differences, is within g_(a+2)·t_i of t_i in any summation order; the
      Gram form, in any BLAS order and with or without FMA, within
      g_(a+3)·(|z_i|^2 + |z_p|^2 + 2|z_i·z_p|). With N = s_i + s_p,
      t_i <= 2N and 2|z_i·z_p| <= N, so the two lie within 4·g_(a+3)·N of
      each other, and underflow adds less than a·2^-1022. The radius
      r = 8(a + 8)u·N + a·2^-1022 leaves room for its own roundings and
      those of lo = max(D~ - r, 0) and hi = D~ + r, which bound the exact
      row. For k >= 3 the running minima of the lo rows and of the hi rows,
      taken apart, bound the exact running minimum.
    - A sum of n non-negative terms is within g_n of its true sum in any
      order, and an addition that underflows is exact. With w = 4(n + 8)u,
      (1 - w)·CL and (1 + w)·CH, CL and CH the cumulative sums of the lo and
      hi rows, bound the exact cumulative sums and the exact total T. As
      rounding is monotone, the thresholds fl(u_r(1 - w)^2·CL[-1]) and
      fl(u_r(1 + w)^2·CH[-1]) lie on either side of fl(u_r·T), and where
      they are normal, their second factor (1 -/+ w) carries the widening of
      the CH and CL they are compared with. Below 2^-1022 the sums at or
      under a threshold were formed exactly, and the a·2^-1022 of the radius
      lifts the exact sums above them past 2^-1022.
    - The cumulative sums never fall, so the n_lo indices whose CH is at or
      below the low threshold are not above the exact one, and every index
      past the n_hi whose CL is at or below the high threshold is. A pick
      min(n_hi, n - 1) is certified when n_lo reaches it: the exact pick lies
      between the two.

    A zero exact total is never certified: every hi entry is positive, so
    n_lo = 0 while n_hi = n. Nothing is certified when a = 0,
    or when a squared row norm is above _NORM_CAP / n or not finite, so that
    every bound, sum and threshold is finite; the exact picks there make the
    RuntimeWarnings they make alone.
    """
    firsts, uniforms = _restart_draws(seed, n_init, z.shape[0], k)
    picks = np.empty((n_init, k), dtype=np.intp)
    picks[:, 0] = firsts
    redo = np.flatnonzero(~_certified_picks(z, picks, uniforms))
    if redo.size:
        _exact_picks(z, picks, uniforms, seed, redo)
    return z[picks]


def _exact_picks(z: np.ndarray, picks: np.ndarray, uniforms: np.ndarray, seed: int, restarts: np.ndarray) -> None:
    """Write the picks after the first of the given restarts into ``picks``,
    from their exact D^2 rows, one restart at a time: each pick has the bits
    of its restart seeded alone from its own stream, one draw after another.

    Each pick of restart r forms the D^2 row of the pick before it and keeps
    the running minimum; a pick is the first index whose cumulative D^2 sum
    is above u·total, searchsorted(side="right") capped at n - 1, so a NaN
    total, which no sum is above, picks n - 1. Where the total is 0, every
    D^2 entry is 0 and stays 0, so this and every later pick is a uniform
    integers(n): the stream spawn_rng(seed, STREAM_RESTART, r) is replayed up
    to the first of them and draws the rest.
    """
    n = z.shape[0]
    for r in restarts.tolist():
        p, d2 = picks[r], None
        for j in range(1, picks.shape[1]):
            row = np.add.reduce((z - z[p[j - 1]]) ** 2, axis=1)
            d2 = row if d2 is None else np.minimum(d2, row, out=d2)
            total = np.add.reduce(d2)
            if total == 0.0:
                rng = spawn_rng(seed, STREAM_RESTART, r)
                rng.integers(n)
                rng.random(j - 1)
                p[j:] = [rng.integers(n) for _ in range(j, len(p))]
                break
            p[j] = min(np.searchsorted(np.add.accumulate(d2), uniforms[r, j - 1] * total, side="right"), n - 1)


def _certified_picks(z: np.ndarray, picks: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Write every restart's picks after the first into ``picks`` from the
    bounds on its D^2 rows that _kmeanspp_init derives, and return the
    (n_init,) mask of the restarts whose every pick is certified. The other
    restarts' picks may be wrong.

    Each pick of a block of S = _SEED_BLOCK_CELLS // n restarts, at least
    one, forms (S, n) bound rows from one product of the block's picked rows
    with z; the arithmetic of the bounds is silent.
    """
    n, a = z.shape
    n_init, k = picks.shape
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.add.reduce(z * z, axis=1)
        if not (a and sq.max() <= _NORM_CAP / n):  # a NaN norm compares False
            return np.zeros(n_init, dtype=bool)
        certified = np.ones(n_init, dtype=bool)
        scale, tiny, widen = 8 * (a + 8) * _UNIT, a * _TINY, 4 * (n + 8) * _UNIT
        u_lo, u_hi = uniforms * (1.0 - widen) ** 2, uniforms * (1.0 + widen) ** 2
        zt, block = z.T, max(1, _SEED_BLOCK_CELLS // n)
        for r0 in range(0, n_init, block):
            p, ok = picks[r0 : r0 + block], certified[r0 : r0 + block]
            lows = ups = None
            for j in range(1, k):
                prev = p[:, j - 1]
                rows = z[prev] @ zt
                rad = sq + sq[prev, None]
                rows *= -2.0
                rows += rad  # the Gram form of the D^2 rows
                rad *= scale
                rad += tiny
                up = rows + rad
                low = np.subtract(rows, rad, out=rows)
                np.maximum(low, 0.0, out=low)
                lows = low if lows is None else np.minimum(lows, low, out=lows)
                ups = up if ups is None else np.minimum(ups, up, out=ups)
                cum_lo, cum_hi = np.add.accumulate(lows, axis=1), np.add.accumulate(ups, axis=1)
                lim_lo = u_lo[r0 : r0 + block, j - 1] * cum_lo[:, -1]
                lim_hi = u_hi[r0 : r0 + block, j - 1] * cum_hi[:, -1]
                np.minimum(np.add.reduce(cum_lo <= lim_hi[:, None], axis=1), n - 1, out=p[:, j])
                ok &= np.add.reduce(cum_hi <= lim_lo[:, None], axis=1) >= p[:, j]
    return certified


def _cluster_means(z: np.ndarray, labels0: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The (S, k, a) cluster means of an (S, n) stack of 0-based labelings
    with (S, k) cluster sizes: one one-hot product, then one division."""
    return ((labels0[:, None, :] == np.arange(sizes.shape[1])[:, None]) @ z) / sizes[:, :, None]


def _lloyd(z: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Lloyd iteration on an (S, k, a) stack of starts, run in lockstep.

    Returns (labels, wcss, steps), one row or entry per start: the 0-based
    labels of its last assignment, their within-cluster sum of squares and
    the number of assignments made. A start leaves the stack at its fixed
    point, where its labels stop moving, or after max_iter assignments. An
    empty cluster is re-seeded at the observation farthest from its own
    centroid whose cluster keeps another member, which never increases the
    criterion; no cluster is left empty.
    With fewer than k distinct rows no reseed can separate the clusters, so
    TooFewDistinctRows is raised.

    Each step forms the distances of every live start as one (n, S·k)
    array from one product z @ Cᵀ, with the live centroids stacked as the
    S·k rows of C, so z passes through BLAS once per step, not once per
    start. The argmin and the closest distances are taken over its
    (n, S, k) view and written as (S, n) rows. The means stay one product
    per start, so each start's means have the bits of its means alone.
    Whether a start's columns of the one product have the bits of its own
    product z @ cᵀ is up to the BLAS, which picks its kernel by shape: they
    do at every shape the tests pin, where every start ends as it would
    alone, and can differ in the last bits at others, such as 60 x 60.

    Besides the (S, n) labels, previous labels and flat offsets, and the
    n·a squares of z while the row norms are formed, at most two S·n·k
    float64 arrays are alive at once: the distances and the doubled
    product while the distances are formed, and the float64 one-hot while
    the means are formed, once the distances are dropped.
    """
    n_starts, k, a = centroids.shape
    n = z.shape[0]
    labels = np.empty((n_starts, n), dtype=np.intp)
    wcss, steps = np.empty(n_starts), np.empty(n_starts, dtype=np.intp)
    live, prev = np.arange(n_starts), np.full_like(labels, -1)
    sq_norms = np.add.reduce(z * z, axis=1)
    # flat offsets of each start's sizes, and of each (start, row)'s distances among the live starts'
    offsets = k * live[:, None]
    row_offsets = offsets + n_starts * k * np.arange(n)
    for step in range(1, max_iter + 1):
        width = live.size * k
        stacked = centroids.reshape(width, a)  # explicit sizes: a = 0 still reaches the reseed check
        d2 = sq_norms[:, None] + np.add.reduce(stacked * stacked, axis=1)
        prod = z @ stacked.T
        prod *= 2.0  # exact, so d2 has the bits of d2 - 2.0 * prod
        d2 -= prod
        del prod
        np.maximum(d2, 0.0, out=d2)
        new = np.empty((live.size, n), dtype=np.intp)
        d2.reshape(n, live.size, k).argmin(axis=2, out=new.T)
        closest = d2.ravel().take(new + row_offsets)
        del d2
        sizes = np.bincount((new + offsets[: live.size]).ravel(), minlength=width).reshape(-1, k)
        if not sizes.all():
            if (n_distinct := _n_distinct(z)) < k:
                raise TooFewDistinctRows(f"{n_distinct} distinct rows for k={k} clusters")
            for s in np.flatnonzero(~sizes.all(axis=1)):
                lab, size, near = new[s], sizes[s], closest[s]
                for j in np.flatnonzero(size == 0):
                    far = int(np.argmax(np.where(size[lab] > 1, near, -1.0)))
                    size[lab[far]] -= 1
                    size[j] = 1
                    lab[far] = j
                    near[far] = 0.0
        done = (new == prev).all(axis=1) | (step == max_iter)
        if done.any():
            ended = live[done]
            labels[ended], wcss[ended], steps[ended] = new[done], np.add.reduce(closest[done], axis=1), step
            if done.all():
                return labels, wcss, steps
            live, new, sizes = live[~done], new[~done], sizes[~done]
            row_offsets = offsets[: live.size] + live.size * k * np.arange(n)
        prev = new
        del closest
        centroids = _cluster_means(z, prev, sizes)  # every cluster has a member after the reseeds


def _canonical_labels(labels0: np.ndarray) -> np.ndarray:
    """Relabel 0-based cluster ids 0..k-1, each present, to 1..k by order of
    first appearance: one (k, n) comparison finds each id's first position."""
    first = (labels0 == np.arange(labels0.max() + 1)[:, None]).argmax(axis=1)
    rank = np.empty(first.size, dtype=np.int64)
    rank[first.argsort()] = np.arange(1, first.size + 1)
    return rank[labels0]


def _transformed_matrix(d, w: np.ndarray) -> np.ndarray:
    """Columns scaled by sqrt(weight times sample mass); unit masses for vectors.

    Only the columns whose scale is positive are kept. A zero-weight column
    adds an exact 0 to every distance, so Lloyd, kmeans++ and the warm-start
    centroids run on the active columns alone: p - m of them, not p, under
    hard-threshold weights.
    """
    scale = w if d.quad_weights is None else d.quad_weights * w
    active = scale > 0.0
    return d.values[:, active] * np.sqrt(scale[active])[None, :]


def _n_distinct(z: np.ndarray) -> int:
    """The number of distinct rows of z, counting -0.0 as 0.0: the size of
    the set of the rows' bytes, the one count _row_factor and _lloyd use."""
    return len({row.tobytes() for row in z + 0.0})


def _row_factor(z: np.ndarray) -> np.ndarray:
    """An n-column matrix with the row inner products of z, or z itself.

    K-means reads z only through the inner products of its rows. When z has
    more columns than rows, the lower Cholesky factor L of z zᵀ is L = zQ,
    with Q = zᵀL⁻ᵀ orthonormal on the row space of z, so every row-to-row
    and row-to-mean distance keeps its exact value, and a Lloyd step costs
    n² in place of n·a. z itself is returned when it has no more columns
    than rows, when two rows are equal (by _n_distinct), since the factor
    would make them only nearly equal, or when z zᵀ is singular or not
    finite.
    """
    n, a = z.shape
    if a <= n:
        return z
    # distinct first entries settle it; only a tie there needs whole rows
    if np.unique(z[:, 0]).size < n and _n_distinct(z) < n:
        return z
    gram = z @ z.T
    if not np.isfinite(gram).all():
        return z
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return z


def _check_start(k: int, n_obs: int, start: Partition | None) -> None:
    """The one check of k and of a start partition against the data, made
    before any transform, factor or seeding: KTooLarge when k exceeds n_obs,
    PartitionMismatch when ``start`` has another k or number of observations."""
    if k > n_obs:
        raise KTooLarge(f"k={k} exceeds the {n_obs} observations")
    if start is not None and (start.k != k or start.n_obs != n_obs):
        raise PartitionMismatch(
            f"start partition has k={start.k}, config has k={k}; "
            f"it labels {start.n_obs} observations, data has {n_obs}"
        )


def _checked_weights(d, w) -> np.ndarray:
    """The one check of a weighting against the data, made before any
    transform, factor or seeding: ``w``, a Weights or a bare array, as a
    float64 array. DimensionMismatch unless it has one entry per column,
    then check_sample's NonFinite or SparsityOutOfRange."""
    w = np.asarray(getattr(w, "w", w), dtype=np.float64)
    if w.shape != (d.n_features,):
        raise DimensionMismatch(f"weights of shape {w.shape} for the {d.n_features} columns")
    check_sample(w, "weight", SparsityOutOfRange)
    return w


def _best_weighted_lloyd(z, cfg: KMeansConfig, warm: Partition | None):
    """Best-of-restarts Lloyd in the transformed space, on a k and warm
    start that _check_start has passed.

    The starts, the warm start (when given) followed by n_init seeded
    kmeans++ draws, run as one stack in _lloyd. The first smallest finite
    WCSS wins, so earlier starts win ties. Putting the warm start first makes
    the outer alternation's objective non-decreasing.
    """
    starts = _kmeanspp_init(z, cfg.k, cfg.seed, cfg.n_init)
    if warm is not None:
        starts = np.concatenate((_cluster_means(z, warm.labels[None] - 1, warm.sizes()[None]), starts))
    labels, wcss, _ = _lloyd(z, starts, cfg.max_iter_lloyd)
    wcss = np.where(np.isfinite(wcss), wcss, np.inf)  # a NaN never wins
    best = int(np.argmin(wcss))
    if wcss[best] == np.inf:
        raise NonFiniteDistances(
            "squared distances are not finite: no restart has a finite within-cluster "
            "sum of squares (the weighted data overflow float64)"
        )
    return Partition(_canonical_labels(labels[best]), cfg.k), float(wcss[best])


# The row factor of at most one dataset under uniform_weights, keyed weakly by
# that Dataset: dropped when it is collected, replaced by the next one formed.
_UNIFORM_FACTOR: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def weighted_kmeans(d, w, cfg: KMeansConfig, init_partition: Partition | None = None) -> Partition:
    """K-means under a fixed feature weighting.

    ``w`` is a Weights or a bare array, checked by _checked_weights; ``cfg.k``
    sets the number of clusters. An optional ``init_partition`` joins the
    restart pool as a warm start and wins ties. Under uniform_weights(d),
    entry for entry, a factor _row_factor forms (the active columns outnumber
    the rows) is held read-only against d, and the next such call on d
    reuses it with the same result. Nothing is held where Lloyd runs on the
    transformed matrix itself: its rebuild is only a copy, and holding it
    would double the dataset's memory.
    """
    _check_start(cfg.k, d.n_obs, init_partition)
    w = _checked_weights(d, w)
    uniform = (w == _uniform_weight(d)).all()
    z = _UNIFORM_FACTOR.get(d) if uniform else None
    if z is None:
        x = _transformed_matrix(d, w)
        z = _row_factor(x)
        if uniform and z is not x:
            z.setflags(write=False)
            _UNIFORM_FACTOR.clear()
            _UNIFORM_FACTOR[d] = z
    part, _ = _best_weighted_lloyd(z, cfg, init_partition)
    return part


def _uniform_weight(d) -> np.float64:
    return 1.0 / np.sqrt(d.domain_measure)


def uniform_weights(d) -> np.ndarray:
    """The no-selection weighting: constant, with unit (quadrature) L2 norm."""
    return np.full(d.values.shape[1], _uniform_weight(d))


def _alternate(d, k, cfg, solve, start=None):
    """Shared alternating loop: dispersion -> weights -> partition.

    ``solve`` maps a dispersion object to weights; the dispersion is
    bcss_pointwise on curves (``d.grid`` set), bcss_per_feature on vectors.
    The loop begins at ``start``, or, when it is None, at weighted_kmeans
    under uniform_weights; that start does not depend on the sparsity, so a
    caller fitting one dataset at several sparsities can compute it once and
    pass it in. The weights are a
    function of the partition, so the loop stops when the partition repeats:
    a fixed point, or a cycle, whose revisited partition is returned. A run
    capped by max_iter_outer is not converged. Either way the returned
    weights and the last trace entry belong to the returned partition.
    """
    cfg = replace(cfg, k=k)
    _check_start(cfg.k, d.n_obs, start)
    dispersion = bcss_per_feature if d.grid is None else bcss_pointwise
    part = weighted_kmeans(d, uniform_weights(d), cfg) if start is None else start
    trace, seen = [], set()
    while True:
        disp = dispersion(d, part)
        weights = solve(disp)
        trace.append(weighted_objective(weights, disp))
        if part.key() in seen or len(trace) >= cfg.max_iter_outer:
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
        converged=part.key() in seen,
    )


def sparse_kmeans_mv(
    d: Dataset, k: int, m: int, cfg: KMeansConfig | None = None, *, start: Partition | None = None
) -> SparseClusterResult:
    """Sparse K-means with hard-threshold feature selection.

    Alternates per-feature dispersion scoring, the closed-form top-(p-m)
    weight rule, and weighted K-means warm-started from the current
    partition. m, a whole number, is the number of features forced to zero weight.
    ``start``, when given, replaces the uniform-weight first partition
    (``weighted_kmeans(d, uniform_weights(d), replace(cfg, k=k))``), which
    does not depend on m; a start with another k or number of observations
    raises PartitionMismatch.
    """
    require_grid(d, False, "sparse_kmeans_mv")
    cfg = cfg or KMeansConfig()
    m = count_m(m, d.n_features)
    return _alternate(d, k, cfg, lambda disp: hard_threshold_weights(disp, m), start)


def soft_sparse_kmeans_mv(d: Dataset, k: int, s: float, cfg: KMeansConfig | None = None) -> SparseClusterResult:
    """Sparse K-means with the soft-threshold baseline rule under an L1 budget s in [1, sqrt(p)]."""
    require_grid(d, False, "soft_sparse_kmeans_mv")
    cfg = cfg or KMeansConfig()
    s = l1_budget(s, d.n_features)
    return _alternate(d, k, cfg, lambda disp: soft_threshold_weights(disp, s))


def sparse_kmeans_fd(
    d: Dataset, k: int, m: float, cfg: KMeansConfig | None = None, *, start: Partition | None = None
) -> SparseClusterResult:
    """Sparse clustering of curves with level-set domain selection.

    m is the measure of the domain forced to zero weight; distances are
    quadrature-weighted throughout. ``start`` is the first partition, as in
    sparse_kmeans_mv.
    """
    require_grid(d, True, "sparse_kmeans_fd")
    cfg = cfg or KMeansConfig()
    m = measure_m(m, float(np.sum(d.quad_weights)))
    return _alternate(d, k, cfg, lambda disp: functional_threshold_weights(disp, m), start)


__all__ = [
    "KMeansConfig",
    "weighted_kmeans",
    "sparse_kmeans_mv",
    "soft_sparse_kmeans_mv",
    "sparse_kmeans_fd",
    "uniform_weights",
]
