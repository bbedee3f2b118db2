"""Permutation-calibrated selection of the sparsity level.

The observed weighted dispersion objective at each candidate sparsity is
compared, on a log scale, against the same statistic on reference datasets
whose structure has been destroyed by permutation. The candidate with the
largest excess (gap) wins; ties go to the sparser model (smaller retained
support never loses a tie to a larger one with equal evidence). Under the
one-sd rule the largest m whose gap is at least the best gap minus its
reference sd wins instead: the sparsest model the evidence cannot reject.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datatypes import Dataset, count_m, measure_m, readonly_array, require_grid, whole, whole_fields
from .engine import KMeansConfig, sparse_kmeans_fd, sparse_kmeans_mv, uniform_weights, weighted_kmeans
from .errors import DegenerateObjective, NumericalError, SparsityOutOfRange, ValidationError
from .rngutil import STREAM_PERMUTE, derive_seed, spawn_rng


@dataclass(frozen=True, eq=False)
class GapCurve:
    """Per-candidate diagnostics from a tuning run.

    ``excluded`` marks candidates whose observed or reference objective was
    nonpositive or undefined; their gap entries are NaN and they never win.
    """

    m_grid: np.ndarray
    gap: np.ndarray
    obs_log_obj: np.ndarray
    perm_log_obj_mean: np.ndarray
    perm_log_obj_sd: np.ndarray
    excluded: np.ndarray
    b_perms: int

    def __post_init__(self):
        shape = np.shape(self.m_grid)
        for name in ("m_grid", "gap", "obs_log_obj", "perm_log_obj_mean", "perm_log_obj_sd", "excluded"):
            arr = readonly_array(getattr(self, name), dtype=bool if name == "excluded" else np.float64)
            if arr.shape != shape:
                raise ValidationError("gap curve arrays must share one length")
            object.__setattr__(self, name, arr)
        whole_fields(self, b_perms=1)


def _shuffle_blocks(values: np.ndarray, blocks: np.ndarray, rng) -> np.ndarray:
    """Reorder the rows of each non-empty contiguous block of columns by its own
    ``rng.permutation(n)``, drawn in block order; ``blocks`` labels every column
    and never decreases. Each draw copies only its block's columns."""
    out = np.empty_like(values)
    n = values.shape[0]
    edges = np.flatnonzero(np.diff(blocks, prepend=-1, append=-1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        out[:, lo:hi] = values[rng.permutation(n), lo:hi]
    return out


def permute_feature_columns(values: np.ndarray, rng) -> np.ndarray:
    """Shuffle each column independently, killing feature-label structure
    while preserving every marginal exactly: the block shuffle of curves
    with one block per column."""
    return _shuffle_blocks(values, np.arange(values.shape[1]), rng)


def subdomain_blocks(quad_weights: np.ndarray, n_subdomains: int) -> np.ndarray:
    """Assign each grid point to one of n contiguous, equal-measure blocks.

    Block membership is decided by each point's mass midpoint along the
    cumulative quadrature measure, so unequal grid spacing still yields
    (approximately) equal-measure blocks.
    """
    n_subdomains = whole(n_subdomains, "n_subdomains", 1)
    qw = np.asarray(quad_weights, dtype=np.float64)
    mu = float(qw.sum())
    mid = np.cumsum(qw) - qw / 2.0
    blocks = np.minimum((mid / mu * n_subdomains).astype(np.int64), n_subdomains - 1)
    return blocks


def permute_curves_within_blocks(
    values: np.ndarray, quad_weights: np.ndarray, n_subdomains: int, rng
) -> np.ndarray:
    """Reassign curve identities independently inside each subdomain block.

    Within a block every curve keeps its shape, but which curve owns which
    trajectory segment is shuffled, so cross-block (and cluster) structure
    is destroyed while local smoothness inside a block survives. This is
    one reading of "permute within equal-measure subdomains"; alternatives
    (e.g. permuting grid columns independently) would break smoothness
    entirely.
    """
    return _shuffle_blocks(values, subdomain_blocks(quad_weights, n_subdomains), rng)


def _gap_scan(d, k, candidates, b_perms, cfg, one_sd_rule, fit, permute):
    """Permutation-gap scan shared by both tuners.

    ``fit(data, k, m, cfg, start=...)`` returns a SparseClusterResult and
    ``permute(rng)`` one reference dataset. The scan makes one pass per
    dataset: the observed data, then reference b, drawn from its own stream
    only when its turn comes, so one reference is alive at a time. The same
    b_perms references serve every candidate, so the curve is comparable
    along m. A candidate whose observed or reference objective is
    nonpositive, or whose fit raises NumericalError, is excluded and not
    fitted again.

    The uniform-weight start of a fit does not depend on m, so each dataset's
    start is computed once and shared by its candidates; a start that raises
    excludes every candidate left. The candidates' fits on a dataset also
    share its dispersions, which the engine keeps per partition (see
    engine._alternate).
    """
    if not candidates:
        raise SparsityOutOfRange("m_grid is empty")
    b_perms = whole(b_perms, "b_perms", 1)
    cfg = replace(cfg, k=k)
    log_obj = np.full((len(candidates), b_perms + 1), np.nan)  # column 0 observed, b + 1 reference b
    excluded = np.zeros(len(candidates), dtype=bool)
    for j in range(b_perms + 1):
        if excluded.all():
            break
        data, run_cfg = d, cfg
        if j > 0:
            data = permute(spawn_rng(cfg.seed, STREAM_PERMUTE, j - 1))
            run_cfg = replace(cfg, seed=derive_seed(cfg.seed, STREAM_PERMUTE, j - 1, 1))
        try:
            start = weighted_kmeans(data, uniform_weights(data), run_cfg)
        except NumericalError:
            excluded[:] = True
            break
        for i in np.flatnonzero(~excluded):
            try:
                obj = fit(data, k, candidates[i], run_cfg, start=start).objective
            except NumericalError:
                obj = 0.0  # excluded, like a nonpositive objective
            if obj <= 0.0:
                excluded[i] = True
            else:
                log_obj[i, j] = np.log(obj)
    if np.all(excluded):
        raise DegenerateObjective(
            "every candidate produced a nonpositive or undefined objective"
        )
    log_obj[excluded] = np.nan
    obs_log, ref_log = log_obj[:, 0], log_obj[:, 1:]
    # Population sd: a single replicate reports spread 0, not NaN.
    perm_mean, perm_sd = ref_log.mean(axis=1), ref_log.std(axis=1)
    gap = obs_log - perm_mean
    valid = np.nonzero(~excluded)[0][::-1]  # larger m first: exact ties go to the sparser model
    best = valid[int(np.argmax(gap[valid]))]
    if one_sd_rule:
        best = _apply_one_sd_rule(best, gap, perm_sd, excluded)
    curve = GapCurve(
        np.asarray(candidates, dtype=np.float64),
        gap,
        obs_log,
        perm_mean,
        perm_sd,
        excluded,
        b_perms,
    )
    return candidates[best], curve


def _apply_one_sd_rule(best, gap, perm_sd, excluded):
    """Largest m (the sparsest model) whose gap reaches the winner's gap minus one sd."""
    floor = gap[best] - perm_sd[best]
    for i in reversed(range(len(gap))):
        if not excluded[i] and gap[i] >= floor:
            return i
    return best


def tune_m_mv(
    d: Dataset,
    k: int,
    m_grid,
    b_perms: int = 20,
    cfg: KMeansConfig | None = None,
    one_sd_rule: bool = False,
) -> tuple[int, GapCurve]:
    """Choose the number of zeroed features by the permutation gap.

    Reference datasets shuffle every feature column independently.
    """
    require_grid(d, False, "tune_m_mv")
    candidates = sorted({count_m(m, d.n_features) for m in np.asarray(m_grid).ravel()})
    return _gap_scan(
        d, k, candidates, b_perms, cfg or KMeansConfig(), one_sd_rule, sparse_kmeans_mv,
        lambda rng: Dataset(permute_feature_columns(d.values, rng)),
    )


def tune_m_fd(
    d: Dataset,
    k: int,
    m_grid,
    b_perms: int = 20,
    n_subdomains: int = 20,
    cfg: KMeansConfig | None = None,
    one_sd_rule: bool = False,
) -> tuple[float, GapCurve]:
    """Choose the zero-weight domain measure by the permutation gap.

    Reference datasets shuffle curve identities within each of n contiguous
    equal-measure subdomain blocks.
    """
    require_grid(d, True, "tune_m_fd")
    mu = float(np.sum(d.quad_weights))
    candidates = sorted({measure_m(m, mu) for m in np.asarray(m_grid).ravel()})
    n_subdomains = whole(n_subdomains, "n_subdomains", 1)
    return _gap_scan(
        d, k, candidates, b_perms, cfg or KMeansConfig(), one_sd_rule, sparse_kmeans_fd,
        lambda rng: Dataset(
            permute_curves_within_blocks(d.values, d.quad_weights, n_subdomains, rng), grid=d.grid
        ),
    )


__all__ = [
    "GapCurve",
    "tune_m_mv",
    "tune_m_fd",
    "permute_feature_columns",
    "permute_curves_within_blocks",
    "subdomain_blocks",
]
