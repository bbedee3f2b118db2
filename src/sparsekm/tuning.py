"""Permutation-calibrated selection of the sparsity level.

The observed weighted dispersion objective at each candidate sparsity is
compared, on a log scale, against the same statistic on reference datasets
whose structure has been destroyed by permutation. The candidate with the
largest excess (gap) wins; ties go to the sparser model (smaller retained
support never loses a tie to a larger one with equal evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datatypes import Dataset, FunctionalDataset, readonly_array
from .engine import KMeansConfig, sparse_kmeans_fd, sparse_kmeans_mv
from .errors import DegenerateObjective, NumericalError, SparsityOutOfRange, ValidationError
from .rngutil import STREAM_PERMUTE, derive_seed, spawn_rng
from .solvers import whole_m


@dataclass(frozen=True)
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
        fields = [
            np.asarray(self.m_grid, dtype=np.float64),
            np.asarray(self.gap, dtype=np.float64),
            np.asarray(self.obs_log_obj, dtype=np.float64),
            np.asarray(self.perm_log_obj_mean, dtype=np.float64),
            np.asarray(self.perm_log_obj_sd, dtype=np.float64),
        ]
        excluded = np.asarray(self.excluded, dtype=bool)
        if any(f.shape != fields[0].shape for f in fields) or excluded.shape != fields[0].shape:
            raise ValidationError("gap curve arrays must share one length")
        if int(self.b_perms) < 1:
            raise ValidationError("b_perms must be >= 1")
        names = ["m_grid", "gap", "obs_log_obj", "perm_log_obj_mean", "perm_log_obj_sd"]
        for name, arr in zip(names, fields):
            object.__setattr__(self, name, readonly_array(arr))
        object.__setattr__(self, "excluded", readonly_array(excluded, dtype=bool))
        object.__setattr__(self, "b_perms", int(self.b_perms))


def permute_feature_columns(values: np.ndarray, rng) -> np.ndarray:
    """Shuffle each column independently, killing feature-label structure
    while preserving every marginal exactly."""
    out = np.empty_like(values)
    n = values.shape[0]
    for j in range(values.shape[1]):
        out[:, j] = values[rng.permutation(n), j]
    return out


def subdomain_blocks(quad_weights: np.ndarray, n_subdomains: int) -> np.ndarray:
    """Assign each grid point to one of n contiguous, equal-measure blocks.

    Block membership is decided by each point's mass midpoint along the
    cumulative quadrature measure, so unequal grid spacing still yields
    (approximately) equal-measure blocks.
    """
    if n_subdomains < 1:
        raise ValidationError(f"n_subdomains must be >= 1, got {n_subdomains}")
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
    blocks = subdomain_blocks(quad_weights, n_subdomains)
    out = values.copy()
    n = values.shape[0]
    for b in range(n_subdomains):
        cols = blocks == b
        if not np.any(cols):
            continue
        perm = rng.permutation(n)
        out[:, cols] = values[perm][:, cols]
    return out


def _gap_scan(d, k, candidates, b_perms, cfg, one_sd_rule, fit, permute):
    """Permutation-gap scan shared by both tuners.

    ``fit(data, k, m, cfg)`` returns a SparseClusterResult and
    ``permute(rng)`` one reference dataset. The same b_perms references are
    reused across all candidates so the curve is comparable along m. A
    candidate whose observed or reference objective is nonpositive, or
    whose fit raises NumericalError, is excluded.
    """
    if not candidates:
        raise SparsityOutOfRange("m_grid is empty")
    b_perms = int(b_perms)
    if b_perms < 1:
        raise ValidationError(f"b_perms must be >= 1, got {b_perms}")
    references = []
    for b in range(b_perms):
        rng = spawn_rng(cfg.seed, STREAM_PERMUTE, b)
        references.append(
            (permute(rng), replace(cfg, seed=derive_seed(cfg.seed, STREAM_PERMUTE, b, 1)))
        )

    n_m = len(candidates)
    obs_log = np.full(n_m, np.nan)
    perm_mean = np.full(n_m, np.nan)
    perm_sd = np.full(n_m, np.nan)
    gap = np.full(n_m, np.nan)
    excluded = np.zeros(n_m, dtype=bool)
    for i, m in enumerate(candidates):
        try:
            obj = fit(d, k, m, cfg).objective
            if obj <= 0.0:
                raise DegenerateObjective(f"objective {obj} at m={m}")
            logs = np.empty(b_perms)
            for b, (ref_d, ref_cfg) in enumerate(references):
                ref = fit(ref_d, k, m, ref_cfg).objective
                if ref <= 0.0:
                    raise DegenerateObjective(
                        f"reference objective {ref} at m={m}, replicate {b}"
                    )
                logs[b] = np.log(ref)
        except NumericalError:
            excluded[i] = True
            continue
        obs_log[i] = np.log(obj)
        perm_mean[i] = float(np.mean(logs))
        # Population sd: a single replicate reports spread 0, not NaN.
        perm_sd[i] = float(np.std(logs))
        gap[i] = obs_log[i] - perm_mean[i]
    if np.all(excluded):
        raise DegenerateObjective(
            "every candidate produced a nonpositive or undefined objective"
        )
    valid = np.nonzero(~excluded)[0]
    best = valid[int(np.argmax(gap[valid]))]  # argmax keeps the first (smaller m) on ties
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
    """Smallest candidate whose gap reaches the winner's gap minus one sd."""
    floor = gap[best] - perm_sd[best]
    for i in range(len(gap)):
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
    candidates = sorted({whole_m(m) for m in np.asarray(m_grid).ravel()})
    p = d.n_features
    for m in candidates:
        if not 0 <= m < p:
            raise SparsityOutOfRange(f"candidate m={m} outside [0, {p})")
    return _gap_scan(
        d, k, candidates, b_perms, cfg or KMeansConfig(), one_sd_rule, sparse_kmeans_mv,
        lambda rng: Dataset(permute_feature_columns(d.values, rng)),
    )


def tune_m_fd(
    d: FunctionalDataset,
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
    candidates = sorted({float(m) for m in np.asarray(m_grid).ravel()})
    mu = float(np.sum(d.quad_weights))
    for m in candidates:
        if not 0.0 < m < mu:
            raise SparsityOutOfRange(f"candidate m={m} outside (0, {mu})")
    return _gap_scan(
        d, k, candidates, b_perms, cfg or KMeansConfig(), one_sd_rule, sparse_kmeans_fd,
        lambda rng: FunctionalDataset(
            d.grid, permute_curves_within_blocks(d.values, d.quad_weights, int(n_subdomains), rng)
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
