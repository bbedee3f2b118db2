"""Seeded benchmark reproductions.

Each run draws a fresh dataset, reseeds every method independently, scores
each method's partition against the truth, and aggregates mean and spread
per method. These drive the `simulate` CLI subcommand and the acceptance
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datatypes import Dataset, FunctionalDataset, Partition, SparseClusterResult
from .engine import (
    KMeansConfig,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
    uniform_weights,
    weighted_kmeans,
)
from .metrics import cer
from .rngutil import STREAM_METHOD, STREAM_RUN, derive_seed
from .solvers import whole_m
from .synthdata import FdScenario, MvScenario, gen_fd, gen_mv

# Zeroed-feature defaults for the Gaussian benchmark, per dimension; keys
# are dimensions with an externally selected level, the fallback keeps the
# same zeroed fraction as p=200. Override via the m argument.
GAUSSIAN_DEFAULT_M = {50: 25, 200: 160}

# L1 budget default for the soft baseline: targets the q=10 informative
# features of the Gaussian design.
GAUSSIAN_DEFAULT_S = math.sqrt(10.0)

# Zero-measure default for the curve benchmark: half the unit domain.
CURVE_DEFAULT_M = 0.5


def default_gaussian_m(p: int) -> int:
    return GAUSSIAN_DEFAULT_M.get(p, int(round(0.8 * p)))


@dataclass(frozen=True)
class BenchmarkRun:
    run: int
    method: str
    cer: float


@dataclass(frozen=True)
class BenchmarkSummary:
    method: str
    mean_cer: float
    sd_cer: float  # NaN when there is a single run
    n_runs: int


@dataclass(frozen=True)
class GaussianRunDetail:
    run: int
    data: Dataset
    truth: Partition
    standard: Partition
    soft: SparseClusterResult
    hard: SparseClusterResult


@dataclass(frozen=True)
class CurveRunDetail:
    run: int
    data: FunctionalDataset
    truth: Partition
    standard: Partition
    sparse: SparseClusterResult


def _summarize(records: list[BenchmarkRun]) -> list[BenchmarkSummary]:
    out = []
    for method in dict.fromkeys(r.method for r in records):
        vals = np.array([r.cer for r in records if r.method == method])
        sd = float(np.std(vals, ddof=1)) if vals.size > 1 else float("nan")
        out.append(BenchmarkSummary(method, float(np.mean(vals)), sd, vals.size))
    return out


def run_gaussian_benchmark(
    p: int,
    runs: int = 20,
    seed: int = 0,
    m: int | None = None,
    s: float | None = None,
    cfg: KMeansConfig | None = None,
    keep_details: bool = False,
):
    """Plain vs soft-sparse vs hard-sparse K-means on the Gaussian design.

    Every run draws a fresh dataset; the three methods see the same data
    but their clusterers are seeded independently. Returns (records,
    summaries, details); details is empty unless requested.
    """
    template = cfg or KMeansConfig()
    m = default_gaussian_m(p) if m is None else whole_m(m)
    s = GAUSSIAN_DEFAULT_S if s is None else float(s)
    records: list[BenchmarkRun] = []
    details: list[GaussianRunDetail] = []
    for r in range(int(runs)):
        scenario = MvScenario(p=p, seed=derive_seed(seed, STREAM_RUN, r))
        data, truth = gen_mv(scenario)

        def method_cfg(idx):
            return replace(
                template, k=scenario.k, seed=derive_seed(seed, STREAM_METHOD, r, idx)
            )

        standard = weighted_kmeans(data, uniform_weights(data), method_cfg(0))
        soft = soft_sparse_kmeans_mv(data, scenario.k, s, method_cfg(1))
        hard = sparse_kmeans_mv(data, scenario.k, m, method_cfg(2))
        records += [
            BenchmarkRun(r, "standard", cer(truth, standard)),
            BenchmarkRun(r, "soft-sparse", cer(truth, soft.partition)),
            BenchmarkRun(r, "hard-sparse", cer(truth, hard.partition)),
        ]
        if keep_details:
            details.append(GaussianRunDetail(r, data, truth, standard, soft, hard))
    return records, _summarize(records), details


def run_curve_benchmark(
    runs: int = 10,
    seed: int = 0,
    m: float = CURVE_DEFAULT_M,
    cfg: KMeansConfig | None = None,
    keep_details: bool = False,
):
    """Plain functional K-means vs sparse domain selection on the curve design.

    Returns (records, summaries, details); details carries per-run
    partitions and converged weight functions for downstream inspection.
    """
    template = cfg or KMeansConfig()
    records: list[BenchmarkRun] = []
    details: list[CurveRunDetail] = []
    for r in range(int(runs)):
        scenario = FdScenario(seed=derive_seed(seed, STREAM_RUN, r))
        data, truth = gen_fd(scenario)

        def method_cfg(idx):
            return replace(template, k=2, seed=derive_seed(seed, STREAM_METHOD, r, idx))

        standard = weighted_kmeans(data, uniform_weights(data), method_cfg(0))
        sparse = sparse_kmeans_fd(data, 2, m, method_cfg(1))
        records += [
            BenchmarkRun(r, "standard", cer(truth, standard)),
            BenchmarkRun(r, "sparse", cer(truth, sparse.partition)),
        ]
        if keep_details:
            details.append(CurveRunDetail(r, data, truth, standard, sparse))
    return records, _summarize(records), details


__all__ = [
    "BenchmarkRun",
    "BenchmarkSummary",
    "GaussianRunDetail",
    "CurveRunDetail",
    "run_gaussian_benchmark",
    "run_curve_benchmark",
    "default_gaussian_m",
    "GAUSSIAN_DEFAULT_M",
    "GAUSSIAN_DEFAULT_S",
    "CURVE_DEFAULT_M",
]
