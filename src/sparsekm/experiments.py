"""Seeded benchmark reproductions.

Each run draws a fresh dataset, reseeds every method independently, scores
each method's partition against the truth, and aggregates mean and spread
per method. These drive the `simulate` CLI subcommand and the acceptance
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datatypes import Dataset, Partition, SparseClusterResult, count_m, l1_budget, measure_m, whole
from .engine import (
    KMeansConfig,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
    uniform_weights,
    weighted_kmeans,
)
from .errors import ValidationError
from .metrics import cer
from .rngutil import STREAM_METHOD, STREAM_RUN, derive_seed
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
    data: Dataset
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


def _standard(d, cfg: KMeansConfig) -> Partition:
    return weighted_kmeans(d, uniform_weights(d), cfg)


def _run_benchmark(runs, seed, draw, methods, detail):
    """The run loop both harnesses share. Run r draws (data, truth) from
    ``draw(run_seed)``; method i of ``methods``, a (name, fit) pair, fits it
    with ``fit(data, KMeansConfig(k=truth.k, seed=<seed of run r, method i>))``
    to a Partition or a SparseClusterResult, scored by CER against the truth.
    ``detail(r, data, truth, *fits)`` builds a run's detail record; None keeps none.
    """
    records, details = [], []
    for r in range(whole(runs, "runs", 1)):
        data, truth = draw(derive_seed(seed, STREAM_RUN, r))
        fits = [
            fit(data, KMeansConfig(k=truth.k, seed=derive_seed(seed, STREAM_METHOD, r, i)))
            for i, (_, fit) in enumerate(methods)
        ]
        records += [
            BenchmarkRun(r, name, cer(truth, f if isinstance(f, Partition) else f.partition))
            for (name, _), f in zip(methods, fits)
        ]
        if detail is not None:
            details.append(detail(r, data, truth, *fits))
    return records, _summarize(records), details


def run_gaussian_benchmark(
    p: int,
    runs: int = 20,
    seed: int = 0,
    m: int | None = None,
    s: float | None = None,
    keep_details: bool = False,
):
    """Plain vs soft-sparse vs hard-sparse K-means on the Gaussian design.

    Every run draws a fresh dataset; the three methods see the same data
    but their clusterers are seeded independently. p must cover the
    design's informative features (``MvScenario.q``, 10); m and s are checked
    against p before any data is drawn. Returns (records, summaries,
    details); details is empty unless requested.
    """
    p = whole(p, "p")
    if p < MvScenario.q:
        raise ValidationError(
            f"p={p} too small: the Gaussian design needs p >= {MvScenario.q}, "
            "its informative features"
        )
    m = default_gaussian_m(p) if m is None else count_m(m, p)
    s = l1_budget(GAUSSIAN_DEFAULT_S if s is None else s, p)
    return _run_benchmark(runs, seed, lambda run_seed: gen_mv(MvScenario(p=p, seed=run_seed)), [
        ("standard", _standard),
        ("soft-sparse", lambda d, cfg: soft_sparse_kmeans_mv(d, cfg.k, s, cfg)),
        ("hard-sparse", lambda d, cfg: sparse_kmeans_mv(d, cfg.k, m, cfg)),
    ], GaussianRunDetail if keep_details else None)


def run_curve_benchmark(
    runs: int = 10,
    seed: int = 0,
    m: float = CURVE_DEFAULT_M,
    keep_details: bool = False,
):
    """Plain functional K-means vs sparse domain selection on the curve design.

    Returns (records, summaries, details); details carries per-run
    partitions and converged weight functions for downstream inspection.
    """
    m = measure_m(m, 1.0)  # the design's curves span the unit interval
    return _run_benchmark(runs, seed, lambda run_seed: gen_fd(FdScenario(seed=run_seed)), [
        ("standard", _standard),
        ("sparse", lambda d, cfg: sparse_kmeans_fd(d, cfg.k, m, cfg)),
    ], CurveRunDetail if keep_details else None)


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
