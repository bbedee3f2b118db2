"""The benchmark workloads: inputs from a seed, one timed call, output checks.

Each workload builds its inputs from the seed alone (``setup``), makes one
top-level call into the public library or CLI (``call``, the timed
operation) and then, untimed, checks the call's output and scores it
(``evaluate``). Importing this module imports sparsekm, so set-up time
includes the library import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from sparsekm import cli, dataio, engine, experiments, metrics, synthdata, tuning

# The weight solvers normalise to unit norm; this is the library's own
# documented tolerance on that norm and on non-decreasing objective traces.
NORM_TOL = 1e-9
TRACE_SLACK = 1e-12

MV_GRID = [5, 9, 14, 18, 22, 27, 31, 35, 40, 44]
FD_GRID = [i / 10 for i in range(1, 10)]
N_INFORMATIVE = synthdata.MvScenario(p=10).q


@dataclass
class Outcome:
    """Checked output of one operation."""

    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)  # end-to-end metrics
    info: dict[str, float] = field(default_factory=dict)  # reported, not a metric
    arrays: list[np.ndarray] = field(default_factory=list)  # what the fingerprint covers

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for a in self.arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        return h.hexdigest()

    def add_labels(self, what: str, labels, k: int, n: int) -> None:
        labels = np.asarray(labels)
        if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
            self.problems.append(f"{what}: labels have shape {labels.shape}, dtype {labels.dtype}")
        elif labels.min() < 1 or labels.max() > k:
            self.problems.append(f"{what}: labels outside 1..{k}")
        elif np.unique(labels).size != k:
            self.problems.append(f"{what}: an empty cluster")
        self.arrays.append(labels.astype("<i8"))

    def add_weights(self, what: str, w, m=None, shrunk=False, quad=None, cell=0.0) -> None:
        """Non-negative, unit (quadrature) norm, and m zeros (more if shrunk).

        For a weight function (``quad`` given) m is a measure; the zero set
        may undershoot it by one grid cell, ``cell``.
        """
        w = np.asarray(w, dtype=np.float64)
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            self.problems.append(f"{what}: weights not finite and non-negative")
        masses = np.ones_like(w) if quad is None else quad
        norm = float(np.sqrt(np.sum(masses * w * w)))
        if abs(norm - 1.0) > NORM_TOL:
            self.problems.append(f"{what}: weight norm {norm!r}")
        if m is not None:
            zero = float(np.sum(masses[w == 0.0]))
            if quad is None:
                ok = zero > m if shrunk else zero == m
            else:
                ok = zero >= m - cell
            if not ok:
                self.problems.append(f"{what}: zero-weight share {zero!r} for m={m!r}")
        self.arrays.append(w.astype("<f8"))

    def add_trace(self, what: str, trace) -> None:
        trace = np.asarray(trace, dtype=np.float64)
        if trace.size < 1 or not np.all(np.isfinite(trace)):
            self.problems.append(f"{what}: empty or non-finite objective trace")
        elif np.any(trace[1:] < trace[:-1] - TRACE_SLACK * (1.0 + np.abs(trace[:-1]))):
            self.problems.append(f"{what}: objective trace decreases")
        self.arrays.append(trace.astype("<f8"))

    def add_fit(self, what: str, fit, k: int, n: int, m=None, quad=None, cell=0.0) -> None:
        self.add_labels(what, fit.partition.labels, k, n)
        shrunk = bool(getattr(fit.weights, "support_shrunk", False))
        self.add_weights(what, fit.weights.w, m, shrunk, quad, cell)
        self.add_trace(what, fit.objective_trace)

    def add_gap_curve(self, m_star, curve) -> None:
        excluded = np.asarray(curve.excluded, dtype=bool)
        if not np.all(np.isfinite(np.asarray(curve.gap)[~excluded])):
            self.problems.append("gap curve: non-finite gap at a candidate not excluded")
        self.arrays.append(np.asarray([m_star], dtype="<f8"))
        for a in (curve.m_grid, curve.gap, curve.obs_log_obj, curve.perm_log_obj_mean,
                  curve.perm_log_obj_sd):
            self.arrays.append(np.asarray(a, dtype="<f8"))
        self.arrays.append(excluded.astype("u1"))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir, tiny) -> inputs
    call: Callable  # (inputs) -> raw output; the timed operation
    evaluate: Callable  # (inputs, raw output) -> Outcome
    # Inputs per run: more where the work differs more between datasets,
    # as far as one operation per input still fits in a run.
    inputs_per_run: int


def _rand(p_true, p_est) -> float:
    """Rand index, one minus the pair-counting CER; never 0 for a real fit."""
    return 1.0 - metrics.cer(p_true, p_est)


# --- tune-mv: the permutation-gap tuner on vectors -------------------------

def _setup_tune_mv(seed, workdir, tiny):
    p, q, grid, b = (12, 3, [2, 5, 8], 2) if tiny else (50, N_INFORMATIVE, MV_GRID, 20)
    data, truth = synthdata.gen_mv(synthdata.MvScenario(p=p, q=q, seed=seed))
    return SimpleNamespace(data=data, truth=truth, q=q, grid=grid, b=b,
                           cfg=engine.KMeansConfig(k=3, seed=seed))


def _call_tune_mv(x):
    return tuning.tune_m_mv(x.data, 3, x.grid, b_perms=x.b, cfg=x.cfg)


def _evaluate_tune_mv(x, raw):
    m_star, curve = raw
    out = Outcome()
    out.add_gap_curve(m_star, curve)
    fit = engine.sparse_kmeans_mv(x.data, 3, m_star, x.cfg)
    out.add_fit("fit at m*", fit, 3, x.data.n_obs, m=m_star)
    out.quality["rand_index.hard"] = _rand(x.truth, fit.partition)
    out.quality["signal_recall"] = np.count_nonzero(fit.weights.w[: x.q] > 0.0) / x.q
    out.info["m_star"] = m_star
    return out


# --- gauss-wide: plain, soft and hard K-means on wide Gaussian data --------

def _setup_gauss_wide(seed, workdir, tiny):
    return SimpleNamespace(p=40 if tiny else 2000, runs=2 if tiny else 20, seed=seed)


def _call_gauss_wide(x):
    return experiments.run_gaussian_benchmark(x.p, runs=x.runs, seed=x.seed, keep_details=True)


def _evaluate_gauss_wide(x, raw):
    records, _, details = raw
    out = Outcome()
    m = experiments.default_gaussian_m(x.p)
    recall = []
    for det in details:
        n = det.data.n_obs
        out.add_labels(f"run {det.run} standard", det.standard.labels, 3, n)
        out.add_fit(f"run {det.run} soft", det.soft, 3, n)
        out.add_fit(f"run {det.run} hard", det.hard, 3, n, m=m)
        recall.append(np.count_nonzero(det.hard.weights.w[:N_INFORMATIVE] > 0.0) / N_INFORMATIVE)
    if len(details) != x.runs:
        out.problems.append(f"{len(details)} run details for {x.runs} runs")

    def mean_rand(method):
        return 1.0 - float(np.mean([r.cer for r in records if r.method == method]))

    out.quality["rand_index.hard"] = mean_rand("hard-sparse")
    out.quality["signal_recall"] = float(np.mean(recall))
    out.info["rand_index.soft"] = mean_rand("soft-sparse")
    out.info["rand_index.standard"] = mean_rand("standard")
    return out


# --- tune-fd: the permutation-gap tuner on curves --------------------------

def _setup_tune_fd(seed, workdir, tiny):
    scenario = (synthdata.FdScenario(n_grid=40, n_per_class=15, seed=seed) if tiny
                else synthdata.FdScenario(seed=seed))
    data, truth = synthdata.gen_fd(scenario)
    return SimpleNamespace(data=data, truth=truth, grid=[0.3, 0.6] if tiny else FD_GRID,
                           b=2 if tiny else 10, cfg=engine.KMeansConfig(k=2, seed=seed))


def _call_tune_fd(x):
    return tuning.tune_m_fd(x.data, 2, x.grid, b_perms=x.b, cfg=x.cfg)


def _evaluate_tune_fd(x, raw):
    m_star, curve = raw
    out = Outcome()
    out.add_gap_curve(m_star, curve)
    fit = engine.sparse_kmeans_fd(x.data, 2, m_star, x.cfg)
    quad = np.asarray(x.data.quad_weights)
    cell = float(np.max(np.diff(x.data.grid)))
    out.add_fit("fit at m*", fit, 2, x.data.n_obs, m=m_star, quad=quad, cell=cell)
    support = np.asarray(fit.weights.w) > 0.0
    signal = np.asarray(x.data.grid) > 0.5  # the classes differ only on (1/2, 1]
    out.quality["rand_index.hard"] = _rand(x.truth, fit.partition)
    out.quality["signal_recall"] = float(quad[support & signal].sum() / quad[signal].sum())
    out.info["signal_support_frac"] = float(quad[support & signal].sum() / quad[support].sum())
    out.info["m_star"] = m_star
    return out


# --- cli-cluster: `sparsekm cluster` on a CSV, in process -------------------

def _setup_cli_cluster(seed, workdir, tiny):
    p, per_class = (30, 20) if tiny else (500, 334)
    data, truth = synthdata.gen_mv(synthdata.MvScenario(p=p, n_per_class=per_class, seed=seed))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / "cluster.csv"
    dataio.write_mv_csv(csv_path, data, truth)
    m = experiments.default_gaussian_m(p)
    outdir = workdir / "cluster-out"
    argv = ["cluster", "--input", str(csv_path), "--k", "3", "--method", "hard",
            "--m", str(m), "--truth-col", "label", "--out", str(outdir), "--seed", str(seed)]
    return SimpleNamespace(argv=argv, outdir=outdir, n=data.n_obs, m=m)


def _call_cli_cluster(x):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(x.argv)


def _evaluate_cli_cluster(x, rc):
    out = Outcome()
    if rc != 0:
        out.problems.append(f"cli exit code {rc}")
        return out
    files = [x.outdir / name for name in ("labels.csv", "weights.csv", "summary.json")]
    labels = np.loadtxt(files[0], dtype=np.int64, ndmin=1)
    w = np.loadtxt(files[1], dtype=np.float64, ndmin=1)
    summary = json.loads(files[2].read_text())
    for path in files:  # a later operation must write its own outputs
        path.unlink()
    out.add_labels("cli labels", labels, 3, x.n)
    out.add_weights("cli weights", w, x.m, bool(summary["support_shrunk"]))
    out.add_trace("cli objective", summary["objective_trace"])
    if summary["n_zero_weights"] != np.count_nonzero(w == 0.0):
        out.problems.append("cli summary n_zero_weights disagrees with weights.csv")
    out.quality["rand_index.hard"] = 1.0 - float(summary["cer_vs_truth"])
    out.quality["signal_recall"] = np.count_nonzero(w[:N_INFORMATIVE] > 0.0) / N_INFORMATIVE
    out.info["outer_iterations"] = summary["iterations"]
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tune-mv", _setup_tune_mv, _call_tune_mv, _evaluate_tune_mv, 3),
        Workload("gauss-wide", _setup_gauss_wide, _call_gauss_wide, _evaluate_gauss_wide, 3),
        Workload("tune-fd", _setup_tune_fd, _call_tune_fd, _evaluate_tune_fd, 6),
        Workload("cli-cluster", _setup_cli_cluster, _call_cli_cluster, _evaluate_cli_cluster, 3),
    )
}
