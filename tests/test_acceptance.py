"""Acceptance gate: eight end-to-end checks over the whole package.

Each test prints one pass/fail line with its key numbers (visible in the
failure report, or with -s). Tolerances and time limits are pinned in the
assertions. Check 5 currently fails and is expected to; the analysis of
why is in README's "One acceptance check fails..." paragraph.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sparsekm.datatypes import Dataset, Partition
from sparsekm.dispersion import Dispersion, bcss_per_feature
from sparsekm.engine import (
    KMeansConfig,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
)
from sparsekm.experiments import run_curve_benchmark, run_gaussian_benchmark
from sparsekm.metrics import cer, confusion
from sparsekm.solvers import hard_threshold_weights, soft_threshold_weights
from sparsekm.synthdata import MvScenario, gen_mv
from sparsekm.tuning import tune_m_mv


@pytest.fixture(scope="module")
def curve_batch():
    """One seeded 10-run curve benchmark, shared by checks 4, 5 and 6."""
    start = time.perf_counter()
    records, summaries, details = run_curve_benchmark(
        runs=10, seed=0, keep_details=True
    )
    elapsed = time.perf_counter() - start
    return records, summaries, details, elapsed


def test_1_hard_solver_matches_enumeration():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        p = int(rng.integers(1, 9))
        b = rng.normal(size=p) * 10.0 ** int(rng.integers(-6, 7))
        if np.all(b <= 0.0):
            b = -b
        m = int(rng.integers(0, p))

        wv = hard_threshold_weights(Dispersion(np.maximum(b, 0.0)), m)
        got = frozenset(np.nonzero(wv.w > 0.0)[0].tolist())

        pos = [i for i in range(p) if b[i] > 0.0]
        size = min(p - m, len(pos))
        sq = (b * b).tolist()
        best, best_val = None, -1.0
        for combo in itertools.combinations(pos, size):
            val = sum(sq[i] for i in combo)
            if val > best_val:
                best, best_val = combo, val
        assert got == frozenset(best)

        w_formula = np.zeros(p)
        sel = list(best)
        w_formula[sel] = b[sel] / math.sqrt(best_val)
        worst = max(worst, float(np.max(np.abs(wv.w - w_formula))))
    elapsed = time.perf_counter() - start
    print(
        f"acceptance 1: PASS (10000 draws, max weight error {worst:.2e}, "
        f"{elapsed:.1f}s)"
    )
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_2_soft_solver_constraints():
    rng = np.random.default_rng(477)
    start = time.perf_counter()
    worst_norm = 0.0
    worst_eq = 0.0
    n_binding = 0
    for _ in range(1_000):
        p = int(rng.integers(2, 41))
        a = rng.normal(size=p) * 10.0 ** int(rng.integers(-3, 4))
        if np.all(a <= 0.0):
            a = -a
        s = 1.0 + float(rng.uniform(0.001, 0.999)) * (math.sqrt(p) - 1.0)

        wv = soft_threshold_weights(Dispersion(np.maximum(a, 0.0)), s)
        l2 = float(np.linalg.norm(wv.w))
        l1 = float(wv.w.sum())
        worst_norm = max(worst_norm, abs(l2 - 1.0))
        assert abs(l2 - 1.0) <= 1e-9
        assert l1 <= s + 1e-8

        a_pos = np.clip(a, 0.0, None)
        unconstrained_l1 = float(a_pos.sum() / np.linalg.norm(a_pos))
        if unconstrained_l1 > s + 1e-6:
            n_binding += 1
            worst_eq = max(worst_eq, abs(l1 - s))
            assert abs(l1 - s) <= 1e-8
    elapsed = time.perf_counter() - start
    print(
        f"acceptance 2: PASS (1000 draws, {n_binding} binding, "
        f"max norm error {worst_norm:.2e}, max budget error {worst_eq:.2e}, "
        f"{elapsed:.1f}s)"
    )
    assert n_binding > 100
    assert elapsed < 5.0


def test_3_gaussian_benchmark_means():
    start = time.perf_counter()
    means = {}
    for p in (50, 200, 500):
        _, summaries, _ = run_gaussian_benchmark(p, runs=20, seed=0)
        means[p] = {s.method: s.mean_cer for s in summaries}
    elapsed = time.perf_counter() - start
    line = "; ".join(
        f"p={p} hard {m['hard-sparse']:.4f} soft {m['soft-sparse']:.4f} "
        f"std {m['standard']:.4f}"
        for p, m in means.items()
    )
    print(f"acceptance 3: PASS ({line}, {elapsed:.1f}s)")
    for p in (50, 200, 500):
        assert means[p]["hard-sparse"] <= 0.05
        assert means[p]["soft-sparse"] <= 0.06
    for p in (200, 500):
        assert means[p]["standard"] >= 0.10
    assert elapsed < 300.0


def test_4_curve_benchmark_means(curve_batch):
    records, summaries, _, elapsed = curve_batch
    by = {s.method: s for s in summaries}
    std = {r.run: r.cer for r in records if r.method == "standard"}
    sparse = {r.run: r.cer for r in records if r.method == "sparse"}
    wins = sum(sparse[i] < std[i] for i in range(10))
    print(
        f"acceptance 4: PASS (sparse mean {by['sparse'].mean_cer:.4f}, "
        f"standard mean {by['standard'].mean_cer:.4f}, wins {wins}/10, "
        f"{elapsed:.1f}s)"
    )
    assert by["sparse"].mean_cer <= 0.15
    assert by["standard"].mean_cer >= 0.30
    assert wins >= 9
    assert elapsed < 300.0


def test_5_weight_support_shape(curve_batch):
    _, _, details, _ = curve_batch
    good = 0
    rows = []
    for det in details:
        wf = det.sparse.weights
        mask = wf.w > 0.0
        lower = float(wf.grid[mask][0])
        rho = float(spearmanr(wf.grid[mask], wf.w[mask]).correlation)
        ok = 0.45 <= lower <= 0.60 and rho >= 0.99
        good += ok
        rows.append(f"run {det.run}: lower {lower:.3f} rho {rho:.4f}")
    verdict = "PASS" if good >= 8 else "FAIL"
    print(f"acceptance 5: {verdict} ({good}/10 runs with support low point "
          f"in [0.45, 0.60] and rho >= 0.99; need 8)")
    for row in rows:
        print("  " + row)
    assert good >= 8, (
        f"only {good}/10 converged weight functions have their support "
        "starting in [0.45, 0.60] with near-monotone weights; the solver "
        "objective genuinely prefers these fixed points on 9 of the 10 "
        'seeded datasets. Analysis: README, "One acceptance check fails..." paragraph'
    )


def test_6_confusion_off_diagonal(curve_batch):
    # pinned seeded run: index 1 of the seed-0 batch
    _, _, details, _ = curve_batch
    det = details[1]
    cm = confusion(det.truth, det.sparse.partition)
    off = cm.off_diagonal()
    print(f"acceptance 6: PASS (run 1, {off} off-diagonal of {cm.n_obs})")
    assert cm.n_obs == 200
    assert off <= 10


def test_7_tuned_sparsity_level():
    start = time.perf_counter()
    d, _ = gen_mv(MvScenario(p=50, q=10, seed=3))
    grid = [5, 9, 14, 18, 22, 27, 31, 35, 40, 44]
    cfg = KMeansConfig(k=3, seed=0)
    m_star, _ = tune_m_mv(d, 3, grid, b_perms=20, cfg=cfg)
    res = sparse_kmeans_mv(d, 3, m_star, cfg)
    support = np.nonzero(res.weights.w > 0.0)[0]
    informative = int((support < 10).sum())
    elapsed = time.perf_counter() - start
    print(
        f"acceptance 7: PASS (m*={m_star} zeroes {m_star / 50:.0%}, "
        f"{informative}/10 informative kept, {elapsed:.1f}s)"
    )
    assert m_star >= 20
    assert informative >= 8


def pair_sum_bcss(col, part):
    n = col.size
    total = sum((col[i] - col[j]) ** 2 for i in range(n) for j in range(n)) / n
    within = 0.0
    for g in range(1, part.k + 1):
        idx = part.members(g)
        within += sum((col[i] - col[j]) ** 2 for i in idx for j in idx) / idx.size
    return total - within


def centroid_form_bcss(col, part):
    grand = col.mean()
    out = 0.0
    for g in range(1, part.k + 1):
        members = col[part.labels == g]
        out += members.size * (members.mean() - grand) ** 2
    return 2.0 * out


def random_partition(rng, n, k):
    labels = np.zeros(n, dtype=np.int64)
    labels[:k] = np.arange(1, k + 1)
    labels[k:] = rng.integers(1, k + 1, size=n - k)
    rng.shuffle(labels)
    return Partition.from_labels(labels)


def cer_pair_loop(l1, l2):
    n = len(l1)
    disagree, total = 0, 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            if (l1[i] == l1[j]) != (l2[i] == l2[j]):
                disagree += 1
    return disagree / total


def test_8_property_suite():
    rng = np.random.default_rng(88)

    # objective traces never decrease, across both data kinds and solvers
    slack_violations = 0
    for t in range(100):
        kind = t % 3
        n = int(rng.integers(8, 25))
        k = int(rng.integers(2, 4))
        cfg = KMeansConfig(k=k, n_init=3, seed=t)
        if kind < 2:
            p = int(rng.integers(3, 11))
            d = Dataset(rng.normal(size=(n, p)))
            if kind == 0:
                res = sparse_kmeans_mv(d, k, int(rng.integers(0, p)), cfg)
            else:
                s = 1.05 + float(rng.uniform(0.0, 0.9)) * (math.sqrt(p) - 1.05)
                res = soft_sparse_kmeans_mv(d, k, s, cfg)
        else:
            g = int(rng.integers(8, 25))
            grid = np.linspace(0.0, 1.0, g)
            fd = Dataset(rng.normal(size=(n, g)), grid=grid)
            m = float(rng.uniform(0.05, 0.7))
            res = sparse_kmeans_fd(fd, k, m, cfg)
        trace = np.asarray(res.objective_trace)
        eps = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        slack_violations += int(np.any(np.diff(trace) < -eps))
    assert slack_violations == 0

    # dispersion identity: pairwise form equals twice the centroid form
    worst_rel = 0.0
    for t in range(25):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(1, 5))
        d = Dataset(rng.normal(size=(n, p)) * 10.0 ** int(rng.integers(-2, 3)))
        part = random_partition(rng, n, int(rng.integers(2, min(n, 4) + 1)))
        disp = bcss_per_feature(d, part)
        for j in range(p):
            a = pair_sum_bcss(d.values[:, j], part)
            c = centroid_form_bcss(d.values[:, j], part)
            scale = max(abs(a), abs(c), 1e-30)
            worst_rel = max(
                worst_rel,
                abs(disp.b[j] - a) / scale,
                abs(disp.b[j] - c) / scale,
            )
    assert worst_rel <= 1e-9

    # fast CER equals the literal pair loop, exactly
    for t in range(200):
        n = int(rng.integers(2, 40))
        kmax = min(n, 5)
        a = random_partition(rng, n, int(rng.integers(1, kmax + 1)))
        b = random_partition(rng, n, int(rng.integers(1, kmax + 1)))
        assert cer(a, b) == cer_pair_loop(a.labels, b.labels)

    # reruns under a fixed seed are bit-identical
    d, _ = gen_mv(MvScenario(p=15, q=5, n_per_class=10, seed=4))
    cfg = KMeansConfig(k=3, seed=12)
    r1 = sparse_kmeans_mv(d, 3, 6, cfg)
    r2 = sparse_kmeans_mv(d, 3, 6, cfg)
    assert r1.partition == r2.partition
    assert np.array_equal(r1.weights.w, r2.weights.w)
    assert r1.objective_trace == r2.objective_trace
    b1 = run_gaussian_benchmark(20, runs=2, seed=9)[0]
    b2 = run_gaussian_benchmark(20, runs=2, seed=9)[0]
    assert [(r.run, r.method, r.cer) for r in b1] == [
        (r.run, r.method, r.cer) for r in b2
    ]

    print(
        "acceptance 8: PASS (100 monotone traces, dispersion identity "
        f"rel error {worst_rel:.2e}, 200 exact CER pairs, bit-identical reruns)"
    )
