import numpy as np
import pytest

from sparsekm.datatypes import Dataset, FunctionalDataset, Partition
from sparsekm.dispersion import bcss_per_feature, weighted_objective
from sparsekm.engine import (
    KMeansConfig,
    _lloyd,
    _transformed_matrix,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
    uniform_weights,
    weighted_kmeans,
)
from sparsekm.errors import KTooLarge, NumericalError, ValidationError
from sparsekm.metrics import cer
from sparsekm.synthdata import MvScenario, gen_mv


def three_clouds(seed=0, n_per=12, p=4, gap=30.0):
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, p))
    centers[1, 0] = gap
    centers[2, 1] = gap
    vals = np.concatenate(
        [rng.normal(c, 1.0, size=(n_per, p)) for c in centers]
    )
    labels = np.repeat([1, 2, 3], n_per).astype(np.int64)
    return Dataset(vals), Partition(labels, 3)


class TestKMeansConfig:
    def test_defaults(self):
        cfg = KMeansConfig()
        assert cfg.k == 2
        assert cfg.n_init == 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            KMeansConfig(k=1)
        with pytest.raises(ValidationError):
            KMeansConfig(n_init=0)
        with pytest.raises(ValidationError):
            KMeansConfig(max_iter_outer=0)


class TestWeightedKmeans:
    def test_recovers_separated_clouds(self):
        d, truth = three_clouds()
        part = weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=3, seed=1))
        assert cer(truth, part) == 0.0

    def test_labels_canonical_first_appearance(self):
        d, _ = three_clouds(seed=2)
        part = weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=3, seed=5))
        firsts = [int(np.nonzero(part.labels == g)[0][0]) for g in range(1, 4)]
        assert firsts == sorted(firsts)
        assert part.labels[0] == 1

    def test_deterministic_under_seed(self):
        d, _ = three_clouds(seed=3)
        cfg = KMeansConfig(k=3, seed=42)
        a = weighted_kmeans(d, uniform_weights(d), cfg)
        b = weighted_kmeans(d, uniform_weights(d), cfg)
        assert a == b

    def test_k_too_large(self):
        d = Dataset(np.eye(3))
        with pytest.raises(KTooLarge):
            weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=4, seed=0))

    def test_warm_start_never_worse(self):
        d, truth = three_clouds(seed=4)
        w = uniform_weights(d)
        cfg = KMeansConfig(k=3, n_init=1, seed=9)
        z = _transformed_matrix(d, w)

        def wcss(part):
            tot = 0.0
            for g in range(1, part.k + 1):
                rows = z[part.labels == g]
                tot += float(((rows - rows.mean(0)) ** 2).sum())
            return tot

        warm = weighted_kmeans(d, w, cfg, init_partition=truth)
        cold = weighted_kmeans(d, w, cfg)
        assert wcss(warm) <= wcss(cold) + 1e-9

    def test_zero_weights_ignore_noise_features(self):
        # feature 0 separates the clusters; feature 1 is pure noise that, if
        # weighted, would scramble the grouping
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(0, 0.1, 10), rng.normal(5, 0.1, 10)])
        noise = rng.normal(0, 50.0, 20)
        d = Dataset(np.column_stack([x, noise]))
        truth = Partition(np.repeat([1, 2], 10).astype(np.int64), 2)
        w = np.array([1.0, 0.0])
        part = weighted_kmeans(d, w, KMeansConfig(k=2, seed=3))
        assert cer(truth, part) == 0.0

    def test_too_few_distinct_rows_is_numerical(self):
        # 12 rows with 3 distinct values cannot fill 5 clusters
        d = Dataset(np.repeat([[0.0, 1.0], [3.0, -1.0], [7.0, 2.0]], 4, axis=0))
        for seed in range(5):
            with pytest.raises(NumericalError, match="3 distinct rows for k=5"):
                weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=5, seed=seed))
        # two more distinct rows are enough
        d = Dataset(np.r_[d.values, [[15.0, 0.0], [22.0, 5.0]]])
        for seed in range(5):
            part = weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=5, seed=seed))
            assert np.all(part.sizes() >= 1)

    def test_partition_always_valid(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            n = int(rng.integers(4, 15))
            p = int(rng.integers(1, 4))
            k = int(rng.integers(2, min(n, 4) + 1))
            d = Dataset(rng.normal(size=(n, p)))
            part = weighted_kmeans(
                d, uniform_weights(d), KMeansConfig(k=k, seed=trial)
            )
            assert part.k == k
            assert np.all(part.sizes() >= 1)


class TestLloydInternals:
    def test_wcss_history_non_increasing(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(30, 3))
        for seed in range(5):
            picks = np.random.default_rng(seed).choice(30, 3, replace=False)
            _, wcss, history = _lloyd(z, 3, z[picks].copy(), 100)
            hist = np.asarray(history)
            assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1])))
            assert wcss == history[-1]


class TestSparseKmeansMv:
    def test_monotone_trace_and_valid_result(self):
        d, truth = three_clouds(seed=6)
        res = sparse_kmeans_mv(d, 3, 2, KMeansConfig(k=3, seed=0))
        trace = np.asarray(res.objective_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
        assert res.weights.m >= 2
        assert cer(truth, res.partition) == 0.0
        assert res.converged

    def test_final_state_is_fixed_point(self):
        d, _ = three_clouds(seed=7)
        cfg = KMeansConfig(k=3, seed=2)
        res = sparse_kmeans_mv(d, 3, 1, cfg)
        again = weighted_kmeans(d, res.weights.w, cfg, init_partition=res.partition)
        assert again == res.partition

    def test_weights_solve_final_partition(self):
        from sparsekm.solvers import hard_threshold_weights

        d, _ = three_clouds(seed=8)
        res = sparse_kmeans_mv(d, 3, 2, KMeansConfig(k=3, seed=4))
        disp = bcss_per_feature(d, res.partition)
        ref = hard_threshold_weights(disp, 2)
        assert np.allclose(res.weights.w, ref.w, atol=1e-12)

        # a fit capped after one outer iteration: the weights and the
        # objective still belong to the partition it returns
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        res = sparse_kmeans_mv(d, 3, 40, KMeansConfig(k=3, seed=0, max_iter_outer=1))
        disp = bcss_per_feature(d, res.partition)
        ref = hard_threshold_weights(disp, 40)
        assert np.array_equal(res.weights.w, ref.w)
        assert res.objective == weighted_objective(ref, disp)
        assert res.iterations <= 1
        assert not res.converged

    def test_m_zero_keeps_all_informative_features(self):
        d, _ = three_clouds(seed=9)
        res = sparse_kmeans_mv(d, 3, 0, KMeansConfig(k=3, seed=1))
        assert res.weights.m == 0
        assert np.all(res.weights.w > 0.0)

    def test_determinism(self):
        d, _ = three_clouds(seed=10)
        cfg = KMeansConfig(k=3, seed=77)
        r1 = sparse_kmeans_mv(d, 3, 2, cfg)
        r2 = sparse_kmeans_mv(d, 3, 2, cfg)
        assert r1.partition == r2.partition
        assert np.array_equal(r1.weights.w, r2.weights.w)
        assert r1.objective_trace == r2.objective_trace


class TestSoftSparseKmeansMv:
    def test_l1_budget_respected(self):
        d, truth = three_clouds(seed=11)
        res = soft_sparse_kmeans_mv(d, 3, 1.5, KMeansConfig(k=3, seed=0))
        assert res.weights.l1() <= 1.5 + 1e-8
        assert cer(truth, res.partition) == 0.0

    def test_trace_monotone(self):
        d, _ = three_clouds(seed=12)
        res = soft_sparse_kmeans_mv(d, 3, 1.3, KMeansConfig(k=3, seed=3))
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


def two_curve_clusters(seed=0, n_per=15, n_grid=30):
    """Curves separated only on the right half of the domain."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n_grid)
    base = rng.normal(0.0, 0.3, size=(2 * n_per, n_grid))
    bump = np.where(grid > 0.5, 5.0, 0.0)
    base[n_per:] += bump
    labels = np.repeat([1, 2], n_per).astype(np.int64)
    return FunctionalDataset(grid, base), Partition(labels, 2)


class TestSparseKmeansFd:
    def test_recovers_clusters_and_support_side(self):
        fd, truth = two_curve_clusters()
        res = sparse_kmeans_fd(fd, 2, 0.5, KMeansConfig(k=2, seed=0))
        assert cer(truth, res.partition) == 0.0
        wf = res.weights
        # all the separation lives on the right half
        left_mass = float(np.sum(wf.quad_weights[fd.grid <= 0.5] * wf.w[fd.grid <= 0.5] ** 2))
        assert left_mass < 0.05

    def test_mirrored_separation_flips_support(self):
        fd, truth = two_curve_clusters(seed=1)
        mirrored = FunctionalDataset(fd.grid, fd.values[:, ::-1])
        res = sparse_kmeans_fd(mirrored, 2, 0.5, KMeansConfig(k=2, seed=0))
        assert cer(truth, res.partition) == 0.0
        wf = res.weights
        right_mass = float(
            np.sum(wf.quad_weights[fd.grid >= 0.5] * wf.w[fd.grid >= 0.5] ** 2)
        )
        assert right_mass < 0.05

    def test_trace_monotone_and_deterministic(self):
        fd, _ = two_curve_clusters(seed=2)
        cfg = KMeansConfig(k=2, seed=5)
        r1 = sparse_kmeans_fd(fd, 2, 0.4, cfg)
        r2 = sparse_kmeans_fd(fd, 2, 0.4, cfg)
        trace = np.asarray(r1.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
        assert r1.partition == r2.partition
        assert np.array_equal(r1.weights.w, r2.weights.w)

    def test_uniform_weight_array_integrates_to_one(self):
        fd, _ = two_curve_clusters(seed=3)
        w = uniform_weights(fd)
        assert float(np.sum(fd.quad_weights * w**2)) == pytest.approx(1.0, abs=1e-12)
        d = Dataset(np.random.default_rng(3).normal(size=(6, 5)))
        w = uniform_weights(d)
        assert float(np.sum(w**2)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w == 1.0 / np.sqrt(5))
