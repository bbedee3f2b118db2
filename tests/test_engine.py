import gc
import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsekm import engine
from sparsekm.datatypes import Dataset, Partition, Weights, objective_slack
from sparsekm.dispersion import bcss_per_feature, weighted_objective
from sparsekm.engine import (
    KMeansConfig,
    _best_weighted_lloyd,
    _canonical_labels,
    _cluster_means,
    _kmeanspp_init,
    _lloyd,
    _n_distinct,
    _restart_draws,
    _row_factor,
    _transformed_matrix,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
    uniform_weights,
    weighted_kmeans,
)
from sparsekm.errors import (
    DimensionMismatch,
    GridMismatch,
    KTooLarge,
    NonFinite,
    NonFiniteDistances,
    NonPositiveDispersion,
    NumericalError,
    PartitionMismatch,
    SOutOfRange,
    SparsityOutOfRange,
    TooFewDistinctRows,
    ValidationError,
)
from sparsekm.experiments import run_gaussian_benchmark
from sparsekm.metrics import cer
from sparsekm.rngutil import STREAM_RESTART, spawn_rng
from sparsekm.solvers import hard_threshold_weights
from sparsekm.synthdata import FdScenario, MvScenario, gen_fd, gen_mv


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

    def test_warm_start_with_another_k_rejected(self):
        d = Dataset(np.random.default_rng(16).normal(size=(30, 4)))
        for k in (2, 4):
            warm = Partition(np.arange(30) % k + 1, k)
            with pytest.raises(PartitionMismatch, match=f"k={k}, config has k=3"):
                weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=3), init_partition=warm)

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


def _norms(z):
    """The squared row norms _best_weighted_lloyd forms once for seeding and Lloyd."""
    return np.add.reduce(z * z, axis=1)


def _lloyd_alone(z, centroids, max_iter):
    """_lloyd on a stack of one start, unpacked to (labels, wcss, steps)."""
    labels, wcss, steps = _lloyd(z, _norms(z), centroids[None], max_iter)
    return labels[0], wcss[0], int(steps[0])


class TestLloydInternals:
    def test_wcss_history_non_increasing(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=(30, 3))
        for seed in range(5):
            picks = np.random.default_rng(seed).choice(30, 3, replace=False)
            _, wcss, steps = _lloyd_alone(z, z[picks].copy(), 100)
            # a run capped at s steps returns the WCSS after step s
            capped = [_lloyd_alone(z, z[picks].copy(), s) for s in range(1, steps + 1)]
            assert [c[2] for c in capped] == list(range(1, steps + 1))
            history = [c[1] for c in capped]
            hist = np.asarray(history)
            assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1])))
            assert wcss == history[-1]

    def test_reseed_never_empties_another_cluster(self):
        # cluster 1 starts empty; the row farthest from its centroid (5.0) is
        # the only member of cluster 0 and must not be taken
        z = np.array([[5.0], [20.0], [21.0], [22.0]])
        labels, _, _ = _lloyd_alone(z, np.array([[0.0], [100.0], [21.0]]), 1)
        assert np.all(np.bincount(labels, minlength=3) >= 1)

    def test_capped_wcss_counts_a_reseeded_row_at_zero(self):
        # the reseed moves 20.0 into the empty cluster 1: 25 + 0 + 0 + 1
        z = np.array([[5.0], [20.0], [21.0], [22.0]])
        labels, wcss, _ = _lloyd_alone(z, np.array([[0.0], [100.0], [21.0]]), 1)
        assert labels.tolist() == [0, 1, 2, 2] and wcss == 26.0

    def test_starts_end_as_they_would_alone(self):
        """Starts that reach their fixed points at different steps each get
        the labels, WCSS and step count they get alone, and a cap applies to
        each start separately."""
        rng = np.random.default_rng(9)
        z = np.r_[rng.normal(0.0, 1.0, size=(40, 3)), rng.normal(2.0, 1.0, size=(40, 3))]
        starts = _kmeanspp_init(z, _norms(z), 3, 0, 8)
        assert starts.tobytes() == _ref_seeding_stack(z, 3, 0, 8).tobytes()
        alone = [_lloyd_alone(z, c, 100) for c in starts]
        own_steps = sorted({a[2] for a in alone})
        assert len(own_steps) >= 3
        for cap in (own_steps[0], own_steps[1], 100):
            labels, wcss, steps = _lloyd(z, _norms(z), starts, cap)
            for s, c in enumerate(starts):
                want = _lloyd_alone(z, c, cap)
                assert want[2] == min(alone[s][2], cap)
                assert np.array_equal(labels[s], want[0])
                assert wcss[s].tobytes() == want[1].tobytes() and steps[s] == want[2]

    def test_peak_memory_two_distance_stacks(self):
        """One call holds at most two S·n·k float64 arrays at once, the
        distances and the doubled product, besides three (S, n) intp arrays:
        the labels, the previous labels and the flat offsets."""
        n, a, k, n_starts = 20_000, 20, 5, 10
        rng = np.random.default_rng(5)
        z = rng.normal(size=(n, a))
        z[:, :3] += 3.0 * rng.normal(size=(k, 3))[rng.integers(k, size=n)]
        starts, sq = z[rng.choice(n, size=(n_starts, k))], _norms(z)
        tracemalloc.start()
        try:
            _, _, steps = _lloyd(z, sq, starts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps.tolist() == [3] * n_starts
        itemsize = np.dtype(np.float64).itemsize
        bound = (2 * n_starts * n * k + 3 * n_starts * n) * itemsize + (1 << 19)
        assert peak <= bound, f"traced peak {peak} bytes, bound {bound}"


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
        r2 = sparse_kmeans_mv(d, 3, 2.0, cfg)  # a whole float m counts as the int
        assert r1.partition == r2.partition
        assert np.array_equal(r1.weights.w, r2.weights.w)
        assert r1.objective_trace == r2.objective_trace


class TestCycleStop:
    def test_revisited_partition_ends_the_loop(self, monkeypatch):
        """K-means that sends a partition to its relabelled copy and back: the
        loop stops when a partition repeats and returns the revisited one,
        with its own weights and objective."""
        d, a = gen_mv(MvScenario(p=20, seed=0))
        b = Partition(np.array([2, 1, 3])[a.labels - 1], 3)
        warm = []

        def swap(d_, w, cfg, init_partition=None):
            warm.append(init_partition)
            return b if init_partition == a else a

        monkeypatch.setattr(engine, "weighted_kmeans", swap)
        res = sparse_kmeans_mv(d, 3, 10, KMeansConfig(), start=a)
        assert res.partition == a and res.converged and res.iterations == 3
        assert warm == [a, b]
        disp = bcss_per_feature(d, a)
        ref = hard_threshold_weights(disp, 10)
        assert res.weights.w.tobytes() == ref.w.tobytes()
        assert res.objective_trace[-1] == weighted_objective(ref, disp)


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


class TestSparsityRange:
    def test_out_of_range_m_raises_before_any_kmeans_run(self, monkeypatch):
        def no_kmeans(*args, **kwargs):
            raise AssertionError("K-means ran before m was checked")

        monkeypatch.setattr(engine, "weighted_kmeans", no_kmeans)
        d, _ = three_clouds(seed=11)
        for m in (-1, d.n_features, 1.5):
            with pytest.raises(SparsityOutOfRange):
                sparse_kmeans_mv(d, 3, m)
        for s in (100.0, 0.5, float("nan")):
            with pytest.raises(SOutOfRange):
                soft_sparse_kmeans_mv(d, 3, s)
        fd, _ = two_curve_clusters(seed=4)
        for m in (0.0, fd.domain_measure, float("nan")):
            with pytest.raises(SparsityOutOfRange):
                sparse_kmeans_fd(fd, 2, m)


def two_curve_clusters(seed=0, n_per=15, n_grid=30):
    """Curves separated only on the right half of the domain."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n_grid)
    base = rng.normal(0.0, 0.3, size=(2 * n_per, n_grid))
    bump = np.where(grid > 0.5, 5.0, 0.0)
    base[n_per:] += bump
    labels = np.repeat([1, 2], n_per).astype(np.int64)
    return Dataset(base, grid=grid), Partition(labels, 2)


class TestSparseKmeansFd:
    def test_recovers_clusters_and_support_side(self):
        fd, truth = two_curve_clusters()
        res = sparse_kmeans_fd(fd, 2, 0.5, KMeansConfig(k=2, seed=0))
        assert cer(truth, res.partition) == 0.0
        wf = res.weights
        # all the separation lives on the right half
        left_mass = float(np.sum(wf.quad_weights[fd.grid <= 0.5] * wf.w[fd.grid <= 0.5] ** 2))
        assert left_mass < 0.05

    def test_weights_carry_the_dataset_masses(self):
        fd, _ = two_curve_clusters(seed=5)
        wf = sparse_kmeans_fd(fd, 2, 0.5, KMeansConfig(k=2, seed=0)).weights
        assert np.array_equal(wf.quad_weights, fd.quad_weights)
        assert np.array_equal(wf.grid, fd.grid)

    def test_mirrored_separation_flips_support(self):
        fd, truth = two_curve_clusters(seed=1)
        mirrored = Dataset(fd.values[:, ::-1], grid=fd.grid)
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


def sparse_weight_cases(n_cases=40):
    """Seeded datasets (vectors and curves) with weights that are zero on
    about half the columns."""
    rng = np.random.default_rng(31)
    for case in range(n_cases):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(3, 30))
        values = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        if case % 2:
            d = Dataset(values, grid=np.sort(rng.uniform(0.0, 1.0, p)) + np.arange(p))
        else:
            d = Dataset(values)
        w = rng.uniform(0.0, 1.0, size=p) * (rng.random(p) < 0.5)
        w[int(rng.integers(p))] = 1.0  # at least one active column
        k = int(rng.integers(2, min(n, 5) + 1))
        yield d, w, KMeansConfig(k=k, n_init=3, seed=case)


class TestWeightsCheck:
    """A weighting is checked once, before any transform, row factor or
    seeding: a bad one raises its own ValidationError and no RuntimeWarning."""

    BAD = [
        pytest.param(lambda w: w[:-1], DimensionMismatch, id="short"),
        pytest.param(lambda w: np.r_[w, w[0]], DimensionMismatch, id="long"),
        pytest.param(lambda w: w[None], DimensionMismatch, id="2d"),
        pytest.param(lambda w: np.r_[-w[0], w[1:]], SparsityOutOfRange, id="negative"),
        pytest.param(lambda w: np.r_[w[:1], np.nan, w[2:]], NonFinite, id="nan"),
        pytest.param(lambda w: np.r_[w[:1], np.inf, w[2:]], NonFinite, id="inf"),
        pytest.param(lambda w: np.r_[w[:1], -np.inf, w[2:]], NonFinite, id="-inf"),
    ]

    @pytest.mark.parametrize("bad, error", BAD)
    def test_raises_before_any_work(self, monkeypatch, bad, error):
        def never(*args, **kwargs):
            raise AssertionError("work began before the weights check")

        for name in ("_transformed_matrix", "_row_factor", "_kmeanspp_init"):
            monkeypatch.setattr(engine, name, never)
        d, _ = three_clouds(seed=16)
        fd, _ = two_curve_clusters(seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data, k in ((d, 3), (fd, 2)):
                w = bad(uniform_weights(data))
                cfg, start = KMeansConfig(k=k), Partition(np.arange(data.n_obs) % k + 1, k)
                for call in (lambda: engine._checked_weights(data, w),
                             lambda: weighted_kmeans(data, w, cfg),
                             lambda: weighted_kmeans(data, w, cfg, init_partition=start)):
                    with pytest.raises(error) as info:
                        call()
                    assert type(info.value) is error

    def test_weights_of_another_length(self):
        d, _ = three_clouds(seed=16)
        other = Weights(np.full(d.n_features + 1, 1.0 / np.sqrt(d.n_features + 1)), 0)
        with pytest.raises(DimensionMismatch, match=r"shape \(5,\) for the 4 columns"):
            weighted_kmeans(d, other, KMeansConfig(k=3))


class TestActiveColumns:
    def test_transformed_matrix_keeps_positive_scale_columns(self):
        for d, w, _ in sparse_weight_cases():
            z = _transformed_matrix(d, w)
            scale = w if d.quad_weights is None else d.quad_weights * w
            keep = scale > 0.0
            assert z.shape == (d.n_obs, int(keep.sum()))
            assert np.array_equal(z, d.values[:, keep] * np.sqrt(scale[keep]))

    def test_same_labels_as_zero_padded_matrix(self):
        for d, w, cfg in sparse_weight_cases():
            scale = w if d.quad_weights is None else d.quad_weights * w
            padded = d.values * np.sqrt(scale)
            active = _transformed_matrix(d, w)
            cold_a, _ = _best_weighted_lloyd(active, cfg, None)
            cold_p, _ = _best_weighted_lloyd(padded, cfg, None)
            assert cold_a == cold_p
            warm = Partition(np.arange(d.n_obs) % cfg.k + 1, cfg.k)
            warm_a, _ = _best_weighted_lloyd(active, cfg, warm)
            warm_p, _ = _best_weighted_lloyd(padded, cfg, warm)
            assert warm_a == warm_p

    def test_all_zero_weights_still_too_few_distinct_rows(self):
        d, _ = three_clouds(seed=13)
        with pytest.raises(NumericalError, match="1 distinct rows for k=3"):
            weighted_kmeans(d, np.zeros(d.n_features), KMeansConfig(k=3, seed=0))


class TestStart:
    def test_start_gives_the_cold_fit(self):
        d, _ = three_clouds(seed=14)
        fd, _ = two_curve_clusters(seed=4)
        for fit, data, k, m in ((sparse_kmeans_mv, d, 3, 2), (sparse_kmeans_fd, fd, 2, 0.4)):
            cfg = KMeansConfig(n_init=3, seed=6)
            start = weighted_kmeans(data, uniform_weights(data), replace(cfg, k=k))
            cold = fit(data, k, m, cfg)
            warm = fit(data, k, m, cfg, start=start)
            assert warm.partition == cold.partition
            assert np.array_equal(warm.weights.w, cold.weights.w)
            assert warm.objective_trace == cold.objective_trace
            assert warm.converged == cold.converged

    def test_wrong_k_or_n_obs_rejected(self):
        d, truth = three_clouds(seed=15)
        fd, fd_truth = two_curve_clusters(seed=5)
        short = Partition(truth.labels[:-1], 3)
        with pytest.raises(PartitionMismatch, match="k=3"):
            sparse_kmeans_mv(d, 2, 1, start=truth)
        with pytest.raises(PartitionMismatch, match="observations"):
            sparse_kmeans_mv(d, 3, 1, start=short)
        with pytest.raises(PartitionMismatch, match="k=2"):
            sparse_kmeans_fd(fd, 3, 0.4, start=fd_truth)
        with pytest.raises(PartitionMismatch, match="observations"):
            sparse_kmeans_fd(fd, 2, 0.4, start=Partition(fd_truth.labels[1:], 2))

    def test_checked_before_any_work(self, monkeypatch):
        """A wrong k or a start of another k or length fails before any
        transform, row factor, seeding, dispersion or K-means run."""

        def never(*args, **kwargs):
            raise AssertionError("work began before the start check")

        for name in ("_transformed_matrix", "_row_factor", "_kmeanspp_init", "bcss_per_feature"):
            monkeypatch.setattr(engine, name, never)
        d, truth = three_clouds(seed=15)
        w, cfg = uniform_weights(d), KMeansConfig(k=3)
        with pytest.raises(KTooLarge, match="k=37 exceeds the 36 observations"):
            weighted_kmeans(d, w, replace(cfg, k=37))
        with pytest.raises(PartitionMismatch, match="k=2, config has k=3"):
            weighted_kmeans(d, w, cfg, init_partition=Partition(np.arange(36) % 2 + 1, 2))
        with pytest.raises(PartitionMismatch, match="35 observations, data has 36"):
            weighted_kmeans(d, w, cfg, init_partition=Partition(truth.labels[1:], 3))
        monkeypatch.setattr(engine, "weighted_kmeans", never)
        with pytest.raises(PartitionMismatch, match="35 observations, data has 36"):
            sparse_kmeans_mv(d, 3, 1, start=Partition(truth.labels[1:], 3))
        with pytest.raises(KTooLarge, match="k=37"):
            sparse_kmeans_mv(d, 37, 1)


# Reference copies of the Lloyd engine with no lockstep and no row norm
# cache: every restart runs alone to its own fixed point or cap, and every
# step recomputes the row norms. With masked means (the sequential reference)
# _best_weighted_lloyd must give the same partition; with one-hot means, the
# arithmetic it runs, the same WCSS bits as well.
def _ref_pairwise_sq_dists(z, centroids):
    d2 = (
        np.sum(z * z, axis=1)[:, None]
        + np.sum(centroids * centroids, axis=1)[None, :]
        - 2.0 * (z @ centroids.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _ref_masked_means(z, labels0, k):
    return np.stack([z[labels0 == j].mean(axis=0) for j in range(k)])


def _ref_onehot_means(z, labels0, k):
    return ((labels0 == np.arange(k)[:, None]) @ z) / np.bincount(labels0, minlength=k)[:, None]


def _ref_kmeanspp_init(z, k, rng):
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


def _ref_seeding_stack(z, k, seed, n_init):
    """The reference draws of restarts 0..n_init-1, one stream after another."""
    return np.stack([_ref_kmeanspp_init(z, k, spawn_rng(seed, STREAM_RESTART, r)) for r in range(n_init)])


def _ref_gram_seeding_stack(z, k, seed, n_init):
    """The Gram-form picks of restarts 0..n_init-1, one restart at a time:
    each D^2 row is max(sq_i + sq_p - 2 z_i·z_p, 0) from the pick's own
    product z[[p]] @ z.T, and each pick searches the cumulative sums of the
    running minimum; a zero total draws a uniform index."""
    n = z.shape[0]
    sq = np.add.reduce(z * z, axis=1)
    stack = []
    for r in range(n_init):
        rng = spawn_rng(seed, STREAM_RESTART, r)
        picks = [int(rng.integers(n))]
        for j in range(1, k):
            p = picks[-1]
            row = np.maximum((sq + sq[p]) - 2.0 * (z[[p]] @ z.T)[0], 0.0)
            d2 = row if j == 1 else np.minimum(d2, row)
            cum = np.cumsum(d2)
            if cum[-1] == 0.0:
                picks.append(int(rng.integers(n)))
            else:
                picks.append(min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), n - 1))
        stack.append(z[picks])
    return np.stack(stack)


def _ref_lloyd(z, k, centroids, max_iter, means):
    n = z.shape[0]
    rows = np.arange(n)
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = _ref_pairwise_sq_dists(z, centroids)
        new_labels = d2.argmin(axis=1)
        closest = d2[rows, new_labels]
        sizes = np.bincount(new_labels, minlength=k)
        if not sizes.all():
            n_distinct = np.unique(z, axis=0).shape[0]
            if n_distinct < k:
                raise TooFewDistinctRows(f"{n_distinct} distinct rows for k={k} clusters")
            for j in np.flatnonzero(sizes == 0):
                far = int(np.argmax(np.where(sizes[new_labels] > 1, closest, -1.0)))
                sizes[new_labels[far]] -= 1
                sizes[j] = 1
                new_labels[far] = j
                closest[far] = 0.0
        history.append(float(closest.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centroids = means(z, labels, k)
    return labels, history[-1]


def _ref_best_weighted_lloyd(z, cfg, warm, means=_ref_masked_means):
    k = int(cfg.k)
    best_labels, best_wcss = None, np.inf
    if warm is not None:
        centroids = means(z, warm.labels - 1, warm.k)
        best_labels, best_wcss = _ref_lloyd(z, k, centroids, cfg.max_iter_lloyd, means)
    for r in range(int(cfg.n_init)):
        rng = spawn_rng(cfg.seed, STREAM_RESTART, r)
        labels, wcss = _ref_lloyd(z, k, _ref_kmeanspp_init(z, k, rng), cfg.max_iter_lloyd, means)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return Partition(_canonical_labels(best_labels), k), best_wcss


def lloyd_cases(n_cases=240):
    """Seeded transformed matrices: clustered or plain Gaussian rows, some
    rounded so that distances tie, Lloyd caps of 1, 2, 3 and 100, with and
    without a warm start."""
    rng = np.random.default_rng(77)
    for case in range(n_cases):
        n = int(rng.integers(8, 121))
        p = int(rng.integers(1, 31))
        k = int(rng.integers(2, min(n, 5) + 1))
        z = rng.normal(size=(n, p))
        if case % 3 == 0:
            z += 6.0 * rng.normal(size=(k, p))[rng.integers(k, size=n)]
        if case % 4 == 1:
            z = np.round(z)
        cap = (1, 2, 3, 100)[case % 4 if case % 5 else 3]
        cfg = KMeansConfig(k=k, n_init=int(rng.integers(1, 11)), max_iter_lloyd=cap, seed=case)
        warm = None
        if case % 2:
            warm = Partition(np.r_[np.arange(k), rng.integers(k, size=n - k)] + 1, k)
        yield z, cfg, warm


def wide_lloyd_cases():
    """The shapes of the wide workloads, which lloyd_cases does not reach:
    60 rows of 400 and of 2000 columns, and 1002 rows of 100 and of 500 (the
    uniform-weight start of a 1002 x 500 table, where one distance product
    serves every start of the stack), at k = 2 (cold) and k = 3
    (warm-started), with clusters on the first 10 columns."""
    rng = np.random.default_rng(78)
    for n, p in ((60, 400), (60, 2000), (1002, 100), (1002, 500)):
        for k in (2, 3):
            z = rng.normal(size=(n, p))
            z[:, :10] += 2.0 * rng.normal(size=(k, 10))[rng.integers(k, size=n)]
            cfg = KMeansConfig(k=k, n_init=10, seed=n + p + k)
            warm = None
            if k == 3:
                warm = Partition(np.r_[np.arange(k), rng.integers(k, size=n - k)] + 1, k)
            yield z, cfg, warm


def _assert_as_reference(z, cfg, warm, means):
    """_best_weighted_lloyd against _ref_best_weighted_lloyd with ``means``:
    the same partition, or the same TooFewDistinctRows message. Returns the
    two WCSS bytes, or None when both raised."""
    try:
        want = _ref_best_weighted_lloyd(z, cfg, warm, means)
    except TooFewDistinctRows as exc:
        with pytest.raises(TooFewDistinctRows, match=f"^{exc}$"):
            _best_weighted_lloyd(z, cfg, warm)
        return None
    got = _best_weighted_lloyd(z, cfg, warm)
    assert got[0] == want[0]
    return np.float64(got[1]).tobytes(), np.float64(want[1]).tobytes()


def _assert_seeding_pinned(z, k, seed, n_init, exact):
    """With one restart per block, _kmeanspp_init on z has the bytes of the
    Gram-form reference. When ``exact``, it has those of the exact-sum
    reference at the blocks in force, or, with fewer distinct rows than k,
    the fit raises TooFewDistinctRows instead."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "_SEED_BLOCK_CELLS", 1)
        alone = _kmeanspp_init(z, _norms(z), k, seed, n_init)
    assert alone.tobytes() == _ref_gram_seeding_stack(z, k, seed, n_init).tobytes()
    if not exact:
        return
    if _n_distinct(z) < k:
        with pytest.raises(TooFewDistinctRows, match=f"distinct rows for k={k} clusters"):
            _best_weighted_lloyd(z, KMeansConfig(k=k, n_init=n_init, seed=seed), None)
    else:
        got = _kmeanspp_init(z, _norms(z), k, seed, n_init)
        assert got.tobytes() == _ref_seeding_stack(z, k, seed, n_init).tobytes()


DEGENERATE_TOTALS = [
    np.zeros((6, 2)),
    np.full((9, 3), 2.5),
    # squared differences of 1e-170 underflow to 0: a zero D^2 total
    # over rows that are not equal
    np.array([[0.0], [1e-170], [2e-170], [3e-170], [-1e-170]]),
    np.r_[np.zeros((4, 2)), 1e-170 * np.ones((3, 2))],
    # fewer distinct rows than k, each repeated: the total falls to 0
    # once every distinct row is picked
    np.repeat([[0.0, 1.0], [3.0, -2.0]], 5, axis=0),
    np.repeat([[1.0], [4.0], [9.0]], [1, 6, 2], axis=0),
    # a NaN or an overflowing total is not a zero total
    np.r_[np.zeros((3, 2)), [[np.nan, 0.0]], np.ones((2, 2))],
    np.array([[0.0], [1e300], [-1e300], [1.0], [2.0]]),
]


class TestMergeStop:
    """The restart pool runs every start in one lockstep stack to its own
    fixed point or cap, and ends as the reference loops that run each start
    alone."""

    def test_same_partition_as_sequential_reference(self):
        for z, cfg, warm in itertools.chain(lloyd_cases(), wide_lloyd_cases()):
            _assert_as_reference(z, cfg, warm, _ref_masked_means)

    def test_same_bits_as_reference(self):
        """One restart at a time with one-hot means, the arithmetic of the
        stack: the same WCSS bytes as well."""
        for z, cfg, warm in itertools.chain(lloyd_cases(), wide_lloyd_cases()):
            wcss_bytes = _assert_as_reference(z, cfg, warm, _ref_onehot_means)
            if wcss_bytes is not None:
                assert wcss_bytes[0] == wcss_bytes[1]

    def test_stacked_means_same_bits_as_alone(self):
        """Each slice of the stacked means has the bits of that labeling's
        means alone, and two equal labelings get equal means."""
        for z, cfg, _ in itertools.chain(lloyd_cases(), wide_lloyd_cases()):
            k, n = int(cfg.k), z.shape[0]
            rng = np.random.default_rng(cfg.seed)
            labels0 = np.r_[np.arange(k), rng.integers(k, size=n - k)]
            stack = np.stack([labels0, np.roll(labels0, 1), labels0, rng.permutation(labels0)])
            sizes = np.stack([np.bincount(lab, minlength=k) for lab in stack])
            got = _cluster_means(z, stack, sizes)
            assert got.shape == (4, k, z.shape[1])
            for lab, means in zip(stack, got):
                assert means.tobytes() == _ref_onehot_means(z, lab, k).tobytes()
            assert got[0].tobytes() == got[2].tobytes()

    def test_seeding_same_bits_as_reference(self):
        """The same centroids as the reference's restarts one after another,
        as a fresh stack that _lloyd may overwrite."""
        for z, cfg, _ in lloyd_cases():
            k, n_init = int(cfg.k), int(cfg.n_init)
            got = _kmeanspp_init(z, _norms(z), k, cfg.seed, n_init)
            assert got.shape == (n_init, k, z.shape[1])
            assert got.tobytes() == _ref_seeding_stack(z, k, cfg.seed, n_init).tobytes()
            assert got.flags.writeable and not np.shares_memory(got, z)

    @pytest.mark.parametrize("z", DEGENERATE_TOTALS)
    def test_seeding_degenerate_totals_same_bits_as_reference(self, z):
        """Where the D^2 total is 0 the pick is a uniform draw: the stream is
        replayed up to it, and its later draws are as the reference's."""
        for k in range(2, min(z.shape[0], 5) + 1):
            for seed in range(6):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = _kmeanspp_init(z, _norms(z), k, seed, 7), _ref_seeding_stack(z, k, seed, 7)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 300),
        per_block=st.integers(1, 12),
        edge=st.sampled_from([-1, 0, 1]),
        n_init=st.integers(1, 12),
        k=st.integers(2, 6),
        rows=st.sampled_from(["gaussian", "rounded", "duplicated", "equal", "tiny"]),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32),
    )
    @example(n=256, per_block=1, edge=0, n_init=12, k=6, rows="rounded", order="C", seed=1)  # n·a = 2**16
    @example(n=64, per_block=4, edge=0, n_init=10, k=4, rows="duplicated", order="F", seed=2)  # n·a = 2**14
    def test_seeding_blocks_same_bits_as_reference(self, n, per_block, edge, n_init, k, rows, order, seed):
        """Seeding picks as the reference's restarts one after another
        whichever restarts share a block: _SEED_BLOCK_CELLS is set to
        n·per_block + edge, so that the blocks hold per_block restarts, or
        one fewer. The rows have about 2**16 // (per_block·n) columns and
        are tied, duplicated, equal or underflowing, in C and in Fortran
        order (the transformed matrices of the fits are often
        Fortran-ordered, and the order of a row's sum follows the layout)."""
        k = min(k, n)
        a = max(1, (2**16 // per_block) // n + edge)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, a))
        if rows == "rounded":
            z = np.round(z)
        elif rows == "duplicated":
            z = z[rng.integers(max(1, n // 4), size=n)]
        elif rows == "equal":
            z = np.full((n, a), 2.5)
        elif rows == "tiny":  # squared differences underflow to 0: a zero D^2 total
            z *= 1e-170
        z = np.asarray(z, order=order)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(engine, "_SEED_BLOCK_CELLS", n * per_block + edge)
            _assert_seeding_pinned(z, k, seed, n_init, exact=True)

    def test_seeding_peak_memory(self):
        """One call at n = 10**5, a = 20 traces within 20 MB: one restart
        per block, and a few (1, n) rows alive at once."""
        n, a, k, n_init = 100_000, 20, 5, 10
        z = np.random.default_rng(6).normal(size=(n, a))
        sq = _norms(z)
        tracemalloc.start()
        try:
            starts = _kmeanspp_init(z, sq, k, 0, n_init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts.shape == (n_init, k, a)
        assert peak <= 20_000_000, f"traced peak {peak} bytes"

    def test_restart_draws_are_fresh_stream_draws(self):
        for seed, n_init, n, k in ((0, 1, 8, 2), (5, 10, 60, 3), (2**40, 4, 1002, 5)):
            firsts, uniforms = _restart_draws(seed, n_init, n, k)
            assert firsts.shape == (n_init,) and uniforms.shape == (n_init, k - 1)
            for r in range(n_init):
                rng = spawn_rng(seed, STREAM_RESTART, r)
                assert firsts[r] == rng.integers(n)
                assert [rng.random() for _ in range(k - 1)] == uniforms[r].tolist()

    def test_restart_draws_are_read_only(self):
        """The cache hands the same arrays to every caller, so none may write them."""
        firsts, uniforms = _restart_draws(3, 4, 20, 3)
        assert _restart_draws(3, 4, 20, 3)[0] is firsts
        with pytest.raises(ValueError, match="read-only"):
            firsts[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            uniforms[0, 0] = 0.5
        assert _restart_draws.cache_info().maxsize == 1024

    @staticmethod
    def _patched_pool(monkeypatch, wcss):
        """_best_weighted_lloyd over a warm start and len(wcss) - 1 restarts
        whose _lloyd returns the given WCSS and a distinct labeling per start."""
        n, k = 12, 3
        rng = np.random.default_rng(4)
        z = rng.normal(size=(n, 2))
        labelings = np.stack([np.r_[np.arange(k), rng.integers(k, size=n - k)] for _ in wcss])

        def fixed(z, sq, centroids, max_iter):
            assert centroids.shape[0] == len(wcss)
            return labelings.copy(), np.array(wcss, dtype=float), np.ones(len(wcss), dtype=np.intp)

        monkeypatch.setattr(engine, "_lloyd", fixed)
        cfg = KMeansConfig(k=k, n_init=len(wcss) - 1)
        part, best = _best_weighted_lloyd(z, cfg, Partition(np.arange(n) % k + 1, k))
        parts = [Partition(_canonical_labels(lab), k) for lab in labelings]
        assert len({p.key() for p in parts}) == len(parts)
        return part, best, parts

    def test_nan_wcss_never_wins(self, monkeypatch):
        part, best, parts = self._patched_pool(monkeypatch, [np.nan, 5.0, np.nan, 4.0, np.inf])
        assert part == parts[3] and best == 4.0
        with pytest.raises(NonFiniteDistances, match="distances are not finite"):
            self._patched_pool(monkeypatch, [np.nan, np.inf, np.nan])

    def test_earlier_of_tied_starts_wins(self, monkeypatch):
        part, best, parts = self._patched_pool(monkeypatch, [3.0, 2.0, 5.0, 2.0])
        assert part == parts[1] and part != parts[3] and best == 2.0
        part, _, parts = self._patched_pool(monkeypatch, [1.0, 1.0, 1.0])
        assert part == parts[0]


def _benchmark_shapes():
    """(z, k) of the matrices the workloads seed, for generator seeds 0-2:
    200 curves under uniform and level-set weights (Fortran-ordered), 60
    vectors of 50 features, and 1002 x 500 and the 60 x 60 row factor of
    p = 2000."""
    for s in range(3):
        fd, _ = gen_fd(FdScenario(seed=s))
        yield _transformed_matrix(fd, uniform_weights(fd)), 2
        for m in (0.1, 0.5, 0.9):
            z = _transformed_matrix(fd, sparse_kmeans_fd(fd, 2, m, KMeansConfig(seed=s)).weights.w)
            assert z.flags.f_contiguous and not z.flags.c_contiguous
            yield z, 2
        d, _ = gen_mv(MvScenario(p=50, seed=s))
        yield _transformed_matrix(d, uniform_weights(d)), 3
    yield np.random.default_rng(5).normal(size=(1002, 500)), 3
    wide, _ = gen_mv(MvScenario(p=2000, seed=0))
    factor = _row_factor(_transformed_matrix(wide, uniform_weights(wide)))
    assert factor.shape == (60, 60)
    yield factor, 3


def _seeding_inputs():
    """Tables seeded by the pins of TestGramSeeding, with ``exact`` where the
    exact-sum pins hold: finite squares and offsets of at most 1e6."""
    d, _ = gen_mv(MvScenario(p=50, seed=0))
    w = uniform_weights(d)
    yield pytest.param(np.random.default_rng(0).normal(size=(200, 30)), 4, True, id="gaussian-200x30")
    yield pytest.param(np.random.default_rng(1).normal(size=(40, 3)) + 3e5, 3, True, id="shifted-3e5-40x3")
    yield pytest.param(np.repeat([[0.0, 1.0], [3.0, -2.0]], 5, axis=0), 3, True, id="two-rows")
    yield pytest.param(_transformed_matrix(Dataset(d.values + 3e5), w), 3, True, id="mv-shifted-3e5")
    for offset in (1e7, 1e8):
        yield pytest.param(_transformed_matrix(Dataset(d.values + offset), w), 3, False, id=f"mv-shifted-{offset:.0e}")
        z = np.asfortranarray(np.random.default_rng(2).normal(size=(200, 30)) + offset)
        yield pytest.param(z, 4, False, id=f"gaussian-shifted-{offset:.0e}-F")
    # squares past float64
    yield pytest.param(_transformed_matrix(Dataset(d.values * 1e155), w), 3, False, id="mv-scaled-1e155")
    yield pytest.param(np.random.default_rng(3).normal(size=(60, 8)) * 1e160, 3, False, id="gaussian-scaled-1e160")
    for i, z in enumerate(DEGENERATE_TOTALS):
        with np.errstate(over="ignore"):
            exact = bool(np.isfinite(_norms(z)).all())
        for k in range(2, min(z.shape[0], 5) + 1):
            yield pytest.param(z, k, exact, id=f"degenerate{i}-k{k}")


class TestGramSeeding:
    """Each kmeans++ pick is taken from the Gram-form D^2 rows: with one
    restart per block, the bits of the Gram-form reference's restarts one
    after another on every input; at any block size, those of the exact-sum
    reference's on data with finite squares, offsets of at most 1e6 and at
    least k distinct rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        a=st.integers(0, 40),
        k=st.integers(2, 6),
        n_init=st.integers(1, 12),
        rows=st.sampled_from(["gaussian", "rounded", "duplicated", "equal"]),
        offset=st.sampled_from([0.0, 1e5, 1e6, 1e7, 1e8]),
        scale=st.sampled_from([1.0, 1e-170, 1e150]),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32),
    )
    @example(n=5, a=0, k=3, n_init=4, rows="gaussian", offset=0.0, scale=1.0, order="C", seed=0)
    @example(n=300, a=40, k=6, n_init=12, rows="gaussian", offset=1e8, scale=1.0, order="F", seed=1)
    @example(n=120, a=8, k=4, n_init=7, rows="rounded", offset=1e6, scale=1e-170, order="C", seed=2)
    @example(n=200, a=30, k=5, n_init=10, rows="duplicated", offset=1e5, scale=1e150, order="F", seed=3)
    @example(n=250, a=20, k=4, n_init=9, rows="gaussian", offset=1e7, scale=1.0, order="C", seed=4)
    # fewer distinct rows than k, where the Gram-form and exact-sum picks differ
    @example(n=18, a=26, k=6, n_init=11, rows="duplicated", offset=0.0, scale=1.0, order="F", seed=1777440590)
    @example(n=10, a=26, k=3, n_init=7, rows="duplicated", offset=1e6, scale=1.0, order="C", seed=2305092260)
    def test_same_bits_as_reference(self, n, a, k, n_init, rows, offset, scale, order, seed):
        """Over offsets where cancellation hides the gaps, scales whose
        squares underflow or pass float64, tied, duplicated and equal rows,
        no columns, and C and Fortran order. Offsets of 1e7 and more leave
        the exact-sum pins, as do squares past float64."""
        k = min(k, n)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, a))
        if rows == "rounded":
            z = np.round(z)
        elif rows == "duplicated":
            z = z[rng.integers(max(1, n // 4), size=n)]
        elif rows == "equal":
            z = np.full((n, a), 2.5)
        z = np.asarray((z + offset) * scale, order=order)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = offset <= 1e6 and bool(np.isfinite(_norms(z)).all())
            _assert_seeding_pinned(z, k, seed, n_init, exact)

    @pytest.mark.parametrize("z, k, exact", _seeding_inputs())
    def test_same_bits_as_references_on_fixed_tables(self, z, k, exact):
        """Shifted tables, squares past float64, and D^2 totals that are 0,
        NaN or infinite."""
        for seed in range(4):
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_seeding_pinned(z, k, seed, 11, exact)

    def test_zero_total_replays_its_own_restart_stream(self, monkeypatch):
        """In blocks of 3 restarts, every restart meets a zero total at its
        third pick (two distinct rows, k = 3): the uniform draw that follows
        replays the stream of its own restart index, not of its place in its
        block."""
        z = np.repeat([[0.0, 1.0], [3.0, -2.0]], 5, axis=0)
        seed, n_init = 7, 10
        monkeypatch.setattr(engine, "_SEED_BLOCK_CELLS", 3 * z.shape[0])
        got = _kmeanspp_init(z, _norms(z), 3, seed, n_init)
        assert got.tobytes() == _ref_seeding_stack(z, 3, seed, n_init).tobytes()
        assert got.tobytes() == _ref_gram_seeding_stack(z, 3, seed, n_init).tobytes()

    def test_seeding_same_bits_at_benchmark_shapes(self):
        """The shapes the workloads seed, which lloyd_cases does not reach:
        the bits of both references."""
        for z, k in _benchmark_shapes():
            for seed in range(3):
                _assert_seeding_pinned(z, k, seed, 10, exact=True)


def test_row_norms_formed_once_per_call(monkeypatch):
    """_best_weighted_lloyd hands one array of squared row norms, with the
    bits of np.add.reduce(z * z, axis=1), to the seeding and to Lloyd."""
    seen = []
    for name in ("_kmeanspp_init", "_lloyd"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda z, sq, *rest, real=real: seen.append(sq) or real(z, sq, *rest))
    z = np.random.default_rng(3).normal(size=(50, 7))
    _best_weighted_lloyd(z, KMeansConfig(k=3, n_init=4), Partition(np.arange(50) % 3 + 1, 3))
    assert len(seen) == 2 and seen[0] is seen[1] and seen[0].tobytes() == _norms(z).tobytes()


class TestCanonicalLabels:
    @staticmethod
    def _unique_form(labels0):
        _, first, inverse = np.unique(labels0, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first, kind="stable"), kind="stable")
        return (rank[inverse] + 1).astype(np.int64)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 8), tail=st.lists(st.integers(0, 7), max_size=40), seed=st.integers(0, 2**32))
    def test_same_labels_as_unique_form(self, k, tail, seed):
        """On every labeling Lloyd returns, ids 0..k-1 each present, the labels
        of np.unique's first indices ranked, as int64."""
        ids = np.r_[np.arange(k), np.asarray(tail, dtype=np.intp) % k]
        labels0 = np.random.default_rng(seed).permutation(ids)
        got = _canonical_labels(labels0)
        assert got.dtype == np.int64
        assert got.tobytes() == self._unique_form(labels0).tobytes()


class TestRowFactor:
    """Where z has more columns than rows, Lloyd runs on the lower Cholesky
    factor of z zᵀ, an n-column matrix with the same row inner products."""

    def test_z_itself_when_the_factor_would_not_do(self):
        # On these rows np.linalg.cholesky of the singular Gram matrices of
        # repeated and signed returns a factor without raising; only the
        # duplicate check returns z.
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 9))
        repeated = np.r_[z, z[2:3]]
        # rows 1 and 4 are equal up to the sign of their zeros
        signed = z.copy()
        signed[1, [0, 5]] = 0.0
        signed[4] = signed[1]
        signed[4, [0, 5]] = -0.0
        infinite = z.copy()
        infinite[3, 5] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            for case in (z[:, :6], repeated, signed, infinite):
                assert _row_factor(case) is case

    def test_lower_factor_of_the_gram_matrix(self):
        rng = np.random.default_rng(41)
        for n, a in ((2, 3), (8, 9), (24, 120), (60, 400)):
            z = rng.normal(size=(n, a)) * rng.uniform(0.1, 10.0, size=a)
            z[1, 0] = z[0, 0]  # a tie in the first column, distinct rows
            factor = _row_factor(z)
            gram = z @ z.T
            assert factor.shape == (n, n)
            assert np.array_equal(factor, np.tril(factor))
            assert np.abs(factor @ factor.T - gram).max() <= 1e-12 * np.abs(gram).max()

    def test_same_partition_as_reference_on_wide_cases(self):
        """The factor changes Lloyd's arithmetic, not its answer: the
        reference's partition and WCSS to 1e-12 on every case with more
        columns than rows."""
        checked = 0
        for z, cfg, warm in itertools.chain(lloyd_cases(), wide_lloyd_cases()):
            if z.shape[1] <= z.shape[0]:
                continue
            factor = _row_factor(z)
            assert factor.shape == (z.shape[0], z.shape[0])
            want = _ref_best_weighted_lloyd(z, cfg, warm)
            got = _best_weighted_lloyd(factor, cfg, warm)
            assert got[0] == want[0]
            assert abs(got[1] - want[1]) <= 1e-12 * want[1]
            checked += 1
        assert checked == 30


class TestUniformFactor:
    """A cold uniform-weight call on a wide Dataset holds its row factor in
    the Dataset's record, so the next such call on that Dataset reuses it;
    at most one record is held."""

    @staticmethod
    def wide(seed=0, p=200):
        return gen_mv(MvScenario(p=p, seed=seed))[0]

    def test_reused_factor_same_partition(self, monkeypatch):
        d = self.wide(seed=4)
        w = uniform_weights(d)
        factor = _row_factor(_transformed_matrix(d, w))
        for seed in (0, 9):
            cfg = KMeansConfig(k=3, seed=seed)
            engine._HELD.clear()
            cold = weighted_kmeans(d, w, cfg)
            assert engine._HELD[d].factor.tobytes() == factor.tobytes()
            monkeypatch.setattr(engine, "_row_factor", _no_row_factor)
            warm = weighted_kmeans(d, uniform_weights(d), cfg)
            monkeypatch.undo()
            want, _ = _best_weighted_lloyd(factor, cfg, None)
            assert cold.labels.tobytes() == warm.labels.tobytes() == want.labels.tobytes()

    def test_gaussian_benchmark_factors_each_dataset_once(self, monkeypatch):
        """Plain, soft and hard K-means each start from a uniform-weight call:
        two datasets, two factors (six without the held one)."""
        uniform, calls = [], []

        def transformed(d, w):
            z = _transformed_matrix(d, w)
            if np.array_equal(np.asarray(getattr(w, "w", w)), uniform_weights(d)):
                uniform.append(z)
            return z

        def factor(z):
            calls.append(any(z is u for u in uniform))
            return _row_factor(z)

        monkeypatch.setattr(engine, "_transformed_matrix", transformed)
        monkeypatch.setattr(engine, "_row_factor", factor)
        run_gaussian_benchmark(p=200, runs=2)
        assert sum(calls) == 2
        assert len(calls) > 2  # the warm calls still factor their own weights

    def test_at_most_one_held_and_released_with_its_dataset(self):
        first, second = self.wide(seed=1), self.wide(seed=2)
        cfg = KMeansConfig(k=3, n_init=2)
        weighted_kmeans(first, uniform_weights(first), cfg)
        assert len(engine._HELD) == 1 and first in engine._HELD
        weighted_kmeans(second, uniform_weights(second), cfg)
        assert len(engine._HELD) == 1 and second in engine._HELD
        del second
        gc.collect()
        assert len(engine._HELD) == 0

    def test_held_factor_is_read_only(self):
        d = self.wide()
        weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=3, n_init=2))
        held = engine._HELD[d].factor
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0] = 1.0

    def test_nothing_held_unless_factored_under_uniform_weights(self):
        """Not for a ≤ n columns, rows that repeat or other weights."""
        cfg = KMeansConfig(k=3, n_init=2)
        narrow = self.wide(p=50)
        assert narrow.n_features <= narrow.n_obs
        repeated = Dataset(np.r_[self.wide().values, self.wide().values[:1]])
        wide = self.wide()
        start = weighted_kmeans(narrow, uniform_weights(narrow), cfg)
        weighted_kmeans(repeated, uniform_weights(repeated), cfg)
        weighted_kmeans(wide, uniform_weights(wide) * 2.0, cfg)
        weighted_kmeans(wide, uniform_weights(wide) * 2.0, cfg, init_partition=start)
        assert len(engine._HELD) == 0

    def test_warm_call_holds_and_reuses_the_factor(self, monkeypatch):
        """Whether the factor is held or reused is decided by the weights
        alone: a warm call under uniform weights takes the same path."""
        d = self.wide(seed=5)
        w, cfg = uniform_weights(d), KMeansConfig(k=3, n_init=2, seed=3)
        start = Partition(np.arange(d.n_obs) % 3 + 1, 3)
        first = weighted_kmeans(d, w, cfg, init_partition=start)
        factor = engine._HELD[d].factor
        monkeypatch.setattr(engine, "_transformed_matrix", _no_row_factor)
        monkeypatch.setattr(engine, "_row_factor", _no_row_factor)
        again = weighted_kmeans(d, w, cfg, init_partition=start)
        want, _ = _best_weighted_lloyd(factor, cfg, start)
        assert first.labels.tobytes() == again.labels.tobytes() == want.labels.tobytes()


def _no_row_factor(*args):
    raise AssertionError("the held factor was formed again")


class TestPowerOfTwoScale:
    """Scaling the data by 2**e is exact, so the fit must not see it: the
    same labels and weights, and the objective scaled by exactly 4**e."""

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), e=st.integers(-300, 300))
    def test_vectors(self, seed, e):
        d, _ = gen_mv(MvScenario(p=12, q=4, n_per_class=8, seed=seed))
        cfg = KMeansConfig(n_init=3, seed=seed)
        base = sparse_kmeans_mv(d, 3, 6, cfg)
        scaled = sparse_kmeans_mv(Dataset(d.values * 2.0**e), 3, 6, cfg)
        self._assert_scaled(base, scaled, e)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), e=st.integers(-300, 300))
    def test_wide_vectors(self, seed, e):
        """More columns than rows: Lloyd runs on the row factor."""
        d, _ = gen_mv(MvScenario(p=120, q=4, n_per_class=8, seed=seed))
        cfg = KMeansConfig(n_init=3, seed=seed)
        base = sparse_kmeans_mv(d, 3, 6, cfg)
        scaled = sparse_kmeans_mv(Dataset(d.values * 2.0**e), 3, 6, cfg)
        self._assert_scaled(base, scaled, e)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), e=st.integers(-300, 300))
    def test_curves(self, seed, e):
        fd, _ = gen_fd(FdScenario(n_grid=30, n_per_class=8, seed=seed))
        cfg = KMeansConfig(n_init=3, seed=seed)
        base = sparse_kmeans_fd(fd, 2, 0.5, cfg)
        scaled = sparse_kmeans_fd(Dataset(fd.values * 2.0**e, grid=fd.grid), 2, 0.5, cfg)
        self._assert_scaled(base, scaled, e)

    @staticmethod
    def _assert_scaled(base, scaled, e):
        assert scaled.partition == base.partition
        assert np.array_equal(scaled.weights.w, base.weights.w)
        assert scaled.objective_trace == tuple(v * 4.0**e for v in base.objective_trace)
        assert scaled.converged == base.converged


class TestOverflow:
    """Data near the float64 limit overflows the squared distances; that is a
    numerical failure naming its cause, not an empty-labels usage error."""

    def test_vectors(self):
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteDistances, match="distances are not finite"):
            sparse_kmeans_mv(Dataset(d.values * 1e160), 3, 40, KMeansConfig())
        assert issubclass(NonFiniteDistances, NumericalError)

    def test_curves(self):
        fd, _ = gen_fd(FdScenario(seed=0))
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteDistances, match="distances are not finite"):
            sparse_kmeans_fd(Dataset(fd.values * 1e160, grid=fd.grid), 2, 0.5, KMeansConfig())

    def test_wide_vectors(self):
        """60 rows of 200 columns: the Gram matrix overflows, so Lloyd runs
        on z itself and fails as narrow data does."""
        d, _ = gen_mv(MvScenario(p=200, seed=0))
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteDistances, match="distances are not finite"):
            sparse_kmeans_mv(Dataset(d.values * 1e160), 3, 100, KMeansConfig())

    def test_overflowing_weights_are_named(self):
        """Finite data under weights of 1e308: the weighted data overflow,
        and the message says so."""
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteDistances, match=r"\(the weighted data overflow float64\)"):
            weighted_kmeans(d, np.full(50, 1e308), KMeansConfig(k=3))

    def test_dispersion_overflow_is_numerical(self):
        """At 1e153 (vectors) and 1e152 (curves) the squared distances stay
        finite, but the squared cluster sums of the dispersion overflow: a
        NonFiniteDistances naming the first feature, with no warning."""
        d, _ = gen_mv(MvScenario(p=50, seed=0))
        fd, _ = gen_fd(FdScenario(seed=0))
        match = r"between-cluster sum of squares overflows float64 at feature \d+ \(0-based\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDistances, match=match):
                sparse_kmeans_mv(Dataset(d.values * 1e153), 3, 40, KMeansConfig())
            with pytest.raises(NonFiniteDistances, match=match):
                sparse_kmeans_fd(Dataset(fd.values * 1e152, grid=fd.grid), 2, 0.5, KMeansConfig())


class TestUnitScale:
    def test_scores_that_underflow_shrink_the_support(self):
        """Column 0 times 1e150 and column 1 times 1e-160: the second score
        is 0 over the first, so the hard rule keeps 3 of 4 features even at
        m = 0 and flags the shrink."""
        d, _ = three_clouds(seed=0, n_per=20)
        res = sparse_kmeans_mv(Dataset(d.values * [1e150, 1e-160, 1.0, 1.0]), 3, 0, KMeansConfig(seed=0))
        assert res.weights.m == 1 and res.weights.support_shrunk
        assert res.weights.w[1] == 0.0
        assert np.all(res.partition.sizes() >= 1)


class TestNoPositiveDispersion:
    """Times 1e-200 every dispersion score underflows to 0: every method
    raises the one error with the one message, and no RuntimeWarning."""

    @pytest.mark.parametrize("method", ["hard", "soft", "functional"])
    def test_one_error_for_every_method(self, method):
        if method == "functional":
            fd, _ = gen_fd(FdScenario(seed=0))
            fit = lambda: sparse_kmeans_fd(Dataset(fd.values * 1e-200, grid=fd.grid), 2, 0.5)
        else:
            d, _ = gen_mv(MvScenario(p=50, seed=0))
            tiny = Dataset(d.values * 1e-200)
            fit = lambda: sparse_kmeans_mv(tiny, 3, 40) if method == "hard" else soft_sparse_kmeans_mv(tiny, 3, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonPositiveDispersion, match="^no positive dispersion entry to retain$"):
                fit()


class TestKindOfData:
    """Vector entry points reject a grid; curve entry points need one."""

    def test_sparse_kmeans_mv_rejects_a_grid(self):
        fd, _ = two_curve_clusters(seed=1)
        with pytest.raises(GridMismatch, match="sparse_kmeans_mv needs feature vectors"):
            sparse_kmeans_mv(fd, 2, 1)

    def test_soft_sparse_kmeans_mv_rejects_a_grid(self):
        fd, _ = two_curve_clusters(seed=1)
        with pytest.raises(GridMismatch, match="soft_sparse_kmeans_mv needs feature vectors"):
            soft_sparse_kmeans_mv(fd, 2, 1.5)

    def test_sparse_kmeans_fd_needs_a_grid(self):
        d, _ = three_clouds(seed=1)
        with pytest.raises(GridMismatch, match="sparse_kmeans_fd needs curves on a grid"):
            sparse_kmeans_fd(d, 3, 0.5)


class TestDuplicateRows:
    """Rows repeated 1-3 times give k non-empty clusters with a
    non-decreasing trace, or raise TooFewDistinctRows; nothing else."""

    @given(
        seed=st.integers(0, 10_000),
        reps=st.lists(st.integers(1, 3), min_size=2, max_size=6),
        k=st.integers(2, 4),
        p=st.integers(5, 8),
        m_frac=st.floats(0.0, 1.0),
    )
    def test_vectors_and_curves(self, seed, reps, k, p, m_frac):
        rng = np.random.default_rng(seed)
        rows = np.repeat(rng.normal(size=(len(reps), p)), reps, axis=0)
        values = rows[rng.permutation(rows.shape[0])]
        k = min(k, values.shape[0])
        cfg = KMeansConfig(n_init=3, seed=seed)
        m = int(m_frac * (p - 1))
        self._assert_valid(lambda: sparse_kmeans_mv(Dataset(values), k, m, cfg), k)
        # a zero measure of 0.3 leaves more budget than any one grid cell's mass
        grid = np.linspace(0.0, 1.0, p)
        self._assert_valid(lambda: sparse_kmeans_fd(Dataset(values, grid=grid), k, 0.3, cfg), k)

    @staticmethod
    def _assert_valid(fit, k):
        try:
            res = fit()
        except TooFewDistinctRows:
            return
        assert res.partition.k == k
        assert np.all(np.bincount(res.partition.labels, minlength=k + 1)[1:] > 0)
        trace = res.objective_trace
        assert all(b >= a - objective_slack(a) for a, b in zip(trace, trace[1:]))

    @given(
        seed=st.integers(0, 10_000),
        reps=st.lists(st.integers(1, 3), min_size=2, max_size=3),
        extra=st.integers(1, 20),
        signed=st.lists(st.booleans(), min_size=9, max_size=9),
    )
    def test_too_few_distinct_rows_at_wide_shapes(self, seed, reps, extra, signed):
        """More columns than rows, and some copies carry -0.0 where their
        row has 0.0: k = distinct rows + 1 still cannot be filled."""
        assume(sum(reps) > len(reps))
        rng = np.random.default_rng(seed)
        values = np.repeat(rng.normal(size=(len(reps), sum(reps) + extra)), reps, axis=0)
        values[:, [0, -1]] = 0.0
        for i in np.flatnonzero(signed[: len(values)]):
            values[i, [0, -1][i % 2]] = -0.0
        d = Dataset(values[rng.permutation(len(values))])
        k = len(reps) + 1
        with pytest.raises(TooFewDistinctRows, match=f"{len(reps)} distinct rows for k={k}"):
            weighted_kmeans(d, uniform_weights(d), KMeansConfig(k=k, n_init=3, seed=seed))


    def test_n_distinct_counts_a_signed_zero_as_zero(self):
        """The one distinct-row count of _row_factor and _lloyd, in either
        memory order; rows of no columns are all equal."""
        z = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 2.0], [0.0, -1.0], [0.0, 2.0]])
        assert _n_distinct(z) == _n_distinct(np.asfortranarray(z)) == 3
        assert _n_distinct(z[:, :0]) == 1


class TestTiedColumns:
    """Duplicated or negated columns tie their dispersion scores, so t tied
    maxima can put a floor of sqrt(t) on ||w||_1 above an admissible s. A
    soft fit past validation gives a valid result or a NumericalError; the
    data's ties are never a usage error."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 12),
        q=st.integers(1, 4),
        extra=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=4),
        rounded=st.booleans(),
        k=st.integers(2, 3),
        s_frac=st.floats(0.0, 1.0),
        n_init=st.integers(1, 3),
    )
    def test_soft_fit_valid_or_numerical(self, seed, n, q, extra, rounded, k, s_frac, n_init):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, q))
        if rounded:  # ties between rows as well
            base = np.round(base)
        # every column twice, then up to four more copies, some negated
        cols = [base, base] + [(-1.0 if neg else 1.0) * base[:, [j % q]] for j, neg in extra]
        values = np.hstack(cols)[:, :8]
        p = values.shape[1]
        s = 1.0 + s_frac * (np.sqrt(p) - 1.0)
        try:
            res = soft_sparse_kmeans_mv(Dataset(values), k, s, KMeansConfig(n_init=n_init, seed=seed))
        except NumericalError:
            return
        assert res.partition.k == k
        assert np.all(np.bincount(res.partition.labels, minlength=k + 1)[1:] > 0)
        w = res.weights.w
        assert np.all(w >= 0.0)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
        assert w.sum() <= s + 1e-8
        trace = res.objective_trace
        assert all(b >= a - objective_slack(a) for a, b in zip(trace, trace[1:]))
