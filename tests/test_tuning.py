import warnings

import numpy as np
import pytest

from sparsekm import tuning
from sparsekm.datatypes import Dataset, FunctionalDataset, trapezoid_weights
from sparsekm.engine import KMeansConfig
from sparsekm.errors import DegenerateObjective, SparsityOutOfRange, ValidationError
from sparsekm.tuning import (
    GapCurve,
    _apply_one_sd_rule,
    permute_curves_within_blocks,
    permute_feature_columns,
    subdomain_blocks,
    tune_m_fd,
    tune_m_mv,
)


def informative_plus_noise(seed=0, n_per=15, p=10, gap=12.0):
    """Three clusters separated on features 0 and 1 only."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, p))
    centers[1, 0] = gap
    centers[2, 1] = gap
    vals = np.concatenate([rng.normal(c, 1.0, size=(n_per, p)) for c in centers])
    return Dataset(vals)


class TestPermuteFeatureColumns:
    def test_preserves_each_column_multiset(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(25, 6))
        out = permute_feature_columns(vals, np.random.default_rng(7))
        for j in range(6):
            assert np.array_equal(np.sort(out[:, j]), np.sort(vals[:, j]))

    def test_columns_shuffled_independently(self):
        vals = np.tile(np.arange(30.0)[:, None], (1, 4))
        out = permute_feature_columns(vals, np.random.default_rng(7))
        orders = [tuple(out[:, j]) for j in range(4)]
        assert len(set(orders)) > 1

    def test_input_untouched(self):
        vals = np.arange(20.0).reshape(10, 2)
        before = vals.copy()
        permute_feature_columns(vals, np.random.default_rng(0))
        assert np.array_equal(vals, before)


class TestSubdomainBlocks:
    def test_uniform_grid_equal_blocks(self):
        qw = trapezoid_weights(np.linspace(0.0, 1.0, 200))
        blocks = subdomain_blocks(qw, 20)
        assert blocks.shape == (200,)
        assert np.all(np.diff(blocks) >= 0)
        _, counts = np.unique(blocks, return_counts=True)
        assert counts.tolist() == [10] * 20

    def test_single_block(self):
        qw = trapezoid_weights(np.linspace(0.0, 1.0, 50))
        assert np.all(subdomain_blocks(qw, 1) == 0)

    def test_nonuniform_grid_balances_measure(self):
        grid = np.concatenate([np.linspace(0, 0.5, 80), np.linspace(0.51, 1.0, 20)])
        qw = trapezoid_weights(grid)
        blocks = subdomain_blocks(qw, 5)
        measures = np.array([qw[blocks == b].sum() for b in range(5)])
        assert np.all(np.abs(measures - 0.2) < float(qw.max()) + 1e-12)

    def test_rejects_nonpositive_count(self):
        qw = trapezoid_weights(np.linspace(0.0, 1.0, 10))
        with pytest.raises(ValidationError):
            subdomain_blocks(qw, 0)


class TestPermuteCurvesWithinBlocks:
    def test_moves_whole_segments(self):
        # each curve is constant at its own index, so joint movement within
        # a block means every column of that block is identical
        n, g = 12, 40
        vals = np.tile(np.arange(float(n))[:, None], (1, g))
        qw = trapezoid_weights(np.linspace(0.0, 1.0, g))
        out = permute_curves_within_blocks(vals, qw, 8, np.random.default_rng(1))
        blocks = subdomain_blocks(qw, 8)
        for b in range(8):
            cols = np.nonzero(blocks == b)[0]
            block_vals = out[:, cols]
            assert np.all(block_vals == block_vals[:, :1])
            assert np.array_equal(np.sort(block_vals[:, 0]), np.arange(float(n)))

    def test_blocks_permuted_independently(self):
        n, g = 12, 40
        vals = np.tile(np.arange(float(n))[:, None], (1, g))
        qw = trapezoid_weights(np.linspace(0.0, 1.0, g))
        out = permute_curves_within_blocks(vals, qw, 8, np.random.default_rng(1))
        blocks = subdomain_blocks(qw, 8)
        perms = {tuple(out[:, np.nonzero(blocks == b)[0][0]]) for b in range(8)}
        assert len(perms) > 1

    def test_input_untouched(self):
        vals = np.arange(40.0).reshape(4, 10)
        qw = trapezoid_weights(np.linspace(0.0, 1.0, 10))
        before = vals.copy()
        permute_curves_within_blocks(vals, qw, 5, np.random.default_rng(0))
        assert np.array_equal(vals, before)


class TestGapCurveType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            GapCurve(
                np.array([1.0, 2.0]),
                np.array([0.1]),
                np.array([1.0, 2.0]),
                np.array([1.0, 2.0]),
                np.array([0.0, 0.0]),
                np.array([False, False]),
                3,
            )

    def test_b_perms_validated(self):
        one = np.array([1.0])
        with pytest.raises(ValidationError):
            GapCurve(one, one, one, one, one, np.array([False]), 0)


class TestOneSdRule:
    def test_walks_back_to_sparser_candidate(self):
        gap = np.array([1.0, 2.0])
        sd = np.array([0.5, 1.5])
        excluded = np.array([False, False])
        assert _apply_one_sd_rule(1, gap, sd, excluded) == 0

    def test_skips_excluded(self):
        gap = np.array([np.nan, 2.0])
        sd = np.array([np.nan, 1.5])
        excluded = np.array([True, False])
        assert _apply_one_sd_rule(1, gap, sd, excluded) == 1


class TestTuneMv:
    def test_prefers_sparse_over_dense(self):
        d = informative_plus_noise()
        cfg = KMeansConfig(k=3, n_init=4, seed=0)
        m_star, curve = tune_m_mv(d, 3, [0, 4, 8], b_perms=5, cfg=cfg)
        assert m_star >= 4
        ok = ~curve.excluded
        assert np.all(np.isfinite(curve.gap[ok]))
        assert np.allclose(
            curve.gap[ok], curve.obs_log_obj[ok] - curve.perm_log_obj_mean[ok]
        )

    def test_single_replicate_reports_zero_spread(self):
        d = informative_plus_noise(seed=1)
        cfg = KMeansConfig(k=3, n_init=2, seed=3)
        _, curve = tune_m_mv(d, 3, [0, 6], b_perms=1, cfg=cfg)
        ok = ~curve.excluded
        assert np.all(curve.perm_log_obj_sd[ok] == 0.0)
        assert curve.b_perms == 1

    def test_singleton_grid(self):
        d = informative_plus_noise(seed=2)
        cfg = KMeansConfig(k=3, n_init=2, seed=1)
        m_star, curve = tune_m_mv(d, 3, [5], b_perms=2, cfg=cfg)
        assert m_star == 5
        assert curve.m_grid.tolist() == [5.0]

    def test_deterministic(self):
        d = informative_plus_noise(seed=4)
        cfg = KMeansConfig(k=3, n_init=2, seed=11)
        a = tune_m_mv(d, 3, [0, 5], b_perms=3, cfg=cfg)
        b = tune_m_mv(d, 3, [0, 5], b_perms=3, cfg=cfg)
        assert a[0] == b[0]
        assert np.array_equal(a[1].gap, b[1].gap)
        assert np.array_equal(a[1].perm_log_obj_mean, b[1].perm_log_obj_mean)

    def test_grid_validation(self):
        d = informative_plus_noise(seed=5)
        with pytest.raises(SparsityOutOfRange):
            tune_m_mv(d, 3, [], b_perms=2)
        with pytest.raises(SparsityOutOfRange):
            tune_m_mv(d, 3, [10], b_perms=2)
        for bad in (2.7, float("nan"), float("inf")):
            with pytest.raises(SparsityOutOfRange, match=f"got {bad}"):
                tune_m_mv(d, 3, [bad], b_perms=2)
        m_star, _ = tune_m_mv(d, 3, [4.0], b_perms=1, cfg=KMeansConfig(k=3, n_init=1))
        assert m_star == 4 and isinstance(m_star, int)

    def test_constant_data_degenerate(self):
        d = Dataset(np.ones((12, 4)))
        cfg = KMeansConfig(k=2, n_init=2, seed=0)
        with pytest.raises(DegenerateObjective):
            tune_m_mv(d, 2, [0, 1], b_perms=2, cfg=cfg)


class TestTuneFd:
    def test_smoke_and_gap_identity(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0.0, 1.0, 40)
        vals = rng.normal(0.0, 0.3, size=(30, 40))
        vals[15:] += np.where(grid > 0.5, 4.0, 0.0)
        fd = FunctionalDataset(grid, vals)
        cfg = KMeansConfig(k=2, n_init=2, seed=0)
        m_star, curve = tune_m_fd(
            fd, 2, [0.2, 0.4], b_perms=3, n_subdomains=8, cfg=cfg
        )
        assert m_star in (0.2, 0.4)
        ok = ~curve.excluded
        assert np.allclose(
            curve.gap[ok], curve.obs_log_obj[ok] - curve.perm_log_obj_mean[ok]
        )
        again = tune_m_fd(fd, 2, [0.2, 0.4], b_perms=3, n_subdomains=8, cfg=cfg)
        assert again[0] == m_star
        assert np.array_equal(again[1].gap, curve.gap)


def test_b_perms_checked_before_any_fit(monkeypatch):
    """b_perms < 1 is rejected up front: no fit runs and numpy stays silent."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before b_perms was checked")

    monkeypatch.setattr(tuning, "sparse_kmeans_mv", no_fit)
    monkeypatch.setattr(tuning, "sparse_kmeans_fd", no_fit)
    grid = np.linspace(0.0, 1.0, 10)
    fd = FunctionalDataset(grid, np.random.default_rng(0).normal(size=(8, 10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b_perms in (0, -1):
            with pytest.raises(ValidationError, match="b_perms"):
                tune_m_mv(informative_plus_noise(), 3, [0, 4], b_perms=b_perms)
            with pytest.raises(ValidationError, match="b_perms"):
                tune_m_fd(fd, 2, [0.5], b_perms=b_perms)
