import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsekm import engine, tuning
from sparsekm.datatypes import Dataset, trapezoid_weights
from sparsekm.engine import KMeansConfig
from sparsekm.errors import DegenerateObjective, GridMismatch, SparsityOutOfRange, ValidationError
from sparsekm.synthdata import FdScenario, MvScenario, gen_fd, gen_mv
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


def test_feature_columns_are_unit_mass_blocks():
    """A feature vector is a curve of unit masses with one-point subdomains: its
    blocks are its columns, and both references draw the same bytes."""
    for p in range(1, 5001):
        assert np.array_equal(subdomain_blocks(np.ones(p), p), np.arange(p))
    for p in (1, 2, 7, 50, 200):
        vals = np.random.default_rng(p).normal(size=(30, p))
        vec = permute_feature_columns(vals, np.random.default_rng(5))
        curve = permute_curves_within_blocks(vals, np.ones(p), p, np.random.default_rng(5))
        assert vec.tobytes() == curve.tobytes()


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

    def test_more_blocks_than_grid_points(self):
        """An empty block is skipped without a draw: each non-empty block, in
        order, takes the next permutation of the stream."""
        n, g, n_blocks = 6, 4, 10
        vals = np.arange(float(n * g)).reshape(n, g)
        qw = trapezoid_weights(np.linspace(0.0, 1.0, g))
        blocks = subdomain_blocks(qw, n_blocks)
        assert np.unique(blocks).size == g < n_blocks
        out = permute_curves_within_blocks(vals, qw, n_blocks, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        want = vals.copy()
        for b in np.unique(blocks):
            want[:, blocks == b] = vals[rng.permutation(n)][:, blocks == b]
        assert np.array_equal(out, want)


def test_block_shuffle_matches_a_loop_over_blocks():
    """On tune-fd's grid, each non-empty block takes the next permutation of the
    stream in block order, whatever the spacing."""
    for grid in (np.linspace(0.0, 1.0, 200), np.sort(np.random.default_rng(2).uniform(0, 1, 200))):
        vals = np.random.default_rng(4).normal(size=(50, 200))
        qw = trapezoid_weights(grid)
        blocks = subdomain_blocks(qw, 20)
        out = permute_curves_within_blocks(vals, qw, 20, np.random.default_rng(9))
        rng, want = np.random.default_rng(9), np.empty_like(vals)
        for b in np.unique(blocks):
            want[:, blocks == b] = vals[rng.permutation(50)][:, blocks == b]
        assert out.tobytes() == want.tobytes()


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
        two = np.array([1.0, 2.0])
        for i in range(6):  # each array field in turn one entry short
            fields = [two] * 5 + [np.array([False, False])]
            fields[i] = fields[i][:1]
            with pytest.raises(ValidationError, match="share one length"):
                GapCurve(*fields, 3)

    def test_b_perms_validated(self):
        one = np.array([1.0])
        with pytest.raises(ValidationError):
            GapCurve(one, one, one, one, one, np.array([False]), 0)

    def test_compares_by_identity(self):
        """== gives a bool, and hash() works."""
        one = np.array([1.0])
        a, b = (GapCurve(one, one, one, one, one, np.array([False]), 3) for _ in range(2))
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestOneSdRule:
    def test_walks_back_to_sparser_candidate(self):
        # candidate 1 has the larger m: it is within one sd of the winner
        gap = np.array([2.0, 1.0])
        sd = np.array([1.5, 0.5])
        excluded = np.array([False, False])
        assert _apply_one_sd_rule(0, gap, sd, excluded) == 1

    def test_never_walks_to_denser_candidate(self):
        gap = np.array([1.0, 2.0])
        sd = np.array([0.5, 1.5])
        excluded = np.array([False, False])
        assert _apply_one_sd_rule(1, gap, sd, excluded) == 1

    def test_skips_excluded(self):
        gap = np.array([np.nan, 2.0])
        sd = np.array([np.nan, 1.5])
        excluded = np.array([True, False])
        assert _apply_one_sd_rule(1, gap, sd, excluded) == 1


def _scan_with_objectives(table, one_sd_rule, events=None):
    """Run the gap scan with fits that return ``table[j, i]``: the objective
    of dataset j (0 observed, then one per reference) at candidate i.
    ``events``, when given, collects ("draw", j) and ("fit", j, i) in call order."""
    d = informative_plus_noise(n_per=4, p=3)
    candidates = list(range(table.shape[1]))
    refs = []
    events = [] if events is None else events

    def permute(rng):
        refs.append(Dataset(d.values.copy()))
        events.append(("draw", len(refs)))
        return refs[-1]

    def fit(data, k, m, cfg, start=None):
        j = 0 if data is d else 1 + next(i for i, r in enumerate(refs) if r is data)
        events.append(("fit", j, m))
        return SimpleNamespace(objective=float(table[j, m]))

    cfg = KMeansConfig(k=2, n_init=1, seed=0)
    return tuning._gap_scan(d, 2, candidates, table.shape[0] - 1, cfg, one_sd_rule, fit, permute)


class TestGapScanSelection:
    def test_exact_max_gap_tie_goes_to_larger_m(self):
        table = np.array([[2.0, 4.0, 4.0, 1.0], [1.0, 2.0, 2.0, 1.0]])
        m_star, curve = _scan_with_objectives(table, one_sd_rule=False)
        assert curve.gap[1] == curve.gap[2] == np.nanmax(curve.gap)
        assert m_star == 2

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0.0, 1.0, 2.0, 4.0]), min_size=n, max_size=n),
                min_size=3, max_size=4,
            )
        )
    )
    def test_property_one_sd_picks_largest_qualifying_m(self, rows):
        table = np.array(rows)
        try:
            m_max, curve = _scan_with_objectives(table, one_sd_rule=False)
        except DegenerateObjective:
            return  # every candidate had a zero objective
        m_sd, _ = _scan_with_objectives(table, one_sd_rule=True)
        ok = ~curve.excluded
        gap, sd = curve.gap, curve.perm_log_obj_sd
        # the max-gap pick is the largest m among the exact ties
        assert gap[m_max] == np.max(gap[ok])
        assert not np.any(gap[m_max + 1:][ok[m_max + 1:]] == gap[m_max])
        # the one-sd pick qualifies, is no denser, and no larger m qualifies
        floor = gap[m_max] - sd[m_max]
        assert ok[m_sd] and gap[m_sd] >= floor
        assert m_sd >= m_max
        assert not np.any(gap[m_sd + 1:][ok[m_sd + 1:]] >= floor)


def test_scan_fits_each_dataset_before_drawing_the_next():
    """One pass per dataset: every fit of dataset j runs before reference j + 1
    is drawn, and a candidate excluded on dataset j is not fitted again."""
    table = np.array([[2.0, 4.0, 3.0], [1.0, 0.0, 1.0], [1.0, 2.0, 1.0]])
    events = []
    _, curve = _scan_with_objectives(table, one_sd_rule=False, events=events)
    assert events == [
        ("fit", 0, 0), ("fit", 0, 1), ("fit", 0, 2),
        ("draw", 1), ("fit", 1, 0), ("fit", 1, 1), ("fit", 1, 2),
        ("draw", 2), ("fit", 2, 0), ("fit", 2, 2),
    ]
    assert curve.excluded.tolist() == [False, True, False]
    assert np.isnan(curve.obs_log_obj[1]) and np.isnan(curve.gap[1])


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
        fd = Dataset(vals, grid=grid)
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
    """A b_perms or n_subdomains below 1 or not whole is rejected up front:
    no fit or start runs and numpy stays silent."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the counts were checked")

    monkeypatch.setattr(tuning, "sparse_kmeans_mv", no_fit)
    monkeypatch.setattr(tuning, "sparse_kmeans_fd", no_fit)
    monkeypatch.setattr(tuning, "weighted_kmeans", no_fit)
    grid = np.linspace(0.0, 1.0, 10)
    fd = Dataset(np.random.default_rng(0).normal(size=(8, 10)), grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b_perms in (0, -1, 1.5):
            with pytest.raises(ValidationError, match="b_perms"):
                tune_m_mv(informative_plus_noise(), 3, [0, 4], b_perms=b_perms)
            with pytest.raises(ValidationError, match="b_perms"):
                tune_m_fd(fd, 2, [0.5], b_perms=b_perms)
        for n_subdomains in (0, 2.5):
            with pytest.raises(ValidationError, match="n_subdomains"):
                tune_m_fd(fd, 2, [0.5], b_perms=2, n_subdomains=n_subdomains)


def small_curves(seed=6):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 30)
    vals = rng.normal(0.0, 0.3, size=(24, 30))
    vals[12:] += np.where(grid > 0.5, 4.0, 0.0)
    return Dataset(vals, grid=grid)


SCANS = [
    ("sparse_kmeans_mv", tune_m_mv, lambda: informative_plus_noise(seed=7), 3, [0, 3, 6, 8]),
    ("sparse_kmeans_fd", tune_m_fd, small_curves, 2, [0.2, 0.4, 0.6]),
]


def count_cold_calls(monkeypatch):
    """Count weighted_kmeans calls without a warm start, from tuning and engine."""
    calls = []
    original = engine.weighted_kmeans

    def counting(d, w, cfg, init_partition=None):
        calls.append(init_partition is None)
        return original(d, w, cfg, init_partition)

    monkeypatch.setattr(engine, "weighted_kmeans", counting)
    monkeypatch.setattr(tuning, "weighted_kmeans", counting)
    return calls


@pytest.mark.parametrize("fit_name, tune, data, k, grid", SCANS)
def test_shared_start_matches_a_cold_start_per_fit(monkeypatch, fit_name, tune, data, k, grid):
    """Every GapCurve array and m* are bit-equal to a scan whose fits each
    compute their own uniform-weight start."""
    cfg = KMeansConfig(n_init=2, seed=4)
    d = data()
    shared = tune(d, k, grid, b_perms=3, cfg=cfg)
    fit = getattr(engine, fit_name)
    monkeypatch.setattr(tuning, fit_name, lambda d, k, m, cfg, start=None: fit(d, k, m, cfg))
    cold = tune(d, k, grid, b_perms=3, cfg=cfg)
    assert shared[0] == cold[0]
    for name in ("m_grid", "gap", "obs_log_obj", "perm_log_obj_mean", "perm_log_obj_sd", "excluded"):
        assert np.array_equal(getattr(shared[1], name), getattr(cold[1], name), equal_nan=True), name


@pytest.mark.parametrize("fit_name, tune, data, k, grid", SCANS)
def test_one_cold_start_per_dataset(monkeypatch, fit_name, tune, data, k, grid):
    calls = count_cold_calls(monkeypatch)
    _, curve = tune(data(), k, grid, b_perms=3, cfg=KMeansConfig(n_init=2, seed=4))
    assert not curve.excluded.any()
    assert sum(calls) == 1 + 3
    assert len(calls) > sum(calls)  # the warm-started steps still run


def test_failed_start_excludes_every_candidate(monkeypatch):
    """A start that raises runs once: it excludes every candidate at once,
    and the scan ends in DegenerateObjective."""
    calls = count_cold_calls(monkeypatch)
    d = Dataset(np.repeat([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]], 6, axis=0))
    with pytest.raises(DegenerateObjective, match="every candidate"):
        tune_m_mv(d, 3, [0, 1, 2], b_perms=2, cfg=KMeansConfig(n_init=2, seed=0))
    assert calls == [True]


def test_decreasing_objective_is_excluded_not_a_usage_error():
    """An offset of 1e8 makes every fit's objective trace fall; each candidate
    is excluded and the scan ends in DegenerateObjective (exit 1), not in a
    usage error."""
    d, _ = gen_mv(MvScenario(p=50, seed=0))
    with pytest.raises(DegenerateObjective, match="every candidate"):
        tune_m_mv(Dataset(d.values + 1e8), 3, [40], b_perms=1)


def test_overflow_is_excluded_not_a_usage_error():
    """Scaled by 1e160, every fit's squared distances overflow; each candidate
    is excluded and the scan ends in DegenerateObjective."""
    d, _ = gen_mv(MvScenario(p=50, seed=0))
    with pytest.warns(RuntimeWarning), pytest.raises(DegenerateObjective, match="every candidate"):
        tune_m_mv(Dataset(d.values * 1e160), 3, [40], b_perms=1)


def test_tune_m_mv_rejects_a_grid():
    fd, _ = gen_fd(FdScenario(n_grid=20, n_per_class=5, seed=0))
    with pytest.raises(GridMismatch, match="tune_m_mv needs feature vectors"):
        tune_m_mv(fd, 2, [1], b_perms=1)


def test_tune_m_fd_needs_a_grid():
    d, _ = gen_mv(MvScenario(p=5, q=2, n_per_class=5, seed=0))
    with pytest.raises(GridMismatch, match="tune_m_fd needs curves on a grid"):
        tune_m_fd(d, 3, [0.5], b_perms=1)
