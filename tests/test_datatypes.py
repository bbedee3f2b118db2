import re
from unittest import mock

import numpy as np
import pytest

from sparsekm import datatypes, experiments, tuning
from sparsekm.datatypes import (
    EPS_NORM,
    Dataset,
    Partition,
    SparseClusterResult,
    Weights,
    checked_grid,
    objective_slack,
    trapezoid_weights,
    whole,
)
from sparsekm.engine import KMeansConfig
from sparsekm.errors import (
    DimensionMismatch,
    EmptyCluster,
    EmptyData,
    GridMismatch,
    LengthMismatch,
    NonFinite,
    NonMonotoneGrid,
    NonMonotoneObjective,
    NumericalError,
    PartitionMismatch,
    SparsityOutOfRange,
    ValidationError,
)
from sparsekm.dispersion import Dispersion
from sparsekm.synthdata import FdScenario, MvScenario, gen_mv


class TestDataset:
    def test_basic_construction(self):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert d.n_obs == 2
        assert d.n_features == 2
        assert d.grid is None and d.quad_weights is None
        assert d.domain_measure == 2.0

    def test_values_are_readonly(self):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0

    def test_rejects_nan_with_location(self):
        with pytest.raises(NonFinite, match=r"\(0, 1\)"):
            Dataset(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_rejects_inf(self):
        with pytest.raises(NonFinite):
            Dataset(np.array([[1.0, np.inf], [2.0, 3.0]]))

    def test_rejects_single_observation(self):
        with pytest.raises(EmptyData):
            Dataset(np.array([[1.0, 2.0]]))

    def test_rejects_zero_features(self):
        with pytest.raises(EmptyData):
            Dataset(np.zeros((3, 0)))

    def test_feature_names_length_checked(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((2, 3)), feature_names=("a", "b"))

    def test_quad_weights_derived(self):
        fd = Dataset(np.zeros((2, 3)), grid=np.array([0.0, 1.0, 2.0]))
        assert np.allclose(fd.quad_weights, [0.5, 1.0, 0.5])
        assert fd.domain_measure == pytest.approx(2.0)

    def test_rejects_grid_with_zero_mass(self):
        # strictly increasing, but the first trapezoid mass underflows to 0
        with pytest.raises(ValidationError, match="least mass 0.0"):
            Dataset(np.zeros((2, 4)), grid=[0.0, 5e-324, 1e-323, 1.0])

    def test_rejects_grid_whose_span_overflows(self):
        # the first grid has an infinite mass; the second only an infinite sum
        for grid in ([-1e308, 0.0, 1e308], [-1e308, -5e307, 0.0, 5e307, 1e308]):
            with pytest.raises(ValidationError, match="span inf"):
                Dataset(np.zeros((2, len(grid))), grid=grid)

    def test_non_monotone_grid_names_index(self):
        with pytest.raises(NonMonotoneGrid, match="2"):
            Dataset(np.zeros((2, 3)), grid=np.array([0.0, 1.0, 1.0]))

    def test_grid_length_must_match_columns(self):
        with pytest.raises((LengthMismatch, ValidationError)):
            Dataset(np.zeros((2, 3)), grid=np.array([0.0, 1.0]))

    def test_compares_by_identity(self):
        d = Dataset(np.zeros((2, 3)), grid=np.array([0.0, 1.0, 2.0]))
        assert d == d
        assert d != Dataset(d.values, grid=d.grid)


class TestTrapezoidWeights:
    def test_uniform_grid(self):
        qw = trapezoid_weights(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(qw, [0.25, 0.5, 0.25])

    def test_nonuniform_grid(self):
        qw = trapezoid_weights(np.array([0.0, 1.0, 3.0]))
        assert np.allclose(qw, [0.5, 1.5, 1.0])

    def test_sums_to_span(self):
        grid = np.sort(np.concatenate([[0.0, 7.0], np.random.default_rng(5).uniform(0, 7, 40)]))
        grid = np.unique(grid)
        assert trapezoid_weights(grid).sum() == pytest.approx(7.0, abs=1e-12)


class TestPartition:
    def test_sizes_and_members(self):
        p = Partition(np.array([1, 2, 1, 3]), 3)
        assert p.n_obs == 4
        assert np.array_equal(p.sizes(), [2, 1, 1])
        assert np.array_equal(p.members(1), [0, 2])

    def test_rejects_empty_cluster(self):
        with pytest.raises(EmptyCluster):
            Partition(np.array([1, 1, 3, 3]), 3)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValidationError):
            Partition(np.array([0, 1, 2]), 2)
        with pytest.raises(ValidationError):
            Partition(np.array([-4, 1, 2]), 2)

    def test_rejects_non_integer_labels(self):
        for bad in (np.nan, np.inf, 1.5, 2.0**70):
            with pytest.raises(ValidationError, match="row 2"):
                Partition(np.array([1.0, bad, 2.0]), 2)
            with pytest.raises(ValidationError, match="row 2"):
                Partition.from_labels([1.0, bad, 2.0])

    def test_from_labels_infers_k(self):
        p = Partition.from_labels([1, 2, 2, 1])
        assert p.k == 2

    def test_equality_and_key(self):
        a = Partition(np.array([1, 2, 2]), 2)
        b = Partition(np.array([1, 2, 2]), 2)
        c = Partition(np.array([2, 1, 1]), 2)
        assert a == b
        assert a.key() == b.key()
        assert a != c

    def test_hashable(self):
        seen = {Partition(np.array([1, 2]), 2), Partition(np.array([1, 2]), 2)}
        assert len(seen) == 1


class TestWeightVector:
    """Weights without a grid: one weight per feature, m an exact zero count."""

    def test_support_and_l1(self):
        w = Weights(np.array([0.6, 0.0, 0.8]), 1)
        assert np.array_equal(w.support, [0, 2])
        assert w.l1() == pytest.approx(1.4)
        assert w.support_measure() == 2.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            Weights(np.array([-0.1, 1.0]), 0)

    def test_rejects_norm_above_one(self):
        with pytest.raises(ValidationError):
            Weights(np.array([1.0, 0.5]), 0)

    def test_norm_tolerance_is_tight(self):
        # 1 + EPS_NORM passes, visibly above it does not
        Weights(np.array([1.0 + EPS_NORM / 2, 0.0]), 1)
        with pytest.raises(ValidationError):
            Weights(np.array([1.0 + 10 * EPS_NORM, 0.0]), 1)

    def test_zero_count_must_match_m(self):
        with pytest.raises(SparsityOutOfRange):
            Weights(np.array([1.0, 0.0]), 0)
        with pytest.raises(SparsityOutOfRange):
            Weights(np.array([0.6, 0.8]), 1)

    @pytest.mark.parametrize("m", [1.5, 1.9, float("nan")])
    def test_m_must_be_whole(self, m):
        with pytest.raises(SparsityOutOfRange, match="whole number"):
            Weights(np.array([0.0, 1.0]), m)

    def test_whole_float_m_stored_as_int(self):
        w = Weights(np.array([0.0, 1.0]), 1.0)
        assert w.m == 1 and isinstance(w.m, int)


class TestWeightFunction:
    """Weights on a grid: a weight curve, m a zero-weight measure."""

    def test_support_mask_and_measure(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        raw = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        w = raw / np.sqrt(np.sum(qw * raw**2))
        wf = Weights(w, 0.375, grid=grid)
        assert np.array_equal(wf.support, np.flatnonzero(raw > 0))
        assert wf.support_measure() == pytest.approx(qw[2:].sum())

    def test_rejects_overweight(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        with pytest.raises(ValidationError):
            Weights(np.full(5, 10.0), 0.25, grid=grid)

    def test_zero_measure_must_cover_m(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        raw = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        w = raw / np.sqrt(np.sum(qw * raw**2))
        # zero measure is 0.125; asking for m=0.8 is inconsistent
        with pytest.raises(SparsityOutOfRange):
            Weights(w, 0.8, grid=grid)

    def test_grid_and_quad_weights_go_together(self):
        grid = np.linspace(0.0, 1.0, 5)
        wf = Weights(np.full(5, 0.5), 0.25, grid=grid)
        assert np.array_equal(wf.quad_weights, trapezoid_weights(grid))
        assert not wf.quad_weights.flags.writeable
        assert Weights(np.full(4, 0.5), 0).quad_weights is None
        with pytest.raises(GridMismatch):
            Weights(np.full(4, 0.5), 0.25, grid=grid)

    def test_rejects_nan_or_non_increasing_grid(self):
        w = np.full(3, 0.5)
        with pytest.raises(NonFinite):
            Weights(w, 0.25, grid=np.array([0.0, np.nan, 1.0]))
        with pytest.raises(NonMonotoneGrid, match="2"):
            Weights(w, 0.25, grid=np.array([0.0, 1.0, 0.5]))


_GRID3 = np.array([0.0, 0.5, 1.0])
_W3 = np.full(3, 0.5)  # zero weight measure 0 with m = 0.25 < one cell

# One fault per input: (type, its arguments with the fault, the error it raises).
SINGLE_FAULTS = [
    pytest.param(Dataset, (np.zeros(3),), {}, EmptyData, id="Dataset-1d"),
    pytest.param(Dataset, (np.zeros((1, 3)),), {}, EmptyData, id="Dataset-one-row"),
    pytest.param(Dataset, (np.zeros((3, 0)),), {}, EmptyData, id="Dataset-no-column"),
    pytest.param(Dataset, ([[0.0, np.nan, 1.0]] * 2,), {"grid": _GRID3}, NonFinite, id="Dataset-nan"),
    pytest.param(Dataset, (np.zeros((2, 3)),), {"grid": _GRID3[:2]}, GridMismatch, id="Dataset-length"),
    pytest.param(Dataset, (np.zeros((2, 1)),), {"grid": [0.0]}, EmptyData, id="Dataset-grid-1pt"),
    pytest.param(Dataset, (np.zeros((2, 3)),), {"grid": [0.0, np.inf, 1.0]}, NonFinite, id="Dataset-grid-inf"),
    pytest.param(Dataset, (np.zeros((2, 3)),), {"grid": [0.0, 1.0, 1.0]}, NonMonotoneGrid, id="Dataset-grid-tie"),
    pytest.param(Dataset, (np.zeros((2, 3)),), {"grid": [0.0, 5e-324, 1.0]}, GridMismatch, id="Dataset-grid-mass"),
    pytest.param(Weights, (np.zeros((2, 2)), 0), {}, EmptyData, id="Weights-2d"),
    pytest.param(Weights, (np.zeros(0), 0.25), {"grid": _GRID3}, EmptyData, id="Weights-empty"),
    pytest.param(Weights, ([0.5, np.nan, 0.5], 0.25), {"grid": _GRID3}, NonFinite, id="Weights-nan"),
    pytest.param(Weights, ([0.0, -0.1, 1.0], 1), {}, SparsityOutOfRange, id="Weights-negative"),
    pytest.param(Weights, ([0.5, -0.1, 0.5], 0.25), {"grid": _GRID3}, SparsityOutOfRange,
                 id="Weights-negative-grid"),
    pytest.param(Weights, (_W3, 0.25), {"grid": [0.0, 1.0]}, GridMismatch, id="Weights-length"),
    pytest.param(Weights, (_W3, 0.25), {"grid": [0.0, 1.0, 0.5]}, NonMonotoneGrid, id="Weights-grid-order"),
    pytest.param(Dispersion, (np.ones((2, 2)),), {}, EmptyData, id="Dispersion-2d"),
    pytest.param(Dispersion, ([],), {}, EmptyData, id="Dispersion-empty"),
    pytest.param(Dispersion, ([1.0, np.inf, 2.0],), {"grid": _GRID3}, NonFinite, id="Dispersion-inf"),
    pytest.param(Dispersion, ([1.0, -0.5],), {}, PartitionMismatch, id="Dispersion-negative"),
    pytest.param(Dispersion, ([1.0, -0.5, 1.0],), {"grid": _GRID3}, PartitionMismatch,
                 id="Dispersion-negative-grid"),
    pytest.param(Dispersion, ([1.0, 2.0, 3.0],), {"grid": [0.0, 1.0]}, GridMismatch, id="Dispersion-length"),
    pytest.param(Dispersion, ([1.0, 2.0],), {"grid": [np.nan, 1.0]}, NonFinite, id="Dispersion-grid-nan"),
    pytest.param(Dispersion, ([1.0],), {"grid": [1.0]}, EmptyData, id="Dispersion-grid-1pt"),
]


@pytest.mark.parametrize("cls, args, kwargs, error", SINGLE_FAULTS)
def test_single_fault_raises_its_own_error(cls, args, kwargs, error):
    """The three sampled types share one grid and one sample check; an input with
    one fault raises the class named for that fault, and nothing more general."""
    with pytest.raises(error) as info:
        cls(*args, **kwargs)
    assert type(info.value) is error


def test_dispersion_compares_by_identity():
    """As Dataset and Weights: == gives a bool, and hash() works."""
    a, b = Dispersion(np.array([1.0, 2.0])), Dispersion(np.array([1.0, 2.0]))
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestSparseClusterResult:
    def _mk(self, trace):
        part = Partition(np.array([1, 2]), 2)
        wv = Weights(np.array([1.0, 0.0]), 1)
        return SparseClusterResult(part, wv, tuple(trace), True)

    def test_objective_is_last_trace_entry(self):
        r = self._mk([1.0, 2.0, 2.5])
        assert r.objective == 2.5
        assert r.iterations == 3

    def test_rejects_decreasing_trace(self):
        with pytest.raises(NonMonotoneObjective, match="objective trace decreases"):
            self._mk([2.0, 1.0])
        assert issubclass(NonMonotoneObjective, NumericalError)
        assert not issubclass(NonMonotoneObjective, ValidationError)

    def test_slack_allows_float_noise(self):
        v = 1e6
        self._mk([v, v - objective_slack(v) / 2])


def test_objective_slack_scales_with_magnitude():
    assert objective_slack(0.0) == pytest.approx(1e-12)
    assert objective_slack(1e9) == pytest.approx(1e-12 * (1 + 1e9))
    assert objective_slack(-1e9) == objective_slack(1e9)


def _curves(n_grid=12, n=10):
    grid = np.linspace(0.0, 1.0, n_grid)
    return Dataset(np.random.default_rng(0).normal(size=(n, n_grid)), grid=grid)


def _tune_fd_blocks(n_subdomains):
    """tune_m_fd's n_subdomains as its reference draw receives it."""
    seen, original = [], tuning.permute_curves_within_blocks

    def spy(values, quad_weights, n, rng):
        seen.append(n)
        return original(values, quad_weights, n, rng)

    with mock.patch.object(tuning, "permute_curves_within_blocks", spy):
        tuning.tune_m_fd(_curves(), 2, [0.5], b_perms=1, n_subdomains=n_subdomains,
                         cfg=KMeansConfig(n_init=1))
    return seen[0]


def _gaussian_p(p):
    """run_gaussian_benchmark's p as the dataset it draws sees it."""
    return experiments.run_gaussian_benchmark(p, runs=1, keep_details=True)[2][0].data.n_features


def _tune_mv_b_perms(b_perms):
    d, _ = gen_mv(MvScenario(p=5, q=2, n_per_class=4))
    return tuning.tune_m_mv(d, 3, [0], b_perms=b_perms, cfg=KMeansConfig(k=3, n_init=1))[1].b_perms


def _blocks(n_subdomains):
    qw = trapezoid_weights(np.linspace(0.0, 1.0, 12))
    return len(set(tuning.subdomain_blocks(qw, n_subdomains).tolist()))


_ONE = np.array([1.0])


def _case(id, what, good, count):
    return pytest.param(what, good, count, id=id)


# (what, a whole value accepted, value -> the count as stored or as used)
COUNTS = [
    _case("KMeansConfig.k", "k", 3, lambda v: KMeansConfig(k=v).k),
    _case("KMeansConfig.n_init", "n_init", 3, lambda v: KMeansConfig(n_init=v).n_init),
    _case("KMeansConfig.max_iter_lloyd", "max_iter_lloyd", 3,
          lambda v: KMeansConfig(max_iter_lloyd=v).max_iter_lloyd),
    _case("KMeansConfig.max_iter_outer", "max_iter_outer", 3,
          lambda v: KMeansConfig(max_iter_outer=v).max_iter_outer),
    _case("KMeansConfig.seed", "seed", 3, lambda v: KMeansConfig(seed=v).seed),
    _case("Partition.k", "k", 3, lambda v: Partition([1, 2, 3], v).k),
    _case("MvScenario.p", "p", 3, lambda v: MvScenario(p=v, q=3).p),
    _case("MvScenario.q", "q", 3, lambda v: MvScenario(p=12, q=v).q),
    _case("MvScenario.n_per_class", "n_per_class", 3,
          lambda v: MvScenario(p=12, n_per_class=v).n_per_class),
    _case("MvScenario.seed", "seed", 3, lambda v: MvScenario(p=12, seed=v).seed),
    _case("FdScenario.n_grid", "n_grid", 3, lambda v: FdScenario(n_grid=v).n_grid),
    _case("FdScenario.n_per_class", "n_per_class", 3, lambda v: FdScenario(n_per_class=v).n_per_class),
    _case("FdScenario.seed", "seed", 3, lambda v: FdScenario(seed=v).seed),
    _case("runs", "runs", 3, lambda v: experiments.run_gaussian_benchmark(10, runs=v)[1][0].n_runs),
    _case("run_gaussian_benchmark.p", "p", 12, _gaussian_p),
    _case("tune_m_mv.b_perms", "b_perms", 3, _tune_mv_b_perms),
    _case("tune_m_fd.n_subdomains", "n_subdomains", 3, _tune_fd_blocks),
    _case("subdomain_blocks.n_subdomains", "n_subdomains", 3, _blocks),
    _case("GapCurve.b_perms", "b_perms", 3,
          lambda v: tuning.GapCurve(_ONE, _ONE, _ONE, _ONE, _ONE, [False], v).b_perms),
]


@pytest.mark.parametrize("what, good, count", COUNTS)
def test_every_count_takes_the_one_rule(what, good, count):
    """Every count passes ``whole``: a whole float or numpy integer is stored
    as a Python int; a fraction, nan, inf or non-number raises a
    ValidationError that names the input, before any cast can truncate it."""
    for value in (float(good), np.int64(good)):
        got = count(value)
        assert got == good and type(got) is int
    for bad in (2.5, float("nan"), float("inf"), None, "x"):
        with pytest.raises(ValidationError, match=re.escape(f"{what} must be a whole number, got {bad}")):
            count(bad)


def test_whole():
    assert whole(np.float64(4.0), "n") == 4 and type(whole(np.float64(4.0), "n")) is int
    assert whole(-2, "seed") == -2
    with pytest.raises(ValidationError, match=r"^n must be >= 1, got 0$"):
        whole(0, "n", 1)
    with pytest.raises(SparsityOutOfRange, match=r"^m must be a whole number, got 1.5$"):
        whole(1.5, "m", error=SparsityOutOfRange)


class TestCheckedGrid:
    """A grid is checked once per distinct float64 bytes; its checked copies
    are shared, and a rejected grid is never held."""

    def test_equal_grids_share_read_only_arrays(self):
        values = [0.0, 0.25, 0.5, 1.0, 2.0]
        grid, qw = checked_grid(values)
        for same in (tuple(values), np.array(values), np.array(values, dtype=np.float32)):
            got = checked_grid(same)
            assert got[0] is grid and got[1] is qw
        assert grid.tolist() == values and np.array_equal(qw, trapezoid_weights(np.array(values)))
        for arr in (grid, qw):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            ([0.0], EmptyData, "at least 2 points"),
            ([0.0, np.nan, 1.0], NonFinite, "non-finite grid point at index 1"),
            ([0.0, 1.0, 0.5], NonMonotoneGrid, "not strictly increasing at index 2"),
            ([0.0, 5e-324, 1.0], GridMismatch, "masses must be positive"),
        ],
        ids=["one-point", "nan", "not-increasing", "zero-mass"],
    )
    def test_rejected_grid_raises_on_every_call(self, grid, error, message):
        held = datatypes._checked_grid.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error, match=message):
                checked_grid(grid)
        assert datatypes._checked_grid.cache_info().currsize == held

    def test_checked_once_for_every_type_on_the_grid(self, monkeypatch):
        """A Dataset checks its grid; a Dispersion and a Weights on it do not
        check it again, and all three hold the same arrays."""
        checks = []
        real = datatypes.trapezoid_weights
        monkeypatch.setattr(datatypes, "trapezoid_weights", lambda g: checks.append(1) or real(g))
        datatypes._checked_grid.cache_clear()
        grid = np.linspace(0.0, 1.0, 5)
        d = Dataset(np.zeros((2, 5)), grid=grid)
        disp = Dispersion(np.ones(5), grid=list(grid))
        w = Weights(np.full(5, 0.5), 0.25, grid=tuple(grid))
        assert len(checks) == 1
        assert d.grid is disp.grid is w.grid and d.quad_weights is disp.quad_weights is w.quad_weights
