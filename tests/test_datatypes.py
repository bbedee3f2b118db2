import numpy as np
import pytest

from sparsekm.datatypes import (
    EPS_NORM,
    Dataset,
    FunctionalDataset,
    Partition,
    SparseClusterResult,
    WeightFunction,
    WeightVector,
    objective_slack,
    trapezoid_weights,
)
from sparsekm.errors import (
    DimensionMismatch,
    EmptyCluster,
    EmptyData,
    LengthMismatch,
    NonFinite,
    NonMonotoneGrid,
    NonMonotoneObjective,
    NumericalError,
    SparsityOutOfRange,
    ValidationError,
)


class TestDataset:
    def test_basic_construction(self):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert d.n_obs == 2
        assert d.n_features == 2

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


class TestFunctionalDataset:
    def test_quad_weights_derived(self):
        fd = FunctionalDataset(np.array([0.0, 1.0, 2.0]), np.zeros((2, 3)))
        assert np.allclose(fd.quad_weights, [0.5, 1.0, 0.5])
        assert fd.domain_measure == pytest.approx(2.0)

    def test_non_monotone_grid_names_index(self):
        with pytest.raises(NonMonotoneGrid, match="2"):
            FunctionalDataset(np.array([0.0, 1.0, 1.0]), np.zeros((2, 3)))

    def test_grid_length_must_match_columns(self):
        with pytest.raises((LengthMismatch, ValidationError)):
            FunctionalDataset(np.array([0.0, 1.0]), np.zeros((2, 3)))

    def test_max_spacing(self):
        fd = FunctionalDataset(np.array([0.0, 0.2, 1.0]), np.zeros((2, 3)))
        assert fd.max_spacing == pytest.approx(0.8)


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
    def test_support_and_l1(self):
        w = WeightVector(np.array([0.6, 0.0, 0.8]), 1, False)
        assert np.array_equal(w.support, [0, 2])
        assert w.l1() == pytest.approx(1.4)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            WeightVector(np.array([-0.1, 1.0]), 0, False)

    def test_rejects_norm_above_one(self):
        with pytest.raises(ValidationError):
            WeightVector(np.array([1.0, 0.5]), 0, False)

    def test_norm_tolerance_is_tight(self):
        # 1 + EPS_NORM passes, visibly above it does not
        WeightVector(np.array([1.0 + EPS_NORM / 2, 0.0]), 1, False)
        with pytest.raises(ValidationError):
            WeightVector(np.array([1.0 + 10 * EPS_NORM, 0.0]), 1, False)

    def test_zero_count_must_match_m(self):
        with pytest.raises(SparsityOutOfRange):
            WeightVector(np.array([1.0, 0.0]), 0, False)
        with pytest.raises(SparsityOutOfRange):
            WeightVector(np.array([0.6, 0.8]), 1, False)


class TestWeightFunction:
    def test_support_mask_and_measure(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        raw = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        w = raw / np.sqrt(np.sum(qw * raw**2))
        wf = WeightFunction(grid, w, 0.375, qw)
        assert np.array_equal(wf.support_mask(), raw > 0)
        assert wf.support_measure() == pytest.approx(qw[2:].sum())

    def test_rejects_overweight(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        with pytest.raises(ValidationError):
            WeightFunction(grid, np.full(5, 10.0), 0.25, qw)

    def test_zero_measure_must_cover_m(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        raw = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        w = raw / np.sqrt(np.sum(qw * raw**2))
        # zero measure is 0.125; asking for m=0.8 is inconsistent
        with pytest.raises(SparsityOutOfRange):
            WeightFunction(grid, w, 0.8, qw)


class TestSparseClusterResult:
    def _mk(self, trace):
        part = Partition(np.array([1, 2]), 2)
        wv = WeightVector(np.array([1.0, 0.0]), 1, False)
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
