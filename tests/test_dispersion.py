import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsekm import datatypes, dispersion
from sparsekm.datatypes import (
    Dataset,
    Partition,
    Weights,
    trapezoid_weights,
)
from sparsekm.dispersion import (
    Dispersion,
    bcss_per_feature,
    bcss_pointwise,
    weighted_objective,
)
from sparsekm.errors import PartitionMismatch, ValidationError


def pair_sum_bcss(col: np.ndarray, part: Partition) -> float:
    """Direct double-loop evaluation: (1/N) sum of all squared pair gaps
    minus, per cluster, (1/N_h) the within-cluster squared pair gaps."""
    n = col.size
    total = sum(
        (col[i] - col[j]) ** 2 for i in range(n) for j in range(n)
    ) / n
    within = 0.0
    for g in range(1, part.k + 1):
        idx = part.members(g)
        within += sum(
            (col[i] - col[j]) ** 2 for i in idx for j in idx
        ) / idx.size
    return total - within


def classical_bcss(col: np.ndarray, part: Partition) -> float:
    grand = col.mean()
    out = 0.0
    for g in range(1, part.k + 1):
        idx = part.members(g)
        out += idx.size * (col[idx].mean() - grand) ** 2
    return out


def random_partition(rng, n, k):
    while True:
        labels = rng.integers(1, k + 1, n)
        if len(np.unique(labels)) == k:
            return Partition(labels.astype(np.int64), k)


class TestBcssPerFeature:
    def test_frozen_two_cluster_example(self):
        d = Dataset(np.array([[0.0], [0.0], [2.0], [2.0]]))
        part = Partition(np.array([1, 1, 2, 2]), 2)
        disp = bcss_per_feature(d, part)
        assert disp.b[0] == pytest.approx(8.0)
        assert not disp.clamped

    def test_matches_pair_sum_form(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n, p, k = int(rng.integers(4, 12)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
            d = Dataset(rng.normal(size=(n, p)))
            part = random_partition(rng, n, k)
            disp = bcss_per_feature(d, part)
            for j in range(p):
                ref = pair_sum_bcss(d.values[:, j], part)
                assert disp.b[j] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_twice_the_classical_form(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(size=(10, 3)))
        part = random_partition(rng, 10, 3)
        disp = bcss_per_feature(d, part)
        for j in range(3):
            assert disp.b[j] == pytest.approx(
                2.0 * classical_bcss(d.values[:, j], part), rel=1e-9
            )

    def test_constant_feature_clamps_to_zero(self):
        vals = np.column_stack([np.full(6, 1e8), np.arange(6.0)])
        d = Dataset(vals)
        part = Partition(np.array([1, 1, 1, 2, 2, 2]), 2)
        disp = bcss_per_feature(d, part)
        assert disp.b[0] == 0.0
        assert np.all(disp.b >= 0.0)

    def test_partition_length_checked(self):
        d = Dataset(np.zeros((4, 2)))
        part = Partition(np.array([1, 2]), 2)
        with pytest.raises(PartitionMismatch):
            bcss_per_feature(d, part)


class TestBcssPointwise:
    def test_frozen_example_classical_convention(self):
        grid = np.array([0.0, 1.0])
        vals = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 2.0], [2.0, 2.0]])
        fd = Dataset(vals, grid=grid)
        part = Partition(np.array([1, 1, 2, 2]), 2)
        disp = bcss_pointwise(fd, part)
        assert np.allclose(disp.b, [4.0, 4.0])

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 7)
        vals = rng.normal(size=(8, 7))
        fd = Dataset(vals, grid=grid)
        part = random_partition(rng, 8, 3)
        disp = bcss_pointwise(fd, part)
        for g_idx in range(7):
            ref = classical_bcss(vals[:, g_idx], part)
            assert disp.b[g_idx] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_carries_quad_weights(self):
        grid = np.linspace(0.0, 2.0, 5)
        fd = Dataset(np.random.default_rng(1).normal(size=(4, 5)), grid=grid)
        part = Partition(np.array([1, 1, 2, 2]), 2)
        disp = bcss_pointwise(fd, part)
        assert np.array_equal(disp.quad_weights, fd.quad_weights)
        assert np.array_equal(disp.grid, fd.grid)

    def test_rejects_negative_samples(self):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValidationError):
            Dispersion(np.array([1.0, -0.5]), grid=grid)


def test_dispersion_is_the_datatypes_type():
    assert dispersion.Dispersion is datatypes.Dispersion


class TestWeightedDistanceAndObjective:
    def test_objective_vector_is_dot_product(self):
        disp = Dispersion(np.array([1.0, 2.0, 3.0]))
        wv = Weights(np.array([0.6, 0.0, 0.8]), 1)
        assert weighted_objective(wv, disp) == pytest.approx(0.6 + 2.4)

    def test_objective_function_is_quadrature_integral(self):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        b = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        disp = Dispersion(b, grid=grid)
        raw = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        wnorm = raw / np.sqrt(np.sum(qw * raw**2))
        wf = Weights(wnorm, 0.375, grid=grid)
        assert weighted_objective(wf, disp) == pytest.approx(float(np.sum(qw * wnorm * b)))


@given(st.data())
def test_property_bcss_identity(data):
    """Moment-form BCSS equals the O(N^2) pair-sum form."""
    n = data.draw(st.integers(4, 10))
    p = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(2, 3))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, p)) * data.draw(st.sampled_from([1.0, 1e3, 1e-3]))
    d = Dataset(vals)
    part = random_partition(rng, n, k)
    disp = bcss_per_feature(d, part)
    for j in range(p):
        ref = pair_sum_bcss(vals[:, j], part)
        scale = max(abs(ref), 1e-12)
        assert abs(disp.b[j] - ref) <= 1e-9 * scale
