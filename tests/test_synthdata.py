import numpy as np
import pytest

from sparsekm.errors import ValidationError
from sparsekm.rngutil import STREAM_DATASET, spawn_rng, standard_normal
from sparsekm.synthdata import (
    A_MEAN,
    A_SD,
    B_MEAN,
    B_SD,
    C_SD,
    C_SHIFT,
    SIGMA,
    FdScenario,
    MvScenario,
    curve_alt,
    curve_main,
    gen_fd,
    gen_mv,
    mv_mean_matrix,
)


class TestMvMeanMatrix:
    def test_frozen_small_design(self):
        mu = mv_mean_matrix(MvScenario(p=5, q=2))
        expect = np.array(
            [
                [0.2, 0.4, 0.6, 0.8, 1.0],
                [0.5, 0.7, 0.6, 0.8, 1.0],
                [-0.1, 0.1, 0.6, 0.8, 1.0],
            ]
        )
        assert np.allclose(mu, expect, atol=1e-14)

    def test_noise_features_identical_across_classes(self):
        s = MvScenario(p=30, q=10)
        mu = mv_mean_matrix(s)
        assert np.array_equal(mu[0, 10:], mu[1, 10:])
        assert np.array_equal(mu[0, 10:], mu[2, 10:])
        assert np.all(mu[1, :10] > mu[0, :10])
        assert np.all(mu[2, :10] < mu[0, :10])


class TestMvScenario:
    def test_q_cannot_exceed_p(self):
        with pytest.raises(ValidationError):
            MvScenario(p=6)

    def test_gen_shapes_and_labels(self):
        s = MvScenario(p=12, q=4, n_per_class=7, seed=5)
        d, truth = gen_mv(s)
        assert d.values.shape == (21, 12)
        assert truth.labels.tolist() == [1] * 7 + [2] * 7 + [3] * 7

    def test_tiny_sigma_recovers_means(self):
        # the values are the class means plus SIGMA times the dataset stream's normals, bit for bit
        s = MvScenario(p=12, q=4, n_per_class=5, seed=2)
        d, truth = gen_mv(s)
        noise = standard_normal(spawn_rng(2, STREAM_DATASET), d.values.shape)
        assert np.array_equal(d.values, mv_mean_matrix(s)[truth.labels - 1] + SIGMA * noise)

    def test_deterministic_per_seed(self):
        s = MvScenario(p=15, q=5, seed=9)
        d1, _ = gen_mv(s)
        d2, _ = gen_mv(s)
        assert np.array_equal(d1.values, d2.values)
        d3, _ = gen_mv(MvScenario(p=15, q=5, seed=10))
        assert not np.array_equal(d1.values, d3.values)


class TestCurveFormulas:
    def test_main_frozen_endpoints(self):
        assert float(curve_main(0.0, 3.0, 2.0, 0.0)) == pytest.approx(9.0, abs=1e-12)
        assert float(curve_main(1.0, 3.0, 2.0, 0.0)) == pytest.approx(-3.0, abs=1e-12)

    def test_main_at_zero_is_a_squared_plus_c(self):
        for a, c in [(3.0, 0.0), (2.5, 1.2), (4.0, -0.7)]:
            assert float(curve_main(0.0, a, 2.0, c)) == pytest.approx(
                a * a + c, abs=1e-12
            )

    def test_alt_matches_main_on_left_half(self):
        x = np.linspace(0.0, 0.5, 60)
        a, b, c = 3.1, 1.9, 0.8
        assert np.array_equal(curve_alt(x, a, b, c), curve_main(x, a, b, c))

    def test_alt_continuous_at_midpoint(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = float(rng.normal(3.0, 0.5))
            b = float(rng.normal(2.0, 0.25))
            c = float(rng.normal(0.5, 0.5))
            left = (b * np.sin(b * np.pi * 0.5) + a) * (a - 2.0) + c
            right = (b * np.sin(b * np.pi * 0.5) + a) * (a - 2.0) + c
            assert float(curve_alt(0.5, a, b, c)) == pytest.approx(left, abs=1e-12)
            eps = 1e-9
            below = float(curve_alt(0.5 - eps, a, b, c))
            above = float(curve_alt(0.5 + eps, a, b, c))
            assert abs(below - above) < 1e-6
            assert right == left

    def test_alt_frozen_right_endpoint(self):
        # at x=1 the alt branch reads (b sin(b pi) + a) * a
        a, b, c = 3.0, 2.0, 5.0
        expect = (2.0 * np.sin(2.0 * np.pi) + 3.0) * 3.0
        assert float(curve_alt(1.0, a, b, c)) == pytest.approx(expect, abs=1e-12)


class TestFdScenario:
    def test_gen_shapes_grid_labels(self):
        s = FdScenario(n_grid=50, n_per_class=8, seed=3)
        fd, truth = gen_fd(s)
        assert fd.values.shape == (16, 50)
        assert np.array_equal(fd.grid, np.linspace(0.0, 1.0, 50))
        assert truth.labels.tolist() == [1] * 8 + [2] * 8

    def test_classes_differ_mostly_on_right_half(self):
        s = FdScenario(n_grid=100, n_per_class=40, seed=1)
        fd, truth = gen_fd(s)
        mean1 = fd.values[truth.labels == 1].mean(axis=0)
        mean2 = fd.values[truth.labels == 2].mean(axis=0)
        gap = np.abs(mean1 - mean2)
        left = gap[fd.grid < 0.45].mean()
        right = gap[fd.grid > 0.55].mean()
        assert right > 4.0 * left

    def test_no_additive_noise_curves_are_smooth(self):
        s = FdScenario(n_grid=200, n_per_class=3, seed=7)
        fd, _ = gen_fd(s)
        # second differences of a sampled smooth function stay tiny relative
        # to the curve scale on a 200-point grid
        d2 = np.abs(np.diff(fd.values, n=2, axis=1)).max()
        assert d2 < 0.1

    @pytest.mark.parametrize("n_grid, n_per_class", [(200, 100), (40, 15), (60, 20), (7, 3)])
    def test_curves_match_a_per_curve_loop(self, n_grid, n_per_class):
        """One broadcast call per class gives the bytes of one call per curve,
        with the coefficients drawn in the same order."""
        for seed in range(10):
            s = FdScenario(n_grid=n_grid, n_per_class=n_per_class, seed=seed)
            grid = np.linspace(0.0, 1.0, n_grid)
            rng = spawn_rng(seed, STREAM_DATASET)
            want = []
            for builder, c_mean in [(curve_main, 0.0), (curve_alt, C_SHIFT)]:
                a = A_MEAN + A_SD * standard_normal(rng, n_per_class)
                b = B_MEAN + B_SD * standard_normal(rng, n_per_class)
                c = c_mean + C_SD * standard_normal(rng, n_per_class)
                want += [builder(grid, a[i], b[i], c[i]) for i in range(n_per_class)]
            assert gen_fd(s)[0].values.tobytes() == np.array(want).tobytes()

    def test_deterministic_per_seed(self):
        s = FdScenario(n_grid=60, n_per_class=5, seed=11)
        f1, _ = gen_fd(s)
        f2, _ = gen_fd(s)
        assert np.array_equal(f1.values, f2.values)
        f3, _ = gen_fd(FdScenario(n_grid=60, n_per_class=5, seed=12))
        assert not np.array_equal(f1.values, f3.values)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FdScenario(n_grid=1)
        with pytest.raises(ValidationError):
            FdScenario(n_per_class=0)
