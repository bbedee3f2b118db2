import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekm.datatypes import FunctionalDataset, trapezoid_weights
from sparsekm.errors import (
    AllZeroAfterThreshold,
    DegenerateDispersion,
    GridMismatch,
    NonPositiveDispersion,
    SOutOfRange,
    SparsityOutOfRange,
)
from sparsekm.solvers import (
    functional_threshold_level,
    functional_threshold_weights,
    hard_threshold_weights,
    soft_threshold_weights,
)


def enumerate_best_support(b: np.ndarray, m: int):
    """Independent oracle: try every feasible support of the right size.

    Only strictly positive entries may carry weight, so the search runs over
    subsets of the positive indices, of size min(p - m, #positive).
    """
    pos = [i for i, v in enumerate(b) if v > 0]
    size = min(len(b) - m, len(pos))
    if size == 0:
        return None, None
    best_val, best_sup = -1.0, None
    for sup in itertools.combinations(pos, size):
        val = math.sqrt(sum(b[i] ** 2 for i in sup))
        if val > best_val:
            best_val, best_sup = val, sup
    return best_val, best_sup


class TestHardThreshold:
    def test_frozen_small_example(self):
        b = np.array([3.0, 1.0, 2.0])
        assert np.allclose(hard_threshold_weights(b, 0).w, b / np.sqrt(14.0))
        w1 = hard_threshold_weights(b, 1)
        assert np.allclose(w1.w, [3 / np.sqrt(13), 0.0, 2 / np.sqrt(13)])
        w2 = hard_threshold_weights(b, 2)
        assert np.array_equal(w2.w, [1.0, 0.0, 0.0])

    def test_objective_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = int(rng.integers(1, 7))
            b = rng.uniform(0.01, 5.0, p)
            m = int(rng.integers(0, p))
            wv = hard_threshold_weights(b, m)
            best_val, _ = enumerate_best_support(b, m)
            assert abs(float(wv.w @ b) - best_val) <= 1e-12 * best_val
            # the returned vector is the closed form on its own support
            sup = wv.support
            assert np.allclose(wv.w[sup], b[sup] / np.linalg.norm(b[sup]), atol=1e-15)

    def test_ties_keep_lower_index(self):
        wv = hard_threshold_weights(np.array([2.0, 2.0, 1.0]), 2)
        assert np.array_equal(wv.support, [0])

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = rng.uniform(0.1, 9.0, 8)
            wv = hard_threshold_weights(b, int(rng.integers(0, 8)))
            assert np.linalg.norm(wv.w) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_entries_shrink_support(self):
        wv = hard_threshold_weights(np.array([5.0, -1.0, 0.0, 3.0]), 1)
        assert np.array_equal(wv.support, [0, 3])
        assert wv.m == 2
        assert wv.support_shrunk

    def test_all_nonpositive_raises(self):
        with pytest.raises(NonPositiveDispersion):
            hard_threshold_weights(np.array([0.0, -2.0]), 0)

    def test_m_validation(self):
        b = np.array([1.0, 2.0])
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(b, -1)
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(b, 2)
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(b, 1.0)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12),
        st.integers(0, 11),
    )
    def test_property_support_holds_largest_entries(self, vals, m_raw):
        b = np.array(vals)
        m = min(m_raw, len(b) - 1)
        wv = hard_threshold_weights(b, m)
        kept = set(wv.support.tolist())
        dropped = set(range(len(b))) - kept
        if kept and dropped:
            assert min(b[i] for i in kept) >= max(b[j] for j in dropped)


class TestScaleInvariance:
    """Same weights for b and c*b, including scales whose squares would
    underflow or overflow in float64."""

    @pytest.mark.parametrize("scale", [1e-180, 1e-12, 1.0, 1e12, 1e160])
    def test_hard(self, scale):
        b = np.array([3.0, 1.0, 2.0, 0.5])
        ref = hard_threshold_weights(b, 1).w
        assert np.allclose(hard_threshold_weights(b * scale, 1).w, ref, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-180, 1e-12, 1.0, 1e12, 1e160])
    def test_soft(self, scale):
        a = np.array([3.0, 1.0, 2.0, 0.5])
        ref = soft_threshold_weights(a, 1.4).w
        assert np.allclose(soft_threshold_weights(a * scale, 1.4).w, ref, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-180, 1e-12, 1.0, 1e12, 1e160])
    def test_functional(self, scale):
        b = np.array([1.0, 1, 2, 2, 3, 3, 3, 3, 2, 1])
        qw = np.full(10, 0.1)
        grid = np.linspace(0.05, 0.95, 10)
        ref = functional_threshold_weights(b, 0.4, quad=qw, grid=grid).w
        got = functional_threshold_weights(b * scale, 0.4, quad=qw, grid=grid).w
        assert np.allclose(got, ref, atol=1e-12)


def soft_binding_closed_form_2d(a1: float, a2: float, s: float):
    """Exact solution of the 2-d soft problem when the L1 constraint binds
    with both coordinates positive: shrink both scores by the same amount
    until the normalized L1 norm hits s."""
    g = a1 - a2
    t = s * g / math.sqrt(2.0 - s * s)
    u, v = (t + g) / 2.0, (t - g) / 2.0
    norm = math.sqrt((t * t + g * g) / 2.0)
    return np.array([u, v]) / norm


class TestSoftThreshold:
    def test_unconstrained_when_l1_feasible(self):
        a = np.array([3.0, 1.0])
        wv = soft_threshold_weights(a, math.sqrt(2.0))
        assert np.allclose(wv.w, a / np.sqrt(10.0), atol=1e-12)

    def test_binding_matches_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a2 = rng.uniform(0.1, 5.0)
            a1 = a2 + rng.uniform(0.05, 5.0)
            a = np.array([a1, a2])
            l1_unc = a.sum() / np.linalg.norm(a)
            s = rng.uniform(1.0 + 1e-6, l1_unc - 1e-6)
            wv = soft_threshold_weights(a, s)
            ref = soft_binding_closed_form_2d(a1, a2, s)
            assert np.allclose(wv.w, ref, atol=1e-9)
            assert wv.l1() == pytest.approx(s, abs=1e-9)

    def test_exact_zero_at_s_equal_one(self):
        wv = soft_threshold_weights(np.array([2.0, 1.0]), 1.0)
        assert np.array_equal(wv.w, [1.0, 0.0])
        assert wv.m == 1

    def test_tied_maxima_floor(self):
        a = np.full(3, 4.0)
        wv = soft_threshold_weights(a, math.sqrt(3.0))
        assert np.allclose(wv.w, np.full(3, 1 / math.sqrt(3.0)))
        # three tied maxima cannot reach an L1 norm below sqrt(3)
        with pytest.raises(SOutOfRange):
            soft_threshold_weights(a, 1.5)

    def test_negative_scores_never_selected(self):
        wv = soft_threshold_weights(np.array([3.0, -5.0, 2.0]), 1.2)
        assert wv.w[1] == 0.0

    def test_all_nonpositive_raises(self):
        with pytest.raises(AllZeroAfterThreshold):
            soft_threshold_weights(np.array([-1.0, 0.0]), 1.0)

    def test_s_range_validated(self):
        a = np.array([3.0, 1.0])
        with pytest.raises(SOutOfRange):
            soft_threshold_weights(a, 0.9)
        with pytest.raises(SOutOfRange):
            soft_threshold_weights(a, 1.5)

    @given(
        st.lists(st.floats(-5.0, 10.0), min_size=2, max_size=10).filter(
            lambda v: max(v) > 0
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=120)
    def test_property_constraints(self, vals, frac):
        a = np.array(vals)
        p = len(a)
        s = 1.0 + frac * (math.sqrt(p) - 1.0)
        n_max = int((a == a.max()).sum())
        if s < math.sqrt(n_max):
            return  # below the tied-maxima floor; rejection tested above
        wv = soft_threshold_weights(a, s)
        assert np.all(wv.w >= 0.0)
        assert np.linalg.norm(wv.w) == pytest.approx(1.0, abs=1e-9)
        assert wv.l1() <= s + 1e-8


class TestFunctionalThreshold:
    def test_level_for_linear_dispersion(self):
        grid = np.linspace(0.0, 1.0, 1001)
        qw = trapezoid_weights(grid)
        level = functional_threshold_level(grid.copy(), 0.5, quad=qw)
        assert level == pytest.approx(0.5, abs=2e-3)

    def test_weights_for_linear_dispersion(self):
        grid = np.linspace(0.0, 1.0, 1001)
        qw = trapezoid_weights(grid)
        wf = functional_threshold_weights(grid.copy(), 0.5, quad=qw, grid=grid)
        # continuum solution: w = x / sqrt(int_{1/2}^1 x^2 dx) on (1/2, 1]
        assert wf.w[-1] == pytest.approx(math.sqrt(24.0 / 7.0), rel=1e-3)
        assert wf.w[250] == 0.0
        # the quadrature norm identity is exact regardless of grid effects
        assert np.sum(qw * wf.w**2) == pytest.approx(1.0, abs=1e-12)

    def test_simple_function_level_by_hand(self):
        # bare-array path: 10 samples, each carrying mass 1/10
        b = np.array([1.0, 1, 2, 2, 3, 3, 3, 3, 2, 1])
        qw = np.full(10, 0.1)
        # measure{b > 1} = 0.7, measure{b > 2} = 0.4; smallest level whose
        # retained measure fits the 0.6 budget is 2
        level = functional_threshold_level(b, 0.4, quad=qw)
        assert level == 2.0
        wf = functional_threshold_weights(b, 0.4, quad=qw, grid=np.linspace(0.05, 0.95, 10))
        expected = 3.0 / math.sqrt(4 * 0.1 * 9.0)
        on = wf.w[b > 2.0]
        assert np.allclose(on, expected)
        assert np.all(wf.w[b <= 2.0] == 0.0)

    def test_plateau_zero_measure_may_exceed_m(self):
        b = np.array([1.0, 1, 2, 2, 3, 3, 3, 3, 2, 1])
        wf = functional_threshold_weights(
            b, 0.5, quad=np.full(10, 0.1), grid=np.linspace(0.05, 0.95, 10)
        )
        # the plateau at 2 cannot be split: zeroing it leaves measure 0.6 > m
        assert wf.support_measure() == pytest.approx(0.4)

    def test_all_zero_dispersion_raises(self):
        with pytest.raises(DegenerateDispersion):
            functional_threshold_weights(
                np.zeros(10), 0.4, quad=np.full(10, 0.1), grid=np.linspace(0.05, 0.95, 10)
            )

    def test_m_out_of_range(self):
        b = np.ones(10)
        qw = np.full(10, 0.1)
        grid = np.linspace(0.05, 0.95, 10)
        with pytest.raises(SparsityOutOfRange):
            functional_threshold_weights(b, 0.0, quad=qw, grid=grid)
        with pytest.raises(SparsityOutOfRange):
            functional_threshold_weights(b, 1.0, quad=qw, grid=grid)

    def test_quad_weights_and_grid_checked(self):
        b = np.ones(4)
        qw = np.array([0.5, 0.0, 0.25, 0.25])
        with pytest.raises(GridMismatch, match="positive"):
            functional_threshold_level(b, 0.4, quad=qw)
        with pytest.raises(GridMismatch, match="positive"):
            functional_threshold_weights(b, 0.4, quad=qw, grid=np.arange(4.0))
        with pytest.raises(GridMismatch, match="grid length"):
            functional_threshold_weights(b, 0.4, quad=np.full(4, 0.25), grid=np.arange(3.0))

    def test_two_node_grid_runs(self):
        fd = FunctionalDataset(np.array([0.0, 1.0]), np.zeros((2, 2)))
        wf = functional_threshold_weights(
            np.array([1.0, 2.0]), 0.4, quad=fd.quad_weights, grid=fd.grid
        )
        assert wf.w[0] == 0.0
        assert wf.w[1] == pytest.approx(np.sqrt(2.0))

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=3, max_size=40).filter(
            lambda v: max(v) > 0
        ),
        st.floats(0.05, 0.95),
    )
    def test_property_support_above_level(self, vals, mfrac):
        b = np.array(vals)
        qw = np.full(len(b), 1.0 / len(b))
        m = mfrac  # domain measure is 1 here
        try:
            level = functional_threshold_level(b, m, quad=qw)
            wf = functional_threshold_weights(b, m, quad=qw, grid=(np.arange(len(b)) + 0.5) / len(b))
        except DegenerateDispersion:
            return
        on = b > level
        assert np.all(wf.w[~on] == 0.0)
        assert np.all(wf.w[on] > 0.0)
        # retained measure fits the budget; zero measure covers m
        assert qw[on].sum() <= 1.0 - m + 1e-12
        assert np.sum(qw * wf.w**2) == pytest.approx(1.0, abs=1e-9)
