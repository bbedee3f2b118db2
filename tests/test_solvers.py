import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekm.datatypes import Dataset, trapezoid_weights
from sparsekm.dispersion import Dispersion
from sparsekm.errors import (
    DegenerateDispersion,
    GridMismatch,
    NonPositiveDispersion,
    NumericalError,
    SOutOfRange,
    SparsityOutOfRange,
    TiedMaximaFloor,
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
        assert np.allclose(hard_threshold_weights(Dispersion(b), 0).w, b / np.sqrt(14.0))
        w1 = hard_threshold_weights(Dispersion(b), 1)
        assert np.allclose(w1.w, [3 / np.sqrt(13), 0.0, 2 / np.sqrt(13)])
        w2 = hard_threshold_weights(Dispersion(b), 2)
        assert np.array_equal(w2.w, [1.0, 0.0, 0.0])

    def test_objective_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = int(rng.integers(1, 7))
            b = rng.uniform(0.01, 5.0, p)
            m = int(rng.integers(0, p))
            wv = hard_threshold_weights(Dispersion(b), m)
            best_val, _ = enumerate_best_support(b, m)
            assert abs(float(wv.w @ b) - best_val) <= 1e-12 * best_val
            # the returned vector is the closed form on its own support
            sup = wv.support
            assert np.allclose(wv.w[sup], b[sup] / np.linalg.norm(b[sup]), atol=1e-15)

    def test_ties_keep_lower_index(self):
        wv = hard_threshold_weights(Dispersion(np.array([2.0, 2.0, 1.0])), 2)
        assert np.array_equal(wv.support, [0])

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = rng.uniform(0.1, 9.0, 8)
            wv = hard_threshold_weights(Dispersion(b), int(rng.integers(0, 8)))
            assert np.linalg.norm(wv.w) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_entries_shrink_support(self):
        wv = hard_threshold_weights(Dispersion(np.maximum(np.array([5.0, -1.0, 0.0, 3.0]), 0.0)), 1)
        assert np.array_equal(wv.support, [0, 3])
        assert wv.m == 2
        assert wv.support_shrunk

    def test_all_nonpositive_raises(self):
        with pytest.raises(NonPositiveDispersion):
            hard_threshold_weights(Dispersion(np.maximum(np.array([0.0, -2.0]), 0.0)), 0)

    def test_scores_that_underflow_at_unit_scale_shrink_support(self):
        # 1e-30 / 1e300 is 0 in float64: the entry is zero on the scale the
        # weights are formed on, so it is not retained, and m grows to 1
        wv = hard_threshold_weights(Dispersion(np.array([1e300, 1e-30, 1.0])), 0)
        assert np.array_equal(wv.w, [1.0, 0.0, 1e-300])
        assert wv.m == 1 and wv.support_shrunk

    def test_m_validation(self):
        disp = Dispersion(np.array([1.0, 2.0]))
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(disp, -1)
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(disp, 2)
        # m follows the one rule of every entry point: a whole number
        w_float, w_int = hard_threshold_weights(disp, 1.0), hard_threshold_weights(disp, 1)
        assert np.array_equal(w_float.w, w_int.w)
        assert w_float.m == w_int.m and w_float.support_shrunk == w_int.support_shrunk
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(disp, 1.5)
        with pytest.raises(SparsityOutOfRange):
            hard_threshold_weights(disp, float("nan"))

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12),
        st.integers(0, 11),
    )
    def test_property_support_holds_largest_entries(self, vals, m_raw):
        b = np.array(vals)
        m = min(m_raw, len(b) - 1)
        wv = hard_threshold_weights(Dispersion(b), m)
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
        ref = hard_threshold_weights(Dispersion(b), 1).w
        assert np.allclose(hard_threshold_weights(Dispersion(b * scale), 1).w, ref, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-180, 1e-12, 1.0, 1e12, 1e160])
    def test_soft(self, scale):
        a = np.array([3.0, 1.0, 2.0, 0.5])
        ref = soft_threshold_weights(Dispersion(a), 1.4).w
        assert np.allclose(soft_threshold_weights(Dispersion(a * scale), 1.4).w, ref, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-180, 1e-12, 1.0, 1e12, 1e160])
    def test_functional(self, scale):
        b = np.array([1.0, 1, 2, 2, 3, 3, 3, 3, 2, 1])
        grid = np.linspace(0.0, 0.9, 10)
        ref = functional_threshold_weights(Dispersion(b, grid=grid), 0.4).w
        got = functional_threshold_weights(Dispersion(b * scale, grid=grid), 0.4).w
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


def bisection_soft_weights(a: np.ndarray, s: float) -> np.ndarray:
    """Reference for the soft solver: bisection on delta.

    Each step keeps the feasible (||w||_1 <= s) side of the bracket [0, max a),
    and the answer is taken from that side. It runs all 200 steps rather than
    stopping at an L1 tolerance: near s = sqrt(j) the weights move far more
    than ||w||_1 does, so a tolerance of 1e-10 on ||w||_1 leaves them off by
    far more than 1e-10. The bracket collapses to adjacent floats, so delta
    is resolved to its last bit. Coordinates at the resulting noise floor of
    a few ulp are snapped to zero. s must not lie below the sqrt(#tied
    maxima) floor.
    """
    a = a / float(np.max(a))

    def evaluate(delta):
        v = np.maximum(a - delta, 0.0)
        norm = float(np.sqrt(np.sum(v * v)))
        l1 = float(np.sum(v)) / norm if norm > 0.0 else np.inf
        return l1, v, norm

    l1, v, norm = evaluate(0.0)
    if l1 <= s:
        return v / norm
    lo, hi = 0.0, np.nextafter(1.0, 0.0)
    _, v, norm = evaluate(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        l1_mid, v_mid, n_mid = evaluate(mid)
        if l1_mid > s:
            lo = mid
        else:
            hi, v, norm = mid, v_mid, n_mid
    snapped = np.where(v <= 4.0 * np.finfo(np.float64).eps, 0.0, v)
    if np.any(snapped > 0.0):
        v = snapped
        norm = float(np.sqrt(np.sum(v * v)))
    return v / norm


class TestSoftThreshold:
    def test_unconstrained_when_l1_feasible(self):
        a = np.array([3.0, 1.0])
        wv = soft_threshold_weights(Dispersion(a), math.sqrt(2.0))
        assert np.allclose(wv.w, a / np.sqrt(10.0), atol=1e-12)

    def test_binding_matches_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a2 = rng.uniform(0.1, 5.0)
            a1 = a2 + rng.uniform(0.05, 5.0)
            a = np.array([a1, a2])
            l1_unc = a.sum() / np.linalg.norm(a)
            s = rng.uniform(1.0 + 1e-6, l1_unc - 1e-6)
            wv = soft_threshold_weights(Dispersion(a), s)
            ref = soft_binding_closed_form_2d(a1, a2, s)
            assert np.allclose(wv.w, ref, atol=1e-9)
            assert wv.l1() == pytest.approx(s, abs=1e-9)

    def test_exact_zero_at_s_equal_one(self):
        wv = soft_threshold_weights(Dispersion(np.array([2.0, 1.0])), 1.0)
        assert np.array_equal(wv.w, [1.0, 0.0])
        assert wv.m == 1

    def test_tied_maxima_floor(self):
        a = np.full(3, 4.0)
        wv = soft_threshold_weights(Dispersion(a), math.sqrt(3.0))
        assert np.allclose(wv.w, np.full(3, 1 / math.sqrt(3.0)))
        # three tied maxima cannot reach an L1 norm below sqrt(3)
        with pytest.raises(TiedMaximaFloor):
            soft_threshold_weights(Dispersion(a), 1.5)

    def test_tie_floor_is_numerical_and_names_the_features(self):
        # the data sets the floor, so it is not a usage error
        a = np.array([1.0, 4.0, 2.0, 4.0])
        with pytest.raises(TiedMaximaFloor, match=r"sqrt\(2\) of 2 tied maximal scores, at features 1, 3 ") as info:
            soft_threshold_weights(Dispersion(a), 1.2)
        assert isinstance(info.value, NumericalError)

    def test_negative_scores_never_selected(self):
        wv = soft_threshold_weights(Dispersion(np.maximum(np.array([3.0, -5.0, 2.0]), 0.0)), 1.2)
        assert wv.w[1] == 0.0

    def test_zero_weights_are_positive_zeros(self):
        for s in (1.2, 1.5):  # the constraint binds, then it does not
            w = soft_threshold_weights(Dispersion(np.array([-0.0, 2.0, 1.0])), s).w
            assert w[0] == 0.0 and not np.signbit(w[0])

    def test_all_nonpositive_raises(self):
        with pytest.raises(NonPositiveDispersion):
            soft_threshold_weights(Dispersion(np.maximum(np.array([-1.0, 0.0]), 0.0)), 1.0)

    def test_s_range_validated(self):
        a = np.array([3.0, 1.0])
        with pytest.raises(SOutOfRange):
            soft_threshold_weights(Dispersion(a), 0.9)
        with pytest.raises(SOutOfRange):
            soft_threshold_weights(Dispersion(a), 1.5)

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
        wv = soft_threshold_weights(Dispersion(np.maximum(a, 0.0)), s)
        assert np.all(wv.w >= 0.0)
        assert np.linalg.norm(wv.w) == pytest.approx(1.0, abs=1e-9)
        assert wv.l1() <= s + 1e-8

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=12).filter(lambda v: max(v) > 0),
        st.one_of(st.just("one"), st.just("sqrt_p"), st.floats(0.0, 1.0)),
        st.integers(-180, 160).map(lambda e: 10.0**e),
    )
    @settings(max_examples=300)
    def test_property_matches_bisection(self, ints, s_choice, scale):
        # small whole scores make zeros and tied maxima common
        a = np.array(ints, dtype=np.float64) * scale
        p = a.size
        s = {"one": 1.0, "sqrt_p": math.sqrt(p)}.get(s_choice)
        if s is None:
            s = 1.0 + s_choice * (math.sqrt(p) - 1.0)
        floor = math.sqrt(int(np.count_nonzero(a == a.max())))
        if s < floor * (1.0 - 1e-12):
            with pytest.raises(TiedMaximaFloor):
                soft_threshold_weights(Dispersion(a), s)
            return
        if s < floor:
            return  # at the tied-maxima floor up to rounding: either answer holds
        w = soft_threshold_weights(Dispersion(a), s).w
        assert np.allclose(w, bisection_soft_weights(a, s), rtol=0.0, atol=1e-9)
        u = a / a.max()
        if u.sum() / np.linalg.norm(u) > s:  # the L1 constraint binds
            assert abs(w.sum() - s) <= 1e-12

    def test_near_tied_top_scores(self):
        # the top two scores tie to 1e-10: only their gap sets the weights
        wv = soft_threshold_weights(Dispersion(np.array([1.0, 1.0 - 1e-10, 0.2])), 1.4)
        assert np.allclose(wv.w, [0.8, 0.6, 0.0], rtol=0.0, atol=1e-12)
        assert wv.m == 1


class TestFunctionalThreshold:
    def test_level_for_linear_dispersion(self):
        grid = np.linspace(0.0, 1.0, 1001)
        level = functional_threshold_level(Dispersion(grid.copy(), grid=grid), 0.5)
        assert level == pytest.approx(0.5, abs=2e-3)

    def test_weights_for_linear_dispersion(self):
        grid = np.linspace(0.0, 1.0, 1001)
        qw = trapezoid_weights(grid)
        wf = functional_threshold_weights(Dispersion(grid.copy(), grid=grid), 0.5)
        # continuum solution: w = x / sqrt(int_{1/2}^1 x^2 dx) on (1/2, 1]
        assert wf.w[-1] == pytest.approx(math.sqrt(24.0 / 7.0), rel=1e-3)
        assert wf.w[250] == 0.0
        # the quadrature norm identity is exact regardless of grid effects
        assert np.sum(qw * wf.w**2) == pytest.approx(1.0, abs=1e-12)

    def test_simple_function_level_by_hand(self):
        # 10 samples on [0, 0.9]: interior masses 1/10, the two half-masses
        # at the ends, where b = 1
        b = np.array([1.0, 1, 2, 2, 3, 3, 3, 3, 2, 1])
        disp = Dispersion(b, grid=np.linspace(0.0, 0.9, 10))
        # measure{b > 1} = 0.7, measure{b > 2} = 0.4; smallest level whose
        # retained measure fits the 0.9 - 0.4 = 0.5 budget is 2
        level = functional_threshold_level(disp, 0.4)
        assert level == 2.0
        wf = functional_threshold_weights(disp, 0.4)
        expected = 3.0 / math.sqrt(4 * 0.1 * 9.0)
        on = wf.w[b > 2.0]
        assert np.allclose(on, expected)
        assert np.all(wf.w[b <= 2.0] == 0.0)

    def test_plateau_zero_measure_may_exceed_m(self):
        b = np.array([1.0, 1, 2, 2, 3, 3, 3, 3, 2, 1])
        wf = functional_threshold_weights(Dispersion(b, grid=np.linspace(0.0, 0.9, 10)), 0.45)
        # the plateau at 2 cannot be split: zeroing it leaves measure 0.5 > m
        assert wf.support_measure() == pytest.approx(0.4)

    def test_all_zero_dispersion_raises(self):
        with pytest.raises(NonPositiveDispersion):
            functional_threshold_weights(Dispersion(np.zeros(10), grid=np.linspace(0.0, 0.9, 10)), 0.4)

    def test_m_out_of_range(self):
        disp = Dispersion(np.ones(10), grid=np.linspace(0.0, 0.9, 10))
        with pytest.raises(SparsityOutOfRange):
            functional_threshold_weights(disp, 0.0)
        with pytest.raises(SparsityOutOfRange):
            functional_threshold_weights(disp, 1.0)

    def test_quad_weights_and_grid_checked(self):
        b = np.ones(4)
        # the first trapezoid mass of this strictly increasing grid underflows to 0
        with pytest.raises(GridMismatch, match="positive"):
            Dispersion(b, grid=[0.0, 5e-324, 1e-323, 1.0])
        with pytest.raises(GridMismatch, match="grid of 3 points"):
            Dispersion(b, grid=np.arange(3.0))
        with pytest.raises(GridMismatch, match="on a grid"):
            functional_threshold_weights(Dispersion(b), 0.4)

    def test_two_node_grid_runs(self):
        fd = Dataset(np.zeros((2, 2)), grid=np.array([0.0, 1.0]))
        wf = functional_threshold_weights(Dispersion(np.array([1.0, 2.0]), grid=fd.grid), 0.4)
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
        disp = Dispersion(b, grid=np.linspace(0.0, 1.0, len(b)))
        qw = disp.quad_weights
        m = mfrac  # domain measure is 1 here
        try:
            level = functional_threshold_level(disp, m)
            wf = functional_threshold_weights(disp, m)
        except DegenerateDispersion:
            return
        on = b > level
        assert np.all(wf.w[~on] == 0.0)
        assert np.all(wf.w[on] > 0.0)
        # retained measure fits the budget; zero measure covers m
        assert qw[on].sum() <= 1.0 - m + 1e-12
        assert np.sum(qw * wf.w**2) == pytest.approx(1.0, abs=1e-9)
