"""Weight solvers.

Three ways to turn dispersion scores into unit-norm feature weights: the
closed-form hard-threshold rule (the method of interest), the bisection
soft-threshold baseline it is compared against, and the level-set variant
for weights defined over a continuous domain.
"""

from __future__ import annotations

import operator

import numpy as np

from .datatypes import WeightFunction, WeightVector, check_finite
from .errors import (
    AllZeroAfterThreshold,
    DegenerateDispersion,
    GridMismatch,
    NonPositiveDispersion,
    SOutOfRange,
    SparsityOutOfRange,
)

# Bisection control for the soft-threshold L1 constraint.
EPS_S = 1e-10
MAX_BISECT = 200


def whole_m(m) -> int:
    """A feature count m as an int; 10.0 passes, 2.7, nan and inf do not."""
    try:
        if float(m).is_integer():
            return int(m)
    except (TypeError, ValueError):
        pass
    raise SparsityOutOfRange(f"m must be a whole number, got {m}")


def hard_threshold_weights(b, m: int) -> WeightVector:
    """Unit-norm weights proportional to b on its p - m largest entries.

    This is the exact maximizer of sum_j w_j b_j over nonnegative unit-L2
    weight vectors with at least m zeros: rank b descending (ties broken
    toward the lower index), keep the top p - m, normalize, zero the rest.
    Nonpositive entries are never retained; if excluding them shrinks the
    support below p - m, the realized m grows and the result is flagged
    via ``support_shrunk``.
    """
    b_arr = np.asarray(getattr(b, "b", b), dtype=np.float64)
    if b_arr.ndim != 1 or b_arr.size < 1:
        raise SparsityOutOfRange("dispersion must be a non-empty 1-d vector")
    check_finite(b_arr, "dispersion")
    p = b_arr.size
    try:
        m_int = operator.index(m)
    except TypeError:
        raise SparsityOutOfRange(f"m must be an integer, got {m!r}") from None
    if not 0 <= m_int < p:
        raise SparsityOutOfRange(f"m={m_int} outside [0, {p})")
    n_pos = int(np.count_nonzero(b_arr > 0.0))
    if n_pos == 0:
        raise NonPositiveDispersion("no positive dispersion entry to retain")
    target = p - m_int
    keep = min(target, n_pos)
    order = np.argsort(-b_arr, kind="stable")
    support = order[:keep]
    # w is scale-invariant in b; normalizing by the max entry keeps the
    # squared sums away from under/overflow for extreme dispersion scales.
    vals = b_arr[support] / b_arr[support[0]]
    w = np.zeros(p)
    w[support] = vals / np.sqrt(np.sum(vals * vals))
    return WeightVector(w, m=p - keep, support_shrunk=keep < target)


def soft_threshold_weights(a, s: float) -> WeightVector:
    """L1-budgeted soft-threshold weights, the comparison baseline.

    Returns S(a_+, delta) / ||S(a_+, delta)||_2 where S shrinks toward zero
    by delta and clips at zero. delta = 0 when the unconstrained solution
    already meets ||w||_1 <= s; otherwise delta is found by bisection on
    [0, max(a_+)) so that ||w||_1 = s within EPS_S. The final iterate is
    always taken from the feasible (<= s) side of the bracket.
    """
    a_arr = np.asarray(getattr(a, "b", a), dtype=np.float64)
    if a_arr.ndim != 1 or a_arr.size < 1:
        raise SparsityOutOfRange("scores must be a non-empty 1-d vector")
    check_finite(a_arr, "score")
    p = a_arr.size
    s = float(s)
    if not 1.0 <= s <= np.sqrt(p):
        raise SOutOfRange(f"s={s} outside [1, sqrt({p})]")
    a_pos = np.maximum(a_arr, 0.0)
    if not np.any(a_pos > 0.0):
        raise AllZeroAfterThreshold("every score is nonpositive")
    # w is scale-invariant in the scores; solving on a max-normalized copy
    # keeps the squared sums away from under/overflow for extreme scales.
    a_pos = a_pos / float(np.max(a_pos))

    def evaluate(delta):
        v = np.maximum(a_pos - delta, 0.0)
        norm = float(np.sqrt(np.sum(v * v)))
        l1 = float(np.sum(v)) / norm if norm > 0.0 else np.inf
        return l1, v, norm

    l1, v, norm = evaluate(0.0)
    if l1 <= s:
        w = v / norm
        return WeightVector(w, m=int(np.count_nonzero(w == 0.0)))

    lo = 0.0
    hi = np.nextafter(float(np.max(a_pos)), 0.0)
    l1_hi, v_hi, n_hi = evaluate(hi)
    if l1_hi > s + EPS_S:
        # Tied maxima put a floor of sqrt(#ties) on the reachable L1 norm.
        raise SOutOfRange(
            f"s={s} below the attainable L1 floor {l1_hi} for these scores"
        )
    feasible = (v_hi, n_hi)
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        l1_mid, v_mid, n_mid = evaluate(mid)
        if l1_mid > s:
            lo = mid
            continue
        feasible = (v_mid, n_mid)
        if s - l1_mid <= EPS_S:
            break
        hi = mid
    v, norm = feasible
    # The bracket resolves delta only to ~ulp * max(a); coordinates at that
    # noise floor are numerically zero, so snap them before normalizing.
    tiny = 4.0 * np.finfo(np.float64).eps * float(np.max(a_pos))
    snapped = np.where(v <= tiny, 0.0, v)
    if np.any(snapped > 0.0):
        v = snapped
        norm = float(np.sqrt(np.sum(v * v)))
    w = v / norm
    return WeightVector(w, m=int(np.count_nonzero(w == 0.0)))


def _function_context(b, quad):
    """Normalize (dispersion, quadrature) from a Dispersion or bare inputs.

    ``quad`` defaults to the masses the dispersion carries.
    """
    if quad is None:
        quad = getattr(b, "quad_weights", None)
    b_arr = np.asarray(getattr(b, "b", b), dtype=np.float64)
    if b_arr.ndim != 1 or b_arr.size < 1:
        raise GridMismatch("dispersion must be a non-empty 1-d vector")
    check_finite(b_arr, "dispersion")
    if quad is None:
        raise GridMismatch("quad weights required with a bare dispersion vector")
    qw = np.asarray(quad, dtype=np.float64)
    if qw.shape != b_arr.shape:
        raise GridMismatch(
            f"quad weights length {qw.size} does not match dispersion ({b_arr.size})"
        )
    if np.any(qw <= 0.0):
        raise GridMismatch("quad weights must be positive")
    return b_arr, qw


def functional_threshold_level(b, m: float, quad=None) -> float:
    """Smallest level k >= 0 whose superlevel set {b > k} has measure <= mu(D) - m.

    Scans the distinct sample values of b in ascending order against the
    cumulative quadrature mass, so plateaus of b (where the level-set
    measure jumps) resolve to the smallest admissible level.
    """
    b_arr, qw = _function_context(b, quad)
    mu = float(np.sum(qw))
    m = float(m)
    if not 0.0 < m < mu:
        raise SparsityOutOfRange(f"m={m} outside (0, {mu})")
    budget = mu - m
    if float(np.sum(qw[b_arr > 0.0])) <= budget:
        return 0.0
    order = np.argsort(b_arr, kind="stable")
    sorted_b = b_arr[order]
    cum = np.cumsum(qw[order])
    # Candidate levels are the last occurrence of each distinct value, where
    # cum equals the full measure of {b <= value}.
    last = np.nonzero(np.r_[sorted_b[1:] > sorted_b[:-1], True])[0]
    retained = mu - cum[last]
    hit = np.nonzero(retained <= budget)[0]
    # retained falls to 0 at the largest value, so a hit always exists
    return float(sorted_b[last[hit[0]]])


def functional_threshold_weights(b, m: float, grid, quad=None) -> WeightFunction:
    """Level-set hard thresholding for weights over a continuous domain.

    Zeroes b outside its superlevel set at the level chosen by
    ``functional_threshold_level`` and normalizes the rest to unit
    quadrature L2 norm. ``grid`` holds the abscissae of the samples of b;
    ``quad`` defaults to the masses a Dispersion carries and is required
    with a bare vector.
    """
    b_arr, qw = _function_context(b, quad)
    g = np.asarray(grid, dtype=np.float64)
    if g.shape != b_arr.shape:
        raise GridMismatch(f"grid length {g.size} does not match dispersion ({b_arr.size})")
    k = functional_threshold_level(b_arr, m, qw)
    mask = b_arr > k
    if not np.any(mask):
        raise DegenerateDispersion(
            f"no dispersion above the threshold level {k}"
        )
    # w is scale-invariant in b; normalize by the retained max so the
    # squared sums stay away from under/overflow for extreme scales.
    u = b_arr / float(np.max(b_arr[mask]))
    norm2 = float(np.sum(qw[mask] * u[mask] ** 2))
    if norm2 <= 0.0:
        raise DegenerateDispersion("retained support carries zero dispersion mass")
    w = np.where(mask, u, 0.0) / np.sqrt(norm2)
    return WeightFunction(g, w, m=float(m), quad_weights=qw)


__all__ = [
    "whole_m",
    "hard_threshold_weights",
    "soft_threshold_weights",
    "functional_threshold_level",
    "functional_threshold_weights",
    "EPS_S",
    "MAX_BISECT",
]
