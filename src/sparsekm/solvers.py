"""Weight solvers.

Three ways to turn dispersion scores into unit-norm feature weights: the
closed-form hard-threshold rule (the method of interest), the bisection
soft-threshold baseline it is compared against, and the level-set variant
for weights defined over a continuous domain. Each takes a ``Dispersion``,
whose construction has already checked the scores and their masses.
"""

from __future__ import annotations

import numpy as np

from .datatypes import Weights, count_m, measure_m
from .dispersion import Dispersion
from .errors import (
    AllZeroAfterThreshold,
    DegenerateDispersion,
    GridMismatch,
    NonPositiveDispersion,
    SOutOfRange,
)

# Bisection control for the soft-threshold L1 constraint.
EPS_S = 1e-10
MAX_BISECT = 200


def hard_threshold_weights(disp: Dispersion, m: int) -> Weights:
    """Unit-norm weights proportional to b on its p - m largest entries.

    This is the exact maximizer of sum_j w_j b_j over nonnegative unit-L2
    weight vectors with at least m zeros: rank b descending (ties broken
    toward the lower index), keep the top p - m, normalize, zero the rest.
    m is a whole number. Zero entries are never retained; if excluding
    them shrinks the support below p - m, the realized m grows and the
    result is flagged via ``support_shrunk``.
    """
    b_arr = disp.b
    p = b_arr.size
    m_int = count_m(m, p)
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
    return Weights(w, m=p - keep, support_shrunk=keep < target)


def soft_threshold_weights(disp: Dispersion, s: float) -> Weights:
    """L1-budgeted soft-threshold weights, the comparison baseline.

    With a = disp.b, returns S(a, delta) / ||S(a, delta)||_2 where S shrinks
    toward zero by delta and clips at zero. delta = 0 when the unconstrained
    solution already meets ||w||_1 <= s; otherwise delta is found by
    bisection on [0, max(a)) so that ||w||_1 = s within EPS_S. The final
    iterate is always taken from the feasible (<= s) side of the bracket.
    """
    a = disp.b
    p = a.size
    s = float(s)
    if not 1.0 <= s <= np.sqrt(p):
        raise SOutOfRange(f"s={s} outside [1, sqrt({p})]")
    if not np.any(a > 0.0):
        raise AllZeroAfterThreshold("every score is zero")
    # w is scale-invariant in the scores; solving on a max-normalized copy
    # keeps the squared sums away from under/overflow for extreme scales.
    a = a / float(np.max(a))

    def evaluate(delta):
        v = np.maximum(a - delta, 0.0)
        norm = float(np.sqrt(np.sum(v * v)))
        l1 = float(np.sum(v)) / norm if norm > 0.0 else np.inf
        return l1, v, norm

    l1, v, norm = evaluate(0.0)
    if l1 <= s:
        w = v / norm
        return Weights(w, m=int(np.count_nonzero(w == 0.0)))

    lo = 0.0
    hi = np.nextafter(float(np.max(a)), 0.0)
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
    tiny = 4.0 * np.finfo(np.float64).eps * float(np.max(a))
    snapped = np.where(v <= tiny, 0.0, v)
    if np.any(snapped > 0.0):
        v = snapped
        norm = float(np.sqrt(np.sum(v * v)))
    w = v / norm
    return Weights(w, m=int(np.count_nonzero(w == 0.0)))


def functional_threshold_level(disp: Dispersion, m: float) -> float:
    """Smallest level k >= 0 whose superlevel set {b > k} has measure <= mu(D) - m.

    Scans the distinct sample values of b in ascending order against the
    cumulative quadrature mass, so plateaus of b (where the level-set
    measure jumps) resolve to the smallest admissible level. ``disp`` must
    carry a grid.
    """
    b_arr, qw = disp.b, disp.quad_weights
    if qw is None:
        raise GridMismatch("functional thresholding needs a dispersion on a grid")
    mu = float(np.sum(qw))
    budget = mu - measure_m(m, mu)
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


def functional_threshold_weights(disp: Dispersion, m: float) -> Weights:
    """Level-set hard thresholding for weights over a continuous domain.

    Zeroes b outside its superlevel set at the level chosen by
    ``functional_threshold_level`` and normalizes the rest to unit
    quadrature L2 norm. The weights share the grid of ``disp``.
    """
    b_arr, qw = disp.b, disp.quad_weights
    k = functional_threshold_level(disp, m)
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
    return Weights(w, m=float(m), grid=disp.grid)


__all__ = [
    "hard_threshold_weights",
    "soft_threshold_weights",
    "functional_threshold_level",
    "functional_threshold_weights",
    "EPS_S",
    "MAX_BISECT",
]
