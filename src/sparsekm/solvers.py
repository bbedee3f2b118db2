"""Weight solvers.

Three ways to turn dispersion scores into unit-norm feature weights: the
closed-form hard-threshold rule (the method of interest), the closed-form
soft-threshold baseline it is compared against, and the level-set variant
for weights defined over a continuous domain. Each takes a ``Dispersion``,
whose construction has already checked the scores and their masses.
"""

from __future__ import annotations

import numpy as np

from .datatypes import Weights, count_m, l1_budget, measure_m
from .dispersion import Dispersion
from .errors import DegenerateDispersion, GridMismatch, NonPositiveDispersion, TiedMaximaFloor


def _unit(b: np.ndarray) -> np.ndarray:
    """b over its maximum. The weights are scale-invariant in b, and on
    this scale their squared sums stay away from under/overflow for extreme
    dispersion scales. Every solver calls it, and it is their one check
    that some score is positive: NonPositiveDispersion otherwise."""
    top = float(np.max(b))
    if top <= 0.0:
        raise NonPositiveDispersion("no positive dispersion entry to retain")
    return b / top


def hard_threshold_weights(disp: Dispersion, m: int) -> Weights:
    """Unit-norm weights proportional to b on its p - m largest entries.

    This is the exact maximizer of sum_j w_j b_j over nonnegative unit-L2
    weight vectors with at least m zeros: rank b descending (ties broken
    toward the lower index), keep the top p - m, normalize, zero the rest.
    m is a whole number. Entries that are zero on the unit scale, b over
    its maximum, are never retained; if excluding them shrinks the support
    below p - m, the realized m grows and the result is flagged via
    ``support_shrunk``.
    """
    b_arr = disp.b
    p = b_arr.size
    m_int = count_m(m, p)
    u = _unit(b_arr)
    target = p - m_int
    keep = min(target, int(np.count_nonzero(u > 0.0)))
    support = np.argsort(-b_arr, kind="stable")[:keep]
    vals = u[support]
    w = np.zeros(p)
    w[support] = vals / np.sqrt(np.sum(vals * vals))
    return Weights(w, m=p - keep, support_shrunk=keep < target)


def soft_threshold_weights(disp: Dispersion, s: float) -> Weights:
    """L1-budgeted soft-threshold weights, the comparison baseline.

    With a = disp.b, returns S(a, delta) / ||S(a, delta)||_2 where S shrinks
    toward zero by delta and clips at zero, and delta is the smallest value
    with ||w||_1 <= s. When the top j scores are kept, with mean mu and sum
    of squared deviations V, ||w||_1 = j x / sqrt(V + j x^2) at x = mu - delta,
    so ||w||_1 = s has the closed form x = s sqrt(V / (j (j - s^2))). j is the
    smallest count whose breakpoint, delta at the next score down, reaches s.
    t tied maxima put a floor of sqrt(t) on ||w||_1. The data, not the
    budget, sets that floor, so a smaller s raises TiedMaximaFloor, a
    NumericalError that names the tied features.
    """
    a = disp.b
    p = a.size
    s = l1_budget(s, p)
    a = _unit(a)
    norm = float(np.sqrt(np.sum(a * a)))
    if float(np.sum(a)) / norm <= s:  # maximum makes a -0.0 score a +0.0 weight
        return Weights(np.maximum(a, 0.0) / norm, m=int(np.count_nonzero(a == 0.0)))
    order = np.argsort(-a, kind="stable")
    # Work in u = 1 - a, the gap below the max: at the breakpoint delta =
    # a_(j+1) the kept entries are c - u_i with c = u_(j+1), and sums in u keep
    # their relative accuracy when the top scores nearly tie.
    u = 1.0 - a[order]
    c = np.append(u[1:], 1.0)  # the last breakpoint is delta = 0
    count = np.arange(1, p + 1)
    cum_u = np.cumsum(u)
    l1 = count * c - cum_u
    l2sq = c * (count * c - 2.0 * cum_u) + np.cumsum(u * u)
    # a zero L2 is an empty interval between tied maxima
    reach = (l2sq > 0.0) & (l1 >= s * np.sqrt(l2sq))
    reach[-1] = True  # the ratio at delta = 0 exceeds s, as checked above
    j = int(np.argmax(reach)) + 1
    dev = u[:j] - np.mean(u[:j])
    var = float(dev @ dev)
    if var == 0.0 and np.sqrt(j) > s:
        tied = ", ".join(str(i) for i in np.sort(order[:j]))
        raise TiedMaximaFloor(
            f"s={s} below the L1 floor sqrt({j}) of {j} tied maximal scores, at features {tied} (0-based)"
        )
    # x never passes the breakpoint's: j tied maxima (var = 0) take any x and
    # get uniform weights, and rounding can put j at or below s^2.
    x_break = l1[j - 1] / j
    x = x_break if var == 0.0 or j <= s * s else min(x_break, s * np.sqrt(var / (j * (j - s * s))))
    v = np.maximum(x - dev, 0.0)
    w = np.zeros(p)
    w[order[:j]] = v / np.sqrt(v @ v)
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
    u = _unit(b_arr)
    mask = b_arr > k
    if not np.any(mask):  # the level is the maximum
        raise DegenerateDispersion(
            f"the plateau at the maximal dispersion {k} has more measure than mu(D) - m = {float(np.sum(qw)) - m}"
        )
    # the maximum lies above the level, so the retained mass is positive
    w = np.where(mask, u, 0.0) / np.sqrt(float(np.sum(qw[mask] * u[mask] ** 2)))
    return Weights(w, m=float(m), grid=disp.grid)


__all__ = [
    "hard_threshold_weights",
    "soft_threshold_weights",
    "functional_threshold_level",
    "functional_threshold_weights",
]
