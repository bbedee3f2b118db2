"""Validated domain types.

Every type checks its invariants on construction and freezes its arrays,
so downstream code can assume well-formed inputs without re-checking.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCluster,
    EmptyData,
    GridMismatch,
    NonFinite,
    NonMonotoneGrid,
    NonMonotoneObjective,
    PartitionMismatch,
    SOutOfRange,
    SparsityOutOfRange,
    ValidationError,
)

# Relative tolerance for unit-norm checks.
EPS_NORM = 1e-9


def objective_slack(value: float) -> float:
    """Comparison slack for objective values: 1e-12 * (1 + |value|)."""
    return 1e-12 * (1.0 + abs(value))


def readonly_array(a, dtype=np.float64) -> np.ndarray:
    """Owned, C-contiguous, write-protected copy of ``a``."""
    arr = np.array(a, dtype=dtype, order="C", copy=True)
    arr.setflags(write=False)
    return arr


def check_finite(values: np.ndarray, what: str = "value") -> None:
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(values)))[0]
        pos = tuple(int(i) for i in bad)
        raise NonFinite(f"non-finite {what} at index {pos[0] if len(pos) == 1 else pos}")


def whole(value, what: str, least: int | None = None, error=ValidationError) -> int:
    """The one rule for a count: ``value`` as an int. 3.0 and np.int64(3) pass;
    2.7, nan, inf and non-numbers raise ``error`` naming ``what``, as does a
    value below ``least``."""
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise error(f"{what} must be a whole number, got {value}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return int(value)


def whole_fields(obj, error=ValidationError, **least) -> None:
    """Store each named field of the frozen dataclass ``obj`` as
    ``whole(value, name, least)``."""
    for name, lo in least.items():
        object.__setattr__(obj, name, whole(getattr(obj, name), name, lo, error))


def whole_m(m) -> int:
    """A feature count m as an int; 10.0 passes, 2.7, nan and inf do not."""
    return whole(m, "m", error=SparsityOutOfRange)


def count_m(m, p: int) -> int:
    """A count of zeroed features among p: a whole number in [0, p)."""
    m = whole_m(m)
    if not 0 <= m < p:
        raise SparsityOutOfRange(f"m={m} outside [0, {p})")
    return m


def measure_m(m, measure: float) -> float:
    """A zeroed domain measure: a float in (0, measure)."""
    m = float(m)
    if not 0.0 < m < measure:
        raise SparsityOutOfRange(f"m={m} outside (0, {measure})")
    return m


def l1_budget(s, p: int) -> float:
    """An L1 budget for p nonnegative unit-norm weights: a float in [1, sqrt(p)]."""
    s = float(s)
    if not 1.0 <= s <= np.sqrt(p):
        raise SOutOfRange(f"s={s} outside [1, sqrt({p})]")
    return s


def _integral_labels(values, where: str = "labels") -> np.ndarray:
    """``values`` as int64 labels. NaN, ±inf, fractional and out-of-int64 entries raise
    before any cast can warn, naming ``where`` and the first bad row, counted from 1."""
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False)
    flt = arr.astype(np.float64)
    whole = (flt == np.trunc(flt)) & (np.abs(flt) < 2.0**63)  # False for NaN and ±inf
    if not whole.all():
        i = int(np.argmin(whole))
        raise ValidationError(f"{where}: non-integer label at row {i + 1}: {float(flt.flat[i])!r}")
    return flt.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Dataset:
    """N observations sampled at p points, stored as an (N, p) matrix.

    Without a grid the columns are features: a feature vector is a curve
    whose samples each carry unit mass, so ``quad_weights`` is None and the
    domain measure is p. With a grid the rows are curves sampled on one
    shared strictly increasing grid; ``quad_weights`` holds its trapezoidal
    masses, used everywhere an integral over the domain is needed.
    """

    values: np.ndarray
    grid: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    quad_weights: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise EmptyData(f"expected a 2-d matrix, got ndim={values.ndim}")
        n, p = values.shape
        if n < 2:
            raise EmptyData(f"need at least 2 observations, got {n}")
        if p < 1:
            raise EmptyData("need at least 1 feature")
        _store_grid(self, p, "curve")
        check_finite(values)
        object.__setattr__(self, "values", readonly_array(values))
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != p:
                raise DimensionMismatch(
                    f"{len(names)} feature names for {p} features"
                )
            object.__setattr__(self, "feature_names", names)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def domain_measure(self) -> float:
        return float(self.n_features) if self.grid is None else float(self.grid[-1] - self.grid[0])


def checked_grid(grid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of a grid and of its trapezoid masses. The one grid check: at
    least 2 finite, strictly increasing points, a finite span, no mass rounded to 0."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2:
        raise EmptyData("grid needs at least 2 points")
    check_finite(grid, "grid point")
    with np.errstate(over="ignore"):  # a span past float64 is rejected below
        diffs, span, qw = np.diff(grid), grid[-1] - grid[0], trapezoid_weights(grid)
    if np.any(diffs <= 0.0):
        idx = int(np.argmax(diffs <= 0.0)) + 1
        raise NonMonotoneGrid(f"grid not strictly increasing at index {idx}")
    if not (np.isfinite(span) and np.all(qw > 0.0)):
        raise GridMismatch(
            f"grid masses must be positive with a finite sum: span {span}, least mass {qw.min()}"
        )
    return readonly_array(grid), readonly_array(qw)


def _store_grid(obj, size: int, what: str) -> None:
    """The grid step of a validated type: check ``obj.grid`` with ``checked_grid``,
    ask for ``size`` grid points, one per sample, then store the grid
    and its masses. Without a grid every sample has unit mass; nothing is stored."""
    if obj.grid is None:
        return
    grid, qw = checked_grid(obj.grid)
    if grid.size != size:
        raise GridMismatch(f"{size} {what} samples for a grid of {grid.size} points")
    object.__setattr__(obj, "grid", grid)
    object.__setattr__(obj, "quad_weights", qw)


def check_sample(v: np.ndarray, what: str, negative) -> None:
    """The one value rule of sampled weights and scores: NonFinite names the first
    entry that is not finite, then ``negative`` the first negative one."""
    check_finite(v, what)
    if (v < 0.0).any():
        raise negative(f"negative {what} at index {int(np.argmax(v < 0.0))}")


def _store_sample(obj, name: str, what: str, negative) -> np.ndarray:
    """The sample step of a validated type: field ``name`` of ``obj`` as a non-empty
    1-d vector, then the grid step, then ``check_sample``; stores and returns the
    read-only vector."""
    v = np.asarray(getattr(obj, name), dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise EmptyData(f"{what} samples must form a non-empty 1-d vector")
    _store_grid(obj, v.size, what)
    check_sample(v, what, negative)
    v = readonly_array(v)
    object.__setattr__(obj, name, v)
    return v


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature masses for a strictly increasing grid.

    Endpoints get half the adjacent cell, interior points the average of
    their two cells; the masses sum to the domain length up to rounding
    (0.9999999999999998 on ``np.linspace(0, 1, 60)``). A curve fit's m is
    range-checked against this sum, while ``uniform_weights`` uses the span
    ``grid[-1] - grid[0]``.
    """
    qw = np.empty(grid.size, dtype=np.float64)
    qw[0] = (grid[1] - grid[0]) / 2.0
    qw[-1] = (grid[-1] - grid[-2]) / 2.0
    qw[1:-1] = (grid[2:] - grid[:-2]) / 2.0  # empty for 2 points
    return qw


def require_grid(d: Dataset | Weights, gridded: bool, entry: str) -> None:
    """GridMismatch unless ``d`` carries a grid exactly when ``entry`` needs one."""
    if (d.grid is not None) != gridded:
        need = "curves on a grid" if gridded else "feature vectors without a grid"
        raise GridMismatch(f"{entry} needs {need}")


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster labels in 1..k with no empty cluster."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size < 1:
            raise EmptyData("labels must be a non-empty 1-d sequence")
        labels = _integral_labels(labels)
        k = whole(self.k, "k", 1, EmptyCluster)
        if labels.min() < 1 or labels.max() > k:
            raise EmptyCluster(f"labels must lie in 1..{k}")
        counts = np.bincount(labels, minlength=k + 1)
        missing = np.nonzero(counts[1 : k + 1] == 0)[0]
        if missing.size:
            raise EmptyCluster(f"cluster {int(missing[0]) + 1} is empty")
        object.__setattr__(self, "labels", readonly_array(labels, dtype=np.int64))
        object.__setattr__(self, "k", k)

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Any distinct integer labels, mapped to 1..k in sorted order, so
        0-based and gapped label columns load; CER does not see the mapping."""
        labels = _integral_labels(labels)
        values, inverse = np.unique(labels, return_inverse=True)
        return cls(inverse.reshape(labels.shape) + 1, values.size)

    @property
    def n_obs(self) -> int:
        return self.labels.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k + 1)[1:]

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.labels == cluster)[0]

    def key(self) -> bytes:
        return self.labels.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.k, self.key()))


@dataclass(frozen=True, eq=False)
class Weights:
    """Nonnegative weights with unit (quadrature) L2 norm.

    Without a grid, ``w`` holds one weight per feature and m, an int, is the
    exact number of zero weights. With a grid, ``w`` samples a weight curve,
    ``quad_weights`` holds the grid's trapezoid masses, and m, a float, is the
    measure of the domain forced to zero weight; the zero set may undershoot
    m by at most one grid cell. ``support_shrunk`` flags that zero
    dispersion entries forced more zeros than requested, so m exceeds the
    level the caller asked for.
    """

    w: np.ndarray
    m: int | float
    grid: np.ndarray | None = None
    support_shrunk: bool = False
    quad_weights: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        w = _store_sample(self, "w", "weight", SparsityOutOfRange)
        qw = self.quad_weights
        norm = float(np.sqrt(np.sum(w * w if qw is None else qw * w * w)))
        if norm > 1.0 + EPS_NORM:
            raise SparsityOutOfRange(f"weight L2 norm {norm} exceeds 1")
        if qw is None:
            m = count_m(self.m, w.size)
            n_zero = int(np.count_nonzero(w == 0.0))
            if n_zero != m:
                raise SparsityOutOfRange(f"m={m} but {n_zero} weights are zero")
        else:
            m = measure_m(self.m, float(np.sum(qw)))
            zero_measure = float(np.sum(qw[w == 0.0]))
            cell = float(np.max(np.diff(self.grid)))
            if zero_measure < m - cell:
                raise SparsityOutOfRange(
                    f"zero-weight measure {zero_measure} undershoots m={m} "
                    f"by more than one grid cell ({cell})"
                )
        object.__setattr__(self, "m", m)

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.w > 0.0)[0]

    def l1(self) -> float:
        return float(np.sum(self.w))

    def support_measure(self) -> float:
        """Measure of the positive-weight set: a count without a grid."""
        if self.quad_weights is None:
            return float(self.support.size)
        return float(np.sum(self.quad_weights[self.w > 0.0]))


@dataclass(frozen=True, eq=False)
class Dispersion:
    """Between-cluster separation per feature or per grid point.

    The scores ``b`` form a non-empty, finite, non-negative 1-d vector.
    ``grid``, when given, holds the abscissae of b, and ``quad_weights`` its
    trapezoid masses; without a grid each sample has unit mass, as for feature
    vectors. ``clamped`` records that cancellation produced small negative
    values that were clipped to zero. This is the one input of the weight
    solvers and of the objective, and the one place their scores are checked.
    """

    b: np.ndarray
    grid: np.ndarray | None = None
    clamped: bool = False
    quad_weights: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        _store_sample(self, "b", "dispersion", PartitionMismatch)


@dataclass(frozen=True, eq=False)
class SparseClusterResult:
    """Converged state of the alternating sparse clustering loop.

    objective_trace holds one weighted between-cluster dispersion value per
    outer iteration; it must be non-decreasing up to floating-point slack.
    """

    partition: Partition
    weights: Weights
    objective_trace: tuple
    converged: bool

    def __post_init__(self):
        trace = tuple(float(v) for v in self.objective_trace)
        if not trace:
            raise EmptyData("objective trace is empty")
        for a, b in zip(trace, trace[1:]):
            if b < a - objective_slack(a):
                raise NonMonotoneObjective(f"objective trace decreases: {a} -> {b}")
        object.__setattr__(self, "objective_trace", trace)
        object.__setattr__(self, "converged", bool(self.converged))

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)
