"""Exception types shared across the package.

Two families: ValidationError for malformed inputs (the CLI maps these to
exit code 2) and NumericalError for degenerate problems discovered during
computation (exit code 1).
"""


class SparseKmError(Exception):
    """Base class for every package-specific error."""


class ValidationError(SparseKmError, ValueError):
    """Malformed or inconsistent input."""


class NumericalError(SparseKmError, ArithmeticError):
    """The requested quantity is undefined for this input."""


class NonFinite(ValidationError):
    """A NaN or infinity where finite values are required; names the first offending index."""


class EmptyData(ValidationError):
    """Too few observations, features, or grid points."""


class NonMonotoneGrid(ValidationError):
    """Grid abscissae are not strictly increasing; names the first offending index."""


class EmptyCluster(ValidationError):
    """A labeling left some cluster with no members."""


class LengthMismatch(ValidationError):
    """Two sequences that must align have different lengths."""


class PartitionMismatch(ValidationError):
    """Partition does not match the dataset it is applied to."""


class GridMismatch(ValidationError):
    """Curve or weight samples do not match the expected grid length."""


class DimensionMismatch(ValidationError):
    """Vector lengths disagree with the dataset's feature count."""


class SparsityOutOfRange(ValidationError):
    """Requested sparsity level is outside its admissible range."""


class SOutOfRange(ValidationError):
    """L1 budget s must lie in [1, sqrt(p)]."""


class KTooLarge(ValidationError):
    """More clusters requested than observations available."""


class NonPositiveDispersion(NumericalError):
    """No dispersion score is positive, so every weight solver's weights are undefined."""


class DegenerateDispersion(NumericalError):
    """The plateau at the dispersion's maximum is wider than level-set thresholding may keep."""


class DegenerateObjective(NumericalError):
    """Objective is nonpositive everywhere; nothing to select."""


class TooFewDistinctRows(NumericalError):
    """Fewer distinct rows than clusters; names both counts."""


class NonMonotoneObjective(NumericalError):
    """The alternating loop's objective trace decreased beyond rounding slack."""


class NonFiniteDistances(NumericalError):
    """Squares of the weighted data overflowed float64: no restart has a finite
    within-cluster sum of squares, or a between-cluster dispersion score is
    not finite (names the first such feature)."""


class TiedMaximaFloor(NumericalError):
    """t tied maximal scores put a floor of sqrt(t) above the L1 budget s; names the tied features."""
