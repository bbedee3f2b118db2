"""Sparse K-means with hard feature thresholding.

Clusters observations while selecting the features (or, for curves, the
subdomain) that carry the separation: weights maximizing the weighted
between-cluster dispersion under a hard sparsity constraint have a closed
form, and alternating that solver with weighted K-means yields sparse,
interpretable partitions. A soft-threshold (L1 budget) baseline, a
permutation-gap tuner for the sparsity level, seeded benchmark generators,
and CER/confusion metrics round out the toolkit.
"""

from .datatypes import (
    Dataset,
    FunctionalDataset,
    Partition,
    SparseClusterResult,
    WeightFunction,
    WeightVector,
)
from .dispersion import Dispersion, bcss_per_feature, bcss_pointwise, weighted_objective
from .engine import (
    KMeansConfig,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
    uniform_weights,
    weighted_kmeans,
)
from .errors import (
    AllZeroAfterThreshold,
    DegenerateDispersion,
    DegenerateObjective,
    DimensionMismatch,
    EmptyCluster,
    EmptyData,
    GridMismatch,
    KTooLarge,
    LengthMismatch,
    NonFinite,
    NonMonotoneGrid,
    NonPositiveDispersion,
    NumericalError,
    PartitionMismatch,
    SOutOfRange,
    SparseKmError,
    SparsityOutOfRange,
    ValidationError,
)
from .metrics import ConfusionMatrix, cer, confusion
from .solvers import (
    functional_threshold_level,
    functional_threshold_weights,
    hard_threshold_weights,
    soft_threshold_weights,
)
from .synthdata import (
    FdScenario,
    MvScenario,
    curve_alt,
    curve_main,
    gen_fd,
    gen_mv,
)
from .tuning import GapCurve, tune_m_fd, tune_m_mv

__version__ = "0.1.0"
