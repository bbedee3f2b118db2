"""Sparse K-means with hard feature thresholding.

Clusters observations while selecting the features (or, for curves, the
subdomain) that carry the separation: weights maximizing the weighted
between-cluster dispersion under a hard sparsity constraint have a closed
form, and alternating that solver with weighted K-means yields sparse,
interpretable partitions. The sparsity level is tuned by a permutation
gap; the submodules hold the soft-threshold baseline, the seeded
benchmark generators and the CER/confusion metrics.
"""

from .datatypes import Dataset
from .engine import KMeansConfig, sparse_kmeans_fd, sparse_kmeans_mv
from .tuning import tune_m_mv

__version__ = "0.1.0"
