"""Partition comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datatypes import Partition, readonly_array
from .errors import LengthMismatch


def _contingency(p1: Partition, p2: Partition) -> np.ndarray:
    """The (k1, k2) table whose entry (i, j) counts the observations in
    cluster i + 1 of p1 and j + 1 of p2, from one bincount. It is the one
    check that both partitions label the same observations: LengthMismatch
    otherwise."""
    if p1.n_obs != p2.n_obs:
        raise LengthMismatch(f"partitions label {p1.n_obs} and {p2.n_obs} observations")
    cells = (p1.labels - 1) * p2.k + (p2.labels - 1)
    return np.bincount(cells, minlength=p1.k * p2.k).reshape(p1.k, p2.k)


def cer(p1: Partition, p2: Partition) -> float:
    """Clustering error rate: the fraction of observation pairs on which
    two partitions disagree about co-membership (one minus the Rand index).

    Computed from the contingency table, whose margins are the two
    partitions' cluster sizes, in O(N + K1*K2) rather than over all pairs.
    0 means identical up to relabeling; symmetric in its arguments.
    """
    table = _contingency(p1, p2)
    n = p1.n_obs
    if n < 2:
        return 0.0

    def pairs(counts):
        return int(np.sum(counts * (counts - 1) // 2))

    disagreements = pairs(table.sum(axis=1)) + pairs(table.sum(axis=0)) - 2 * pairs(table)
    return disagreements / (n * (n - 1) // 2)


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Cross-tabulation of true vs estimated cluster labels.

    ``counts[i, j]`` is the number of observations with true label i+1 and
    estimated label j+1. ``aligned()`` permutes estimated columns by greedy
    best-match so the dominant mass sits on the diagonal; the raw counts
    stay available as stored.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2:
            raise LengthMismatch("confusion counts must be a 2-d table")
        object.__setattr__(self, "counts", readonly_array(counts, dtype=np.int64))

    @property
    def n_obs(self) -> int:
        return int(self.counts.sum())

    def column_order(self) -> list[int]:
        """Greedy matching: repeatedly take the largest entry among the
        unpinned rows and columns, the first in row-major order on a tie,
        and pin its column to its row; leftover columns keep index order."""
        rows, cols = list(range(self.counts.shape[0])), list(range(self.counts.shape[1]))
        pinned = np.full(len(rows), -1)
        while rows and cols:
            i, j = divmod(int(np.argmax(self.counts[np.ix_(rows, cols)])), len(cols))
            pinned[rows.pop(i)] = cols.pop(j)
        return pinned[pinned >= 0].tolist() + cols

    def aligned(self) -> np.ndarray:
        return np.array(self.counts[:, self.column_order()])

    def off_diagonal(self) -> int:
        """Misclassified count under the greedy alignment."""
        aligned = self.aligned()
        return int(aligned.sum()) - int(np.trace(aligned))


def confusion(p_true: Partition, p_est: Partition) -> ConfusionMatrix:
    """Confusion matrix between a reference and an estimated partition."""
    return ConfusionMatrix(_contingency(p_true, p_est))


__all__ = ["cer", "confusion", "ConfusionMatrix"]
