import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsekm.datatypes import Partition
from sparsekm.errors import LengthMismatch
from sparsekm.metrics import ConfusionMatrix, cer, confusion


def cer_pair_loop(labels1, labels2):
    """Literal definition: fraction of observation pairs on which the two
    groupings disagree about togetherness."""
    n = len(labels1)
    disagree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            if (labels1[i] == labels1[j]) != (labels2[i] == labels2[j]):
                disagree += 1
    return disagree / total


def greedy_by_sort(counts):
    """Reference alignment: visit the entries in order of (-count, row,
    column), pin each whose row and column are both free, append the
    leftover columns in index order; returns the column order and the
    off-diagonal count under it."""
    n_true, n_est = counts.shape
    assigned, used_rows, used_cols = {}, set(), set()
    for _, i, j in sorted((-int(counts[i, j]), i, j) for i in range(n_true) for j in range(n_est)):
        if i not in used_rows and j not in used_cols:
            assigned[i] = j
            used_rows.add(i)
            used_cols.add(j)
    order = [assigned[i] for i in sorted(assigned)] + [j for j in range(n_est) if j not in used_cols]
    aligned = counts[:, order]
    return order, int(aligned.sum()) - sum(int(aligned[i, i]) for i in range(min(aligned.shape)))


@st.composite
def count_tables(draw):
    """1 x 1 to 5 x 5 tables of small counts, so ties are common, with some
    rows and columns set to all zeros."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
    table = np.array(cells, dtype=np.int64).reshape(rows, cols)
    table[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0
    table[:, draw(st.lists(st.booleans(), min_size=cols, max_size=cols))] = 0
    return table


def random_partition(rng, n, k):
    labels = np.zeros(n, dtype=np.int64)
    labels[: k] = np.arange(1, k + 1)
    labels[k:] = rng.integers(1, k + 1, size=n - k)
    rng.shuffle(labels)
    return Partition.from_labels(labels)


class TestCer:
    def test_frozen_three_points(self):
        p1 = Partition(np.array([1, 1, 2], dtype=np.int64), 2)
        p2 = Partition(np.array([1, 2, 2], dtype=np.int64), 2)
        assert cer(p1, p2) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_identical_and_relabeled(self):
        labels = np.array([1, 2, 1, 3, 2, 3], dtype=np.int64)
        p = Partition(labels, 3)
        assert cer(p, p) == 0.0
        swapped = np.array([3, 1, 3, 2, 1, 2], dtype=np.int64)
        assert cer(p, Partition(swapped, 3)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_partition(rng, 12, 3)
            b = random_partition(rng, 12, 4)
            assert cer(a, b) == pytest.approx(cer(b, a), abs=1e-15)

    def test_matches_pair_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 25))
            a = random_partition(rng, n, int(rng.integers(1, min(n, 5) + 1)))
            b = random_partition(rng, n, int(rng.integers(1, min(n, 5) + 1)))
            expect = cer_pair_loop(a.labels, b.labels)
            assert cer(a, b) == pytest.approx(expect, abs=1e-12)

    def test_length_mismatch(self):
        p1 = Partition(np.array([1, 2], dtype=np.int64), 2)
        p2 = Partition(np.array([1, 2, 1], dtype=np.int64), 2)
        with pytest.raises(LengthMismatch):
            cer(p1, p2)

    def test_opposed_pairings(self):
        # every pair together in one grouping is split in the other
        p1 = Partition(np.array([1, 1, 2, 2], dtype=np.int64), 2)
        p2 = Partition(np.array([1, 2, 1, 2], dtype=np.int64), 2)
        assert cer(p1, p2) == pytest.approx(4.0 / 6.0, abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        kmax = min(n, 4)
        a = random_partition(rng, n, int(rng.integers(1, kmax + 1)))
        b = random_partition(rng, n, int(rng.integers(1, kmax + 1)))
        v = cer(a, b)
        assert 0.0 <= v <= 1.0


class TestConfusion:
    def test_frozen_counts(self):
        t = Partition(np.array([1, 1, 2], dtype=np.int64), 2)
        e = Partition(np.array([1, 2, 2], dtype=np.int64), 2)
        cm = confusion(t, e)
        assert cm.counts.tolist() == [[1, 1], [0, 1]]
        assert cm.n_obs == 3
        assert cm.off_diagonal() == 1

    def test_relabeled_perfect_match_aligns_clean(self):
        t = Partition(np.array([1, 1, 2, 2], dtype=np.int64), 2)
        e = Partition(np.array([2, 2, 1, 1], dtype=np.int64), 2)
        cm = confusion(t, e)
        assert cm.counts.tolist() == [[0, 2], [2, 0]]
        assert cm.column_order() == [1, 0]
        assert cm.aligned().tolist() == [[2, 0], [0, 2]]
        assert cm.off_diagonal() == 0

    def test_rectangular_more_estimated_clusters(self):
        t = Partition(np.array([1, 1, 1, 2, 2, 2], dtype=np.int64), 2)
        e = Partition(np.array([1, 1, 3, 2, 2, 2], dtype=np.int64), 3)
        cm = confusion(t, e)
        assert cm.counts.shape == (2, 3)
        assert cm.counts.tolist() == [[2, 0, 1], [0, 3, 0]]
        assert cm.off_diagonal() == 1

    def test_greedy_prefers_largest_entry(self):
        # column 0 holds the single largest block, so it pins to row 1
        counts = np.array([[3, 4], [9, 2]])
        cm = ConfusionMatrix(counts)
        assert cm.column_order() == [1, 0]
        assert cm.aligned().tolist() == [[4, 3], [2, 9]]
        assert cm.off_diagonal() == 18 - 13

    @settings(max_examples=500)
    @given(count_tables())
    @example(np.array([[2, 2], [2, 2]]))
    @example(np.array([[0, 0, 0], [0, 1, 1]]))
    @example(np.zeros((4, 2), dtype=np.int64))
    def test_greedy_alignment_matches_sort_reference(self, table):
        cm = ConfusionMatrix(table)
        order, off = greedy_by_sort(table)
        assert cm.column_order() == order
        assert cm.off_diagonal() == off

    def test_counts_readonly_and_validated(self):
        with pytest.raises(LengthMismatch):
            ConfusionMatrix(np.array([1, 2, 3]))
        cm = ConfusionMatrix(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            cm.counts[0, 0] = 5

    def test_length_mismatch(self):
        t = Partition(np.array([1, 2], dtype=np.int64), 2)
        e = Partition(np.array([1, 2, 1], dtype=np.int64), 2)
        with pytest.raises(LengthMismatch):
            confusion(t, e)
