import json

import numpy as np
import pytest

from sparsekm import dataio
from sparsekm.dataio import (
    _parse_matrix,
    read_fd_csv,
    read_labels,
    read_mv_csv,
    support_intervals,
    write_fd_csv,
    write_gap_curve,
    write_labels,
    write_mv_csv,
    write_summary,
    write_weight_function,
    write_weight_vector,
)
from sparsekm.datatypes import (
    Dataset,
    Partition,
    Weights,
    trapezoid_weights,
)
from sparsekm.errors import EmptyData, GridMismatch, ValidationError
from sparsekm.metrics import cer
from sparsekm.tuning import GapCurve

# Cells on which a whole-file numpy conversion could part ways with float().
TRICKY_CELLS = ["1_0", " 1.5", "infinity", "1e400", "0x10", "", "-NaN", "\t3\n", "1,5",
                "1e", "1__0", "  -0 ", "1e-400"]


class TestMvRoundTrip:
    def test_values_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(12, 5)) * 10.0 ** rng.integers(-8, 9, size=(12, 5))
        path = tmp_path / "data.csv"
        write_mv_csv(path, Dataset(vals))
        back, truth = read_mv_csv(path)
        assert truth is None
        assert np.array_equal(back.values, vals)
        assert back.feature_names == ("f1", "f2", "f3", "f4", "f5")

    def test_truth_column_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(9, 3))
        labels = Partition(np.array([1, 1, 2, 3, 2, 1, 3, 3, 2], dtype=np.int64), 3)
        path = tmp_path / "data.csv"
        write_mv_csv(path, Dataset(vals), truth=labels)
        back, truth = read_mv_csv(path, truth_col="label")
        assert np.array_equal(back.values, vals)
        assert truth == labels

    def test_truth_column_by_index(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5,2.5,1\n0.5,3.5,2\n")
        back, truth = read_mv_csv(path, truth_col="2")
        assert back.values.tolist() == [[1.5, 2.5], [0.5, 3.5]]
        assert truth.labels.tolist() == [1, 2]

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        back, _ = read_mv_csv(path)
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert back.feature_names is None

    def test_name_without_header_rejected(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValidationError, match="no header"):
            read_mv_csv(path, truth_col="label")

    def test_truth_labels_mapped_to_1_to_k(self, tmp_path):
        """0-based and gapped truth columns load as the 1..k labels, same CER."""
        fit = Partition(np.array([1, 1, 2]), 2)
        path = tmp_path / "data.csv"
        loaded = []
        for labels in ("1,2,2", "0,1,1", "1,3,3"):
            rows = [f"{x},{y}" for x, y in zip([0.5, 1.5, 2.5], labels.split(","))]
            path.write_text("x,label\n" + "\n".join(rows) + "\n")
            back, truth = read_mv_csv(path, truth_col="label")
            assert back.values.tolist() == [[0.5], [1.5], [2.5]]
            loaded.append(truth)
        assert all(t == Partition(np.array([1, 2, 2]), 2) for t in loaded)
        assert len({cer(t, fit) for t in loaded}) == 1

    def test_non_integer_truth_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for bad in ("1.5", "nan", "inf", "-inf"):
            path.write_text(f"x,label\n1.0,1\n2.0,{bad}\n")
            with pytest.raises(ValidationError, match="non-integer label at row 2"):
                read_mv_csv(path, truth_col="label")


class TestParseErrors:
    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match="row 2 has 1 fields"):
            read_mv_csv(path)

    def test_bad_cell_named_by_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,oops\n")
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            read_mv_csv(path)

    def test_messages_unchanged(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError) as err:
            read_mv_csv(ragged)
        assert str(err.value) == f"{ragged}: row 2 has 1 fields, expected 2"
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n4,5,oops\n6,7\n")
        with pytest.raises(ValidationError) as err:
            read_mv_csv(bad)
        assert str(err.value) == f"{bad}: cannot parse field (2, 3): 'oops'"

    @pytest.mark.parametrize("cell", TRICKY_CELLS)
    def test_numpy_parses_a_cell_as_float_does(self, cell):
        try:
            expected = float(cell)
        except ValueError:
            with pytest.raises(ValueError):
                np.array([[cell]], dtype=np.float64)
            with pytest.raises(ValidationError, match=r"field \(2, 2\)"):
                _parse_matrix([["1", "2"], ["3", cell]], "f.csv")
            return
        got = np.array([[cell]], dtype=np.float64)
        assert got.view(np.int64)[0, 0] == np.array(expected).view(np.int64)
        parsed = _parse_matrix([["1", "2"], ["3", cell]], "f.csv")
        assert parsed.view(np.int64).tolist() == np.array([[1.0, 2.0], [3.0, expected]]).view(np.int64).tolist()

    def test_blocks_read_as_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 12)  # 3 rows of 4 fields per block
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(size=(10, 4)) * 10.0 ** rng.integers(-300, 300, size=(10, 4)))
        path = tmp_path / "blocks.csv"
        write_mv_csv(path, d)
        back, _ = read_mv_csv(path)
        assert back.values.view(np.int64).tolist() == d.values.view(np.int64).tolist()
        rows = path.read_text().splitlines()
        bad = rows[:8] + ["1,2,3,oops"] + rows[9:]  # data row 8, in the third block
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValidationError) as err:
            read_mv_csv(path)
        assert str(err.value) == f"{path}: cannot parse field (8, 4): 'oops'"
        # a later block whose rows all agree with each other but not with row 1
        path.write_text("\n".join(rows[:7] + [r + ",0" for r in rows[7:]]) + "\n")
        with pytest.raises(ValidationError) as err:
            read_mv_csv(path)
        assert str(err.value) == f"{path}: row 7 has 5 fields, expected 4"

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ValidationError, match="nope.csv"):
            read_mv_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyData):
            read_mv_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(EmptyData):
            read_mv_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n\n")
        back, _ = read_mv_csv(path)
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestFdRoundTrip:
    def test_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = np.sort(rng.uniform(0.0, 1.0, 30))
        grid[0], grid[-1] = 0.0, 1.0
        fd = Dataset(rng.normal(size=(7, 30)), grid=grid)
        path = tmp_path / "curves.csv"
        write_fd_csv(path, fd)
        back = read_fd_csv(path)
        assert np.array_equal(back.grid, fd.grid)
        assert np.array_equal(back.values, fd.values)
        assert np.array_equal(back.quad_weights, fd.quad_weights)

    def test_grid_row_required(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("0.0,0.5,1.0\n")
        with pytest.raises(EmptyData):
            read_fd_csv(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        part = Partition(np.array([1, 2, 2, 3, 1], dtype=np.int64), 3)
        path = tmp_path / "labels.csv"
        write_labels(path, part)
        assert read_labels(path) == part

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        for bad in ("2.5", "inf", "nan"):
            path.write_text(f"1\n{bad}\n")
            with pytest.raises(ValidationError, match="non-integer label at row 2"):
                read_labels(path)
        path.write_text("1\nabc\n")
        with pytest.raises(ValidationError, match=r"field \(2, 1\): 'abc'"):
            read_labels(path)

    def test_labels_mapped_to_1_to_k(self, tmp_path):
        fit = Partition(np.array([1, 1, 2]), 2)
        path = tmp_path / "labels.csv"
        loaded = []
        for labels in ("1\n2\n2\n", "0\n1\n1\n", "1\n3\n3\n"):
            path.write_text(labels)
            loaded.append(read_labels(path))
        assert all(t == Partition(np.array([1, 2, 2]), 2) for t in loaded)
        assert len({cer(t, fit) for t in loaded}) == 1

    def test_multi_field_row_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1,2\n")
        with pytest.raises(ValidationError):
            read_labels(path)


class TestSupportIntervals:
    def test_two_runs(self):
        grid = np.linspace(0.0, 1.0, 6)
        qw = trapezoid_weights(grid)
        mask = np.array([False, True, True, False, True, False])
        c = 1.0 / np.sqrt(float(qw[mask].sum()))
        wf = Weights(np.where(mask, c, 0.0), 0.3, grid=grid)
        assert support_intervals(wf) == [(0.2, 0.4), (0.8, 0.8)]

    def test_full_support_single_interval(self):
        grid = np.linspace(0.0, 1.0, 6)
        qw = trapezoid_weights(grid)
        wf = Weights(np.ones(6), 0.1, grid=grid)
        assert support_intervals(wf) == [(0.0, 1.0)]

    def test_support_reaching_right_edge(self):
        grid = np.linspace(0.0, 1.0, 6)
        qw = trapezoid_weights(grid)
        mask = np.array([False, False, False, True, True, True])
        c = 1.0 / np.sqrt(float(qw[mask].sum()))
        wf = Weights(np.where(mask, c, 0.0), 0.35, grid=grid)
        assert support_intervals(wf) == [(float(grid[3]), 1.0)]


class TestWriters:
    def test_weight_vector_round_trip(self, tmp_path):
        w = np.array([0.6, 0.8, 0.0])
        path = tmp_path / "w.csv"
        write_weight_vector(path, Weights(w, m=1))
        assert np.array_equal(np.loadtxt(path), w)

    def test_weight_function_round_trip(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 5)
        qw = trapezoid_weights(grid)
        mask = np.array([False, True, True, True, False])
        c = 1.0 / np.sqrt(float(qw[mask].sum()))
        wf = Weights(np.where(mask, c, 0.0), 0.25, grid=grid)
        path = tmp_path / "wf.csv"
        write_weight_function(path, wf)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], grid)
        assert np.array_equal(table[:, 1], wf.w)

    def test_gap_curve_round_trip(self, tmp_path):
        curve = GapCurve(
            np.array([1.0, 2.0]),
            np.array([0.25, np.nan]),
            np.array([3.0, np.nan]),
            np.array([2.75, np.nan]),
            np.array([0.1, np.nan]),
            np.array([False, True]),
            4,
        )
        path = tmp_path / "gap.csv"
        write_gap_curve(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,gap,obs_log_obj,perm_log_obj_mean,perm_log_obj_sd"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == 0.25


class TestGridlessArgument:
    """The curve writers name themselves and the missing grid."""

    def test_write_fd_csv(self, tmp_path):
        with pytest.raises(GridMismatch, match="write_fd_csv needs curves on a grid"):
            write_fd_csv(tmp_path / "fd.csv", Dataset(np.zeros((3, 4))))

    def test_write_weight_function(self, tmp_path):
        with pytest.raises(GridMismatch, match="write_weight_function needs curves on a grid"):
            write_weight_function(tmp_path / "wf.csv", Weights(np.array([0.6, 0.8, 0.0]), 1))

    def test_support_intervals(self):
        with pytest.raises(GridMismatch, match="support_intervals needs curves on a grid"):
            support_intervals(Weights(np.array([0.6, 0.8, 0.0]), 1))


class TestWriteSummary:
    def test_schema_stamp_and_nan_to_null(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(
            path,
            {
                "score": np.float64(np.nan),
                "count": np.int64(3),
                "trace": np.array([1.5, np.nan]),
                "ok": np.bool_(True),
                "name": "run",
            },
        )
        text = path.read_text()
        assert text.endswith("\n")
        assert "NaN" not in text
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert doc["score"] is None
        assert doc["count"] == 3
        assert doc["trace"] == [1.5, None]
        assert doc["ok"] is True
        assert doc["name"] == "run"
