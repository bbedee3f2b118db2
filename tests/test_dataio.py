import csv
import itertools
import json
import locale
import math
import os
import tempfile
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsekm import cli, dataio
from sparsekm.dataio import (
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
from sparsekm.errors import EmptyData, GridMismatch, NonFinite, ValidationError
from sparsekm.metrics import cer
from sparsekm.tuning import GapCurve

# Whether a 0xff byte fails to decode in the encoding open() uses by default.
try:
    b"\xff".decode(locale.getpreferredencoding(False))
    UNDECODABLE = False
except UnicodeDecodeError:
    UNDECODABLE = True

BOM_DECODES = b"\xef\xbb\xbf".decode(locale.getpreferredencoding(False), "replace") == "\ufeff"

# Cells on which a whole-file numpy conversion could part ways with float().
TRICKY_CELLS = ["1_0", " 1.5", "infinity", "1e400", "0x10", "", "-NaN", "\t3\n", "1,5",
                "1e", "1__0", "  -0 ", "1e-400", "1\x1f", "\x1cinf", " 2\x1d\x1e"]

# Characters str.isspace() counts as whitespace; float() skips all but \x1c-\x1f.
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2007\u2028\u3000"
_NUMBER_LIKE = st.builds(
    "".join,
    st.tuples(
        st.text(_SPACES, max_size=2),
        st.sampled_from(["", "+", "-"]),
        st.one_of(
            st.from_regex(r"[0-9_\uff10-\uff19\u0660-\u0669.]{0,6}([eE][+-]?[0-9_]{0,4})?", fullmatch=True),
            st.sampled_from(["inf", "Infinity", "iNfInItY", "nan", "NaN", "nan(1)", "0x1p3", "1e400", "1e-400"]),
        ),
        st.text(_SPACES, max_size=2),
    ),
)
# One cell of a line as np.loadtxt sees it: no separator, no line end.
_CELLS = st.one_of(_NUMBER_LIKE, st.floats().map(repr), st.text()).filter(
    lambda c: not set(c) & set(",\r\n")
)


def _loadtxt_cell(cell):
    """The fast path on a 2x2 file whose last cell is ``cell``."""
    return dataio._loadtxt(["1,2", "3," + cell])


def _bits(a) -> list:
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _column_cells(col):
    if not (isinstance(col, np.ndarray) and col.dtype.kind == "f"):
        return ([str(v)] for v in col)
    return (map(_fmt, row.tolist()) for row in col.reshape(len(col), -1))


def _reference_write_csv(path, header, columns):
    """The per-cell writer: csv.writer over f"{x:.17g}" cells, other columns
    with str. dataio._write_csv must match it byte for byte."""
    cells = [_column_cells(col) for col in columns]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        if header is not None:
            out.writerow(header)
        out.writerows(itertools.chain.from_iterable(row) for row in zip(*cells))


def _nasty(rng, shape, finite=True):
    """Floats over the whole double range: subnormals, +-0, 1e+-308, and
    (unless ``finite``) +-inf and NaN."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-323, 308, size=shape)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e308, -1e308,
                1.7976931348623157e308]
    if not finite:
        specials += [np.inf, -np.inf, np.nan]
    pick = rng.random(shape) < 0.2
    x[pick] = rng.choice(specials, size=int(pick.sum()))
    return x


def _no_loadtxt(*args, **kwargs):
    raise ValueError("fast path disabled")


def _exact_matrix(path):
    """The fallback reader called directly on the non-blank rows after a
    file's header."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)][1:]
    return dataio._read_rows(iter(rows), len(rows[0]), path)


class _Spy:
    """Passes each call of a function on, keeping the items of its first
    argument: the lines np.loadtxt parses, the rows _read_rows converts."""

    def __init__(self, fn):
        self.fn, self.seen = fn, []

    def __call__(self, items, *args, **kwargs):
        items = list(items)
        self.seen.append(items)
        return self.fn(items, *args, **kwargs)

    @property
    def calls(self) -> int:
        return len(self.seen)

    def items(self) -> list:
        return list(itertools.chain.from_iterable(self.seen))


@pytest.fixture
def spies(monkeypatch):
    """Spies on np.loadtxt (the fast path) and dataio._read_rows (the exact
    reader, which also converts the first data row)."""
    fast, exact = _Spy(np.loadtxt), _Spy(dataio._read_rows)
    monkeypatch.setattr(np, "loadtxt", fast)
    monkeypatch.setattr(dataio, "_read_rows", exact)
    return SimpleNamespace(fast=fast, exact=exact)


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

    @pytest.mark.skipif(not BOM_DECODES, reason="the locale's encoding does not decode a UTF-8 BOM")
    def test_byte_order_mark_dropped(self, tmp_path):
        """A UTF-8 BOM neither turns the first data row into a header nor
        renames the first column."""
        path = tmp_path / "plain.csv"
        for text in (b"1.5,2.5\n3,4\n5,6\n", b"x,y\n1,2\n3,4\n"):
            path.write_bytes(text)
            want = read_mv_csv(path)[0]
            path.write_bytes(b"\xef\xbb\xbf" + text)
            got = read_mv_csv(path)[0]
            assert got.values.tobytes() == want.values.tobytes()
            assert got.feature_names == want.feature_names
        assert got.values.shape == (2, 2) and got.feature_names == ("x", "y")
        back, truth = read_mv_csv(path, truth_col="x")
        assert back.values.tolist() == [[2.0], [4.0]] and truth.labels.tolist() == [1, 2]
        path.write_bytes(b"\xef\xbb\xbf1.5,2.5\n3,4\n5,6\n")
        assert read_mv_csv(path)[0].values.tolist() == [[1.5, 2.5], [3.0, 4.0], [5.0, 6.0]]

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
        """numpy and the exact reader parse a cell as float() does; the fast
        path does too, or raises and leaves the cell to the exact reader."""
        try:
            expected = float(cell)
        except ValueError:
            with pytest.raises(ValueError):
                np.array([[cell]], dtype=np.float64)
            with pytest.raises(ValidationError, match=r"field \(2, 2\)"):
                dataio._read_rows([["1", "2"], ["3", cell]], 2, "f.csv")
            with pytest.raises(ValueError):
                _loadtxt_cell(cell)
            return
        got = np.array([[cell]], dtype=np.float64)
        assert got.view(np.int64)[0, 0] == np.array(expected).view(np.int64)
        parsed = dataio._read_rows([["1", "2"], ["3", cell]], 2, "f.csv")
        assert parsed.view(np.int64).tolist() == np.array([[1.0, 2.0], [3.0, expected]]).view(np.int64).tolist()
        if cell == "1_0":  # only float() reads it: left to the exact reader
            with pytest.raises(ValueError):
                _loadtxt_cell(cell)
        else:
            assert _bits(_loadtxt_cell(cell)) == _bits([[1.0, 2.0], [3.0, expected]])

    @given(cell=_CELLS)
    def test_loadtxt_raises_or_returns_float_bits(self, cell):
        """No cell parses on the fast path to anything but float()'s value."""
        try:
            got = _loadtxt_cell(cell)
        except Exception:
            return
        assert _bits(got) == _bits([[1.0, 2.0], [3.0, float(cell)]])

    def test_blocks_read_as_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 12)  # 3 rows of 4 fields per block
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(size=(10, 4)) * 10.0 ** rng.integers(-300, 300, size=(10, 4)))
        path = tmp_path / "blocks.csv"
        write_mv_csv(path, d)
        back, _ = read_mv_csv(path)
        assert back.values.view(np.int64).tolist() == d.values.view(np.int64).tolist()
        with monkeypatch.context() as patch:  # the same file on the block reader
            patch.setattr(np, "loadtxt", _no_loadtxt)
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

    @pytest.mark.skipif(not UNDECODABLE, reason="the locale's encoding decodes every byte")
    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b\n1,2\n3,4\xff\n")
        with pytest.raises(ValidationError, match=r"^cannot read .*latin\.csv: .*decode"):
            read_mv_csv(path)
        with pytest.raises(ValidationError, match=r"^cannot read .*latin\.csv: .*decode"):
            read_fd_csv(path)

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


class TestFastPath:
    """After the first data row, which the pre-scan hands to the exact
    reader, clean lines go to np.loadtxt in blocks; from the first block it
    cannot read, the exact reader takes the rest of the file and gives its
    matrix. No line reaches np.loadtxt twice."""

    def test_clean_file_skips_the_fallback(self, tmp_path, spies):
        rng = np.random.default_rng(7)
        d = Dataset(_nasty(rng, (200, 50)))
        path = tmp_path / "clean.csv"
        write_mv_csv(path, d)
        back, _ = read_mv_csv(path)
        assert [len(rows) for rows in spies.exact.seen] == [1]
        assert spies.fast.items() == path.read_text().splitlines(keepends=True)[2:]
        assert _bits(back.values) == _bits(d.values)

    @pytest.mark.parametrize("dirty", [
        lambda rows: rows[:3] + ["\uff12" + rows[3][rows[3].index(","):]] + rows[4:],
        lambda rows: rows[:4] + ["1_0" + rows[4][rows[4].index(","):]] + rows[5:],
        lambda rows: rows[:2] + ['"2.5"' + rows[2][rows[2].index(","):]] + rows[3:],
    ], ids=["full-width-digit", "underscore", "quoted"])
    def test_float_only_files_take_the_fallback(self, tmp_path, spies, dirty, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 8)  # 2 lines of 4 fields per block
        rng = np.random.default_rng(8)
        path = tmp_path / "dirty.csv"
        write_mv_csv(path, Dataset(rng.normal(size=(20, 4))))
        path.write_text("\n".join(dirty(path.read_text().splitlines())) + "\n")
        back, _ = read_mv_csv(path)
        # np.loadtxt saw the lines after the first data row up to the end of
        # the block it raised on, each once; the exact reader got the first
        # row, then the rows from that block on.
        parsed = spies.fast.items()
        assert parsed == path.read_text().splitlines(keepends=True)[2:2 + len(parsed)]
        failing = len(parsed) - 2
        assert [len(rows) for rows in spies.exact.seen] == [1, 19 - failing]
        assert spies.exact.seen[1][0] == next(csv.reader([parsed[failing]]))
        assert _bits(back.values) == _bits(_exact_matrix(path))
        assert back.n_obs == 20

    def test_cell_only_loadtxt_reads_stays_an_error(self, tmp_path, spies):
        path = tmp_path / "sep.csv"
        path.write_text("x,y\n1,2\n3,4\x1f\n")
        with pytest.raises(ValidationError) as err:
            read_mv_csv(path)
        assert str(err.value) == f"{path}: cannot parse field (2, 2): '4\\x1f'"
        # _loadtxt rejects the line before np.loadtxt sees it
        assert (spies.fast.calls, [len(rows) for rows in spies.exact.seen]) == (0, [1, 1])

    def test_fast_result_of_another_width_is_dropped(self, tmp_path, spies, monkeypatch):
        path = tmp_path / "w.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: np.zeros((2, 3)))
        header, matrix = dataio._read_matrix(path)
        assert (header, matrix.tolist()) == (["x", "y"], [[1.0, 2.0], [3.0, 4.0]])
        assert [len(rows) for rows in spies.exact.seen] == [1, 1]

    @pytest.mark.parametrize("text, header, values", [
        ("\n\n\nx,y\n1,2\n3,4\n", ["x", "y"], [[1.0, 2.0], [3.0, 4.0]]),
        ('"a,b",c\n1,2\n3,4\n', ["a,b", "c"], [[1.0, 2.0], [3.0, 4.0]]),
        ('"a\nb",c\n1,2\n', ["a\nb", "c"], [[1.0, 2.0]]),
        ("x,y\r\n1,2\r\n\r\n3,4\r\n", ["x", "y"], [[1.0, 2.0], [3.0, 4.0]]),
        ("x\n1.5\n-0\n\n2.5e-320\n", ["x"], [[1.5], [-0.0], [2.5e-320]]),
        ("1.5\n2\n", None, [[1.5], [2.0]]),
        (" \t\nx,y\n\x0c\n1,2\n \x1c \n3,4\n  ", ["x", "y"], [[1.0, 2.0], [3.0, 4.0]]),
        ("x,y\n1,2\n,\n \t, \n3,4\n,,\n", ["x", "y"], [[1.0, 2.0], [3.0, 4.0]]),
        ("x,y\r1,2\r\r3,4\r5,6", ["x", "y"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    ], ids=["leading-blank-lines", "quoted-comma-header", "quoted-newline-header", "crlf",
            "single-column", "single-column-headerless", "whitespace-only-lines",
            "blank-cell-lines", "cr-only"])
    def test_layouts_on_the_fast_path(self, tmp_path, spies, text, header, values):
        path = tmp_path / "layout.csv"
        path.write_bytes(text.encode())
        got_header, matrix = dataio._read_matrix(path)
        # every data row after the first reaches np.loadtxt once, blank lines never
        assert [len(rows) for rows in spies.exact.seen] == [1]
        assert len(spies.fast.items()) == len(values) - 1
        assert got_header == header
        assert _bits(matrix) == _bits(values)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_whole(self, tmp_path, spies):
        """A pipe is read through the pre-scan's own handle: it takes the
        fast path, and every row arrives."""
        rng = np.random.default_rng(9)
        d = Dataset(_nasty(rng, (2000, 10)))  # far more than a pipe and a read buffer hold
        path, fifo = tmp_path / "data.csv", tmp_path / "pipe"
        write_mv_csv(path, d)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        back, _ = read_mv_csv(fifo)
        writer.join(timeout=10)
        assert [len(rows) for rows in spies.exact.seen] == [1]
        assert len(spies.fast.items()) == 1999
        assert _bits(back.values) == _bits(d.values)

    def test_late_quoted_cell_parsed_once(self, tmp_path, spies, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 20)  # 5 lines of 4 fields per block
        rng = np.random.default_rng(10)
        d = Dataset(_nasty(rng, (40, 4)))
        path = tmp_path / "late.csv"
        write_mv_csv(path, d)
        lines = path.read_text().splitlines(keepends=True)
        lines[33] = '"' + lines[33].replace(",", '",', 1)  # data row 33, in the block of rows 32-36
        path.write_text("".join(lines))
        back, _ = read_mv_csv(path)
        assert spies.fast.items() == lines[2:37]
        assert [len(rows) for rows in spies.exact.seen] == [1, 9]
        assert _bits(back.values) == _bits(_exact_matrix(path))
        assert _bits(back.values) == _bits(d.values)

    def test_quoted_newline_across_blocks(self, tmp_path, spies, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 6)  # 3 lines of 2 fields per block
        text = 'x,y\n1,2\n3,4\n5,6\n7,8\n9,10\n11,12\n13,"14.5\n"\n15,16\n'
        path = tmp_path / "straddle.csv"
        path.write_text(text)
        header, matrix = dataio._read_matrix(path)
        assert header == ["x", "y"]
        want = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0], [11.0, 12.0],
                [13.0, 14.5], [15.0, 16.0]]
        # the quote opens on the last line of the second block and closes in the third
        assert [len(rows) for rows in spies.exact.seen] == [1, 4]
        assert _bits(matrix) == _bits(want)
        assert _bits(matrix) == _bits(_exact_matrix(path))

    @pytest.mark.parametrize("row, bad, message", [
        (9, "1,2,3", "row 9 has 3 fields, expected 4"),
        (11, "1,oops,3,4", "cannot parse field (11, 2): 'oops'"),
    ], ids=["ragged", "bad-cell"])
    def test_late_errors_named_by_file_row(self, tmp_path, monkeypatch, row, bad, message):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 8)  # 2 lines of 4 fields per block
        lines = ["a,b,c,d"] + [f"{i},{i}.5,-{i},{i}e-3" for i in range(1, 13)]
        lines[row] = bad
        lines[3:3] = ["", ",,,", " \t"]  # blank lines count as no row
        lines[8:8] = [""]
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        for patch_loadtxt in (False, True):  # the same message with np.loadtxt off
            with monkeypatch.context() as patch:
                if patch_loadtxt:
                    patch.setattr(np, "loadtxt", _no_loadtxt)
                with pytest.raises(ValidationError) as err:
                    read_mv_csv(path)
            assert str(err.value) == f"{path}: {message}"

    def test_blank_middle_block_does_not_warn(self, tmp_path, spies, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", 4)  # 2 lines of 2 fields per block
        path = tmp_path / "gap.csv"
        path.write_text("x,y\n1,2\n\n , \n3,4\n5,6\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, matrix = dataio._read_matrix(path)
        assert (header, matrix.tolist()) == (["x", "y"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert spies.fast.seen == [["3,4\n", "5,6\n"]]
        assert [len(rows) for rows in spies.exact.seen] == [1]

    @settings(max_examples=300, deadline=None)
    @given(cell=_CELLS.filter(lambda c: '"' not in c),
           where=st.sampled_from(["first row", "fast block", "after fallback"]))
    def test_one_grammar_for_a_cell(self, cell, where):
        """read_mv_csv reads a cell exactly when float() reads it, with float()'s
        bits: in the first data row (the exact reader), in a block np.loadtxt
        reads, or after a quoted cell has sent the rest to the exact reader.
        A cell float() reads as NaN or ±inf is read, then refused by Dataset."""
        rows = [[str(i), str(i)] for i in range(1, 8)]  # blocks of 2 lines: rows 2-3, 4-5, 6-7
        row = {"first row": 1, "fast block": 4, "after fallback": 6}[where]
        if where == "after fallback":
            rows[1][0] = '"2"'
        rows[row - 1][0] = cell
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dataio, "_BLOCK_CELLS", 4):
            path = Path(tmp) / "cell.csv"
            try:
                path.write_text("a,b\n" + "".join(",".join(r) + "\n" for r in rows),
                                encoding=locale.getpreferredencoding(False))
            except UnicodeEncodeError:
                assume(False)
            try:
                want = float(cell)
            except ValueError:
                with pytest.raises(ValidationError) as err:
                    read_mv_csv(path)
                assert str(err.value) == f"{path}: cannot parse field ({row}, 1): {cell!r}"
                return
            if not math.isfinite(want):
                with pytest.raises(NonFinite, match=rf"index \({row - 1}, 0\)"):
                    read_mv_csv(path)
                return
            d, _ = read_mv_csv(path)
        expected = [[float(i), float(i)] for i in range(1, 8)]
        expected[row - 1][0] = want
        assert _bits(d.values) == _bits(expected)


class TestWritersByteStable:
    """Every CSV writer matches the per-cell reference writer byte for byte,
    and its numeric files read back bit for bit on both readers."""

    @staticmethod
    def _write_both(tmp_path, monkeypatch, write):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write(ours)
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_write_csv", _reference_write_csv)
            write(ref)
        assert ours.read_bytes() == ref.read_bytes()
        return ours

    @staticmethod
    def _both_readers(monkeypatch, read):
        fast = read()
        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", _no_loadtxt)
            exact = read()
        return fast, exact

    @pytest.mark.parametrize("seed", range(4))
    def test_write_csv_any_floats(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        x = _nasty(rng, (30, 7), finite=False)
        labels = rng.integers(1, 4, size=30).tolist()
        header = ["a", "b,c", 'q"'] + [f"x{j}" for j in range(6)]
        path = self._write_both(tmp_path, monkeypatch, lambda p: dataio._write_csv(
            p, header, [x, labels, x[:, 2]]))
        for got_header, back in self._both_readers(monkeypatch, lambda: dataio._read_matrix(path)):
            assert got_header == header
            assert _bits(back) == _bits(np.column_stack([x, labels, x[:, 2]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_write_mv_csv(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(10 + seed)
        d = Dataset(_nasty(rng, (40, 9)))
        truth = Partition(np.array([1, 2, 3, 3] * 10), 3)
        named = Dataset(d.values, feature_names=tuple(f"x {j}" for j in range(9)))
        for data, labels in ((d, None), (d, truth), (named, truth)):
            path = self._write_both(tmp_path, monkeypatch, lambda p: write_mv_csv(p, data, labels))
            col = None if labels is None else "label"
            for back, t in self._both_readers(monkeypatch, lambda: read_mv_csv(path, truth_col=col)):
                assert _bits(back.values) == _bits(d.values)
                assert t == labels

    def test_write_fd_csv(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        grid = np.concatenate([[0.0, 1e-300, 1e-200], np.sort(rng.uniform(1e-100, 1.0, 27))])
        fd = Dataset(_nasty(rng, (6, 30)), grid=grid)
        path = self._write_both(tmp_path, monkeypatch, lambda p: write_fd_csv(p, fd))
        for back in self._both_readers(monkeypatch, lambda: read_fd_csv(path)):
            assert _bits(back.grid) == _bits(fd.grid)
            assert _bits(back.values) == _bits(fd.values)

    def test_write_labels(self, tmp_path, monkeypatch):
        part = Partition(np.array([3, 1, 2, 2, 1, 3, 3]), 3)
        path = self._write_both(tmp_path, monkeypatch, lambda p: write_labels(p, part))
        assert self._both_readers(monkeypatch, lambda: read_labels(path)) == (part, part)

    def test_write_weight_vector(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        w = np.abs(rng.normal(size=60)) * 10.0 ** rng.integers(-323, 1, size=60)
        w[[3, 4, 5, 6]] = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308]
        w /= np.sqrt(np.sum(w * w)) * (1.0 + 1e-15)
        wv = Weights(w, m=int(np.count_nonzero(w == 0.0)))
        path = self._write_both(tmp_path, monkeypatch, lambda p: write_weight_vector(p, wv))
        for _, back in self._both_readers(monkeypatch, lambda: dataio._read_matrix(path)):
            assert _bits(back[:, 0]) == _bits(wv.w)

    def test_write_weight_function(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(22)
        grid = np.linspace(0.0, 1.0, 41)
        w = np.abs(rng.normal(size=41)) * 10.0 ** rng.integers(-323, 1, size=41) * (grid > 0.5)
        qw = trapezoid_weights(grid)
        w /= np.sqrt(np.sum(qw * w * w)) * (1.0 + 1e-15)
        wf = Weights(w, float(np.sum(qw[w == 0.0])), grid=grid)
        path = self._write_both(tmp_path, monkeypatch, lambda p: write_weight_function(p, wf))
        for header, back in self._both_readers(monkeypatch, lambda: dataio._read_matrix(path)):
            assert header == ["x", "w"]
            assert _bits(back) == _bits(np.column_stack([wf.grid, wf.w]))

    def test_write_gap_curve(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        cols = [np.arange(1.0, 9.0)] + [_nasty(rng, (8,), finite=False) for _ in range(4)]
        curve = GapCurve(*cols, np.isnan(cols[1]), 5)
        path = self._write_both(tmp_path, monkeypatch, lambda p: write_gap_curve(p, curve))
        for header, back in self._both_readers(monkeypatch, lambda: dataio._read_matrix(path)):
            assert header[0] == "m"
            assert _bits(back) == _bits(np.column_stack(cols))

    def test_str_cells_quoted(self, tmp_path, monkeypatch):
        names = ["plain", "a,b", 'say "hi"', "two\nlines", "1"]
        path = self._write_both(tmp_path, monkeypatch, lambda p: dataio._write_csv(
            p, ["name", "v"], [names, np.arange(5.0)]))
        with open(path, newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["name"] + names
        # csv.writer leaves a lone \r bare under a "\n" line end; _write_csv quotes it
        dataio._write_csv(path, None, [["cr\rend"], [1]])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["cr\rend", "1"]]

    @pytest.mark.parametrize("sd_zero", [False, True], ids=["NA", "0"])
    def test_benchmark_reports(self, tmp_path, monkeypatch, sd_zero):
        records = [SimpleNamespace(run=r, method=m, cer=c) for r, (m, c) in enumerate(
            [("sparse", 0.125), ("standard", np.nan), ("sparse", 5e-324), ("standard", -0.0)])]
        summaries = [SimpleNamespace(method="sparse", mean_cer=0.1, sd_cer=np.nan),
                     SimpleNamespace(method="standard", mean_cer=np.inf, sd_cer=1e-308)]
        out = {}
        for name, writer in (("ours", dataio._write_csv), ("ref", _reference_write_csv)):
            out[name] = tmp_path / name
            out[name].mkdir()
            with monkeypatch.context() as patch:
                patch.setattr(dataio, "_write_csv", writer)
                cli._write_benchmark_outputs(out[name], records, summaries, sd_zero)
        for name in ("runs.csv", "report.csv"):
            assert (out["ours"] / name).read_bytes() == (out["ref"] / name).read_bytes()
        report = (out["ours"] / "report.csv").read_text().splitlines()
        assert report[1] == "sparse,0.10000000000000001," + ("0" if sd_zero else "NA")
        with open(out["ours"] / "runs.csv", newline="") as fh:
            cers = [float(row[2]) for row in list(csv.reader(fh))[1:]]
        assert _bits(cers) == _bits([rec.cer for rec in records])


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

    @given(mask=st.lists(st.booleans(), min_size=2, max_size=40))
    def test_matches_a_walk_over_the_grid(self, mask):
        """The intervals read off the edges of w > 0 are those of a walk over the grid."""
        mask = np.array(mask)
        grid = np.linspace(0.0, 1.0, mask.size)
        qw = trapezoid_weights(grid)
        w = np.where(mask, 1.0 / np.sqrt(max(float(qw[mask].sum()), 1e-300)), 0.0)
        zero = float(qw[~mask].sum())
        wf = Weights(w, zero / 2.0 if zero > 0.0 else float(qw.min()) / 2.0, grid=grid)
        want, start = [], None
        for i, on in enumerate(mask):
            if on and start is None:
                start = i
            elif not on and start is not None:
                want.append((float(grid[start]), float(grid[i - 1])))
                start = None
        if start is not None:
            want.append((float(grid[start]), float(grid[-1])))
        assert support_intervals(wf) == want


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
