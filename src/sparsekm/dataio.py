"""CSV and JSON serialization.

Conventions: comma separator, '.' decimal point, "\n" line ends, floats with
17 significant digits so values survive a round trip bit-for-bit. A first row
whose leading token does not parse as a number is treated as a header.
Curve files put the grid abscissae in the first data row and one curve per
row after that.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from array import array

import numpy as np

from .datatypes import Dataset, Partition, Weights, _integral_labels, require_grid
from .errors import EmptyData, LengthMismatch, ValidationError
from .tuning import GapCurve

SUMMARY_SCHEMA = 1
_BLOCK_CELLS = 1 << 14  # cells per block of lines np.loadtxt parses when a CSV file is read


def _write_csv(path, header: list[str] | None, columns) -> None:
    """Write a CSV file: comma separator, "\n" line ends, an optional header row.

    ``columns`` lists the file's columns left to right. A float array is one
    column (1-d) or a block of columns (2-d); its cells are written with
    "%.17g". Any other sequence is one column written with str, quoted as
    csv.writer quotes it. Each data row is formatted with one format string,
    one row at a time.
    """
    fmts, cols = [], []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            block = col.reshape(len(col), -1)
            cols.append(row.tolist() for row in block)
            fmts.append(",".join(["%.17g"] * block.shape[1]))
        else:
            fmts.append("%s")
            if any(isinstance(v, str) for v in col):
                col = [_csv_cell(v) for v in col]
            cols.append((v,) for v in col)
    fmt = ",".join(fmts) + "\n"
    with open(path, "w", newline="") as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(header)
        for parts in zip(*cols):
            fh.write(fmt % tuple(itertools.chain.from_iterable(parts)))


def _csv_cell(value) -> str:
    """str(value), in double quotes (inner quotes doubled) when it holds a
    comma, a quote or a line end, as csv.writer writes a cell."""
    cell = str(value)
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _parses_as_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# Characters np.loadtxt strips from a cell as whitespace but float() rejects.
_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"


def _loadtxt(lines) -> np.ndarray | None:
    """The fast path: the float matrix of ``lines`` in one np.loadtxt call, or
    None when every line is blank. Lines of blank cells (whitespace-only
    lines, or spaces, tabs and commas) are skipped, as the exact reader
    skips them. Each cell it converts, it converts as float() does. A cell
    only float() reads (1_0, full-width digits, a quoted cell) makes it
    raise, and so does a line holding one of _LOADTXT_ONLY, which
    np.loadtxt alone would read."""
    kept = []
    for line in lines:
        if line.isspace() or not line.strip(" \t\r\n,"):
            continue
        if any(c in line for c in _LOADTXT_ONLY):
            raise ValueError(f"{line!r} holds a character float() rejects")
        kept.append(line)
    if not kept:
        return None
    return np.loadtxt(kept, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _data_rows(lines):
    """The rows of csv.reader(lines) that hold a non-blank cell."""
    return (row for row in csv.reader(lines) if any(cell.strip() for cell in row))


def _read_matrix(path) -> tuple[list[str] | None, np.ndarray]:
    """The header (None when the first row parses as a number) and the float
    matrix of a CSV file, skipping blank lines, in one pass over one handle.

    A csv.reader pre-scan reads as far as the first data row: it drops a
    leading byte-order mark, decides the header and finds an empty or
    header-only file. The lines after that row go to _loadtxt in blocks of
    about _BLOCK_CELLS cells. The first block it raises on, or reads at
    another width than the first row's, and the rest of the file go to
    _read_rows, which names the first ragged row or bad cell. A file that
    cannot be opened, or does not decode in the locale's encoding, raises
    ValidationError naming it."""
    try:
        with open(path, newline="") as fh:
            rows = _data_rows(fh)
            first = next(rows, None)
            if first is None:
                raise EmptyData(f"{path} contains no data")
            first[0] = first[0].removeprefix("\ufeff")
            header = None
            if not _parses_as_number(first[0].strip()):
                header = [cell.strip() for cell in first]
                first = next(rows, None)
                if first is None:
                    raise EmptyData(f"{path} contains a header but no data rows")
            width = len(first)
            blocks = [_read_rows([first], width, path)]
            n_read, block_lines = 1, max(1, _BLOCK_CELLS // width)
            while block := list(itertools.islice(fh, block_lines)):
                try:
                    matrix = _loadtxt(block)
                except Exception:  # whatever np.loadtxt raises, the exact reader decides
                    pass
                else:
                    if matrix is None:  # blank lines only
                        continue
                    if matrix.shape[1] == width:
                        blocks.append(matrix)
                        n_read += len(matrix)
                        continue
                rest = _data_rows(itertools.chain(block, fh))
                blocks.append(_read_rows(rest, width, path, n_read))
                break
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return header, np.concatenate(blocks)


def _read_rows(rows, width: int, path, offset: int = 0) -> np.ndarray:
    """The exact reader: data rows offset + 1, offset + 2, ... of cells, each
    converted by float() as it is yielded, so the file is never held as one
    Python string per cell. It names the first ragged row or bad cell."""
    out = array("d")
    for i, row in enumerate(rows, offset + 1):
        if len(row) != width:
            raise ValidationError(f"{path}: row {i} has {len(row)} fields, expected {width}")
        try:
            out.extend(map(float, row))
        except ValueError:
            j = next(j for j, cell in enumerate(row) if not _parses_as_number(cell))
            raise ValidationError(f"{path}: cannot parse field ({i}, {j + 1}): {row[j]!r}") from None
    return np.frombuffer(out, dtype=np.float64).reshape(-1, width)


def _resolve_column(spec: str, header: list[str] | None, width: int, path) -> int:
    try:
        idx = int(spec)
    except ValueError:
        if header is None:
            raise ValidationError(
                f"{path}: column {spec!r} requested by name but the file has no header"
            ) from None
        if spec not in header:
            raise ValidationError(f"{path}: no column named {spec!r}") from None
        return header.index(spec)
    if not -width <= idx < width:
        raise ValidationError(f"{path}: column index {idx} out of range for {width} columns")
    return idx % width


def read_mv_csv(path, truth_col: str | None = None) -> tuple[Dataset, Partition | None]:
    """Load a feature matrix; optionally split off a truth-label column.

    ``truth_col`` may be a 0-based index or, when the file has a header, a
    column name. The column is excluded from the features and returned as
    a Partition.
    """
    header, matrix = _read_matrix(path)
    truth = None
    names = tuple(header) if header else None
    if truth_col is not None:
        col = _resolve_column(str(truth_col), header, matrix.shape[1], path)
        truth = Partition.from_labels(_integral_labels(matrix[:, col], where=str(path)))
        matrix = np.delete(matrix, col, axis=1)
        if names:
            names = tuple(n for i, n in enumerate(names) if i != col)
    return Dataset(matrix, feature_names=names), truth


def write_mv_csv(path, d: Dataset, truth: Partition | None = None) -> None:
    names = list(d.feature_names) if d.feature_names else [
        f"f{j + 1}" for j in range(d.n_features)
    ]
    if truth is None:
        _write_csv(path, names, [d.values])
    elif truth.n_obs != d.n_obs:
        raise LengthMismatch(
            f"truth labels {truth.n_obs} observations, dataset has {d.n_obs}"
        )
    else:
        _write_csv(path, names + ["label"], [d.values, truth.labels.tolist()])


def read_fd_csv(path) -> Dataset:
    """Load curves: first data row holds the grid, later rows one curve each."""
    _, matrix = _read_matrix(path)
    if len(matrix) < 2:
        raise EmptyData(f"{path}: need a grid row plus at least one curve row")
    return Dataset(matrix[1:], grid=matrix[0])


def write_fd_csv(path, d: Dataset) -> None:
    require_grid(d, True, "write_fd_csv")
    _write_csv(path, None, [np.vstack([d.grid, d.values])])


def write_labels(path, part: Partition) -> None:
    _write_csv(path, None, [part.labels.tolist()])


def read_labels(path) -> Partition:
    _, matrix = _read_matrix(path)
    if matrix.shape[1] != 1:
        raise ValidationError(f"{path}: label rows have {matrix.shape[1]} fields, expected 1")
    return Partition.from_labels(_integral_labels(matrix[:, 0], where=str(path)))


def write_weight_vector(path, wv: Weights) -> None:
    _write_csv(path, None, [wv.w])


def write_weight_function(path, wf: Weights) -> None:
    require_grid(wf, True, "write_weight_function")
    _write_csv(path, ["x", "w"], [wf.grid, wf.w])


def write_gap_curve(path, curve: GapCurve) -> None:
    _write_csv(
        path,
        ["m", "gap", "obs_log_obj", "perm_log_obj_mean", "perm_log_obj_sd"],
        [curve.m_grid, curve.gap, curve.obs_log_obj, curve.perm_log_obj_mean, curve.perm_log_obj_sd],
    )


def support_intervals(wf: Weights) -> list[tuple[float, float]]:
    """Maximal grid intervals on which the weight function is positive."""
    require_grid(wf, True, "support_intervals")
    edges = np.flatnonzero(np.diff(wf.w > 0.0, prepend=False, append=False))
    return [(float(wf.grid[lo]), float(wf.grid[hi - 1])) for lo, hi in zip(edges[::2], edges[1::2])]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def write_summary(path, payload: dict) -> None:
    """Write a summary JSON document, stamping the schema version.

    NaN values become null so the output stays strict JSON.
    """
    doc = {"schema": SUMMARY_SCHEMA}
    doc.update(_jsonable(payload))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


__all__ = [
    "read_mv_csv",
    "write_mv_csv",
    "read_fd_csv",
    "write_fd_csv",
    "read_labels",
    "write_labels",
    "write_weight_vector",
    "write_weight_function",
    "write_gap_curve",
    "write_summary",
    "support_intervals",
    "SUMMARY_SCHEMA",
]
