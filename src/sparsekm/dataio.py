"""CSV and JSON serialization.

Conventions: comma separator, '.' decimal point, floats written with 17
significant digits so values survive a round trip bit-for-bit. A first row
whose leading token does not parse as a number is treated as a header.
Curve files put the grid abscissae in the first data row and one curve per
row after that.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .datatypes import Dataset, FunctionalDataset, Partition, WeightFunction, WeightVector
from .errors import EmptyData, LengthMismatch, ValidationError
from .tuning import GapCurve

SUMMARY_SCHEMA = 1


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parses_as_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_rows(path) -> tuple[list[str] | None, list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise EmptyData(f"{path} contains no data")
    header = None
    if rows and not _parses_as_number(rows[0][0].strip()):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise EmptyData(f"{path} contains a header but no data rows")
    return header, rows


def _parse_matrix(rows: list[list[str]], path) -> np.ndarray:
    width = len(rows[0])
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {i + 1} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: cannot parse field ({i + 1}, {j + 1}): {cell!r}"
                ) from None
    return out


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
    header, rows = _read_rows(path)
    matrix = _parse_matrix(rows, path)
    truth = None
    names = tuple(header) if header else None
    if truth_col is not None:
        col = _resolve_column(str(truth_col), header, matrix.shape[1], path)
        raw = matrix[:, col]
        as_int = raw.astype(np.int64)
        if not np.array_equal(as_int, raw):
            raise ValidationError(f"{path}: truth column contains non-integer labels")
        truth = Partition.from_labels(as_int)
        matrix = np.delete(matrix, col, axis=1)
        if names:
            names = tuple(n for i, n in enumerate(names) if i != col)
    return Dataset(matrix, feature_names=names), truth


def write_mv_csv(path, d: Dataset, truth: Partition | None = None) -> None:
    names = list(d.feature_names) if d.feature_names else [
        f"f{j + 1}" for j in range(d.n_features)
    ]
    if truth is not None and truth.n_obs != d.n_obs:
        raise LengthMismatch(
            f"truth labels {truth.n_obs} observations, dataset has {d.n_obs}"
        )
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(names + (["label"] if truth is not None else []))
        for i in range(d.n_obs):
            row = [_fmt(v) for v in d.values[i]]
            if truth is not None:
                row.append(str(int(truth.labels[i])))
            out.writerow(row)


def read_fd_csv(path) -> FunctionalDataset:
    """Load curves: first data row holds the grid, later rows one curve each."""
    _, rows = _read_rows(path)
    if len(rows) < 2:
        raise EmptyData(f"{path}: need a grid row plus at least one curve row")
    matrix = _parse_matrix(rows, path)
    return FunctionalDataset(matrix[0], matrix[1:])


def write_fd_csv(path, d: FunctionalDataset) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([_fmt(v) for v in d.grid])
        for i in range(d.n_obs):
            out.writerow([_fmt(v) for v in d.values[i]])


def write_labels(path, part: Partition) -> None:
    with open(path, "w", newline="") as fh:
        for v in part.labels:
            fh.write(f"{int(v)}\n")


def read_labels(path) -> Partition:
    _, rows = _read_rows(path)
    vals = []
    for i, row in enumerate(rows):
        if len(row) != 1:
            raise ValidationError(f"{path}: label row {i + 1} has {len(row)} fields")
        try:
            raw = float(row[0])
            integral = raw == int(raw)
        except (ValueError, OverflowError):  # not a number, nan or inf
            integral = False
        if not integral:
            raise ValidationError(f"{path}: non-integer label at row {i + 1}: {row[0]!r}")
        vals.append(int(raw))
    return Partition.from_labels(np.asarray(vals, dtype=np.int64))


def write_weight_vector(path, wv: WeightVector) -> None:
    with open(path, "w", newline="") as fh:
        for v in wv.w:
            fh.write(f"{_fmt(v)}\n")


def write_weight_function(path, wf: WeightFunction) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["x", "w"])
        for x, v in zip(wf.grid, wf.w):
            out.writerow([_fmt(x), _fmt(v)])


def write_gap_curve(path, curve: GapCurve) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["m", "gap", "obs_log_obj", "perm_log_obj_mean", "perm_log_obj_sd"])
        for i in range(curve.m_grid.size):
            out.writerow(
                [
                    _fmt(curve.m_grid[i]),
                    _fmt(curve.gap[i]),
                    _fmt(curve.obs_log_obj[i]),
                    _fmt(curve.perm_log_obj_mean[i]),
                    _fmt(curve.perm_log_obj_sd[i]),
                ]
            )


def support_intervals(wf: WeightFunction) -> list[tuple[float, float]]:
    """Maximal grid intervals on which the weight function is positive."""
    mask = wf.w > 0.0
    intervals = []
    start = None
    for i, on in enumerate(mask):
        if on and start is None:
            start = i
        elif not on and start is not None:
            intervals.append((float(wf.grid[start]), float(wf.grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(wf.grid[start]), float(wf.grid[-1])))
    return intervals


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
