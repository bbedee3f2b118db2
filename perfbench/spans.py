"""Span recording around the public sparsekm entry points, from outside.

A Tracer wraps each entry point listed in ENTRY_POINTS and, only while an
operation is being traced, rebinds every module-level name in the loaded
``sparsekm`` modules that refers to the original function. Between traced
operations the originals are back in place, so untraced operations run the
library exactly as shipped.

Spans are kept in memory as (name, op, parent, start, end, attrs) and
written out once, at the end of a run. A span's self time is its duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np


def _weighted_kmeans_attrs(args, kwargs, result):
    w = kwargs.get("w", args[1] if len(args) > 1 else None)
    init = kwargs.get("init_partition", args[3] if len(args) > 3 else None)
    w_arr = np.asarray(getattr(w, "w", w), dtype=np.float64)
    return {"cold": init is None, "active": float(np.count_nonzero(w_arr > 0.0)) / w_arr.size}


def _fit_attrs(args, kwargs, result):
    return {"iters": result.iterations, "converged": result.converged}


def _solver_attrs(args, kwargs, result):
    return {"shrunk": bool(getattr(result, "support_shrunk", False))}


def _tune_attrs(args, kwargs, result):
    return {"excluded": int(np.count_nonzero(result[1].excluded))}


def _read_attrs(args, kwargs, result):
    return {"mb": os.path.getsize(kwargs["path"] if "path" in kwargs else args[0]) / 1e6}


# (module under sparsekm, function) -> (span name, attribute extractor)
ENTRY_POINTS = {
    ("engine", "weighted_kmeans"): ("engine.weighted_kmeans", _weighted_kmeans_attrs),
    ("engine", "sparse_kmeans_mv"): ("engine.fit", _fit_attrs),
    ("engine", "soft_sparse_kmeans_mv"): ("engine.fit", _fit_attrs),
    ("engine", "sparse_kmeans_fd"): ("engine.fit", _fit_attrs),
    ("rngutil", "spawn_rng"): ("rngutil.spawn_rng", None),
    ("dispersion", "bcss_per_feature"): ("dispersion", None),
    ("dispersion", "bcss_pointwise"): ("dispersion", None),
    ("dispersion", "weighted_objective"): ("dispersion", None),
    ("solvers", "hard_threshold_weights"): ("solvers", _solver_attrs),
    ("solvers", "soft_threshold_weights"): ("solvers", _solver_attrs),
    ("solvers", "functional_threshold_weights"): ("solvers", _solver_attrs),
    ("tuning", "tune_m_mv"): ("tuning.tune", _tune_attrs),
    ("tuning", "tune_m_fd"): ("tuning.tune", _tune_attrs),
    ("tuning", "permute_feature_columns"): ("tuning.permute", None),
    ("tuning", "permute_curves_within_blocks"): ("tuning.permute", None),
    ("dataio", "read_mv_csv"): ("dataio.read", _read_attrs),
    ("dataio", "read_fd_csv"): ("dataio.read", _read_attrs),
    ("dataio", "read_labels"): ("dataio.read", _read_attrs),
    ("dataio", "write_mv_csv"): ("dataio.write", None),
    ("dataio", "write_fd_csv"): ("dataio.write", None),
    ("dataio", "write_labels"): ("dataio.write", None),
    ("dataio", "write_weight_vector"): ("dataio.write", None),
    ("dataio", "write_weight_function"): ("dataio.write", None),
    ("dataio", "write_gap_curve"): ("dataio.write", None),
    ("dataio", "write_summary"): ("dataio.write", None),
    ("cli", "main"): ("cli.main", None),
    ("synthdata", "gen_mv"): ("synthdata.gen", None),
    ("synthdata", "gen_fd"): ("synthdata.gen", None),
    ("metrics", "cer"): ("metrics.cer", None),
    ("experiments", "run_gaussian_benchmark"): ("experiments", None),
    ("experiments", "run_curve_benchmark"): ("experiments", None),
}

_NAME, _OP, _PARENT, _START, _END, _ATTRS = range(6)


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for (module, attr), (name, attrs) in ENTRY_POINTS.items():
            original = getattr(importlib.import_module(f"sparsekm.{module}"), attr)
            self._wrappers[id(original)] = (original, self._wrap(original, name, attrs))

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._op, parent, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attrs is not None:
                self.spans[idx][_ATTRS] = attrs(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Trace one operation: rebind entry points, open its root span."""
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sparsekm" or mod_name.startswith("sparsekm.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_times(self) -> list[float]:
        cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                cover[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, cover)]

    def op_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced operation."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        attrs: dict[str, list] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[_OP] != op_id:
                continue
            name = span[_NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            for key, value in (span[_ATTRS] or {}).items():
                attrs.setdefault(f"{name}.{key}", []).append(value)

        def total(key):
            return float(sum(attrs.get(key, [])))

        def mean(key):
            vals = attrs.get(key, [])
            return float(np.mean(vals)) if vals else 0.0

        out = {}
        for name in ("engine.weighted_kmeans", "engine.fit", "rngutil.spawn_rng",
                     "dispersion", "solvers", "tuning.permute"):
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in ("engine.weighted_kmeans", "engine.fit", "rngutil.spawn_rng",
                     "dispersion", "solvers", "tuning.tune", "tuning.permute",
                     "dataio.read", "dataio.write", "cli.main", "synthdata.gen",
                     "metrics.cer", "experiments"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["engine.weighted_kmeans.cold_calls"] = total("engine.weighted_kmeans.cold")
        out["engine.weighted_kmeans.active_col_frac"] = mean("engine.weighted_kmeans.active")
        out["engine.outer_iters"] = total("engine.fit.iters")
        out["engine.converged_frac"] = mean("engine.fit.converged")
        out["solvers.shrunk_frac"] = mean("solvers.shrunk")
        out["tuning.excluded"] = total("tuning.tune.excluded")
        out["dataio.read.mb"] = total("dataio.read.mb")
        return out

    def layer_metrics(self, op_ids) -> dict[str, float]:
        """Median over the traced operations of each per-layer metric."""
        per_op = [self.op_metrics(i) for i in op_ids]
        return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        with gzip.open(path, "wt") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
                rec = {"id": i, "name": span[_NAME], "op": span[_OP], "parent": span[_PARENT],
                       "start": span[_START], "end": span[_END], "self": own}
                if span[_ATTRS]:
                    rec["attrs"] = span[_ATTRS]
                fh.write(json.dumps(rec) + "\n")
