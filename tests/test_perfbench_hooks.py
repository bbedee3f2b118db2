"""The benchmark traces the library through the entry points listed in
perfbench/spans.py, and its workloads in perfbench/workloads.py call the
library with fixed constructor keywords, harness arguments, detail
attributes and CLI argv; both must keep working against this tree."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for module, attr in spans.ENTRY_POINTS:
        target = getattr(importlib.import_module(f"sparsekm.{module}"), attr, None)
        assert callable(target), f"sparsekm.{module}.{attr} is not a callable"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up while being built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("name", ["tune-mv", "gauss-wide", "tune-fd", "cli-cluster"])
def test_workload_runs_clean_at_tiny_size(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(7, tmp_path, True)
    outcome = wl.evaluate(inputs, wl.call(inputs))
    assert outcome.problems == []
