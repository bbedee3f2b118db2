"""The benchmark traces the library through the entry points listed in
perfbench/spans.py; each must stay a callable in its sparsekm module."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for module, attr in spans.ENTRY_POINTS:
        target = getattr(importlib.import_module(f"sparsekm.{module}"), attr, None)
        assert callable(target), f"sparsekm.{module}.{attr} is not a callable"
