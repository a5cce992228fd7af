"""Every exported name, and every name the benchmark's traced run wraps, exists."""

import importlib
import importlib.util
from pathlib import Path

import qmarginal as qm

SPANS = Path(__file__).resolve().parents[1] / "qbench" / "spans.py"


def test_all_names_resolve():
    missing = [name for name in qm.__all__ if not hasattr(qm, name)]
    assert missing == []


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("qbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for targets in spans.LAYERS.values()
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
