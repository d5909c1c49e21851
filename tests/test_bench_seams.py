"""The benchmark's traced run still finds every function it wraps.

`perfbench/spans.py` times and counts calls by rebinding function names in
the modules that call them (its `SEAMS`) and methods on their class (its
`METHOD_SEAMS`).  A binding that no longer exists is skipped silently, and
every metric that needs it is left out of the traced result line, which then
lacks metrics that `BENCHMARK.json` lists.  This happens, for example, when
a caller stops importing a function it used to call.  These tests read the
two lists at run time, so they follow any change the benchmark makes to them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_seam_binding_resolves():
    missing = [
        f"{name}: {module}.{attr}"
        for name, bindings in spans.SEAMS
        for module, attr in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_method_seam_is_on_its_class():
    missing = [
        f"{name}: {module}.{cls}.{method}"
        for name, module, cls, method in spans.METHOD_SEAMS
        if method not in vars(getattr(importlib.import_module(module), cls))
    ]
    assert missing == []
