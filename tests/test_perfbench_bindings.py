"""Every binding the benchmark's tracer wraps must exist in the program.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of ``TRACED``
with a timing wrapper; a refactor that drops or renames one of them
would break ``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_binding_is_callable(monkeypatch):
    # spans.py imports its sibling checks.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    spans = importlib.import_module("spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.TRACED
    assert missing == []
