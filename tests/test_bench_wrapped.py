"""Every function the benchmark's span tracer wraps still exists where it
looks it up.

kbench/tracing.py replaces names in kcone module namespaces by string
(WRAPPED); a refactor that moves or drops one of them would otherwise only
show up as a failed `python3 kbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "kbench" / "tracing.py"


def test_traced_names_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("kbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolves annotations through sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [
        f"{module}.{name}"
        for module, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
