"""Every function the benchmark's span tracer wraps still exists where it
looks it up, and the report pipeline still calls it there.

kbench/tracing.py replaces names in kcone module namespaces by string
(WRAPPED); a refactor that moves or drops one of them would otherwise only
show up as a failed `python3 kbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from kcone.cli import main

TRACING = Path(__file__).resolve().parents[1] / "kbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("kbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolves annotations through sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.WRAPPED
    missing = [
        f"{module}.{name}"
        for module, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_report_calls_the_traced_names(monkeypatch, tmp_path):
    """`kcone report` reaches the certificate, orbit and loop stages through
    the module names the tracer replaces, so each one records a span, and
    the two halves of the report sit under build_full_report."""
    scn = tmp_path / "hopf.json"
    scn.write_text(json.dumps({
        "field": {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
        "cone": {"type": "quadratic", "P": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]},
        "x0": [1.0, 0.0, 0.1], "T": 30.0, "rtol": 1e-8, "atol": 1e-10,
        "lambda": 0.0, "pairs": 200, "analysis": {"chain_points": 2},
    }), encoding="utf-8")
    with _load_tracing(monkeypatch).Tracer() as tracer:
        assert main(["report", "--scenario", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    spans = tracer.spans
    names = [s.name for s in spans]
    for name in ("run_certify", "run_classify", "detect_periodic", "chain_check",
                 "certify_sampled", "write_loop_csv"):
        assert name in names
    for name in ("run_certify", "run_classify"):
        span = spans[names.index(name)]
        assert spans[span.parent].name == "build_full_report"
    assert spans[names.index("detect_periodic")].info == {"found": True}
