"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q kbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_times_on_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    spans = [
        Span("root", "t", None, 0.0, 10.0),
        Span("a", "t", 0, 1.0, 4.0),
        Span("b", "t", 0, 5.0, 9.0),
        Span("c", "t", 2, 6.0, 8.0),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(tracing.self_times(spans)) == spans[0].duration


def test_layer_metrics_split_rhs_from_step_loop():
    spans = [
        Span("chain_check", "report", None, 0.0, 5.0, info={"points": 2, "success": 1}),
        Span("integrate", "limitsets", 0, 1.0, 3.0, rhs_calls=60, rhs_rows=60,
             rhs_s=0.5, info={"steps": 10}),
        Span("integrate", "limitsets", 0, 3.0, 4.0, rhs_calls=30, rhs_rows=30,
             rhs_s=0.25, info={"steps": 5}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["integrators.calls"] == 2
    assert m["integrators.accepted_steps"] == 15
    assert m["integrators.self_s"] == pytest.approx(3.0 - 0.75)
    assert m["integrators.rhs_per_step"] == pytest.approx(6.0)
    assert m["limitsets.chain_s"] == pytest.approx(2.0)
    assert m["limitsets.chain_integrations"] == 2
    assert m["limitsets.chain_success_ratio"] == pytest.approx(0.5)


def test_pair_counts_match_hand_computation(tmp_path):
    import kcone.limitsets
    import kcone.report

    cone = kcone.make_quadratic_cone(np.diag([-1.0, -1.0, 1.0]))
    rng = np.random.default_rng(0)
    small = rng.uniform(-1, 1, (20, 3))
    big = rng.uniform(-1, 1, (500, 3))
    original = kcone.limitsets.audit_ordering
    tracer = tracing.Tracer({"kcone.limitsets": ("audit_ordering",),
                             "kcone.report": ("write_margins_csv",)})
    with tracer:
        kcone.limitsets.audit_ordering(small, cone)
        kcone.report.write_margins_csv(tmp_path / "margins.csv", big, cone)
    m = tracing.layer_metrics(tracer.spans)
    # m(m-1)/2 pairs; write_margins_csv caps the set at 400 points.
    assert m["limitsets.pairs_scanned"] == 20 * 19 // 2 + 400 * 399 // 2
    assert m["limitsets.pair_bytes_peak"] == 400 * 399 // 2 * 3 * 8
    assert kcone.limitsets.audit_ordering is original


def _hopf_report(period: float) -> dict:
    section = {
        "index": 0,
        "periodic_orbit": {"period": period},
        "chain_check": {"all_recurrent": True},
        "trichotomy": {"branch": "ordered"},
    }
    return {"report": {"certificates": [], "orbits": [section]}, "meta": {}}


def _fake_cli(periods: list[float]):
    """A stand-in for kcone.cli.main that writes one Hopf report per call."""
    calls = iter(periods)

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "report.json").write_text(json.dumps(_hopf_report(next(calls))))
        for name in ("trajectory", "omega_points", "margins", "loop"):
            (out / f"{name}.csv").write_text("x\n")
        return 0

    return main


def test_corrupted_report_fails_its_oracle_and_counts(tmp_path):
    case = workloads.Case("hopf", {}, ("hopf_orbits",), 1)
    ws = run.Workspace(tmp_path, None, [case], [tmp_path / "hopf.json"], tmp_path / "out")
    main = _fake_cli([2.0 * math.pi, 2.0 * math.pi + 1e-3])
    tally = run.Tally()
    run.run_pass(ws, tally, main=main)
    assert (tally.attempted, tally.failed) == (1, 0)
    run.run_pass(ws, tally, main=main)
    assert (tally.attempted, tally.failed) == (2, 1)
    errs, _ = oracles.check_report(case, str(tmp_path / "out" / "hopf"), 0)
    assert any("period" in e for e in errs)


def test_sample_cases_runs_each_case_once_past_deadline(tmp_path):
    cases = [workloads.Case(name, {}, ("hopf_orbits",), 1) for name in ("a", "b", "c")]
    fake = _fake_cli([2.0 * math.pi] * 3)
    calls = []

    def main(argv):
        calls.append(Path(argv[argv.index("--out") + 1]).name)
        return fake(argv)

    ws = run.Workspace(tmp_path, SimpleNamespace(main=main), cases,
                       [tmp_path / f"{c.name}.json" for c in cases], tmp_path / "out")
    tally = run.Tally()
    refs = []
    times = run.sample_cases(ws, tally, deadline=0.0, refs=refs)
    assert calls == ["a", "b", "c"]
    # the three fake reports take far less than a second: one reference.
    assert len(refs) == 1 and refs[0] > 0
    assert {name: len(t) for name, t in times.items()} == {"a": 1, "b": 1, "c": 1}
    assert (tally.attempted, tally.failed) == (3, 0)


def test_missing_sidecar_and_bad_exit_fail(tmp_path):
    case = workloads.Case("hopf", {}, ("hopf_orbits",), 1)
    out = tmp_path / "out"
    _fake_cli([2.0 * math.pi])(["--out", str(out)])
    assert oracles.check_report(case, str(out), 0)[0] == []
    assert oracles.check_report(case, str(out), 4)[0] == ["exit code 4"]
    (out / "loop.csv").unlink()
    assert oracles.check_report(case, str(out), 0)[0] == ["missing loop.csv"]


def test_generator_is_seeded_and_stays_in_its_regions():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
        assert workloads.generate(name, 3) != workloads.generate(name, 4)
        for case in workloads.generate(name, 3):
            assert case.scenario["seed"] == 3
    for seed in range(50):
        hopf = workloads.generate("oscillators", seed)[0].scenario["x0"]
        for x1, x2, x3 in hopf:
            assert 0.1 <= math.hypot(x1, x2) <= 1.15 and abs(x3) <= 0.9
        sink = workloads.generate("settling", seed)[1].scenario["x0"]
        assert all(x[0] == x[1] == 0.0 and 0.1 <= abs(x[2]) <= 1.0 for x in sink)


def test_tail_size_recomputation():
    times = np.linspace(0.0, 10.0, 101)
    # window 5 at spacing 0.5: 11 grid points, each on a node.
    assert oracles.expected_tail_size(times, 0.5, 0.5) == 11
    # spacing finer than the nodes: every node in the window once.
    assert oracles.expected_tail_size(times, 0.5, 0.01) == 51


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "dense_tail", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
