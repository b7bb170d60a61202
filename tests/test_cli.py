"""Command line behavior: exit codes, stdout documents, sidecar files."""

import copy
import json
import os

import jsonschema
import numpy as np
import pytest

from kcone import integrators
from kcone.cli import main
from kcone.report import REPORT_SCHEMA, build_full_report, dump_report, run_certify, wrap_report
from kcone.scenario import DOMAIN_CAP, parse_scenario

P_STD = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]


def _write(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _linear_obj(**extra):
    obj = {
        "field": {"family": "linear", "params": {"A": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]]}},
        "cone": {"type": "quadratic", "P": P_STD},
        "domain": {"type": "box", "lo": [-2.0, -2.0, -2.0], "hi": [2.0, 2.0, 2.0]},
        "lambda": 0.0,
        "pairs": 200,
        "seed": 3,
    }
    obj.update(extra)
    return obj


def _decay_obj(**extra):
    obj = {
        "field": {"family": "linear", "params": {"A": [[-1.0, 0, 0], [0, -2.0, 0], [0, 0, -3.0]]}},
        "cone": {"type": "quadratic", "P": P_STD},
        "x0": [0.5, 0.4, 0.3],
        "T": 30.0,
        "rtol": 1e-8,
        "atol": 1e-10,
        "seed": 1,
    }
    obj.update(extra)
    return obj


def _hopf_obj(**extra):
    obj = {
        "field": {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
        "cone": {"type": "quadratic", "P": P_STD},
        "x0": [0.1, 0.0, 0.5],
        "T": 40.0,
        "rtol": 1e-8,
        "atol": 1e-10,
        "seed": 0,
    }
    obj.update(extra)
    return obj


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "kcone" in capsys.readouterr().out


def test_certify_stdout_document(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj())
    assert main(["certify", "--scenario", scn]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc.keys()) == {"report", "meta"}
    report = doc["report"]
    assert report["certificates"][0]["condition"] == "pairwise_lambda"
    assert report["certificates"][0]["verdict"] == "pass"
    assert report["passing_lambdas"] == [0.0]
    assert len(report["scenario_digest"]) == 64


def test_certify_out_file_and_progress(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj())
    out = tmp_path / "cert.json"
    assert main(["certify", "--scenario", scn, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("pairwise_lambda" in ln and "pass" in ln for ln in lines)
    assert any("wrote" in ln for ln in lines)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["report"]["passing_lambdas"] == [0.0]


def test_certify_quiet_suppresses_progress(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj())
    out = tmp_path / "cert.json"
    assert main(["certify", "--scenario", scn, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert out.exists()


def test_certify_lambda_grid_flag(tmp_path, capsys):
    obj = _linear_obj()
    del obj["lambda"]
    scn = _write(tmp_path, obj)
    assert main(["certify", "--scenario", scn, "--lambda-grid", "0:1:0.5"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert [c["lambda"] for c in report["certificates"]] == [0.0, 0.5, 1.0]
    assert 0.0 in report["passing_lambdas"]


def test_certify_lambda_grid_of_one_rate(tmp_path, capsys):
    """A step too small to move hi + step/2 off lo still leaves lo a rate."""
    obj = _linear_obj()
    del obj["lambda"]
    scn = _write(tmp_path, obj)
    assert main(["certify", "--scenario", scn, "--lambda-grid", "1:1:1e-300"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert [(c["condition"], c["lambda"]) for c in report["certificates"]] == [
        ("pairwise_lambda", 1.0)
    ]


def test_certify_lambda_grid_flag_malformed(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj())
    assert main(["certify", "--scenario", scn, "--lambda-grid", "0:1"]) == 2
    assert capsys.readouterr().err.startswith("kcone: ")


@pytest.mark.parametrize("grid", ["0:x:1", "nan:1:0.5", "0:nan:0.5", "0:1:nan"])
def test_certify_lambda_grid_flag_not_numbers(tmp_path, capsys, grid):
    scn = _write(tmp_path, _linear_obj())
    assert main(["certify", "--scenario", scn, "--lambda-grid", grid]) == 2
    assert "'/lambda_grid'" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:1e20:1e-20", "0:1e9:1"])
def test_certify_lambda_grid_flag_of_too_many_rates(tmp_path, capsys, grid):
    scn = _write(tmp_path, _linear_obj())
    assert main(["certify", "--scenario", scn, "--lambda-grid", grid]) == 2
    assert "'/lambda_grid'" in capsys.readouterr().err


def test_report_tail_grid_beyond_the_cap(tmp_path, capsys):
    """Refused before the orbit is integrated."""
    scn = _write(tmp_path, _linear_obj(x0=[0.1, 0.2, 0.3], T=10.0, analysis={"spacing": 1e-300}))
    assert main(["report", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert "'/analysis/spacing'" in capsys.readouterr().err


def test_report_chain_horizon_reaches_r_chain(tmp_path, capsys):
    """Without t_max_chain the chain horizon is max(1.5 periods, r_chain),
    so an r_chain past 1.5 periods (here 20 > 3 pi) no longer ends the
    report."""
    scn = _write(tmp_path, _hopf_obj(analysis={"r_chain": 20.0}))
    outdir = tmp_path / "out"
    assert main(["report", "--scenario", scn, "--out", str(outdir)]) == 0
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    chain = doc["report"]["orbits"][0]["chain_check"]
    assert chain["r"] == 20.0 and chain["t_max"] == 20.0


def test_report_default_r_chain_is_capped_at_t_max_chain(tmp_path, capsys):
    """A t_max_chain below a quarter period caps the default r_chain, so
    the chain check runs instead of ending the report with exit 4."""
    scn = _write(tmp_path, _hopf_obj(analysis={"t_max_chain": 1}))
    outdir = tmp_path / "out"
    assert main(["report", "--scenario", scn, "--out", str(outdir)]) == 0
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    chain = doc["report"]["orbits"][0]["chain_check"]
    assert chain["r"] == chain["t_max"] == 1


def test_report_r_chain_past_t_max_chain_is_a_schema_error(tmp_path, capsys):
    scn = _write(tmp_path, _hopf_obj(analysis={"r_chain": 20.0, "t_max_chain": 5.0}))
    assert main(["report", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert "'/analysis/r_chain'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    equal = _hopf_obj(analysis={"r_chain": 5.0, "t_max_chain": 5.0})
    assert parse_scenario(equal).analysis["r_chain"] == 5.0


def _far_sink(reach, x0):
    return _linear_obj(
        field={"family": "linear", "params": {"A": (-0.001 * np.eye(3)).tolist()}},
        domain={"type": "box", "lo": [-reach] * 3, "hi": [reach] * 3},
        x0=x0,
        T=5.0,
    )


def test_report_of_a_domain_past_the_cap(tmp_path, capsys):
    """States of [-1e300, 1e300]^3 are too far apart for their squared
    distances, which made the tail gap and its tolerances inf and the
    report unwritable; the domain is refused before any run."""
    scn = _write(tmp_path, _far_sink(1e300, [1e160, 0.0, 0.0]))
    assert main(["report", "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    assert "'/domain'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_at_the_domain_cap_is_finite(tmp_path):
    """From a corner of the widest box admitted, every figure is finite: the
    report is written (exit 4, as the 15-step tail has not converged)."""
    scn = _write(tmp_path, _far_sink(DOMAIN_CAP, [DOMAIN_CAP, -DOMAIN_CAP, DOMAIN_CAP]))
    assert main(["report", "--scenario", scn, "--out", str(tmp_path / "out")]) == 4
    orbit = json.loads((tmp_path / "out" / "report.json").read_text())["report"]["orbits"][0]
    assert orbit["omega"]["hausdorff_gap"] > 0.0
    assert orbit["trichotomy"]["tolerances"]["dist_eq"] > 0.0


def test_certify_pairs_flag_beyond_the_cap(tmp_path, capsys):
    """Refused before any sampling; without a rate nothing would be sampled
    either, so no pair is ever drawn here."""
    obj = _linear_obj()
    del obj["lambda"]
    scn = _write(tmp_path, obj)
    assert main(["certify", "--scenario", scn, "--pairs", "1000000000"]) == 2
    assert "'/pairs'" in capsys.readouterr().err


def test_certify_document_is_run_certify(tmp_path, capsys):
    """kcone certify writes the run_certify object as its report."""
    obj = _linear_obj(epsilon=0.5)
    scn = _write(tmp_path, obj)
    assert main(["certify", "--scenario", scn]) == 0
    written = json.loads(capsys.readouterr().out)["report"]
    expected = run_certify(parse_scenario(obj))
    assert written == json.loads(dump_report(wrap_report(expected, 0.0)))["report"]


# Each scenario number must be a finite double. JSON admits integers past
# the largest double, and Python's reader gives inf for 1e400 and reads the
# non-JSON constants NaN and Infinity; all of them exit 2, at the member's
# pointer, or at / for a constant refused while the file is read.
_BIG = "1" + "0" * 400


@pytest.mark.parametrize("slot, text, pointer", [
    ("/field/params/omega", _BIG, None),
    ("/T", _BIG, None),
    ("/lambda", _BIG, None),
    ("/x0/1", _BIG, "/x0"),
    ("/cone/P/1/1", _BIG, None),
    ("/field/params/A/0/0", _BIG, None),
    ("/cone/band", _BIG, None),
    ("/T", "1e400", None),
    ("/lambda", "-1e400", None),
    ("/T", "NaN", "/"),
    ("/T", "Infinity", "/"),
    ("/lambda", "-Infinity", "/"),
], ids=lambda v: "1e400-digit-int" if v == _BIG else v)
def test_non_finite_scenario_numbers_exit_2(tmp_path, capsys, slot, text, pointer):
    obj = copy.deepcopy((_decay_obj if "/A/" in slot else _hopf_obj)(**{"lambda": 0.0}))
    obj["cone"]["band"] = 0.0
    *path, last = (int(k) if k.isdigit() else k for k in slot[1:].split("/"))
    target = obj
    for key in path:
        target = target[key]
    target[last] = "@"
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(obj).replace('"@"', text), encoding="utf-8")
    assert main(["report", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert f"(at JSON pointer '{pointer or slot}')" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_certify_pairs_flag(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj())
    assert main(["certify", "--scenario", scn, "--pairs", "50"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["certificates"][0]["n_samples"] <= 50


def test_seed_flag_changes_digest(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj())
    assert main(["certify", "--scenario", scn, "--seed", "11"]) == 0
    first = json.loads(capsys.readouterr().out)["report"]
    assert main(["certify", "--scenario", scn, "--seed", "12"]) == 0
    second = json.loads(capsys.readouterr().out)["report"]
    assert first["seed"] == 11
    assert second["seed"] == 12
    assert first["scenario_digest"] != second["scenario_digest"]


def test_classify_stdout_document(tmp_path, capsys):
    scn = _write(tmp_path, _decay_obj())
    assert main(["classify", "--scenario", scn]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["incomplete"] is False
    orbit = report["orbits"][0]
    assert orbit["omega"]["converged"] is True
    assert orbit["periodic_orbit"] is None


def test_classify_plotdata_files(tmp_path, capsys):
    scn = _write(tmp_path, _decay_obj())
    out = tmp_path / "cls.json"
    plots = tmp_path / "plots"
    rc = main(["classify", "--scenario", scn, "--out", str(out),
               "--plotdata", str(plots)])
    assert rc == 0
    assert any(ln.startswith("orbit 0:") for ln in capsys.readouterr().out.splitlines())
    assert (plots / "trajectory.csv").exists()
    assert (plots / "omega_points.csv").exists()
    assert (plots / "margins.csv").exists()
    assert not (plots / "loop.csv").exists()  # point attractor has no loop


def test_classify_incomplete_exit_code(tmp_path, capsys):
    obj = {
        "field": {"exprs": ["x1", "0 - x2"]},
        "cone": {"type": "quadratic", "P": [[-1.0, 0.0], [0.0, 1.0]]},
        "domain": {"type": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
        "x0": [0.5, 0.5],
        "T": 10.0,
        "seed": 0,
    }
    scn = _write(tmp_path, obj)
    out = tmp_path / "cls.json"
    assert main(["classify", "--scenario", scn, "--out", str(out)]) == 4
    assert "[incomplete]" in capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert report["incomplete"] is True
    assert report["orbits"][0]["integration"]["events"]


def test_missing_scenario_file(tmp_path, capsys):
    rc = main(["classify", "--scenario", str(tmp_path / "absent.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("kcone: ")


def test_unparsable_scenario_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert main(["certify", "--scenario", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_schema_error_reports_pointer(tmp_path, capsys):
    scn = _write(tmp_path, {"field": 12})
    assert main(["certify", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kcone: ")
    assert "'cone'" in err
    assert "/cone" in err


def test_integration_failure_exit_code(tmp_path, capsys):
    obj = {
        "field": {"exprs": ["(0 - x1)^0.5", "0 - x2"]},
        "cone": {"type": "quadratic", "P": [[-1.0, 0.0], [0.0, 1.0]]},
        "domain": {"type": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
        "x0": [1.0, 0.0],
        "T": 5.0,
        "seed": 0,
    }
    scn = _write(tmp_path, obj)
    assert main(["classify", "--scenario", scn]) == 3
    assert "integration failed" in capsys.readouterr().err


def test_node_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrators, "MAX_NODES", 20)
    scn = _write(tmp_path, _decay_obj())
    assert main(["classify", "--scenario", scn]) == 3
    assert "more than 20 nodes" in capsys.readouterr().err


def test_too_deeply_nested_expression_exit_code(tmp_path, capsys):
    obj = {
        "field": {"exprs": ["+".join(["x1"] * 3000), "0 - x2"]},
        "cone": {"type": "quadratic", "P": [[-1.0, 0.0], [0.0, 1.0]]},
        "domain": {"type": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
        "x0": [1.0, 0.0],
        "T": 5.0,
    }
    scn = _write(tmp_path, obj)
    assert main(["classify", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert "nested deeper" in err and "/field/exprs" in err


def test_poincare_stdout_csv(tmp_path, capsys):
    scn = _write(tmp_path, _hopf_obj())
    assert main(["poincare", "--scenario", scn]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x1,x2,x3,u1,u2"
    assert len(lines) > 100
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0


def test_poincare_out_file(tmp_path, capsys):
    scn = _write(tmp_path, _hopf_obj())
    out = tmp_path / "loop.csv"
    assert main(["poincare", "--scenario", scn, "--out", str(out)]) == 0
    assert "period" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith("t,x1,x2,x3,u1,u2\n")


def test_poincare_csv_is_the_report_loop_csv(tmp_path, capsys):
    """poincare and report seek the loop through one gate and write the
    same bytes."""
    scn = _write(tmp_path, _hopf_obj())
    assert main(["poincare", "--scenario", scn, "--out", str(tmp_path / "loop.csv")]) == 0
    assert main(["report", "--scenario", scn, "--out", str(tmp_path / "bundle")]) == 0
    loop = (tmp_path / "loop.csv").read_bytes()
    assert loop == (tmp_path / "bundle" / "loop.csv").read_bytes()
    assert loop.startswith(b"t,x1,x2,x3,u1,u2\n")


def test_poincare_no_loop_exit_code(tmp_path, capsys):
    scn = _write(tmp_path, _decay_obj())
    assert main(["poincare", "--scenario", scn]) == 4
    assert "no periodic loop" in capsys.readouterr().out


def test_poincare_needs_rank_two(tmp_path, capsys):
    obj = _hopf_obj(cone={"type": "orthant_complement", "n": 3})
    scn = _write(tmp_path, obj)
    assert main(["poincare", "--scenario", scn]) == 2
    assert "/cone" in capsys.readouterr().err


def test_poincare_needs_initial_condition(tmp_path, capsys):
    obj = _hopf_obj()
    del obj["x0"]
    scn = _write(tmp_path, obj)
    assert main(["poincare", "--scenario", scn]) == 2
    assert "/x0" in capsys.readouterr().err


def test_classify_needs_initial_condition(tmp_path, capsys):
    obj = _hopf_obj()
    del obj["x0"]
    scn = _write(tmp_path, obj)
    assert main(["classify", "--scenario", scn]) == 2
    assert "'/x0'" in capsys.readouterr().err


def test_constant_division_by_zero_is_a_non_finite_margin(tmp_path, capsys):
    """1/0 in a parsed field is inf by numpy's rules, and the certificate
    refuses the resulting NaN margins as incomplete, with no warning."""
    scn = _write(tmp_path, _linear_obj(field={"exprs": ["1/0 + x1", "x2", "x3"]}))
    assert main(["certify", "--scenario", scn]) == 4
    assert capsys.readouterr().err == "kcone: incomplete: margin not finite at some sampled pair\n"


def test_report_command_writes_bundle(tmp_path, capsys):
    scn = _write(tmp_path, _decay_obj())
    outdir = tmp_path / "bundle"
    assert main(["report", "--scenario", scn, "--out", str(outdir)]) == 0
    assert (outdir / "report.json").exists()
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "omega_points.csv").exists()
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    assert doc["report"]["orbits"][0]["incomplete"] is False
    assert "timestamp" in doc["meta"]
    out = capsys.readouterr().out
    assert "report.json" in out
    assert "plot-data" in out


def test_report_meta_holds_each_orbits_integrator_counters(tmp_path):
    obj = {
        "field": {"family": "cyclic_feedback", "params": {"n": 3, "kind": "glass_pwl", "amp": 4.0}},
        "domain": {"type": "box", "lo": [-0.5] * 3, "hi": [4.5] * 3},
        "cone": {"type": "orthant_complement", "n": 3},
        "x0": [[3.1, 0.2, 1.7], [0.4, 2.5, 3.6]],
        "T": 20.0,
        "seed": 5,
    }
    outdir = tmp_path / "bundle"
    assert main(["report", "--scenario", _write(tmp_path, obj), "--out", str(outdir),
                 "--quiet"]) in (0, 4)
    text = (outdir / "report.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    jsonschema.validate(doc, REPORT_SCHEMA)
    scn = parse_scenario(obj)
    counters = ("n_rhs", "n_accepted", "n_rejected", "n_kink_retries", "n_exit_bisections")
    assert len(doc["meta"]["orbits"]) == 2
    for x0, work in zip(scn.x0s, doc["meta"]["orbits"]):
        run = integrators.integrate(scn.field, x0, scn.T, rtol=scn.rtol, atol=scn.atol)
        assert work == {c: getattr(run, c) for c in counters}
        assert work["n_kink_retries"] > 0
    # The counters live in "meta" alone: the "report" object keeps its bytes.
    report, _ = build_full_report(scn)
    plain = dump_report(wrap_report(report, 0.0))
    assert "orbits" not in json.loads(plain)["meta"]
    assert text[text.index('\n  "report": '):] == plain[plain.index('\n  "report": '):]


def test_poincare_unsettled_tail_exit_code(tmp_path, capsys):
    # From r = 0.1 the orbit is still spiralling out to the unit circle at
    # T = 6, so the two halves of the tail window differ.
    scn = _write(tmp_path, _hopf_obj(T=6.0))
    assert main(["poincare", "--scenario", scn]) == 4
    assert "tail has not settled" in capsys.readouterr().out


def test_analysis_error_exits_incomplete(tmp_path, capsys):
    """A kcone error that is neither a schema nor an integration failure
    exits 4 as incomplete. Here orbit 1 leaves the box at t ~ 0.1, too
    short for a tail window of spacing 0.1."""
    obj = _linear_obj(
        domain={"type": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        x0=[[0.0, 0.0, 0.5], [0.9, 0.0, 0.0]],
        T=20.0,
    )
    scn = _write(tmp_path, obj)
    assert main(["report", "--scenario", scn, "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("kcone: incomplete: ")


@pytest.mark.parametrize("command, out", [("report", "out"), ("certify", "report.json")])
def test_x0_outside_the_domain_is_a_schema_error(tmp_path, capsys, command, out):
    """The sink on [-1, 1]^3 from [5, 0, 0] is refused at /x0 before any
    run, by certify too, and no report is written."""
    obj = _linear_obj(
        domain={"type": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        x0=[5.0, 0.0, 0.0],
    )
    scn = _write(tmp_path, obj)
    assert main([command, "--scenario", scn, "--out", str(tmp_path / out)]) == 2
    assert "'/x0'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize(
    "field",
    [
        {"family": "cyclic_feedback", "params": {"n": 3}},
        {"family": "linear", "params": {"A": [[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]}},
        {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
        {"exprs": ["x2", "0 - x1", "0 - x3"]},
    ],
    ids=["cyclic_feedback", "linear", "hopf_cylinder", "exprs"],
)
def test_domain_of_the_wrong_dimension_is_a_schema_error(tmp_path, capsys, field):
    obj = _linear_obj(field=field, domain={"type": "box", "lo": [0.1, 0.1], "hi": [2.0, 2.0]})
    scn = _write(tmp_path, obj)
    assert main(["certify", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kcone: ")
    assert "/domain" in err


@pytest.mark.parametrize(
    "field, pointer",
    [
        ({"family": "hopf_cylinder", "params": {"omega": "fast", "c": 4.0}},
         "/field/params/omega"),
        ({"family": "cyclic_feedback", "params": {"n": "abc"}}, "/field/params/n"),
        ({"family": "cyclic_feedback", "params": {"n": 3, "b": "x"}}, "/field/params/b"),
        ({"family": "cyclic_feedback", "params": {"n": 3, "kind": "ring"}},
         "/field/params/kind"),
        ({"family": "linear", "params": {"A": [[1.0, 0, 0], [0, 1.0], [0, 0, -1.0]]}},
         "/field/params/A"),
        ({"family": "competitive_lv",
          "params": {"A": [[1.0, 0.5, 0.5], [0.5, 1.0], [0.5, 0.5, 1.0]], "r": [1.0] * 3}},
         "/field/params/A"),
        ({"exprs": ["a * x1", "x2", "x3"], "params": {"a": "q"}}, "/field/params/a"),
    ],
    ids=["hopf_omega", "ring_n", "goodwin_b", "ring_kind", "linear_ragged_A",
         "lv_ragged_A", "exprs_param"],
)
def test_non_numeric_family_params_are_schema_errors(tmp_path, capsys, field, pointer):
    """Params of the wrong type exit 2 with a pointer to the param, not a
    ValueError traceback."""
    scn = _write(tmp_path, _linear_obj(field=field))
    assert main(["certify", "--scenario", scn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kcone: ")
    assert f"'{pointer}'" in err


def test_ragged_cone_matrix_is_a_schema_error(tmp_path, capsys):
    scn = _write(tmp_path, _linear_obj(cone={"type": "quadratic",
                                             "P": [[-1.0, 0.0], [0.0, -1.0, 0.0], P_STD[2]]}))
    assert main(["certify", "--scenario", scn]) == 2
    assert "'/cone/P'" in capsys.readouterr().err
