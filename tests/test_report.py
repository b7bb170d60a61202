"""Report assembly: determinism, orbit order, serialization, CSV sidecars."""

import dataclasses
import importlib.util
import io
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import pytest

from kcone import report as report_module
from kcone.certify import certify_sampled, certify_smith
from kcone.cones import Projector, make_projector, make_quadratic_cone
from kcone.errors import SchemaError
from kcone.fields import EQUILIBRIUM_DEDUPE_TOL, default_equilibrium_seeds, find_equilibria
from kcone.report import (
    REPORT_SCHEMA,
    _condition_dict,
    _write_csv,
    build_full_report,
    dump_report,
    emit_plotdata,
    run_certify,
    run_classify,
    wrap_report,
    write_loop_csv,
    write_margins_csv,
    write_omega_csv,
    write_report,
    write_trajectory_csv,
)
from kcone.scenario import canonical_json, parse_scenario, scenario_digest

P_STD = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]


def _hopf_obj(**extra):
    obj = {
        "name": "hopf",
        "field": {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
        "cone": {"type": "quadratic", "P": P_STD},
        "x0": [0.1, 0.0, 0.5],
        "T": 40.0,
        "rtol": 1e-8,
        "atol": 1e-10,
        "seed": 7,
        "analysis": {"eps_chain": 1e-4, "chain_points": 4},
    }
    obj.update(extra)
    return obj


@pytest.fixture(scope="module")
def hopf_scn():
    return parse_scenario(_hopf_obj())


@pytest.fixture(scope="module")
def hopf_run(hopf_scn):
    return run_classify(hopf_scn)


def test_classify_sections(hopf_run):
    report, artifacts = hopf_run
    assert report["tool"]["name"] == "kcone"
    assert report["seed"] == 7
    assert len(report["orbits"]) == 1
    orbit = report["orbits"][0]
    assert orbit["index"] == 0
    assert orbit["orbit_class"]["kind"] == "pseudo_ordered"
    assert orbit["omega"]["converged"] is True
    assert orbit["trichotomy"]["branch"] == "ordered"
    assert orbit["ordering_audit"]["ordered"] is True
    loop = orbit["periodic_orbit"]
    assert loop is not None
    assert abs(loop["period"] - 2.0 * np.pi) < 1e-4
    assert loop["separation_ratio"] == pytest.approx(1.0, abs=1e-6)
    chain = orbit["chain_check"]
    assert chain["n_points"] == 4
    assert chain["all_recurrent"] is True
    assert isinstance(chain["all_recurrent"], bool)
    assert orbit["incomplete"] is False
    assert report["incomplete"] is False
    art = artifacts[0]
    assert art["trajectory"] is not None
    assert art["omega"] is not None
    assert art["loop"] is not None


@pytest.mark.parametrize("chain_points", [1, 2.0])
def test_chain_check_takes_chain_points_as_given(chain_points):
    obj = _hopf_obj(T=30.0, analysis={"eps_chain": 1e-4, "chain_points": chain_points})
    (orbit,) = run_classify(parse_scenario(obj))[0]["orbits"]
    assert orbit["chain_check"]["n_points"] == chain_points


def test_trichotomy_section_holds_only_its_own_facts(hopf_run):
    """The audit's fraction and triviality and the estimate's convergence
    are written once, in ordering_audit and omega."""
    for orbit in hopf_run[0]["orbits"]:
        assert set(orbit["trichotomy"]) == {
            "branch", "equilibria_hits", "core_size", "backward_surrogate_used", "tolerances",
        }


def test_classify_deterministic(hopf_scn, hopf_run):
    report_a, _ = hopf_run
    report_b, _ = run_classify(hopf_scn)
    assert canonical_json(report_a) == canonical_json(report_b)
    assert report_a["scenario_digest"] == scenario_digest(hopf_scn.raw)


def test_classify_orbits_in_input_order(hopf_run):
    scn = parse_scenario(_hopf_obj(x0=[[0.3, 0.4, -0.2], [0.1, 0.0, 0.5]]))
    report, artifacts = run_classify(scn)
    assert [o["index"] for o in report["orbits"]] == [0, 1]
    assert [o["x0"] for o in report["orbits"]] == scn.x0s
    assert [a["trajectory"].states[0].tolist() for a in artifacts] == scn.x0s
    # each orbit is analysed on its own: the second section is the
    # one-orbit run of the same initial condition, up to its index
    lone = dict(hopf_run[0]["orbits"][0], index=1)
    assert canonical_json(report["orbits"][1]) == canonical_json(lone)


def test_classify_requires_initial_conditions():
    scn = parse_scenario(_hopf_obj())
    scn.x0s = []
    with pytest.raises(SchemaError) as e:
        run_classify(scn)
    assert e.value.pointer == "/x0"


WORKLOADS = Path(__file__).resolve().parents[1] / "kbench" / "workloads.py"


@pytest.fixture(scope="module")
def settling_cases():
    """The settling benchmark's scenarios at seed 10, by name: the Goodwin
    ring, the linear sink and the May-Leonard LV, three orbits each. The
    third LV start reaches the equilibrium (0, 1, 0), which no default seed
    and neither other start finds."""
    spec = importlib.util.spec_from_file_location("kbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # dataclasses resolves annotations through sys.modules while the file runs
        mp.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        cases = workloads.settling(10)
    return {case.name: (parse_scenario(case.scenario), workloads) for case in cases}


def _spy_equilibria(monkeypatch) -> list:
    """The seed lists of every equilibrium search the report module runs."""
    calls = []

    def spy(field, seeds):
        calls.append(seeds)
        return find_equilibria(field, seeds)

    monkeypatch.setattr(report_module, "find_equilibria", spy)
    return calls


@pytest.mark.parametrize("name", ["goodwin", "sink", "lv"])
def test_a_scenario_runs_one_equilibrium_search_read_by_every_orbit(
    settling_cases, monkeypatch, name
):
    scn, _ = settling_cases[name]
    calls = _spy_equilibria(monkeypatch)
    report, _ = build_full_report(scn)
    assert len(calls) == 1
    want = default_equilibrium_seeds(scn.field.domain, extra=scn.x0s)
    assert [s.tolist() for s in calls[0]] == [s.tolist() for s in want]
    first, *rest = [orbit["equilibria"] for orbit in report["orbits"]]
    assert len(rest) == 2 and all(eq == first for eq in rest)
    # Every root the per-orbit search of the orbit's own x0 finds is in the set.
    for x0 in scn.x0s:
        alone = find_equilibria(scn.field, default_equilibrium_seeds(scn.field.domain, extra=[x0]))
        for eq in alone.equilibria:
            gaps = np.linalg.norm(np.array(first["points"]) - eq.point, axis=1)
            assert gaps.min() <= EQUILIBRIUM_DEDUPE_TOL


def test_a_scenario_with_no_initial_condition_runs_no_equilibrium_search(monkeypatch):
    calls = _spy_equilibria(monkeypatch)
    report, _ = build_full_report(parse_scenario(_linear_cert_obj(**{"lambda": 0.0})))
    assert report["orbits"] == [] and calls == []


def test_the_benchmark_lv_orbits_report_one_interior_equilibrium(settling_cases):
    """Not one copy per orbit, each found from that orbit's x0 to within
    Newton's tolerance of the others."""
    scn, workloads = settling_cases["lv"]
    report, _ = run_classify(scn)
    interior = {
        tuple(p) for orbit in report["orbits"] for p in orbit["equilibria"]["points"]
        if min(p) > 1e-6
    }
    assert len(report["orbits"]) == 3
    (point,) = interior
    assert np.abs(np.subtract(point, workloads.LV_EQUILIBRIUM)).max() <= 1e-10


def _linear_cert_obj(**extra):
    obj = {
        "field": {"family": "linear", "params": {"A": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]]}},
        "cone": {"type": "quadratic", "P": P_STD},
        "domain": {"type": "box", "lo": [-2.0, -2.0, -2.0], "hi": [2.0, 2.0, 2.0]},
        "pairs": 500,
        "seed": 3,
    }
    obj.update(extra)
    return obj


def test_run_certify_linear_bundle():
    obj = _linear_cert_obj(epsilon=0.5)
    obj["lambda"] = 0.0
    out = run_certify(parse_scenario(obj))
    conditions = [c["condition"] for c in out["certificates"]]
    assert conditions == ["pairwise_lambda", "linear_lmi", "smith_epsilon"]
    by_name = {c["condition"]: c for c in out["certificates"]}
    assert by_name["linear_lmi"]["worst_margin"] == pytest.approx(-2.0, abs=1e-12)
    assert all(c["verdict"] == "pass" for c in out["certificates"])
    assert out["passing_lambdas"] == [0.0]
    assert by_name["smith_epsilon"]["epsilon_star"] == pytest.approx(1.0, abs=1e-9)


def test_run_certify_lambda_grid():
    obj = _linear_cert_obj()
    obj["lambda_grid"] = [0.0, 1.0, 0.5]
    out = run_certify(parse_scenario(obj))
    lams = [c["lambda"] for c in out["certificates"]]
    assert lams == [0.0, 0.5, 1.0]
    assert all(c["condition"] == "pairwise_lambda" for c in out["certificates"])
    assert 0.0 in out["passing_lambdas"]


@pytest.mark.parametrize("grid", [None, [0.0, 1.0, 0.25]], ids=["no_grid", "grid"])
def test_run_certify_draws_one_sample(grid):
    """The uniform-gap check reads the pairwise report at lambda, scored on
    the one seeded sample: the field sees each of its 2 x pairs rows once,
    and the check matches a fresh draw at that rate."""
    obj = _linear_cert_obj(epsilon=0.5)
    obj["lambda"] = 0.3
    if grid is not None:
        obj["lambda_grid"] = grid
    scn = parse_scenario(obj)
    field = scn.field
    rows = []

    def counting_rhs(x):
        rows.append(len(x))
        return field.rhs(x)

    scn.field = dataclasses.replace(field, rhs=counting_rhs)
    out = run_certify(scn)
    assert sum(rows) == 2 * scn.pairs
    base = certify_sampled(field, scn.cone, 0.3, n_pairs=scn.pairs, seed=scn.seed)
    alone = certify_smith(base, 0.5)
    smith = [c for c in out["certificates"] if c["condition"] == "smith_epsilon"]
    assert smith == [_condition_dict(alone)]
    lams = [c["lambda"] for c in out["certificates"] if c["condition"] == "pairwise_lambda"]
    assert lams == ([0.3] if grid is None else [0.0, 0.25, 0.5, 0.75, 1.0])


def test_run_certify_feedback_ring():
    obj = {
        "field": {"family": "cyclic_feedback", "params": {"n": 3}},
        "cone": {"type": "quadratic", "P": P_STD},
        "seed": 0,
    }
    out = run_certify(parse_scenario(obj))
    assert len(out["certificates"]) == 1
    check = out["certificates"][0]
    assert check["condition"] == "cyclic_feedback"
    assert check["verdict"] == "pass"
    assert check["feedback_type"] == "negative"


def test_full_report_validates_schema(tmp_path):
    obj = _linear_cert_obj(x0=[0.0, 0.0, 0.5], T=40.0, rtol=1e-8, atol=1e-10)
    obj["lambda"] = 0.0
    scn = parse_scenario(obj)
    report, artifacts = build_full_report(scn)
    wrapped = wrap_report(report, wall_time_s=0.25)
    jsonschema.validate(wrapped, REPORT_SCHEMA)
    # a contracting orbit ends on the equilibrium branch with no loop
    orbit = report["orbits"][0]
    assert orbit["trichotomy"]["branch"] == "unordered_equilibria"
    assert orbit["periodic_orbit"] is None
    assert orbit["chain_check"] is None
    assert report["incomplete"] is False
    assert len(report["certificates"]) == 2  # pairwise and exact linear
    # serialized booleans stay booleans
    path = tmp_path / "report.json"
    write_report(path, report, wall_time_s=0.25)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["report"]["incomplete"] is False
    assert loaded["report"]["orbits"][0]["omega"]["converged"] is True
    assert loaded["meta"]["wall_time_s"] == 0.25


# Between them these produce every certificate condition and every orbit
# section: a loop with its chain check, and a worst unordered pair.
PLAIN_JSON_SCENARIOS = {
    "hopf": _hopf_obj(**{"lambda": 3.5, "epsilon": 0.01, "pairs": 500}),
    "linear": _linear_cert_obj(**{"lambda": 0.0}),
    "goodwin": {
        "field": {"family": "cyclic_feedback",
                  "params": {"n": 3, "kind": "smooth_goodwin", "m": 4.0}},
        "cone": {"type": "orthant_complement", "n": 3},
        "x0": [0.5, 0.2, 0.8],
        "T": 100.0,
        "seed": 0,
    },
}


def test_report_object_is_plain_json():
    """The report object goes to json.dumps as built: an array, a tuple or a
    numpy scalar that JSON cannot encode fails here."""
    conditions, loops, unordered = set(), 0, 0
    for obj in PLAIN_JSON_SCENARIOS.values():
        report, _ = build_full_report(parse_scenario(obj))
        assert json.loads(dump_report(wrap_report(report, 0.0)))["report"] == report
        conditions |= {c["condition"] for c in report["certificates"]}
        loops += sum(o["chain_check"] is not None for o in report["orbits"])
        unordered += sum(
            o["ordering_audit"]["worst_unordered"] is not None for o in report["orbits"]
        )
    assert conditions == {"pairwise_lambda", "smith_epsilon", "linear_lmi", "cyclic_feedback"}
    assert loops > 0 and unordered > 0


def test_full_report_without_orbits():
    obj = _linear_cert_obj()
    obj["lambda"] = 0.0
    report, artifacts = build_full_report(parse_scenario(obj))
    assert report["orbits"] == []
    assert report["incomplete"] is False
    assert artifacts == []
    assert len(report["certificates"]) == 2


def test_run_certify_is_the_full_report_without_orbits():
    """run_certify gives the certificate report object whole; the full
    report adds the orbit sections and the incomplete flag to it."""
    obj = _linear_cert_obj(x0=[0.0, 0.0, 0.5], T=40.0, rtol=1e-8, atol=1e-10, epsilon=0.5)
    obj["lambda"] = 0.0
    scn = parse_scenario(obj)
    cert = run_certify(scn)
    assert set(cert) == {
        "tool", "scenario_digest", "seed", "certificates", "passing_lambdas"
    }
    report, _ = build_full_report(scn)
    assert set(report) - set(cert) == {"orbits", "incomplete"}
    assert {k: v for k, v in report.items() if k in cert} == cert


def test_dump_report_meta_separated(hopf_run):
    report, _ = hopf_run
    wrapped = wrap_report(report, wall_time_s=1.5)
    text = dump_report(wrapped)
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert set(loaded.keys()) == {"report", "meta"}
    assert "timestamp" in loaded["meta"]
    assert "wall_time_s" in loaded["meta"]
    # the deterministic half carries no clock values
    assert "timestamp" not in json.dumps(loaded["report"])


def test_dump_report_rejects_nan():
    wrapped = wrap_report({"tool": {"name": "kcone", "version": "0"},
                           "scenario_digest": "0" * 64, "seed": 0,
                           "bad": float("nan")}, 0.0)
    with pytest.raises(ValueError):
        dump_report(wrapped)


def test_trajectory_csv_roundtrip(tmp_path, hopf_run):
    _, artifacts = hopf_run
    traj = artifacts[0]["trajectory"]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), 4)
    # 17 significant digits make the text round-trip exact
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)


def test_omega_csv_with_projector(tmp_path, hopf_run, std_cone):
    _, artifacts = hopf_run
    omega = artifacts[0]["omega"]
    proj = make_projector(std_cone)
    path = tmp_path / "omega.csv"
    write_omega_csv(path, omega, projector=proj)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,u1,u2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, :3], omega.points)
    assert np.array_equal(data[:, 3:], proj.coords(omega.points))


def test_loop_csv_to_stream(hopf_run, std_cone):
    _, artifacts = hopf_run
    loop = artifacts[0]["loop"]
    buf = io.StringIO()
    write_loop_csv(buf, loop, projector=make_projector(std_cone))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,x3,u1,u2"
    assert len(lines) == 1 + loop.states.shape[0]


def _per_row_csv(header, table) -> str:
    """A sidecar's text formatted one row at a time, as _write_csv wrote it
    before it formatted whole blocks."""
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line.format(*row.tolist()) for row in table)


CSV_SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300,
                         -1e-300, 1.0 / 3.0])


@pytest.mark.parametrize("cols", range(1, 7))
@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
def test_csv_blocks_write_the_per_row_bytes(rows, cols, tmp_path):
    rng = np.random.default_rng(7 * rows + cols)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 301, size=(rows, cols))
    special = rng.random((rows, cols)) < 0.2
    table[special] = rng.choice(CSV_SPECIALS, size=int(special.sum()))
    if rows:
        table[0] = CSV_SPECIALS[:cols]
    header = [f"c{i}" for i in range(cols)]
    want = _per_row_csv(header, table)
    buf = io.StringIO()
    _write_csv(buf, header, table)
    assert buf.getvalue() == want
    # A column-major table and a file target write the same bytes.
    path = tmp_path / "t.csv"
    _write_csv(path, header, np.asfortranarray(table))
    assert path.read_bytes() == want.encode("utf-8")


def test_margins_csv_sorted_and_capped(tmp_path, std_cone, monkeypatch):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(10, 3))
    path = tmp_path / "margins.csv"
    monkeypatch.setattr("kcone.report.MARGIN_POINTS", 5)
    write_margins_csv(path, pts, std_cone)
    lines = path.read_text().splitlines()
    assert lines[0] == "margin"
    vals = np.array([float(v) for v in lines[1:]])
    assert len(vals) == 10  # C(5, 2) pairs after the cap
    assert np.all(np.diff(vals) >= 0.0)
    lone = tmp_path / "lone.csv"
    write_margins_csv(lone, pts[:1], std_cone)
    assert lone.read_text() == "margin\n"


# Hand-made inputs whose projector coordinates and margins are exact in binary,
# so the expected text does not depend on the BLAS summation order.
_B = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 0.0]])
_PROJ = Projector(matrix=_B @ _B.T, basis=_B)
_TRAJ = SimpleNamespace(
    times=np.array([0.0, 0.1, 0.25]),
    states=np.array([[1.0, 0.0, -0.5], [1.0 / 3.0, 2.0, 1e-300], [-0.0, 1e20, 0.75]]),
)
_PTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
_OMEGA = SimpleNamespace(points=_PTS)
_LOOP = SimpleNamespace(times=np.array([0.0, 0.5, 1.25]), states=_PTS[1:])
_CONE = make_quadratic_cone(np.diag([-1.0, -1.0, 1.0]))


def _write_margins_of_three(out):
    with mock.patch("kcone.report.MARGIN_POINTS", 3):
        write_margins_csv(out, _PTS, _CONE)


GOLDEN_CSV = {
    "trajectory": (
        lambda out: write_trajectory_csv(out, _TRAJ),
        "t,x1,x2,x3\n0,1,0,-0.5\n"
        "0.10000000000000001,0.33333333333333331,2,1e-300\n0.25,-0,1e+20,0.75\n",
    ),
    "omega": (
        lambda out: write_omega_csv(out, _OMEGA),
        "x1,x2,x3\n0,0,0\n1,0,0\n0,0,2\n1,0,1\n",
    ),
    "omega_projector": (
        lambda out: write_omega_csv(out, _OMEGA, projector=_PROJ),
        "x1,x2,x3,u1,u2\n0,0,0,0,0\n1,0,0,0,-1\n0,0,2,0,0\n1,0,1,0,-1\n",
    ),
    "loop": (
        lambda out: write_loop_csv(out, _LOOP),
        "t,x1,x2,x3\n0,1,0,0\n0.5,0,0,2\n1.25,1,0,1\n",
    ),
    "loop_projector": (
        lambda out: write_loop_csv(out, _LOOP, projector=_PROJ),
        "t,x1,x2,x3,u1,u2\n0,1,0,0,0,-1\n0.5,0,0,2,0,0\n1.25,1,0,1,0,-1\n",
    ),
    "margins": (
        lambda out: write_margins_csv(out, _PTS, _CONE),
        "margin\n-1\n0\n0\n0.59999999999999998\n1\n1\n",
    ),
    "margins_single_point": (
        lambda out: write_margins_csv(out, _PTS[:1], _CONE),
        "margin\n",
    ),
    "margins_capped": (
        _write_margins_of_three,
        "margin\n-1\n0\n1\n",
    ),
}


@pytest.mark.parametrize("write, expected", GOLDEN_CSV.values(), ids=GOLDEN_CSV.keys())
def test_csv_sidecars_golden_bytes(tmp_path, write, expected):
    path = tmp_path / "out.csv"
    write(path)
    assert path.read_bytes() == expected.encode("utf-8")
    buf = io.StringIO()
    write(buf)
    assert not buf.closed
    assert buf.getvalue() == expected


def test_emit_plotdata_single_orbit(tmp_path, hopf_scn, hopf_run):
    _, artifacts = hopf_run
    written = emit_plotdata(tmp_path, hopf_scn, artifacts)
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "loop.csv",
        "margins.csv",
        "omega_points.csv",
        "trajectory.csv",
    ]
    for p in written:
        assert os.path.exists(p)


def test_emit_plotdata_indexed_suffixes(tmp_path, hopf_scn, hopf_run):
    _, artifacts = hopf_run
    doubled = [artifacts[0], artifacts[0]]
    written = emit_plotdata(tmp_path, hopf_scn, doubled)
    names = {os.path.basename(p) for p in written}
    assert "trajectory_0.csv" in names
    assert "trajectory_1.csv" in names
    assert "loop_1.csv" in names
    assert "trajectory.csv" not in names


def test_report_digest_matches_raw(hopf_scn, hopf_run):
    report, _ = hopf_run
    assert report["scenario_digest"] == scenario_digest(hopf_scn.raw)
    assert len(report["scenario_digest"]) == 64
