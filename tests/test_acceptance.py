"""Acceptance gates.

Eleven end-to-end checks, each printing one [PASS]/[FAIL] line on the real
stdout (so the verdict survives pytest capture). Tolerances are pinned next
to each assertion; oracle values are closed forms or dense-grid bounds
computed independently of the code under test.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import kcone
from kcone.scenario import canonical_json

P_STD = np.diag([-1.0, -1.0, 1.0])
BOX2 = kcone.Box(lo=[-2.0, -2.0, -2.0], hi=[2.0, 2.0, 2.0])


def _gate(capfd, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] gate {num:2d} {label}: {detail}\n"
    with capfd.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line.strip()


def test_gate_01_linear_certificate_exact(capfd, std_cone):
    lin = kcone.certify_linear(-P_STD, std_cone, 0.0)
    field = dataclasses.replace(kcone.make_linear_field(-P_STD), domain=BOX2)
    samp = kcone.certify_sampled(field, std_cone, 0.0, n_pairs=10_000, seed=0)
    ok = (
        abs(lin.worst_margin - (-2.0)) <= 1e-12
        and lin.passed
        and samp.passed
        and abs(samp.worst_margin - (-1.0)) <= 1e-10
    )
    _gate(capfd, 1, "exact linear certificate", ok,
          f"eig worst {lin.worst_margin:.3e} (want -2 +-1e-12), "
          f"sampled worst {samp.worst_margin:.15f} (want -1 +-1e-10)")


def test_gate_02_decay_law_on_certified_systems(capfd, std_cone, hopf_field):
    lin_field = kcone.make_linear_field(-P_STD)
    assert kcone.certify_sampled(dataclasses.replace(lin_field, domain=BOX2), std_cone, 0.0,
                                 n_pairs=2000, seed=1).passed
    assert kcone.certify_sampled(hopf_field, std_cone, 3.5,
                                 n_pairs=2000, seed=1).passed

    rng = np.random.default_rng(0)
    n_pass = 0
    n_ordered = 0
    for lam, field, X, Y in (
        (0.0, lin_field,
         rng.uniform(-2.0, 2.0, (20, 3)), rng.uniform(-2.0, 2.0, (20, 3))),
        (3.5, hopf_field,
         hopf_field.domain.sample(rng, 20), hopf_field.domain.sample(rng, 20)),
    ):
        for x, y in zip(X, Y):
            audit = kcone.decay_audit(field, std_cone, lam, x, y, 5.0)
            # slack 1e-8 per step plus strict overall decrease
            assert audit.passed and audit.monotone_ok
            if audit.started_ordered:
                n_ordered += 1
                assert audit.interior_after_start is True
            n_pass += 1

    classes_lin = kcone.ordered_pair_transport(
        lin_field, std_cone, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0], 5.0)
    classes_hopf = kcone.ordered_pair_transport(
        hopf_field, std_cone, [0.3, 0.0, 0.2], [0.1, 0.1, 0.1], 5.0)
    strong = all(
        c is kcone.OrderClass.STRONGLY_ORDERED
        for c in classes_lin + classes_hopf
    )
    ok = n_pass == 40 and strong
    _gate(capfd, 2, "exponential decay of the pair form", ok,
          f"{n_pass}/40 audits pass ({n_ordered} started ordered), "
          f"{len(classes_lin) + len(classes_hopf)} transported nodes all "
          f"strongly ordered: {strong}")


def test_gate_03_cylinder_field_certificate(capfd, std_cone, hopf_field):
    # dense 200x200 oracle: symmetric planar Jacobian of the rotation field
    # is [[1-3x^2-y^2, -2xy], [-2xy, 1-x^2-3y^2]] by hand differentiation
    xs = np.linspace(-1.2, 1.2, 200)
    X, Y = np.meshgrid(xs, xs)
    mask = X**2 + Y**2 <= 1.2**2
    x, y = X[mask], Y[mask]
    M = np.empty((x.size, 2, 2))
    M[:, 0, 0] = 1.0 - 3.0 * x**2 - y**2
    M[:, 1, 1] = 1.0 - x**2 - 3.0 * y**2
    M[:, 0, 1] = M[:, 1, 0] = -2.0 * x * y
    min_eig = float(np.linalg.eigvalsh(M).min())

    rep = kcone.certify_sampled(hopf_field, std_cone, 3.5,
                                n_pairs=100_000, seed=0)
    ok = (
        abs(min_eig - (-3.318363677684907)) <= 1e-9
        and min_eig > -3.5
        and rep.passed
        and rep.worst_margin < 0.0
        and abs(rep.worst_margin - (-0.5000545994518579)) <= 1e-12
    )
    _gate(capfd, 3, "rotation-cylinder certificate at rate 3.5", ok,
          f"grid bound {min_eig:.12f} > -3.5, "
          f"sampled worst {rep.worst_margin:.12f} < 0 over {rep.n_samples} pairs")


def test_gate_04_cycle_orbit_analytics(capfd, std_cone, hopf_field, hopf_traj,
                                       hopf_omega, hopf_loop):
    kind = kcone.classify_orbit(hopf_traj, std_cone).kind
    eqs = kcone.find_equilibria(
        hopf_field, kcone.default_equilibrium_seeds(hopf_field.domain))
    eq_pts = np.array([e.point for e in eqs.equilibria])
    dists = np.linalg.norm(
        hopf_omega.points[:, None, :] - eq_pts[None, :, :], axis=2)
    min_dist = float(dists.min())
    audit = kcone.audit_ordering(hopf_omega.points, std_cone)
    p1 = hopf_loop.period

    field2 = kcone.make_hopf_cylinder(omega=2.0, c=4.0)
    traj2 = kcone.integrate(field2, [0.1, 0.0, 0.5], 100.0,
                            rtol=1e-10, atol=1e-12)
    omega2 = kcone.estimate_omega(traj2)
    loop2 = kcone.detect_periodic(omega2, traj2, std_cone, field2)
    assert loop2 is not None
    p2 = loop2.period

    ok = (
        kind is kcone.OrbitClass.PSEUDO_ORDERED
        and hopf_omega.converged
        and len(eqs.equilibria) == 1
        and min_dist > 0.9  # sole equilibrium sits ~1 away from the cycle
        and audit.ordered
        and audit.max_margin is not None
        and audit.max_margin <= -0.9
        and 6.2518 <= p1 <= 6.3146  # 2*pi within 0.5%
        and abs(p1 - 2.0 * np.pi) <= 1e-6
        and 3.1259 <= p2 <= 3.1573  # pi within 0.5%
        and abs(p2 - np.pi) <= 1e-6
    )
    _gate(capfd, 4, "attracting cycle: class, gap to equilibria, period", ok,
          f"kind {kind.value}, equilibrium distance {min_dist:.6f}, "
          f"worst ordered margin {audit.max_margin:.6f} <= -0.9, "
          f"periods {p1:.12f} / {p2:.12f}")


def test_gate_05_equilibrium_orbit_analytics(capfd, std_cone, sink_traj):
    kind = kcone.classify_orbit(sink_traj, std_cone).kind
    omega = kcone.estimate_omega(sink_traj)
    max_norm = float(np.linalg.norm(omega.points, axis=1).max())
    # axis differences keep the full positive form value
    tail = sink_traj.states[:20]
    iu, ju = np.triu_indices(len(tail), k=1)
    margins = std_cone.margin_many(tail[iu] - tail[ju])
    ok = (
        kind is kcone.OrbitClass.UNORDERED
        and omega.converged
        and max_norm <= 1e-6
        and float(margins.min()) > 0.999
    )
    _gate(capfd, 5, "contracting orbit: unordered class, point limit set", ok,
          f"kind {kind.value}, limit set within {max_norm:.3e} of 0 "
          f"(want <= 1e-6), pair margins >= {margins.min():.6f}")


def test_gate_06_chain_recurrence_on_cycle(capfd, hopf_field, hopf_loop):
    idx = np.linspace(0, hopf_loop.states.shape[0] - 1, 32).astype(int)
    pts = hopf_loop.states[idx]
    results = kcone.chain_check(pts, hopf_field, eps=1e-2, r=0.5, t_max=8.0)
    n_ok = sum(r.success for r in results)
    one_hop = all(len(r.hops) == 1 for r in results)
    durations = np.array([r.hops[0][0] for r in results if r.hops])
    near_period = bool(np.all(np.abs(durations - 2.0 * np.pi) < 0.05))
    ok = n_ok == 32 and one_hop and near_period
    _gate(capfd, 6, "every cycle point chain-recurrent", ok,
          f"{n_ok}/32 points return within 1e-2 in one hop, "
          f"hop times {durations.min():.4f}..{durations.max():.4f}")


def test_gate_07_projector_and_separation(capfd, std_cone, hopf_omega):
    proj = kcone.make_projector(std_cone)
    theta_err = float(np.abs(proj.matrix - np.diag([1.0, 1.0, 0.0])).max())
    sep = kcone.projection_separation(hopf_omega.points, proj)
    ok = theta_err <= 1e-12 and sep >= 0.99
    _gate(capfd, 7, "rank-2 projector and injectivity on the cycle", ok,
          f"projector error {theta_err:.2e} (want <= 1e-12), "
          f"separation ratio {sep:.6f} (want >= 0.99)")


def test_gate_08_integrator_quality(capfd):
    decay = kcone.integrate(kcone.make_linear_field([[-1.0]]), [1.0], 1.0,
                            rtol=1e-10, atol=1e-12)
    err_exp = abs(float(decay.final_state[0]) - float(np.exp(-1.0)))

    rot = kcone.make_linear_field([[0.0, 1.0], [-1.0, 0.0]])
    loop = kcone.integrate(rot, [1.0, 0.0], 2.0 * np.pi,
                           rtol=1e-10, atol=1e-12)
    err_ret = float(np.linalg.norm(loop.final_state - [1.0, 0.0]))
    energy = np.sum(loop.states**2, axis=1)
    err_en = float(np.abs(energy - 1.0).max())

    ok = err_exp <= 1e-8 and err_ret <= 1e-7 and err_en <= 1e-7
    _gate(capfd, 8, "integrator accuracy on closed forms", ok,
          f"exp endpoint {err_exp:.2e} <= 1e-8, return {err_ret:.2e} <= 1e-7, "
          f"energy drift {err_en:.2e} <= 1e-7")


def test_gate_09_expression_parser(capfd):
    golden = [
        ("2+3*4^2", {"x1": 0.0}, 50.0),
        ("2^3^2", {"x1": 0.0}, 512.0),
        ("-x1^2", {"x1": 3.0}, -9.0),
        ("(-x1)^2", {"x1": 3.0}, 9.0),
        ("2^-1", {"x1": 0.0}, 0.5),
        ("1 - 2 - 3", {"x1": 0.0}, -4.0),
        ("12/4/3", {"x1": 0.0}, 1.0),
        ("12/(4/3)", {"x1": 0.0}, 9.0),
        ("- -x1", {"x1": 2.5}, 2.5),
        ("+x1", {"x1": -1.5}, -1.5),
        ("2*-3", {"x1": 0.0}, -6.0),
        ("(1 + 2) * (3 + 4)", {"x1": 0.0}, 21.0),
        ("x1 + x2*x2", {"x1": 1.0, "x2": 3.0}, 10.0),
        ("sin(0)", {"x1": 0.0}, 0.0),
        ("cos(0)", {"x1": 0.0}, 1.0),
        ("exp(1)", {"x1": 0.0}, float(np.e)),
        ("tanh(0)", {"x1": 0.0}, 0.0),
        ("abs(0 - 3.5)", {"x1": 0.0}, 3.5),
        ("min(x1, 2)", {"x1": 5.0}, 2.0),
        ("max(x1, 2)", {"x1": 5.0}, 5.0),
        ("hill(1, 1, 4)", {"x1": 0.0}, 0.5),
        ("hill(0, 1, 4)", {"x1": 0.0}, 1.0),
        ("pwl(0.5, 0, 1)", {"x1": 0.0}, 0.5),
        ("pwl(2, 0, 1)", {"x1": 0.0}, 1.0),
        ("1e-2 + 2.5E3", {"x1": 0.0}, 2500.01),
    ]
    n_val = 0
    for text, env, want in golden:
        names = sorted(env.keys())
        fn = kcone.parse_expression(text, variables=names)
        got = float(fn([env[k] for k in names]))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), text
        n_val += 1

    bad = [("2 +", 3), ("(x1", 3), ("sin(x1, 2)", 0), ("x1 + qq", 5),
           ("x1 $ 2", 3)]
    n_err = 0
    for text, pos in bad:
        with pytest.raises(kcone.ExpressionSyntaxError) as exc:
            kcone.parse_expression(text, variables=["x1"])
        assert exc.value.position == pos, text
        n_err += 1
    ok = n_val == 25 and n_err == 5
    _gate(capfd, 9, "expression grammar", ok,
          f"{n_val}/25 golden values, {n_err}/5 error positions exact")


def test_gate_10_feedback_ring_signs(capfd):
    field = kcone.make_cyclic_feedback(3)
    rep = kcone.check_cyclic_feedback(
        field.components, field.deltas, field.domain, seed=0)
    ok = (
        rep.passed
        and rep.feedback_type == "negative"
        and tuple(field.deltas) == (-1, 1, 1)
        and rep.worst_margin < 0.0
    )
    _gate(capfd, 10, "declared feedback signs hold on samples", ok,
          f"negative loop, worst sign margin {rep.worst_margin:.3e} < 0 "
          f"at 1000 points")


def test_gate_11_classification_determinism(capfd):
    obj = {
        "field": {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
        "cone": {"type": "quadratic", "P": P_STD.tolist()},
        "x0": [0.1, 0.0, 0.5],
        "T": 100.0,
        "rtol": 1e-10,
        "atol": 1e-12,
        "seed": 7,
    }
    scn = kcone.parse_scenario(obj)
    first, _ = kcone.run_classify(scn)
    second, _ = kcone.run_classify(scn)
    a, b = canonical_json(first), canonical_json(second)
    wrapped = kcone.wrap_report(first, wall_time_s=0.0)
    meta_only = set(wrapped.keys()) == {"report", "meta"}
    ok = a == b and meta_only and json.loads(a)["seed"] == 7
    _gate(capfd, 11, "byte-identical reruns outside the timestamp", ok,
          f"{len(a)} canonical bytes equal on rerun: {a == b}")
