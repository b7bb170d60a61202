"""Deterministic run reports and plot-data CSV sidecars.

A report file holds two top-level objects: "report", which depends only on
the scenario content, seed, and tool version, and "meta", which carries the
timestamp and wall time. Byte-for-byte reproducibility of the "report"
object for a fixed scenario and seed is a contract; everything that varies
run to run stays in "meta". CSV numbers are written with 17 significant
digits so a round-trip through text is exact for doubles.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import json
import os
from typing import Any

import numpy as np

from ._version import __version__
from .certify import (
    certify_linear,
    certify_sampled,
    certify_smith,
    check_cyclic_feedback,
    lambda_grid_search,
)
from .cones import QuadraticCone, make_projector
from .errors import SchemaError
from .fields import default_equilibrium_seeds, find_equilibria
from .integrators import integrate
from .limitsets import (
    _distinct_pairs,
    _spread,
    chain_check,
    classify_orbit,
    detect_periodic,
    estimate_omega,
    projection_separation,
    trichotomy_report,
)
from .scenario import Scenario, scenario_digest

# Most tail points whose pair margins margins.csv holds, evenly spaced.
MARGIN_POINTS = 400

REPORT_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "kcone run report",
    "type": "object",
    "required": ["report", "meta"],
    "properties": {
        "report": {
            "type": "object",
            "required": ["tool", "scenario_digest", "seed"],
            "properties": {
                "tool": {
                    "type": "object",
                    "required": ["name", "version"],
                    "properties": {
                        "name": {"type": "string"},
                        "version": {"type": "string"},
                    },
                },
                "scenario_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                "seed": {"type": "integer"},
                "certificates": {"type": "array", "items": {"type": "object"}},
                "orbits": {"type": "array", "items": {"type": "object"}},
                "incomplete": {"type": "boolean"},
            },
        },
        "meta": {
            "type": "object",
            "required": ["timestamp"],
            "properties": {
                "timestamp": {"type": "string"},
                "wall_time_s": {"type": "number"},
            },
        },
    },
}


def _condition_dict(rep) -> dict:
    out = {
        "condition": rep.condition,
        "lambda": rep.lam,
        "n_samples": rep.n_samples,
        "worst_margin": rep.worst_margin,
        "verdict": rep.verdict,
        "tolerances": {"boundary_band": rep.boundary_band},
    }
    if rep.epsilon is not None:
        out["epsilon"] = rep.epsilon
    if rep.epsilon_star is not None:
        out["epsilon_star"] = rep.epsilon_star
    if rep.worst_pair is not None:
        out["worst_pair"] = [rep.worst_pair[0].tolist(), rep.worst_pair[1].tolist()]
    if rep.worst_point is not None:
        out["worst_point"] = rep.worst_point.tolist()
    if rep.feedback_type is not None:
        out["feedback_type"] = rep.feedback_type
    return out


def run_certify(scn: Scenario) -> dict:
    """The certificate report object: one certificates entry per check the
    scenario supports, and passing_lambdas. The sampled checks share one
    seeded sample: the uniform-gap check reads the pairwise report at
    lambda, an extra rate on the grid if there is one."""
    reports = []
    at_lam = None
    quadratic = isinstance(scn.cone, QuadraticCone)
    smith = quadratic and scn.lam is not None and scn.epsilon is not None
    if quadratic and scn.lambda_grid is not None:
        reports.extend(
            lambda_grid_search(
                scn.field, scn.cone, scn.lambda_grid + ((scn.lam,) if smith else ()),
                n_pairs=scn.pairs, seed=scn.seed,
            )
        )
        if smith:
            at_lam = reports.pop()
    elif quadratic and scn.lam is not None:
        at_lam = certify_sampled(
            scn.field, scn.cone, scn.lam, n_pairs=scn.pairs, seed=scn.seed
        )
        reports.append(at_lam)
    if quadratic and scn.lam is not None and scn.field.family == "linear":
        A = scn.field.jacobian(np.zeros(scn.field.dim))
        reports.append(certify_linear(A, scn.cone, scn.lam))
    if smith:
        reports.append(certify_smith(at_lam, scn.epsilon))
    if scn.field.components is not None and scn.field.deltas is not None:
        reports.append(
            check_cyclic_feedback(
                scn.field.components, scn.field.deltas, scn.field.domain, seed=scn.seed
            )
        )
    return _report_header(
        scn,
        certificates=[_condition_dict(r) for r in reports],
        passing_lambdas=[
            r.lam for r in reports if r.condition == "pairwise_lambda" and r.passed
        ],
    )


def _report_header(scn: Scenario, **sections) -> dict:
    """A report object: the tool, scenario digest and seed, then sections."""
    return {
        "tool": {"name": "kcone", "version": __version__},
        "scenario_digest": scenario_digest(scn.raw),
        "seed": scn.seed,
        **sections,
    }


def _orbit_tail(scn: Scenario, x0):
    """Integrate one orbit with the scenario's settings and estimate its
    omega-limit set from the tail. Returns (trajectory, omega estimate)."""
    a = scn.analysis
    traj = integrate(
        scn.field, x0, scn.T, rtol=scn.rtol, atol=scn.atol, max_step=scn.max_step
    )
    omega = estimate_omega(
        traj,
        window_fraction=a["window_fraction"],
        spacing=a["spacing"],
        tol_rel=a["tol_omega_rel"],
    )
    return traj, omega


def _seek_loop(scn: Scenario, x0, tail=None) -> tuple[Any, str | None]:
    """(loop, None), or (None, why) with why "not rank 2", "not converged"
    or "no loop". A loop is sought, at analysis tol_period, only for a
    rank-2 quadratic cone and a converged tail. tail is the orbit's
    (trajectory, omega estimate); without it the orbit from x0 is
    integrated here, after the cone test."""
    if not (isinstance(scn.cone, QuadraticCone) and scn.cone.rank_k == 2):
        return None, "not rank 2"
    traj, omega = tail or _orbit_tail(scn, x0)
    if not omega.converged:
        return None, "not converged"
    loop = detect_periodic(
        omega, traj, scn.cone, scn.field, tol_per=scn.analysis["tol_period"]
    )
    return loop, None if loop is not None else "no loop"


def _analyze_orbit(scn: Scenario, index: int, x0) -> tuple[dict, dict]:
    """Full per-orbit analysis. Returns (report section, artifacts)."""
    a = scn.analysis
    traj, omega = _orbit_tail(scn, x0)
    section: dict[str, Any] = {
        "index": index,
        "x0": np.asarray(x0, float).tolist(),
        "integration": {
            "T": scn.T,
            "rtol": scn.rtol,
            "atol": scn.atol,
            "max_step": None if np.isinf(scn.max_step) else scn.max_step,
            "n_steps": int(len(traj.times) - 1),
            "reached_t": traj.t_end,
            "events": [[t, kind] for (t, kind) in traj.events],
        },
    }
    cls = classify_orbit(traj, scn.cone)
    section["orbit_class"] = {
        "kind": cls.kind.value,
        "witness_times": list(cls.witness_times) if cls.witness_times else None,
        "witness_margin": cls.witness_margin,
        "n_states": cls.n_states,
    }

    section["omega"] = {
        "n_points": int(omega.points.shape[0]),
        "window": [omega.window[0], omega.window[1]],
        "spacing": omega.spacing,
        "hausdorff_gap": omega.hausdorff_gap,
        "converged": omega.converged,
        "tolerances": {"tol_omega": omega.tol},
    }
    seeds = default_equilibrium_seeds(scn.field.domain, extra=[x0])
    eq_result = find_equilibria(scn.field, seeds)
    eqs = eq_result.equilibria
    section["equilibria"] = {
        "count": len(eqs),
        "dropped_seeds": eq_result.dropped,
        "points": [e.point.tolist() for e in eqs],
        "residuals": [e.residual for e in eqs],
    }

    dist_eq = a["dist_eq_rel"] * scn.field.domain.diameter()
    tri = trichotomy_report(
        omega, [e.point for e in eqs], scn.cone, field=scn.field, dist_eq=dist_eq,
        rtol=scn.rtol, atol=scn.atol,
    )
    audit = tri.audit
    section["trichotomy"] = {
        "branch": tri.branch.value,
        "ordered_fraction": audit.ordered_fraction,
        "equilibria_hits": tri.equilibria_hits,
        "core_size": tri.core_size,
        "degenerate": audit.trivial,
        "flagged_not_converged": tri.flagged_not_converged,
        "backward_surrogate_used": tri.backward_surrogate_used,
        "tolerances": {"dist_eq": dist_eq},
    }
    section["ordering_audit"] = {
        "n_points": audit.n_points,
        "n_pairs": audit.n_pairs,
        "ordered_fraction": audit.ordered_fraction,
        "min_margin": audit.min_margin,
        "max_margin": audit.max_margin,
        "ordered": audit.ordered,
        "trivial": audit.trivial,
        "worst_unordered": list(audit.worst_unordered) if audit.worst_unordered else None,
    }

    loop, _ = _seek_loop(scn, x0, (traj, omega))
    section["periodic_orbit"] = section["chain_check"] = None
    if loop is not None:
        proj = make_projector(scn.cone)
        section["periodic_orbit"] = {
            "period": loop.period,
            "closure_gap": loop.closure_gap,
            "n_loop_points": int(loop.states.shape[0]),
            "separation_ratio": projection_separation(omega.points, proj),
            "tolerances": {"tol_period": a["tol_period"]},
        }
        eps = a["eps_chain"] if a["eps_chain"] is not None else 10.0 * max(
            loop.closure_gap, 1e-12
        )
        r = a["r_chain"] if a["r_chain"] is not None else 0.25 * loop.period
        horizon = a["t_max_chain"] if a["t_max_chain"] is not None else 1.5 * loop.period
        pick = _spread(loop.states.shape[0], int(a["chain_points"]))
        chain = chain_check(
            loop.states[pick], scn.field, eps=eps, r=r, t_max=horizon,
            rtol=scn.rtol, atol=scn.atol,
        )
        section["chain_check"] = {
            "n_points": len(chain),
            "n_success": sum(1 for c in chain if c.success),
            "all_recurrent": all(c.success for c in chain),
            "eps": eps,
            "r": r,
            "t_max": horizon,
        }

    section["incomplete"] = bool(traj.events) or not omega.converged
    return section, {"trajectory": traj, "omega": omega, "loop": loop}


def run_classify(scn: Scenario) -> tuple[dict, list[dict]]:
    """Analyze every initial condition in input order, one after another.

    Returns (report object, artifact list); orbit section i and artifact i
    belong to the scenario's i-th initial condition.
    """
    if not scn.x0s:
        raise SchemaError("classify needs an x0 in the scenario", "/x0")
    sections: list[dict] = []
    artifacts: list[dict] = []
    for i, x0 in enumerate(scn.x0s):
        section, art = _analyze_orbit(scn, i, x0)
        sections.append(section)
        artifacts.append(art)
    report = _report_header(
        scn, orbits=sections, incomplete=any(s["incomplete"] for s in sections)
    )
    return report, artifacts


def build_full_report(scn: Scenario) -> tuple[dict, list[dict]]:
    """Certificates plus per-orbit analyses in one report object: the
    run_certify object with the orbits and incomplete of run_classify."""
    report = run_certify(scn)
    classify, artifacts = (
        run_classify(scn) if scn.x0s else ({"orbits": [], "incomplete": False}, [])
    )
    report["orbits"] = classify["orbits"]
    report["incomplete"] = classify["incomplete"]
    return report, artifacts


def wrap_report(report: dict, wall_time_s: float) -> dict:
    return {
        "report": report,
        "meta": {
            "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "wall_time_s": float(wall_time_s),
        },
    }


def dump_report(wrapped: dict) -> str:
    return json.dumps(wrapped, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(path, report: dict, wall_time_s: float) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_report(wrap_report(report, wall_time_s)))


# ---- CSV sidecars ----


def _open_out(target):
    """Context manager over a path, or over an already-open text stream that
    it leaves open."""
    if hasattr(target, "write"):
        return contextlib.nullcontext(target)
    return open(target, "w", encoding="utf-8", newline="\n")


def _write_csv(target, header: list[str], table: np.ndarray) -> None:
    """Write a header line, then one line per row of the 2-D table, one
    cell per header name, each printed with 17 significant digits."""
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    with _open_out(target) as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(line.format(*row.tolist()))


def _state_table(points, projector=None, times=None) -> tuple[list[str], np.ndarray]:
    """Header and columns for state rows: t when times are given, x1..xn,
    then u1..uk when a projector is given."""
    header = [f"x{i + 1}" for i in range(points.shape[1])]
    cols = [points]
    if times is not None:
        header = ["t"] + header
        cols = [times] + cols
    if projector is not None:
        U = projector.coords(points)
        header += [f"u{i + 1}" for i in range(U.shape[1])]
        cols.append(U)
    return header, np.column_stack(cols)


def write_trajectory_csv(path, traj) -> None:
    _write_csv(path, *_state_table(traj.states, times=traj.times))


def write_omega_csv(path, omega, projector=None) -> None:
    _write_csv(path, *_state_table(omega.points, projector))


def write_loop_csv(path, loop, projector=None) -> None:
    _write_csv(path, *_state_table(loop.states, projector, loop.times))


def write_margins_csv(path, points, cone) -> None:
    """Sorted margins of the distinct pairs of at most MARGIN_POINTS (400)
    evenly spaced points, one per line. The pair differences stream in
    blocks, so their memory is bounded by the block size; the margins
    themselves are held to be sorted."""
    P = np.atleast_2d(np.asarray(points, float))
    P = P[_spread(P.shape[0], MARGIN_POINTS)]
    blocks = [cone.margin_many(D) for _, _, D, _ in _distinct_pairs(P)]
    margins = np.sort(np.concatenate([np.empty(0), *blocks]))
    _write_csv(path, ["margin"], margins[:, None])


def emit_plotdata(outdir, scn: Scenario, artifacts: list[dict]) -> list[str]:
    """Write omega_points.csv, loop.csv, margins.csv, trajectory_*.csv."""
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    proj = None
    if isinstance(scn.cone, QuadraticCone):
        proj = make_projector(scn.cone)
    for i, art in enumerate(artifacts):
        suffix = "" if len(artifacts) == 1 else f"_{i}"
        traj_path = os.path.join(outdir, f"trajectory{suffix}.csv")
        write_trajectory_csv(traj_path, art["trajectory"])
        written.append(traj_path)
        omega_path = os.path.join(outdir, f"omega_points{suffix}.csv")
        write_omega_csv(omega_path, art["omega"], projector=proj)
        written.append(omega_path)
        margins_path = os.path.join(outdir, f"margins{suffix}.csv")
        write_margins_csv(margins_path, art["omega"].points, scn.cone)
        written.append(margins_path)
        loop = art["loop"]
        if loop is not None:
            loop_path = os.path.join(outdir, f"loop{suffix}.csv")
            write_loop_csv(loop_path, loop, projector=proj)
            written.append(loop_path)
    return written
