"""Correctness oracles for one `kcone report` output directory.

A report passes when kcone exited 0, wrote `report.json` and the expected
CSV sidecars, and every check its case names holds. The checks compare
against closed forms or against data the report itself carries, so they
hold for every seed the generator can draw:

* hopf_orbits: every orbit has period 2 pi within 1e-6, a chain check that
  found every loop point recurrent, and the trichotomy branch "ordered".
* sink_lmi: the exact linear_lmi check at lambda = 0 has worst margin -2
  within 1e-12 (the eigenvalues of P A + A^T P are all -2).
* lv_equilibrium: every orbit's equilibrium list contains A^-1 r.
* hopf_grid: the sampled pairwise check at lambda = 3.5 passes.
* tail_size: the ordering audit covers the full dense tail, whose size is
  recomputed here from the times in trajectory.csv.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from workloads import LV_EQUILIBRIUM, Case

PERIOD_TOL = 1e-6
LMI_TOL = 1e-12
EQUILIBRIUM_TOL = 1e-8


def report_digest(report: dict) -> str:
    """SHA-256 of the canonical JSON of a report's `report` object."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _suffix(case: Case, i: int) -> str:
    return "" if case.n_orbits == 1 else f"_{i}"


def _check_hopf_orbits(report: dict, case: Case, outdir: str) -> list[str]:
    errs = []
    for sec in report["orbits"]:
        i = sec["index"]
        loop = sec["periodic_orbit"]
        if loop is None:
            errs.append(f"orbit {i}: no periodic orbit")
        elif not abs(loop["period"] - 2.0 * math.pi) <= PERIOD_TOL:
            errs.append(f"orbit {i}: period {loop['period']!r} is not 2 pi")
        chain = sec["chain_check"]
        if chain is None or not chain["all_recurrent"]:
            errs.append(f"orbit {i}: chain check not all recurrent")
        if sec["trichotomy"]["branch"] != "ordered":
            errs.append(f"orbit {i}: branch {sec['trichotomy']['branch']!r}")
    return errs


def _check_sink_lmi(report: dict, case: Case, outdir: str) -> list[str]:
    lmi = [c for c in report["certificates"]
           if c["condition"] == "linear_lmi" and c["lambda"] == 0.0]
    if len(lmi) != 1:
        return ["no linear_lmi check at lambda 0"]
    if not abs(lmi[0]["worst_margin"] + 2.0) <= LMI_TOL:
        return [f"linear_lmi worst margin {lmi[0]['worst_margin']!r} is not -2"]
    return []


def _check_lv_equilibrium(report: dict, case: Case, outdir: str) -> list[str]:
    target = np.asarray(LV_EQUILIBRIUM)
    errs = []
    for sec in report["orbits"]:
        pts = np.asarray(sec["equilibria"]["points"], float).reshape(-1, 3)
        if not np.any(np.linalg.norm(pts - target, axis=1) <= EQUILIBRIUM_TOL):
            errs.append(f"orbit {sec['index']}: interior equilibrium A^-1 r not found")
    return errs


def _check_hopf_grid(report: dict, case: Case, outdir: str) -> list[str]:
    hits = [c for c in report["certificates"]
            if c["condition"] == "pairwise_lambda" and c["lambda"] == 3.5]
    if len(hits) != 1 or hits[0]["verdict"] != "pass":
        return ["pairwise check at lambda 3.5 does not pass"]
    return []


def expected_tail_size(times: np.ndarray, window_fraction: float, spacing: float) -> int:
    """Distinct stored nodes nearest to the tail's uniform time grid."""
    t_end = times[-1]
    window = window_fraction * (t_end - times[0])
    grid = (t_end - window) + spacing * np.arange(int(np.floor(window / spacing)) + 1)
    right = np.clip(np.searchsorted(times, grid), 0, len(times) - 1)
    left = np.clip(right - 1, 0, len(times) - 1)
    nearest = np.where(np.abs(times[left] - grid) < np.abs(times[right] - grid), left, right)
    return int(len(np.unique(nearest)))


def _check_tail_size(report: dict, case: Case, outdir: str) -> list[str]:
    analysis = case.scenario.get("analysis", {})
    errs = []
    for sec in report["orbits"]:
        path = os.path.join(outdir, f"trajectory{_suffix(case, sec['index'])}.csv")
        with open(path, newline="") as fh:
            times = np.array([float(row[0]) for row in list(csv.reader(fh))[1:]])
        want = expected_tail_size(times, analysis.get("window_fraction", 0.5),
                                  analysis.get("spacing", 0.1))
        got = sec["ordering_audit"]["n_points"]
        if got != want:
            errs.append(f"orbit {sec['index']}: audit covers {got} points, tail has {want}")
    return errs


CHECKS = {
    "hopf_orbits": _check_hopf_orbits,
    "sink_lmi": _check_sink_lmi,
    "lv_equilibrium": _check_lv_equilibrium,
    "hopf_grid": _check_hopf_grid,
    "tail_size": _check_tail_size,
}


def expected_files(case: Case, report: dict) -> list[str]:
    names = ["report.json"]
    for sec in report.get("orbits", []):
        s = _suffix(case, sec["index"])
        names += [f"trajectory{s}.csv", f"omega_points{s}.csv", f"margins{s}.csv"]
        if sec.get("periodic_orbit") is not None:
            names.append(f"loop{s}.csv")
    return names


def check_report(case: Case, outdir: str, exit_code: int) -> tuple[list[str], str | None]:
    """(failures, digest) for one report; no failures means it passed."""
    errs = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)["report"]
    except (OSError, ValueError, KeyError) as exc:
        return errs + [f"report.json unreadable: {exc}"], None
    digest = report_digest(report)
    if len(report.get("orbits", [])) != case.n_orbits:
        return errs + [f"{len(report.get('orbits', []))} orbit sections, "
                       f"expected {case.n_orbits}"], digest
    missing = [n for n in expected_files(case, report)
               if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        return errs + [f"missing {', '.join(missing)}"], digest
    for name in case.checks:
        try:
            errs += CHECKS[name](report, case, outdir)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            errs.append(f"{name}: malformed report ({type(exc).__name__}: {exc})")
    return errs, digest
