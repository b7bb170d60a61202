"""Outside-in span tracing of the kcone pipeline, and the per-layer metrics.

The tracer replaces public functions in the module namespaces where their
callers look them up (kcone.cli, kcone.report, kcone.limitsets,
kcone.certify, kcone.cones) with wrappers that record one span per call:
name, parent span, start and end. Right-hand-side calls are too many for a
span each; the scenario's VectorField gets a counting rhs (installed with
dataclasses.replace when the CLI parses the scenario) that adds its calls,
rows and time to the innermost open span. Spans stay in memory; a span's
self time is its duration minus the durations of its children, found from
the parent links. Nothing in the package changes, and uninstalling restores
every original attribute.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Pair scans: each materializes the difference array of all m(m-1)/2 pairs.
PAIR_SCANS = ("classify_orbit", "audit_ordering", "ordered_pair_matrix",
              "projection_separation", "write_margins_csv")
EMITTERS = ("write_report", "emit_plotdata", "write_trajectory_csv",
            "write_omega_csv", "write_loop_csv")
INTEGRATORS = ("integrate", "integrate_backward")


@dataclass
class Span:
    name: str
    site: str
    parent: int | None
    start: float
    end: float = 0.0
    rhs_calls: int = 0
    rhs_rows: int = 0
    rhs_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def pair_info(m: int, n: int) -> dict:
    """Pairs scanned and bytes of the float64 (pairs, n) difference array."""
    pairs = m * (m - 1) // 2 if m >= 2 else 0
    return {"pairs": pairs, "pair_bytes": pairs * n * 8}


def _points(points):
    # audit_ordering also accepts an OmegaEstimate.
    return getattr(points, "points", points)


def _dim(points) -> int:
    return int(np.shape(_points(points))[-1])


# What a wrapper records from a call's arguments and result. The argument
# positions follow the public signatures in the kcone modules.
def _obs_trajectory(args, kwargs, out):
    return {"steps": len(out.times) - 1}


def _obs_equilibria(args, kwargs, out):
    seeds = len(args[1]) if len(args) > 1 else len(kwargs["seeds"])
    return {"seeds": seeds, "converged": seeds - out.dropped}


def _obs_omega(args, kwargs, out):
    return {"tail_points": int(out.points.shape[0])}


def _obs_classify(args, kwargs, out):
    m = 0 if out.kind.value == "trivial" else out.n_states
    return pair_info(m, args[0].states.shape[1])


def _obs_audit(args, kwargs, out):
    return pair_info(out.n_points, _dim(args[0]))


def _obs_points(args, kwargs, out):
    pts = _points(args[0])
    return pair_info(len(pts), _dim(pts))


def _obs_margins_csv(args, kwargs, out):
    pts = args[1]
    cap = args[3] if len(args) > 3 else kwargs.get("cap", 400)
    return pair_info(min(cap, len(pts)), _dim(pts))


def _obs_periodic(args, kwargs, out):
    return {"found": out is not None}


def _obs_chain(args, kwargs, out):
    return {"points": len(out), "success": sum(1 for c in out if c.success)}


def _obs_sampled(args, kwargs, out):
    return {"pairs_evaluated": out.n_samples}


OBSERVERS: dict[str, Callable] = {
    "integrate": _obs_trajectory,
    "integrate_backward": _obs_trajectory,
    "find_equilibria": _obs_equilibria,
    "estimate_omega": _obs_omega,
    "classify_orbit": _obs_classify,
    "audit_ordering": _obs_audit,
    "ordered_pair_matrix": _obs_points,
    "projection_separation": _obs_points,
    "write_margins_csv": _obs_margins_csv,
    "detect_periodic": _obs_periodic,
    "chain_check": _obs_chain,
    "certify_sampled": _obs_sampled,
}

# Module namespace -> public names looked up there by the pipeline.
WRAPPED: dict[str, tuple[str, ...]] = {
    "kcone.cli": ("parse_scenario", "build_full_report", "write_report", "emit_plotdata"),
    "kcone.report": (
        "run_certify", "run_classify", "integrate", "classify_orbit", "estimate_omega",
        "find_equilibria", "trichotomy_report", "detect_periodic",
        "projection_separation", "chain_check", "make_projector", "certify_sampled",
        "certify_linear", "certify_smith", "check_cyclic_feedback", "lambda_grid_search",
        "write_trajectory_csv", "write_omega_csv", "write_margins_csv", "write_loop_csv",
    ),
    "kcone.limitsets": ("integrate", "integrate_backward", "audit_ordering",
                        "ordered_pair_matrix", "make_projector"),
    "kcone.certify": ("certify_sampled", "sym_eig", "integrate"),
    "kcone.cones": ("sym_eig",),
}


class Tracer:
    """Span recorder; use as a context manager to install and remove wrappers."""

    def __init__(self, wrapped: dict[str, tuple[str, ...]] = WRAPPED):
        self.wrapped = wrapped
        self.spans: list[Span] = []
        self.outside = Span("(outside spans)", "", None, 0.0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.outside = Span("(outside spans)", "", None, 0.0)

    def wrap(self, name: str, site: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, site, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.info.update(observe(args, kwargs, out))
            if name == "parse_scenario":
                out.field = dataclasses.replace(
                    out.field, rhs=self.counting_rhs(out.field.rhs, out.field.dim))
            return out

        return traced

    def counting_rhs(self, rhs: Callable, dim: int) -> Callable:
        def counted(x):
            t0 = time.perf_counter()
            out = rhs(x)
            dt = time.perf_counter() - t0
            span = self.spans[self._stack[-1]] if self._stack else self.outside
            span.rhs_calls += 1
            span.rhs_rows += x.size // dim
            span.rhs_s += dt
            return out

        return counted

    def __enter__(self) -> "Tracer":
        for modname, names in self.wrapped.items():
            module = importlib.import_module(modname)
            site = modname.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self.wrap(name, site, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], outside: Span | None = None) -> dict[str, float]:
    """Per-layer work, time and ratios from one traced pass's spans.

    Times are self times (children excluded), except certify.s, which is the
    inclusive time of run_certify, and rhs time, which is charged
    to fields.rhs_s and subtracted from integrators.self_s.
    """
    selfs = self_times(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for n in names for i in by.get(n, [])]

    def total_self(*names):
        return sum(selfs[i] for i in idx(*names))

    def info_sum(key, *names):
        return sum(spans[i].info.get(key, 0) for i in idx(*names))

    integ = idx(*INTEGRATORS)
    steps = info_sum("steps", *INTEGRATORS)
    integ_time = sum(selfs[i] for i in integ)
    integ_rhs_s = sum(spans[i].rhs_s for i in integ)
    every = spans + ([outside] if outside is not None else [])
    rhs_calls = sum(s.rhs_calls for s in every)
    rhs_rows = sum(s.rhs_rows for s in every)

    # Certificate subtree: rhs rows and distinct sampled pairs per run_certify call.
    cert_root: list[int | None] = []
    for i, s in enumerate(spans):
        if s.name == "run_certify":
            cert_root.append(i)
        else:
            cert_root.append(cert_root[s.parent] if s.parent is not None else None)
    cert_rows = sum(s.rhs_rows for s, r in zip(spans, cert_root) if r is not None)
    distinct: dict[int, int] = {}
    for s, r in zip(spans, cert_root):
        if r is not None and s.name == "certify_sampled":
            distinct[r] = max(distinct.get(r, 0), s.info.get("pairs_evaluated", 0))
    certify_s = sum(spans[i].duration for i in idx("run_certify"))
    pairs_evaluated = info_sum("pairs_evaluated", "certify_sampled")
    seeds = info_sum("seeds", "find_equilibria")
    chain_points = info_sum("points", "chain_check")

    return {
        "integrators.calls": len(integ),
        "integrators.accepted_steps": steps,
        "integrators.self_s": integ_time - integ_rhs_s,
        "integrators.rhs_per_step": _ratio(sum(spans[i].rhs_calls for i in integ), steps),
        "integrators.us_per_step": 1e6 * _ratio(integ_time, steps),
        "fields.rhs_calls": rhs_calls,
        "fields.rhs_rows": rhs_rows,
        "fields.rhs_s": sum(s.rhs_s for s in every),
        "fields.rhs_rows_per_call": _ratio(rhs_rows, rhs_calls),
        "fields.newton_s": total_self("find_equilibria"),
        "fields.newton_converged_ratio": _ratio(info_sum("converged", "find_equilibria"), seeds),
        "limitsets.omega_s": total_self("estimate_omega"),
        "limitsets.omega_tail_points": info_sum("tail_points", "estimate_omega"),
        "limitsets.pair_scan_s": total_self(*PAIR_SCANS),
        "limitsets.pairs_scanned": info_sum("pairs", *PAIR_SCANS),
        "limitsets.pair_bytes_peak": max(
            [spans[i].info.get("pair_bytes", 0) for i in idx(*PAIR_SCANS)], default=0),
        "limitsets.trichotomy_self_s": total_self("trichotomy_report"),
        "limitsets.backward_integrations": len(idx("integrate_backward")),
        "limitsets.periodic_s": total_self("detect_periodic"),
        "limitsets.loops_found_ratio": _ratio(info_sum("found", "detect_periodic"),
                                              len(idx("detect_periodic"))),
        "limitsets.chain_s": total_self("chain_check"),
        "limitsets.chain_integrations": sum(
            1 for i in integ
            if spans[i].parent is not None and spans[spans[i].parent].name == "chain_check"),
        "limitsets.chain_success_ratio": _ratio(info_sum("success", "chain_check"), chain_points),
        "certify.s": certify_s,
        "certify.pairs_evaluated": pairs_evaluated,
        "certify.pairs_per_s": _ratio(pairs_evaluated, certify_s),
        "certify.rhs_rows_per_pair": _ratio(cert_rows, sum(distinct.values())),
        "linalg.sym_eig_calls": len(idx("sym_eig")),
        "linalg.sym_eig_s": total_self("sym_eig"),
        "report.emit_s": total_self(*EMITTERS),
        "scenario.load_s": sum(spans[i].duration for i in idx("parse_scenario")),
    }
