"""Adaptive explicit integration with an embedded Dormand-Prince 5(4) pair.

Characteristics
    * Error control per step: the embedded 4th-order estimate must satisfy
      ||err|| <= atol + rtol ||y_new||; otherwise the step is rejected.
    * A step with any non-finite stage or error estimate is rejected and
      re-tried at half length; all six stages are evaluated before the test.
    * Step update factor 0.9 (tol/err)^(1/5), clamped to [0.2, 5], on both
      rejected and accepted steps.
    * First-same-as-last: the 7th stage is evaluated at y_new itself, the
      5th-order solution computed once per attempted step, and an accepted
      step's 7th stage seeds the next.
    * Stops with a recorded event when the state leaves the field's domain;
      the exit time is localized by bisection on the step interpolant.
    * Fields that expose a region signature (piecewise-linear ramps) get
      their kink crossings localized. A step with finite stages whose end
      changes the signature is, ahead of the error test, re-tried up to the
      crossing: bisection on the step's Hermite interpolant (no rhs calls)
      brackets the crossing to below KINK_FLOOR in time, and the retry
      ends at the bracket's low end, or is KINK_FLOOR long if that is
      shorter. A crossing is accepted only by a step of at most KINK_FLOOR
      that passes the error test, so the step after a crossing is at most
      MAX_FACTOR * KINK_FLOOR.
    * Raises StepUnderflow when a rejected step's retry falls below 1e-12 T
      (the only place the floor is tested), NonFiniteState on nan/inf at an
      accepted node, and NodeBudgetExceeded past MAX_NODES stored nodes.

Both loops decide each attempted step through one per-run routine
(_Run.settle), which holds every rule above. integrate evaluates one run's
stages; integrate_many batches only the evaluations, the rhs stages of its
running rows and the domain test of their ends, and then settles the rows
one by one in row order, so when several rows fail in one attempt, the
first failing row's error is raised.

Each Trajectory counts its run's work, for profiling; `kcone report` copies
the counts into its meta, never into the report object:
    n_rhs              right-hand-side calls, f(x0) and exit node included
    n_accepted         steps appended as nodes (an exit node is not one)
    n_rejected         steps re-tried for a non-finite stage or error > tol
    n_kink_retries     steps re-tried up to a region change
    n_exit_bisections  halvings of the interpolant to locate a domain exit

Between accepted nodes the trajectory interpolates with a cubic Hermite
polynomial through the stored states and right-hand-side values, which is
why a Trajectory keeps the derivative array alongside the states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import (
    BadParameter,
    DomainViolation,
    NodeBudgetExceeded,
    NonFiniteState,
    StepUnderflow,
)
from .fields import VectorField

# Dormand-Prince RK5(4)7M tableau.
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# b5 - b4: weights of the embedded error estimate.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
UNDERFLOW_FRACTION = 1e-12
# Most nodes one run may store, each a state and its derivative.
MAX_NODES = 500_000
# Step length below which a region-signature crossing is accepted as-is.
KINK_FLOOR = 1e-6
# Fewest rows for which integrate_many runs its batched loop.
ENSEMBLE_MIN_ROWS = 8
_COUNTERS = ("n_rhs", "n_accepted", "n_rejected", "n_kink_retries", "n_exit_bisections")


@dataclass(eq=False)
class Trajectory:
    """Accepted nodes of one integration run, with Hermite sampling."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    rtol: float
    atol: float
    max_step: float
    events: list[tuple[float, str]] = dc_field(default_factory=list)
    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    n_kink_retries: int = 0
    n_exit_bisections: int = 0

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def span(self) -> float:
        return self.t_end - self.t0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def extent(self) -> float:
        """Diameter of the axis-aligned bounding box of the visited states."""
        return float(np.linalg.norm(self.states.max(axis=0) - self.states.min(axis=0)))

    def sample(self, t) -> np.ndarray:
        """Cubic Hermite interpolation at scalar or array times.

        A one-node trajectory returns its node state for any time within
        1e-12 of that node.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.size == 0:
            return np.empty((0, self.dim))
        if t_arr.min() < self.t0 - 1e-12 or t_arr.max() > self.t_end + 1e-12:
            raise BadParameter(
                f"sample time outside [{self.t0}, {self.t_end}]"
            )
        if len(self.times) == 1:
            # A run that stopped at its first node: no interval to interpolate.
            out = np.repeat(self.states, len(t_arr), axis=0)
        else:
            t_arr = np.clip(t_arr, self.t0, self.t_end)
            idx = np.searchsorted(self.times, t_arr, side="right") - 1
            idx = np.clip(idx, 0, len(self.times) - 2)
            h = self.times[idx + 1] - self.times[idx]
            s = (t_arr - self.times[idx]) / h
            out = _hermite(
                self.states[idx], self.derivs[idx], self.states[idx + 1],
                self.derivs[idx + 1], h[:, None], s[:, None],
            )
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _hermite(y0, f0, y1, f1, h, s):
    # r * r is numpy's ** 2 on an array, so a float s gets the bits of its
    # row in sample (** on a float calls C pow, which may differ by an ulp).
    r = 1 - s
    h00 = (1 + 2 * s) * (r * r)
    h10 = s * (r * r)
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _step_factor(tol: float, err: float) -> float:
    if err == 0.0:
        return MAX_FACTOR
    return min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * (tol / err) ** 0.2))


def _norm(v) -> float:
    """sqrt(v.dot(v)), the bits of np.linalg.norm on a 1-d float array, or
    where that sum of squares overflows (silently, under the callers'
    errstate), the norm of v rescaled by max|v|."""
    n = math.sqrt(v.dot(v))
    if n == math.inf and np.isfinite(v).all():
        m = float(np.abs(v).max())
        w = v / m
        n = m * math.sqrt(w.dot(w))
    return n


def _initial_step(f0, y0, T, max_step, rtol, atol):
    scale = atol + rtol * _norm(y0)
    speed = _norm(f0)
    if speed > 0.0:
        h = 0.01 * max(scale, 1e-6) / speed
    else:
        h = T / 100.0
    return min(h, T / 10.0, max_step)


def _require_start(domain, x0) -> None:
    """Raise DomainViolation unless x0 lies in domain, padded by 1e-12
    max(1, max|x0_i|) so a start on the boundary counts as inside."""
    if not bool(domain.contains(x0, pad=1e-12 * max(1.0, float(np.abs(x0).max())))):
        raise DomainViolation("x0 lies outside the field domain")


def _check_run(field, X0, T, rtol, atol, max_step) -> None:
    """Refuse a run's settings, or a start (a row of X0) of the wrong length
    or outside the field's domain."""
    if X0.ndim != 2 or X0.shape[1] != field.dim:
        raise BadParameter(f"x0 must have length {field.dim}")
    if not (T > 0.0 and np.isfinite(T)):
        raise BadParameter("T must be positive and finite")
    if not (rtol > 0.0 and atol > 0.0):
        raise BadParameter("tolerances must be positive")
    if not max_step > 0.0:
        raise BadParameter("max_step must be positive")
    for x0 in X0:
        _require_start(field.domain, x0)


def _bisect(step, h: float, inside, width: float) -> tuple[float, int]:
    """Halve [0, 1] on the Hermite interpolant of step = (y, f, y_new, f_new)
    over h, keeping its low end inside (inside(_hermite(...)) is True) and
    its high end not, until the bracket is below width in time (at most 80
    halvings). Returns (the low end, halvings)."""
    lo_s, hi_s = 0.0, 1.0
    for halvings in range(1, 81):
        mid = 0.5 * (lo_s + hi_s)
        if inside(_hermite(*step, h, mid)):
            lo_s = mid
        else:
            hi_s = mid
        if (hi_s - lo_s) * h < width:
            break
    return lo_s, halvings


class _Run:
    """One DP5 run between attempts: its nodes, events and counters, the last
    node (t, y, f) and its region signature cur, the next attempt's step h,
    and whether it goes on; settle decides each attempt of both loops."""

    __slots__ = ("field", "region", "T", "rtol", "atol", "max_step", "t", "y", "f", "h", "cur",
                 "running", "ts", "ys", "fs", "events", *_COUNTERS)

    def __init__(self, field, x0, f0, T, rtol, atol, max_step):
        if not np.isfinite(f0).all():
            raise NonFiniteState("right-hand side not finite at x0")
        self.field, self.region = field, field.region_index
        self.T, self.rtol, self.atol, self.max_step = T, rtol, atol, max_step
        self.t, self.y, self.f = 0.0, x0.copy(), f0.copy()
        self.ts, self.ys, self.fs, self.events = [0.0], [self.y], [self.f], []
        self.cur = self.region(self.y) if self.region is not None else None
        self.h = _initial_step(f0, x0, T, max_step, rtol, atol)
        self.running = True
        self.n_rhs, self.n_accepted, self.n_rejected = 1, 0, 0
        self.n_kink_retries = self.n_exit_bisections = 0

    def settle(self, y_new, f_new, e, stages_finite, inside) -> None:
        """Decide the attempt of length h from the last node to y_new, whose
        7th stage is f_new and whose error estimate is the vector e, after
        6 rhs calls (stages_finite: all 7 stages are finite; inside: y_new
        lies in the domain). It re-tries up to a region crossing, rejects
        (raising StepUnderflow below the floor), raises NonFiniteState or
        NodeBudgetExceeded, stops at a domain exit, or accepts; then it
        sets the next attempt's h."""
        t, h, T, cur, region = self.t, self.h, self.T, self.cur, self.region
        self.n_rhs += 6
        err = _norm(e)
        tol = self.atol + self.rtol * _norm(y_new)
        finite = stages_finite and math.isfinite(err)
        # Kink localization, ahead of the error test: a step that jumps a
        # ramp-region boundary is re-tried up to the crossing.
        new = region(y_new) if region is not None and finite else cur
        if new != cur and h > KINK_FLOOR:
            self.n_kink_retries += 1
            s, _ = _bisect((self.y, self.f, y_new, f_new), h,
                           lambda x: region(x) == cur, KINK_FLOOR)
            h = max(s * h, KINK_FLOOR)
        elif not finite or err > tol:
            self.n_rejected += 1
            h *= _step_factor(tol, err) if finite else 0.5
            if h < UNDERFLOW_FRACTION * T:
                raise StepUnderflow(f"step {h:.3e} below {UNDERFLOW_FRACTION:.0e} T")
        else:
            # A finite tol has a finite _norm(y_new), so a finite y_new.
            if not math.isfinite(tol) and not np.isfinite(y_new).all():
                raise NonFiniteState(f"state not finite after t = {t:.6g}")
            if len(self.ts) == MAX_NODES:
                raise NodeBudgetExceeded(f"run needs more than {MAX_NODES} nodes")
            if not inside:
                # The last point inside on the step's interpolant ends the
                # run, as a node unless it is y.
                step = (self.y, self.f, y_new, f_new)
                width = 1e-14 * max(1.0, abs(t))
                s, self.n_exit_bisections = _bisect(step, h, self.field.domain.contains, width)
                self.events.append((t + s * h, "domain_exit"))
                if s > 0.0:
                    self.ts.append(t + s * h)
                    self.ys.append(_hermite(*step, h, s))
                    self.fs.append(np.asarray(self.field(self.ys[-1]), dtype=float))
                    self.n_rhs += 1
                self.running = False
                return
            # The last step lands on T itself: from t < T/2, t + (T - t) may
            # round an ulp short of T and leave an underflowing step behind.
            self.t = t = T if h == T - t else t + h
            self.y, self.f, self.cur = y_new, f_new.copy(), new
            self.ts.append(t)
            self.ys.append(self.y)
            self.fs.append(self.f)
            self.n_accepted += 1
            self.running = t < T
            h *= _step_factor(tol, err)
        self.h = min(h, T - t, self.max_step)

    def trajectory(self) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.ts), states=np.asarray(self.ys), derivs=np.asarray(self.fs),
            rtol=self.rtol, atol=self.atol, max_step=self.max_step, events=self.events,
            **{c: getattr(self, c) for c in _COUNTERS},
        )


def integrate(
    field: VectorField,
    x0,
    T: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate x' = F(x) from x0 over [0, T].

    Returns the accepted nodes; stops early with a ("domain_exit") event if
    the state leaves the field's domain, the event time bisected onto the
    boundary crossing.
    """
    x0 = np.asarray(x0, dtype=float)
    _check_run(field, x0[None], T, rtol, atol, max_step)
    rhs, contains, f0 = field.rhs, field.domain.contains, np.asarray(field(x0), dtype=float)
    K = np.empty((7, field.dim))
    # KT[i] is K[:i].T, the first i stages: views, bound once, that read K
    # as each step fills it.
    KT = [K[:i].T for i in range(8)]
    with np.errstate(over="ignore"):  # _norm rescales an overflowed sum of squares
        run = _Run(field, x0, f0, T, rtol, atol, max_step)
        while run.running:
            h, y = run.h, run.y
            K[0] = run.f
            for i in range(1, 6):
                K[i] = rhs(y + h * (KT[i] @ _A[i]))
            y_new = y + h * (KT[6] @ _A[6])
            K[6] = rhs(y_new)  # FSAL: the 7th stage's argument is y_new
            # Test K itself: stage 2 has zero weight in both y_new and err.
            run.settle(y_new, K[6], h * (KT[7] @ _E), np.isfinite(K).all(), contains(y_new))
    return run.trajectory()


def integrate_many(
    field: VectorField, X0, T: float, rtol: float = 1e-8, atol: float = 1e-10,
    max_step: float = np.inf,
) -> list[Trajectory]:
    """integrate(field, x0, T, ...) for each row x0 of the (m, n) array X0 in
    one DP5 loop that batches only the evaluations: the running rows share
    one rhs call per stage and one domain test. Each row's step is decided
    by integrate's per-run routine, in row order, so each row keeps its own
    steps, kinks, exit, events and counters, and when several rows fail in
    one attempt, the first failing row's error is raised. Row r is bit for
    bit integrate(field, X0[r], ...) when a batch's rhs has its single rows'
    bits (elementwise fields; x @ A.T may move a last bit). The whole batch,
    an empty one too, is checked first; below ENSEMBLE_MIN_ROWS rows
    integrate then runs row by row: it is faster there."""
    X0 = np.asarray(X0, dtype=float)
    _check_run(field, X0, T, rtol, atol, max_step)
    if X0.shape[0] < ENSEMBLE_MIN_ROWS:
        return [integrate(field, x0, T, rtol, atol, max_step) for x0 in X0]
    rhs = field.rhs
    F = np.asarray(rhs(X0), dtype=float)
    K = np.empty((X0.shape[0], 7, field.dim))  # row r's stages are the (7, n) block K[r]
    with np.errstate(over="ignore"):
        runs = [_Run(field, x0, f0, T, rtol, atol, max_step) for x0, f0 in zip(X0, F)]
        running = runs
        while running:
            H = np.array([run.h for run in running])[:, None]
            Y = np.array([run.y for run in running])
            Kr = K[: len(running)]
            Kr[:, 0] = [run.f for run in running]
            for i in range(1, 6):
                Kr[:, i] = rhs(Y + H * (Kr[:, :i].transpose(0, 2, 1) @ _A[i]))
            Y_new = Y + H * (Kr[:, :6].transpose(0, 2, 1) @ _A[6])
            Kr[:, 6] = rhs(Y_new)
            E = H * (Kr.transpose(0, 2, 1) @ _E)
            finite, inside = np.isfinite(Kr).all(axis=(1, 2)), field.domain.contains(Y_new)
            for run, *attempt in zip(running, Y_new, Kr[:, 6], E, finite, inside):
                run.settle(*attempt)
            running = [run for run in running if run.running]
    return [run.trajectory() for run in runs]


def integrate_backward(
    field: VectorField,
    x0,
    T: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
) -> Trajectory:
    """Negative semi-orbit through x0: times in [-T, 0], ascending.

    Runs the reversed field forward and flips the result, so the returned
    states satisfy x'(t) = F(x(t)) on [-T, 0] with x(0) = x0, and sample()
    works unchanged. A domain exit shows up as a ("domain_exit") event at
    its (negative) time and truncates the reachable window.
    """
    reversed_field = VectorField(
        dim=field.dim,
        rhs=lambda x: -np.asarray(field.rhs(x)),
        domain=field.domain,
        family=field.family,
        region_index=field.region_index,
    )
    back = integrate(reversed_field, x0, T, rtol=rtol, atol=atol, max_step=max_step)
    # The work counters carry over unchanged.
    return replace(
        back,
        times=-back.times[::-1],
        states=back.states[::-1].copy(),
        derivs=-back.derivs[::-1],
        events=[(-t, kind) for (t, kind) in reversed(back.events)],
    )

