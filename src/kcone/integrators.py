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
(_Run.settle), which holds every rule above. integrate runs one state as a
list of Python floats: the field's coordinate form (rhs.coordinates) on
the floats, or, for a rhs without one, the rhs on an array read back as
floats; each stage argument y + h (a_i0 k0 + a_i1 k1 + ...) summed
coordinate by coordinate, left to right in tableau order, zero weights
skipped; a norm as sqrt of the squares summed in order (rescaled by max|v_i|
where that sum overflows); the domain test and the region signature on the
floats. The loop calls no BLAS, so its bits do not depend on the BLAS
library or the kernel it picks. The nodes become arrays once, in the
Trajectory. integrate_many batches only the evaluations, the rhs stages of
its running rows and the domain test of their ends, and makes integrate's
sums and norms term by term as elementwise ufuncs (np.cumsum adds left to
right; numpy fuses no multiply-add), so a row keeps integrate's bits. It
then settles the rows one by one in row order, so when several rows fail
in one attempt, the first failing row's error is raised.

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

from .domains import _point_test
from .errors import (
    BadParameter,
    DimensionMismatch,
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
# The same weights as Python floats, for the stage sums of both loops.
_ROWS = [row.tolist() for row in _A[1:]]
_E_ROW = _E.tolist()

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
UNDERFLOW_FRACTION = 1e-12
# Most nodes one run may store, each a state and its derivative.
MAX_NODES = 500_000
# Step length below which a region-signature crossing is accepted as-is.
KINK_FLOOR = 1e-6
# Fewest rows for which integrate_many runs its batched loop.
ENSEMBLE_MIN_ROWS = 16
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
    """sqrt of the squares of the floats v summed in order, or, where that
    sum overflows, the norm of v rescaled by max|v_i|."""
    s = 0.0
    for c in v:
        s += c * c
    n = math.sqrt(s)
    if n == math.inf and all(map(math.isfinite, v)):
        m = max(map(abs, v))
        n = m * _norm([c / m for c in v])
    return n


def _norms(V: np.ndarray) -> np.ndarray:
    """_norm of each row of the (m, n) array V: the squares, summed left to
    right by np.cumsum along the row, so a row gets _norm's bits."""
    N = np.sqrt(np.cumsum(V * V, axis=1)[:, -1])
    for r in np.flatnonzero(N == np.inf):
        N[r] = _norm(V[r].tolist())
    return N


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


def _require_finite_start(f0) -> None:
    if not all(map(math.isfinite, f0)):
        raise NonFiniteState("right-hand side not finite at x0")


class _Run:
    """One DP5 run between attempts: its nodes, events and counters, the last
    node (t, y, f) and its region signature cur, the next attempt's step h,
    and whether it goes on; settle decides each attempt of both loops. A
    state is a list of floats (integrate) or an array row (integrate_many);
    either reads the same."""

    __slots__ = ("field", "region", "T", "rtol", "atol", "max_step", "t", "y", "f", "h", "cur",
                 "running", "ts", "ys", "fs", "events", *_COUNTERS)

    def __init__(self, field, x0, f0, T, rtol, atol, max_step):
        _require_finite_start(f0)
        self.field, self.region = field, field.region_index
        self.T, self.rtol, self.atol, self.max_step = T, rtol, atol, max_step
        self.t, self.y, self.f = 0.0, x0, f0
        self.ts, self.ys, self.fs, self.events = [0.0], [x0], [f0], []
        self.cur = self.region(x0) if self.region is not None else None
        self.h = _initial_step(f0, x0, T, max_step, rtol, atol)
        self.running = True
        self.n_rhs, self.n_accepted, self.n_rejected = 1, 0, 0
        self.n_kink_retries = self.n_exit_bisections = 0

    def settle(self, y_new, f_new, err, y_norm, stage2_finite, inside) -> None:
        """Decide the attempt of length h from the last node to y_new, whose
        7th stage is f_new, after 6 rhs calls: err is the norm of the error
        estimate, y_norm that of y_new, stage2_finite says the 2nd stage is
        finite and inside that y_new lies in the domain. The 2nd stage is
        the only one tested apart: the 1st is the last node's finite
        derivative, and every later one has a nonzero error weight, so a
        non-finite entry there makes err non-finite. It re-tries up to a
        region crossing, rejects (raising StepUnderflow below the floor),
        raises NonFiniteState or NodeBudgetExceeded, stops at a domain
        exit, or accepts; then it sets the next attempt's h."""
        t, h, T, cur, region = self.t, self.h, self.T, self.cur, self.region
        self.n_rhs += 6
        tol = self.atol + self.rtol * y_norm
        finite = stage2_finite and math.isfinite(err)
        # Kink localization, ahead of the error test: a step that jumps a
        # ramp-region boundary is re-tried up to the crossing.
        new = region(y_new) if region is not None and finite else cur
        if new != cur and h > KINK_FLOOR:
            self.n_kink_retries += 1
            s, _ = _bisect(self._step(y_new, f_new), h, lambda x: region(x) == cur, KINK_FLOOR)
            h = max(s * h, KINK_FLOOR)
        elif not finite or err > tol:
            self.n_rejected += 1
            h *= _step_factor(tol, err) if finite else 0.5
            if h < UNDERFLOW_FRACTION * T:
                raise StepUnderflow(f"step {h:.3e} below {UNDERFLOW_FRACTION:.0e} T")
        else:
            # A finite tol has a finite y_norm, so a finite y_new.
            if not math.isfinite(tol) and not all(map(math.isfinite, y_new)):
                raise NonFiniteState(f"state not finite after t = {t:.6g}")
            if len(self.ts) == MAX_NODES:
                raise NodeBudgetExceeded(f"run needs more than {MAX_NODES} nodes")
            if not inside:
                # The last point inside on the step's interpolant ends the
                # run, as a node unless it is y.
                step = self._step(y_new, f_new)
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
            self.y, self.f, self.cur = y_new, f_new, new
            self.ts.append(t)
            self.ys.append(y_new)
            self.fs.append(f_new)
            self.n_accepted += 1
            self.running = t < T
            h *= _step_factor(tol, err)
        self.h = min(h, T - t, self.max_step)

    def _step(self, y_new, f_new):
        """(y, f, y_new, f_new) as arrays, for _hermite."""
        return tuple(np.asarray(v, dtype=float) for v in (self.y, self.f, y_new, f_new))

    def trajectory(self) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.ts), states=np.asarray(self.ys, dtype=float),
            derivs=np.asarray(self.fs, dtype=float),
            rtol=self.rtol, atol=self.atol, max_step=self.max_step, events=self.events,
            **{c: getattr(self, c) for c in _COUNTERS},
        )


def _coordinates(field: VectorField):
    """The field's rhs as a function of one state given as a list of floats,
    returning its n values: the rhs's own coordinate form when it carries
    one (rhs.coordinates), else the rhs called on an array and read back as
    floats, with the same bits."""
    g = getattr(field.rhs, "coordinates", None)
    if g is not None:
        return g
    rhs = field.rhs
    return lambda y: np.asarray(rhs(np.array(y)), dtype=float).tolist()


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
    g, inside = _coordinates(field), _point_test(field.domain)
    y0 = x0.tolist()
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54), \
        (b0, _, b2, b3, b4, b5) = _ROWS
    e0, _, e2, e3, e4, e5, e6 = _E_ROW
    # Each stage argument is y + h (a_i0 k0 + a_i1 k1 + ...), summed left to
    # right coordinate by coordinate; k1's weights in y_new and e are 0.
    # Coordinate forms that call numpy (hill's np.power, a parsed field's
    # built-ins and its division by zero) leave the floating-point error
    # state to this loop; a stage that overflows or divides by zero is
    # rejected, not warned about.
    with np.errstate(all="ignore"):
        f0 = g(y0)
        if np.shape(f0) != (field.dim,):
            raise DimensionMismatch(f"rhs must return {field.dim} values")
        run = _Run(field, y0, f0, T, rtol, atol, max_step)
        while run.running:
            h, y, k0 = run.h, run.y, run.f
            k1 = g([v + h * (a10 * p) for v, p in zip(y, k0)])
            k2 = g([v + h * (a20 * p + a21 * q) for v, p, q in zip(y, k0, k1)])
            k3 = g([v + h * (a30 * p + a31 * q + a32 * r)
                    for v, p, q, r in zip(y, k0, k1, k2)])
            k4 = g([v + h * (a40 * p + a41 * q + a42 * r + a43 * s)
                    for v, p, q, r, s in zip(y, k0, k1, k2, k3)])
            k5 = g([v + h * (a50 * p + a51 * q + a52 * r + a53 * s + a54 * u)
                    for v, p, q, r, s, u in zip(y, k0, k1, k2, k3, k4)])
            y_new = [v + h * (b0 * p + b2 * r + b3 * s + b4 * u + b5 * w)
                     for v, p, r, s, u, w in zip(y, k0, k2, k3, k4, k5)]
            k6 = g(y_new)  # FSAL: the 7th stage's argument is y_new
            e = [h * (e0 * p + e2 * r + e3 * s + e4 * u + e5 * w + e6 * z)
                 for p, r, s, u, w, z in zip(k0, k2, k3, k4, k5, k6)]
            run.settle(y_new, k6, _norm(e), _norm(y_new), all(map(math.isfinite, k1)),
                       inside(y_new))
    return run.trajectory()


def _stacked(weights):
    """The stage indices of the nonzero weights, and those weights as a
    (k, 1, 1) array, for _tableau_sum."""
    terms = [i for i, w in enumerate(weights) if w]
    return terms, np.array([weights[i] for i in terms])[:, None, None]


# integrate_many's weights: stages 2-6, y_new, the error estimate.
_STACKED = [_stacked(row) for row in _ROWS], _stacked(_E_ROW)


def _tableau_sum(stacked, K):
    """The weighted sum of the (m, n) stage arrays K[i] of stacked's terms:
    the products, then np.cumsum down the stages, which adds them left to
    right (an accumulation cannot regroup), so each row gets integrate's
    sums, with its bits."""
    terms, W = stacked
    return np.cumsum(W * K[terms], axis=0)[-1]


def integrate_many(
    field: VectorField, X0, T: float, rtol: float = 1e-8, atol: float = 1e-10,
    max_step: float = np.inf,
) -> list[Trajectory]:
    """integrate(field, x0, T, ...) for each row x0 of the (m, n) array X0 in
    one DP5 loop that batches only the evaluations: the running rows share
    one rhs call per stage and one domain test. Each row's step is decided
    by integrate's per-run routine, in row order, so each row keeps its own
    steps, kinks, exit, events and counters, and when several rows fail in
    one attempt, the first failing row's error is raised. The stage sums
    and norms are integrate's, as elementwise ufuncs, so row r is bit for
    bit integrate(field, X0[r], ...) wherever a batch's rhs gives its rows
    their single-state bits, as every family's does. The whole batch, an
    empty one too, is checked first, and then every start's rhs; below
    ENSEMBLE_MIN_ROWS rows integrate then runs row by row: it is faster
    there."""
    X0 = np.asarray(X0, dtype=float)
    _check_run(field, X0, T, rtol, atol, max_step)
    if X0.shape[0] < ENSEMBLE_MIN_ROWS:
        # Every start's rhs is tested before any row runs, as in the batch.
        for x0 in X0:
            _require_finite_start(field(x0))
        return [integrate(field, x0, T, rtol, atol, max_step) for x0 in X0]
    rhs = field.rhs
    F = np.asarray(rhs(X0), dtype=float)
    K = np.empty((7, *X0.shape))  # stage i of the running rows is K[i, :r]
    stages, error = _STACKED
    with np.errstate(all="ignore"):  # as in integrate
        runs = [_Run(field, x0, f0, T, rtol, atol, max_step) for x0, f0 in zip(X0, F)]
        running = runs
        while running:
            Kr = K[:, : len(running)]
            H = np.array([run.h for run in running])[:, None]
            Y = np.array([run.y for run in running])
            Kr[0] = [run.f for run in running]
            for i, stacked in enumerate(stages[:5], 1):
                Kr[i] = rhs(Y + H * _tableau_sum(stacked, Kr))
            Y_new = Y + H * _tableau_sum(stages[5], Kr)
            Kr[6] = rhs(Y_new)
            err, y_norm = _norms(H * _tableau_sum(error, Kr)), _norms(Y_new)
            finite, inside = np.isfinite(Kr[1]).all(axis=1), field.domain.contains(Y_new)
            for run, *attempt in zip(running, Y_new, Kr[6].copy(), err, y_norm, finite, inside):
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

