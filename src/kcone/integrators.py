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
      their kink crossings localized: a step that changes the signature is
      re-tried at half length until the crossing step is below a floor, and
      the step after a crossing restarts small.
    * Raises StepUnderflow when a rejected step's retry falls below 1e-12 T
      (the only place the floor is tested), NonFiniteState on nan/inf at an
      accepted node, and NodeBudgetExceeded past MAX_NODES stored nodes.

Each Trajectory counts its run's work, for profiling; no report reads it:
    n_rhs              right-hand-side calls, f(x0) and exit node included
    n_accepted         steps appended as nodes (an exit node is not one)
    n_rejected         steps re-tried for a non-finite stage or error > tol
    n_kink_retries     steps re-tried at half length for a region change
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
# Fresh step length right after crossing a ramp kink.
KINK_RESTART = 1e-2


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
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
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
    if x0.shape != (field.dim,):
        raise BadParameter(f"x0 must have length {field.dim}")
    if not (T > 0.0 and np.isfinite(T)):
        raise BadParameter("T must be positive and finite")
    if not (rtol > 0.0 and atol > 0.0):
        raise BadParameter("tolerances must be positive")
    if not max_step > 0.0:
        raise BadParameter("max_step must be positive")
    _require_start(field.domain, x0)

    rhs = field.rhs
    contains = field.domain.contains
    region = field.region_index
    f0 = np.asarray(field(x0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NonFiniteState("right-hand side not finite at x0")

    ts = [0.0]
    ys = [x0.copy()]
    fs = [f0.copy()]
    events: list[tuple[float, str]] = []
    n_rhs = 1
    n_accepted = n_rejected = n_kink_retries = n_exit_bisections = 0

    t = 0.0
    y = x0.copy()
    f = f0
    cur_region = region(y) if region is not None else None

    K = np.empty((7, field.dim))
    # KT[i] is K[:i].T, the first i stages: views, bound once, that read K
    # as each step fills it.
    KT = [K[:i].T for i in range(8)]
    with np.errstate(over="ignore"):  # _norm rescales an overflowed sum of squares
        h = _initial_step(f0, x0, T, max_step, rtol, atol)
        while t < T:
            h = min(h, T - t, max_step)
            K[0] = f
            for i in range(1, 6):
                K[i] = rhs(y + h * (KT[i] @ _A[i]))
            y_new = y + h * (KT[6] @ _A[6])
            K[6] = rhs(y_new)  # FSAL: the 7th stage's argument is y_new
            n_rhs += 6
            err = _norm(h * (KT[7] @ _E))
            tol = atol + rtol * _norm(y_new)

            # Test K itself: stage 2 has zero weight in both y_new and err.
            finite = np.isfinite(K).all() and math.isfinite(err)
            if not finite or err > tol:
                n_rejected += 1
                h *= _step_factor(tol, err) if finite else 0.5
                if h < UNDERFLOW_FRACTION * T:
                    raise StepUnderflow(f"step {h:.3e} below {UNDERFLOW_FRACTION:.0e} T")
                continue

            # Kink localization: shrink steps that jump a ramp-region boundary.
            new_region = region(y_new) if region is not None else None
            if new_region != cur_region and h > KINK_FLOOR:
                n_kink_retries += 1
                h = max(0.5 * h, KINK_FLOOR)
                continue

            if not np.isfinite(y_new).all():
                raise NonFiniteState(f"state not finite after t = {t:.6g}")
            f_new = K[6].copy()
            if len(ts) == MAX_NODES:
                raise NodeBudgetExceeded(f"run needs more than {MAX_NODES} nodes")

            if not contains(y_new):
                # Bisect the Hermite interpolant for the last inside point.
                lo_s, hi_s = 0.0, 1.0
                for _ in range(80):
                    n_exit_bisections += 1
                    mid = 0.5 * (lo_s + hi_s)
                    y_mid = _hermite(y, f, y_new, f_new, h, mid)
                    if contains(y_mid):
                        lo_s = mid
                    else:
                        hi_s = mid
                    if (hi_s - lo_s) * h < 1e-14 * max(1.0, abs(t)):
                        break
                t_exit = t + lo_s * h
                y_exit = _hermite(y, f, y_new, f_new, h, lo_s)
                if lo_s > 0.0:
                    ts.append(t_exit)
                    ys.append(y_exit)
                    fs.append(np.asarray(field(y_exit), dtype=float))
                    n_rhs += 1
                events.append((t_exit, "domain_exit"))
                break

            # The last step lands on T itself: from t < T/2, t + (T - t) may
            # round an ulp short of T and leave an underflowing step behind.
            t = T if h == T - t else t + h
            y = y_new
            f = f_new
            ts.append(t)
            ys.append(y)
            fs.append(f)
            n_accepted += 1
            h *= _step_factor(tol, err)
            if new_region != cur_region:
                # The step after a kink crossing restarts small.
                cur_region = new_region
                h = min(h, KINK_RESTART)

    return Trajectory(
        times=np.asarray(ts),
        states=np.asarray(ys),
        derivs=np.asarray(fs),
        rtol=rtol,
        atol=atol,
        max_step=max_step,
        events=events,
        n_rhs=n_rhs,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_kink_retries=n_kink_retries,
        n_exit_bisections=n_exit_bisections,
    )


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

