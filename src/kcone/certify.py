"""Sampled strong-monotonicity certificates and trajectory decay audits.

The central object is the pairwise margin

    margin(x, y) = (x - y)^T P [F(x) - F(y) + lam (x - y)] / |x - y|^2

for a quadratic cone with form P. A field on whose domain this margin is
negative for every pair of distinct points transports the cone order: the
weighted quadratic form e^{2 lam t} (x(t) - y(t))^T P (x(t) - y(t)) then
falls strictly along any two trajectories, so a difference that starts in
the cone is driven into its interior. The checks here sample that margin;
a Pass is evidence at the sampled resolution, never a proof.

Four conditions:
  * pairwise_lambda: margin < 0 over sampled pairs (certify_sampled).
  * smith_epsilon:   margin <= -epsilon over the pairs of a pairwise_lambda
                     report (certify_smith); it draws no sample of its own.
  * linear_lmi:      for F(x) = A x, max eigenvalue of P A + A^T P + lam P
                     is negative (certify_linear).
  * cyclic_feedback: declared coupling signs hold at sampled points
                     (check_cyclic_feedback).

The margin is affine in the rate, and the computed margin is that line:
margin(lam) = u + lam q, with u = (x - y)^T P (F(x) - F(y)) / |x - y|^2 and
q = (x - y)^T P (x - y) / |x - y|^2, both computed once per sample by the
cone's own kernel. lambda_grid_search scores each rate in one pass over
the sample.

decay_audit complements the sampling: it integrates one pair, as one state
whose rhs is the field's own rhs on the (2, n) batch of the pair, and
verifies the weighted form actually falls step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cones import OrderClass, QuadraticCone, _distinct_difference, relate
from .domains import Domain
from .errors import (
    AllPairsDegenerate,
    BadParameter,
    DomainExit,
    DomainViolation,
    NonFiniteDerivative,
)
from .fields import VectorField
from .integrators import integrate
from .linalg import sym_eig

# Pairs closer than this fraction of the domain diameter are skipped.
DEGENERATE_PAIR_RTOL = 1e-10
# Roundoff allowance for the decreasing audit sequence: a step may rise by
# at most this fraction of |g| before the audit fails.
DECAY_SLACK_RTOL = 1e-8
# Relative step for the coupling-sign finite differences.
FEEDBACK_FD_RTOL = 1e-5
# Points at which check_cyclic_feedback tests the coupling signs.
FEEDBACK_SAMPLES = 1000
# Copies of its row pair_margin evaluates the field on: a batched rhs such
# as x @ A.T gives a one-row batch other bits than a sample.
_MIN_BATCH = 8


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one certificate check."""

    condition: str
    lam: float
    n_samples: int
    worst_margin: float
    passed: bool
    epsilon: float | None = None
    epsilon_star: float | None = None
    worst_pair: tuple[np.ndarray, np.ndarray] | None = None
    worst_point: np.ndarray | None = None
    feedback_type: str | None = None
    boundary_band: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _envelope(field: VectorField, cone: QuadraticCone, X, Y, D):
    """(u, q) for the row pairs (X, Y), with D = X - Y: the margin of pair i
    at rate lam is u[i] + lam q[i]. NaN or inf where the field is not
    finite, and no warning; lambda_grid_search refuses those margins."""
    with np.errstate(invalid="ignore"):  # inf - inf where the field is infinite
        dF = np.asarray(field(X)) - np.asarray(field(Y))
    with np.errstate(all="ignore"):
        den = np.einsum("ij,ij->i", D, D)
        return cone._form(D, dF) / den, cone._form(D) / den


def pair_margin(field: VectorField, cone: QuadraticCone, lam: float, x, y) -> float:
    """Normalized pairwise decay margin u + lam q for one pair of domain
    points, the field evaluated on _MIN_BATCH copies of the pair: it gets
    the bits it gets in a sample, so a report's worst_pair gives back its
    worst_margin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (bool(field.domain.contains(x)) and bool(field.domain.contains(y))):
        raise DomainViolation("pair_margin needs both points inside the domain")
    _distinct_difference(x, y)
    copies = (_MIN_BATCH, 1)
    u, q = _envelope(field, cone, np.tile(x, copies), np.tile(y, copies), np.tile(x - y, copies))
    return float(u[0] + lam * q[0])


def certify_sampled(
    field: VectorField,
    cone: QuadraticCone,
    lam: float,
    n_pairs: int = 10_000,
    seed: int = 0,
) -> ConditionReport:
    """Sample the pairwise margin over uniform pairs of field.domain at one
    rate (certify a subregion with dataclasses.replace(field, domain=...)).

    The one-rate case of lambda_grid_search: pairs closer than 1e-10 of the
    domain diameter are skipped; if every pair degenerates the sample is
    void (AllPairsDegenerate). Pass means the worst margin sits strictly
    below the cone's boundary band.
    """
    return lambda_grid_search(field, cone, [lam], n_pairs=n_pairs, seed=seed)[0]


def certify_smith(base: ConditionReport, epsilon: float) -> ConditionReport:
    """Uniform-gap reading of a pairwise_lambda report, drawing nothing: every
    sampled margin must be <= -epsilon. epsilon_star reports the largest
    epsilon the sample would support."""
    if base.condition != "pairwise_lambda":
        raise BadParameter("the uniform-gap check reads a pairwise_lambda report")
    if not epsilon > 0.0:
        raise BadParameter("epsilon must be positive")
    return replace(
        base,
        condition="smith_epsilon",
        passed=base.worst_margin <= -epsilon,
        epsilon=float(epsilon),
        epsilon_star=-base.worst_margin,
    )


def certify_linear(A, cone: QuadraticCone, lam: float) -> ConditionReport:
    """Exact check for linear fields: max eig(P A + A^T P + lam P) < 0."""
    A = np.asarray(A, dtype=float)
    n = cone.dim
    if A.shape != (n, n):
        raise BadParameter(f"matrix must be {n} x {n}")
    P = cone.p_matrix
    M = P @ A + A.T @ P + lam * P
    w, _ = sym_eig(0.5 * (M + M.T))
    worst = float(w[-1])
    return ConditionReport(
        condition="linear_lmi",
        lam=float(lam),
        n_samples=0,
        worst_margin=worst,
        passed=worst < 0.0,
        boundary_band=cone.boundary_band,
    )


def check_cyclic_feedback(components, deltas, domain: Domain, seed: int = 0) -> ConditionReport:
    """Verify declared coupling signs of a feedback ring by sampling.

    components[i](x_i, x_prev) is the i-th coordinate function of the ring
    (prev meaning i - 1 cyclically); deltas[i] its declared coupling sign.
    At FEEDBACK_SAMPLES (1000) seeded points of domain, the partial
    derivative in the coupling slot is estimated by central differences with
    step FEEDBACK_FD_RTOL (1e-5) of the coordinate's range; Pass iff delta_i
    times the estimate is positive everywhere. The margin convention matches
    the other checks: negative is good, so worst_margin is the largest value
    of -delta_i * estimate.
    """
    n = len(components)
    if len(deltas) != n:
        raise BadParameter("one declared sign per component")
    if any(d not in (-1, 1) for d in deltas):
        raise BadParameter("declared signs must be -1 or +1")
    rng = np.random.default_rng(seed)
    X = domain.sample(rng, FEEDBACK_SAMPLES)
    widths = domain.widths()
    worst_margin = -np.inf
    worst_point = None
    for i in range(n):
        prev = (i - 1) % n
        h = FEEDBACK_FD_RTOL * float(widths[prev])
        xi = X[:, i]
        xp = X[:, prev]
        est = (np.asarray(components[i](xi, xp + h)) - np.asarray(components[i](xi, xp - h))) / (2.0 * h)
        if not np.all(np.isfinite(est)):
            raise NonFiniteDerivative(f"coupling derivative of component {i} not finite")
        margins = -deltas[i] * est
        j = int(np.argmax(margins))
        if float(margins[j]) > worst_margin:
            worst_margin = float(margins[j])
            worst_point = X[j].copy()
    sign = int(np.prod(np.asarray(deltas)))
    return ConditionReport(
        condition="cyclic_feedback",
        lam=0.0,
        n_samples=FEEDBACK_SAMPLES,
        worst_margin=worst_margin,
        passed=worst_margin < 0.0,
        worst_point=worst_point,
        feedback_type="negative" if sign < 0 else "positive",
    )


def lambda_grid_search(
    field: VectorField,
    cone: QuadraticCone,
    grid,
    n_pairs: int = 10_000,
    seed: int = 0,
) -> list[ConditionReport]:
    """The pairwise_lambda check at each rate in grid, from one sample per call.

    The seeded pairs are drawn from field.domain, and the field evaluated
    on them, once, with the u and q of their margins u + lam q. Each rate is
    then one pass over the sample; its report names the first pair with the
    largest margin, and NonFiniteDerivative is raised unless every margin
    is finite. One report per value, equal to what certify_sampled gives at
    that rate.
    """
    if n_pairs < 1:
        raise BadParameter("n_pairs must be at least 1")
    dom = field.domain
    rng = np.random.default_rng(seed)
    X = dom.sample(rng, n_pairs)
    Y = dom.sample(rng, n_pairs)
    D = X - Y
    keep = np.linalg.norm(D, axis=1) >= DEGENERATE_PAIR_RTOL * dom.diameter()
    if not np.any(keep):
        raise AllPairsDegenerate("all sampled pairs collapsed below the cutoff")
    if not keep.all():
        X, Y, D = X[keep], Y[keep], D[keep]
    u, q = _envelope(field, cone, X, Y, D)
    reports = []
    for lam in grid:
        with np.errstate(all="ignore"):
            margins = u + lam * q
        if not np.all(np.isfinite(margins)):
            raise NonFiniteDerivative("margin not finite at some sampled pair")
        worst = int(np.argmax(margins))
        worst_margin = float(margins[worst])
        reports.append(
            ConditionReport(
                condition="pairwise_lambda",
                lam=float(lam),
                n_samples=int(X.shape[0]),
                worst_margin=worst_margin,
                passed=worst_margin < -cone.boundary_band,
                worst_pair=(X[worst].copy(), Y[worst].copy()),
                boundary_band=cone.boundary_band,
            )
        )
    return reports


# ---- decay audit ----


class _ProductDomain:
    """One domain seen through the pair state z = (x, y) of length 2n: z is
    inside when both rows of its (2, n) view are."""

    def __init__(self, inner: Domain):
        self.inner = inner

    def contains(self, z, pad: float = 0.0):
        return self.inner.contains(z.reshape(2, -1), pad=pad).all()


def _pair_run(field: VectorField, x0, y0, T: float, **settings):
    """Integrate the pair (x0, y0) as one state z = (x, y), whose rhs is
    field.rhs on the (2, n) batch view of z, so the two trajectories share
    accepted steps exactly; a row gets the bits of a single-state call
    wherever the rhs is elementwise. Each state's region signature is
    tracked. Returns (times, xs, ys); raises DomainExit if either
    trajectory leaves the domain before T, BadParameter unless both states
    have the field's length, and IdenticalPoints if they coincide."""
    n = field.dim
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != (n,) or y0.shape != (n,):
        raise BadParameter(f"states must have length {n}")
    _distinct_difference(x0, y0)
    region = field.region_index
    pair = VectorField(
        dim=2 * n,
        rhs=lambda z: field.rhs(z.reshape(2, n)).reshape(2 * n),
        domain=_ProductDomain(field.domain),
        family=field.family,
        region_index=None if region is None else lambda z: tuple(map(region, z.reshape(2, n))),
    )
    traj = integrate(pair, np.concatenate([x0, y0]), T, **settings)
    if traj.events:
        t_ev, kind = traj.events[0]
        raise DomainExit(f"pair left the domain at t = {t_ev:.6g} ({kind})")
    return traj.times, traj.states[:, :n], traj.states[:, n:]


@dataclass(frozen=True)
class DecayAudit:
    """Step-by-step record of the weighted quadratic form along one pair."""

    times: np.ndarray
    values: np.ndarray
    lam: float
    monotone_ok: bool
    worst_step_slack: float
    started_ordered: bool
    interior_after_start: bool | None
    passed: bool


def decay_audit(
    field: VectorField,
    cone: QuadraticCone,
    lam: float,
    x0,
    y0,
    T: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float = np.inf,
) -> DecayAudit:
    """Integrate the pair (x0, y0) and track g(t) = e^{2 lam t} V(x - y).

    The two trajectories run as one coupled system, so they share accepted
    steps exactly. Pass requires g to fall: no step may rise by more than
    the roundoff allowance 1e-8 * |g| (a tiny step's true decrease can sit
    below roundoff, so the allowance is a noise band, not a minimum drop),
    the run as a whole must end strictly below its start, and, when the
    pair starts ordered (V <= 0), the difference must sit strictly inside
    the cone (V < 0) at every later node. Raises BadParameter unless both
    states have the field's length, IdenticalPoints if they coincide, and
    DomainExit if either trajectory leaves the domain before T.
    """
    times, xs, ys = _pair_run(field, x0, y0, T, rtol=rtol, atol=atol, max_step=max_step)
    V = cone._form(xs - ys)
    g = np.exp(2.0 * lam * times) * V

    rises = g[1:] - g[:-1]
    allowance = DECAY_SLACK_RTOL * np.abs(g[:-1])
    scale = np.maximum(np.abs(g[:-1]), np.finfo(float).tiny)
    monotone_ok = bool(np.all(rises <= allowance)) and bool(g[-1] < g[0])
    # Most positive relative rise; anything above DECAY_SLACK_RTOL fails.
    worst = float(np.max(rises / scale)) if len(rises) else 0.0

    started_ordered = V[0] <= 0.0
    interior_after = None
    if started_ordered:
        interior_after = bool(np.all(V[1:] < 0.0))
    passed = monotone_ok and (interior_after if started_ordered else True)

    return DecayAudit(
        times=times,
        values=g,
        lam=float(lam),
        monotone_ok=monotone_ok,
        worst_step_slack=worst,
        started_ordered=bool(started_ordered),
        interior_after_start=interior_after,
        passed=bool(passed),
    )


def ordered_pair_transport(
    field: VectorField,
    cone: QuadraticCone,
    x0,
    y0,
    T: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> list[OrderClass]:
    """Order classes of (x(t), y(t)) at every accepted node after t = 0.
    Raises BadParameter unless both states have the field's length,
    IdenticalPoints if they coincide, and DomainExit if either trajectory
    leaves the domain before T."""
    _, xs, ys = _pair_run(field, x0, y0, T, rtol=rtol, atol=atol)
    return [relate(cone, x, y).order for x, y in zip(xs[1:], ys[1:])]
