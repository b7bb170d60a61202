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

The margin is affine in the rate: margin(lam) = u + lam q, with
q = (x - y)^T P (x - y) / |x - y|^2. lambda_grid_search computes that
envelope once per sample, and at each rate scores with the margin
expression only the pairs whose envelope lies within 2 B of its top, B
bounding the rounding distance between a pair's envelope and its computed
margin. The pair with the worst margin, and every pair tied with it, is
always among them, so each report is bit for bit the one scoring every
pair gives; a grid costs about one scoring of the sample plus a few pairs
per rate.

decay_audit complements the sampling: it integrates one pair, as one state
whose rhs is the field's own rhs on the (2, n) batch of the pair, and
verifies the weighted form actually falls step by step.
"""

from __future__ import annotations

import math
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
# Rounding units of a double: the spacing at 1, and the smallest subnormal,
# the absolute error an underflowing product or quotient can make.
_EPS = float(np.finfo(float).eps)
_ETA = float(np.finfo(float).smallest_subnormal)
# Fewest rows a margin batch is scored in, short of the whole sample.
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


def _pair_scorer(field: VectorField, cone: QuadraticCone, X, Y):
    """The margins of the row pairs (X, Y), and the rows that can hold the
    worst of them, as functions of the rate; the field and |x - y|^2 are
    evaluated once per sample.

    score(lam, rows) is the one margin expression, on the rows given (every
    row by default). A row gets the bits it gets in the whole sample in any
    batch of at least _MIN_BATCH rows: numpy's einsum sums a batch of one
    or two rows in another order at n = 2. candidates(lam) indexes the rows
    whose envelope u + lam q lies within 2 B of its top, B bounding each
    row's distance between envelope and computed margin, with the first
    _MIN_BATCH rows; every row where the bound cannot be trusted.
    """
    D = X - Y
    # inf - inf where the field is infinite: a NaN margin, which the caller
    # refuses as NonFiniteDerivative, not a warning.
    with np.errstate(invalid="ignore"):
        dF = np.asarray(field(X)) - np.asarray(field(Y))
    den = np.einsum("ij,ij->i", D, D)
    P = cone.p_matrix

    def score(lam, rows=slice(None)):
        d = D[rows]
        return np.einsum("ij,jk,ik->i", d, P, dF[rows] + lam * d) / den[rows]

    # B bounds |env_i - m_i| whatever order numpy sums in (Higham, Accuracy
    # and Stability of Numerical Algorithms, ch. 3), c being about four
    # times the rounding steps the two computations take. Rounding errs by
    # at most c eps pf (L + |lam|) = c eps scale, where pf = sum |P_jk| >=
    # |P|_2 and L^2 is the sample's largest |dF_i|^2 / den_i. An
    # underflowing product or quotient errs by at most a subnormal eta
    # times the largest factor it meets, which size bounds, over den; kappa
    # = n eta / min(den) covers the underflow of den and |dF|^2 themselves.
    # The margin expression cannot overflow while c (n^2 size + scale +
    # max den) is finite.
    n = D.shape[1]
    c = 4.0 * (n * n + 8)
    with np.errstate(all="ignore"):
        quot = float(np.sqrt((np.einsum("ij,ij->i", dF, dF) / den).max()))
        pf = float(np.abs(P).sum())
        d_max = float(np.abs(D).max())
        f_max = float(np.abs(dF).max())
        den_max = float(den.max())
        eta_den = float(_ETA + _ETA / den.min())
        DP = D @ P
        u = np.einsum("ij,ij->i", DP, dF) / den
        q = np.einsum("ij,ij->i", DP, D) / den
        finite = bool(np.isfinite(u).all() and np.isfinite(q).all())
    head = np.arange(min(len(den), _MIN_BATCH))
    kappa = n * eta_den
    slack = (1.0 + kappa) * (quot + 2.0 * math.sqrt(kappa))

    def candidates(lam):
        rate = abs(float(lam))
        scale = pf * (slack + (1.0 + kappa) * rate)
        size = (1.0 + pf) * (1.0 + d_max) * (1.0 + f_max + rate * (1.0 + d_max))
        bound = c * (_EPS * scale + size * eta_den)
        overflow = c * (n * n * size + scale + den_max)
        if not (finite and math.isfinite(bound) and math.isfinite(overflow)):
            return np.arange(len(den))
        env = u + lam * q
        return np.union1d(np.flatnonzero(env >= env.max() - 2.0 * bound), head)

    return score, candidates


def pair_margin(field: VectorField, cone: QuadraticCone, lam: float, x, y) -> float:
    """Normalized pairwise decay margin for one pair of domain points, scored
    in a batch of _MIN_BATCH copies of its row: it gets the bits it gets in
    a sample, so a report's worst_pair gives back its worst_margin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (bool(field.domain.contains(x)) and bool(field.domain.contains(y))):
        raise DomainViolation("pair_margin needs both points inside the domain")
    _distinct_difference(x, y)
    copies = (_MIN_BATCH, 1)
    score, _ = _pair_scorer(field, cone, np.tile(x, copies), np.tile(y, copies))
    return float(score(lam)[0])


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
    derivative in the coupling slot is estimated by central differences
    with step FEEDBACK_FD_RTOL (1e-5) of the coordinate's range; Pass iff
    delta_i times the estimate is positive everywhere. The margin convention matches the other checks: negative is
    good, so worst_margin is the largest value of -delta_i * estimate.
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
    on them, once, with the envelope u + lam q of their margins. Each rate
    then scores exactly only the pairs that can hold its worst margin: those
    whose envelope lies within 2 B of the envelope's top, B bounding each
    pair's distance between envelope and computed margin (every pair where
    that bound cannot be trusted). One report per value, bit for bit the one
    scoring every pair gives, and equal to what certify_sampled gives at
    that rate.
    """
    if n_pairs < 1:
        raise BadParameter("n_pairs must be at least 1")
    dom = field.domain
    rng = np.random.default_rng(seed)
    X = dom.sample(rng, n_pairs)
    Y = dom.sample(rng, n_pairs)
    keep = np.linalg.norm(X - Y, axis=1) >= DEGENERATE_PAIR_RTOL * dom.diameter()
    if not np.any(keep):
        raise AllPairsDegenerate("all sampled pairs collapsed below the cutoff")
    X, Y = X[keep], Y[keep]
    score, candidates = _pair_scorer(field, cone, X, Y)
    reports = []
    # Only the candidate rows are scored, and the report is the one scoring
    # every row would give. With B bounding |env_i - m_i| for every row i,
    # m_i its computed margin, the worst row i* has, for every row j,
    #     env_i* >= m_i* - B >= m_j - B >= env_j - 2 B,
    # so i* is a candidate, and so is every row tied with it, which keeps
    # the first argmax in sample order. A row that is not a candidate has
    # m_j <= env_j + B < max(env) - B <= m_i*: finite, and strictly below
    # the worst. Where the bound cannot be trusted every row is scored.
    for lam in grid:
        rows = candidates(lam)
        margins = score(lam, rows)
        if not np.all(np.isfinite(margins)):
            raise NonFiniteDerivative("margin not finite at some sampled pair")
        k = int(np.argmax(margins))
        worst = int(rows[k])
        worst_margin = float(margins[k])
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
