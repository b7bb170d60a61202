"""Vector fields: built-in model families, parsed fields, equilibrium search.

A VectorField bundles a vectorized right-hand side with its declared domain
and whatever structural extras a family carries: a closed-form Jacobian when
one exists, per-coordinate coupling components and their declared signs for
feedback rings, and a region signature for fields with ramp corners so the
integrator can localize the kinks.

Families:
  * linear: F(x) = A x on a large box.
  * hopf_cylinder: planar limit-cycle normal form with rotation rate omega
    and an exponentially contracting third axis (rate c), on the cylinder
    r <= radius, |x3| <= z_bound. The unit circle r = 1 attracts, giving an
    exact periodic orbit of period 2 pi / omega.
  * cyclic_feedback: a ring x_i' = f_i(x_i, x_{i-1}), either smooth
    (repressive Hill production in the last variable, linear decay) or
    piecewise-linear ramps.
  * competitive_lv: x_i' = x_i (r_i - sum_j A_ij x_j), all interactions
    nonnegative.

Each family writes its right-hand side once, over coordinates: g(X)
returns the n coordinate values of X, where X is a list of n floats (one
state) or the coordinate-first view x.T of a batch x of shape (..., n),
whose X[i] is the column x[..., i] transposed. The array rhs calls g on
x.T and writes coordinate i into out.T[i], and carries g as
rhs.coordinates, which the DP5 loop of `integrate` runs on Python floats.
Every operation is elementwise, so one state and a batch row get the same
bits, the float form included: the linear and LV families sum
A_i0 X[0] + A_i1 X[1] + ... in that order, with no matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import Box, Cylinder, Domain
from .errors import BadParameter, DimensionMismatch
from .expressions import _compile, _ramp, hill

# Side length of the default box for globally defined linear fields.
LINEAR_BOUND = 1e4
# Relative step for the central-difference Jacobian inside Newton.
NEWTON_FD_STEP = 1e-7
# Newton's residual target and iteration cap, and the distance below which
# two roots are one equilibrium.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
EQUILIBRIUM_DEDUPE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class VectorField:
    dim: int
    rhs: Callable
    domain: Domain
    family: str
    jacobian: Callable | None = None
    components: tuple | None = None
    deltas: tuple | None = None
    region_index: Callable | None = None

    def __call__(self, x) -> np.ndarray:
        return self.rhs(np.asarray(x, dtype=float))


def _coordinate_rhs(g: Callable) -> Callable:
    """The array rhs of the coordinate form g, carrying g as .coordinates."""

    def rhs(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        O = out.T
        for i, value in enumerate(g(x.T)):
            O[i] = value
        return out

    rhs.coordinates = g
    return rhs


def _ordered_dot(row, X):
    """row[0] X[0] + row[1] X[1] + ..., summed left to right."""
    s = row[0] * X[0]
    for j in range(1, len(row)):
        s = s + row[j] * X[j]
    return s


def fd_jacobian(fn: Callable, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of fn at x with absolute step per axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        J[:, j] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * step)
    return J


def make_linear_field(A) -> VectorField:
    """F(x) = A x on the box |x_i| <= LINEAR_BOUND; another domain goes in
    with dataclasses.replace(field, domain=...)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise BadParameter("matrix entries must be finite")
    n = A.shape[0]
    domain = Box(lo=-LINEAR_BOUND * np.ones(n), hi=LINEAR_BOUND * np.ones(n))

    rows = A.tolist()

    def g(X):
        return [_ordered_dot(row, X) for row in rows]

    return VectorField(
        dim=n, rhs=_coordinate_rhs(g), domain=domain, family="linear",
        jacobian=lambda x: A.copy(),
    )


def make_hopf_cylinder(
    omega: float, c: float, radius: float = 1.2, z_bound: float = 1.0
) -> VectorField:
    """Planar Hopf normal form and a decaying vertical axis.

    F(x1, x2, x3) = (x1 - omega x2 - x1 r^2, omega x1 + x2 - x2 r^2, -c x3)
    with r^2 = x1^2 + x2^2. The symmetric part of the planar Jacobian has
    eigenvalues 1 - 3 r^2 and 1 - r^2, so on r <= radius the planar
    one-sided Lipschitz bound is 3 radius^2 - 1.
    """
    if omega == 0.0 or not np.isfinite(omega):
        raise BadParameter("omega must be nonzero and finite")
    if not (c > 0.0 and np.isfinite(c)):
        raise BadParameter("c must be positive and finite")

    omega, c = float(omega), float(c)

    def g(X):
        x1, x2, x3 = X
        r2 = x1 * x1 + x2 * x2
        return (x1 - omega * x2 - x1 * r2, omega * x1 + x2 - x2 * r2, -c * x3)

    def jac(x):
        x1, x2 = x[0], x[1]
        r2 = x1 * x1 + x2 * x2
        return np.array(
            [
                [1.0 - r2 - 2.0 * x1 * x1, -omega - 2.0 * x1 * x2, 0.0],
                [omega - 2.0 * x1 * x2, 1.0 - r2 - 2.0 * x2 * x2, 0.0],
                [0.0, 0.0, -c],
            ]
        )

    domain = Cylinder(radius=radius, rest=Box(lo=[-z_bound], hi=[z_bound]))
    return VectorField(dim=3, rhs=_coordinate_rhs(g), domain=domain, family="hopf_cylinder",
                       jacobian=jac)


def make_cyclic_feedback(n: int, kind: str = "smooth_goodwin", params: dict | None = None) -> VectorField:
    """Feedback ring x_i' = f_i(x_i, x_{i-1}) with declared coupling signs.

    Each f_i is written once, as components[i](x_i, x_prev) (prev meaning
    i - 1 cyclically); the rhs evaluates exactly these functions, so the
    coupling-sign check reads the field that is integrated.

    smooth_goodwin: f_1 = hill(x_n, theta, m) - b x_1 and f_i = x_{i-1} - x_i
    for i >= 2; coupling signs (-1, +1, ..., +1), a negative loop. Domain
    box [0.05, 3]^n.

    glass_pwl: f_i = amp * ramp(x_{i-1}) - x_i where the first ramp falls
    (pwl(x, hi, lo)) and the others rise (pwl(x, lo, hi)); same sign pattern.
    The ramps are strictly monotone only between their thresholds, so the
    declared domain box sits strictly inside the ramp band. The field also
    exposes a region signature (which side of each band every coupling
    coordinate is on) for kink localization during integration.
    """
    if n < 2:
        raise BadParameter("a feedback ring needs at least 2 coordinates")
    p = dict(params or {})
    jac = region = None

    if kind == "smooth_goodwin":
        b = float(p.pop("b", 1.0))
        theta = float(p.pop("theta", 1.0))
        m = float(p.pop("m", 4.0))
        if p:
            raise BadParameter(f"unknown smooth_goodwin parameters {sorted(p)}")
        if b <= 0 or theta <= 0 or m <= 0:
            raise BadParameter("smooth_goodwin needs b, theta, m all positive")

        first, rest = (
            lambda xi, xp: hill(xp, theta, m) - b * xi,
            lambda xi, xp: xp - xi,
        )

        def hill_slope(x):
            tm = theta**m
            xm = np.power(x, m)
            return -m * tm * np.power(x, m - 1.0) / (tm + xm) ** 2

        def jac(x):
            J = np.zeros((n, n))
            J[0, 0] = -b
            J[0, n - 1] = hill_slope(x[n - 1])
            for i in range(1, n):
                J[i, i - 1] = 1.0
                J[i, i] = -1.0
            return J

        domain = Box(lo=0.05 * np.ones(n), hi=3.0 * np.ones(n))

    elif kind == "glass_pwl":
        lo = float(p.pop("lo", 0.25))
        hi = float(p.pop("hi", 1.75))
        amp = float(p.pop("amp", 2.0))
        if p:
            raise BadParameter(f"unknown glass_pwl parameters {sorted(p)}")
        if not (hi > lo and amp > 0):
            raise BadParameter("glass_pwl needs hi > lo and amp > 0")

        first, rest = (
            lambda xi, xp: amp * _ramp(xp, hi, lo) - xi,
            lambda xi, xp: amp * _ramp(xp, lo, hi) - xi,
        )

        def region(x):
            # One digit per coupling coordinate: 0 below, 1 inside, 2 above
            # its ramp band. Steps crossing a digit change get localized.
            sig = []
            for i in range(n):
                v = x[(i - 1) % n]
                sig.append(0 if v < lo else (1 if v <= hi else 2))
            return tuple(sig)

        # Strictly inside the ramp band so the couplings keep a nonzero slope.
        pad = 0.05 * (hi - lo)
        domain = Box(lo=(lo + pad) * np.ones(n), hi=(hi - pad) * np.ones(n))

    else:
        raise BadParameter(f"unknown cyclic feedback kind {kind!r}")

    components = (first,) + (rest,) * (n - 1)

    def g(X):
        return [f(X[i], X[i - 1]) for i, f in enumerate(components)]

    return VectorField(
        dim=n,
        rhs=_coordinate_rhs(g),
        domain=domain,
        family="cyclic_feedback",
        jacobian=jac,
        components=components,
        deltas=(-1,) + (1,) * (n - 1),
        region_index=region,
    )


def make_competitive_lv(A, r) -> VectorField:
    """Competitive Lotka-Volterra x_i' = x_i (r_i - sum_j A_ij x_j), on the
    box [-1e-9, 2 max_i r_i / A_ii]^n; another domain goes in with
    dataclasses.replace(field, domain=...)."""
    A = np.asarray(A, dtype=float)
    r = np.asarray(r, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or r.shape != (A.shape[0],):
        raise DimensionMismatch("need square A and matching growth vector r")
    if np.any(A < 0.0) or np.any(np.diag(A) <= 0.0):
        raise BadParameter("competitive systems need A >= 0 with positive diagonal")
    if np.any(r <= 0.0):
        raise BadParameter("growth rates must be positive")
    n = A.shape[0]
    cap = float(np.max(r / np.diag(A)))
    domain = Box(lo=np.zeros(n) - 1e-9, hi=2.0 * cap * np.ones(n))

    rows, rates = A.tolist(), r.tolist()

    def g(X):
        return [X[i] * (rates[i] - _ordered_dot(rows[i], X)) for i in range(n)]

    def jac(x):
        return np.diag(r - A @ x) - x[:, None] * A

    return VectorField(dim=n, rhs=_coordinate_rhs(g), domain=domain, family="competitive_lv",
                       jacobian=jac)


def parse_field(exprs, domain: Domain, params: dict | None = None) -> VectorField:
    """Build a field on domain from one expression string per coordinate,
    in the variables x1..xn; an expression has no domain of its own."""
    exprs = list(exprs)
    n = len(exprs)
    if n == 0:
        raise BadParameter("need at least one coordinate expression")
    if domain.dim != n:
        raise DimensionMismatch("domain dimension does not match the expressions")
    var_names = tuple(f"x{i + 1}" for i in range(n))
    array_form, float_form = _compile(exprs, var_names, params)

    def quiet(X):
        with np.errstate(all="ignore"):
            return array_form(X)

    rhs = _coordinate_rhs(quiet)
    # The float form, on one state's list of floats, has the array form's
    # bits; integrate runs it inside its own errstate.
    rhs.coordinates = float_form
    return VectorField(dim=n, rhs=rhs, domain=domain, family="parsed")


# ---- equilibria ----


@dataclass(frozen=True)
class Equilibrium:
    point: np.ndarray
    residual: float


@dataclass(frozen=True)
class EquilibriaResult:
    equilibria: list[Equilibrium]
    dropped: int


def find_equilibria(field: VectorField, seeds) -> EquilibriaResult:
    """Damped Newton from each seed; converged roots deduplicated.

    The Jacobian comes from the field when it carries one and from central
    differences otherwise. A step that fails to reduce the residual is
    halved, up to 30 times. Seeds that do not reach residual <= NEWTON_TOL
    in NEWTON_MAX_ITER iterations are dropped and counted, never reported;
    roots within EQUILIBRIUM_DEDUPE_TOL of each other count once, as the
    one with the smaller residual.
    """
    found: list[Equilibrium] = []
    dropped = 0
    for seed in seeds:
        x = np.asarray(seed, dtype=float).copy()
        if x.shape != (field.dim,):
            raise DimensionMismatch("seed dimension does not match the field")
        ok = False
        for _ in range(NEWTON_MAX_ITER):
            fx = np.asarray(field(x))
            res = float(np.linalg.norm(fx))
            if not np.isfinite(res):
                break
            if res <= NEWTON_TOL:
                ok = True
                break
            J = (
                field.jacobian(x)
                if field.jacobian is not None
                else fd_jacobian(field, x, step=NEWTON_FD_STEP * max(1.0, float(np.abs(x).max())))
            )
            try:
                step = np.linalg.solve(J, fx)
            except np.linalg.LinAlgError:
                break
            # Damping: halve until the residual actually drops.
            lam = 1.0
            for _ in range(30):
                trial = x - lam * step
                if float(np.linalg.norm(field(trial))) < res:
                    break
                lam *= 0.5
            else:
                break
            x = trial
        if ok:
            found.append(Equilibrium(point=x, residual=res))
        else:
            dropped += 1

    unique: list[Equilibrium] = []
    for eq in found:
        for j, kept in enumerate(unique):
            if np.linalg.norm(eq.point - kept.point) <= EQUILIBRIUM_DEDUPE_TOL:
                if eq.residual < kept.residual:
                    unique[j] = eq
                break
        else:
            unique.append(eq)
    unique.sort(key=lambda e: tuple(e.point))
    return EquilibriaResult(equilibria=unique, dropped=dropped)


def default_equilibrium_seeds(domain: Domain, extra=None) -> list[np.ndarray]:
    """Deterministic seeds: the domain's center; the center plus and minus a
    quarter width along each axis; on a box with n <= 6, its 2^n corners
    pulled in by a tenth of each width; then the points of extra."""
    center = domain.center()
    widths = domain.widths()
    seeds = [center]
    for e in np.diag(0.25 * widths):
        seeds += [center + e, center - e]
    n = center.shape[0]
    if isinstance(domain, Box) and n <= 6:
        for mask in range(2**n):
            corner = np.where(
                [(mask >> j) & 1 for j in range(n)],
                domain.lo + 0.1 * widths,
                domain.hi - 0.1 * widths,
            )
            seeds.append(corner.astype(float))
    if extra is not None:
        seeds.extend(np.asarray(p, dtype=float) for p in extra)
    return seeds
