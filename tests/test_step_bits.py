"""Same bits as the plain forms: the DP5 loop, the rhs closures, the parse,
pwl, contains.

The single-state path runs its step loop on Python floats: each family's
coordinate form (rhs.coordinates) on a list of floats, the stage sums
y + h (a_i0 k0 + a_i1 k1 + ...) coordinate by coordinate, left to right in
tableau order with zero weights skipped, the norms as sqrt of the squares
summed in order, the domain test on the floats; a field without a
coordinate form has its rhs called on an array and read back as floats. It
computes y_new once as the 7th stage's argument, and hands each attempt to
the per-run step decision shared with the ensemble, which binds the region
signature once per run and tests y_new for finiteness only when its
tolerance is not finite. It evaluates parsed fields inside one errstate,
ramps with np.minimum/np.maximum and skips a zero pad. The Hopf, ring and
parsed closures and Cylinder.contains read the coordinate-first view x.T.
Each of those must give exactly the floats and Booleans of the
straightforward form kept here as the oracle: the step loop on numpy
arrays (field(...) per stage, y_new computed apart from the 7th stage, the
same tableau-order sums as np.cumsum over the weighted stages, the norms
as sqrt of a cumsum of squares, np.isfinite on every stage), closures that
index x[..., j] (0-d arrays on a single state), np.clip ramps and the
padded comparisons. The oracle loop runs the oracle closures, so the two
sides share no rhs. A parse emits one source, run as an array form and as a
float form: on the grid the float form gives the array form's bytes, and
np.power(x, 2.0) the bytes of x * x, which the float form's square uses.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from kcone.domains import Box, Cylinder
from kcone.errors import NonFiniteState, StepUnderflow
from kcone.expressions import _compile, _Parser, hill, parse_expression, pwl
from kcone.fields import (
    VectorField,
    make_competitive_lv,
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)
from kcone.integrators import (
    _A,
    _E,
    KINK_FLOOR,
    UNDERFLOW_FRACTION,
    _hermite,
    _initial_step,
    _step_factor,
    integrate,
    integrate_backward,
)

HOPF_EXPRS = ["x1 - x2 - x1*(x1^2 + x2^2)", "x1 + x2 - x2*(x1^2 + x2^2)", "-4*x3"]
HOPF_DOMAIN = Cylinder(radius=1.2, rest=Box(lo=[-1.0], hi=[1.0]))


def plain_contains(domain, x, pad=0.0):
    """Membership with the pad always added, and np.all over the last axis."""
    x = np.asarray(x, dtype=float)
    if isinstance(domain, Cylinder):
        planar = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2) <= domain.radius + pad
        return planar & plain_contains(domain.rest, x[..., 2:], pad)
    return np.all((x >= domain.lo - pad) & (x <= domain.hi + pad), axis=-1)


def tableau_sum(weights, K):
    """sum_i weights[i] K[i] over the nonzero weights, left to right."""
    nonzero = weights != 0.0
    return np.cumsum(weights[nonzero, None] * K[nonzero], axis=0)[-1]


def ordered_norm(v) -> float:
    """sqrt of the squares of v summed in index order."""
    return float(np.sqrt(np.cumsum(v * v)[-1]))


def plain_integrate(field, x0, T, rtol=1e-8, atol=1e-10, max_step=np.inf):
    """The DP5 step loop in its plain form; returns times, states, derivs, events."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(field(x0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NonFiniteState("right-hand side not finite at x0")
    region = field.region_index
    ts, ys, fs, events = [0.0], [x0.copy()], [f0.copy()], []
    t, y, f = 0.0, x0.copy(), f0
    h = _initial_step(f0, x0, T, max_step, rtol, atol)
    cur_region = region(y) if region is not None else None
    K = np.empty((7, field.dim))
    while t < T:
        h = min(h, T - t, max_step)
        if h < UNDERFLOW_FRACTION * T:
            raise StepUnderflow("underflow")
        K[0] = f
        for i in range(1, 7):
            K[i] = field(y + h * tableau_sum(_A[i], K[:i]))
        y_new = y + h * tableau_sum(_A[6], K[:6])
        err = ordered_norm(h * tableau_sum(_E, K))
        tol = atol + rtol * ordered_norm(y_new)
        finite = np.isfinite(K).all() and np.isfinite(err)
        new_region = region(y_new) if region is not None and finite else cur_region
        if new_region != cur_region and h > KINK_FLOOR:
            lo_s, hi_s = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo_s + hi_s)
                if region(_hermite(y, f, y_new, K[6], h, mid)) == cur_region:
                    lo_s = mid
                else:
                    hi_s = mid
                if (hi_s - lo_s) * h < KINK_FLOOR:
                    break
            h = max(lo_s * h, KINK_FLOOR)
            continue
        if not finite:
            h *= 0.5
            continue
        if err > tol:
            h *= _step_factor(tol, err)
            continue
        if not np.isfinite(y_new).all():
            raise NonFiniteState("state not finite")
        f_new = K[6].copy()
        if not bool(plain_contains(field.domain, y_new)):
            lo_s, hi_s = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo_s + hi_s)
                y_mid = _hermite(y, f, y_new, f_new, h, mid)
                if bool(plain_contains(field.domain, y_mid)):
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
            events.append((t_exit, "domain_exit"))
            break
        t = T if h == T - t else t + h
        y, f = y_new, f_new
        ts.append(t)
        ys.append(y)
        fs.append(f)
        h *= _step_factor(tol, err)
        cur_region = new_region
    return np.asarray(ts), np.asarray(ys), np.asarray(fs), events


def clip_pwl(x, a, b):
    return np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)


def asarray_pwl(x, a, b):
    """pwl on np.asarray(x): a scalar x becomes a 0-d array first."""
    return np.minimum(1.0, np.maximum(0.0, (np.asarray(x, dtype=float) - a) / (b - a)))


def plain_hopf(field, omega, c):
    """The Hopf closure indexing x[..., j], with ** 2 on the columns."""

    def rhs(x):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        out = np.empty(x.shape)
        out[..., 0] = x[..., 0] - omega * x[..., 1] - x[..., 0] * r2
        out[..., 1] = omega * x[..., 0] + x[..., 1] - x[..., 1] * r2
        out[..., 2] = -c * x[..., 2]
        return out

    return dataclasses.replace(field, rhs=rhs)


def plain_goodwin(field, n, b=1.0, theta=1.0, m=4.0):
    """The Goodwin ring indexing x[..., j]."""

    def rhs(x):
        out = np.empty(x.shape)
        out[..., 0] = hill(x[..., n - 1], theta, m) - b * x[..., 0]
        for i in range(1, n):
            out[..., i] = x[..., i - 1] - x[..., i]
        return out

    return dataclasses.replace(field, rhs=rhs)


def plain_glass(field, n, lo=0.25, hi=1.75, amp=4.0):
    """The Glass ring indexing x[..., j], its ramps taken through np.clip."""

    def rhs(x):
        out = np.empty_like(x)
        out[..., 0] = amp * clip_pwl(x[..., n - 1], hi, lo) - x[..., 0]
        for i in range(1, n):
            out[..., i] = amp * clip_pwl(x[..., i - 1], lo, hi) - x[..., i]
        return out

    return dataclasses.replace(field, rhs=rhs)


# The plain parse's built-ins: name -> (arity, numpy function).
PLAIN_FUNCTIONS = {
    "sin": (1, np.sin), "cos": (1, np.cos), "exp": (1, np.exp), "tanh": (1, np.tanh),
    "abs": (1, np.abs), "min": (2, np.minimum), "max": (2, np.maximum),
    "hill": (3, hill), "pwl": (3, asarray_pwl),
}


class PlainParser(_Parser):
    """The parser's grammar with each rule returning a closure of the state
    array X: a variable reads X[..., j], a constant is a numpy float64, and
    each operator, power and built-in is its numpy form on the values."""

    def expr(self):
        depth = self.depth
        fn = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            self.deeper(tok)
            rhs = self.term()
            if tok.text == "+":
                fn = (lambda a, b: lambda X: a(X) + b(X))(fn, rhs)
            else:
                fn = (lambda a, b: lambda X: a(X) - b(X))(fn, rhs)
        self.depth = depth
        return fn

    def term(self):
        depth = self.depth
        fn = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            self.deeper(tok)
            rhs = self.unary()
            if tok.text == "*":
                fn = (lambda a, b: lambda X: a(X) * b(X))(fn, rhs)
            else:
                fn = (lambda a, b: lambda X: a(X) / b(X))(fn, rhs)
        self.depth = depth
        return fn

    def unary(self):
        tok = self.peek()
        self.deeper(tok)
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            inner = self.unary()
            fn = (lambda X: -inner(X)) if tok.text == "-" else inner
        else:
            fn = self.power()
        self.depth -= 1
        return fn

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.unary()
            return lambda X: np.power(base(X), exponent(X))
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            value = np.float64(tok.text)
            return lambda X: value
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(tok)
            if tok.text in self.var_index:
                j = self.var_index[tok.text]
                return lambda X: X[..., j]
            value = np.float64(self.params[tok.text])
            return lambda X: value
        fn = self.expr()
        self.expect_op(")")
        return fn

    def call(self, name_tok):
        arity, impl = PLAIN_FUNCTIONS[name_tok.text]
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        assert len(args) == arity
        return lambda X: impl(*[a(X) for a in args])


def plain_expression(text, names, params=None):
    """The plain parse of text as a callable of a state array."""
    fn = PlainParser(names, params or {}).parse(text)

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(X)
        return np.broadcast_to(np.asarray(out, dtype=float), X.shape[:-1]).copy()

    return evaluate


def plain_parsed(exprs, domain, params=None):
    """A parsed field evaluated coordinate by coordinate by the plain parse."""
    names = tuple(f"x{i + 1}" for i in range(len(exprs)))
    compiled = [plain_expression(text, names, params) for text in exprs]

    def rhs(x):
        out = np.empty_like(x)
        for i, fn in enumerate(compiled):
            out[..., i] = fn(x)
        return out

    return VectorField(dim=len(exprs), rhs=rhs, domain=domain, family="parsed")


def nan_below_zero():
    # x' = -x, undefined below 0: stages that overshoot past 0 come back NaN.
    def rhs(x):
        return np.array([np.nan]) if x[0] < 0.0 else -x

    field = dataclasses.replace(make_linear_field([[-1.0]]), domain=Box(lo=[-1.0], hi=[2.0]))
    return dataclasses.replace(field, rhs=rhs)


GLASS = make_cyclic_feedback(3, "glass_pwl", {"amp": 4.0})
GLASS = dataclasses.replace(GLASS, domain=Box(lo=[-0.5] * 3, hi=[4.5] * 3))
LV = make_competitive_lv(
    [[1.0, 0.8, 1.1], [1.1, 1.0, 0.8], [0.8, 1.1, 1.0]], [1.0, 1.0, 1.0]
)
SINK = dataclasses.replace(
    make_linear_field(np.diag([1.0, 1.0, -1.0])), domain=Box(lo=-np.ones(3), hi=np.ones(3))
)

HOPF = make_hopf_cylinder(1.0, 4.0)
HOPF_TIGHT = make_hopf_cylinder(2.0, 1.0)
GOODWIN = make_cyclic_feedback(3, "smooth_goodwin", {"m": 4.0})

# name -> (field the change runs, plain field, x0, T, keyword arguments)
CASES = {
    "hopf": (HOPF, plain_hopf(HOPF, 1.0, 4.0), [0.3, -0.5, 0.7], 30.0, {}),
    "hopf_exprs": (
        parse_field(HOPF_EXPRS, domain=HOPF_DOMAIN),
        plain_parsed(HOPF_EXPRS, HOPF_DOMAIN),
        [0.9, 0.2, -0.6], 30.0, {},
    ),
    "glass": (GLASS, plain_glass(GLASS, 3), [3.1, 0.2, 1.7], 50.0, {}),
    "goodwin": (GOODWIN, plain_goodwin(GOODWIN, 3), [0.4, 0.9, 0.2], 60.0, {}),
    "lv": (LV, None, [0.3, 1.4, 0.6], 60.0, {}),
    "domain_exit": (SINK, None, [0.2, 0.1, 0.5], 20.0, {}),
    "max_step": (HOPF, plain_hopf(HOPF, 1.0, 4.0), [0.5, 0.0, 0.1], 10.0,
                 {"max_step": 0.05}),
    "nan_stage": (nan_below_zero(), None, [1.0], 40.0, {}),
    "tight": (HOPF_TIGHT, plain_hopf(HOPF_TIGHT, 2.0, 1.0), [0.1, 0.0, 0.5], 20.0,
              {"rtol": 1e-11, "atol": 1e-13}),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_loop_keeps_the_plain_loops_bits(name):
    field, plain, x0, T, kw = CASES[name]
    traj = integrate(field, x0, T, **kw)
    times, states, derivs, events = plain_integrate(plain or field, x0, T, **kw)
    assert same_bits(traj.times, times)
    assert same_bits(traj.states, states)
    assert same_bits(traj.derivs, derivs)
    assert traj.events == events
    assert len(times) > 20


@pytest.mark.parametrize("name", sorted(CASES))
def test_work_counters(name):
    """n_rhs is what a counting rhs sees; the other counters add up to it."""
    field, _, x0, T, kw = CASES[name]
    calls = [0]

    def counted(x):
        calls[0] += 1
        return field.rhs(x)

    traj = integrate(dataclasses.replace(field, rhs=counted), x0, T, **kw)
    assert traj.n_rhs == calls[0]
    exits = len(traj.events)
    assert traj.n_accepted == len(traj.times) - 1 - exits
    attempted = traj.n_accepted + traj.n_rejected + traj.n_kink_retries + exits
    assert traj.n_rhs == 1 + 6 * attempted + exits
    assert (traj.n_exit_bisections > 0) == (exits > 0)
    assert (traj.n_kink_retries > 0) == (name == "glass")
    if name == "nan_stage":
        assert traj.n_rejected > 0
    if name == "domain_exit":
        assert exits == 1
    if name == "max_step":
        assert np.max(np.diff(traj.times)) <= 0.05 + 1e-12

    # integrate_backward runs the reversed field forward: the same counts.
    back = integrate_backward(field, traj.final_state, 0.5 * traj.t_end, **kw)
    fwd = integrate(dataclasses.replace(field, rhs=lambda x: -field.rhs(x)),
                    traj.final_state, 0.5 * traj.t_end, **kw)
    counters = ("n_rhs", "n_accepted", "n_rejected", "n_kink_retries", "n_exit_bisections")
    assert [getattr(back, c) for c in counters] == [getattr(fwd, c) for c in counters]


# ---- the parsed rhs ----

SPECIAL = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 1e155, 0.0, -0.0,
                    5e-324, -2.2e-308, 1.0, -1.0, 0.25, 1.75, 1e-200, -1e-200])
EXPRS = [
    "x1 - x2 - x1*(x1^2 + x2^2)",
    "exp(x3) / x1 + sin(x2)",
    "pwl(x1, 1.75, 0.25) * a - x3",
    "hill(x2, 1, 4) - tanh(x3) + abs(x1)",
    "max(x1, x2) - min(x2, x3)^2",
    "(0 - x1)^0.5",
    "1e160",
    "a",
]


def special_states():
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(SPECIAL, SPECIAL, SPECIAL[::3]), axis=-1).reshape(-1, 3)
    return np.concatenate([grid, rng.normal(scale=3.0, size=(500, 3))])


def test_parsed_rhs_equals_per_coordinate_parse_expression():
    domain = Box(lo=-np.ones(3), hi=np.ones(3))
    names = ("x1", "x2", "x3")
    X = special_states()
    for exprs in (EXPRS[:3], EXPRS[3:6], EXPRS[5:]):
        field = parse_field(exprs, params={"a": 2.0}, domain=domain)
        plain = [parse_expression(e, names, {"a": 2.0}) for e in exprs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = field.rhs(X)
            singles = [field.rhs(x) for x in X[::7]]
        assert same_bits(batch, np.stack([fn(X) for fn in plain], axis=-1))
        for x, got in zip(X[::7], singles):
            assert same_bits(got, np.stack([fn(x) for fn in plain], axis=-1))
        assert not np.isfinite(batch).all()  # the grid does reach NaN and inf


def test_parsed_rhs_converts_its_input_like_parse_expression():
    field = parse_field(["x1 / 2", "x2 ^ 0.5"], domain=Box(lo=[0.0, 0.0], hi=[9.0, 9.0]))
    assert same_bits(field.rhs(np.array([3.0, 4.0])), np.array([1.5, 2.0]))
    assert same_bits(field.rhs([3.0, 4.0]), np.array([1.5, 2.0]))
    assert same_bits(field([3, 4]), np.array([1.5, 2.0]))


# ---- the closures against their plain forms, on every shape ----

def shaped(X):
    """States of shape (n,), one (m, n) batch and one (a, b, n) batch."""
    a = 7
    return [*X[::97], X, X[:a * (len(X) // a)].reshape(a, -1, X.shape[-1])]


PARSED_DOMAIN = Box(lo=-np.ones(3), hi=np.ones(3))
# name -> (field the change runs, field with the plain closure)
RHS_ORACLES = {
    "hopf": (HOPF, plain_hopf(HOPF, 1.0, 4.0)),
    "hopf_tight": (HOPF_TIGHT, plain_hopf(HOPF_TIGHT, 2.0, 1.0)),
    "goodwin": (GOODWIN, plain_goodwin(GOODWIN, 3)),
    "glass": (GLASS, plain_glass(GLASS, 3)),
    "parsed": (parse_field(EXPRS[:3], params={"a": 2.0}, domain=PARSED_DOMAIN),
               plain_parsed(EXPRS[:3], PARSED_DOMAIN, params={"a": 2.0})),
    "parsed_more": (parse_field(EXPRS[3:6], domain=PARSED_DOMAIN),
                    plain_parsed(EXPRS[3:6], PARSED_DOMAIN)),
}


@pytest.mark.parametrize("name", sorted(RHS_ORACLES))
def test_rhs_equals_the_plain_closure(name):
    field, plain = RHS_ORACLES[name]
    X = special_states()
    for x in shaped(X):
        with np.errstate(all="ignore"):
            assert same_bits(field.rhs(x), plain.rhs(x)), x.shape
    with np.errstate(all="ignore"):
        assert not np.isfinite(field.rhs(X)).all()  # the grid reaches NaN and inf


@pytest.mark.parametrize("text", EXPRS + [
    "pwl(x1, x2, x3)", "pwl(x1, 2, 2)", "pwl(1, 2, 2) + x2", "pwl(0.5, 0, 1)",
    "x1^2 + x2^3 - 2^x3", "-x1 / -0", "hill(x1, x2, x3) * (x1 - x2)",
])
def test_parse_expression_equals_the_plain_parse(text):
    names = ("x1", "x2", "x3")
    new = parse_expression(text, names, {"a": 2.0})
    old = plain_expression(text, names, {"a": 2.0})
    for x in shaped(special_states()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(new(x), old(x)), x.shape


# ---- the float form of a parse against its array form ----

# Every operator and built-in: x/0, x/-0, 0/0 and inf/inf; min and max with
# NaN and with signed zeros in both argument orders (the grid supplies them
# as x1 and x2 too); a zero-width ramp; a sign on zero; no variable at all.
FORM_EXPRS = EXPRS + [
    "x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2", "x1 / x2 / x3", "x1 * x2 / x3 - x2 / x1 * x3",
    "-x1", "+x1", "- -x1", "x1 - -x2",
    "x1 ^ x2", "x1 ^ 2", "x1 ^ -2", "x1 ^ 3", "x1 ^ 0.5", "2 ^ x1", "x1 ^ x2 ^ x3", "-x1 ^ 2",
    "sin(x1)", "cos(x1)", "exp(x1)", "tanh(x1)", "abs(x1)", "abs(-0)",
    "min(x1, x2)", "min(x2, x1)", "max(x1, x2)", "max(x2, x1)",
    "min(x1, nan)", "min(nan, x1)", "max(x1, nan)", "max(nan, x1)",
    "min(x1, -0)", "min(-0, x1)", "max(x1, -0)", "max(-0, x1)", "min(0, -0)", "max(-0, 0)",
    "hill(x1, 1, 4)", "hill(x1, 1, 2)", "hill(x1, x2, x3)", "hill(0, 1, 4)", "hill(-2, 1, 3)",
    "pwl(x1, 0.25, 1.75)", "pwl(x1, 1.75, 0.25)", "pwl(x1, 2, 2)", "pwl(x1, x2, x3)",
    "x1 / 0", "x1 / -0", "0 / 0", "inf / inf", "-0", "2 + 3 * 4 / 0", "inf - inf + x1",
]
FORM_PARAMS = {"a": 2.0, "inf": np.inf, "nan": np.nan}


@pytest.mark.parametrize("text", FORM_EXPRS)
def test_float_form_has_the_array_form_bytes(text):
    """On each state of the grid, the float form on the state's list of
    floats gives byte for byte what the array form gives on the state,
    signed zeros and infinities included, and NaN where it gives NaN. Where
    two NaNs meet, numpy's compiled add keeps the other operand's sign than
    Python's, as a batch row's SIMD loop may, so a NaN reads as one NaN."""
    array_form, float_form = _compile([text], ("x1", "x2", "x3"), FORM_PARAMS)
    X = special_states()
    with np.errstate(all="ignore"):
        got = np.array([float_form(x.tolist()) for x in X], dtype=float)
        want = np.array([array_form(x) for x in X], dtype=float)
    assert same_bits_but_nan(got, want)


def test_numpy_squares_with_the_bits_of_a_product():
    """The float form's x^2 is x*x; the array form calls np.power(x, 2.0).
    Both must have the same bytes, on arrays and on numpy scalars."""
    rng = np.random.default_rng(2)
    draws = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-300.0, 300.0, 10**6)
    x = np.concatenate([SPECIAL, np.nextafter(SPECIAL, np.inf), draws])
    with np.errstate(all="ignore"):
        assert same_bits(np.power(x, 2.0), x * x)
        for v in np.concatenate([SPECIAL, draws[:1000]]):
            assert same_bits(np.power(v, 2.0), float(v) * float(v))


# ---- pwl ----

def ramp_grid(a, b):
    rng = np.random.default_rng(5)
    edges = np.array([a, b, 0.5 * (a + b)])
    near = np.concatenate([np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2e-308, -2.2e-308, 1e308, -1e308])
    return np.concatenate([edges, near, special, rng.normal(scale=2.0, size=100_000)])


@pytest.mark.parametrize("a, b", [(0.25, 1.75), (1.75, 0.25), (0.0, 1.0), (1.0, 0.0),
                                  (-0.0, 2.0), (3.0, -0.0)])
def test_pwl_equals_np_clip(a, b):
    x = ramp_grid(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pwl(x, a, b)
    assert same_bits(got, clip_pwl(x, a, b))
    for v in x[:20]:
        scalar = pwl(float(v), a, b)
        assert type(scalar) is type(clip_pwl(float(v), a, b))
        assert same_bits(scalar, clip_pwl(float(v), a, b))


def test_pwl_divides_python_floats_by_numpy_rules():
    """A zero-width ramp on Python floats gives what it gives on arrays."""
    with np.errstate(all="ignore"):
        for x in (1.0, 2.0, 3.0):
            got = pwl(x, 2.0, 2.0)
            assert type(got) is np.float64
            assert same_bits(got, asarray_pwl(x, 2.0, 2.0))
    with pytest.warns(RuntimeWarning):
        pwl(1.0, 2.0, 2.0)


def test_falling_ramp_keeps_negative_zero_at_its_start():
    # (a - a) / (b - a) is -0.0 for b < a; np.clip keeps that sign.
    assert np.signbit(pwl(1.75, 1.75, 0.25))
    assert np.signbit(pwl(np.array([1.0]), 1.0, 0.0)[0])
    assert not np.signbit(pwl(0.25, 0.25, 1.75))


# ---- contains ----

def boundary_points(domain, rng):
    if isinstance(domain, Cylinder):  # its bounding box
        r = domain.radius
        lo = np.concatenate([[-r, -r], domain.rest.lo])
        hi = np.concatenate([[r, r], domain.rest.hi])
    else:
        lo, hi = domain.lo, domain.hi
    pts = [rng.uniform(lo - 0.2, hi + 0.2, size=(2000, domain.dim))]
    for edge in (lo, hi):
        for j in range(domain.dim):
            p = rng.uniform(lo, hi, size=(50, domain.dim))
            p[:, j] = edge[j]
            pts += [p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    if isinstance(domain, Cylinder):
        ang = rng.uniform(0.0, 2.0 * np.pi, 200)
        ring = np.zeros((200, domain.dim))
        ring[:, 0] = domain.radius * np.cos(ang)
        ring[:, 1] = domain.radius * np.sin(ang)
        pts += [ring, np.nextafter(ring, np.inf), np.nextafter(ring, 0.0)]
    special = np.zeros((6, domain.dim))
    special[0, 0], special[1, 0], special[2, -1], special[3, -1] = np.nan, np.inf, -np.inf, -0.0
    special[4, 0], special[5, -1] = 1e200, -1e-200
    return np.concatenate(pts + [special])


@pytest.mark.parametrize("domain", [
    Box(lo=[-1.0, 0.0, 0.25], hi=[1.0, 2.0, 1.75]),
    Box(lo=[-0.0], hi=[3.0]),
    HOPF_DOMAIN,
    Cylinder(radius=2.5, rest=Box(lo=[0.0, -1.0], hi=[1.0, 0.5])),
], ids=["box3", "box1", "cylinder", "cylinder4"])
@pytest.mark.parametrize("pad", [0.0, -0.0, 1e-12, 0.1])
def test_contains_equals_the_padded_comparison(domain, pad):
    X = boundary_points(domain, np.random.default_rng(3))
    with np.errstate(over="ignore"):
        for x in shaped(X)[-2:]:
            assert same_bits(domain.contains(x, pad=pad), plain_contains(domain, x, pad))
        for x in [*X[::37], *X[-6:]]:
            one = domain.contains(x, pad=pad)
            assert type(one) is np.bool_
            assert one == plain_contains(domain, x, pad)


# ---- the coordinate forms the float loop runs ----

LINEAR = make_linear_field([[-1.0, 2.0, 0.5], [0.3, -1.0, 0.0], [1.5, 0.25, -2.0]])
# name -> field whose rhs carries a coordinate form
COORDINATE_FIELDS = {
    "linear": LINEAR,
    "hopf": HOPF,
    "goodwin": GOODWIN,
    "glass": GLASS,
    "lv": LV,
    "parsed": parse_field(EXPRS[:3], params={"a": 2.0}, domain=PARSED_DOMAIN),
    "parsed_more": parse_field(EXPRS[3:6], domain=PARSED_DOMAIN),
    "parsed_constants": parse_field(EXPRS[5:], domain=PARSED_DOMAIN, params={"a": 2.0}),
}


def same_bits_but_nan(a, b) -> bool:
    """Bit for bit, except that every NaN reads as one NaN: a NaN's sign and
    payload depend on the instruction that made it (a scalar or a SIMD
    loop), and no step keeps a NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and same_bits(a[~nan], b[~nan]))


@pytest.mark.parametrize("name", sorted(COORDINATE_FIELDS))
def test_coordinate_form_on_floats_is_the_batch_rhs(name):
    """g on one state's list of floats gives, bit for bit, that state's row
    of the array rhs on a whole batch, infinities and signed zeros
    included, and NaN where the row has NaN."""
    field = COORDINATE_FIELDS[name]
    g = field.rhs.coordinates
    X = special_states()
    with np.errstate(all="ignore"):
        batch = field.rhs(X)
        rows = np.array([np.asarray(g(x.tolist()), dtype=float) for x in X])
    assert same_bits_but_nan(rows, batch)
    assert np.isnan(batch).any() and np.isinf(batch).any()


# name -> (field, x0, T, keyword arguments); every family and a parsed field
ADAPTER_CASES = {
    "hopf": (HOPF, [0.3, -0.5, 0.7], 30.0, {}),
    "glass": (GLASS, [3.1, 0.2, 1.7], 50.0, {}),
    "goodwin": (GOODWIN, [0.4, 0.9, 0.2], 60.0, {}),
    "linear": (SINK, [0.2, 0.1, 0.5], 20.0, {}),
    "lv": (LV, [0.3, 1.4, 0.6], 60.0, {}),
    "parsed": (parse_field(HOPF_EXPRS, domain=HOPF_DOMAIN), [0.9, 0.2, -0.6], 30.0, {}),
}


@pytest.mark.parametrize("name", sorted(ADAPTER_CASES))
def test_float_path_equals_the_array_adapter(name):
    """A field whose rhs is replaced by a plain array function has no
    coordinate form, so integrate calls it on arrays and reads the values
    back as floats: the same Trajectory bytes, counters and events."""
    field, x0, T, kw = ADAPTER_CASES[name]
    plain = dataclasses.replace(field, rhs=lambda x: field.rhs(x))
    assert hasattr(field.rhs, "coordinates") and not hasattr(plain.rhs, "coordinates")
    a, b = integrate(field, x0, T, **kw), integrate(plain, x0, T, **kw)
    for attr in ("times", "states", "derivs"):
        assert same_bits(getattr(a, attr), getattr(b, attr)), attr
    assert a.events == b.events
    counters = ("n_rhs", "n_accepted", "n_rejected", "n_kink_retries", "n_exit_bisections")
    assert [getattr(a, c) for c in counters] == [getattr(b, c) for c in counters]
    if name == "linear":
        assert a.events  # the sink leaves its box


# ---- no BLAS: the node bytes do not depend on OpenBLAS's kernel ----

NODE_DIGEST = """
import hashlib
from kcone.fields import make_cyclic_feedback, make_hopf_cylinder
from kcone.integrators import integrate

digest = hashlib.sha256()
runs = [(make_cyclic_feedback(3, "smooth_goodwin", {"m": 4.0}), [0.4, 0.9, 0.2], 60.0),
        (make_hopf_cylinder(1.0, 4.0), [0.3, -0.5, 0.7], 30.0)]
for field, x0, T in runs:
    traj = integrate(field, x0, T)
    for nodes in (traj.times, traj.states, traj.derivs):
        digest.update(nodes.tobytes())
print(digest.hexdigest())
"""


def _openblas_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH, "
                           "so OPENBLAS_CORETYPE selects no other kernel")
def test_node_bytes_do_not_depend_on_the_openblas_core_type():
    """A Goodwin run and a Hopf run give the same node bytes under OpenBLAS's
    default kernel and under the Prescott one: the DP5 loop calls no BLAS."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import kcone

    src = str(Path(kcone.__file__).resolve().parent.parent)
    digests = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", NODE_DIGEST], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
