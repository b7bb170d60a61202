"""Certificate checks: margins, exact linear case, feedback signs, audits."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcone.cones import OrderClass, make_quadratic_cone
from kcone.certify import (
    DECAY_SLACK_RTOL,
    DEGENERATE_PAIR_RTOL,
    ConditionReport,
    _pair_run,
    certify_linear,
    certify_sampled,
    certify_smith,
    check_cyclic_feedback,
    decay_audit,
    lambda_grid_search,
    ordered_pair_transport,
    pair_margin,
)
from kcone.domains import Box, Cylinder
from kcone.errors import (
    AllPairsDegenerate,
    BadParameter,
    DomainExit,
    DomainViolation,
    IdenticalPoints,
    KconeError,
    NonFiniteDerivative,
)
from kcone.fields import (
    VectorField,
    make_cyclic_feedback,
    make_competitive_lv,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)
from kcone.integrators import integrate

P_STD = np.diag([-1.0, -1.0, 1.0])


class _CollapsedDomain:
    """Stub domain whose every sample is the same point."""

    dim = 3

    def contains(self, x, pad=0.0):
        return np.full(np.asarray(x).shape[:-1], True)

    def diameter(self):
        return 1.0

    def sample(self, rng, m):
        return np.zeros((m, 3))


def _std_cone():
    return make_quadratic_cone(P_STD)


def _std_linear(half):
    """F(x) = -P_STD x on the box [-half, half]^3."""
    box = Box(lo=-half * np.ones(3), hi=half * np.ones(3))
    return dataclasses.replace(make_linear_field(-P_STD), domain=box)


def test_pair_margin_closed_form():
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-1.0, 1.0, 3)
        d = x - y
        lam = rng.uniform(-2.0, 2.0)
        want = float(d @ (P_STD @ (-P_STD @ d + lam * d))) / float(d @ d)
        assert pair_margin(field, cone, lam, x, y) == pytest.approx(want, rel=1e-12)
        # rate term enters through the cone margin of the difference
        base = pair_margin(field, cone, 0.0, x, y)
        shifted = pair_margin(field, cone, lam, x, y)
        assert shifted - base == pytest.approx(lam * cone.margin(d), abs=1e-12)


def test_pair_margin_validation():
    cone = _std_cone()
    field = _std_linear(1.0)
    with pytest.raises(DomainViolation):
        pair_margin(field, cone, 0.0, [5.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(IdenticalPoints):
        pair_margin(field, cone, 0.0, [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])


@pytest.mark.parametrize("seed", range(10))
def test_pair_margin_reproduces_the_worst_margin(seed):
    """pair_margin and the sampled checks share one scoring kernel, so the
    recorded worst pair gives back the recorded worst margin bit for bit."""
    cone = _std_cone()
    field = make_hopf_cylinder(1.0, 4.0)
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    for rep in lambda_grid_search(field, cone, grid, n_pairs=2000, seed=seed):
        got = pair_margin(field, cone, rep.lam, *rep.worst_pair)
        assert np.float64(got).tobytes() == np.float64(rep.worst_margin).tobytes()


def _worst_pair_misses(field, cone, rates, n_pairs, seed):
    return sum(
        pair_margin(field, cone, rep.lam, *rep.worst_pair) != rep.worst_margin
        for rep in lambda_grid_search(field, cone, rates, n_pairs=n_pairs, seed=seed)
    )


def test_pair_margin_reproduces_the_worst_margin_of_matmul_fields():
    """A batched rhs (x @ A.T) gives a one-row batch other bits than a
    sample; pair_margin's batch of copies does not."""
    box2 = Box(lo=-np.ones(2), hi=np.ones(2))
    plane = dataclasses.replace(make_linear_field([[1.0, 0.3], [0.7, -2.0]]), domain=box2)
    cone2 = make_quadratic_cone(np.diag([-1.0, 1.0]))
    misses = sum(
        _worst_pair_misses(plane, cone2, [0.0, 0.5, 1.0, 2.0], 500, seed) for seed in range(20)
    )
    assert misses == 0
    box3 = Box(lo=-np.ones(3), hi=np.ones(3))
    rng = np.random.default_rng(0)
    misses = sum(
        _worst_pair_misses(
            dataclasses.replace(make_linear_field(rng.normal(size=(3, 3))), domain=box3),
            _std_cone(),
            [0.0, 1.0, 2.0], 2000, seed,
        )
        for seed in range(20)
    )
    assert misses == 0


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_pair_margin_reproduces_the_worst_margin_of_tiny_samples_at_n2(n_pairs):
    """u and q give a row the same bits alone or in any batch, so at n = 2
    a sample of one, two or three pairs and pair_margin's copies agree."""
    box = Box(lo=[-1.0, -2.0], hi=[2.0, 1.0])
    field = parse_field(["x1 - x2^3 + 0.3*x1*x2", "sin(x1) - 2*x2"], domain=box)
    cone = make_quadratic_cone(np.array([[-1.0, 0.4], [0.4, 0.7]]))
    for seed in range(30):
        misses = _worst_pair_misses(field, cone, [0.0, -0.7, 0.3, 2.5], n_pairs, seed)
        assert misses == 0, seed


def _exact_forms(x, y, A, P):
    """The exact u and q of the pair (x, y) under F(v) = A v, and the same
    sums over |terms|, as Fractions of the floats given."""
    d = [Fraction(a) - Fraction(b) for a, b in zip(x, y)]
    dF = [sum(Fraction(a) * e for a, e in zip(row, d)) for row in A]
    den = sum(e * e for e in d)
    u = [d[i] * Fraction(p) * dF[j] for i, row in enumerate(P) for j, p in enumerate(row)]
    q = [d[i] * Fraction(p) * d[j] for i, row in enumerate(P) for j, p in enumerate(row)]
    return sum(u) / den, sum(q) / den, sum(map(abs, u)) / den, sum(map(abs, q)) / den


@pytest.mark.parametrize("seed", range(4))
def test_pair_margin_is_accurate_on_linear_fields(seed):
    """Against exact rationals, at n = 2..5: the margin u + lam q errs by at
    most 16 eps (|u| + |lam| |q| + 1), |u| and |q| read as the sums of the
    |terms| of their forms (an indefinite q cancels, so the error of lam q
    scales with those sums, not with q). F is a signed permutation with
    power-of-two entries, which the field evaluates exactly."""
    rng = np.random.default_rng(seed)
    eps = Fraction(np.finfo(float).eps)
    for n in range(2, 6):
        cone = make_quadratic_cone(_rotated_form(n, int(rng.integers(1, n)), rng))
        A = np.zeros((n, n))
        A[np.arange(n), rng.permutation(n)] = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], n)
        box = Box(lo=-np.ones(n), hi=np.ones(n))
        field = dataclasses.replace(make_linear_field(A), domain=box)
        for x, y in zip(box.sample(rng, 25), box.sample(rng, 25)):
            u, q, u_abs, q_abs = _exact_forms(x, y, A, cone.p_matrix)
            for lam in _GRID:
                got = Fraction(pair_margin(field, cone, lam, x, y))
                exact = u + Fraction(lam) * q
                assert abs(got - exact) <= 16 * eps * (u_abs + abs(Fraction(lam)) * q_abs + 1)


def test_certify_linear_exact_eigenvalues():
    cone = _std_cone()
    # A = -P gives P A + A^T P = -2 I: the clean pass, margin exactly -2
    rep = certify_linear(-P_STD, cone, 0.0)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(-2.0, abs=1e-12)
    assert rep.condition == "linear_lmi"
    assert rep.verdict == "pass"
    # same field, rate 4: -2 I + 4 P has top eigenvalue +2, so it fails
    rep = certify_linear(-P_STD, cone, 4.0)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(2.0, abs=1e-12)
    assert rep.verdict == "fail"
    # plain uniform contraction is not cone contraction: -4 P peaks at +4
    rep = certify_linear(-2.0 * np.eye(3), cone, 0.0)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(4.0, abs=1e-12)


def test_certify_linear_shape_check():
    with pytest.raises(BadParameter):
        certify_linear(np.eye(2), _std_cone(), 0.0)


def test_sampled_agrees_with_linear_verdict():
    # for F = A x the sampled margin is d^T M d / (2 |d|^2) at lam = 0,
    # so its supremum is half the top eigenvalue of M = P A + A^T P
    cone = _std_cone()
    rng = np.random.default_rng(3)
    for _ in range(6):
        A = -P_STD + 0.3 * rng.normal(size=(3, 3))
        field = make_linear_field(A)
        exact = certify_linear(A, cone, 0.0)
        sampled = certify_sampled(field, cone, 0.0, n_pairs=4000, seed=1)
        assert sampled.worst_margin <= 0.5 * exact.worst_margin + 1e-12
        if abs(exact.worst_margin) > 0.2:
            assert sampled.passed == exact.passed


_FORMS = [
    P_STD,
    np.diag([-1.0, 1.0, 1.0]),
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
]


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(float, (3, 3), elements=st.floats(-5.0, 5.0)),
    st.sampled_from(range(len(_FORMS))),
    hnp.arrays(float, 3, elements=st.floats(-3.0, 0.0)),
    hnp.arrays(float, 3, elements=st.floats(0.1, 3.0)),
    st.integers(0, 2**16),
)
def test_sampled_margin_never_exceeds_the_linear_bound(A, form, lo, width, seed):
    """At lam = 0 a linear field's pair margin is d^T (PA + A^T P) d / 2|d|^2,
    so no sample can beat half the top eigenvalue certify_linear reports."""
    cone = make_quadratic_cone(_FORMS[form])
    field = dataclasses.replace(make_linear_field(A), domain=Box(lo=lo, hi=lo + width))
    sampled = certify_sampled(field, cone, 0.0, n_pairs=300, seed=seed)
    exact = certify_linear(A, cone, 0.0)
    assert sampled.worst_margin <= 0.5 * exact.worst_margin + 1e-12


def test_certify_sampled_mechanics():
    cone = _std_cone()
    field = _std_linear(2.0)
    rep = certify_sampled(field, cone, 0.0, n_pairs=2000, seed=5)
    assert rep.passed
    assert rep.worst_margin == pytest.approx(-1.0, abs=1e-12)
    assert rep.n_samples <= 2000
    assert rep.boundary_band == cone.boundary_band
    # the recorded worst pair reproduces the recorded worst margin
    x, y = rep.worst_pair
    assert pair_margin(field, cone, 0.0, x, y) == pytest.approx(rep.worst_margin)
    again = certify_sampled(field, cone, 0.0, n_pairs=2000, seed=5)
    assert again.worst_margin == rep.worst_margin
    assert np.array_equal(again.worst_pair[0], x)


def test_certify_sampled_validation():
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    with pytest.raises(BadParameter):
        certify_sampled(field, cone, 0.0, n_pairs=0)
    with pytest.raises(AllPairsDegenerate):
        certify_sampled(
            dataclasses.replace(field, domain=_CollapsedDomain()), cone, 0.0, n_pairs=50
        )


def test_certify_sampled_nonfinite_margin():
    cone2 = make_quadratic_cone(np.diag([-1.0, 1.0]))
    field = parse_field(
        ["x1^0.5", "0 - x2"], domain=Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    )
    with pytest.raises(NonFiniteDerivative):
        certify_sampled(field, cone2, 0.0, n_pairs=500)


def test_certify_smith_epsilon_star():
    cone = _std_cone()
    field = _std_linear(1.0)
    base = certify_sampled(field, cone, 0.0, n_pairs=2000)
    rep = certify_smith(base, epsilon=0.5)
    assert rep.condition == "smith_epsilon"
    assert rep.passed
    assert rep.epsilon == 0.5
    assert rep.epsilon_star == pytest.approx(1.0, abs=1e-12)
    tight = certify_smith(base, epsilon=1.5)
    assert not tight.passed
    assert tight.worst_margin == rep.worst_margin
    # pass is exactly epsilon <= epsilon_star
    assert rep.passed == (rep.epsilon <= rep.epsilon_star)
    assert tight.passed == (tight.epsilon <= tight.epsilon_star)
    with pytest.raises(BadParameter):
        certify_smith(base, epsilon=0.0)


def test_certify_smith_reads_its_base_report():
    # the uniform-gap check keeps the base sample, rate, pair and band
    cone = _std_cone()
    field = _std_linear(1.0)
    base = certify_sampled(field, cone, 0.25, n_pairs=500, seed=3)
    rep = certify_smith(base, epsilon=0.1)
    for name in ("lam", "n_samples", "worst_margin", "worst_pair", "boundary_band"):
        assert getattr(rep, name) is getattr(base, name), name
    assert rep.epsilon_star == -base.worst_margin
    with pytest.raises(BadParameter):
        certify_smith(certify_linear(-P_STD, cone, 0.0), epsilon=0.1)
    with pytest.raises(BadParameter):
        certify_smith(base, epsilon=float("nan"))


def test_cyclic_feedback_signs():
    field = make_cyclic_feedback(3, "smooth_goodwin")
    rep = check_cyclic_feedback(field.components, field.deltas, field.domain)
    assert rep.passed
    assert rep.condition == "cyclic_feedback"
    assert rep.feedback_type == "negative"
    assert rep.worst_margin < 0.0
    assert bool(field.domain.contains(rep.worst_point))
    # flipping the declared first sign must be caught
    wrong = check_cyclic_feedback(field.components, (1, 1, 1), field.domain)
    assert not wrong.passed
    assert wrong.feedback_type == "positive"
    assert wrong.worst_margin > 0.0


def test_cyclic_feedback_glass_ring():
    field = make_cyclic_feedback(4, "glass_pwl")
    rep = check_cyclic_feedback(field.components, field.deltas, field.domain)
    assert rep.passed
    assert rep.feedback_type == "negative"


def test_cyclic_feedback_validation():
    field = make_cyclic_feedback(3, "smooth_goodwin")
    with pytest.raises(BadParameter):
        check_cyclic_feedback(field.components, (-1, 1), field.domain)
    with pytest.raises(BadParameter):
        check_cyclic_feedback(field.components, (-1, 0, 1), field.domain)


def test_cyclic_feedback_refuses_a_non_finite_coupling_derivative():
    nan = (lambda xi, xp: np.full(np.shape(xi), np.nan),) * 3
    box = Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    with pytest.raises(NonFiniteDerivative, match="component 0"):
        check_cyclic_feedback(nan, (-1, 1, 1), box)


def test_lambda_grid_search_runs_each_rate():
    cone = _std_cone()
    field = _std_linear(1.0)
    calls = []

    def counting_rhs(x):
        calls.append(len(x))
        return field.rhs(x)

    counted = dataclasses.replace(field, rhs=counting_rhs)
    grid = [0.0, 0.5, 1.0]
    reports = lambda_grid_search(counted, cone, grid, n_pairs=500, seed=2)
    # one sample per call: F on X and on Y, whatever the grid length
    assert calls == [500, 500]
    assert [r.lam for r in reports] == grid
    assert all(isinstance(r, ConditionReport) for r in reports)
    assert all(r.condition == "pairwise_lambda" for r in reports)
    # each report is bit-for-bit the one-rate check at that rate
    for rep, lam in zip(reports, grid):
        one = certify_sampled(field, cone, lam, n_pairs=500, seed=2)
        for f in dataclasses.fields(ConditionReport):
            if f.name != "worst_pair":
                assert getattr(rep, f.name) == getattr(one, f.name), f.name
        for a, b in zip(rep.worst_pair, one.worst_pair):
            assert a.tobytes() == b.tobytes()


def _reference_grid_search(field, cone, grid, n_pairs=10_000, seed=0):
    """lambda_grid_search by its definition, one pair at a time: pair i's
    margin at rate lam is u_i + lam q_i, where u_i and q_i are
    (x - y)^T P (F(x) - F(y)) and (x - y)^T P (x - y), their terms
    (d_i P_ij) e_j added from 0, i outer, over the sample's |x - y|^2. The
    first pair with the largest margin is the worst; a margin that is not
    finite is refused."""
    dom = field.domain
    rng = np.random.default_rng(seed)
    X = dom.sample(rng, n_pairs)
    Y = dom.sample(rng, n_pairs)
    keep = np.linalg.norm(X - Y, axis=1) >= DEGENERATE_PAIR_RTOL * dom.diameter()
    if not np.any(keep):
        raise AllPairsDegenerate("all sampled pairs collapsed below the cutoff")
    X, Y = X[keep], Y[keep]
    D = X - Y
    with np.errstate(invalid="ignore"):
        dF = np.asarray(field(X)) - np.asarray(field(Y))
    P = cone.p_matrix.tolist()

    def form(d, e):
        total = 0.0
        for i, row in enumerate(P):
            for j, p_ij in enumerate(row):
                total += d[i] * p_ij * e[j]
        return total

    den = np.einsum("ij,ij->i", D, D).tolist()
    lines = [(form(d, e) / s, form(d, d) / s) for d, e, s in zip(D.tolist(), dF.tolist(), den)]
    reports = []
    for lam in grid:
        margins = [u + float(lam) * q for u, q in lines]
        if not all(map(math.isfinite, margins)):
            raise NonFiniteDerivative("margin not finite at some sampled pair")
        worst = max(range(len(margins)), key=margins.__getitem__)
        worst_margin = margins[worst]
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


def _outcome(search, *args, **kwargs):
    """The reports of one search, or the type and message of its error."""
    try:
        return search(*args, **kwargs)
    except KconeError as exc:
        return type(exc), str(exc)


def _assert_same_search(field, cone, grid, **kwargs):
    """lambda_grid_search gives the reference's reports bit for bit, field
    by field, or raises the reference's error."""
    want = _outcome(_reference_grid_search, field, cone, grid, **kwargs)
    got = _outcome(lambda_grid_search, field, cone, grid, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert len(got) == len(want)
    for rep, ref in zip(got, want):
        for f in dataclasses.fields(ConditionReport):
            a, b = getattr(rep, f.name), getattr(ref, f.name)
            if f.name == "worst_pair":
                assert [v.tobytes() for v in a] == [v.tobytes() for v in b]
            elif f.name == "worst_margin":
                assert np.float64(a).tobytes() == np.float64(b).tobytes()
            else:
                assert a == b, f.name
    return want


_GRID = [0.0, -1.0, -0.25, 0.5, 3.0, 1e3, -1e3, 1e300, -1e300]


def _rotated_form(n, k, rng):
    """A symmetric form of rank k (k negative eigenvalues) in a random basis."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < k, -1.0, 1.0)
    return (Q * w) @ Q.T


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.data(),
    st.sampled_from(["linear", "lv"]),
    st.integers(0, 2**16),
)
def test_grid_search_is_the_all_rows_search(n, data, family, seed):
    """Linear and competitive LV fields, quadratic cones of every rank at
    n = 2..5, rates at 0, negative, 1e3 and 1e300."""
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, n - 1))
    cone = make_quadratic_cone(_rotated_form(n, k, rng))
    if family == "linear":
        field = make_linear_field(rng.uniform(-5.0, 5.0, (n, n)))
    else:
        A = rng.uniform(0.0, 2.0, (n, n)) + np.diag(rng.uniform(0.5, 1.5, n))
        field = make_competitive_lv(A, rng.uniform(0.5, 2.0, n))
    _assert_same_search(field, cone, _GRID, n_pairs=400, seed=seed)


@pytest.mark.parametrize("basis", [None, 2, 3, 4])
def test_grid_search_of_the_tied_sink(basis):
    """The sink's margins near rate 0 are -1 up to rounding on every pair;
    in the kbench basis hundreds of pairs share the top one (439 of 10,000
    at rate 0), and the report names the first of them in sample order. A
    rotated basis rounds each pair differently."""
    S = np.diag([1.0, 1.0, -1.0])
    Q = np.eye(3)
    if basis is not None:
        Q = np.linalg.qr(np.random.default_rng(basis).normal(size=(3, 3)))[0]
    field = make_linear_field(Q @ S @ Q.T)
    cone = make_quadratic_cone(-Q @ S @ Q.T)
    # run_certify's grid for [-1, 1, 0.1], whose middle rate is -2.2e-16
    grid = [0.0] + list(np.arange(-1.0, 1.05, 0.1))
    reports = _assert_same_search(field, cone, grid, n_pairs=10_000, seed=3)
    assert abs(reports[0].worst_margin + 1.0) < 1e-14


class _DuplicatingBox:
    """A box whose samples come in two identical halves."""

    def __init__(self, box):
        self.box = box
        self.dim = box.dim

    def diameter(self):
        return self.box.diameter()

    def sample(self, rng, m):
        half = self.box.sample(rng, (m + 1) // 2)
        return np.concatenate([half, half])[:m]


def test_grid_search_of_duplicated_pairs():
    """Each pair appears twice; the report names the first copy."""
    dup = _DuplicatingBox(Box(lo=-np.ones(3), hi=np.ones(3)))
    for A in (np.diag([1.0, 1.0, -1.0]), -P_STD):
        field = dataclasses.replace(make_linear_field(A), domain=dup)
        _assert_same_search(field, _std_cone(), _GRID, n_pairs=3000, seed=1)
    inside = _DuplicatingBox(Box(lo=[-0.8, -0.8, -1.0], hi=[0.8, 0.8, 1.0]))
    hopf = dataclasses.replace(make_hopf_cylinder(1.0, 4.0), domain=inside)
    _assert_same_search(hopf, _std_cone(), _GRID, n_pairs=3000, seed=2)


@pytest.mark.parametrize("side", [1e-155, 1e-159, 1e150, 3e151])
@pytest.mark.parametrize("seed", range(3))
def test_grid_search_on_tiny_and_huge_boxes(side, seed):
    """Sides whose |x - y|^2 is subnormal (at 1e-159 only a few digits of
    it are left) or near overflow. Every margin stays finite, at rate 1e300
    too: lam q cannot overflow where |q| <= |P|."""
    box = Box(lo=np.zeros(3), hi=side * np.ones(3))
    A = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.1, -1.0]])
    for matrix in (A, np.diag([1.0, 1.0, -1.0])):
        field = dataclasses.replace(make_linear_field(matrix), domain=box)
        for grid in ([0.0, -0.5, 2.0, 1e3], [1e300, -1e300]):
            reports = _assert_same_search(field, _std_cone(), grid, n_pairs=2000, seed=seed)
            assert [r.lam for r in reports] == grid


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_grid_search_of_a_field_not_finite_on_part_of_the_domain(bad):
    """The same NonFiniteDerivative as scoring every row, and no warning."""
    base = _std_linear(1.0)

    def rhs(x):
        return np.where(x[..., :1] > 0.9, bad, base.rhs(x))

    field = dataclasses.replace(base, rhs=rhs)
    err = _assert_same_search(field, _std_cone(), [0.0, 1.0], n_pairs=2000, seed=4)
    assert err == (NonFiniteDerivative, "margin not finite at some sampled pair")


class _ReferenceProductDomain:
    """Two stacked copies of one domain, the pair system's domain as it was
    built before the pair ran on the field's batch rhs."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = 2 * inner.dim

    def contains(self, z, pad: float = 0.0):
        n = self.inner.dim
        return self.inner.contains(z[..., :n], pad=pad) & self.inner.contains(
            z[..., n:], pad=pad
        )


def _reference_coupled_field(field):
    """The pair system with its own rhs: each half of z through a
    single-state call of field.rhs."""
    n = field.dim

    def rhs(z):
        out = np.empty(z.shape)
        out[..., :n] = field.rhs(z[..., :n])
        out[..., n:] = field.rhs(z[..., n:])
        return out

    region = None
    if field.region_index is not None:
        region = lambda z: (field.region_index(z[:n]), field.region_index(z[n:]))

    return VectorField(
        dim=2 * n,
        rhs=rhs,
        domain=_ReferenceProductDomain(field.domain),
        family=field.family,
        region_index=region,
    )


def _glass_on_a_wide_box():
    glass = make_cyclic_feedback(3, "glass_pwl", {"amp": 4.0})
    return dataclasses.replace(glass, domain=Box(lo=[-0.5] * 3, hi=[4.5] * 3))


_HOPF_DOMAIN = Cylinder(radius=1.2, rest=Box(lo=[-1.0], hi=[1.0]))
_PAIR_CASES = {
    "hopf": (lambda: make_hopf_cylinder(1.0, 4.0), [0.5, 0.1, 0.3], [-0.2, -0.4, -0.1]),
    "goodwin": (lambda: make_cyclic_feedback(3), [0.5, 1.0, 1.5], [2.0, 0.3, 0.8]),
    "glass": (_glass_on_a_wide_box, [0.1, 2.0, 1.0], [3.0, 0.2, 1.5]),
    "parsed_hopf": (
        lambda: parse_field(
            ["x1 - x2 - x1*(x1^2 + x2^2)", "x1 + x2 - x2*(x1^2 + x2^2)", "-4*x3"],
            domain=_HOPF_DOMAIN,
        ),
        [0.5, 0.1, 0.3],
        [-0.2, -0.4, -0.1],
    ),
    "linear": (lambda: make_linear_field(-P_STD), [0.1, 0.2, 0.3], [0.0, -0.1, 0.2]),
}


@pytest.mark.parametrize("case", sorted(_PAIR_CASES))
def test_pair_run_has_the_bits_of_the_coupled_reference(case):
    """Where the rhs is elementwise, a row of the (2, n) batch gets the
    bits of a single-state call, so the pair run is the reference run."""
    make, x0, y0 = _PAIR_CASES[case]
    field = make()
    times, xs, ys = _pair_run(field, x0, y0, 3.0, rtol=1e-10, atol=1e-12)
    ref = integrate(_reference_coupled_field(field), np.concatenate([x0, y0]), 3.0,
                    rtol=1e-10, atol=1e-12)
    assert not ref.events
    assert len(times) > 10
    assert times.tobytes() == ref.times.tobytes()
    assert xs.tobytes() == ref.states[:, :3].tobytes()
    assert ys.tobytes() == ref.states[:, 3:].tobytes()


def test_pair_run_of_an_integer_state_is_the_float_run():
    field = make_hopf_cylinder(0.5, 0.25)
    ints = _pair_run(field, [1, 0, 0], [0, 1, 0], 2.0)
    floats = _pair_run(field, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    for a, b in zip(ints, floats):
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_decay_audit_ordered_pair_passes():
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    audit = decay_audit(field, cone, 0.0, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0], T=5.0)
    assert audit.passed
    assert audit.monotone_ok
    assert audit.started_ordered
    assert audit.interior_after_start is True
    assert audit.worst_step_slack <= DECAY_SLACK_RTOL
    assert audit.values[0] == pytest.approx(cone.quad_form([0.1, 0.0, 0.0]))
    assert audit.values[-1] < audit.values[0]


def test_decay_audit_unordered_pair():
    # a pair starting outside the cone is audited for decay only
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    audit = decay_audit(field, cone, 0.0, [0.0, 0.0, 0.1], [0.0, 0.0, 0.0], T=2.0)
    assert not audit.started_ordered
    assert audit.interior_after_start is None
    assert audit.passed


def test_decay_audit_rate_too_large_fails():
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    audit = decay_audit(field, cone, 4.0, [0.0, 0.0, 0.1], [0.0, 0.0, 0.0], T=2.0)
    assert not audit.monotone_ok
    assert not audit.passed
    assert audit.worst_step_slack > DECAY_SLACK_RTOL


def test_decay_audit_detects_cone_exit():
    # rotation through the (x1, x3) plane drives the difference out
    cone = _std_cone()
    A = np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    field = make_linear_field(A)
    audit = decay_audit(field, cone, 0.0, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0], T=2.0)
    assert audit.started_ordered
    assert audit.interior_after_start is False
    assert not audit.passed


def test_decay_audit_domain_exit_raises():
    cone = _std_cone()
    field = _std_linear(2.0)
    with pytest.raises(DomainExit):
        decay_audit(field, cone, 0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], T=5.0)


def test_decay_audit_validation():
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    with pytest.raises(IdenticalPoints):
        decay_audit(field, cone, 0.0, [0.1, 0.0, 0.0], [0.1, 0.0, 0.0], T=1.0)
    with pytest.raises(BadParameter):
        decay_audit(field, cone, 0.0, [0.1, 0.0], [0.0, 0.0], T=1.0)


def test_ordered_pair_transport_stays_strong():
    from kcone.fields import make_hopf_cylinder

    cone = _std_cone()
    field = make_hopf_cylinder(1.0, 4.0)
    orders = ordered_pair_transport(
        field, cone, [0.3, 0.0, 0.2], [0.1, 0.1, 0.1], T=5.0
    )
    assert len(orders) > 10
    assert all(o is OrderClass.STRONGLY_ORDERED for o in orders)


def test_pair_run_checks_both_states():
    """Both pair runs refuse a state of the wrong length before integrating."""
    cone = _std_cone()
    field = make_linear_field(-np.eye(3))
    for x0, y0 in (([0.1, 0.2], [0.3, 0.1, 0.0, 0.5]), ([0.1, 0.2, 0.3], [0.3, 0.1])):
        with pytest.raises(BadParameter, match="length 3"):
            ordered_pair_transport(field, cone, x0, y0, 1.0)
        with pytest.raises(BadParameter, match="length 3"):
            decay_audit(field, cone, 0.0, x0, y0, 1.0)


def test_ordered_pair_transport_domain_exit():
    cone = _std_cone()
    field = _std_linear(2.0)
    with pytest.raises(DomainExit):
        ordered_pair_transport(field, cone, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], T=5.0)


def test_decay_audit_localizes_the_kinks_of_both_states(monkeypatch):
    """On the Glass ring the coupled run carries the pair of region
    signatures, so steps that carry either state across a ramp threshold
    are re-tried shorter; the audit reads that run's nodes."""
    from kcone import certify

    runs = []
    integrate = certify.integrate

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(certify, "integrate", recording)
    glass = make_cyclic_feedback(3, "glass_pwl", {"amp": 4.0})
    glass = dataclasses.replace(glass, domain=Box(lo=[-0.5] * 3, hi=[4.5] * 3))
    x0, y0 = [0.1, 2.0, 1.0], [3.0, 0.2, 1.5]
    for field in (glass, dataclasses.replace(glass, region_index=None)):
        audit = decay_audit(field, _std_cone(), 0.0, x0, y0, T=3.0)
        assert np.array_equal(audit.times, runs[-1].times)
        assert audit.values[0] == _std_cone().quad_form(np.subtract(x0, y0))
    with_kinks, without = runs
    assert with_kinks.n_kink_retries > 0
    assert without.n_kink_retries == 0
