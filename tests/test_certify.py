"""Certificate checks: margins, exact linear case, feedback signs, audits."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcone.cones import OrderClass, make_quadratic_cone
from kcone.certify import (
    ConditionReport,
    _coupled_field,
    certify_linear,
    certify_sampled,
    certify_smith,
    check_cyclic_feedback,
    decay_audit,
    lambda_grid_search,
    ordered_pair_transport,
    pair_margin,
)
from kcone.domains import Box
from kcone.errors import (
    AllPairsDegenerate,
    BadParameter,
    DomainExit,
    DomainViolation,
    IdenticalPoints,
    NonFiniteDerivative,
)
from kcone.fields import (
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)

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
    field = make_linear_field(-P_STD, domain=Box(lo=-np.ones(3), hi=np.ones(3)))
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
    field = make_linear_field(A, domain=Box(lo=lo, hi=lo + width))
    sampled = certify_sampled(field, cone, 0.0, n_pairs=300, seed=seed)
    exact = certify_linear(A, cone, 0.0)
    assert sampled.worst_margin <= 0.5 * exact.worst_margin + 1e-12


def test_certify_sampled_mechanics():
    cone = _std_cone()
    field = make_linear_field(-P_STD, domain=Box(lo=-2 * np.ones(3), hi=2 * np.ones(3)))
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
        certify_sampled(field, cone, 0.0, domain=_CollapsedDomain(), n_pairs=50)


def test_certify_sampled_nonfinite_margin():
    cone2 = make_quadratic_cone(np.diag([-1.0, 1.0]))
    field = parse_field(
        ["x1^0.5", "0 - x2"], domain=Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    )
    with pytest.raises(NonFiniteDerivative):
        certify_sampled(field, cone2, 0.0, n_pairs=500)


def test_certify_smith_epsilon_star():
    cone = _std_cone()
    field = make_linear_field(-P_STD, domain=Box(lo=-np.ones(3), hi=np.ones(3)))
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
    field = make_linear_field(-P_STD, domain=Box(lo=-np.ones(3), hi=np.ones(3)))
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
    rep = check_cyclic_feedback(field.components, field.deltas, field.domain, n_samples=400)
    assert rep.passed
    assert rep.condition == "cyclic_feedback"
    assert rep.feedback_type == "negative"
    assert rep.worst_margin < 0.0
    assert bool(field.domain.contains(rep.worst_point))
    # flipping the declared first sign must be caught
    wrong = check_cyclic_feedback(field.components, (1, 1, 1), field.domain, n_samples=400)
    assert not wrong.passed
    assert wrong.feedback_type == "positive"
    assert wrong.worst_margin > 0.0


def test_cyclic_feedback_glass_ring():
    field = make_cyclic_feedback(4, "glass_pwl")
    rep = check_cyclic_feedback(field.components, field.deltas, field.domain, n_samples=300)
    assert rep.passed
    assert rep.feedback_type == "negative"


def test_cyclic_feedback_validation():
    field = make_cyclic_feedback(3, "smooth_goodwin")
    with pytest.raises(BadParameter):
        check_cyclic_feedback(field.components, (-1, 1), field.domain)
    with pytest.raises(BadParameter):
        check_cyclic_feedback(field.components, (-1, 0, 1), field.domain)
    with pytest.raises(BadParameter):
        check_cyclic_feedback(field.components, field.deltas, field.domain, n_samples=0)


def test_cyclic_feedback_refuses_a_non_finite_coupling_derivative():
    nan = (lambda xi, xp: np.full(np.shape(xi), np.nan),) * 3
    box = Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    with pytest.raises(NonFiniteDerivative, match="component 0"):
        check_cyclic_feedback(nan, (-1, 1, 1), box, n_samples=10)


def test_lambda_grid_search_runs_each_rate():
    cone = _std_cone()
    field = make_linear_field(-P_STD, domain=Box(lo=-np.ones(3), hi=np.ones(3)))
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


def test_coupled_field_of_an_integer_state_is_float():
    coupled = _coupled_field(make_hopf_cylinder(0.5, 0.25))
    z = np.array([1, 1, 1, 0, 1, 2])
    got = coupled.rhs(z)
    assert got.dtype == np.float64
    assert got.tobytes() == coupled.rhs(z.astype(float)).tobytes()


def test_decay_audit_ordered_pair_passes():
    cone = _std_cone()
    field = make_linear_field(-P_STD)
    audit = decay_audit(field, cone, 0.0, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0], T=5.0)
    assert audit.passed
    assert audit.monotone_ok
    assert audit.started_ordered
    assert audit.interior_after_start is True
    assert audit.worst_step_slack <= audit.slack_rtol
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
    assert audit.worst_step_slack > audit.slack_rtol


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
    field = make_linear_field(-P_STD, domain=Box(lo=-2 * np.ones(3), hi=2 * np.ones(3)))
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


def test_ordered_pair_transport_domain_exit():
    cone = _std_cone()
    field = make_linear_field(-P_STD, domain=Box(lo=-2 * np.ones(3), hi=2 * np.ones(3)))
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
