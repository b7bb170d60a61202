"""Adaptive integration: accuracy gates, events, kinks, backward runs."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

from kcone import integrators
from kcone.domains import Box
from kcone.errors import (
    BadParameter,
    DomainViolation,
    IntegrationFailure,
    NodeBudgetExceeded,
    NonFiniteState,
    StepUnderflow,
)
from kcone.fields import (
    VectorField,
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)
from kcone.integrators import _A, _E, integrate, integrate_backward


def _linear_on(A, lo, hi):
    """F(x) = A x on the box [lo, hi]."""
    return dataclasses.replace(make_linear_field(A), domain=Box(lo=lo, hi=hi))


ROTATE = np.array([[0.0, 1.0], [-1.0, 0.0]])  # harmonic oscillator block


def test_exponential_decay_endpoint():
    field = make_linear_field([[-1.0]])
    traj = integrate(field, [1.0], 5.0, rtol=1e-10, atol=1e-12)
    assert abs(traj.final_state[0] - np.exp(-5.0)) < 1e-11
    assert traj.events == []
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.t0 == 0.0
    assert traj.t_end == pytest.approx(5.0)


def test_harmonic_return_and_energy():
    field = make_linear_field(ROTATE)
    traj = integrate(field, [1.0, 0.0], 2.0 * np.pi, rtol=1e-10, atol=1e-12)
    assert np.linalg.norm(traj.final_state - [1.0, 0.0]) < 1e-8
    energy = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(energy - 1.0)) < 1e-8


def test_tolerance_scaling():
    # endpoint error tracks rtol, the signature of proportional control
    field = make_linear_field(ROTATE)
    errs = {}
    for rtol in (1e-6, 1e-8):
        traj = integrate(field, [1.0, 0.0], 2.0 * np.pi, rtol=rtol, atol=1e-14)
        errs[rtol] = np.linalg.norm(traj.final_state - [1.0, 0.0])
    assert errs[1e-6] / errs[1e-8] > 20.0


def test_hermite_sampling_accuracy():
    field = make_linear_field(ROTATE)
    traj = integrate(field, [1.0, 0.0], 2.0 * np.pi, rtol=1e-8, atol=1e-10)
    t = np.linspace(0.0, 2.0 * np.pi, 500)
    got = traj.sample(t)
    want = np.stack([np.cos(t), -np.sin(t)], axis=-1)
    assert np.max(np.abs(got - want)) < 1e-6
    # exact at the stored nodes, scalar time gives a 1-d state
    assert np.allclose(traj.sample(traj.times[3]), traj.states[3], atol=1e-15)
    assert traj.sample(float(traj.t_end)).shape == (2,)
    with pytest.raises(BadParameter):
        traj.sample(-1.0)
    with pytest.raises(BadParameter):
        traj.sample(traj.t_end + 1.0)


@st.composite
def stable_linear_runs(draw):
    """(A, x0, T) with A strictly diagonally dominant with a negative
    diagonal, so max-norm distances shrink and the run stays in the box."""
    n = draw(st.integers(1, 4))
    M = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    A = M - (np.abs(M).sum(axis=1).max() + 0.1) * np.eye(n)
    x0 = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    return A, x0, draw(st.floats(0.5, 10.0))


def test_run_from_an_equilibrium_ends_on_T():
    """At rest the steps grow fast, and the last one starts before T/2,
    where t + (T - t) can round an ulp short of T; a 1-ulp step would then
    raise StepUnderflow."""
    T = 7.6122368625948225
    traj = integrate(make_linear_field(np.array([[-0.1]])), np.array([0.0]), T)
    assert traj.t_end == T
    assert np.all(traj.states == 0.0)


@settings(max_examples=30, deadline=None)
@given(stable_linear_runs())
def test_sampling_at_the_nodes_returns_the_nodes(run):
    """The omega gap samples through the interpolant, so at the stored
    times it must give back the stored states exactly."""
    A, x0, T = run
    traj = integrate(make_linear_field(A), x0, T)
    assert np.array_equal(traj.sample(traj.times), traj.states)


@settings(max_examples=30, deadline=None)
@given(stable_linear_runs())
@example((np.array([[-1.1, 1.0], [0.0, np.nextafter(-1.1, 0.0)]]), np.array([0.0, 1.0]), 3.0))
@example((np.array([[-0.1]]), np.array([3.80994337e-165]), 1.0))
def test_linear_run_matches_matrix_exponential(run):
    """The flow contracts in the max norm, so local errors do not grow and
    the endpoint stays within ten times rtol of the exact exp(A T) x0. The
    oracle is an 8th-order run at rtol 1e-13: scipy's expm is wrong when
    diagonal entries differ by an ulp (the first example, where it gives
    0.09375 for 3 exp(-3.3) = 0.11065). The flow is linear, so the oracle
    runs from x0 / max|x0| and scales back: from a state near 1e-165 scipy's
    error norm underflows to 0/0 (the second example)."""
    A, x0, T = run
    traj = integrate(make_linear_field(A), x0, T)
    s = float(np.max(np.abs(x0))) or 1.0
    exact = solve_ivp(lambda t, y: A @ y, (0.0, T), x0 / s, method="DOP853", rtol=1e-13, atol=1e-15)
    assert np.max(np.abs(traj.final_state - s * exact.y[:, -1])) <= 1e-7


def test_matches_scipy_reference():
    field = make_hopf_cylinder(1.0, 1.0)
    x0 = np.array([0.3, 0.2, 0.1])
    traj = integrate(field, x0, 10.0, rtol=1e-10, atol=1e-12)
    ref = solve_ivp(
        lambda t, y: field(y), (0.0, 10.0), x0, rtol=1e-11, atol=1e-13, method="RK45"
    )
    assert np.linalg.norm(traj.final_state - ref.y[:, -1]) < 1e-7


def test_flow_semigroup():
    field = make_hopf_cylinder(1.0, 1.0)
    x0 = np.array([0.6, 0.0, 0.2])
    direct = integrate(field, x0, 3.0, rtol=1e-10, atol=1e-12).final_state
    half = integrate(field, x0, 1.2, rtol=1e-10, atol=1e-12).final_state
    stepped = integrate(field, half, 1.8, rtol=1e-10, atol=1e-12).final_state
    assert np.linalg.norm(direct - stepped) < 1e-7


def test_backward_inverts_decay():
    field = make_linear_field([[-1.0]])
    traj = integrate_backward(field, [1.0], 1.0, rtol=1e-10, atol=1e-12)
    assert traj.times[0] == pytest.approx(-1.0)
    assert traj.times[-1] == 0.0
    assert np.all(np.diff(traj.times) > 0.0)
    assert abs(traj.states[0, 0] - np.e) < 1e-7
    assert traj.states[-1, 0] == 1.0


def test_backward_sampling_consistent():
    field = make_linear_field([[-1.0]])
    traj = integrate_backward(field, [1.0], 2.0, rtol=1e-10, atol=1e-12)
    t = np.linspace(-2.0, 0.0, 50)
    got = traj.sample(t)[:, 0]
    assert np.max(np.abs(got - np.exp(-t))) < 1e-6


def test_backward_hopf_stays_on_cycle():
    # the unit circle is invariant both ways; backward it repels, so node
    # drift is the integration error amplified over the window
    field = make_hopf_cylinder(1.0, 1.0)
    traj = integrate_backward(field, [1.0, 0.0, 0.0], 3.0, rtol=1e-10, atol=1e-12)
    r = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(r - 1.0)) < 1e-5
    assert np.max(np.abs(traj.states[:, 2])) == 0.0
    assert traj.events == []


def test_domain_exit_event_forward():
    field = _linear_on([[1.0]], [-2.0], [2.0])
    traj = integrate(field, [1.0], 5.0, rtol=1e-10, atol=1e-12)
    assert len(traj.events) == 1
    t_exit, kind = traj.events[0]
    assert kind == "domain_exit"
    assert abs(t_exit - np.log(2.0)) < 1e-6
    assert traj.t_end == pytest.approx(t_exit)
    assert traj.final_state[0] <= 2.0 + 1e-9
    assert traj.final_state[0] > 2.0 - 1e-5


def test_one_node_trajectory_samples_its_node():
    # x0 on the boundary, flowing outward: the first step exits at s = 0
    field = _linear_on(np.eye(3), -np.ones(3), np.ones(3))
    x0 = np.array([1.0, 0.5, -0.25])
    traj = integrate(field, x0, 1.0, rtol=1e-10, atol=1e-12)
    assert len(traj.times) == 1 and traj.events == [(0.0, "domain_exit")]
    assert np.array_equal(traj.sample(0.0), x0)
    assert np.array_equal(traj.sample(np.array([0.0, 1e-13])), np.stack([x0, x0]))
    with pytest.raises(BadParameter):
        traj.sample(1e-9)


def test_domain_exit_event_backward():
    field = _linear_on([[-1.0]], [-2.0], [2.0])
    traj = integrate_backward(field, [1.0], 5.0, rtol=1e-10, atol=1e-12)
    assert len(traj.events) == 1
    t_exit, kind = traj.events[0]
    assert kind == "domain_exit"
    assert abs(t_exit + np.log(2.0)) < 1e-6
    assert traj.times[0] == pytest.approx(t_exit)
    assert abs(traj.states[0, 0]) <= 2.0 + 1e-9


def test_max_step_honored():
    field = make_hopf_cylinder(1.0, 1.0)
    traj = integrate(field, [0.5, 0.0, 0.1], 10.0, max_step=0.05)
    assert np.max(np.diff(traj.times)) <= 0.05 + 1e-12
    assert len(traj.times) > 200


def test_glass_ring_crosses_kinks():
    field = make_cyclic_feedback(3, "glass_pwl")
    x0 = np.array([0.4, 1.5, 0.9])
    traj = integrate(field, x0, 40.0, rtol=1e-8, atol=1e-10)
    assert traj.events == []
    assert np.all(field.domain.contains(traj.states))
    assert len(traj.times) < 3000  # kink handling must not thrash
    # ring settles at the symmetric fixed point of the ramps
    assert np.linalg.norm(traj.final_state - 1.0) < 1e-5


def test_hopf_attracts_to_unit_circle():
    field = make_hopf_cylinder(1.0, 4.0)
    traj = integrate(field, [0.1, 0.0, 0.5], 100.0, rtol=1e-10, atol=1e-12)
    r_end = np.hypot(traj.final_state[0], traj.final_state[1])
    assert abs(r_end - 1.0) < 1e-9
    assert abs(traj.final_state[2]) < 1e-10


def test_determinism():
    field = make_hopf_cylinder(1.0, 1.0)
    a = integrate(field, [0.3, 0.1, 0.2], 20.0)
    b = integrate(field, [0.3, 0.1, 0.2], 20.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.derivs, b.derivs)


def test_argument_validation():
    field = make_linear_field([[-1.0]])
    with pytest.raises(BadParameter):
        integrate(field, [1.0, 2.0], 1.0)
    with pytest.raises(BadParameter):
        integrate(field, [1.0], 0.0)
    with pytest.raises(BadParameter):
        integrate(field, [1.0], np.inf)
    with pytest.raises(BadParameter):
        integrate(field, [1.0], 1.0, rtol=0.0)
    with pytest.raises(DomainViolation):
        integrate(
            _linear_on([[-1.0]], [0.0], [1.0]), [2.0], 1.0
        )
    for bad in (0.0, -1.0, -np.inf, np.nan):
        with pytest.raises(BadParameter, match="max_step"):
            integrate(field, [1.0], 1.0, max_step=bad)
        with pytest.raises(BadParameter, match="max_step"):
            integrate_backward(field, [1.0], 1.0, max_step=bad)
    assert integrate(field, [1.0], 1.0, max_step=np.inf).max_step == np.inf


def test_sampling_no_times_gives_no_rows():
    field = make_linear_field(ROTATE)
    traj = integrate(field, [1.0, 0.0], 1.0)
    for t in (np.array([]), []):
        out = traj.sample(t)
        assert out.shape == (0, 2) and out.dtype == np.float64
    one = integrate(_linear_on(np.eye(3), -np.ones(3), np.ones(3)),
                    [1.0, 0.5, -0.25], 1.0)
    assert len(one.times) == 1 and one.sample(np.array([])).shape == (0, 3)


def test_nonfinite_rhs_at_start():
    field = parse_field(["(0 - x1)^0.5"], domain=Box(lo=[-10.0], hi=[10.0]))
    with pytest.raises(NonFiniteState):
        integrate(field, [1.0], 1.0)
    assert issubclass(NonFiniteState, IntegrationFailure)


def test_unresolvable_rate_ends_in_a_domain_exit():
    # x' = 1e300 x: the first step is about 1e-305 long, far below the
    # 1e-12 T floor, and is accepted; the floor binds only rejected steps,
    # so the run grows to the box wall within about 1e-299 time units.
    field = _linear_on([[1e300]], [-1e6], [1e6])
    traj = integrate(field, [1e-3], 1.0)
    assert [kind for _, kind in traj.events] == ["domain_exit"]
    assert traj.t_end < 1e-290
    assert 1e-3 < traj.final_state[0] <= 1e6


def test_step_underflow_on_the_rejection_path():
    # The rhs is finite only at x0, so every stage of every step is NaN:
    # each try is rejected and halved until it falls below 1e-12 T.
    field = VectorField(
        dim=1, rhs=lambda x: np.where(x == 0.5, 1.0, np.nan),
        domain=Box(lo=[0.0], hi=[1.0]), family="test",
    )
    with pytest.raises(StepUnderflow):
        integrate(field, [0.5], 1.0)
    assert issubclass(StepUnderflow, IntegrationFailure)


def test_long_horizon_starts_below_the_floor_and_completes():
    # The first step, 2.7e-8, does not scale with T and sits below 1e-12 T.
    traj = integrate(make_linear_field(-np.eye(3)), [0.1, 0.2, 0.3], 1e5)
    assert traj.t_end == 1e5
    assert traj.events == []
    assert np.all(np.abs(traj.final_state) < 1e-10)


def test_node_budget(monkeypatch):
    field = make_linear_field(-np.eye(3))
    full = integrate(field, [0.1, 0.2, 0.3], 10.0, max_step=0.1)
    monkeypatch.setattr(integrators, "MAX_NODES", len(full.times))
    assert len(integrate(field, [0.1, 0.2, 0.3], 10.0, max_step=0.1).times) == len(full.times)
    monkeypatch.setattr(integrators, "MAX_NODES", len(full.times) - 1)
    with pytest.raises(NodeBudgetExceeded):
        integrate(field, [0.1, 0.2, 0.3], 10.0, max_step=0.1)
    assert issubclass(NodeBudgetExceeded, IntegrationFailure)


def test_initial_step_survives_a_huge_rate():
    # |f(x0)| = 1e160 squares past the largest double; the first step must
    # still be finite and positive, with no overflow warning on the way
    field = parse_field(["1e160"], domain=Box(lo=[-1.0], hi=[1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(field, [0.0], 1e-170)
    assert traj.t_end == 1e-170
    assert traj.states[-1, 0] == pytest.approx(1e-10, rel=1e-12)


def test_error_control_holds_where_the_squared_norm_overflows():
    # |y| = 1e160 squares past the largest double; the error and tolerance
    # norms must stay finite, so x' = x still ends on e x0 at rtol 1e-10
    # (with plain sqrt(y.dot(y)) tol was inf and the end 7e-8 off)
    field = _linear_on(np.eye(3), [-1e200] * 3, [1e200] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(field, [1e160, 0.0, 0.0], 1.0, rtol=1e-10)
    assert traj.t_end == 1.0
    assert traj.final_state[0] == pytest.approx(np.e * 1e160, rel=1e-10)


def test_dormand_prince_tableau():
    nodes = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
    assert np.allclose([row.sum() for row in _A], nodes, rtol=0.0, atol=1e-15)
    assert abs(_E.sum()) < 1e-15
    b4 = np.append(_A[6], 0.0) - _E
    assert abs(b4.sum() - 1.0) < 1e-15


def _decay_field(rhs):
    return dataclasses.replace(
        _linear_on([[-1.0]], [-1.0], [2.0]), rhs=rhs
    )


def test_nonfinite_stages_reject_the_step():
    # x' = -x, undefined below 0: stages that overshoot past 0 come back NaN
    nan_calls = []

    def rhs(x):
        if x[0] < 0.0:
            nan_calls.append(x[0])
            return np.array([np.nan])
        return -x

    T = 40.0
    traj = integrate(_decay_field(rhs), [1.0], T)
    assert traj.events == [] and traj.t_end == pytest.approx(T)
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.derivs))
    assert nan_calls
    assert abs(traj.final_state[0] - np.exp(-T)) <= traj.atol + traj.rtol * np.exp(-T)


def test_nan_in_zero_weight_stage_rejects_the_step():
    # Stage 2 has weight 0 in both the update and the error estimate, so a
    # NaN there must be caught by testing the stages themselves. The field
    # maps NaN input to 0, so the later stages of that step stay finite.
    def run(nan_call):
        calls = [0]

        def rhs(x):
            calls[0] += 1
            if calls[0] == nan_call:
                return np.array([np.nan])
            return -np.nan_to_num(x)

        return integrate(_decay_field(rhs), [1.0], 5.0), calls[0]

    clean, n_clean = run(nan_call=0)
    # One call for f(x0), then six stage calls per attempted step, and the
    # clean run rejects no step: attempted step k is the one from node k.
    assert n_clean == 1 + 6 * (len(clean.times) - 1)
    k = 10
    hit, _ = run(nan_call=1 + 6 * k + 1)  # stage 2 of step k
    assert np.array_equal(hit.times[: k + 1], clean.times[: k + 1])
    assert np.all(np.isfinite(hit.states))
    clean_step = clean.times[k + 1] - clean.times[k]
    assert hit.times[k + 1] - hit.times[k] <= 0.5 * clean_step


def test_trajectory_extent_and_span():
    field = make_linear_field(ROTATE)
    traj = integrate(field, [1.0, 0.0], 2.0 * np.pi, rtol=1e-9, atol=1e-11)
    assert traj.span() == pytest.approx(2.0 * np.pi)
    # bounding-box diagonal of the node set; nodes undershoot the circle's
    # axis extremes by the local step resolution
    assert traj.extent() == pytest.approx(np.sqrt(8.0), rel=1e-3)
    assert traj.dim == 2
