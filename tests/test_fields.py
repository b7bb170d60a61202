"""Model families: right-hand sides, Jacobians, structure, equilibrium search."""

import numpy as np
import pytest

from kcone.domains import Box, Cylinder
from kcone.errors import BadParameter, DimensionMismatch
from kcone.expressions import hill, pwl
from kcone.fields import (
    default_equilibrium_seeds,
    fd_jacobian,
    find_equilibria,
    make_competitive_lv,
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)


def test_linear_field_matches_matrix():
    A = np.array([[0.0, 1.0], [-2.0, -0.5]])
    field = make_linear_field(A)
    x = np.array([1.5, -0.3])
    assert np.allclose(field(x), A @ x)
    X = np.random.default_rng(2).normal(size=(20, 2))
    assert np.allclose(field(X), X @ A.T)
    assert np.array_equal(field.jacobian(x), A)
    assert field.family == "linear"
    assert field.domain.contains(np.array([9999.0, -9999.0]))


def test_linear_field_validation():
    with pytest.raises(DimensionMismatch):
        make_linear_field(np.zeros((2, 3)))
    with pytest.raises(BadParameter):
        make_linear_field([[np.nan, 0.0], [0.0, 1.0]])


def test_hopf_field_circle_identities():
    omega, c = 1.3, 2.0
    field = make_hopf_cylinder(omega, c)
    # on the unit circle the planar radial derivative vanishes and the
    # angular speed is exactly omega; the vertical axis decays at rate c
    for theta in np.linspace(0.0, 2.0 * np.pi, 17):
        x = np.array([np.cos(theta), np.sin(theta), 0.4])
        f = field(x)
        radial = f[0] * x[0] + f[1] * x[1]
        tangential = -f[0] * x[1] + f[1] * x[0]
        assert abs(radial) < 1e-14
        assert tangential == pytest.approx(omega, abs=1e-14)
        assert f[2] == pytest.approx(-c * 0.4)
    assert isinstance(field.domain, Cylinder)
    assert field.domain.radius == pytest.approx(1.2)


def test_hopf_jacobian_matches_fd():
    field = make_hopf_cylinder(2.0, 4.0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = np.concatenate([rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.5, 0.5, 1)])
        J = field.jacobian(x)
        assert np.allclose(J, fd_jacobian(field, x), atol=1e-8)


def test_hopf_validation():
    with pytest.raises(BadParameter):
        make_hopf_cylinder(0.0, 1.0)
    with pytest.raises(BadParameter):
        make_hopf_cylinder(1.0, 0.0)
    with pytest.raises(BadParameter):
        make_hopf_cylinder(1.0, -3.0)


def test_goodwin_structure():
    n, b, theta, m = 3, 1.0, 1.0, 4.0
    field = make_cyclic_feedback(n, "smooth_goodwin", {"b": b, "theta": theta, "m": m})
    x = np.array([0.4, 0.9, 1.3])
    f = field(x)
    assert f[0] == pytest.approx(hill(x[2], theta, m) - b * x[0])
    assert f[1] == pytest.approx(x[0] - x[1])
    assert f[2] == pytest.approx(x[1] - x[2])
    # declared coupling signs make a negative loop
    assert field.deltas == (-1, 1, 1)
    assert int(np.prod(field.deltas)) == -1
    # per-coordinate components agree with the assembled right-hand side
    assert field.components[0](x[0], x[2]) == f[0]
    assert field.components[1](x[1], x[0]) == f[1]
    assert field.components[2](x[2], x[1]) == f[2]
    J = field.jacobian(x)
    assert np.allclose(J, fd_jacobian(field, x), atol=1e-7)


# Ring states: signed zeros, the default ramp thresholds 0.25 and 1.75 and
# their neighbouring floats, the band middle, and values past either end.
_RING_VALUES = np.array([
    0.0, -0.0, 0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), 1.0,
    1.75, np.nextafter(1.75, 0.0), np.nextafter(1.75, 2.0), 0.05, 3.0, 4.5,
])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["smooth_goodwin", "glass_pwl"])
def test_ring_rhs_is_its_components(kind, n):
    """rhs(X)[..., i] is components[i](X[..., i], X[..., i - 1]) bit for
    bit, on single states and on batch rows: the coupling-sign check reads
    the very functions the integrator runs."""
    field = make_cyclic_feedback(n, kind)
    rng = np.random.default_rng(n)
    X = rng.choice(_RING_VALUES, size=(200, n))
    X[: _RING_VALUES.size] = _RING_VALUES[:, None]
    for states in [X, *X[:40]]:
        out = field.rhs(states)
        for i in range(n):
            want = np.asarray(field.components[i](states[..., i], states[..., i - 1]))
            assert out[..., i].tobytes() == want.tobytes(), (kind, n, i)


def test_goodwin_validation():
    with pytest.raises(BadParameter):
        make_cyclic_feedback(1, "smooth_goodwin")
    with pytest.raises(BadParameter):
        make_cyclic_feedback(3, "smooth_goodwin", {"b": -1.0})
    with pytest.raises(BadParameter):
        make_cyclic_feedback(3, "smooth_goodwin", {"junk": 2.0})
    with pytest.raises(BadParameter):
        make_cyclic_feedback(3, "no_such_kind")


def test_glass_structure():
    lo, hi, amp = 0.25, 1.75, 2.0
    field = make_cyclic_feedback(3, "glass_pwl", {"lo": lo, "hi": hi, "amp": amp})
    x = np.array([0.1, 1.0, 2.0])
    f = field(x)
    assert f[0] == pytest.approx(amp * pwl(x[2], hi, lo) - x[0])
    assert f[1] == pytest.approx(amp * pwl(x[0], lo, hi) - x[1])
    assert f[2] == pytest.approx(amp * pwl(x[1], lo, hi) - x[2])
    # region digit i tracks the coupling coordinate x_{i-1}: below band,
    # inside band, above band
    assert field.region_index(x) == (2, 0, 1)
    assert field.region_index(np.array([1.0, 1.0, 1.0])) == (1, 1, 1)
    assert field.jacobian is None
    assert field.deltas == (-1, 1, 1)
    # declared box sits strictly inside the ramp band
    assert np.all(field.domain.lo > lo)
    assert np.all(field.domain.hi < hi)


def test_glass_validation():
    with pytest.raises(BadParameter):
        make_cyclic_feedback(3, "glass_pwl", {"lo": 2.0, "hi": 1.0})
    with pytest.raises(BadParameter):
        make_cyclic_feedback(3, "glass_pwl", {"amp": 0.0})
    with pytest.raises(BadParameter):
        make_cyclic_feedback(3, "glass_pwl", {"spare": 1.0})


def test_lv_sign_structure_and_jacobian():
    A = np.array([[1.0, 0.8, 1.4], [1.4, 1.0, 0.8], [0.8, 1.4, 1.0]])
    r = np.ones(3)
    field = make_competitive_lv(A, r)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(0.05, 1.5, 3)
        J = field.jacobian(x)
        assert np.allclose(J, fd_jacobian(field, x), atol=1e-7)
        # off-diagonal effects are nonpositive in the open positive orthant
        off = J[~np.eye(3, dtype=bool)]
        assert np.all(off <= 0.0)
    assert np.allclose(field(x), x * (r - A @ x))


def test_lv_validation():
    good = np.eye(2)
    with pytest.raises(DimensionMismatch):
        make_competitive_lv(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        make_competitive_lv(good, np.ones(3))
    with pytest.raises(BadParameter):
        make_competitive_lv(np.array([[1.0, -0.1], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(BadParameter):
        make_competitive_lv(np.array([[0.0, 0.1], [0.1, 1.0]]), np.ones(2))
    with pytest.raises(BadParameter):
        make_competitive_lv(good, np.array([1.0, 0.0]))


def test_lv_symmetric_ring_equilibria():
    # three-species ring with alpha + beta > 2: origin, one equilibrium per
    # axis at carrying capacity, and the symmetric interior point
    alpha, beta = 0.8, 1.4
    A = np.array([[1.0, alpha, beta], [beta, 1.0, alpha], [alpha, beta, 1.0]])
    field = make_competitive_lv(A, np.ones(3))
    seeds = [
        np.zeros(3),
        np.array([1.1, 0.05, 0.05]),
        np.array([0.05, 1.1, 0.05]),
        np.array([0.05, 0.05, 1.1]),
        np.array([0.3, 0.3, 0.3]),
    ]
    result = find_equilibria(field, seeds)
    assert result.dropped == 0
    points = [eq.point for eq in result.equilibria]
    assert len(points) == 5
    s = 1.0 / (1.0 + alpha + beta)
    targets = [
        np.zeros(3),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
        np.full(3, s),
    ]
    for want in targets:
        best = min(np.linalg.norm(p - want) for p in points)
        assert best < 1e-8
    for eq in result.equilibria:
        assert eq.residual <= 1e-10


def test_parse_field_matches_closed_form():
    box = Box(lo=[-2.0, -2.0], hi=[2.0, 2.0])
    field = parse_field(["x2", "0 - x1"], domain=box)
    X = np.random.default_rng(1).uniform(-2.0, 2.0, size=(30, 2))
    want = np.stack([X[:, 1], -X[:, 0]], axis=-1)
    assert np.allclose(field(X), want)
    assert field.family == "parsed"
    assert field.jacobian is None


def test_parse_field_params():
    box = Box(lo=[0.0], hi=[10.0])
    field = parse_field(["k*x1"], params={"k": -0.5}, domain=box)
    assert field(np.array([4.0]))[0] == pytest.approx(-2.0)


def test_parse_field_validation():
    box = Box(lo=[-1.0], hi=[1.0])
    with pytest.raises(BadParameter):
        parse_field([], domain=box)
    with pytest.raises(DimensionMismatch):
        parse_field(["x1", "x2"], domain=box)


def test_fd_jacobian_on_linear_field_is_exact():
    A = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [0.5, 0.0, -2.0]])
    field = make_linear_field(A)
    J = fd_jacobian(field, np.array([0.3, -0.7, 1.1]))
    assert np.allclose(J, A, atol=1e-9)


def test_find_equilibria_hopf_origin_only():
    field = make_hopf_cylinder(1.0, 4.0)
    seeds = [np.array([0.3, 0.2, 0.1]), np.array([-0.2, 0.25, -0.3]), np.zeros(3)]
    result = find_equilibria(field, seeds)
    assert len(result.equilibria) == 1
    assert np.linalg.norm(result.equilibria[0].point) < 1e-9


def test_find_equilibria_drops_rootless_seeds():
    box = Box(lo=[-5.0], hi=[5.0])
    field = parse_field(["1"], domain=box)  # never zero, singular Jacobian
    result = find_equilibria(field, [np.array([0.0])])
    assert result.equilibria == []
    assert result.dropped == 1


def test_find_equilibria_seed_shape_checked():
    field = make_hopf_cylinder(1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        find_equilibria(field, [np.zeros(2)])


def test_default_equilibrium_seeds():
    box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    seeds = default_equilibrium_seeds(box)
    assert len(seeds) == 1 + 4 + 4  # center, axis offsets, corners
    assert all(s.shape == (2,) for s in seeds)
    cyl = Cylinder(radius=1.0, rest=Box(lo=[-1.0], hi=[1.0]))
    seeds = default_equilibrium_seeds(cyl, extra=[[0.1, 0.2, 0.3]])
    assert len(seeds) == 1 + 6 + 1  # no corner seeds off a box
    assert np.allclose(seeds[-1], [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "field, x",
    [
        (make_linear_field([[0.5, 0.0], [0.25, -1.0]]), [1, 3]),
        (make_hopf_cylinder(0.5, 0.25), [1, 1, 1]),
        (make_cyclic_feedback(3, "smooth_goodwin"), [2, 1, 1]),
        (make_cyclic_feedback(4, "glass_pwl", {"amp": 3.0}), [1, 1, 1, 1]),
        (make_competitive_lv([[1.0, 0.5], [0.5, 1.0]], [1.5, 1.0]), [1, 1]),
        (parse_field(["x1 / 2"], domain=Box(lo=[-5.0], hi=[5.0])), [3]),
    ],
    ids=["linear", "hopf", "goodwin", "glass", "lv", "parsed"],
)
def test_rhs_of_an_integer_state_is_float(field, x):
    """An integer state passed straight to rhs is not truncated: the output
    is float and equals the rhs of the same state as floats."""
    got = field.rhs(np.array(x))
    assert got.dtype == np.float64
    assert got.tobytes() == field.rhs(np.array(x, dtype=float)).tobytes()
