"""Cone construction, normalized margins, order relations, projectors."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kcone
from kcone import OrderClass
from kcone.errors import (
    BadParameter,
    DegenerateRank,
    DimensionMismatch,
    IdenticalPoints,
    NearSingular,
)

P_STD = np.diag([-1.0, -1.0, 1.0])


def test_quadratic_cone_basic_shape(std_cone):
    assert std_cone.dim == 3
    assert std_cone.rank_k == 2
    assert np.allclose(np.sort(std_cone.eigenvalues), [-1.0, -1.0, 1.0])


def test_margin_closed_forms(std_cone):
    # planar difference: v' P v = -|v|^2
    assert std_cone.margin(np.array([3.0, 4.0, 0.0])) == pytest.approx(-1.0, abs=1e-15)
    # vertical difference: +|v|^2
    assert std_cone.margin(np.array([0.0, 0.0, 2.0])) == pytest.approx(1.0, abs=1e-15)
    # boundary ray x1 = x3
    assert std_cone.margin(np.array([1.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)


def test_margin_many_agrees_with_scalar(std_cone):
    rng = np.random.default_rng(5)
    V = rng.normal(size=(40, 3))
    many = std_cone.margin_many(V)
    for i in range(40):
        assert std_cone.margin(V[i]) == many[i]


def test_relate_classification_bands(std_cone):
    x = np.zeros(3)
    r = kcone.relate(std_cone, np.array([1.0, 0.0, 0.0]), x)
    assert r.order is OrderClass.STRONGLY_ORDERED and r.is_ordered
    r = kcone.relate(std_cone, np.array([0.0, 0.0, 1.0]), x)
    assert r.order is OrderClass.UNORDERED and not r.is_ordered
    # within the boundary band around the cone surface
    band = std_cone.boundary_band
    v = np.array([1.0, 0.0, 1.0 + band * 0.1])
    r = kcone.relate(std_cone, v, x)
    assert r.order is OrderClass.BOUNDARY_ORDERED and r.is_ordered


def test_relate_rejects_identical_points(std_cone):
    x = np.array([0.3, -0.2, 0.9])
    with pytest.raises(IdenticalPoints):
        kcone.relate(std_cone, x, x.copy())


def test_make_quadratic_cone_validation():
    with pytest.raises(NearSingular):
        kcone.make_quadratic_cone(np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(DegenerateRank):
        kcone.make_quadratic_cone(np.eye(3))  # k = 0
    with pytest.raises(DegenerateRank):
        kcone.make_quadratic_cone(-np.eye(3))  # k = n
    with pytest.raises(BadParameter):
        kcone.make_quadratic_cone(P_STD, boundary_band=-1.0)


def test_rank_counts_negative_eigenvalues():
    rng = np.random.default_rng(2)
    for k in (1, 2, 3):
        # random congruence keeps the signature
        B = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        D = np.diag([-1.0] * k + [1.0] * (4 - k))
        cone = kcone.make_quadratic_cone(B.T @ D @ B)
        assert cone.rank_k == k


def test_projector_std(std_cone):
    proj = kcone.make_projector(std_cone)
    assert np.allclose(proj.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert proj.basis.shape == (3, 2)


def test_projector_idempotent_symmetric():
    rng = np.random.default_rng(9)
    B = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    D = np.diag([-2.0, -1.0, -0.5, 1.0, 3.0])
    cone = kcone.make_quadratic_cone(B.T @ D @ B)
    M = kcone.make_projector(cone).matrix
    assert np.allclose(M, M.T, atol=1e-12)
    assert np.allclose(M @ M, M, atol=1e-12)
    assert abs(np.trace(M) - cone.rank_k) < 1e-10


def test_projector_injective_on_ordered_differences(std_cone):
    # strongly ordered differences lose at most the band fraction of length
    proj = kcone.make_projector(std_cone)
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = rng.normal(size=3)
        if std_cone.margin(v) < -0.1:
            assert np.linalg.norm(proj.coords(v)) > 0.3 * np.linalg.norm(v)


def test_projector_coords_shape(std_cone):
    proj = kcone.make_projector(std_cone)
    U = proj.coords(np.ones((7, 3)))
    assert U.shape == (7, 2)


def test_constructor_and_argument_errors(std_cone):
    with pytest.raises(BadParameter, match="dimension >= 2"):
        kcone.make_orthant_union_cone(1)
    with pytest.raises(DimensionMismatch, match="length 3"):
        kcone.relate(std_cone, np.zeros(2), np.ones(2))
    for width in (2, 4):
        with pytest.raises(DimensionMismatch, match="rows of length 3"):
            std_cone.margin_many(np.ones((5, width)))
    with pytest.raises(BadParameter, match="quadratic cones only"):
        kcone.make_projector(kcone.make_orthant_complement_cone(3))


def test_orthant_complement_margins():
    cone = kcone.make_orthant_complement_cone(3)
    # mixed-sign vector belongs to the complement cone
    assert cone.margin(np.array([1.0, -1.0, 1.0])) < 0
    # one-signed vector does not
    assert cone.margin(np.array([1.0, 2.0, 3.0])) > 0
    assert cone.margin(np.array([-1.0, -2.0, -3.0])) > 0
    # scaling invariance of the normalized margin
    v = np.array([0.3, -0.7, 0.1])
    assert cone.margin(v) == pytest.approx(cone.margin(10.0 * v), abs=1e-14)


def test_orthant_union_margins():
    cone = kcone.make_orthant_union_cone(3)
    assert cone.margin(np.array([1.0, 2.0, 3.0])) < 0
    assert cone.margin(np.array([-1.0, -2.0, -3.0])) < 0
    assert cone.margin(np.array([1.0, -1.0, 1.0])) > 0


def test_orthant_cones_are_complements():
    cc = kcone.make_orthant_complement_cone(4)
    cu = kcone.make_orthant_union_cone(4)
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = rng.normal(size=4)
        assert cc.margin(v) == pytest.approx(-cu.margin(v), abs=1e-14)


def test_orthant_cone_dimension_validation():
    with pytest.raises(BadParameter):
        kcone.make_orthant_complement_cone(1)


def test_quad_form_vs_margin_denominator(std_cone):
    v = np.array([1.0, 2.0, 2.0])
    q = std_cone.quad_form(v)
    assert q == pytest.approx(-1.0 - 4.0 + 4.0, abs=1e-14)
    assert std_cone.margin(v) == pytest.approx(q / 9.0, abs=1e-15)


# ---- one margin formula per cone ----


def _cones(n, seed=0):
    """A rank-2 quadratic cone with a random form and the two orthant cones."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) + n * np.eye(n)
    P = B.T @ np.diag([-1.0, -1.0] + [1.0] * (n - 2)) @ B
    return {
        "quadratic": kcone.make_quadratic_cone(P),
        "orthant_complement": kcone.make_orthant_complement_cone(n),
        "orthant_union": kcone.make_orthant_union_cone(n),
    }


CONES_3 = _cones(3)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("kind", sorted(CONES_3))
@pytest.mark.parametrize("n, rows", [(3, 20_000), (9, 5_000)])
def test_one_vector_gets_the_bits_of_its_batch_row(kind, n, rows):
    """margin, contains and relate read margin_many: each vector gives
    exactly its row of the batch, with no second formula to drift by an ulp."""
    cone = _cones(n)[kind]
    rng = np.random.default_rng(n)
    X = rng.normal(size=(rows, n)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
    Y = rng.normal(size=(rows, n))
    many = cone.margin_many(X - Y)
    for x, y, want in zip(X, Y, many):
        assert _bits(cone.margin(x - y)) == _bits(want)
        assert cone.contains(x - y) == (want <= cone.boundary_band)
        assert _bits(kcone.relate(cone, x, y).margin) == _bits(want)


def test_orthant_cones_share_one_body():
    cc = kcone.make_orthant_complement_cone(3)
    cu = kcone.make_orthant_union_cone(3)
    assert type(cc).margin_many is type(cu).margin_many
    assert (cc.rank_k, cu.rank_k) == (2, 1)
    with pytest.raises(kcone.DimensionMismatch):
        cc.margin(np.ones(4))


_VECTORS = hnp.arrays(float, 3, elements=st.floats(-1e3, 1e3))


def _relate_or_skip(cone, x, y):
    try:
        return kcone.relate(cone, x, y)
    except IdenticalPoints:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONES_3)), _VECTORS, _VECTORS)
def test_relate_is_symmetric(kind, x, y):
    # y - x is -(x - y) except that an exact zero keeps its + sign, which
    # can flip the sign of a zero margin; + 0.0 folds -0.0 onto 0.0.
    cone = CONES_3[kind]
    a = _relate_or_skip(cone, x, y)
    b = kcone.relate(cone, y, x)
    assert a.order is b.order
    assert _bits(a.margin + 0.0) == _bits(b.margin + 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CONES_3)),
    _VECTORS,
    _VECTORS,
    st.floats(1e-3, 1e3),
    st.sampled_from([-1.0, 1.0]),
)
def test_relate_is_scale_invariant(kind, x, y, scale, sign):
    cone = CONES_3[kind]
    spread = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
    assume(np.linalg.norm(x - y) >= 1e-2 * spread)
    a = kcone.relate(cone, x, y)
    b = kcone.relate(cone, sign * scale * x, sign * scale * y)
    assert abs(a.margin - b.margin) <= 1e-12
    if abs(abs(a.margin) - cone.boundary_band) > 1e-12:
        assert a.order is b.order


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CONES_3)),
    hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(6)),
               elements=st.floats(-1e3, 1e3)),
)
def test_margin_reads_the_batch_row(kind, XY):
    cone = CONES_3[kind]
    X, Y = XY[:, :3], XY[:, 3:]
    # A row whose squares underflow is rescaled first, in a batch as alone;
    # a zero row reads 0/0 both ways.
    with np.errstate(invalid="ignore", divide="ignore"):
        many = cone.margin_many(X - Y)
        for x, y, want in zip(X, Y, many):
            assert _bits(cone.margin(x - y)) == _bits(want)
            assert cone.contains(x - y) == (want <= cone.boundary_band)
            try:
                rel = kcone.relate(cone, x, y)
            except IdenticalPoints:
                continue
            assert _bits(rel.margin) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(CONES_3)),
    hnp.arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda u: np.abs(u).max() >= 0.1
    ),
    st.integers(-300, 300),
)
def test_margin_is_finite_at_every_scale(kind, u, exponent):
    """From 1e-300 to 1e300 a margin is finite and raises no warning. Where
    |v|^2 leaves the normal range (below about 1e-154 or above 1e154) it is
    the margin of v / max|v_i|, bit for bit; elsewhere it agrees with that
    to rounding."""
    cone = CONES_3[kind]
    v = u * 10.0**exponent
    rescaled = v / np.abs(v).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = cone.margin(v)
        want = cone.margin(rescaled)
        batch = cone.margin_many(np.stack([v, u, rescaled]))
    assert np.isfinite(m) and np.all(np.isfinite(batch))
    ss = np.einsum("i,i", v, v)
    if not np.finfo(float).tiny <= ss < np.inf:
        assert _bits(m) == _bits(want)
    else:
        assert m == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert cone.contains(v) == (m <= cone.boundary_band)


# ---- the quadratic form kernel keeps einsum's bits ----


def _einsum_margins(V, P):
    """The margins as einsum gives them: the form over the sum of squares."""
    return np.einsum("...i,ij,...j->...", V, P, V) / np.einsum("...i,...i->...", V, V)


def _batches(n, rng):
    """1-d, 1-, 2-, 3-, 8- and 65,537-row, strided and (a, b, n) batches."""
    yield rng.normal(size=n)
    for rows in (1, 2, 3, 8, 65_537):
        yield rng.normal(size=(rows, n)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
    yield rng.normal(size=(40, 2 * n))[::3, ::2]
    yield rng.normal(size=(4, 5, n))


def _random_form(n, rng):
    B = rng.normal(size=(n, n)) + n * np.eye(n)
    return B.T @ np.diag([-1.0] + [1.0] * (n - 1)) @ B


@pytest.mark.parametrize("n", range(3, 9))
def test_margin_many_has_the_einsum_bits(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        cone = kcone.make_quadratic_cone(_random_form(n, rng))
        for V in _batches(n, rng):
            got = np.asarray(cone.margin_many(V))
            want = _einsum_margins(V, cone.p_matrix)
            assert got.shape == np.shape(want)
            assert got.tobytes() == np.asarray(want).tobytes()


def test_margin_many_at_n2_is_einsum_from_three_rows_and_the_same_alone():
    """einsum sums a batch of one or two rows in another order at n = 2;
    margin_many sums every batch alike, so each row reads its batch bits
    alone, in a one-row batch and first in a two-row one."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        cone = kcone.make_quadratic_cone(_random_form(2, rng))
        for rows in (3, 4, 8, 500):
            V = rng.normal(size=(rows, 2)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
            many = cone.margin_many(V)
            assert many.tobytes() == _einsum_margins(V, cone.p_matrix).tobytes()
            for k, v in enumerate(V):
                assert _bits(cone.margin(v)) == _bits(many[k])
                assert _bits(cone.margin_many(V[k:k + 1])[0]) == _bits(many[k])
                assert _bits(cone.margin_many(V[k:k + 2])[0]) == _bits(many[k])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_form_of_huge_entries_is_quiet_and_matches_einsum(n):
    """P entries of 1e300 overflow the products: the same inf and NaN as
    einsum, and no warning."""
    rng = np.random.default_rng(n)
    cone = kcone.make_quadratic_cone(_random_form(n, rng) * 1e300)
    V = rng.normal(size=(1_000, n)) * rng.choice([1e-3, 1.0, 1e10], size=(1_000, 1))
    want = _einsum_margins(V, cone.p_matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cone.margin_many(V)
    assert np.isnan(want).any() and np.isfinite(want).any()
    assert np.array_equal(got, want, equal_nan=True)
