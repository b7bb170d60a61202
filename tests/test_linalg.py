"""Symmetric eigensolver against the scipy.linalg.eigh oracle and its own
residual and orthonormality contract."""

import numpy as np
import pytest
import scipy.linalg

from kcone.errors import BadParameter, DimensionMismatch, NoConvergence, NotSymmetric
from kcone.linalg import require_symmetric, sym_eig


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return 0.5 * (A + A.T)


def test_matches_eigh_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        P = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 50.0)))
        w, V = sym_eig(P)
        w_ref = scipy.linalg.eigh(P, eigvals_only=True)
        assert np.allclose(w, w_ref, rtol=1e-12, atol=1e-12 * max(1.0, abs(P).max()))
        assert np.linalg.norm(P @ V - V * w) <= 1e-10 * np.linalg.norm(P)
        assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10


def test_eigenvalues_ascending_and_vectors_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(25):
        P = random_symmetric(rng, 6)
        w, V = sym_eig(P)
        assert np.all(np.diff(w) >= -1e-14)
        assert np.allclose(V.T @ V, np.eye(6), atol=1e-12)
        # eigen equation, column by column
        assert np.allclose(P @ V, V @ np.diag(w), atol=1e-10 * max(1.0, abs(P).max()))


def test_diagonal_matrix_exact():
    w, V = sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0], atol=0.0)
    assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]], atol=0.0)


def test_residual_tolerance_contract():
    # off-diagonal residual of the rotated matrix must fall to <= 1e-10 |P|
    rng = np.random.default_rng(3)
    P = random_symmetric(rng, 8, scale=10.0)
    w, V = sym_eig(P)
    R = V.T @ P @ V
    off = R - np.diag(np.diag(R))
    assert np.abs(off).max() <= 1e-10 * np.linalg.norm(P)


def test_require_symmetric_errors():
    with pytest.raises(NotSymmetric):
        require_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        require_symmetric(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        require_symmetric(np.zeros(4))


def test_require_symmetric_refuses_non_finite_entries():
    with pytest.raises(BadParameter, match="finite"):
        require_symmetric(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_require_symmetric_symmetrizes_roundoff():
    P = np.array([[1.0, 2.0], [2.0 + 1e-15, 5.0]])
    S = require_symmetric(P)
    assert np.array_equal(S, S.T)


def test_one_by_one():
    w, V = sym_eig(np.array([[4.0]]))
    assert w[0] == 4.0 and V[0, 0] == 1.0


def test_lapack_failure_raises_no_convergence(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        sym_eig(np.diag([1.0, 2.0]))


@pytest.mark.parametrize(
    "bad",
    [
        lambda w, V: (w + 1e-6, V),  # eigenvalues off: residual misses
        lambda w, V: (w, 2.0 * V),  # columns not unit length
        lambda w, V: (w * np.nan, V),  # non-finite result
    ],
)
def test_result_breaking_the_contract_raises_no_convergence(monkeypatch, bad):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: bad(*eigh(a)))
    with pytest.raises(NoConvergence):
        sym_eig(np.array([[2.0, 1.0], [1.0, 3.0]]))
