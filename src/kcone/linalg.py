"""Symmetric matrices: validation and a contract-checked eigensolver.

sym_eig delegates the decomposition to LAPACK (numpy.linalg.eigh) and then
checks the result itself: residual ||P V - V diag(w)|| <= 1e-10 ||P|| and
orthonormality to 1e-10 are contract items of this package, not library
defaults, so a result that misses them is an error, never a silent answer.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter, DimensionMismatch, NoConvergence, NotSymmetric

# Relative symmetry tolerance on max-abs entries.
SYMMETRY_RTOL = 1e-12
# Residual (relative to ||P||) and orthonormality bound on a decomposition.
_EIG_RTOL = 1e-10


def require_symmetric(P) -> np.ndarray:
    """Validate and return a float copy of a symmetric square matrix.

    Raises DimensionMismatch for non-square input, BadParameter for
    non-finite entries, NotSymmetric when max|P - P^T| > 1e-12 max|P|.
    The returned copy is exactly symmetrized, (P + P^T)/2.
    """
    A = np.array(P, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise BadParameter("matrix entries must be finite")
    scale = np.abs(A).max()
    if scale > 0.0 and np.abs(A - A.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric(
            f"asymmetry {np.abs(A - A.T).max():.3e} exceeds {SYMMETRY_RTOL:.0e} * max|P|"
        )
    return 0.5 * (A + A.T)


def sym_eig(P) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, checked against its contract.

    Returns (w, V): eigenvalues ascending, orthonormal eigenvectors in the
    columns of V. The LAPACK result is accepted only when the residual
    ||P V - V diag(w)|| <= 1e-10 ||P|| and ||V^T V - I|| <= 1e-10 (Frobenius
    norms); otherwise, or when LAPACK itself fails, raises NoConvergence.
    """
    A = require_symmetric(P)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc
    residual = float(np.linalg.norm(A @ V - V * w))
    ortho = float(np.linalg.norm(V.T @ V - np.eye(A.shape[0])))
    if not (residual <= _EIG_RTOL * float(np.linalg.norm(A)) and ortho <= _EIG_RTOL):
        raise NoConvergence(
            f"eigendecomposition misses its contract: residual {residual:.3e}, "
            f"orthonormality {ortho:.3e}"
        )
    return w, V
