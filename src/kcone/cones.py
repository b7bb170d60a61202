"""Cones of rank k, membership margins, order relations, and the order projector.

A cone here is a closed set C with R C = C (scaling by any real, so C = -C)
that contains a linear subspace of dimension k and none of dimension k + 1.
Three concrete constructions:

  * QuadraticCone: C = {v : v^T P v <= 0} for symmetric nonsingular P with
    exactly k negative eigenvalues. The negative eigenspace H (dimension k)
    lies in the interior union {0}, the positive eigenspace H_c (dimension
    n - k) meets C only at 0, so the cone is k-solid and complemented.
  * OrthantComplementCone: closure of the complement of (int K) u (-int K)
    for the positive orthant K. Rank n - 1; the complement is spanned by
    the all-ones direction.
  * ConvexUnionCone: K u (-K) itself, the rank-1 convex cone pair.

Every cone exposes a margin, normalized so the sign classifies: margin <
-band means interior (strongly ordered difference), |margin| <= band means
boundary, margin > band means outside (unordered). For the quadratic cone
the margin is v^T P v / |v|^2; for the orthant pair it is the signed
distance of the worst component, over |v|. Each cone writes its margin once,
as margin_many over the rows of a batch; margin(v), contains(v) and relate
read that formula on one vector, so a vector gets the bits of its row in
any batch, at every dimension, n = 2 included.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BadParameter,
    DegenerateRank,
    DimensionMismatch,
    IdenticalPoints,
    NearSingular,
)
from .linalg import require_symmetric, sym_eig

# Default half-width of the numerical boundary band on normalized margins.
DEFAULT_BOUNDARY_BAND = 1e-9
# Minimum |eigenvalue| ratio below which P counts as singular.
SINGULARITY_RTOL = 1e-10
# Two points closer than this (relative) are the same point for ordering.
DISTINCTNESS_RTOL = 1e-14
# Rows per block of the quadratic-form kernel.
_FORM_BLOCK = 8192
# |v|^2 from which an overflowed quadratic form is read off v / max|v_i|.
_FORM_RESCALE_SUMSQ = 2.0**1000


class OrderClass(str, Enum):
    STRONGLY_ORDERED = "strongly_ordered"
    BOUNDARY_ORDERED = "boundary_ordered"
    UNORDERED = "unordered"


@dataclass(frozen=True)
class OrderRelation:
    """Outcome of comparing two points through a cone."""

    order: OrderClass
    margin: float

    @property
    def is_ordered(self) -> bool:
        return self.order is not OrderClass.UNORDERED


def _classify(margin: float, band: float) -> OrderRelation:
    if margin < -band:
        return OrderRelation(OrderClass.STRONGLY_ORDERED, margin)
    if margin <= band:
        return OrderRelation(OrderClass.BOUNDARY_ORDERED, margin)
    return OrderRelation(OrderClass.UNORDERED, margin)


def _in_range(V, sumsq) -> tuple[np.ndarray, np.ndarray]:
    """(V, sumsq(V)) for float rows V; a finite nonzero row whose |v|^2 is
    subnormal, 0 or inf, which would read 0/0 or inf/inf, is first divided
    by its largest |v_i| (margins do not depend on scale). No other row moves."""
    V = np.asarray(V, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed row is rescaled
        ss = sumsq(V)
    # The mask is built only when the extremes show a row out of range.
    if ss.size and not (ss.min() >= np.finfo(float).tiny and ss.max() < np.inf):
        out = ~((ss >= np.finfo(float).tiny) & (ss < np.inf))
        top = np.abs(V).max(axis=-1)
        V = V / np.where(out & (top > 0.0) & (top < np.inf), top, 1.0)[..., None]
        ss = sumsq(V)
    return V, ss


class _Margins:
    """margin and contains for one vector, both read off margin_many."""

    def _vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got {v.shape}")
        return v

    def margin(self, v) -> float:
        return float(self.margin_many(self._vector(v)))

    def contains(self, v) -> bool:
        return self.margin(v) <= self.boundary_band


@dataclass(frozen=True, eq=False)
class QuadraticCone(_Margins):
    """Sublevel cone {v : v^T P v <= 0} of a symmetric nonsingular form."""

    p_matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank_k: int
    boundary_band: float = DEFAULT_BOUNDARY_BAND

    @property
    def dim(self) -> int:
        return self.p_matrix.shape[0]

    @property
    def negative_basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of the k-dimensional inner subspace."""
        return self.eigenvectors[:, : self.rank_k]

    def quad_form(self, v) -> float:
        """v^T P v: the numerator of margin_many on one vector."""
        return float(self._form(self._vector(v)))

    # v^T P w (w = v by default) is the costliest step of a pair scan. The
    # kernel adds the terms (v_i P_ij) w_j one at a time from 0, i outer
    # and j inner: the order in which np.einsum("...i,ij,...j->...", V, P,
    # W) sums a batch of three or more rows, so a row gets the same bits
    # alone or in any batch, at every n. It works through _FORM_BLOCK rows
    # at a time, whose columns and term buffer stay in cache: on a 2-vCPU
    # Xeon, one pass over 100,000 rows at n = 3 took up to three times as
    # long.
    # Like einsum the kernel raises no floating-point warning. The sum of
    # squares stays an einsum: numpy does not sum "...i,...i->..." in
    # sequence, and a sequential rewrite moved a Hopf witness margin by an
    # ulp and changed report digests.
    # An all-finite block skips P's zero entries: their terms are ±0, which
    # never change a sum that starts at +0 (+0 + -0 is +0). A non-finite
    # entry makes such a term NaN, so a block with one takes every term.
    def _form(self, V, W=None) -> np.ndarray:
        V = np.asarray(V)
        if V.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected rows of length {self.dim}, got {V.shape}")
        rows = V.reshape(-1, self.dim)
        cols = rows if W is None else np.asarray(W).reshape(-1, self.dim)
        terms = [(i, j, p_ij) for i, row in enumerate(self.p_matrix.tolist())
                 for j, p_ij in enumerate(row)]
        nonzero = [t for t in terms if t[2] != 0.0]
        form = np.empty(rows.shape[0])
        with np.errstate(all="ignore"):
            for lo in range(0, rows.shape[0], _FORM_BLOCK):
                C = rows[lo:lo + _FORM_BLOCK].T.copy()
                E = C if W is None else cols[lo:lo + _FORM_BLOCK].T.copy()
                block = np.zeros(C.shape[1])
                term = np.empty_like(block)
                finite = np.isfinite(C).all() and (E is C or np.isfinite(E).all())
                for i, j, p_ij in nonzero if finite else terms:
                    np.multiply(C[i], p_ij, out=term)
                    np.multiply(term, E[j], out=term)
                    np.add(block, term, out=block)
                form[lo:lo + _FORM_BLOCK] = block
        return form.reshape(V.shape[:-1])

    def margin_many(self, V) -> np.ndarray:
        """Normalized margins for rows of V, shape (m, n) -> (m,)."""
        sumsq = lambda W: np.einsum("...i,...i->...", W, W)
        V, ss = _in_range(V, sumsq)
        form = self._form(V)
        # v^T P v can overflow where |v|^2 does not, for |v|^2 near 1e308: a
        # row whose form overflowed and whose |v|^2 is at least
        # _FORM_RESCALE_SUMSQ is divided by its largest |v_i| as well. A form
        # that overflows at a smaller |v|^2 does so through P and stays as
        # einsum reads it.
        if not np.isfinite(form).all():
            over = ~np.isfinite(form) & (ss >= _FORM_RESCALE_SUMSQ) & (ss < np.inf)
            if over.any():
                V = V / np.where(over, np.abs(V).max(axis=-1), 1.0)[..., None]
                ss = sumsq(V)
                form = self._form(V)
        return form / ss


def make_quadratic_cone(P, boundary_band: float = DEFAULT_BOUNDARY_BAND) -> QuadraticCone:
    """Build a QuadraticCone, validating symmetry, nonsingularity, and rank.

    Raises NotSymmetric, NearSingular (min |eig| <= 1e-10 max |eig|), and
    DegenerateRank when the negative index is 0 or n.
    """
    if not (boundary_band >= 0.0):
        raise BadParameter("boundary_band must be nonnegative")
    A = require_symmetric(P)
    w, V = sym_eig(A)
    mags = np.abs(w)
    if mags.min() <= SINGULARITY_RTOL * mags.max():
        raise NearSingular(
            f"min |eigenvalue| {mags.min():.3e} within {SINGULARITY_RTOL:.0e} of singular"
        )
    k = int(np.count_nonzero(w < 0.0))
    if k == 0 or k == A.shape[0]:
        raise DegenerateRank(f"{k} negative eigenvalues of {A.shape[0]} gives no cone")
    return QuadraticCone(
        p_matrix=A,
        eigenvalues=w,
        eigenvectors=V,
        rank_k=k,
        boundary_band=float(boundary_band),
    )


@dataclass(frozen=True, eq=False)
class _OrthantPair(_Margins):
    """The two orthant cones are mirror images: their margins are
    _sign * min(max_i v_i, -min_i v_i) / |v| with opposite signs."""

    dim: int
    boundary_band: float = DEFAULT_BOUNDARY_BAND

    def margin_many(self, V) -> np.ndarray:
        # sqrt of this sum of squares is np.linalg.norm(V, axis=-1).
        V, ss = _in_range(V, lambda W: np.add.reduce(W * W, axis=-1))
        return self._sign * np.minimum(V.max(axis=-1), -V.min(axis=-1)) / np.sqrt(ss)


class OrthantComplementCone(_OrthantPair):
    """Closure of R^n minus both open orthants; rank n - 1 and (n-1)-solid.

    v belongs iff v has no strict sign (not all components positive, not all
    negative). Margin is -min(max_i v_i, -min_i v_i) / |v|: negative when v
    has strictly mixed signs (interior), positive when v is one-signed.
    """

    _sign = -1.0

    @property
    def rank_k(self) -> int:
        return self.dim - 1


class ConvexUnionCone(_OrthantPair):
    """The positive orthant united with its negation; the rank-1 convex case."""

    _sign = 1.0

    @property
    def rank_k(self) -> int:
        return 1


def make_orthant_complement_cone(n: int, boundary_band: float = DEFAULT_BOUNDARY_BAND) -> OrthantComplementCone:
    if n < 2:
        raise BadParameter("orthant complement cone needs dimension >= 2")
    return OrthantComplementCone(dim=int(n), boundary_band=float(boundary_band))


def make_orthant_union_cone(n: int, boundary_band: float = DEFAULT_BOUNDARY_BAND) -> ConvexUnionCone:
    if n < 2:
        raise BadParameter("orthant union cone needs dimension >= 2")
    return ConvexUnionCone(dim=int(n), boundary_band=float(boundary_band))


Cone = QuadraticCone | OrthantComplementCone | ConvexUnionCone


def _distinct_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x - y; raises IdenticalPoints when |x - y| <= DISTINCTNESS_RTOL
    max(|x|, |y|, 1)."""
    v = x - y
    gap = float(np.linalg.norm(v))
    if gap <= DISTINCTNESS_RTOL * max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 1.0):
        raise IdenticalPoints(f"|x - y| = {gap:.3e} below distinctness cutoff")
    return v


def relate(cone: Cone, x, y) -> OrderRelation:
    """Classify the pair (x, y) by the cone membership of x - y.

    Symmetric in its arguments and invariant under scaling both points by
    any nonzero factor (margins are normalized). Raises IdenticalPoints when
    |x - y| <= 1e-14 max(|x|, |y|, 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.shape != (cone.dim,):
        raise DimensionMismatch(f"expected two vectors of length {cone.dim}")
    return _classify(cone.margin(_distinct_difference(x, y)), cone.boundary_band)


@dataclass(frozen=True, eq=False)
class Projector:
    """Projection onto the inner subspace of a quadratic cone.

    matrix is the orthogonal projector onto the k-dimensional negative
    eigenspace (which, P being symmetric, is also the projection along the
    complementary positive eigenspace). basis holds the k orthonormal
    eigenvector columns; coords() expresses points in that basis, giving
    the u-coordinates used in loop and limit-set CSV output.

    On any set whose pairwise differences lie in the cone the projection is
    injective: a difference killed by the projector would sit in the
    positive eigenspace, where the form is positive, contradicting cone
    membership.
    """

    matrix: np.ndarray
    basis: np.ndarray

    def coords(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.basis


def make_projector(cone: QuadraticCone) -> Projector:
    """Sum of v v^T over the negative-eigenvalue eigenvectors of the cone."""
    if not isinstance(cone, QuadraticCone):
        raise BadParameter("projector is defined for quadratic cones only")
    B = cone.negative_basis
    return Projector(matrix=B @ B.T, basis=B)
