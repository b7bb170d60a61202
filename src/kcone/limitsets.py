"""Limit-set estimation, orbit classification, and recurrence analytics.

Everything here works on finite data: a long trajectory stands in for the
flow, its tail stands in for the omega-limit set, and each conclusion is a
verdict at a stated resolution. The classification surrogates mirror the
structure theory for flows monotone with respect to a rank-k cone: a tail
whose points are pairwise ordered, a tail collapsed onto equilibria, or a
mixed tail whose ordered core the rest may connect to.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cones import Cone, Projector, QuadraticCone, make_projector
from .errors import (
    BadParameter,
    KconeError,
    NotConverged,
    RankNotTwo,
    TooFewPoints,
    TrajectoryTooShort,
)
from .fields import VectorField
from .integrators import Trajectory, _hermite, integrate, integrate_backward, integrate_many

# Two states closer than this (absolute, relative to max(1, scale)) are one
# point for pair scans.
PAIR_DISTINCT_TOL = 1e-12
# Pairs per block of a pair scan; bounds scan memory for any number of points.
_PAIR_BLOCK = 1 << 16
# Default relative tolerance of the tail-convergence test.
OMEGA_TOL_RTOL = 1e-4
# Backward flow time of the trichotomy's homoclinic surrogate.
BACKWARD_T = 5.0
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Points of a detected loop, evenly spaced in time over one period.
LOOP_POINTS = 256
# Most orbit states classify_orbit scans, evenly spaced over the run.
ORBIT_STATES = 512


# ---- omega-limit estimate ----


@dataclass(frozen=True, eq=False)
class OmegaEstimate:
    points: np.ndarray
    times: np.ndarray
    window: tuple[float, float]
    spacing: float
    hausdorff_gap: float
    converged: bool
    tol: float


# Dense samples per half-window for the curve-to-curve gap.
_GAP_SAMPLES = 2048
_GAP_CHUNK = 256
# Candidate nodes per query for segment refinement. A curve that passes
# the same region several times needs more than the single nearest node:
# the best segment may hang off a node from another pass.
_GAP_NEIGHBORS = 8
# Nodes per k-d leaf and queries per block of the pruned nearest-node search.
_GAP_LEAF = 32
_GAP_BLOCK = 64


def _kd_order(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, bounds): the rows of P in k-d leaf order, leaf i being
    perm[bounds[i]:bounds[i + 1]]. Each node above leaf size splits at its
    median along its widest axis, into halves of nearly equal size."""
    m = P.shape[0]
    perm = np.arange(m)
    bounds = np.array([0, m])
    while True:
        sizes = np.diff(bounds)
        split = sizes > _GAP_LEAF
        if not split.any():
            return perm, bounds
        X = P[perm]
        width = np.maximum.reduceat(X, bounds[:-1]) - np.minimum.reduceat(X, bounds[:-1])
        node = np.repeat(np.arange(sizes.size), sizes)
        key = X[np.arange(m), np.argmax(width, axis=1)[node]]
        perm = perm[np.lexsort((key, node))]
        bounds = np.sort(np.concatenate([bounds, bounds[:-1][split] + sizes[split] // 2]))


def _squared_distances(Q: np.ndarray, BT: np.ndarray) -> np.ndarray:
    """|q - b|^2 for every row q of Q and column b of BT, summed one
    coordinate at a time, c = 0..n-1."""
    d2 = (Q[:, 0:1] - BT[0]) ** 2
    for c in range(1, BT.shape[0]):
        d2 += (Q[:, c:c + 1] - BT[c]) ** 2
    return d2


def _leaf_nearest(
    A: np.ndarray, B: np.ndarray, k: int, order: np.ndarray, kd_b: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """(near, nd2): for each row of A, the indices of its k nearest rows of
    B and their squared distances, in that row of each. order is
    _kd_order(A)[0], the rows of A in leaf order, so each block of queries
    is compact, and kd_b is _kd_order(B).

    A k-d search pruned by leaf boxes settles most rows. Rows it cannot
    settle exactly, tied at the k-th distance or in a block that keeps at
    most k nodes, take argpartition over the full row of d2, in B's order."""
    near = np.empty((A.shape[0], k), dtype=np.intp)
    nd2 = np.empty((A.shape[0], k))
    BT = np.ascontiguousarray(B.T)
    perm, bounds = kd_b
    sizes = np.diff(bounds)
    P = B[perm]
    lo = np.minimum.reduceat(P, bounds[:-1])
    hi = np.maximum.reduceat(P, bounds[:-1])
    PT = np.ascontiguousarray(P.T)
    leaf = np.repeat(np.arange(sizes.size), sizes)
    for b0 in range(0, order.size, _GAP_BLOCK):
        rows = order[b0:b0 + _GAP_BLOCK]
        Q = A[rows]
        # Squared distance from each query to each leaf box, summed like d2;
        # every term is a monotone function of a term of d2, so lb <= d2
        # holds in floating point for every node of a leaf.
        lb = np.zeros((rows.size, sizes.size))
        for c in range(P.shape[1]):
            q = Q[:, c:c + 1]
            lb += np.maximum(np.maximum(lo[:, c] - q, q - hi[:, c]), 0.0) ** 2
        # U bounds each row's k-th distance from above: the k-th smallest d2
        # over the leaves nearest the block, two at least and k nodes.
        seed = np.argsort(lb.max(axis=0))
        n_seed = max(2, int(np.searchsorted(np.cumsum(sizes[seed]), k)) + 1)
        near_leaf = np.zeros(sizes.size, dtype=bool)
        near_leaf[seed[:n_seed]] = True
        cols = np.flatnonzero(near_leaf[leaf])
        U = np.partition(_squared_distances(Q, PT[:, cols]), k - 1, axis=1)[:, k - 1]
        cols = np.flatnonzero((lb <= U[:, None]).any(axis=0)[leaf])
        if cols.size > k:
            d2 = _squared_distances(Q, PT[:, cols])
            part = np.argpartition(d2, k, axis=1)[:, :k + 1]
            pd2 = np.take_along_axis(d2, part, axis=1)
            near[rows] = perm[cols[part[:, :k]]]
            nd2[rows] = pd2[:, :k]
            tied = pd2[:, :k].max(axis=1) >= pd2[:, k]
            rows, Q = rows[tied], Q[tied]
        if rows.size:
            d2 = _squared_distances(Q, BT)
            idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
            near[rows] = idx
            nd2[rows] = np.take_along_axis(d2, idx, axis=1)
    return near, nd2


# Each query's candidates are its k = _GAP_NEIGHBORS nearest B nodes by
# squared distance d2, summed one coordinate at a time, c = 0..n-1. Every
# d2 is computed by that one expression, so a pair has the same bits
# whichever block or column subset holds it, and the gap is bit for bit
# that of the column-by-column scan of every (query, node) pair, at any n.
# (numpy sums an axis shorter than 8 in the same order, so for n < 8 it is
# also the broadcast sum ((Q[:, None] - B[None]) ** 2).sum(axis=2); from
# n = 8 on numpy sums that form pairwise and it may differ by an ulp.)
#
# The k-d search is exact. A leaf is pruned only when lb > U for every row
# of the block, and U is the k-th smallest d2 over a subset of the kept
# nodes, so every pruned node has d2 > U >= the k-th smallest kept d2. If
# the largest of a row's k smallest kept d2 is strictly below the (k+1)-th,
# its k-set is unique in the full row too, and argpartition over the full
# row returns that same set. Rows tied at the k-th distance and blocks
# that keep too few nodes take argpartition over the full row instead. The
# refinement in _rows_gap then sees the full scan's candidate set per row,
# takes minima over it in any order, and works on each row alone.
def _rows_gap(A: np.ndarray, B: np.ndarray, order: np.ndarray, kd_b: tuple) -> float:
    """max over the rows of A of the distance to the polyline through B;
    0.0 over no row. order is _kd_order(A)[0] and kd_b is _kd_order(B)."""
    m = B.shape[0]
    k = min(_GAP_NEIGHBORS, m)
    near, near_d2 = _leaf_nearest(A, B, k, order, kd_b)
    worst = 0.0
    for lo in range(0, A.shape[0], _GAP_CHUNK):
        Q = A[lo:lo + _GAP_CHUNK]
        cand = near[lo:lo + _GAP_CHUNK]
        best = np.sqrt(near_d2[lo:lo + _GAP_CHUNK].min(axis=1))
        # Project onto the polyline segments adjacent to each candidate
        # node; on a smooth curve this removes the node-spacing artifact.
        for j0, j1 in (
            (np.maximum(cand - 1, 0), cand),
            (cand, np.minimum(cand + 1, m - 1)),
        ):
            p = B[j0]
            w = B[j1] - p
            ww = (w * w).sum(axis=2)
            ww[ww == 0.0] = 1.0
            t = np.clip(((Q[:, None, :] - p) * w).sum(axis=2) / ww, 0.0, 1.0)
            foot = p + t[:, :, None] * w
            gap = np.linalg.norm(Q[:, None, :] - foot, axis=2).min(axis=1)
            best = np.minimum(best, gap)
        worst = max(worst, float(best.max()))
    return worst


# A curve with a non-finite coordinate has no gap to report: the result is
# NaN, which fails the convergence test gap <= tol. (A max over chunks would
# drop a NaN and could read such a curve as converged.)
def _directed_curve_gap(A: np.ndarray, B: np.ndarray, both: bool = False) -> float:
    """max over a in A of the distance from a to the polyline through B,
    and with both the larger of it and the gap from B to A, the Hausdorff
    distance; NaN when A or B has a non-finite coordinate."""
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        return float("nan")
    kd_a, kd_b = _kd_order(A), _kd_order(B)
    gap = _rows_gap(A, B, kd_a[0], kd_b)
    if both:
        gap = max(gap, _rows_gap(B, A, kd_b[0], kd_a))
    return gap


def estimate_omega(
    traj: Trajectory,
    window_fraction: float = 0.5,
    spacing: float = 0.1,
    tol_rel: float = OMEGA_TOL_RTOL,
) -> OmegaEstimate:
    """Tail sample of a trajectory as a stand-in for its omega-limit set.

    The last window_fraction of the run is sampled at (approximately)
    uniform spacing; each sample is the nearest stored state, so the
    estimate is a subset of the trajectory's accepted nodes. Convergence
    is declared when the Hausdorff distance between the window's two
    half-curves (sampled densely through the interpolant, with a polyline
    projection so the measure is of the curves rather than of any finite
    sampling of them) is at most tol_rel times the trajectory extent: a
    tail that has stopped moving traces the same set in both halves.
    hausdorff_gap is that distance, or, when the diagonal of the box
    around both half-curves is already within tol, the diagonal, which
    bounds it from above. With window_fraction <= 0.5 the run covers two
    windows whatever its span, so TrajectoryTooShort means a run that
    spans no time.
    """
    if not (0.0 < window_fraction <= 0.5):
        raise BadParameter("window_fraction must lie in (0, 0.5]")
    window = window_fraction * traj.span()
    if window <= 0.0:
        raise TrajectoryTooShort("trajectory spans no time")
    if not (0.0 < spacing <= window):
        raise BadParameter("spacing must be positive and at most the window")

    t_start = traj.t_end - window
    n_grid = int(np.floor(window / spacing)) + 1
    grid = t_start + spacing * np.arange(n_grid)
    idx = np.searchsorted(traj.times, grid)
    idx = np.clip(idx, 0, len(traj.times) - 1)
    left = np.clip(idx - 1, 0, len(traj.times) - 1)
    use_left = np.abs(traj.times[left] - grid) < np.abs(traj.times[idx] - grid)
    idx = np.where(use_left, left, idx)
    idx = np.unique(idx)

    points = traj.states[idx].copy()
    times = traj.times[idx].copy()
    mid = traj.t_end - 0.5 * window
    A = traj.sample(np.linspace(t_start, mid, _GAP_SAMPLES))
    B = traj.sample(np.linspace(mid, traj.t_end, _GAP_SAMPLES))
    tol = tol_rel * traj.extent()
    # Subtraction rounds monotonically, so each squared width is at least
    # every node pair's squared coordinate gap; summed like d2, the diagonal
    # is at least every node distance, and so at least the gap, whose rows
    # are each at most their nearest-node distance. A window within tol has
    # converged whatever its exact gap. A NaN coordinate gives a NaN
    # diagonal, which goes on to the exact gap and reads NaN there.
    AB = np.concatenate([A, B])
    gap = float(np.sqrt(_squared_distances(AB.min(axis=0)[None], AB.max(axis=0)[:, None])[0, 0]))
    if not gap <= tol:
        gap = _directed_curve_gap(A, B, both=True)
    return OmegaEstimate(
        points=points,
        times=times,
        window=(float(t_start), float(traj.t_end)),
        spacing=float(spacing),
        hausdorff_gap=gap,
        converged=bool(gap <= tol),
        tol=float(tol),
    )


# ---- pair scans ----


def _row_norms(X: np.ndarray, out: np.ndarray, square: np.ndarray) -> np.ndarray:
    """|x| for each row x of X, written into out, with square (as long as
    out) for scratch: the squares added one coordinate at a time, c =
    0..n-1, then the square root. numpy sums an axis shorter than 8 in the
    same order, so for n < 8 these are the bits of np.linalg.norm(X,
    axis=1); from n = 8 on numpy sums pairwise and a norm may differ by an
    ulp. Summed column by column, the squares skip numpy's slow reduction
    along a short last axis."""
    np.multiply(X[:, 0], X[:, 0], out=out)
    for c in range(1, X.shape[1]):
        np.multiply(X[:, c], X[:, c], out=square)
        out += square
    return np.sqrt(out, out=out)


def _distinct_pairs(P: np.ndarray):
    """Yield (i, j, D, gaps) for the distinct pairs i < j of the rows of P.

    Pairs come in (i, j) order, in blocks of at most _PAIR_BLOCK, with
    D = P[i] - P[j] and gaps = |D|; blocks with no distinct pair are
    skipped. The first block holds row 0's pairs alone, so a scan that stops
    after it (classify_orbit at a witness in row 0) reads m - 1 pairs, not
    _PAIR_BLOCK. Two points are distinct when their gap exceeds
    PAIR_DISTINCT_TOL * max(1, max|P|); a non-finite coordinate, to which
    no gap is meaningful, raises BadParameter. Each block is filled from row
    ranges, a row split where the block ends; its arrays are fresh. Its gaps
    are taken once, by _row_norms, with one square buffer a block long for
    the whole scan. A pair has the same bits in any block.
    """
    m, n = P.shape
    if m == 0:
        return
    scale = float(np.abs(P).max())
    if not np.isfinite(scale):
        raise BadParameter("pair scans need finite coordinates")
    tol = PAIR_DISTINCT_TOL * max(1.0, scale)
    cols = np.arange(m)
    left = m * (m - 1) // 2
    square = np.empty(min(_PAIR_BLOCK, left))
    r, lo = 0, 1  # the next pair is (r, lo)
    size = min(m - 1, _PAIR_BLOCK)  # the first block: row 0's pairs
    while left:
        size = min(size, left)
        left -= size
        i = np.empty(size, dtype=np.intp)
        j = np.empty(size, dtype=np.intp)
        D = np.empty((size, n))
        gaps = np.empty(size)
        k = 0
        while k < size:
            take = min(m - lo, size - k)
            Dk = D[k:k + take]
            np.subtract(P[r], P[lo:lo + take], out=Dk)
            i[k:k + take] = r
            j[k:k + take] = cols[lo:lo + take]
            k += take
            lo += take
            if lo == m:
                r += 1
                lo = r + 1
        _row_norms(D, gaps, square[:size])
        keep = gaps > tol
        if keep.all():
            yield i, j, D, gaps
        elif keep.any():
            yield i[keep], j[keep], D[keep], gaps[keep]
        size = _PAIR_BLOCK


# ---- orbit classification ----


class OrbitClass(str, Enum):
    TRIVIAL = "trivial"
    PSEUDO_ORDERED = "pseudo_ordered"  # some pair along the orbit is ordered
    UNORDERED = "unordered"  # every sampled pair is unordered


@dataclass(frozen=True)
class OrbitClassification:
    kind: OrbitClass
    witness_times: tuple[float, float] | None
    witness_margin: float | None
    n_states: int


def _spread(m: int, count: int) -> np.ndarray:
    """min(count, m) strictly increasing indices evenly spaced over range(m),
    the first 0 and the last m - 1."""
    return np.linspace(0, m - 1, min(count, m)).astype(int)


def classify_orbit(traj: Trajectory, cone: Cone) -> OrbitClassification:
    """Scan pairs of at most ORBIT_STATES orbit states, evenly spaced over
    the run, for an ordered pair.

    The first pair (in time order) whose difference lies in the cone, the
    boundary band included, makes the orbit pseudo-ordered and is reported
    as the witness. If every distinct pair is unordered the orbit counts as
    unordered; with no distinct pair, as in audit_ordering, it is trivial.
    The scan ends with the first pair block that holds a witness; the first
    block is the first state's pairs, so a witness there costs m - 1 margins.
    """
    m_all = len(traj.times)
    if m_all < 10:
        raise TooFewPoints("need at least 10 stored states to classify")
    take = _spread(m_all, ORBIT_STATES)
    S = traj.states[take]
    ts = traj.times[take]
    m = len(take)

    kind = OrbitClass.TRIVIAL
    for i, j, D, _ in _distinct_pairs(S):
        kind = OrbitClass.UNORDERED
        margins = cone.margin_many(D)
        ordered = margins <= cone.boundary_band
        if np.any(ordered):
            k = int(np.argmax(ordered))  # first in (i, j) time order
            return OrbitClassification(
                kind=OrbitClass.PSEUDO_ORDERED,
                witness_times=(float(ts[i[k]]), float(ts[j[k]])),
                witness_margin=float(margins[k]),
                n_states=m,
            )
    return OrbitClassification(kind=kind, witness_times=None, witness_margin=None, n_states=m)


# ---- ordering audit ----


@dataclass(frozen=True, eq=False)
class OrderingAudit:
    n_points: int
    n_pairs: int
    ordered_fraction: float
    min_margin: float | None
    max_margin: float | None
    worst_unordered: tuple[int, int, float] | None
    ordered: bool
    trivial: bool
    # True where a point is ordered against every other point; coincident
    # points count as ordered, as in ordered_pair_matrix.
    core_mask: np.ndarray


def audit_ordering(points, cone: Cone) -> OrderingAudit:
    """Pairwise order census of a finite point set.

    Verdict ordered means every distinct pair is ordered, boundary band
    included. Fewer than two distinct points make the audit trivially
    ordered (flag trivial); an empty set raises TooFewPoints. The scan
    streams over pair blocks, so its memory is bounded by the block size
    plus O(m) for core_mask, however many points there are.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.shape[0] == 0:
        raise TooFewPoints("cannot audit an empty point set")
    n_pairs = n_ordered = 0
    lo, hi, worst = np.inf, -np.inf, None
    unordered_with = np.zeros(P.shape[0], dtype=bool)
    for i, j, D, _ in _distinct_pairs(P):
        margins = cone.margin_many(D)
        ok = margins <= cone.boundary_band
        n_pairs += len(margins)
        n_ok = int(np.count_nonzero(ok))
        n_ordered += n_ok
        if n_ok < len(ok):
            bad = ~ok
            unordered_with[i[bad]] = True
            unordered_with[j[bad]] = True
        lo = min(lo, float(margins.min()))
        w = int(np.argmax(margins))
        if margins[w] > hi:  # strict: the first pair wins a tie, as in np.argmax
            hi = float(margins[w])
            worst = (int(i[w]), int(j[w]), hi)
    trivial = n_pairs == 0
    ordered = n_ordered == n_pairs
    return OrderingAudit(
        n_points=P.shape[0],
        n_pairs=n_pairs,
        ordered_fraction=1.0 if trivial else n_ordered / n_pairs,
        min_margin=None if trivial else lo,
        max_margin=None if trivial else hi,
        worst_unordered=None if ordered else worst,
        ordered=ordered,
        trivial=trivial,
        core_mask=~unordered_with,
    )


def ordered_pair_matrix(points, cone: Cone) -> np.ndarray:
    """Boolean matrix: entry (i, j) true when points i and j are ordered.

    Coincident points count as ordered (a point is ordered with itself).
    The m x m result is the scan's one allocation that grows with m^2; its
    row-wise all() is OrderingAudit.core_mask, which the trichotomy uses.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    M = np.ones((P.shape[0], P.shape[0]), dtype=bool)
    for i, j, D, _ in _distinct_pairs(P):
        M[i, j] = M[j, i] = cone.margin_many(D) <= cone.boundary_band
    return M


# ---- trichotomy ----


class LimitSetBranch(str, Enum):
    ORDERED = "ordered"
    UNORDERED_EQUILIBRIA = "unordered_equilibria"
    ORDERED_HOMOCLINIC_SUSPECTED = "ordered_homoclinic_suspected"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True, eq=False)
class TrichotomyReport:
    """An estimate's branch and the facts it was read from (trichotomy_report)."""

    branch: LimitSetBranch
    equilibria_hits: int
    core_size: int
    backward_surrogate_used: bool
    audit: OrderingAudit


def _nearest_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """min over rows b of B of |b - a|, for each row a of A, by the gap's
    nearest-node search."""
    return np.sqrt(_leaf_nearest(A, B, 1, _kd_order(A)[0], _kd_order(B))[1][:, 0])


def trichotomy_report(
    omega: OmegaEstimate,
    equilibrium_points,
    cone: Cone,
    field: VectorField,
    dist_eq: float = 1e-6,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
) -> TrichotomyReport:
    """Sort an omega-limit estimate into one of three structural branches,
    given the points of the found equilibria, one per row.

    unordered_equilibria: every estimate point sits within dist_eq of a
    found equilibrium, so the estimate is contained in the equilibria,
    whatever its ordering audit says. Otherwise, ordered: every pair of
    estimate points is ordered. Otherwise the audit is mixed, and the
    branch is ordered_homoclinic_suspected when the points ordered against
    the whole estimate form a nonempty core and every non-core point flows
    backward under field (over BACKWARD_T) to within 1e-2 max(1, tail
    extent) of an equilibrium near that core; this is only ever a suspicion
    at finite resolution. Everything else is undetermined. core_size counts
    the core on every branch: all points of an ordered audit, none of a
    non-trivial audit with no ordered pair. omega.converged does not move
    the branch. The backward flows run at rtol, atol and max_step.
    """
    pts = omega.points
    n_pts = pts.shape[0]
    if n_pts == 0:
        raise TooFewPoints("empty limit-set estimate")
    eq_pts = np.asarray(equilibrium_points, dtype=float)
    hits = 0
    if eq_pts.shape[0] > 0:
        hits = int(np.count_nonzero(_nearest_distances(pts, eq_pts) <= dist_eq))
    audit = audit_ordering(pts, cone)
    core_mask = audit.core_mask
    core_size = int(np.count_nonzero(core_mask))
    backward_used = False

    if hits == n_pts:
        branch = LimitSetBranch.UNORDERED_EQUILIBRIA
    elif audit.ordered:
        branch = LimitSetBranch.ORDERED
    else:
        # Mixed audit. Look for an ordered core and backward connections;
        # an unordered pair leaves two points outside the core.
        branch = LimitSetBranch.UNDETERMINED
        if core_size > 0 and eq_pts.shape[0] > 0:
            backward_used = True
            tol = 1e-2 * max(1.0, float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))))
            # Equilibria that sit inside (near) the ordered core.
            core_eqs = eq_pts[_nearest_distances(eq_pts, pts[core_mask]) <= tol]

            def connects(p) -> bool:
                try:
                    back = integrate_backward(field, p, BACKWARD_T, rtol, atol, max_step)
                except KconeError:
                    return False
                return any(float(np.linalg.norm(back.states[0] - q)) <= tol for q in core_eqs)

            if core_eqs.shape[0] > 0 and all(connects(p) for p in pts[~core_mask]):
                branch = LimitSetBranch.ORDERED_HOMOCLINIC_SUSPECTED

    return TrichotomyReport(
        branch=branch,
        equilibria_hits=hits,
        core_size=core_size,
        backward_surrogate_used=backward_used,
        audit=audit,
    )


# ---- periodic orbit detection (rank 2) ----


@dataclass(frozen=True, eq=False)
class PeriodicOrbit:
    period: float
    times: np.ndarray
    states: np.ndarray
    closure_gap: float

    def loop_diameter(self) -> float:
        return float(np.linalg.norm(self.states.max(axis=0) - self.states.min(axis=0)))


def projection_separation(points, projector: Projector) -> float:
    """min |proj(p) - proj(q)| / |p - q| over distinct pairs; 1.0 if none."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    m = P.shape[0]
    ratio = np.empty(min(_PAIR_BLOCK, m * (m - 1) // 2))
    square = np.empty_like(ratio)
    lows = []
    for _, _, D, gaps in _distinct_pairs(P):
        size = len(gaps)
        r = _row_norms(D @ projector.matrix.T, ratio[:size], square[:size])
        lows.append(float(np.divide(r, gaps, out=r).min()))
    return min(lows, default=1.0)


def _point_sampler(traj: Trajectory):
    """A function of one float time t with the bits of traj.sample(t),
    without its array set-up: t is clipped to the run and its interval found
    by bisect on the node times, as in sample. A one-node run keeps sample."""
    if len(traj.times) == 1:
        return traj.sample
    times = traj.times.tolist()
    t0, t_end, last = times[0], times[-1], len(times) - 2

    def at(t: float) -> np.ndarray:
        t = min(max(t, t0), t_end)
        i = min(bisect.bisect_right(times, t) - 1, last)
        h = times[i + 1] - times[i]
        return _hermite(traj.states[i], traj.derivs[i], traj.states[i + 1],
                        traj.derivs[i + 1], h, (t - times[i]) / h)

    return at


def _closest_return(traj: Trajectory, y, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """(t, |traj.sample(t) - y|) at the t in [lo, hi] where the run passes
    closest to y, by golden-section search down to a bracket of tol."""
    at = _point_sampler(traj)

    def fn(t):
        return float(np.linalg.norm(at(t) - y))

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    t = 0.5 * (a + b)
    return t, fn(t)


def detect_periodic(
    omega: OmegaEstimate,
    traj: Trajectory,
    cone: QuadraticCone,
    field: VectorField,
    tol_per: float = 1e-3,
) -> PeriodicOrbit | None:
    """Look for a closed loop in a converged rank-2 tail.

    The tail is projected onto the cone's 2-dimensional inner plane, where
    ordered sets embed injectively. Walking backward from the newest tail
    point, the previous pass of the projected curve through a detection
    disk around it (with matching direction of travel) gives a coarse
    return time; a golden-section refinement of the full-space return
    distance on a fresh run from the newest point pins the period, and the
    loop is LOOP_POINTS states of that run, evenly spaced over one period.
    Returns None when the tail has no detectable excursion-and-return
    structure; a closure gap above tol_per times the loop diameter also
    returns None.
    """
    if not isinstance(cone, QuadraticCone) or cone.rank_k != 2:
        raise RankNotTwo("periodic detection needs a rank-2 quadratic cone")
    if not omega.converged:
        raise NotConverged("omega estimate failed its convergence test")
    proj = make_projector(cone)
    pts = omega.points
    m = pts.shape[0]
    if m < 4:
        return None

    U = proj.coords(pts)
    diam = float(np.linalg.norm(U.max(axis=0) - U.min(axis=0)))
    scale = max(1.0, float(np.abs(pts).max()))
    if diam <= 1e-8 * scale:
        return None  # tail collapsed to a point; nothing to close

    p = pts[-1]
    t_p = float(omega.times[-1])
    spacings = np.linalg.norm(np.diff(U, axis=0), axis=1)
    r_detect = max(2.0 * float(spacings.max()), tol_per * diam)
    if r_detect >= 0.45 * diam:
        r_detect = 0.45 * diam

    f_p = np.asarray(field(p))
    v_p = proj.coords(f_p)
    dist = np.linalg.norm(U - U[-1], axis=1)
    inside = dist < r_detect
    # Skip the pass containing the newest point itself, then find the
    # nearest earlier pass through the disk with matching travel direction.
    j = m - 1
    while j >= 0 and inside[j]:
        j -= 1
    candidate = None
    while j >= 0:
        if inside[j]:
            best, best_d = j, dist[j]
            while j >= 0 and inside[j]:
                if dist[j] < best_d:
                    best, best_d = j, dist[j]
                j -= 1
            v_j = proj.coords(np.asarray(field(pts[best])))
            if float(v_j @ v_p) > 0.0:
                candidate = best
                break
        else:
            j -= 1
    if candidate is None:
        return None

    # candidate < m - 1, and tail times increase, so T_coarse > 0.
    T_coarse = t_p - float(omega.times[candidate])

    # Refine on a fresh integration from the newest point.
    speed = max(float(np.linalg.norm(f_p)), 1e-12)
    bracket = max(2.0 * omega.spacing, 2.0 * r_detect / speed)
    T_hi = T_coarse + bracket
    fresh = integrate(field, p, T_hi, rtol=traj.rtol, atol=traj.atol, max_step=traj.max_step)
    if fresh.events:
        return None

    lo = max(T_coarse - bracket, 0.5 * T_coarse)
    T_star, gap = _closest_return(fresh, p, lo, T_hi, tol=1e-10 * max(1.0, T_coarse))

    loop_times = np.linspace(0.0, T_star, LOOP_POINTS)
    loop = PeriodicOrbit(
        period=float(T_star),
        times=loop_times,
        states=fresh.sample(loop_times),
        closure_gap=float(gap),
    )
    if not (gap <= tol_per * max(loop.loop_diameter(), 1e-300)):
        return None
    return loop


# ---- chain recurrence ----


@dataclass(frozen=True)
class ChainResult:
    success: bool
    hops: tuple[tuple[float, float], ...]  # (duration, landing gap)


def chain_check(
    points,
    field: VectorField,
    eps: float,
    r: float,
    t_max: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
) -> list[ChainResult]:
    """Try to close an (eps, r)-chain from each point back to itself.

    A chain hop flows for at least r and must land within eps of the next
    chain point. The search is modest by design: first a single hop back
    to the start (scanning flow times in [r, t_max] for a return), then a
    greedy multi-hop walk that after each r-length hop jumps to the nearest
    supplied point within eps, for at most m + 2 hops over m points.
    Failure means this search failed, not that no chain exists. The first
    hops run as one integrate_many ensemble (one integrate per point, bit
    for bit, on an elementwise field); every flow runs at max_step.
    """
    if eps <= 0 or r <= 0:
        raise BadParameter("eps and r must be positive")
    P = np.atleast_2d(np.asarray(points, dtype=float))
    m = P.shape[0]
    if t_max < r:
        raise BadParameter("t_max must be at least r")
    results: list[ChainResult] = []

    first_hops = integrate_many(field, P, t_max, rtol=rtol, atol=atol, max_step=max_step)
    for y, traj in zip(P, first_hops):
        ts = traj.times
        mask = ts >= r
        success = False
        hops: tuple[tuple[float, float], ...] = ()
        if np.any(mask):
            d = np.linalg.norm(traj.states[mask] - y, axis=1)
            k = int(np.argmin(d))
            t_cand = float(ts[mask][k])
            # Polish the return time on the interpolant.
            lo = max(r, t_cand - 0.5)
            hi = min(float(ts[-1]), t_cand + 0.5)
            if hi > lo:
                t_ref, d_ref = _closest_return(traj, y, lo, hi, tol=1e-9)
            else:
                t_ref, d_ref = t_cand, float(d[k])
            if d_ref < eps:
                success = True
                hops = ((float(t_ref), float(d_ref)),)
        if not success and m > 1:
            cur = y
            walked: list[tuple[float, float]] = []
            for _ in range(m + 2):
                z = integrate(field, cur, r, rtol=rtol, atol=atol, max_step=max_step).final_state
                back_gap = float(np.linalg.norm(z - y))
                if back_gap < eps and walked:
                    walked.append((r, back_gap))
                    success = True
                    hops = tuple(walked)
                    break
                gaps = np.linalg.norm(P - z, axis=1)
                j = int(np.argmin(gaps))
                if float(gaps[j]) >= eps:
                    break
                walked.append((r, float(gaps[j])))
                cur = P[j]
        results.append(ChainResult(success=success, hops=hops))
    return results

