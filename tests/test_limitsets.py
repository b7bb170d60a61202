"""Tail estimates, order census, trichotomy, loops, chains."""

import dataclasses

import numpy as np
import pytest

from kcone import limitsets
from kcone.cones import make_projector, make_quadratic_cone
from kcone.domains import Box
from kcone.errors import (
    BadParameter,
    NotConverged,
    RankNotTwo,
    TooFewPoints,
    TrajectoryTooShort,
)
from kcone.fields import make_linear_field
from kcone.integrators import Trajectory
from kcone.limitsets import (
    LOOP_POINTS,
    ORBIT_STATES,
    LimitSetBranch,
    OmegaEstimate,
    OrbitClass,
    _directed_curve_gap,
    _spread,
    audit_ordering,
    chain_check,
    classify_orbit,
    detect_periodic,
    estimate_omega,
    ordered_pair_matrix,
    projection_separation,
    trichotomy_report,
)


@pytest.mark.parametrize("count", [8, 256, 400, 512])
def test_spread_picks_strictly_increasing_ends_included(count):
    """The evenly spaced picks of classify_orbit, the margins CSV and the
    chain points: min(count, m) strictly increasing indices from 0 to m - 1,
    so the np.unique the orbit scan once applied changes nothing."""
    for m in range(1, 3001):
        idx = _spread(m, count)
        assert len(idx) == min(count, m)
        assert idx[0] == 0 and idx[-1] == m - 1
        assert np.all(np.diff(idx) > 0)
        assert np.array_equal(idx, np.unique(np.linspace(0, m - 1, min(count, m)).astype(int)))


def _constant_trajectory(point, n=12):
    point = np.asarray(point, dtype=float)
    return Trajectory(
        times=np.linspace(0.0, 1.0, n),
        states=np.tile(point, (n, 1)),
        derivs=np.zeros((n, point.shape[0])),
        rtol=1e-8,
        atol=1e-10,
        max_step=np.inf,
    )


def _estimate(points, converged=True):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return OmegaEstimate(
        points=points,
        times=np.arange(points.shape[0], dtype=float),
        window=(0.0, float(points.shape[0])),
        spacing=1.0,
        hausdorff_gap=0.0,
        converged=converged,
        tol=1.0,
    )


def test_directed_curve_gap_one_way_only():
    assert _directed_curve_gap(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    B = np.array([[0.0, 0.0]])
    # directed gaps differ; the symmetric gap takes the larger
    assert _directed_curve_gap(A, B) == 1.0
    assert _directed_curve_gap(B, A) == 0.0
    assert max(_directed_curve_gap(A, B), _directed_curve_gap(B, A)) == 1.0
    assert _directed_curve_gap(A, A) == 0.0


def test_estimate_omega_sink_collapses(sink_traj):
    omega = estimate_omega(sink_traj)
    assert omega.converged
    assert np.all(np.linalg.norm(omega.points, axis=1) < 1e-9)
    assert omega.window[1] == pytest.approx(sink_traj.t_end)
    assert omega.window[0] == pytest.approx(sink_traj.t_end - 0.5 * sink_traj.span())
    assert omega.hausdorff_gap <= omega.tol
    assert omega.tol == pytest.approx(1e-4 * sink_traj.extent())


def test_estimate_omega_hopf_cycle(hopf_omega, hopf_traj):
    assert hopf_omega.converged
    assert hopf_omega.hausdorff_gap <= hopf_omega.tol
    r = np.hypot(hopf_omega.points[:, 0], hopf_omega.points[:, 1])
    assert np.max(np.abs(r - 1.0)) < 1e-6
    assert np.max(np.abs(hopf_omega.points[:, 2])) < 1e-9
    # estimate points are stored trajectory nodes inside the window
    assert np.all(np.isin(hopf_omega.times, hopf_traj.times))
    assert hopf_omega.times[0] >= hopf_omega.window[0] - hopf_omega.spacing
    assert len(hopf_omega.points) > 100


def test_estimate_omega_validation(hopf_traj):
    with pytest.raises(BadParameter):
        estimate_omega(hopf_traj, window_fraction=0.6)
    with pytest.raises(BadParameter):
        estimate_omega(hopf_traj, window_fraction=0.0)
    with pytest.raises(BadParameter):
        estimate_omega(hopf_traj, spacing=60.0)  # exceeds the 50-long window
    with pytest.raises(BadParameter):
        estimate_omega(hopf_traj, spacing=0.0)
    flat = _constant_trajectory([1.0, 2.0, 3.0])
    flat = Trajectory(
        times=np.zeros(12), states=flat.states, derivs=flat.derivs,
        rtol=1e-8, atol=1e-10, max_step=np.inf,
    )
    with pytest.raises(TrajectoryTooShort):
        estimate_omega(flat)


def test_classify_orbit_branches(hopf_traj, sink_traj, std_cone):
    hopf = classify_orbit(hopf_traj, std_cone)
    assert hopf.kind is OrbitClass.PSEUDO_ORDERED
    assert hopf.witness_margin is not None
    assert hopf.witness_margin <= std_cone.boundary_band
    t1, t2 = hopf.witness_times
    assert t1 < t2

    sink = classify_orbit(sink_traj, std_cone)
    assert sink.kind is OrbitClass.UNORDERED
    assert sink.witness_times is None

    flat = classify_orbit(_constant_trajectory([0.5, 0.5, 0.5]), std_cone)
    assert flat.kind is OrbitClass.TRIVIAL
    assert flat.n_states == 12


def test_classify_orbit_subsampling(hopf_traj, std_cone):
    assert len(hopf_traj.times) > ORBIT_STATES
    capped = classify_orbit(hopf_traj, std_cone)
    assert capped.n_states <= ORBIT_STATES
    assert capped.kind is OrbitClass.PSEUDO_ORDERED


def test_classify_orbit_too_few_points(std_cone):
    with pytest.raises(TooFewPoints):
        classify_orbit(_constant_trajectory([0.0, 0.0, 1.0], n=5), std_cone)


def test_audit_ordering_hopf_tail(hopf_omega, std_cone):
    audit = audit_ordering(hopf_omega.points, std_cone)
    assert audit.ordered
    assert not audit.trivial
    assert audit.ordered_fraction == 1.0
    assert audit.worst_unordered is None
    # chords of a planar circle have margin exactly -1 under this form
    assert audit.min_margin == pytest.approx(-1.0, abs=1e-9)
    assert audit.max_margin == pytest.approx(-1.0, abs=1e-9)
    assert audit.n_pairs == audit.n_points * (audit.n_points - 1) // 2


def test_audit_ordering_small_sets(std_cone):
    single = audit_ordering([[0.3, 0.1, 0.2]], std_cone)
    assert single.trivial and single.ordered
    assert single.n_pairs == 0
    with pytest.raises(TooFewPoints):
        audit_ordering(np.empty((0, 3)), std_cone)


def test_audit_ordering_mixed(std_cone):
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    audit = audit_ordering(pts, std_cone)
    assert not audit.ordered
    assert audit.ordered_fraction == pytest.approx(2.0 / 3.0)
    i, j, margin = audit.worst_unordered
    assert (i, j) == (0, 2)
    assert margin == pytest.approx(1.0)


def test_ordered_pair_matrix(std_cone):
    pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    M = ordered_pair_matrix(pts, std_cone)
    assert M.shape == (3, 3)
    assert np.array_equal(M, M.T)
    assert np.all(np.diag(M))
    assert M[0, 1] and not M[0, 2] and M[1, 2]  # third pair sits on the boundary


def test_trichotomy_ordered_branch(hopf_omega, hopf_field, std_cone):
    rep = trichotomy_report(hopf_omega, [np.zeros(3)], std_cone, hopf_field)
    assert rep.branch is LimitSetBranch.ORDERED
    assert rep.equilibria_hits == 0
    assert rep.core_size == rep.audit.n_points
    assert not rep.audit.trivial
    assert not rep.backward_surrogate_used


def test_trichotomy_equilibrium_branch(sink_traj, sink_field, std_cone):
    omega = estimate_omega(sink_traj)
    rep = trichotomy_report(omega, [np.zeros(3)], std_cone, sink_field)
    assert rep.branch is LimitSetBranch.UNORDERED_EQUILIBRIA
    assert rep.equilibria_hits == rep.audit.n_points
    assert rep.audit.trivial  # tail collapsed below the distinctness cutoff


# A mixed audit: the origin is ordered with both other points, which are
# not ordered with each other, so the ordered core is the origin alone.
MIXED = [[0.0, 0.0, 0.0], [0.15, 0.0, 0.1], [0.15, 0.0, -0.1]]


def test_trichotomy_all_hit_mixed_audit_reads_equilibria(monkeypatch, std_cone):
    """An estimate whose every point lies near an equilibrium is contained in
    the equilibria, whatever its audit says, and no backward flow runs."""
    calls = []
    real = limitsets.integrate_backward

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(limitsets, "integrate_backward", counted)
    field = make_linear_field(np.eye(3))
    rep = trichotomy_report(_estimate(MIXED), MIXED, std_cone, field)
    assert 0.0 < rep.audit.ordered_fraction < 1.0
    assert rep.branch is LimitSetBranch.UNORDERED_EQUILIBRIA
    assert rep.equilibria_hits == 3 and rep.core_size == 1
    assert not rep.backward_surrogate_used and calls == []
    # One point off the equilibria: the mixed branch runs its backward flows.
    rep = trichotomy_report(_estimate(MIXED), MIXED[:2], std_cone, field)
    assert rep.branch is LimitSetBranch.ORDERED_HOMOCLINIC_SUSPECTED
    assert rep.backward_surrogate_used and len(calls) == 2


def _core_size_by_branch(audit, hits) -> int:
    """The core each branch implies: every point of an ordered audit, none
    of an all-hit audit with no ordered pair, else the points ordered
    against all others."""
    if audit.ordered:
        return audit.n_points
    if audit.ordered_fraction == 0.0 and hits == audit.n_points:
        return 0
    return int(np.count_nonzero(audit.core_mask))


@pytest.mark.parametrize("eqs", ["none", "origin", "all"])
@pytest.mark.parametrize("pts", [
    [[0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-14]],  # one distinct point: trivial
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # ordered
    [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]],  # no ordered pair
    [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 3.0]],  # no ordered pair
    MIXED,
])
def test_trichotomy_core_size_is_the_audit_core_on_every_branch(pts, eqs, std_cone):
    eq_pts = {"none": np.empty((0, 3)), "origin": [np.zeros(3)], "all": pts}[eqs]
    field = make_linear_field(-np.eye(3))
    rep = trichotomy_report(_estimate(pts), eq_pts, std_cone, field)
    assert rep.core_size == _core_size_by_branch(rep.audit, rep.equilibria_hits)


def test_trichotomy_undetermined_without_equilibria(std_cone):
    field = make_linear_field(np.eye(3))
    rep = trichotomy_report(_estimate(MIXED), [], std_cone, field)
    assert rep.branch is LimitSetBranch.UNDETERMINED
    assert rep.core_size == 1
    assert not rep.backward_surrogate_used


def test_trichotomy_homoclinic_suspected(std_cone):
    # mixed audit with an ordered core at the equilibrium; the two off-core
    # points flow backward into it, which is the connection surrogate
    field = make_linear_field(np.eye(3))
    rep = trichotomy_report(_estimate(MIXED), [np.zeros(3)], std_cone, field)
    assert rep.branch is LimitSetBranch.ORDERED_HOMOCLINIC_SUSPECTED
    assert rep.backward_surrogate_used
    assert rep.core_size == 1
    # a backward flow too slow to come within 1e-2 max(1, extent) of the
    # equilibrium over BACKWARD_T breaks the connection
    slow = make_linear_field(0.1 * np.eye(3))
    strict = trichotomy_report(_estimate(MIXED), [np.zeros(3)], std_cone, slow)
    assert strict.branch is LimitSetBranch.UNDETERMINED


def test_trichotomy_backward_failure_breaks_connection(std_cone):
    # a backward run that fails with a kcone error counts as no connection
    field = dataclasses.replace(
        make_linear_field(np.eye(3)), rhs=lambda x: np.full_like(x, np.nan)
    )
    rep = trichotomy_report(_estimate(MIXED), [np.zeros(3)], std_cone, field)
    assert rep.branch is LimitSetBranch.UNDETERMINED
    assert rep.backward_surrogate_used


def test_trichotomy_backward_bug_propagates(std_cone):
    # an error that is not a kcone error is a bug and is not swallowed
    def broken(x):
        raise TypeError("broken rhs")

    field = dataclasses.replace(make_linear_field(np.eye(3)), rhs=broken)
    with pytest.raises(TypeError, match="broken rhs"):
        trichotomy_report(_estimate(MIXED), [np.zeros(3)], std_cone, field)


def test_trichotomy_branch_ignores_convergence_and_refuses_empty(std_cone):
    field = make_linear_field(np.eye(3))
    pts = [[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]
    reps = [trichotomy_report(_estimate(pts, converged=c), [], std_cone, field)
            for c in (True, False)]
    assert [r.branch for r in reps] == [LimitSetBranch.ORDERED] * 2
    assert reps[0].core_size == reps[1].core_size == 2
    with pytest.raises(TooFewPoints):
        trichotomy_report(_estimate(np.empty((0, 3))), [], std_cone, field)


def _broadcast_nearest_distances(A, B):
    """The trichotomy's nearest distances as one broadcast norm per row of A."""
    return np.array([np.linalg.norm(B - a, axis=1).min() for a in A])


@pytest.mark.parametrize("seed", range(4))
def test_nearest_distances_have_the_bits_of_the_broadcast_norm(seed):
    """At n = 3 the k-d search sums the squares in numpy's order, so the
    equilibrium hits and core equilibria read the same distances, on tails
    a thousand times wider than their spacing and on equilibria inside them."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(300, 1))
    pts = rng.normal(size=(300, 3)) * scale
    eqs = np.concatenate([rng.normal(size=(5, 3)), pts[::60] + 1e-9])
    for A, B in ((pts, eqs), (eqs, pts), (pts, pts[:1])):
        got = limitsets._nearest_distances(A, B)
        assert got.tobytes() == _broadcast_nearest_distances(A, B).tobytes()


def test_detect_periodic_hopf(hopf_omega, hopf_loop):
    assert abs(hopf_loop.period - 2.0 * np.pi) < 1e-8
    assert hopf_loop.closure_gap < 1e-6
    assert hopf_loop.closure_gap <= 1e-3 * hopf_loop.loop_diameter()
    assert hopf_loop.states.shape == (LOOP_POINTS, 3)
    assert hopf_loop.times[0] == 0.0
    assert hopf_loop.times[-1] == pytest.approx(hopf_loop.period)
    assert np.array_equal(hopf_loop.states[0], hopf_omega.points[-1])
    r = np.hypot(hopf_loop.states[:, 0], hopf_loop.states[:, 1])
    assert np.max(np.abs(r - 1.0)) < 1e-7
    assert np.max(np.abs(hopf_loop.states[:, 2])) < 1e-8


def test_detect_periodic_representative_invariance(
    hopf_omega, hopf_traj, hopf_loop, std_cone, hopf_field
):
    # the same tail without its newest four points closes its loop from
    # another point, with the same period
    older = dataclasses.replace(
        hopf_omega, points=hopf_omega.points[:-4], times=hopf_omega.times[:-4]
    )
    other = detect_periodic(older, hopf_traj, std_cone, hopf_field)
    assert other is not None
    assert abs(other.period - hopf_loop.period) < 1e-6
    assert not np.array_equal(other.states[0], hopf_loop.states[0])


def test_detect_periodic_guards(hopf_omega, hopf_traj, hopf_field, std_cone, sink_traj, sink_field):
    rank1 = make_quadratic_cone(np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(RankNotTwo):
        detect_periodic(hopf_omega, hopf_traj, rank1, hopf_field)
    stale = _estimate(hopf_omega.points, converged=False)
    with pytest.raises(NotConverged):
        detect_periodic(stale, hopf_traj, std_cone, hopf_field)
    # a tail collapsed onto an equilibrium has no loop
    omega = estimate_omega(sink_traj)
    assert detect_periodic(omega, sink_traj, std_cone, sink_field) is None


def test_classify_orbit_reads_coincident_states_as_audit_ordering_does(std_cone):
    """Three states pairwise within the distinctness cutoff (1e-12 at unit
    scale), whose bounding-box diagonal is above it: no pair is distinct,
    so the orbit is trivial, as the audit of the same states is."""
    d = 0.65e-12  # pair gaps d * sqrt(2) < 1e-12 < d * sqrt(3), the diagonal
    corners = 0.5 + d * np.eye(3)
    states = np.tile(corners, (4, 1))
    traj = Trajectory(
        times=np.arange(12.0), states=states, derivs=np.zeros_like(states),
        rtol=1e-8, atol=1e-10, max_step=np.inf,
    )
    assert classify_orbit(traj, std_cone).kind is OrbitClass.TRIVIAL
    assert audit_ordering(states, std_cone).trivial


def test_detect_periodic_finds_no_loop(hopf_omega, hopf_traj, hopf_field, std_cone):
    # a tail of fewer than 4 points
    short = dataclasses.replace(
        hopf_omega, points=hopf_omega.points[-3:], times=hopf_omega.times[-3:]
    )
    assert detect_periodic(short, hopf_traj, std_cone, hopf_field) is None
    # the refinement run from the representative leaves a domain around it
    p = hopf_omega.points[-1]
    boxed = dataclasses.replace(hopf_field, domain=Box(lo=p - 0.05, hi=p + 0.05))
    assert detect_periodic(hopf_omega, hopf_traj, std_cone, boxed) is None
    # a closure gap above tol_per times the loop diameter
    assert detect_periodic(hopf_omega, hopf_traj, std_cone, hopf_field, tol_per=1e-15) is None


def test_chain_check_rotation_ring():
    # pure rotation: the four cardinal points close a 4-hop chain when the
    # horizon is too short for a single-hop return
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    field = make_linear_field(A)
    pts = np.array(
        [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    results = chain_check(pts, field, eps=1e-6, r=np.pi / 2.0, t_max=2.0)
    assert len(results) == 4
    for res in results:
        assert res.success
        assert len(res.hops) == 4
        for duration, gap in res.hops:
            assert duration == pytest.approx(np.pi / 2.0)
            assert gap < 1e-6


def test_chain_check_single_hop_at_equilibrium(sink_field):
    results = chain_check(np.zeros((1, 3)), sink_field, eps=1e-3, r=0.5, t_max=5.0)
    assert results[0].success
    assert len(results[0].hops) == 1
    duration, gap = results[0].hops[0]
    assert duration >= 0.5 - 1e-9
    assert gap < 1e-9


def test_chain_check_transient_fails(sink_field):
    # the planar part of this flow expands, so a transient never returns
    results = chain_check(np.array([[0.5, 0.0, 0.0]]), sink_field, eps=1e-2, r=0.5, t_max=5.0)
    assert not results[0].success
    assert results[0].hops == ()


def test_chain_check_validation(sink_field):
    pts = np.zeros((1, 3))
    with pytest.raises(BadParameter):
        chain_check(pts, sink_field, eps=0.0, r=1.0, t_max=10.0)
    with pytest.raises(BadParameter):
        chain_check(pts, sink_field, eps=1e-2, r=0.0, t_max=10.0)
    with pytest.raises(BadParameter):
        chain_check(pts, sink_field, eps=1e-2, r=1.0, t_max=0.5)


def test_projection_separation(hopf_omega, std_cone):
    proj = make_projector(std_cone)
    sep = projection_separation(hopf_omega.points, proj)
    assert sep == pytest.approx(1.0, abs=1e-6)  # tail lies in the inner plane
    axis = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert projection_separation(axis, proj) == 0.0
    assert projection_separation(np.zeros((1, 3)), proj) == 1.0

