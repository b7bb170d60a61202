"""Blocked pair scans against the brute-force scans they replaced.

Each oracle below materialises every pair of a point set at once (the
upper-triangle index form). The blocked kernel must reproduce it exactly,
with blocks small enough to split rows of the triangle.
"""

import io
import tracemalloc

import numpy as np
import pytest

import kcone
from kcone import limitsets, report
from kcone.cones import (
    make_orthant_complement_cone,
    make_orthant_union_cone,
    make_projector,
    make_quadratic_cone,
)
from kcone.errors import BadParameter, TooFewPoints
from kcone.fields import make_linear_field
from kcone.integrators import Trajectory
from kcone.limitsets import (
    PAIR_DISTINCT_TOL,
    LimitSetBranch,
    OmegaEstimate,
    OrbitClass,
    audit_ordering,
    classify_orbit,
    ordered_pair_matrix,
    projection_separation,
    trichotomy_report,
)
from kcone.report import write_margins_csv

CONES = {
    "quadratic": make_quadratic_cone(np.diag([-1.0, -1.0, 1.0])),
    "orthant_complement": make_orthant_complement_cone(3),
    "orthant_union": make_orthant_union_cone(3),
}


# ---- brute-force oracles ----


def _all_pairs(P):
    iu, ju = np.triu_indices(P.shape[0], k=1)
    D = P[iu] - P[ju]
    gaps = np.linalg.norm(D, axis=1)
    scale = max(1.0, float(np.abs(P).max())) if P.size else 1.0
    return iu, ju, D, gaps, gaps > PAIR_DISTINCT_TOL * scale


def oracle_witness(S, cone):
    iu, ju, D, _, distinct = _all_pairs(S)
    margins = np.full(len(iu), np.inf)
    margins[distinct] = cone.margin_many(D[distinct])
    ordered = margins <= cone.boundary_band
    if not np.any(ordered):
        return None
    k = int(np.argmax(ordered))
    return int(iu[k]), int(ju[k]), float(margins[k])


def oracle_audit(P, cone):
    iu, ju, D, _, distinct = _all_pairs(P)
    if not np.any(distinct):
        return (P.shape[0], 0, 1.0, None, None, None, True, True)
    margins = cone.margin_many(D[distinct])
    ordered = margins <= cone.boundary_band
    worst = None
    if not np.all(ordered):
        w = int(np.argmax(margins))
        worst = (int(iu[distinct][w]), int(ju[distinct][w]), float(margins[w]))
    return (
        P.shape[0], int(len(margins)), float(np.mean(ordered)),
        float(margins.min()), float(margins.max()), worst,
        bool(np.all(ordered)), False,
    )


def oracle_matrix(P, cone):
    iu, ju, D, _, distinct = _all_pairs(P)
    M = np.eye(P.shape[0], dtype=bool)
    ordered = np.ones(len(iu), dtype=bool)
    ordered[distinct] = cone.margin_many(D[distinct]) <= cone.boundary_band
    M[iu, ju] = ordered
    M[ju, iu] = ordered
    return M


def oracle_separation(P, projector):
    _, _, D, gaps, distinct = _all_pairs(P)
    if not np.any(distinct):
        return 1.0
    proj_gaps = np.linalg.norm(D[distinct] @ projector.matrix.T, axis=1)
    return float(np.min(proj_gaps / gaps[distinct]))


def oracle_margins_csv(P, cone, cap):
    if P.shape[0] > cap:
        P = P[np.linspace(0, P.shape[0] - 1, cap).astype(int)]
    _, _, D, _, distinct = _all_pairs(P)
    margins = np.sort(cone.margin_many(D[distinct]))
    return "margin\n" + "".join(f"{float(v):.17g}\n" for v in margins)


# ---- inputs ----


def _point_sets():
    rng = np.random.default_rng(7)
    R = rng.normal(size=(13, 3))
    dup = R.copy()
    dup[[3, 8, 11]] = dup[0]  # coincident with point 0
    # All differences are integer multiples of one vector whose norm is an
    # integer, so every distinct pair has exactly the same margin.
    ties = np.arange(10)[:, None] * np.array([2.0, 3.0, 6.0])
    ties_mixed = np.arange(10)[:, None] * np.array([2.0, -3.0, 6.0])
    return {
        "m0": np.empty((0, 3)),
        "m1": R[:1],
        "m2": R[:2],
        "coincident_pair": np.array([R[0], R[0]]),
        "all_coincident": np.tile(R[0], (6, 1)),
        "random": R,
        "duplicates": dup,
        "ties": ties,
        "ties_mixed_signs": ties_mixed,
    }


POINT_SETS = _point_sets()


# The 13-point sets have 78 pairs and 12 in their first row: block 5 splits
# rows, block 12 ends on a row end, and block 78 holds every pair at once.
@pytest.fixture(params=[1, 5, 12, 78], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(limitsets, "_PAIR_BLOCK", request.param)
    return request.param


# ---- comparisons ----


@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
def test_kernel_blocks_match_oracle(block, set_name):
    P = np.atleast_2d(POINT_SETS[set_name])
    blocks = list(limitsets._distinct_pairs(P))
    assert all(0 < len(b[0]) <= block for b in blocks)
    iu, ju, D, gaps, distinct = _all_pairs(P)
    want = (iu[distinct], ju[distinct], D[distinct], gaps[distinct])
    # Blocks are kept until the end, so a reused buffer would show here.
    for k, oracle in enumerate(want):
        got = np.concatenate([b[k] for b in blocks]) if blocks else oracle[:0]
        assert np.array_equal(got, oracle)


@pytest.mark.parametrize("cone_name", sorted(CONES))
@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
def test_audit_core_mask_matches_matrix(block, cone_name, set_name):
    P, cone = POINT_SETS[set_name], CONES[cone_name]
    if P.shape[0] == 0:
        return
    core = audit_ordering(P, cone).core_mask
    assert core.dtype == bool
    assert np.array_equal(core, ordered_pair_matrix(P, cone).all(axis=1))


@pytest.mark.parametrize("cone_name", sorted(CONES))
@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
def test_audit_matches_oracle(block, cone_name, set_name):
    P, cone = POINT_SETS[set_name], CONES[cone_name]
    if P.shape[0] == 0:
        with pytest.raises(TooFewPoints):
            audit_ordering(P, cone)
        return
    a = audit_ordering(P, cone)
    got = (a.n_points, a.n_pairs, a.ordered_fraction, a.min_margin,
           a.max_margin, a.worst_unordered, a.ordered, a.trivial)
    assert got == oracle_audit(P, cone)


@pytest.mark.parametrize("cone_name", sorted(CONES))
def test_audit_tied_margins_report_first_pair(block, cone_name):
    cone = CONES[cone_name]
    for name in ("ties", "ties_mixed_signs"):
        a = audit_ordering(POINT_SETS[name], cone)
        assert a.min_margin == a.max_margin  # the construction ties them
        if not a.ordered:
            assert a.worst_unordered[:2] == (0, 1)
    # at least one cone sees the tied set as unordered, so the check bites
    assert not audit_ordering(POINT_SETS["ties"], CONES["quadratic"]).ordered


@pytest.mark.parametrize("cone_name", sorted(CONES))
@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
def test_ordered_pair_matrix_matches_oracle(block, cone_name, set_name):
    P, cone = POINT_SETS[set_name], CONES[cone_name]
    M = ordered_pair_matrix(P, cone)
    assert M.dtype == bool
    assert np.array_equal(M, oracle_matrix(np.atleast_2d(P), cone))


@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
def test_projection_separation_matches_oracle(block, set_name):
    P = POINT_SETS[set_name]
    proj = make_projector(CONES["quadratic"])
    assert projection_separation(P, proj) == oracle_separation(np.atleast_2d(P), proj)


@pytest.mark.parametrize("cap", [400, 7])
@pytest.mark.parametrize("cone_name", sorted(CONES))
@pytest.mark.parametrize("set_name", sorted(POINT_SETS))
def test_margins_csv_bytes_match_oracle(block, cone_name, set_name, cap, monkeypatch):
    P, cone = POINT_SETS[set_name], CONES[cone_name]
    monkeypatch.setattr(report, "MARGIN_POINTS", cap)
    buf = io.StringIO()
    write_margins_csv(buf, P, cone)
    assert buf.getvalue() == oracle_margins_csv(np.atleast_2d(P), cone, cap)


def _trajectory(states):
    states = np.asarray(states, dtype=float)
    m = states.shape[0]
    return Trajectory(
        times=np.linspace(0.0, 1.0, m) ** 2,  # uneven, so times identify pairs
        states=states,
        derivs=np.zeros_like(states),
        rtol=1e-8,
        atol=1e-10,
        max_step=np.inf,
    )


def _classify_inputs():
    rng = np.random.default_rng(3)
    # Unordered for the quadratic cone along e3 until the last state, whose
    # pair with state 0 is the first ordered one: flat pair 10, which lies
    # past the first block and mid-row for small blocks.
    late = np.zeros((12, 3))
    late[:, 2] = np.arange(12.0)
    late[-1] = [40.0, 0.0, 0.0]
    return {
        "random": rng.normal(size=(15, 3)),
        "duplicates": np.repeat(rng.normal(size=(6, 3)), 2, axis=0),
        "late_witness": late,
        "ties": POINT_SETS["ties"],
        "ties_mixed_signs": POINT_SETS["ties_mixed_signs"],
        "all_coincident": np.tile([1.0, 2.0, 3.0], (10, 1)),
    }


CLASSIFY_INPUTS = _classify_inputs()


@pytest.mark.parametrize("cone_name", sorted(CONES))
@pytest.mark.parametrize("set_name", sorted(CLASSIFY_INPUTS))
def test_classify_witness_matches_oracle(block, cone_name, set_name):
    S, cone = CLASSIFY_INPUTS[set_name], CONES[cone_name]
    traj = _trajectory(S)
    cls = classify_orbit(traj, cone)
    if set_name == "all_coincident":
        assert cls.kind is OrbitClass.TRIVIAL
        return
    want = oracle_witness(S, cone)
    if want is None:
        assert cls.kind is OrbitClass.UNORDERED
        assert cls.witness_times is None
        return
    i, j, margin = want
    assert cls.kind is OrbitClass.PSEUDO_ORDERED
    assert cls.witness_times == (float(traj.times[i]), float(traj.times[j]))
    assert cls.witness_margin == margin


@pytest.mark.parametrize("n", range(2, 8))
def test_gaps_have_the_bits_of_norm(n):
    """Squares added one coordinate at a time are numpy's own order for an
    axis shorter than 8."""
    rng = np.random.default_rng(n)
    P = rng.normal(size=(300, n)) * rng.choice([1e-6, 1.0, 1e6], size=(300, 1))
    for _, _, D, gaps in limitsets._distinct_pairs(P):
        assert gaps.tobytes() == np.linalg.norm(D, axis=1).tobytes()


@pytest.mark.parametrize("tilt", [0.0, 0.3])
def test_projection_separation_of_the_hopf_tail(hopf_omega, tilt):
    """The same figure as the norm of each block's projected differences
    over the norm of the differences, as np.linalg.norm gives them. The
    tail circles in the plane x3 = 0, the standard cone's inner plane, so
    the tilted cone is the one whose separation is below 1."""
    c, s = np.cos(tilt), np.sin(tilt)
    R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    proj = make_projector(make_quadratic_cone(R @ np.diag([-1.0, -1.0, 1.0]) @ R.T))
    want = min(
        float(np.min(np.linalg.norm(D @ proj.matrix.T, axis=1) / np.linalg.norm(D, axis=1)))
        for _, _, D, _ in limitsets._distinct_pairs(hopf_omega.points)
    )
    assert (want < 1.0) == (tilt > 0.0)
    assert projection_separation(hopf_omega.points, proj) == want


# ---- non-finite points ----


def _late_bad_orbit(P, cone):
    S = np.zeros((12, 3))
    S[:, 2] = np.arange(12.0)
    S[5] = P[-1]
    return classify_orbit(_trajectory(S), cone)


PAIR_SCAN_CALLS = {
    "classify_orbit": _late_bad_orbit,
    "audit_ordering": audit_ordering,
    "ordered_pair_matrix": ordered_pair_matrix,
    "projection_separation": lambda P, cone: projection_separation(P, make_projector(cone)),
    "write_margins_csv": lambda P, cone: write_margins_csv(io.StringIO(), P, cone),
}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=repr)
@pytest.mark.parametrize("consumer", sorted(PAIR_SCAN_CALLS))
def test_non_finite_points_raise_in_every_pair_scan(consumer, bad):
    """A non-finite coordinate has no gap to any point. Unchecked, an inf
    makes the distinctness cutoff inf (an empty, trivially ordered audit)
    and a NaN row silently drops its pairs."""
    P = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [bad, 0.0, 0.0]])
    with np.errstate(invalid="ignore"), pytest.raises(BadParameter):
        PAIR_SCAN_CALLS[consumer](P, CONES["quadratic"])


def _distances_to(points, q):
    """|p - q| for each row p, the squares summed one coordinate at a time."""
    d2 = (points[:, 0] - q[0]) ** 2
    for c in range(1, points.shape[1]):
        d2 = d2 + (points[:, c] - q[c]) ** 2
    return np.sqrt(d2)


@pytest.mark.parametrize("n", [1, 3, 9])
@pytest.mark.parametrize("block_rows", [1, 7, 1 << 16])
def test_nearest_distances_match_per_point_loop(monkeypatch, n, block_rows):
    """The trichotomy's equilibrium tests, by the nearest-node search in
    query blocks of any size, against per-point loops that sum the squares
    in the same order (numpy's broadcast norm sums n >= 8 pairwise)."""
    monkeypatch.setattr(limitsets, "_GAP_BLOCK", block_rows)
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(50, n)) * rng.uniform(0.1, 10.0, size=(50, 1))
    eqs = rng.normal(size=(4, n))
    hits = [np.min(_distances_to(eqs, p)) for p in pts]
    core = [np.min(_distances_to(pts, q)) for q in eqs]
    assert np.array_equal(limitsets._nearest_distances(pts, eqs), hits)
    assert np.array_equal(limitsets._nearest_distances(eqs, pts), core)


# ---- memory ----


def test_mixed_trichotomy_holds_no_pair_matrix():
    """The ordered core of a mixed audit comes from the audit pass, in O(m)
    memory. An m x m bool matrix of 3,000 points alone would take 9 MB; the
    scan holds at most two blocks of pairs (the caller's and the next one),
    whatever the number of points."""
    rng = np.random.default_rng(5)
    m = 3000
    omega = OmegaEstimate(
        points=rng.normal(size=(m, 3)), times=np.arange(m, dtype=float),
        window=(0.0, m - 1.0), spacing=1.0, hausdorff_gap=0.0,
        converged=True, tol=1.0,
    )
    tracemalloc.start()
    try:
        rep = trichotomy_report(omega, [], CONES["quadratic"], make_linear_field(np.eye(3)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < rep.audit.ordered_fraction < 1.0  # the mixed branch ran
    assert rep.branch is LimitSetBranch.UNDETERMINED
    assert peak < m * m


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projection_separation_holds_no_pair_matrix():
    """Like the audit, the separation scan holds a few blocks of pairs and
    its block-long buffers, whatever the number of points."""
    m = 3000
    P = np.random.default_rng(6).normal(size=(m, 3))
    proj = make_projector(CONES["quadratic"])
    assert _peak_bytes(lambda: projection_separation(P, proj)) < m * m


def test_classify_orbit_holds_no_pair_matrix():
    """An unordered orbit is scanned to its last pair in blocks."""
    m = 3000
    S = np.zeros((m, 3))
    S[:, 2] = np.arange(m, dtype=float)  # every difference lies along e3
    traj = _trajectory(S)
    out = []
    peak = _peak_bytes(lambda: out.append(classify_orbit(traj, CONES["quadratic"])))
    assert out[0].kind is OrbitClass.UNORDERED
    assert peak < m * m


# ---- the first block is row 0's pairs ----


@pytest.mark.parametrize("n", [3, 9])
def test_first_block_size_does_not_move_the_scan(n, monkeypatch):
    """The first block holds row 0's pairs alone (m - 1 of them, or a
    block's worth), and the concatenated scan has the same bits whatever
    that first block's size; rows 5 and 77 coincide with row 0, and rows
    scaled by 1e-6 coincide with each other at the 1e6 rows' tolerance."""
    m = 300
    rng = np.random.default_rng(50 + n)
    P = rng.normal(size=(m, n)) * rng.choice([1e-6, 1.0, 1e6], size=(m, 1))
    P[[5, 77]] = P[0]
    iu, ju, D, _, distinct = _all_pairs(P)
    row0 = ju[distinct & (iu == 0)].tolist()
    assert 5 not in row0 and 77 not in row0
    want = None
    for size in (1, 7, m - 2, m - 1, m, 1 << 16):
        monkeypatch.setattr(limitsets, "_PAIR_BLOCK", size)
        blocks = list(limitsets._distinct_pairs(P))
        i, j = blocks[0][:2]
        assert (i == 0).all()
        assert j.tolist() == [c for c in row0 if c <= min(m - 1, size)]
        got = [np.concatenate([b[k] for b in blocks]).tobytes() for k in range(4)]
        assert got[:3] == [iu[distinct].tobytes(), ju[distinct].tobytes(), D[distinct].tobytes()]
        want = want or got
        assert got == want


_P2 = np.diag([-1.0, -1.0, 1.0])
_LV_A = [[1.0, 0.2, 0.6], [0.6, 1.0, 0.2], [0.2, 0.6, 1.0]]
# label: (field, x0, cone) of a settled, looping or unordered orbit.
ORBITS = {
    "goodwin": (kcone.make_cyclic_feedback(3, params={"m": 4.0}), [0.9, 0.2, 0.5],
                make_orthant_complement_cone(3)),
    "lv": (kcone.make_competitive_lv(_LV_A, [1.0, 1.0, 1.0]), [1.5, 0.3, 0.7],
           make_quadratic_cone(_P2)),
    "hopf": (kcone.make_hopf_cylinder(1.0, 4.0), [0.1, 0.0, 0.5], make_quadratic_cone(_P2)),
    # On the sink's stable axis every difference lies along e3: unordered.
    "sink": (make_linear_field(np.diag([1.0, 1.0, -1.0])), [0.0, 0.0, 0.7],
             make_quadratic_cone(_P2)),
}


@pytest.mark.parametrize("label", sorted(ORBITS))
def test_classify_orbit_equals_the_full_scan_on_orbits(label, monkeypatch):
    """Kind, witness and margin of the full-scan oracle. Settled Goodwin and
    LV orbits are ordered at their first pair, and a witness in row 0 costs
    at most m - 1 margins (a spy on margin_many counts them); an unordered
    orbit scores every distinct pair."""
    field, x0, cone = ORBITS[label]
    traj = kcone.integrate(field, x0, 100.0)
    take = limitsets._spread(len(traj.times), limitsets.ORBIT_STATES)
    S, m = traj.states[take], take.size
    want = oracle_witness(S, cone)
    seen = []
    margin_many = type(cone).margin_many

    def spy(self, V):
        seen.append(len(V))
        return margin_many(self, V)

    monkeypatch.setattr(type(cone), "margin_many", spy)
    cls = classify_orbit(traj, cone)
    assert cls.n_states == m
    if want is None:
        assert label == "sink"
        assert cls.kind is OrbitClass.UNORDERED and cls.witness_times is None
        assert sum(seen) == np.count_nonzero(_all_pairs(S)[4])
        return
    i, j, margin = want
    assert cls.kind is OrbitClass.PSEUDO_ORDERED
    assert cls.witness_times == (float(traj.times[take[i]]), float(traj.times[take[j]]))
    assert cls.witness_margin == margin
    if label in ("goodwin", "lv"):
        assert (i, j) == (0, 1)
    if i == 0:
        assert 0 < sum(seen) <= m - 1
