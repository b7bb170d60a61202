"""The curve-to-curve gap behind the omega convergence test.

`_directed_curve_gap` finds each query's nearest nodes with a k-d search
pruned by leaf boxes, and computes every squared distance one coordinate at
a time. Two oracles are kept here as references. `broadcast_gap` is the
(chunk, m, n) broadcast form: below eight coordinates both sum the squares
in the same order, so the gap must be the same float; from eight on numpy
sums the broadcast form pairwise and the two may part by an ulp of d2.
`column_gap` scans every (query, node) pair column by column, with no
pruning, and the gap must be the same float at every n.

`estimate_omega` measures that gap only for a window wider than its
tolerance; a window whose box diagonal is within tol reports the diagonal.
The tests at the end pin the gap's bits on settled, loop and collinear
tails, pin that contract, and guard that a settled tail searches nothing.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kcone
from kcone import limitsets
from kcone.integrators import Trajectory, integrate
from kcone.limitsets import _directed_curve_gap


def broadcast_gap(A, B):
    """The gap with d2 from one (chunk, m, n) broadcast difference."""
    worst = 0.0
    m = B.shape[0]
    k = min(limitsets._GAP_NEIGHBORS, m)
    for lo in range(0, A.shape[0], limitsets._GAP_CHUNK):
        Q = A[lo:lo + limitsets._GAP_CHUNK]
        d2 = ((Q[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        near = np.argpartition(d2, k - 1, axis=1)[:, :k]
        best = np.sqrt(np.take_along_axis(d2, near, axis=1).min(axis=1))
        for j0, j1 in (
            (np.maximum(near - 1, 0), near),
            (near, np.minimum(near + 1, m - 1)),
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


def column_gap(A, B):
    """The gap with d2 over every node of B, one coordinate at a time."""
    worst = 0.0
    m, n = B.shape
    k = min(limitsets._GAP_NEIGHBORS, m)
    BT = np.ascontiguousarray(B.T)
    for lo in range(0, A.shape[0], limitsets._GAP_CHUNK):
        Q = A[lo:lo + limitsets._GAP_CHUNK]
        d2 = (Q[:, 0:1] - BT[0]) ** 2
        for c in range(1, n):
            d2 += (Q[:, c:c + 1] - BT[c]) ** 2
        near = np.argpartition(d2, k - 1, axis=1)[:, :k]
        best = np.sqrt(np.take_along_axis(d2, near, axis=1).min(axis=1))
        for j0, j1 in (
            (np.maximum(near - 1, 0), near),
            (near, np.minimum(near + 1, m - 1)),
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


def _walk(rng, m, n):
    """A rough curve: m nodes of a Gaussian random walk in R^n."""
    return np.cumsum(rng.standard_normal((m, n)), axis=0)


def gap_cases(n):
    """(label, A, B): every B size, A lengths off the chunk grid, repeated
    B nodes (zero-length segments) and exactly tied distances."""
    rng = np.random.default_rng(1000 + n)
    for m in (1, 2, 8, 9, 300):
        yield f"m{m}", _walk(rng, 300, n), _walk(rng, m, n)
    for rows in (1, 255, 257, 513):
        yield f"rows{rows}", _walk(rng, rows, n), _walk(rng, 40, n)
    B = np.repeat(_walk(rng, 40, n), rng.integers(1, 4, 40), axis=0)
    yield "repeated", _walk(rng, 100, n), B
    # Lattice nodes and queries on the lattice or at half-offsets: many
    # nodes sit at exactly the same distance from a query.
    B = rng.integers(-2, 3, (60, n)).astype(float)
    A = np.concatenate([B[:20], B[20:40] + 0.5, rng.integers(-2, 3, (50, n)) + 0.5])
    yield "tied", A, B


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_gap_equals_broadcast_oracle_below_eight_coordinates(n, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(limitsets, "_GAP_CHUNK", chunk)
    for label, A, B in gap_cases(n):
        assert _directed_curve_gap(A, B) == broadcast_gap(A, B), label
        assert _directed_curve_gap(B, A) == broadcast_gap(B, A), label


@pytest.mark.parametrize("n", [8, 9, 16])
def test_gap_agrees_with_broadcast_oracle_from_eight_coordinates(n):
    for label, A, B in gap_cases(n):
        for X, Y in ((A, B), (B, A)):
            want = broadcast_gap(X, Y)
            assert _directed_curve_gap(X, Y) == pytest.approx(want, rel=1e-12, abs=0.0), label


def pruned_cases(n):
    """(label, A, B) with B long enough for the pruned search."""
    rng = np.random.default_rng(2000 + n)
    for m in (128, 300, 1000, 2048):
        yield f"walk{m}", _walk(rng, 300, n), _walk(rng, m, n)
    # Leaf sizes off the leaf grid: 4 * 32 + 5 nodes.
    yield "m133", _walk(rng, 300, n), _walk(rng, 133, n)
    B = np.repeat(_walk(rng, 150, n), rng.integers(1, 4, 150), axis=0)
    yield "repeated", _walk(rng, 300, n), B
    # Many nodes at exactly the 8th distance: the tie rule must send these
    # rows to the full-row search.
    B = rng.integers(-4, 5, (600, n)).astype(float)
    A = np.concatenate([B[:150], B[150:300] + 0.5, rng.integers(-4, 5, (150, n)) + 0.5])
    yield "lattice", A, B
    yield "far", _walk(rng, 300, n) + 1e6, _walk(rng, 300, n)
    # Settling tails: a 1e-8 cloud against a 5e-11 one, offset from it.
    cloud = rng.standard_normal((2048, n)) * 1e-8 + 1e-7
    yield "lv_like", cloud, rng.standard_normal((2048, n)) * 5e-11


# (leaf, block, largest case run): small leaves and blocks on small cases.
@pytest.mark.parametrize("consts", [None, (4, 7, 450 * 600), (1, 1, 300 * 300)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 16])
def test_pruned_gap_equals_full_column_scan(n, consts, monkeypatch):
    if consts is not None:
        monkeypatch.setattr(limitsets, "_GAP_LEAF", consts[0])
        monkeypatch.setattr(limitsets, "_GAP_BLOCK", consts[1])
    for label, A, B in pruned_cases(n):
        if consts is not None and A.shape[0] * B.shape[0] > consts[2]:
            continue
        for X, Y in ((A, B), (B, A)):
            assert Y.shape[0] >= 4 * limitsets._GAP_LEAF, label
            assert _directed_curve_gap(X, Y) == column_gap(X, Y), label


def test_pruned_gap_when_too_few_nodes_survive(monkeypatch):
    """Singleton leaves and a far query keep exactly k nodes: the block
    goes to the full-row search."""
    monkeypatch.setattr(limitsets, "_GAP_LEAF", 1)
    monkeypatch.setattr(limitsets, "_GAP_BLOCK", 1)
    B = np.stack([np.arange(128.0), np.zeros(128)], axis=1)
    A = np.array([[-1000.0, 3.0], [60.25, 0.5]])
    assert _directed_curve_gap(A, B) == column_gap(A, B)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_give_a_nan_gap(bad):
    """A curve with a non-finite coordinate has no gap: NaN, so the tail
    never reads as converged. (Folding chunks with max() drops a NaN, so
    an all-NaN A would read 0.0.)"""
    rng = np.random.default_rng(11)
    A, B = _walk(rng, 600, 3), _walk(rng, 300, 3)
    cases = []
    for X, Y in ((A, B), (B, A)):
        for row, col in ((0, 0), (257, 2), (-1, 1)):
            Xb = X.copy()
            Xb[row, col] = bad
            cases += [(Xb, Y), (Y, Xb)]
    # Every row of the first query blocks (and of a chunk) non-finite.
    Xb = A.copy()
    Xb[:300] = bad
    cases += [(Xb, B), (B, Xb)]
    Xb = A.copy()
    Xb[:] = bad
    cases += [(Xb, B), (B, Xb)]
    for X, Y in cases:
        assert np.isnan(_directed_curve_gap(X, Y))


def test_non_finite_tail_is_not_converged():
    """A tail at rest but for one NaN node: were the NaN chunk dropped
    from the max, the tail would read as converged."""
    t = np.linspace(0.0, 10.0, 401)
    states = np.tile([1.0, 0.0, 0.0], (t.size, 1))
    states[350, 2] = np.nan
    traj = Trajectory(times=t, states=states, derivs=np.zeros_like(states),
                      rtol=1e-8, atol=1e-10, max_step=np.inf)
    with np.errstate(invalid="ignore"):
        omega = limitsets.estimate_omega(traj)
    assert np.isnan(omega.hausdorff_gap)
    assert omega.converged is False


lattice_curves = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(150, 600), st.just(n)),
                   elements=st.integers(-3, 3).map(float)),
        hnp.arrays(np.float64, st.tuples(st.integers(150, 600), st.just(n)),
                   elements=st.integers(-6, 6).map(lambda v: v / 2)),
    )
)


@settings(max_examples=25, deadline=None)
@given(lattice_curves)
def test_pruned_gap_on_lattice_curves(AB):
    A, B = AB
    assert _directed_curve_gap(A, B) == column_gap(A, B)
    assert _directed_curve_gap(B, A) == column_gap(B, A)


def test_gap_block_memory_is_two_distance_arrays():
    """A block holds (chunk, m) arrays only: no (chunk, m, n) temporary."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2048, 5))
    B = rng.standard_normal((2048, 5))
    tracemalloc.start()
    try:
        _directed_curve_gap(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * limitsets._GAP_CHUNK * 2048 * 8


curves = st.integers(1, 9).flatmap(
    lambda n: hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.just(n)),
        elements=st.floats(-1e3, 1e3),
    )
)


@settings(max_examples=60, deadline=None)
@given(curves)
def test_gap_of_a_curve_to_itself_is_zero(A):
    assert _directed_curve_gap(A, A) == 0.0


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 4))
    nodes = draw(st.integers(2, 12))
    steps = draw(hnp.arrays(np.float64, nodes - 1, elements=st.floats(0.01, 2.0)))
    values = st.floats(-10.0, 10.0)
    return Trajectory(
        times=np.concatenate([[0.0], np.cumsum(steps)]),
        states=draw(hnp.arrays(np.float64, (nodes, n), elements=values)),
        derivs=draw(hnp.arrays(np.float64, (nodes, n), elements=values)),
        rtol=1e-8,
        atol=1e-10,
        max_step=np.inf,
    )


@settings(max_examples=10, deadline=None)
@given(trajectories(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_half_window_gap_is_the_larger_directed_gap(traj, u, v):
    t_start = traj.t0 + u * traj.span()
    mid = t_start + v * (traj.t_end - t_start)
    A = traj.sample(np.linspace(t_start, mid, limitsets._GAP_SAMPLES))
    B = traj.sample(np.linspace(mid, traj.t_end, limitsets._GAP_SAMPLES))
    both = max(_directed_curve_gap(A, B), _directed_curve_gap(B, A))
    assert _directed_curve_gap(A, B, both=True) == both


# ---- tails, and the omega contract ----


def hausdorff_oracle(A, B):
    return max(column_gap(A, B), column_gap(B, A))


def hausdorff_gap(A, B):
    return _directed_curve_gap(A, B, both=True)


def half_windows(traj):
    """The dense half-window curves of estimate_omega's default window."""
    t_start, mid = traj.t_end - 0.5 * traj.span(), traj.t_end - 0.25 * traj.span()
    A = traj.sample(np.linspace(t_start, mid, limitsets._GAP_SAMPLES))
    B = traj.sample(np.linspace(mid, traj.t_end, limitsets._GAP_SAMPLES))
    return t_start, mid, A, B


def _searched_rows(monkeypatch):
    """Record the number of query rows of each nearest-node search."""
    searched = []
    search = limitsets._leaf_nearest

    def spy(A, B, k, order, kd_b):
        searched.append(order.size)
        return search(A, B, k, order, kd_b)

    monkeypatch.setattr(limitsets, "_leaf_nearest", spy)
    return searched


@pytest.fixture(scope="module")
def goodwin_traj():
    """A Goodwin ring orbit settled on its equilibrium."""
    field = kcone.make_cyclic_feedback(3, params={"m": 4.0})
    return integrate(field, [0.9, 0.2, 0.5], 100.0, rtol=1e-8, atol=1e-10)


def flat_and_short_cases(n):
    """(label, A, B): noise at a point, constant curves, and curves shorter
    than a k-d leaf or the candidate count, on either side."""
    rng = np.random.default_rng(3000 + n)
    point = rng.standard_normal(n)
    noise = rng.standard_normal((2, 2048, n)) * 1e-9
    yield "noise_at_a_point", point + noise[0], point + noise[1]
    yield "constant", np.tile(point, (300, 1)), np.tile(point, (200, 1))
    yield "constant_apart", np.tile(point, (300, 1)), np.tile(point + 0.5, (200, 1))
    for ma, mb in ((1, 1), (1, 40), (15, 40), (16, 31), (17, 32), (33, 15), (40, 1)):
        yield f"short{ma}x{mb}", _walk(rng, ma, n), _walk(rng, mb, n)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_early_break_gap_equals_the_full_scan(n):
    """Noise at a point, constant and short curves: the gap is the full
    scan's, each way and as the Hausdorff gap."""
    for label, A, B in flat_and_short_cases(n):
        assert _directed_curve_gap(A, B) == column_gap(A, B), label
        assert _directed_curve_gap(B, A) == column_gap(B, A), label
        assert hausdorff_gap(A, B) == hausdorff_oracle(A, B), label


def test_gap_on_a_sink_line_where_one_direction_is_zero():
    """A tail on a sink's stable line against its own upstream nodes: every
    upstream node is a node of the tail, so that direction is exactly 0."""
    x3 = np.exp(-np.linspace(0.0, 10.0, 2048))
    A = np.stack([np.zeros_like(x3), np.zeros_like(x3), x3], axis=1)
    B = A[:1200:3]
    assert _directed_curve_gap(B, A) == column_gap(B, A) == 0.0
    assert _directed_curve_gap(A, B) == column_gap(A, B) > 0.0
    assert hausdorff_gap(A, B) == hausdorff_gap(B, A) == column_gap(A, B)


def test_the_row_that_sets_the_gap_need_not_be_probed():
    """Rows on every 64th node of a line, twenty on-curve rows between
    them, and one off-curve row that sets the gap: a strided bound would
    rank the twenty above it."""
    stride = 64
    x = np.linspace(0.0, 1.0, 2048)
    B = np.stack([x, np.zeros_like(x)], axis=1)
    sampled = B[::stride]
    between = B[stride // 2::stride][:20]
    off = B[:1] + [0.0, 0.005]
    A = np.concatenate([np.repeat(sampled, 3, axis=0), between, off])
    assert column_gap(between, B) == 0.0
    assert _directed_curve_gap(A, B) == column_gap(A, B) > 0.004
    assert hausdorff_gap(A, B) == hausdorff_oracle(A, B)


def test_the_hub_of_a_loop_is_measured():
    """A curve winding the unit circle once every 64 nodes, against its
    centre and a small ring around it: the centre, the farthest row, is no
    nearer any node than the radius, though it sits on the centroid of
    every run of 64 nodes."""
    stride = 64
    turn = 2.0 * np.pi * np.arange(8 * stride) / stride
    B = np.stack([np.cos(turn), np.sin(turn)], axis=1)
    around = np.linspace(0.0, 2.0 * np.pi, 100)
    ring = 0.02 * np.stack([np.cos(around), np.sin(around)], axis=1)
    A = np.concatenate([ring, [[0.0, 0.0]]])
    gap = _directed_curve_gap(A, B)
    assert gap == column_gap(A, B) == column_gap(A[-1:], B) > 0.99
    assert hausdorff_gap(A, B) == hausdorff_oracle(A, B)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("n", [3, 8, 16])
def test_gap_does_not_depend_on_the_chunks(n, chunk, monkeypatch):
    """Each row's value comes from that row alone, so rows measured in any
    subset and chunking give the full scan's bits."""
    cases = list(pruned_cases(n))[:3]
    want = [column_gap(A, B) for _, A, B in cases]
    monkeypatch.setattr(limitsets, "_GAP_CHUNK", chunk)
    for (label, A, B), w in zip(cases, want):
        assert _directed_curve_gap(A, B) == w, label


def test_half_window_gap_on_a_settled_tail(goodwin_traj):
    """A settled Goodwin window reports its box diagonal: above the full
    scan's gap, and within tol."""
    _, _, A, B = half_windows(goodwin_traj)
    omega = limitsets.estimate_omega(goodwin_traj)
    assert hausdorff_oracle(A, B) < omega.hausdorff_gap <= omega.tol


def test_loop_gap_still_equals_the_oracle(hopf_traj, monkeypatch):
    """A loop's window is wider than tol: estimate_omega reports the full
    scan's gap, searching each of its 2 x 2,048 rows once."""
    _, _, A, B = half_windows(hopf_traj)
    searched = _searched_rows(monkeypatch)
    assert limitsets.estimate_omega(hopf_traj).hausdorff_gap == hausdorff_oracle(A, B)
    assert searched == [limitsets._GAP_SAMPLES] * 2


@pytest.mark.parametrize("consts", [None, (4, 7, 450 * 600), (1, 1, 300 * 300)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 16])
def test_pruned_gap_on_the_k_d_search_alone(n, consts, monkeypatch):
    """The pruned-search cases as Hausdorff gaps: both directions search
    on the two k-d orders built up front, and give the full scans' bits."""
    if consts is not None:
        monkeypatch.setattr(limitsets, "_GAP_LEAF", consts[0])
        monkeypatch.setattr(limitsets, "_GAP_BLOCK", consts[1])
    for label, A, B in pruned_cases(n):
        if consts is None or A.shape[0] * B.shape[0] <= consts[2]:
            assert hausdorff_gap(A, B) == hausdorff_oracle(A, B), label


@pytest.fixture(scope="module")
def sink_axis_traj():
    """A linear sink orbit on its stable axis: a collinear settled tail."""
    field = kcone.make_linear_field(np.diag([1.0, 1.0, -1.0]))
    return integrate(field, [0.0, 0.0, 0.7], 100.0, rtol=1e-8, atol=1e-10)


def tail_cases(goodwin_traj, hopf_traj, sink_axis_traj):
    """(label, A, B): settled, loop, collinear-sink and tied curves."""
    yield ("settled",) + half_windows(goodwin_traj)[2:]
    yield ("loop",) + half_windows(hopf_traj)[2:]
    yield ("collinear_sink",) + half_windows(sink_axis_traj)[2:]
    yield next((label, A, B) for label, A, B in pruned_cases(3) if label == "lattice")


@pytest.mark.parametrize("case", ["settled", "loop", "collinear_sink", "lattice"])
def test_gap_on_tails_equals_the_full_scan(case, goodwin_traj, hopf_traj, sink_axis_traj):
    """The full scan's bits both ways and as the Hausdorff gap."""
    cases = tail_cases(goodwin_traj, hopf_traj, sink_axis_traj)
    _, A, B = next(c for c in cases if c[0] == case)
    want = column_gap(A, B), column_gap(B, A)
    got = _directed_curve_gap(A, B), _directed_curve_gap(B, A), hausdorff_gap(A, B)
    assert got == want + (max(want),)


def _kd_builds(monkeypatch):
    """Record the row count of every k-d order built."""
    built = []
    kd_order = limitsets._kd_order

    def spy(P):
        built.append(P.shape[0])
        return kd_order(P)

    monkeypatch.setattr(limitsets, "_kd_order", spy)
    return built


def test_settled_tail_searches_few_rows(goodwin_traj, monkeypatch):
    """A settled Goodwin window is within tol and decided by its box
    diagonal: estimate_omega searches none of its 2 x 2,048 rows."""
    searched = _searched_rows(monkeypatch)
    assert limitsets.estimate_omega(goodwin_traj).converged
    assert searched == []


def test_settled_tail_builds_no_k_d_order(goodwin_traj, monkeypatch):
    """A settled Goodwin window is within tol: estimate_omega builds no
    k-d order."""
    built = _kd_builds(monkeypatch)
    assert limitsets.estimate_omega(goodwin_traj).converged
    assert built == []


def test_loop_gap_builds_each_k_d_order_once(hopf_traj, monkeypatch):
    """A loop measures all rows both ways through the k-d search, on one
    order per curve."""
    built = _kd_builds(monkeypatch)
    limitsets.estimate_omega(hopf_traj)
    assert built == [limitsets._GAP_SAMPLES] * 2


def _hand_traj(states, derivs):
    """A Trajectory through the given nodes, evenly spaced over [0, 10]."""
    return Trajectory(times=np.linspace(0.0, 10.0, len(states)), states=states,
                      derivs=derivs, rtol=1e-8, atol=1e-10, max_step=np.inf)


def _resting_traj():
    """A run that moves until t = 4 and then rests exactly at the origin,
    so the window [5, 10] samples 0.0 everywhere."""
    t = np.linspace(0.0, 10.0, 401)
    states = np.zeros((t.size, 3))
    states[:, 0] = np.maximum(4.0 - t, 0.0)
    derivs = np.zeros_like(states)
    derivs[t < 4.0, 0] = -1.0
    return _hand_traj(states, derivs)


def _nan_traj():
    """A tail at rest but for one NaN node."""
    states = np.tile([1.0, 0.0, 0.0], (401, 1))
    states[350, 2] = np.nan
    return _hand_traj(states, np.zeros_like(states))


@pytest.fixture(scope="module")
def omega_cases(goodwin_traj, hopf_traj, sink_axis_traj):
    """label -> trajectory: settled, collinear, loop, drifting, at rest, NaN."""
    drift = kcone.make_linear_field(np.diag([-0.05, -1.0, -1.0]))
    return {
        "settled": goodwin_traj,
        "collinear_sink": sink_axis_traj,
        "loop": hopf_traj,
        "drifting": integrate(drift, [1.0, 0.5, 0.5], 50.0),
        "at_rest": _resting_traj(),
        "nan": _nan_traj(),
    }


@pytest.mark.parametrize("case", ["settled", "collinear_sink", "loop", "drifting", "at_rest", "nan"])
def test_omega_gap_contract(case, omega_cases):
    """converged is the exact half-window gap <= tol; hausdorff_gap bounds
    that gap from above, and is it whenever the window's box diagonal
    exceeds tol."""
    traj = omega_cases[case]
    _, _, A, B = half_windows(traj)
    with np.errstate(invalid="ignore"):
        omega = limitsets.estimate_omega(traj)
        diagonal = np.linalg.norm(np.ptp(np.concatenate([A, B]), axis=0))
    exact = hausdorff_gap(A, B)
    assert omega.converged == (exact <= omega.tol)
    if case == "nan":
        assert np.isnan(exact) and np.isnan(omega.hausdorff_gap)
    elif diagonal > omega.tol:
        assert omega.hausdorff_gap == exact
    else:
        assert exact <= omega.hausdorff_gap <= omega.tol
    # Every branch is taken: only the loop and the drifting tail are wider
    # than tol, and of those only the drifting tail has not converged.
    assert (diagonal > omega.tol) == (case in ("loop", "drifting"))
    assert omega.converged == (case not in ("drifting", "nan"))
    if case == "at_rest":
        assert omega.hausdorff_gap == exact == 0.0
