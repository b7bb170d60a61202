"""Theorem consistency: report verdicts that the structure theory of flows
monotone for a rank-k cone fixes from other fields of the same report.

I1: a converged omega estimate whose every point lies within dist_eq of an
    equilibrium is contained in the equilibria: branch unordered_equilibria.
I2: a passing pairwise_lambda or cyclic_feedback certificate, a converged
    omega estimate and no equilibrium hit give branch ordered ("if the
    omega-limit set contains no equilibrium, it is ordered").
I3: I2's premises with a rank-2 quadratic cone give a closed loop and an
    all-recurrent chain check (Poincare-Bendixson for k = 2).
I4: on a point set that audits ordered, the projection onto the cone's
    inner subspace is injective, with |proj(d)| / |d| at least
    sqrt((nu_min - band) / (nu_min + mu_max)) for every difference d, where
    nu_min is P's smallest positive eigenvalue and mu_max its largest
    |negative| one.
I5: I2's certificate and a converged omega estimate with a rank-1
    quadratic cone give an equilibrium hit: an ordered omega-limit set of
    rank 1 is conjugate to a compact invariant set of a flow on R, which
    contains an equilibrium.

I1-I3 and I5 run every orbit of a report through build_full_report and
fail if no orbit meets their premises, so they cannot pass vacuously; I4
runs on point sets, and fails unless some of them are ordered. The Glass
ring is the negative case: its box leaves the ramp band, its certificate
fails, and no orbit of it may meet I2's or I3's premises.
"""

import numpy as np
import pytest

from kcone import QuadraticCone, build_full_report, parse_scenario
from kcone.cones import make_projector, make_quadratic_cone
from kcone.limitsets import audit_ordering, projection_separation

P_RANK2 = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]

HOPF = {
    "name": "hopf cylinder",
    "field": {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
    "cone": {"type": "quadratic", "P": P_RANK2},
    "lambda": 3.5,
    "pairs": 2000,
    "T": 60.0,
    "x0": [[0.5, 0.1, 0.3], [1.1, -0.4, -0.6]],
}

# Every orbit settles on the ring's one equilibrium.
GOODWIN = {
    "name": "goodwin ring",
    "field": {"family": "cyclic_feedback",
              "params": {"n": 3, "kind": "smooth_goodwin", "m": 4.0}},
    "cone": {"type": "orthant_complement", "n": 3},
    "x0": [[0.64, 0.39, 0.21], [0.89, 0.85, 0.32], [0.73, 0.44, 0.17]],
    "T": 100.0,
}

# The benchmark's competitive LV (alpha + beta < 2): every orbit settles on
# the interior equilibrium; its pairwise_lambda check at rate 1 fails.
LV = {
    "name": "competitive lotka-volterra",
    "field": {"family": "competitive_lv",
              "params": {"A": [[1.0, 0.2, 0.6], [0.6, 1.0, 0.2], [0.2, 0.6, 1.0]],
                         "r": [1.0, 1.0, 1.0]}},
    "cone": {"type": "quadratic", "P": P_RANK2},
    "lambda": 1.0,
    "x0": [[0.56, 1.46, 1.16], [1.36, 1.94, 0.65], [0.98, 0.88, 0.38]],
    "T": 100.0,
}

# The benchmark's Glass PWL ring: its box leaves the ramp band, where the
# field is flat, so the cyclic_feedback certificate fails.
GLASS = {
    "name": "glass pwl ring",
    "field": {"family": "cyclic_feedback",
              "params": {"n": 3, "kind": "glass_pwl", "amp": 4.0}},
    "domain": {"type": "box", "lo": [-0.5] * 3, "hi": [4.5] * 3},
    "cone": {"type": "orthant_complement", "n": 3},
    "x0": [[1.23, 3.76, 1.86]],
    "T": 50.0,
}


# A linear sink certified for a rank-1 cone at rate 1.5.
RANK1_SINK = {
    "name": "rank-1 sink",
    "field": {"family": "linear",
              "params": {"A": [[-1.0, 0.5, 0.0], [0.5, -3.0, 0.0], [0.0, 0.0, -3.0]]}},
    "cone": {"type": "quadratic", "P": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "domain": {"type": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
    "lambda": 1.5,
    "pairs": 2000,
    "seed": 3,
    "T": 60.0,
    "x0": [[0.5, 0.2, -0.3], [-0.9, 0.4, 0.8]],
}


def _report(obj):
    scn = parse_scenario(obj)
    return scn, build_full_report(scn)[0]


@pytest.fixture(scope="module")
def hopf():
    return _report(HOPF)


@pytest.fixture(scope="module")
def goodwin():
    return _report(GOODWIN)


@pytest.fixture(scope="module")
def lv():
    return _report(LV)


def _converged(orbit) -> bool:
    return orbit["omega"] is not None and orbit["omega"]["converged"]


def _i1_premise(scn, report, orbit) -> bool:
    tri = orbit["trichotomy"]
    return _converged(orbit) and tri["equilibria_hits"] == orbit["omega"]["n_points"]


def _certified(report) -> bool:
    return any(
        c["condition"] in ("pairwise_lambda", "cyclic_feedback") and c["verdict"] == "pass"
        for c in report["certificates"]
    )


def _i2_premise(scn, report, orbit) -> bool:
    return _certified(report) and _converged(orbit) and orbit["trichotomy"]["equilibria_hits"] == 0


def _i3_premise(scn, report, orbit) -> bool:
    rank2 = isinstance(scn.cone, QuadraticCone) and scn.cone.rank_k == 2
    return rank2 and _i2_premise(scn, report, orbit)


def _i5_premise(scn, report, orbit) -> bool:
    rank1 = isinstance(scn.cone, QuadraticCone) and scn.cone.rank_k == 1
    return rank1 and _certified(report) and _converged(orbit)


def _held(scn, report, premise) -> list[dict]:
    held = [o for o in report["orbits"] if premise(scn, report, o)]
    assert held, "no orbit meets the premises"
    return held


def test_i1_premises_hold_on_the_goodwin_ring(goodwin):
    """Every orbit of the ring, so I1 below checks each of them."""
    assert len(_held(*goodwin, _i1_premise)) == len(GOODWIN["x0"])


def test_i1_premises_hold_on_competitive_lv(lv):
    assert len(_held(*lv, _i1_premise)) == len(LV["x0"])


@pytest.mark.parametrize("system", ["goodwin", "lv"])
def test_i1_omega_on_equilibria_is_unordered_equilibria(system, request):
    """Settled tails audit mixed or ordered at the noise level of the
    integration; the branch follows the equilibria, not the audit."""
    branches = [o["trichotomy"]["branch"]
                for o in _held(*request.getfixturevalue(system), _i1_premise)]
    assert branches == ["unordered_equilibria"] * len(branches)


def test_the_glass_ring_meets_no_i2_or_i3_premise():
    scn, report = _report(GLASS)
    assert [c["condition"] for c in report["certificates"]] == ["cyclic_feedback"]
    assert not _certified(report)
    for orbit in report["orbits"]:
        # Converged with no hit: only the failing certificate keeps I2 off.
        assert _converged(orbit) and orbit["trichotomy"]["equilibria_hits"] == 0
        assert not _i2_premise(scn, report, orbit)
        assert not _i3_premise(scn, report, orbit)


def test_i2_no_equilibrium_means_ordered(hopf):
    branches = [o["trichotomy"]["branch"] for o in _held(*hopf, _i2_premise)]
    assert branches == ["ordered"] * len(branches)


def test_i3_rank_two_gives_a_recurrent_loop(hopf):
    for orbit in _held(*hopf, _i3_premise):
        assert orbit["periodic_orbit"] is not None
        assert orbit["chain_check"] is not None
        assert orbit["chain_check"]["all_recurrent"]


def test_i5_rank_one_gives_an_equilibrium():
    for orbit in _held(*_report(RANK1_SINK), _i5_premise):
        assert orbit["trichotomy"]["equilibria_hits"] > 0


# Spectra of P, each used rotated: ranks 1, 2, 2 and 3.
I4_SPECTRA = [(-1.0, 2.0, 5.0), (-1.0, -2.0, 3.0), (-3.0, -0.5, 0.7), (-2.0, -1.0, -4.0, 0.3)]


def _rotated_form(spectrum, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(len(spectrum), len(spectrum))))
    return Q, Q @ np.diag(spectrum) @ Q.T


def _separation_bound(cone) -> float:
    w = cone.eigenvalues
    nu_min, mu_max = w[w > 0].min(), -w[w < 0].min()
    return float(np.sqrt((nu_min - cone.boundary_band) / (nu_min + mu_max)))


@pytest.mark.parametrize("band", [1e-9, 0.05])
@pytest.mark.parametrize("spectrum", I4_SPECTRA)
def test_i4_an_ordered_set_projects_with_the_separation_bound(spectrum, band):
    rng = np.random.default_rng(len(spectrum) * 100 + int(band > 1e-3))
    spectrum = np.asarray(spectrum)
    pos = spectrum > 0
    n_ordered = 0
    for _ in range(40):
        Q, P = _rotated_form(spectrum, rng)
        cone = make_quadratic_cone(P, boundary_band=band)
        bound = _separation_bound(cone)
        # Random sets, inner-subspace heavy so that some are ordered.
        coords = rng.normal(size=(6, len(spectrum)))
        coords[:, pos] *= rng.choice([0.05, 0.3, 1.0])
        # A difference at margin band * s, s <= 1, along the extreme
        # eigenvectors: the ratio sits at (or just above) the bound.
        i, j = np.argmin(spectrum), np.flatnonzero(pos)[np.argmin(spectrum[pos])]
        mu, nu = -spectrum[i], spectrum[j]
        edge = np.zeros((2, len(spectrum)))
        s = rng.choice([0.0, 0.5, 1.0])
        edge[1, i] = 1.0
        edge[1, j] = np.sqrt((mu + s * band) / (nu - s * band))
        for pts in (coords @ Q.T, edge @ Q.T):
            if audit_ordering(pts, cone).ordered:
                n_ordered += 1
                ratio = projection_separation(pts, make_projector(cone))
                assert ratio >= bound * (1.0 - 1e-12)
    assert n_ordered > 0, "no point set was ordered"
