"""Seeded scenario generator for the four benchmark workloads.

Each workload is a list of Case objects: a scenario file for `kcone report`
plus the facts its correctness oracle needs. The seed draws the initial
conditions and becomes the scenario `seed` (the certificate sample stream);
everything else is pinned. Initial conditions come from stated regions on
which every report completes:

* Hopf cylinder: radius in [0.1, 1.15], angle in [0, 2 pi), |x3| <= 0.9.
* Linear sink A = diag(1, 1, -1): on its stable x3 axis, 0.1 <= |x3| <= 1.
* Goodwin ring (n=3, m=4): inside its invariant box [0.1, 1]^3.
* Glass PWL ring (amp 4): inside its invariant box [0, 4]^3.
* Competitive LV (May-Leonard, alpha + beta < 2): inside [0.05, 2]^3,
  which the flow keeps.

Draws use the standard library's Mersenne Twister, so the inputs do not
depend on the numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 7

P_RANK2 = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
HOPF_FIELD = {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}}
# The same Hopf field written out as expressions on the family's cylinder.
HOPF_EXPRS = [
    "x1 - x2 - x1*(x1^2 + x2^2)",
    "x1 + x2 - x2*(x1^2 + x2^2)",
    "-4*x3",
]
HOPF_DOMAIN = {"type": "cylinder", "radius": 1.2, "rest_lo": [-1.0], "rest_hi": [1.0]}
SINK_A = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
# May-Leonard competition with alpha + beta < 2: the interior equilibrium
# A^-1 r = (1, 1, 1) / (1 + alpha + beta) attracts the open orthant.
LV_ALPHA, LV_BETA = 0.2, 0.6
LV_A = [[1.0, LV_ALPHA, LV_BETA], [LV_BETA, 1.0, LV_ALPHA], [LV_ALPHA, LV_BETA, 1.0]]
LV_R = [1.0, 1.0, 1.0]
LV_EQUILIBRIUM = [1.0 / (1.0 + LV_ALPHA + LV_BETA)] * 3

WORKLOADS = ("oscillators", "settling", "certify_sweep", "dense_tail")


@dataclass
class Case:
    """One scenario file of a workload and what its oracle checks."""

    name: str
    scenario: dict
    # Oracle kinds this scenario must satisfy; see oracles.check_report.
    checks: tuple[str, ...] = ()
    # Number of initial conditions, hence orbit sections and CSV groups.
    n_orbits: int = 0


def _hopf_x0(rng: random.Random) -> list[float]:
    r = rng.uniform(0.1, 1.15)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(a), r * math.sin(a), rng.uniform(-0.9, 0.9)]


def _box_x0(rng: random.Random, lo: float, hi: float, n: int = 3) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(n)]


def _sink_x0(rng: random.Random) -> list[float]:
    return [0.0, 0.0, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)]


def _scenario(base: dict, seed: int, x0s, extra: dict) -> dict:
    scn = dict(base, seed=seed, **extra)
    if x0s is not None:
        scn["x0"] = x0s
    return scn


def _hopf(seed: int, x0s, **extra) -> dict:
    base = {
        "name": "hopf cylinder",
        "field": HOPF_FIELD,
        "cone": {"type": "quadratic", "P": P_RANK2},
        "lambda": 3.5,
        "T": 100.0,
        "rtol": 1e-10,
        "atol": 1e-12,
    }
    return _scenario(base, seed, x0s, extra)


def _lv(seed: int, x0s, **extra) -> dict:
    base = {
        "name": "competitive lotka-volterra",
        "field": {"family": "competitive_lv", "params": {"A": LV_A, "r": LV_R}},
        "cone": {"type": "quadratic", "P": P_RANK2},
        "lambda": 1.0,
        "T": 100.0,
    }
    return _scenario(base, seed, x0s, extra)


def _sink(seed: int, x0s, **extra) -> dict:
    base = {
        "name": "linear sink",
        "field": {"family": "linear", "params": {"A": SINK_A}},
        "cone": {"type": "quadratic", "P": P_RANK2},
        "lambda": 0.0,
        "T": 100.0,
    }
    return _scenario(base, seed, x0s, extra)


def oscillators(seed: int) -> list[Case]:
    rng = random.Random(f"oscillators:{seed}")
    hopf_x0 = [_hopf_x0(rng) for _ in range(2)]
    exprs_x0 = [_hopf_x0(rng)]
    glass_x0 = [_box_x0(rng, 0.0, 4.0)]
    exprs = _hopf(seed, exprs_x0, name="hopf cylinder as expressions",
                  field={"exprs": HOPF_EXPRS}, domain=HOPF_DOMAIN)
    glass = {
        "name": "glass pwl ring",
        "field": {"family": "cyclic_feedback",
                  "params": {"n": 3, "kind": "glass_pwl", "amp": 4.0}},
        "domain": {"type": "box", "lo": [-0.5] * 3, "hi": [4.5] * 3},
        "cone": {"type": "orthant_complement", "n": 3},
        "x0": glass_x0,
        "T": 50.0,
        "seed": seed,
    }
    return [
        Case("hopf", _hopf(seed, hopf_x0), ("hopf_orbits",), 2),
        Case("hopf_exprs", exprs, ("hopf_orbits",), 1),
        Case("glass", glass, (), 1),
    ]


def settling(seed: int) -> list[Case]:
    rng = random.Random(f"settling:{seed}")
    goodwin = {
        "name": "goodwin ring",
        "field": {"family": "cyclic_feedback",
                  "params": {"n": 3, "kind": "smooth_goodwin", "m": 4.0}},
        "cone": {"type": "orthant_complement", "n": 3},
        "x0": [_box_x0(rng, 0.1, 1.0) for _ in range(3)],
        "T": 100.0,
        "seed": seed,
    }
    sink = _sink(seed, [_sink_x0(rng) for _ in range(3)])
    lv = _lv(seed, [_box_x0(rng, 0.05, 2.0) for _ in range(3)])
    return [
        Case("goodwin", goodwin, (), 3),
        Case("sink", sink, ("sink_lmi",), 3),
        Case("lv", lv, ("lv_equilibrium",), 3),
    ]


def certify_sweep(seed: int) -> list[Case]:
    sweep = {"lambda_grid": [0.0, 5.0, 0.25], "pairs": 100_000, "epsilon": 0.01}
    return [
        Case("lv", _lv(seed, None, **sweep), ()),
        Case("hopf", _hopf(seed, None, **sweep), ("hopf_grid",)),
        Case("sink", _sink(seed, None, lambda_grid=[-1.0, 1.0, 0.1]), ("sink_lmi",)),
    ]


def dense_tail(seed: int) -> list[Case]:
    rng = random.Random(f"dense_tail:{seed}")
    scn = _hopf(seed, [_hopf_x0(rng)], T=200.0, analysis={"spacing": 0.02})
    return [Case("hopf", scn, ("hopf_orbits", "tail_size"), 1)]


GENERATORS = {
    "oscillators": oscillators,
    "settling": settling,
    "certify_sweep": certify_sweep,
    "dense_tail": dense_tail,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed; same seed, same inputs."""
    return GENERATORS[workload](seed)
