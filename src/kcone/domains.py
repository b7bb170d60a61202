"""Axis-aligned boxes and radial cylinders used as field domains.

Both shapes know how to test membership (vectorized over rows), draw
uniform samples from a seeded generator, and report their diameter and
reach (the largest |coordinate| of a point in them). The
cylinder is round in the first two coordinates and boxed in the rest,
matching the planar-rotation model families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimensionMismatch, EmptyDomain


@dataclass(frozen=True, eq=False)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be two equal-length vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise BadParameter("box bounds must be finite")
        if np.any(hi <= lo):
            raise EmptyDomain("every upper bound must strictly exceed the lower")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x, pad: float = 0.0):
        x = np.asarray(x, dtype=float)
        if pad:
            inside = (x >= self.lo - pad) & (x <= self.hi + pad)
        else:
            inside = (x >= self.lo) & (x <= self.hi)
        return inside.all(axis=-1)

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(m, self.dim))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def reach(self) -> float:
        """Largest |x_i| over the points x of the box."""
        return float(np.maximum(np.abs(self.lo), np.abs(self.hi)).max())

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True, eq=False)
class Cylinder:
    """{(x1, x2) : x1^2 + x2^2 <= radius^2} times a box over the rest."""

    radius: float
    rest: Box

    def __post_init__(self):
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise BadParameter("cylinder radius must be positive and finite")

    @property
    def dim(self) -> int:
        return 2 + self.rest.dim

    def contains(self, x, pad: float = 0.0):
        x = np.asarray(x, dtype=float)
        # Coordinate-first, as in the field closures: numpy float64 scalars
        # for one state, transposed columns (transposed back) for a batch.
        X = x.T
        planar = np.sqrt(X[0] * X[0] + X[1] * X[1]) <= self.radius + pad
        return planar.T & self.rest.contains(x[..., 2:], pad=pad)

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        # Rejection from the bounding box; acceptance rate pi/4 keeps the
        # loop short and the draw deterministic for a fixed generator state.
        out = np.empty((m, self.dim))
        filled = 0
        while filled < m:
            want = m - filled
            draw = int(np.ceil(want / 0.7)) + 8
            planar = rng.uniform(-self.radius, self.radius, size=(draw, 2))
            keep = planar[np.einsum("ij,ij->i", planar, planar) <= self.radius**2]
            take = min(want, keep.shape[0])
            out[filled : filled + take, :2] = keep[:take]
            filled += take
        out[:, 2:] = self.rest.sample(rng, m)
        return out

    def diameter(self) -> float:
        return float(np.hypot(2.0 * self.radius, np.linalg.norm(self.rest.widths())))

    def reach(self) -> float:
        return max(self.radius, self.rest.reach())

    def widths(self) -> np.ndarray:
        return np.concatenate([[2.0 * self.radius, 2.0 * self.radius], self.rest.widths()])

    def center(self) -> np.ndarray:
        return np.concatenate([[0.0, 0.0], self.rest.center()])


Domain = Box | Cylinder
