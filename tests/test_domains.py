"""Box and cylinder membership, sampling, and size reporting."""

import numpy as np
import pytest

from kcone.domains import Box, Cylinder
from kcone.errors import BadParameter, DimensionMismatch, EmptyDomain


def test_box_basics():
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    assert box.dim == 2
    assert box.contains([0.0, 1.0])
    assert box.contains([-1.0, 0.0])  # closed at the faces
    assert not box.contains([1.0001, 1.0])
    assert box.contains([1.0001, 1.0], pad=1e-3)
    assert box.diameter() == pytest.approx(np.sqrt(8.0))
    assert np.allclose(box.widths(), [2.0, 2.0])
    assert np.allclose(box.center(), [0.0, 1.0])


def test_box_contains_vectorized():
    box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    X = np.array([[0.0, 0.0], [2.0, 0.0], [-1.0, 1.0], [0.0, -3.0]])
    assert np.array_equal(box.contains(X), [True, False, True, False])


def test_box_sample_inside_and_deterministic():
    box = Box(lo=[-2.0, 1.0, 0.0], hi=[2.0, 3.0, 0.5])
    a = box.sample(np.random.default_rng(5), 200)
    b = box.sample(np.random.default_rng(5), 200)
    assert a.shape == (200, 3)
    assert np.array_equal(a, b)
    assert np.all(box.contains(a))
    # samples spread across each axis rather than hugging one corner
    assert np.all(a.min(axis=0) < box.center())
    assert np.all(a.max(axis=0) > box.center())


def test_box_validation():
    with pytest.raises(EmptyDomain):
        Box(lo=[0.0, 0.0], hi=[1.0, 0.0])
    with pytest.raises(EmptyDomain):
        Box(lo=[2.0], hi=[1.0])
    with pytest.raises(BadParameter):
        Box(lo=[0.0], hi=[np.inf])
    with pytest.raises(DimensionMismatch):
        Box(lo=[0.0, 0.0], hi=[1.0])


def test_cylinder_basics():
    cyl = Cylinder(radius=2.0, rest=Box(lo=[-1.0], hi=[1.0]))
    assert cyl.dim == 3
    assert cyl.contains([1.0, 1.0, 0.0])
    assert not cyl.contains([2.0, 2.0, 0.0])  # corner of the bounding box
    assert not cyl.contains([0.0, 0.0, 1.5])
    assert cyl.contains([0.0, 2.0001, 0.0], pad=1e-3)
    assert cyl.diameter() == pytest.approx(np.hypot(4.0, 2.0))
    assert np.allclose(cyl.widths(), [4.0, 4.0, 2.0])
    assert np.allclose(cyl.center(), [0.0, 0.0, 0.0])


def test_cylinder_sample_inside_and_deterministic():
    cyl = Cylinder(radius=1.5, rest=Box(lo=[0.0, -1.0], hi=[2.0, 1.0]))
    a = cyl.sample(np.random.default_rng(9), 500)
    b = cyl.sample(np.random.default_rng(9), 500)
    assert a.shape == (500, 4)
    assert np.array_equal(a, b)
    assert np.all(cyl.contains(a))
    # planar part actually fills the disk, not just a smaller square
    r = np.hypot(a[:, 0], a[:, 1])
    assert r.max() > 1.2
    corners = np.abs(a[:, 0]) + np.abs(a[:, 1])
    assert np.all(r <= 1.5 + 1e-12)
    assert corners.max() > 1.6  # points beyond the inscribed diamond


def test_cylinder_validation():
    with pytest.raises(BadParameter):
        Cylinder(radius=0.0, rest=Box(lo=[0.0], hi=[1.0]))
    with pytest.raises(BadParameter):
        Cylinder(radius=-2.0, rest=Box(lo=[0.0], hi=[1.0]))
    with pytest.raises(BadParameter):
        Cylinder(radius=np.inf, rest=Box(lo=[0.0], hi=[1.0]))
