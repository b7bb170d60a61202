"""One closure serves one state and a batch.

Every field family a scenario can name, and a parsed field, evaluates an
(a, b, n) batch of states to the bits its single-state calls give row by
row; so does parse_expression. The elementwise closures read the batch
through its transposed, coordinate-first view, where a mix-up of the two
batch axes would show as swapped or misshapen rows.

The linear and competitive LV right-hand sides multiply by A with
x @ A.T, and a one-row product can differ from the batched one in the last
bit, so for those two the rows are held to 1e-12, and the (a, b, n) batch
to the bits of the same states as one (a * b, n) batch.
"""

import numpy as np
import pytest

from kcone.expressions import parse_expression
from kcone.scenario import SCENARIO_SCHEMA, parse_scenario

EXPRS = [
    "exp(x3) / x1 + sin(x2) - x1 * (x1^2 + x2^2)",
    "hill(x2, 1, 4) - tanh(x3) + abs(x1) * pwl(x1, 1.75, 0.25)",
    "max(x1, x2) - min(x2, x3)^2 + a * cos(x3)",
]
A3 = [[1.0, 0.4, 0.7], [0.6, 1.0, 0.3], [0.2, 0.9, 1.0]]

# name -> scenario field; one entry per family the schema admits, and a
# parsed field
FIELDS = {
    "linear": {"family": "linear", "params": {"A": [[-1.0, 2.0, 0.5], [0.3, -1.0, 0.0],
                                                    [1.5, 0.25, -2.0]]}},
    "hopf_cylinder": {"family": "hopf_cylinder", "params": {"omega": 1.3, "c": 2.0}},
    "smooth_goodwin": {"family": "cyclic_feedback", "params": {"n": 3, "m": 6.0}},
    "glass_pwl": {"family": "cyclic_feedback", "params": {"n": 3, "kind": "glass_pwl"}},
    "competitive_lv": {"family": "competitive_lv", "params": {"A": A3, "r": [1.0, 2.0, 0.5]}},
    "parsed": {"exprs": EXPRS, "params": {"a": 2.0}},
}
MATMUL = {"linear", "competitive_lv"}


def make_field(name):
    obj = {
        "field": FIELDS[name],
        "cone": {"type": "orthant_complement", "n": 3},
        "domain": {"type": "box", "lo": [-1.0] * 3, "hi": [1.0] * 3},
    }
    return parse_scenario(obj).field


def batch(a=5, b=7, n=3):
    """An (a, b, n) batch with signed zeros, tiny and large entries."""
    rng = np.random.default_rng(13)
    X = rng.normal(scale=2.0, size=(a, b, n))
    X[0, :, 0] = 0.0
    X[1, :, 1] = -0.0
    X[2, 3] = [1e-200, -1e-200, 1e-20]
    X[3, 1] = [40.0, -35.0, 12.0]
    return X


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_every_family_is_covered():
    families = SCENARIO_SCHEMA["properties"]["field"]["properties"]["family"]["enum"]
    covered = {spec.get("family") for spec in FIELDS.values()}
    assert set(families) <= covered


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_batch_rows_are_the_single_state_values(name):
    field = make_field(name)
    X = batch()
    with np.errstate(all="ignore"):
        got = field.rhs(X)
        rows = np.array([[field.rhs(x) for x in row] for row in X])
        flat = field.rhs(X.reshape(-1, 3)).reshape(X.shape)
    assert same_bits(got, flat)
    if name in MATMUL:
        np.testing.assert_allclose(got, rows, rtol=1e-12, atol=1e-12)
    else:
        assert same_bits(got, rows)
    # Orientation: the batch axes are not swapped, even when a == b.
    square = X[:5, :5]
    with np.errstate(all="ignore"):
        assert same_bits(field.rhs(square), got[:5, :5])


@pytest.mark.parametrize("text", EXPRS)
def test_parse_expression_batch_rows_are_the_single_state_values(text):
    fn = parse_expression(text, ("x1", "x2", "x3"), {"a": 2.0})
    X = batch()
    got = fn(X)
    rows = np.array([[fn(x) for x in row] for row in X])
    assert same_bits(got, rows)
    assert got.shape == X.shape[:2]
    assert same_bits(fn(X[:5, :5]), rows[:5, :5])
