"""Parser golden values, precedence, broadcasting, and positioned errors."""

import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kcone.errors import (
    ArityMismatch,
    ExpressionSyntaxError,
    UnknownIdentifier,
)
from kcone.domains import Box
from kcone.expressions import MAX_DEPTH, _tokenize, hill, parse_expression, pwl
from kcone.fields import parse_field
from kcone.integrators import integrate

V2 = ("x", "y")

# (text, variables, params, state, expected)
GOLDEN = [
    ("2+3*4^2", ("x",), None, [0.0], 50.0),
    ("-x^2", ("x",), None, [3.0], -9.0),
    ("2^3^2", ("x",), None, [0.0], 512.0),
    ("2^-1", ("x",), None, [0.0], 0.5),
    ("(2+3)*4", ("x",), None, [0.0], 20.0),
    ("7/2", ("x",), None, [0.0], 3.5),
    ("1 - 2 - 3", ("x",), None, [0.0], -4.0),
    ("12/4/3", ("x",), None, [0.0], 1.0),
    ("hill(1, 1, 2)", ("x",), None, [0.0], 0.5),
    ("hill(0, 2, 4)", ("x",), None, [0.0], 1.0),
    ("pwl(1.5, 0, 2)", ("x",), None, [0.0], 0.75),
    ("pwl(5, 0, 2)", ("x",), None, [0.0], 1.0),
    ("pwl(0-1, 0, 2)", ("x",), None, [0.0], 0.0),
    ("pwl(0.5, 2, 0)", ("x",), None, [0.0], 0.75),
    ("min(x, y) + max(x, y)", V2, None, [3.0, 4.0], 7.0),
    ("max(min(x, 2), 0)", V2, None, [5.0, 0.0], 2.0),
    ("sin(0) + cos(0)", ("x",), None, [0.0], 1.0),
    ("tanh(0) + abs(0 - 5)", ("x",), None, [0.0], 5.0),
    ("exp(1)", ("x",), None, [0.0], float(np.e)),
    ("a*x + b", ("x",), {"a": 2.0, "b": 1.0}, [3.0], 7.0),
    ("1e-2 + 2.5E3", ("x",), None, [0.0], 2500.01),
    (".5*4", ("x",), None, [0.0], 2.0),
    (" 1 + 2 ", ("x",), None, [0.0], 3.0),
    ("- -x", ("x",), None, [2.0], 2.0),
    ("+x", ("x",), None, [-7.0], -7.0),
    ("\tx *\n2\r", ("x",), None, [3.0], 6.0),
]


@pytest.mark.parametrize("text,variables,params,state,expected", GOLDEN)
def test_golden_values(text, variables, params, state, expected):
    fn = parse_expression(text, variables, params)
    got = float(fn(np.asarray(state)))
    assert got == pytest.approx(expected, rel=1e-15, abs=1e-15)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Binary + - * / trees over x1, x2 and non-negative literals.
_TREES = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2"]), st.floats(min_value=0.0, allow_infinity=False)),
    lambda sub: st.tuples(st.sampled_from(sorted(_ARITHMETIC)), sub, sub),
    max_leaves=12,
)


def _tree_text(tree) -> str:
    if isinstance(tree, tuple):
        op, a, b = tree
        return f"({_tree_text(a)} {op} {_tree_text(b)})"
    return tree if isinstance(tree, str) else repr(tree)


def _tree_value(tree, env: dict) -> float:
    if isinstance(tree, tuple):
        op, a, b = tree
        return _ARITHMETIC[op](_tree_value(a, env), _tree_value(b, env))
    return env[tree] if isinstance(tree, str) else tree


@settings(max_examples=200, deadline=None)
@given(_TREES, _FINITE, _FINITE)
def test_arithmetic_agrees_with_python_floats(tree, x1, x2):
    """Both sides round each IEEE operation once, so the bits must match."""
    try:
        want = _tree_value(tree, {"x1": x1, "x2": x2})
    except ZeroDivisionError:
        assume(False)
    got = float(parse_expression(_tree_text(tree), ("x1", "x2"))(np.array([x1, x2])))
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_variable_shadows_parameter():
    # resolution order: declared variables win over same-named parameters
    fn = parse_expression("a", ("a",), {"a": 100.0})
    assert float(fn(np.array([3.0]))) == 3.0


def test_batch_matches_pointwise():
    fn = parse_expression("x^2 + sin(y) - x*y", V2)
    rng = np.random.default_rng(11)
    X = rng.uniform(-3.0, 3.0, size=(40, 2))
    batch = fn(X)
    assert batch.shape == (40,)
    for i in range(40):
        assert batch[i] == pytest.approx(float(fn(X[i])), rel=1e-15)


def test_constant_broadcasts_over_batch():
    fn = parse_expression("3.5", V2)
    out = fn(np.zeros((7, 2)))
    assert out.shape == (7,)
    assert np.all(out == 3.5)


def test_scalar_state_gives_scalar_shape():
    fn = parse_expression("x + y", V2)
    out = fn(np.array([1.0, 2.0]))
    assert out.shape == ()
    assert float(out) == 3.0


def test_hill_and_pwl_functions_direct():
    assert hill(1.0, 1.0, 2.0) == pytest.approx(0.5)
    assert hill(2.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    # hill is decreasing in x
    xs = np.linspace(0.0, 5.0, 50)
    vals = hill(xs, 1.5, 4.0)
    assert np.all(np.diff(vals) <= 0.0)
    # pwl ramps between the thresholds and clamps outside
    assert pwl(0.0, 0.0, 2.0) == 0.0
    assert pwl(2.0, 0.0, 2.0) == 1.0
    assert pwl(1.0, 0.0, 2.0) == 0.5
    assert pwl(1.0, 2.0, 0.0) == 0.5
    assert np.all(pwl(np.array([-9.0, 9.0]), 0.0, 2.0) == [0.0, 1.0])


# (text, error type, 0-based character offset)
BAD = [
    ("2 +", ExpressionSyntaxError, 3),
    ("(x", ExpressionSyntaxError, 2),
    ("sin(x, y)", ArityMismatch, 0),
    ("hill(x)", ArityMismatch, 0),
    ("foo(x)", UnknownIdentifier, 0),
    ("zz + 1", UnknownIdentifier, 0),
    ("x + qq", UnknownIdentifier, 4),
    ("2 ** 3", ExpressionSyntaxError, 3),
    ("2 3", ExpressionSyntaxError, 2),
    ("x $ 2", ExpressionSyntaxError, 2),
    ("   ", ExpressionSyntaxError, 3),
    ("x\t+\n", ExpressionSyntaxError, 4),
    ("x + \u00e9", ExpressionSyntaxError, 4),
    ("1.2.3", ExpressionSyntaxError, 3),
]


@pytest.mark.parametrize("text,err,position", BAD)
def test_error_positions(text, err, position):
    with pytest.raises(err) as info:
        parse_expression(text, ("x", "y", "z"))
    assert info.value.position == position
    assert f"position {position}" in str(info.value)


def test_tokens_carry_their_offsets():
    assert _tokenize(" x1\t+\n1.5e3 ") == [
        ("name", "x1", 1), ("op", "+", 4), ("num", "1.5e3", 6), ("end", "", 12),
    ]
    assert _tokenize("") == [("end", "", 0)]


def test_specific_errors_are_syntax_errors():
    # callers catching the broad class get arity and name failures too
    assert issubclass(ArityMismatch, ExpressionSyntaxError)
    assert issubclass(UnknownIdentifier, ExpressionSyntaxError)


# ---- nesting depth ----

TOO_DEEP = {
    "sum": "+".join(["x"] * 3000),
    "parentheses": "(" * 3000 + "x" + ")" * 3000,
    "signs": "-" * 3000 + "x",
    "powers": "^".join(["x"] * 2000),
}


@pytest.mark.parametrize("name", sorted(TOO_DEEP))
def test_too_deep_is_a_syntax_error(name):
    with pytest.raises(ExpressionSyntaxError, match="nested deeper"):
        parse_expression(TOO_DEEP[name], ("x",))


# Expressions exactly at the cap, one per kind of nesting, with their value
# at x = 1. A lone operand is one level.
AT_THE_CAP = {
    "sum": ("+".join(["x1"] * MAX_DEPTH), float(MAX_DEPTH)),
    "parentheses": ("(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1), 1.0),
    "signs": ("-" * (MAX_DEPTH - 1) + "x1", (-1.0) ** (MAX_DEPTH - 1)),
    "powers": ("^".join(["x1"] * MAX_DEPTH), 1.0),
    "calls": ("abs(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1), 1.0),
}


@pytest.mark.parametrize("name", sorted(AT_THE_CAP))
def test_expression_at_the_cap_evaluates(name):
    text, value = AT_THE_CAP[name]
    field = parse_field(["0 - x1", text], domain=Box(lo=[-2.0, -1e3], hi=[2.0, 1e3]))
    assert field(np.array([1.0, 0.0]))[1] == value
    assert np.array_equal(field.rhs(np.ones((4, 2)))[:, 1], np.full(4, value))
    # integrate calls the closure a few frames deeper still
    traj = integrate(field, [1.0, 0.0], 0.5)
    assert traj.events == []
    with pytest.raises(ExpressionSyntaxError, match="nested deeper"):
        parse_expression("-" + text if name != "sum" else text + "+x1", ("x1",))
