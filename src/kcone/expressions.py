"""Recursive-descent parser for right-hand-side expressions.

Grammar, usual precedence, ^ binds tightest and associates to the right:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names resolve, in order, to declared variables (x1..xn by default), to
parameters supplied at parse time (folded to constants), or to one of the
built-in functions. Anything else raises UnknownIdentifier with the 0-based
character offset of the name. All structural errors carry such an offset.

Built-ins: sin, cos, exp, tanh, abs (arity 1), min, max (arity 2),
hill(x, theta, m) = theta^m / (theta^m + x^m), and the two-threshold ramp
pwl(x, a, b) = clip((x - a) / (b - a), 0, 1), which decreases when a > b.

Parsing emits Python source, compiled once into a function of X that
returns the list of the expressions' values. No text of the expression
reaches that source: the variable with index j is X[j], a number or a
parameter is an entry C[k] of a constants tuple, and a built-in, a power
or a divisor is a call of a fixed helper name. The one compiled code runs
under two namespaces, which bind C and the helper names differently:

  * the array form, over numpy: X is the coordinate-first view x.T of a
    state array x of shape (..., n), whose X[j] is the column x[..., j]
    transposed (a numpy float64 for one state), and the constants are numpy
    float64s. Every operation is elementwise, so one state and a batch row
    get the same bits.
  * the float form, over Python floats: X is one state as a list of floats,
    and + - * and the sign are Python float arithmetic, which is IEEE
    double as numpy's is. A ^ whose exponent is 2.0 is the product a*a,
    the bits of np.power(a, 2.0); abs and pwl are written on floats with
    numpy's bits; the other built-ins and powers call the same numpy
    function and read its value back as a float. A zero divisor is made a
    numpy float64, so x/0 gives numpy's inf or nan, never ZeroDivisionError.

The float form returns, bit for bit, what the array form returns on the
same single state; only a NaN made from two NaNs may carry the other's sign,
as between numpy's own scalar and SIMD loops. Both forms leave numpy's
floating-point error state to their caller.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping, Sequence
from typing import Callable

import numpy as np

from .errors import ArityMismatch, ExpressionSyntaxError, UnknownIdentifier

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"
)


def hill(x, theta, m):
    """Repressive Hill curve theta^m / (theta^m + x^m)."""
    tm = np.power(theta, m)
    return tm / (tm + np.power(x, m))


def pwl(x, a, b):
    """Ramp from 0 at x=a to 1 at x=b, clamped outside; a > b flips it.

    np.clip's bits at a third of its dispatch cost. This operand order keeps
    its -0.0 at the start of a falling ramp; max(v, 0.0) would give +0.0.
    A numpy float64 x stays a scalar. The divisor is taken as np.float64,
    the identity on numpy values, so that Python floats divide by numpy's
    rules too: a == b gives inf or nan, not ZeroDivisionError.
    """
    return np.minimum(1.0, np.maximum(0.0, (x - a) / np.float64(b - a)))


def _ramp(x, a, b):
    """pwl(x, a, b); on a float x in Python floats, with the bits of pwl's
    np.minimum(1.0, np.maximum(0.0, v)): NaN stays NaN, and np.maximum
    keeps its second operand on a tie, so v = -0.0 stays -0.0."""
    if isinstance(x, np.ndarray):
        return pwl(x, a, b)
    v = (x - a) / _divisor(b - a)
    v = 0.0 if 0.0 > v else v
    return 1.0 if 1.0 < v else v


# Built-in name -> arity. Each name is also the helper name the emitted
# source calls, bound in both namespaces below.
_FUNCTIONS: dict[str, int] = {
    "sin": 1, "cos": 1, "exp": 1, "tanh": 1, "abs": 1,
    "min": 2, "max": 2,
    "hill": 3, "pwl": 3,
}


def _divisor(b):
    """b, or as a numpy float64 when it is zero, so that a float divided by
    it gets numpy's inf or nan and not ZeroDivisionError."""
    return b if b else np.float64(b)


def _as_is(b):
    """The array form's divisor: numpy values divide by IEEE rules."""
    return b


def _power(a, b):
    """np.power(a, b) as a float; a*a when b is 2.0, which has its bits."""
    return a * a if b == 2.0 else float(np.power(a, b))


def _as_float(fn):
    """fn with its numpy scalar value read back as a Python float."""
    return lambda *args: float(fn(*args))


# The helpers of each form. Only these names, X, C and the locals t0, t1,
# ... that name each call's value occur in the source.
_ARRAY_HELPERS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh, "abs": np.abs,
    "min": np.minimum, "max": np.maximum, "hill": hill, "pwl": pwl,
    "_power": np.power, "_divisor": _as_is,
}
_FLOAT_HELPERS = {
    "sin": _as_float(np.sin), "cos": _as_float(np.cos), "exp": _as_float(np.exp),
    "tanh": _as_float(np.tanh), "abs": abs,
    "min": _as_float(np.minimum), "max": _as_float(np.maximum), "hill": _as_float(hill),
    "pwl": _ramp,
    "_power": _power, "_divisor": _divisor,
}


_Token = namedtuple("_Token", "kind text pos")

# Deepest nesting an expression may have: a lone operand is one level, and
# each parenthesis, sign, power, call and operator chained onto a sum or
# product adds one. Parsing takes up to six frames a level, well inside
# Python's default recursion limit of 1000. A statement of the emitted
# source nests at most MAX_DEPTH + 2 brackets, under the compiler's 200.
MAX_DEPTH = 128


def _tokenize(text: str) -> list[_Token]:
    """The num, name and op tokens of text with their 0-based offsets, then
    an end token at len(text); whitespace separates tokens and is dropped.
    Any other character raises ExpressionSyntaxError at its offset."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Parses the expressions of one field in the same variables and
    parameters, and collects what their source shares: the constants C and
    the statements that name each call's value."""

    def __init__(self, variables: Sequence[str], params: Mapping[str, float]):
        self.var_index = {name: j for j, name in enumerate(variables)}
        self.params = dict(params)
        self.constants: list = []
        self.lines: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def deeper(self, tok: _Token) -> None:
        """One more level at tok; the rule that opened it closes it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExpressionSyntaxError(f"nested deeper than {MAX_DEPTH} levels", tok.pos)

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            found = repr(tok.text) if tok.text else "end of input"
            raise ExpressionSyntaxError(f"expected {op!r}, found {found}", tok.pos)
        self.advance()

    def constant(self, value) -> str:
        self.constants.append(np.float64(value))
        return f"C[{len(self.constants) - 1}]"

    def named(self, call: str) -> str:
        """A local name for call's value, bound by a statement of its own."""
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {call}")
        return name

    # --- grammar rules, each returning the Python source of its value. A
    # chain of + - or of * / is emitted flat: Python's operators of one
    # precedence associate to the left, as the grammar's do, and a sign
    # binds tighter than * and /. A power or a built-in is a call in a
    # statement of its own, read by name. So a statement opens its call's
    # parenthesis or the list's bracket, and inside it only a group, the
    # divisor after its operator and a subscript open one: at most one a
    # level, plus two. ---

    def parse(self, text: str) -> str:
        """The source of text's value, after the statements it reads."""
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        src = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return src

    def expr(self) -> str:
        depth = self.depth
        src = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            self.deeper(tok)
            src += (" + " if tok.text == "+" else " - ") + self.term()
        self.depth = depth
        return src

    def term(self) -> str:
        depth = self.depth
        src = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            self.deeper(tok)
            rhs = self.unary()
            src += f" * {rhs}" if tok.text == "*" else f" / _divisor({rhs})"
        self.depth = depth
        return src

    def unary(self) -> str:
        # Every operand is parsed here, so this is where nesting is counted.
        tok = self.peek()
        self.deeper(tok)
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            inner = self.unary()
            src = "-" + inner if tok.text == "-" else inner
        else:
            src = self.power()
        self.depth -= 1
        return src

    def power(self) -> str:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.unary()  # right associative, sign allowed
            return self.named(f"_power({base}, {exponent})")
        return base

    def atom(self) -> str:
        tok = self.advance()
        if tok.kind == "num":
            return self.constant(tok.text)
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(tok)
            if tok.text in self.var_index:
                return f"X[{self.var_index[tok.text]}]"
            if tok.text in self.params:
                return self.constant(self.params[tok.text])
            raise UnknownIdentifier(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            src = self.expr()
            self.expect_op(")")
            return f"({src})"
        raise ExpressionSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
        )

    def call(self, name_tok: _Token) -> str:
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise UnknownIdentifier(f"unknown function {name!r}", name_tok.pos)
        arity = _FUNCTIONS[name]
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != arity:
            raise ArityMismatch(
                f"{name} takes {arity} argument(s), got {len(args)}", name_tok.pos
            )
        return self.named(f"{name}({', '.join(args)})")


def parse_expression(
    text: str,
    variables: Sequence[str],
    params: Mapping[str, float] | None = None,
) -> Callable:
    """Compile one expression into a callable of an (..., n) state array.

    The result broadcasts: one state of shape (n,) yields a 0-d array, and
    an (..., n) batch of states yields an (...) batch of values. The
    compiled array form is called on the coordinate-first view X.T and its
    value transposed back.
    """
    fn, _ = _compile([text], variables, params)

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        with np.errstate(all="ignore"):
            (out,) = fn(X.T)
        return np.broadcast_to(np.asarray(out, dtype=float).T, X.shape[:-1]).copy()

    return evaluate


def _compile(
    texts: Sequence[str], variables: Sequence[str], params: Mapping[str, float] | None
) -> tuple[Callable, Callable]:
    """The array form and the float form of the expressions texts: one
    function of X each, returning the list of their values.

    The array form takes the coordinate-first view X = x.T of a state array
    x of shape (..., n) and returns values shaped like X[0] (numpy float64s
    for one state), or a constant for an expression that reads no variable.
    The float form takes one state as a list of floats and returns floats.
    The source is compiled once; both leave numpy's floating-point error
    state to the caller."""
    parser = _Parser(variables, params or {})
    values = [parser.parse(text) for text in texts]
    body = [*parser.lines, f"return [{', '.join(values)}]"]
    code = compile("def _form(X):\n" + "".join(f"    {line}\n" for line in body),
                   "<kcone expressions>", "exec")
    forms = []
    for helpers, C in ((_ARRAY_HELPERS, tuple(parser.constants)),
                       (_FLOAT_HELPERS, tuple(float(c) for c in parser.constants))):
        namespace = {"__builtins__": {}, **helpers, "C": C}
        exec(code, namespace)
        forms.append(namespace["_form"])
    return forms[0], forms[1]
