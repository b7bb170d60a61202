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

Parsing produces a closure of the coordinate-first array X, the transpose
of a state array of shape (..., n): the variable with index j reads X[j].
For one state of shape (n,), X[j] is a numpy float64 and the closure runs
on scalars; for a batch, X[j] is the column x[..., j] transposed, and the
closure's value is the batch of values transposed the same way. Every
operation is elementwise, so a parsed field evaluates pointwise and in
batch through the same closure, with the same bits. The DP5 loop's single
state is a list of Python floats, which a parsed field's coordinate form
turns into a float64 array first: a variable and a constant are then
numpy float64s, so x/0 gives inf or nan by IEEE rules and never raises
ZeroDivisionError. The raw closures leave numpy's floating-point error
state to their caller.
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


_FUNCTIONS: dict[str, tuple[int, Callable]] = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "tanh": (1, np.tanh),
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "hill": (3, hill),
    "pwl": (3, pwl),
}


_Token = namedtuple("_Token", "kind text pos")

# Deepest nesting an expression may have: a lone operand is one level, and
# each parenthesis, sign, power, call and operator chained onto a sum or
# product adds one. Parsing takes up to six frames a level and evaluating
# one, well inside Python's default recursion limit of 1000.
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
    def __init__(self, text: str, variables: Sequence[str], params: Mapping[str, float]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.var_index = {name: j for j, name in enumerate(variables)}
        self.params = dict(params)
        self.depth = 0

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

    # --- grammar rules, each returning a closure of X, the coordinate-first
    # (n, ...) view of the states ---

    def parse(self) -> Callable:
        fn = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return fn

    def expr(self) -> Callable:
        depth = self.depth
        fn = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            self.deeper(tok)
            rhs = self.term()
            if tok.text == "+":
                fn = (lambda a, b: lambda X: a(X) + b(X))(fn, rhs)
            else:
                fn = (lambda a, b: lambda X: a(X) - b(X))(fn, rhs)
        self.depth = depth
        return fn

    def term(self) -> Callable:
        depth = self.depth
        fn = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            self.deeper(tok)
            rhs = self.unary()
            if tok.text == "*":
                fn = (lambda a, b: lambda X: a(X) * b(X))(fn, rhs)
            else:
                fn = (lambda a, b: lambda X: a(X) / b(X))(fn, rhs)
        self.depth = depth
        return fn

    def unary(self) -> Callable:
        # Every operand is parsed here, so this is where nesting is counted.
        tok = self.peek()
        self.deeper(tok)
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            inner = self.unary()
            fn = (lambda X: -inner(X)) if tok.text == "-" else inner
        else:
            fn = self.power()
        self.depth -= 1
        return fn

    def power(self) -> Callable:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.unary()  # right associative, sign allowed
            return lambda X: np.power(base(X), exponent(X))
        return base

    def atom(self) -> Callable:
        tok = self.advance()
        if tok.kind == "num":
            value = np.float64(tok.text)
            return lambda X: value
        if tok.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(tok)
            if tok.text in self.var_index:
                j = self.var_index[tok.text]
                return lambda X: X[j]
            if tok.text in self.params:
                value = np.float64(self.params[tok.text])
                return lambda X: value
            raise UnknownIdentifier(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            fn = self.expr()
            self.expect_op(")")
            return fn
        raise ExpressionSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
        )

    def call(self, name_tok: _Token) -> Callable:
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise UnknownIdentifier(f"unknown function {name!r}", name_tok.pos)
        arity, impl = _FUNCTIONS[name]
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
        if arity == 1:
            (a0,) = args
            return lambda X: impl(a0(X))
        if arity == 2:
            a0, a1 = args
            return lambda X: impl(a0(X), a1(X))
        a0, a1, a2 = args
        return lambda X: impl(a0(X), a1(X), a2(X))


def parse_expression(
    text: str,
    variables: Sequence[str],
    params: Mapping[str, float] | None = None,
) -> Callable:
    """Compile one expression into a callable of an (..., n) state array.

    The result broadcasts: one state of shape (n,) yields a 0-d array, and
    an (..., n) batch of states yields an (...) batch of values. The
    compiled closure is called on the coordinate-first view X.T and its
    value transposed back.
    """
    fn = _compile(text, variables, params)

    def evaluate(X):
        X = np.asarray(X, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(X.T)
        return np.broadcast_to(np.asarray(out, dtype=float).T, X.shape[:-1]).copy()

    return evaluate


def _compile(text: str, variables: Sequence[str], params: Mapping[str, float] | None) -> Callable:
    """The parser's raw closure, with numpy's floating-point error state
    left to the caller.

    The closure takes the coordinate-first view X = x.T of a state array x
    of shape (..., n), reads variable j as X[j], and returns a value shaped
    like X[0] (a numpy float64 for one state), or a constant when the
    expression reads no variable."""
    return _Parser(text, variables, params or {}).parse()
