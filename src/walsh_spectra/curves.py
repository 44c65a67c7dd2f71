"""Tiny expression language for coefficient curves a_k(u), b_k(u), mu(u), sigma(u).

Process definitions carry their time-varying coefficients as closed-form
strings over the rescaled time variable ``u``, e.g.::

    -1.8*cos(1.5-cos(4*pi*u))

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ['^' exponent]          # right-associative
    exponent := ['-'] INTEGER ['^' exponent]
    atom     := NUMBER | 'u' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := 'cos' | 'sin' | 'exp' | 'abs'

Exponents are restricted to integer literals, which keeps evaluation total
except for division by zero.  Evaluation clamps ``u`` to [0, 1]: curves
are extended by their boundary values outside the unit interval.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_FUNCTIONS = ("cos", "sin", "exp", "abs")
# ASCII only: a non-ASCII digit or letter is an unexpected character
_NUMBER_RE = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?", re.ASCII)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class CurveSyntaxError(ValueError):
    """Malformed curve expression; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class UnknownIdentifierError(CurveSyntaxError):
    """Identifier other than u, pi, cos, sin, exp, abs."""


class CurveDomainError(ArithmeticError):
    """Division by zero, zero to a negative power, or a non-finite value."""


class CurveExpr:
    """Base class of curve AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(CurveExpr):
    value: float


@dataclass(frozen=True)
class Variable(CurveExpr):
    pass


@dataclass(frozen=True)
class Pi(CurveExpr):
    pass


@dataclass(frozen=True)
class Negate(CurveExpr):
    operand: CurveExpr


@dataclass(frozen=True)
class Binary(CurveExpr):
    op: str
    left: CurveExpr
    right: CurveExpr


@dataclass(frozen=True)
class Call(CurveExpr):
    func: str
    arg: CurveExpr


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789.":
            m = _NUMBER_RE.match(text, i)
            if not m:
                raise CurveSyntaxError(f"malformed number {ch!r}", i)
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise CurveSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise CurveSyntaxError(f"expected {op!r}", tok.offset)
        return self.advance()

    def parse_expr(self) -> CurveExpr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> CurveExpr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> CurveExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Negate(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> CurveExpr:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Binary("^", base, self.parse_exponent())
        return base

    def parse_exponent(self) -> CurveExpr:
        # integer literal, optionally negated, optionally itself raised (right-assoc)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Negate(self.parse_exponent())
        if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
            raise CurveSyntaxError("expected integer exponent", tok.offset)
        self.advance()
        node: CurveExpr = Literal(float(int(tok.text)))
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Binary("^", node, self.parse_exponent())
        return node

    def parse_atom(self) -> CurveExpr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "u":
                return Variable()
            if tok.text == "pi":
                return Pi()
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        what = tok.text or "end of input"
        raise CurveSyntaxError(f"expected a value, found {what!r}", tok.offset)


def parse(text: str) -> CurveExpr:
    """Parse a curve expression string into an AST.

    Raises `CurveSyntaxError` (with byte offset) on malformed input and
    `UnknownIdentifierError` for names outside the grammar.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise CurveSyntaxError(f"unexpected trailing input {tail.text!r}", tail.offset)
    return node


_CALLS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}


def _eval(node: CurveExpr, u):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Variable):
        return u
    if isinstance(node, Pi):
        return np.pi
    if isinstance(node, Negate):
        return -_eval(node.operand, u)
    if isinstance(node, Call):
        return _CALLS[node.func](_eval(node.arg, u))
    if isinstance(node, Binary):
        left = _eval(node.left, u)
        right = _eval(node.right, u)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(right == 0):
                raise CurveDomainError("division by zero")
            return left / right
        if node.op == "^":
            k = int(right)
            if k < 0 and np.any(left == 0):
                raise CurveDomainError("zero raised to a negative power")
            try:
                with np.errstate(over="raise"):
                    return left ** k
            except (OverflowError, FloatingPointError) as exc:
                raise CurveDomainError(f"overflow in power: {exc}") from exc
    raise TypeError(f"not a curve node: {node!r}")


def eval_curve(expr: CurveExpr, u):
    """Evaluate a curve at rescaled time u (scalar or array).

    u is clamped to [0, 1]; outside that interval the curve takes its
    boundary value.  Scalar input yields a float.  A value that is not
    finite (overflow, or a NaN u) raises `CurveDomainError` naming the
    first such u.
    """
    scalar = np.ndim(u) == 0
    # a scalar runs as a 1-element array: numpy rounds integer powers of 0-d
    # values differently, and u must give the same bits alone as in an array
    points = np.reshape(u, 1) if scalar else u
    # an overflow or NaN is reported once, by the isfinite check below
    with np.errstate(over="ignore", invalid="ignore"):
        if is_constant(expr):
            # one value, filled: + 0.0 turns a -0.0 into +0.0 as adding zeros to it does
            out = np.full(np.shape(points), np.float64(_eval(expr, None)) + 0.0)
        else:
            clamped = np.clip(points, 0.0, 1.0)
            out = np.asarray(_eval(expr, clamped), dtype=np.float64) + np.zeros_like(clamped, dtype=np.float64)
    if not np.isfinite(out).all():
        bad_u = np.ravel(u)[np.argmin(np.isfinite(out))]
        raise CurveDomainError(f"curve {serialize(expr)} is not finite at u={float(bad_u)!r}")
    return float(out[0]) if scalar else out


def serialize(expr: CurveExpr) -> str:
    """Canonical string form; parsing it back yields a structurally equal tree."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return "u"
    if isinstance(expr, Pi):
        return "pi"
    if isinstance(expr, Negate):
        return f"(-{serialize(expr.operand)})"
    if isinstance(expr, Call):
        return f"{expr.func}({serialize(expr.arg)})"
    if isinstance(expr, Binary):
        if expr.op == "^":
            return f"({serialize(expr.left)}^{_serialize_exponent(expr.right)})"
        return f"({serialize(expr.left)}{expr.op}{serialize(expr.right)})"
    raise TypeError(f"not a curve node: {expr!r}")


def _serialize_exponent(expr: CurveExpr) -> str:
    # exponents are integer literals (possibly negated / chained), no parens needed
    if isinstance(expr, Literal):
        return str(int(expr.value))
    if isinstance(expr, Negate):
        return f"-{_serialize_exponent(expr.operand)}"
    if isinstance(expr, Binary) and expr.op == "^":
        return f"{_serialize_exponent(expr.left)}^{_serialize_exponent(expr.right)}"
    raise TypeError(f"not an exponent node: {expr!r}")


def constant(value: float) -> CurveExpr:
    return Literal(float(value))


def is_constant(expr: CurveExpr) -> bool:
    """Does the curve not read u?  Decided from its tree, so ``0*u`` counts as varying."""
    children = (c for c in vars(expr).values() if isinstance(c, CurveExpr))
    return not isinstance(expr, Variable) and all(map(is_constant, children))


def is_constant_zero(expr: CurveExpr) -> bool:
    """Heuristic: does the curve vanish identically on [0, 1]?

    Checks 17 evenly spaced points; used only to warn about degenerate
    declared orders, never to change results.
    """
    u = np.linspace(0.0, 1.0, 17)
    try:
        vals = eval_curve(expr, u)
    except CurveDomainError:
        return False
    return bool(np.all(np.abs(vals) < 1e-15))
