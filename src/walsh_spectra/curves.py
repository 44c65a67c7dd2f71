"""Tiny expression language for coefficient curves a_k(u), b_k(u), mu(u), sigma(u).

Process definitions carry their time-varying coefficients as closed-form
strings over the rescaled time variable ``u``, e.g.::

    -1.8*cos(1.5-cos(4*pi*u))

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | atom ['^' exponent]     # right-associative
    exponent := '-' exponent | INTEGER ['^' exponent]
    atom     := NUMBER | 'u' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := 'cos' | 'sin' | 'exp' | 'abs'

A curve holds at most 256 tokens (numbers, names and operators): a longer
one raises `CurveSyntaxError` at the offset of the first token past the
cap, so parsing stays well inside Python's stack limit.  Exponents are restricted to
integer literals, which keeps evaluation total except for division by
zero.  Evaluation clamps ``u`` to [0, 1]: curves are extended by their
boundary values outside the unit interval.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

# a token after optional whitespace: numbers and names are ASCII, so a non-ASCII digit or letter is an
# unexpected character
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))?"
)
# the parser recurses up to twice per token (4 frames a pair of parentheses): the cap keeps it off the stack limit
_MAX_TOKENS = 256
# the functions a curve may call, then the operators that need no domain check
_CALLS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs,
          "+": operator.add, "-": operator.sub, "*": operator.mul}


class CurveSyntaxError(ValueError):
    """Malformed curve expression; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        self.message, self.offset = message, offset
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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of a curve, kind 'number', 'ident' or 'op', ending in an 'end' token."""
    tokens = []
    m = _TOKEN_RE.match(text)
    while m.lastgroup:
        if len(tokens) == _MAX_TOKENS:
            raise CurveSyntaxError(f"curve longer than {_MAX_TOKENS} tokens", m.start(m.lastgroup))
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        m = _TOKEN_RE.match(text, m.end())
    offset = m.end()
    if offset < len(text):
        # a digit always starts a number, so only a '.' can start a malformed one
        what = "malformed number" if text[offset] == "." else "unexpected character"
        raise CurveSyntaxError(f"{what} {text[offset]!r}", offset)
    return tokens + [("end", "", offset)]


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def take(self, kind: str, ops: str = "") -> str | None:
        """The next token's text, consumed, if it is of this kind (and one of ``ops``, if given); else None."""
        next_kind, text, _ = self.tokens[self.pos]
        if next_kind != kind or (ops and text not in ops):
            return None
        self.pos += 1
        return text

    def expect(self, op: str) -> None:
        if not self.take("op", op):
            raise CurveSyntaxError(f"expected {op!r}", self.tokens[self.pos][2])

    def expr(self) -> CurveExpr:
        node = self.term()
        while op := self.take("op", "+-"):
            node = Binary(op, node, self.term())
        return node

    def term(self) -> CurveExpr:
        node = self.factor()
        while op := self.take("op", "*/"):
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> CurveExpr:
        if self.take("op", "-"):
            return Negate(self.factor())
        base = self.atom()
        return Binary("^", base, self.exponent()) if self.take("op", "^") else base

    def exponent(self) -> CurveExpr:
        # an integer literal, optionally negated, optionally itself raised (right-associative)
        if self.take("op", "-"):
            return Negate(self.exponent())
        kind, text, offset = self.tokens[self.pos]
        if kind != "number" or not text.isdigit():
            raise CurveSyntaxError("expected integer exponent", offset)
        self.pos += 1
        node = Literal(float(text))  # correctly rounded, as float(int(text)) is, with no digit limit
        if node.value == np.inf:
            raise CurveSyntaxError("integer exponent past the float range", offset)
        return Binary("^", node, self.exponent()) if self.take("op", "^") else node

    def atom(self) -> CurveExpr:
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            return Literal(float(text))
        if kind == "ident":
            if text == "u":
                return Variable()
            if text == "pi":
                return Pi()
            if text not in _CALLS:
                raise UnknownIdentifierError(f"unknown identifier {text!r}", offset)
            self.expect("(")
            node = Call(text, self.expr())
        elif text == "(":
            node = self.expr()
        else:
            raise CurveSyntaxError(f"expected a value, found {text or 'end of input'!r}", offset)
        self.expect(")")
        return node


def parse(text: str) -> CurveExpr:
    """Parse a curve expression string into an AST.

    Raises `CurveSyntaxError` (with byte offset) on malformed input and
    `UnknownIdentifierError` for names outside the grammar.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, text, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise CurveSyntaxError(f"unexpected trailing input {text!r}", offset)
    return node


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
        return _CALLS[node.op](left, right)
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
        # repr(inf) is 'inf', not a curve; a number past the float range parses back as inf
        return "1e999" if expr.value == np.inf else repr(expr.value)
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
