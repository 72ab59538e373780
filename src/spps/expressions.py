"""Tiny arithmetic expression language used in problem files.

The grammar covers complex literals (``3``, ``2.5e-3``, ``1i``), the free
variable ``x``, the operators ``+ - * / ^`` (with ``^`` right-associative
and binding tighter than unary minus), parentheses, and single-argument
calls of a fixed function set.  Everything evaluates in complex
arithmetic; ``sqrt`` and ``log`` take the principal branch, so
``sqrt(-4)`` is ``2i`` rather than a domain error.

The exponent of ``^`` must be a constant with zero imaginary part; this
keeps powers single-valued and is checked at parse time.

Airy functions (``airyai``, ``airybi`` and their derivatives ``airyaip``,
``airybip``) are included so that particular solutions of equations with a
linear potential can be written down in a problem file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import (
    EvaluationError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)

__all__ = [
    "Expression",
    "Bin",
    "parse",
    "evaluate",
    "const_value",
    "to_string",
]


# binding strength, shared by the parser and the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


class Expression:
    """Base class for AST nodes (all nodes are frozen dataclasses)."""

    __slots__ = ()

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class _Num(Expression):
    value: complex


@dataclass(frozen=True)
class _Var(Expression):
    pass


@dataclass(frozen=True)
class _Neg(Expression):
    operand: Expression


@dataclass(frozen=True)
class Bin(Expression):
    op: str  # one of + - * /
    left: Expression
    right: Expression


@dataclass(frozen=True)
class _Pow(Expression):
    base: Expression
    exponent: float


@dataclass(frozen=True)
class _Call(Expression):
    name: str
    arg: Expression


def _airy(index):
    def f(z):
        return scipy.special.airy(z)[index]

    return f


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "log": np.log,
    "airyai": _airy(0),
    "airyaip": _airy(1),
    "airybi": _airy(2),
    "airybip": _airy(3),
}


# ---------------------------------------------------------------------------
# Tokenizer
#
# ``\d`` matches exactly the decimal digits that ``float`` reads; other
# numeric characters such as ``²`` fall to ``ident`` and fail as unknown.

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^])"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"
)


def _tokenize(text):
    """(kind, text, offset) tuples, closed by an ``end`` token."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, tok, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {tok!r}", pos)
        if kind != "space":
            tokens.append((kind, tok, pos))
    tokens.append(("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Precedence-climbing parser over _PREC
#
#   expr  := unary (BINOP unary)*           -- + - * /, left associative;
#                                           -- a higher _PREC binds tighter
#   unary := '-' unary | atom ('^' unary)?  -- '^' right associative
#   atom  := NUMBER | 'i' | 'x' | IDENT '(' expr ')' | '(' expr ')'


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok_kind, text, pos = self.peek()
        if tok_kind != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {text!r}", pos)
        return self.advance()

    def parse_expr(self, min_prec=_PREC["+"]):
        node = self.parse_unary()
        # a unary never stops in front of '^', so only + - * / reach this loop
        while self.peek()[0] == "op" and _PREC[self.peek()[1]] >= min_prec:
            op = self.advance()[1]
            node = Bin(op, node, self.parse_expr(_PREC[op] + 1))
        return node

    def parse_unary(self):
        if self.peek()[1] == "-":
            self.advance()
            return _Neg(self.parse_unary())
        base = self.parse_atom()
        if self.peek()[1] != "^":
            return base
        pos = self.advance()[2]
        exponent = self.parse_unary()
        try:
            value = const_value(exponent)
        except EvaluationError:
            raise ExpressionSyntaxError("exponent must be a constant", pos) from None
        if value.imag != 0.0:
            raise ExpressionSyntaxError("exponent must be real", pos)
        return _Pow(base, float(value.real))

    def parse_atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            if text.endswith("i"):
                return _Num(float(text[:-1]) * 1j)
            return _Num(complex(float(text)))
        if kind == "lparen":
            node = self.parse_expr()
            self.expect("rparen")
            return node
        if kind == "ident":
            if text == "x":
                return _Var()
            if text == "i":
                return _Num(1j)
            if text in _FUNCTIONS:
                self.expect("lparen")
                arg = self.parse_expr()
                self.expect("rparen")
                return _Call(text, arg)
            raise UnknownIdentifierError(text, pos)
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos)


def parse(text):
    """Parse ``text`` into an :class:`Expression` tree."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, rest, pos = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {rest!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(expr, x):
    """Evaluate ``expr`` at ``x`` (scalar or ndarray) in complex arithmetic.

    Returns a complex scalar for scalar ``x`` and a complex128 array for
    array ``x``.  Division by zero raises :class:`EvaluationError` naming
    the offending subexpression and abscissa.
    """
    xv = np.asarray(x, dtype=np.complex128)
    result = _eval(expr, xv)
    result = np.broadcast_to(np.asarray(result, dtype=np.complex128), xv.shape)
    if np.isscalar(x) or np.ndim(x) == 0:
        return complex(result[()])
    return np.array(result)


def _eval(expr, xv):
    if isinstance(expr, _Num):
        return np.complex128(expr.value)
    if isinstance(expr, _Var):
        return xv
    if isinstance(expr, _Neg):
        return -_eval(expr.operand, xv)
    if isinstance(expr, Bin):
        left = _eval(expr.left, xv)
        right = _eval(expr.right, xv)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        bad = np.asarray(right) == 0
        if np.any(bad):
            raise EvaluationError(
                "division by zero", node=to_string(expr), x=_first_offender(xv, bad)
            )
        return left / right
    if isinstance(expr, _Pow):
        base = _eval(expr.base, xv)
        if float(expr.exponent).is_integer():
            exponent = int(expr.exponent)
            if exponent < 0:
                bad = np.asarray(base) == 0
                if np.any(bad):
                    raise EvaluationError(
                        "zero raised to negative power",
                        node=to_string(expr),
                        x=_first_offender(xv, bad),
                    )
            return base**exponent
        return base ** complex(expr.exponent)
    if isinstance(expr, _Call):
        return _FUNCTIONS[expr.name](_eval(expr.arg, xv))
    raise TypeError(f"not an expression node: {expr!r}")


def _first_offender(xv, bad):
    mask = np.broadcast_to(bad, np.shape(xv)) if np.shape(xv) else bad
    if np.shape(xv):
        idx = np.argmax(mask)
        return complex(xv.flat[idx])
    return complex(xv)


def _is_constant(expr):
    """True when the tree does not reference the variable ``x``."""
    if not isinstance(expr, Expression):
        raise TypeError(f"not an expression node: {expr!r}")
    return not isinstance(expr, _Var) and all(
        _is_constant(child) for child in vars(expr).values() if isinstance(child, Expression)
    )


def const_value(expr):
    """Evaluate a constant expression; raises if it references ``x``."""
    if not _is_constant(expr):
        raise EvaluationError("expression is not constant", node=to_string(expr))
    return complex(evaluate(expr, 0.0))


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through parse)


def to_string(expr):
    return _fmt(expr, 0)


def _fmt(expr, parent_prec):
    if isinstance(expr, _Num):
        text = _fmt_number(expr.value)
        prec = _PREC["atom"] if not text.startswith("-") else _PREC["neg"]
        return _paren(text, prec, parent_prec)
    if isinstance(expr, _Var):
        return "x"
    if isinstance(expr, _Neg):
        inner = _fmt(expr.operand, _PREC["neg"])
        return _paren(f"-{inner}", _PREC["neg"], parent_prec)
    if isinstance(expr, Bin):
        prec = _PREC[expr.op]
        left = _fmt(expr.left, prec)
        # left-associative: right operand needs strictly higher precedence
        right = _fmt(expr.right, prec + 1)
        return _paren(f"{left} {expr.op} {right}", prec, parent_prec)
    if isinstance(expr, _Pow):
        base = _fmt(expr.base, _PREC["^"] + 1)
        exponent = f"{expr.exponent:.17g}"
        if exponent.startswith("-"):
            exponent = f"({exponent})"
        return _paren(f"{base}^{exponent}", _PREC["^"], parent_prec)
    if isinstance(expr, _Call):
        return f"{expr.name}({_fmt(expr.arg, 0)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _fmt_number(z):
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    if z.real == 0.0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real:.17g} {sign} {abs(z.imag):.17g}i)"


def _paren(text, prec, parent_prec):
    if prec < parent_prec:
        return f"({text})"
    return text
