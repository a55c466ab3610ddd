"""Expression literal syntax for the CLI and config files.

Grammar (documented for users; whitespace is free between tokens):

    expr      := ['-'] term (('+' | '-') term)*
    term      := factor ('*' factor)*
    factor    := number | irrational | xpower | logpower
    number    := INT | INT '/' INT | DECIMAL
    irrational:= 'sqrt(' INT ')' | 'phi' | 'pi' | 'e' | 'irr(' DECIMAL ')'
    xpower    := 'x' [ '^' exponent ]
    exponent  := INT | '(' INT ')' | '(' INT '/' INT ')'
    logpower  := 'log' [ '^' INT ]

A term holds at most one x-power, at most one log-power and at most one
irrational token; numeric factors multiply together.  Exponents must be
nonnegative rationals (derived expressions may carry negative powers, but
user input cannot).  Examples::

    x^(3/2)
    x^(1/2) + log^2
    sqrt(2)*x^2 - 1/3*x
    0.37*x
    irr(0.734051234)*x^(5/3)
"""

from __future__ import annotations

import re
from fractions import Fraction

from .hardy import Coefficient, HardyExpr, Term

__all__ = ["parse_expr", "format_expr", "ExprSyntaxError"]


class ExprSyntaxError(ValueError):
    """Malformed expression literal."""


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<sqrt>sqrt\(\s*\d+\s*\))
      | (?P<irr>irr\(\s*\d+(?:\.\d+)?\s*\))
      | (?P<log>log)
      | (?P<phi>phi)
      | (?P<euler>e)
      | (?P<x>x)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<op>[-+*^()/])
    )""",
    re.VERBOSE,
)

_PI = re.compile(r"\s*pi")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _PI.match(text, pos)
        if m:
            tokens.append(("irrat", "pi"))
            pos = m.end()
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character at position {pos}: {text[pos:]!r}")
        pos = m.end()
        kind = m.lastgroup
        value = m.group(kind).replace(" ", "")
        if kind == "sqrt":
            tokens.append(("irrat", value))
        elif kind == "irr":
            tokens.append(("irrat", value))
        elif kind in ("phi", "euler"):
            tokens.append(("irrat", "e" if kind == "euler" else "phi"))
        elif kind == "log":
            tokens.append(("log", value))
        elif kind == "x":
            tokens.append(("x", value))
        elif kind == "number":
            tokens.append(("number", value))
        else:
            tokens.append(("op", value))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}, found {value!r}")


def _parse_exponent(s: _Stream) -> Fraction:
    kind, value = s.peek()
    if kind == "number":
        s.next()
        if "." in value:
            raise ExprSyntaxError("exponents must be integers or (p/q)")
        return Fraction(int(value))
    if kind == "op" and value == "(":
        s.next()
        k2, v2 = s.next()
        sign = 1
        if k2 == "op" and v2 == "-":
            sign = -1
            k2, v2 = s.next()
        if k2 != "number" or "." in v2:
            raise ExprSyntaxError("exponent numerator must be an integer")
        num = sign * int(v2)
        k3, v3 = s.peek()
        if k3 == "op" and v3 == "/":
            s.next()
            k4, v4 = s.next()
            if k4 != "number" or "." in v4:
                raise ExprSyntaxError("exponent denominator must be an integer")
            frac = Fraction(num, int(v4))
        else:
            frac = Fraction(num)
        s.expect_op(")")
        return frac
    raise ExprSyntaxError("missing exponent after '^'")


def _parse_number(s: _Stream, first: str) -> Fraction:
    if "." in first:
        return Fraction(first)
    kind, value = s.peek()
    if kind == "op" and value == "/":
        s.next()
        k2, v2 = s.next()
        if k2 != "number" or "." in v2:
            raise ExprSyntaxError("denominator must be an integer")
        return Fraction(int(first), int(v2))
    return Fraction(int(first))


def _parse_term(s: _Stream) -> Term:
    rational = Fraction(1)
    symbol = None
    theta = None
    logpow = None
    while True:
        kind, value = s.next()
        if kind == "number":
            rational *= _parse_number(s, value)
        elif kind == "irrat":
            if symbol is not None:
                raise ExprSyntaxError("at most one irrational token per term")
            symbol = value
        elif kind == "x":
            if theta is not None:
                raise ExprSyntaxError("at most one x-power per term")
            k2, v2 = s.peek()
            if k2 == "op" and v2 == "^":
                s.next()
                theta = _parse_exponent(s)
            else:
                theta = Fraction(1)
            if theta < 0:
                raise ExprSyntaxError("negative exponents are not allowed in literals")
        elif kind == "log":
            if logpow is not None:
                raise ExprSyntaxError("at most one log-power per term")
            k2, v2 = s.peek()
            if k2 == "op" and v2 == "^":
                s.next()
                e = _parse_exponent(s)
                if e.denominator != 1 or e < 0:
                    raise ExprSyntaxError("log exponent must be a nonnegative integer")
                logpow = int(e)
            else:
                logpow = 1
        else:
            raise ExprSyntaxError(f"unexpected token {value!r} in term")
        k2, v2 = s.peek()
        if k2 == "op" and v2 == "*":
            s.next()
            continue
        break
    if symbol is None:
        coeff = Coefficient.rational(rational)
    else:
        coeff = Coefficient.irrational(symbol, rational)
    return Term(coeff, theta if theta is not None else Fraction(0), logpow or 0)


def parse_expr(text: str) -> HardyExpr:
    """Parse an expression literal; raises ExprSyntaxError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression")
    s = _Stream(_tokenize(text))
    terms = []
    sign = 1
    kind, value = s.peek()
    if kind == "op" and value in "+-":
        s.next()
        sign = -1 if value == "-" else 1
    while True:
        t = _parse_term(s)
        terms.append(Term(t.coeff.scale(sign), t.theta, t.logpow))
        kind, value = s.peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            s.next()
            sign = -1 if value == "-" else 1
            continue
        raise ExprSyntaxError(f"unexpected token {value!r} after term")
    return HardyExpr.build(terms)


def _format_rational(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _format_piece(mult: Fraction, symbol: str, theta: Fraction, logpow: int) -> tuple[int, str]:
    """Returns (sign, body-without-sign) for one basis piece of a term."""
    sign = 1 if mult >= 0 else -1
    mult = abs(mult)
    factors = []
    if symbol:
        if mult != 1:
            factors.append(_format_rational(mult))
        factors.append(symbol)
    elif mult != 1 or (theta == 0 and logpow == 0):
        factors.append(_format_rational(mult))
    if theta != 0:
        if theta == 1:
            factors.append("x")
        elif theta.denominator == 1:
            factors.append(f"x^{theta.numerator}")
        else:
            factors.append(f"x^({theta.numerator}/{theta.denominator})")
    if logpow == 1:
        factors.append("log")
    elif logpow > 1:
        factors.append(f"log^{logpow}")
    return sign, "*".join(factors)


def format_expr(expr: HardyExpr) -> str:
    """Canonical printing; parse(format(e)) reconstructs e exactly."""
    if expr.is_zero:
        return "0"
    pieces = []
    for t in expr.terms:
        for symbol, mult in t.coeff.parts:
            pieces.append(_format_piece(mult, symbol, t.theta, t.logpow))
    out = []
    for i, (sign, body) in enumerate(pieces):
        if i == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(out)
