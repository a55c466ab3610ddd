"""Symbolic engine for the term class  c * x^theta * log^k x.

Expressions are finite sums of such terms with exact rational exponents and
declared coefficient rationality.  Everything downstream (growth
classification, the equidistribution decision procedure, derivative-driven
bound estimates) relies on this class being closed under differentiation and
on rationality being *declared*, never sniffed from floating-point bits:
whether a polynomial coefficient is irrational is undecidable from a double,
and two of the decision procedures hinge on exactly that distinction.

Coefficients are finite Q-linear combinations of basis symbols
(1, sqrt(n), phi, pi, e, irr(<digits>)), so sums and rational rescalings of
coefficients stay exact and rationality queries stay decidable.

Values come from evaluate_array, in double or double-double; floors come from
floor_array, which evaluates in double with an error band and takes
double-double only where the band reaches an integer.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .ddarith import (BOUNDARY_TOL, DD, dd_ipow, dd_log, dd_pow_frac, dd_sqrt,
                      floor_with_boundary)

# Key for the rational unit in a coefficient's basis expansion.
RATIONAL_UNIT = ""

# Largest phase magnitude a compensated evaluation admits.  The measured
# evaluation error is 5.0e-11 at 2^70 for pi*x^3 (the other term classes
# within 2x of it), but 4.8e-9 at 2^76, already above BOUNDARY_TOL.
COMPENSATED_LIMIT = float(2**70)

# Points per chunk of every chunked evaluation and scan (see _map_chunks):
# the one chunk size, fastest at 1 and 2 threads of those measured.
DEFAULT_CHUNK = 16384

# Error band of a double evaluation (see floor_array).  Per term, the double
# errs by a few units of 2^-53 of |piece| (the coefficient, pow, log^k, two
# products and the sum; FLOOR_ULPS budgets them) plus the exact cost of
# rounding theta to a double, |fl(theta) - theta| ln x.  The band is
# FLOOR_HEADROOM times that sum, so a pow or log a few ulps worse than the
# measured ones still cannot flip a floor.  Measured over the first 10^6
# primes: 1.2 units of 2^-53 of sum |piece| for x^(3/2), 11.8 for x^(5/3)
# and 21.2 for x^(7/3), nearly all of the last two from theta.
FLOOR_ULPS = 8.0
FLOOR_HEADROOM = 8.0
# dd kernels split their operands by 2^27 + 1, which overflows near 2^996;
# points whose dd intermediates may pass _DD_SAFE go to dd whole, so that
# floor_array raises exactly where evaluate_array does.
_DD_SAFE = 2.0**900


def _check_magnitude(expr: HardyExpr, x_max: float, q: int = 1) -> None:
    """Refuse a phase q * expr whose cheap upper estimate on (1, x_max]
    exceeds COMPENSATED_LIMIT; every compensated evaluation checks it."""
    x_max = max(x_max, 1.0)  # a range below 1 is the caller's to refuse
    lx = max(math.log(x_max), 1.0)
    try:
        total = abs(q) * sum(abs(t.coeff.value) * x_max ** float(t.theta)
                             * lx ** t.logpow for t in expr.terms)
    except OverflowError:  # the estimate itself passes the largest float
        total = math.inf
    if total > COMPENSATED_LIMIT:
        raise OverflowError(
            "phase magnitude exceeds the compensated range "
            f"(2^{math.log2(COMPENSATED_LIMIT):g})"
        )


class ExprDomainError(ValueError):
    """Raised when an expression is evaluated outside its domain."""


def _square_free_split(n: int):
    """n = s^2 * f with f square-free; returns (s, f). Trial division."""
    s, f = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1
    f *= m
    return s, f


def _symbol_dd(symbol: str) -> DD:
    if symbol.startswith("sqrt(") and symbol.endswith(")"):
        return dd_sqrt(float(int(symbol[5:-1])))
    if symbol == "phi":
        return (dd_sqrt(5.0) + 1.0) * 0.5
    if symbol == "pi":
        from .ddarith import PI

        return PI
    if symbol == "e":
        from .ddarith import E

        return E
    if symbol.startswith("irr(") and symbol.endswith(")"):
        return DD.from_decimal(symbol[4:-1])
    raise ValueError(f"unknown irrational symbol {symbol!r}")


@dataclass(frozen=True)
class Coefficient:
    """Q-linear combination of basis symbols; () is the zero coefficient.

    parts is a sorted tuple of (symbol, Fraction) with nonzero fractions;
    the empty-string symbol is the rational unit.
    """

    parts: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def rational(value) -> "Coefficient":
        fr = Fraction(value)
        if fr == 0:
            return Coefficient(())
        return Coefficient(((RATIONAL_UNIT, fr),))

    @staticmethod
    def irrational(symbol: str, mult=1) -> "Coefficient":
        fr = Fraction(mult)
        if fr == 0:
            return Coefficient(())
        if symbol.startswith("sqrt(") and symbol.endswith(")"):
            n = int(symbol[5:-1])
            if n <= 0:
                raise ValueError("sqrt argument must be positive")
            s, f = _square_free_split(n)
            if f == 1:
                return Coefficient.rational(fr * s)
            symbol = f"sqrt({f})"
            fr = fr * s
        _symbol_dd(symbol)  # validates the symbol
        return Coefficient(((symbol, fr),))

    @staticmethod
    def from_parts(parts: dict) -> "Coefficient":
        items = tuple(sorted((s, f) for s, f in parts.items() if f != 0))
        return Coefficient(items)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def is_rational(self) -> bool:
        return all(s == RATIONAL_UNIT for s, _ in self.parts)

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("coefficient is not rational")
        return self.parts[0][1] if self.parts else Fraction(0)

    @property
    def value(self) -> float:
        return float(self.dd())

    def dd(self) -> DD:
        total = DD(0.0)
        for sym, fr in self.parts:
            if sym == RATIONAL_UNIT:
                total = total + DD.from_fraction(fr)
            else:
                total = total + _symbol_dd(sym) * DD.from_fraction(fr)
        return total

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        acc = dict(self.parts)
        for s, f in other.parts:
            acc[s] = acc.get(s, Fraction(0)) + f
        return Coefficient.from_parts(acc)

    def __neg__(self) -> "Coefficient":
        return Coefficient(tuple((s, -f) for s, f in self.parts))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def scale(self, q) -> "Coefficient":
        fr = Fraction(q)
        if fr == 0:
            return Coefficient(())
        return Coefficient(tuple((s, f * fr) for s, f in self.parts))

    def mul(self, other: "Coefficient") -> "Coefficient":
        """Product, defined only when one factor is rational (the basis has
        no multiplication table for symbol*symbol)."""
        if self.is_rational:
            return other.scale(self.rational_value)
        if other.is_rational:
            return self.scale(other.rational_value)
        raise ValueError("product of two irrational coefficients is undefined")


ZERO_COEFF = Coefficient(())
ONE_COEFF = Coefficient.rational(1)


@dataclass(frozen=True)
class Term:
    coeff: Coefficient
    theta: Fraction
    logpow: int


@dataclass(frozen=True)
class HardyExpr:
    """Normalized sum of terms, sorted by growth order (descending)."""

    terms: tuple[Term, ...]

    @staticmethod
    def build(terms: Iterable[Term]) -> "HardyExpr":
        merged: dict[tuple[Fraction, int], Coefficient] = {}
        for t in terms:
            if t.logpow < 0:
                raise ValueError("log exponent must be >= 0")
            key = (Fraction(t.theta), int(t.logpow))
            merged[key] = merged.get(key, ZERO_COEFF) + t.coeff
        kept = [
            Term(c, th, lp)
            for (th, lp), c in merged.items()
            if not c.is_zero
        ]
        kept.sort(key=lambda t: (t.theta, t.logpow), reverse=True)
        return HardyExpr(tuple(kept))

    @staticmethod
    def zero() -> "HardyExpr":
        return HardyExpr(())

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading(self) -> Term:
        if self.is_zero:
            raise ValueError("zero expression has no leading term")
        return self.terms[0]

    @property
    def has_log(self) -> bool:
        return any(t.logpow > 0 for t in self.terms)

    def __add__(self, other: "HardyExpr") -> "HardyExpr":
        return HardyExpr.build(self.terms + other.terms)

    def __neg__(self) -> "HardyExpr":
        return HardyExpr(tuple(Term(-t.coeff, t.theta, t.logpow) for t in self.terms))

    def __sub__(self, other: "HardyExpr") -> "HardyExpr":
        return self + (-other)

    def scale(self, q) -> "HardyExpr":
        fr = Fraction(q)
        if fr == 0:
            return HardyExpr.zero()
        return HardyExpr(
            tuple(Term(t.coeff.scale(fr), t.theta, t.logpow) for t in self.terms)
        )

    def __mul__(self, other: "HardyExpr") -> "HardyExpr":
        """Term-by-term product; requires coefficient products to stay in
        the declared basis (one factor rational per pair)."""
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(Term(a.coeff.mul(b.coeff), a.theta + b.theta, a.logpow + b.logpow))
        return HardyExpr.build(out)

    def poly_and_residual(self) -> tuple["HardyExpr", "HardyExpr"]:
        """Split into the polynomial part (integer theta >= 0, no log) and
        the rest."""
        poly, rest = [], []
        for t in self.terms:
            if t.logpow == 0 and t.theta.denominator == 1 and t.theta >= 0:
                poly.append(t)
            else:
                rest.append(t)
        return HardyExpr(tuple(poly)), HardyExpr(tuple(rest))

    def __str__(self):
        from .literals import format_expr

        return format_expr(self)


# -- evaluation ----------------------------------------------------------------


def _check_domain(exprs: Sequence[HardyExpr], xs: np.ndarray) -> bool:
    """Refuse points outside the domain (> 1 with log factors, >= 1
    without); returns whether any expression carries a log factor."""
    has_log = any(e.has_log for e in exprs)
    lo = 1.0 if has_log else 1.0 - 1e-12
    if xs.size and float(np.min(xs)) <= lo:
        raise ExprDomainError("evaluation points must be > 1 (log domain)")
    return has_log


def _standard_terms(expr: HardyExpr, xs, logs):
    """(term, its value c x^theta log^k x in double) for each term of expr;
    logs is log(xs), read only by terms with a log factor."""
    for t in expr.terms:
        piece = t.coeff.value * xs ** float(t.theta)
        if t.logpow:
            piece = piece * logs ** t.logpow
        yield t, piece


def evaluate_array(expr: HardyExpr | Sequence[HardyExpr], xs,
                   precision: str = "compensated"):
    """Evaluate on an array of exact-double points.

    Returns a float64 array in ``standard`` mode and a DD in ``compensated``
    mode (the dd result keeps the fractional part of large values intact).
    Points must be > 1 when the expression carries log factors, >= 1
    otherwise.  For a sequence of expressions the result is a list, one
    value per expression, and the compensated terms of all of them share
    one basis: log x once, and x^(1/q) once per denominator q, from which
    x^(p/q) = x^k (x^(1/q))^r with p = k q + r.
    """
    exprs = (expr,) if isinstance(expr, HardyExpr) else tuple(expr)
    xs = np.asarray(xs, dtype=np.float64)
    has_log = _check_domain(exprs, xs)
    if precision == "standard":
        with np.errstate(over="ignore", invalid="ignore"):
            logs = np.log(xs) if has_log else None
            out = []
            for e in exprs:
                total = np.zeros_like(xs)
                for _, piece in _standard_terms(e, xs, logs):
                    total += piece
                out.append(total)
        finite = all(np.all(np.isfinite(v)) for v in out)
    elif precision == "compensated":
        logs = dd_log(xs) if has_log else None
        roots = {q: dd_pow_frac(xs, Fraction(1, q))
                 for q in {t.theta.denominator for e in exprs for t in e.terms}
                 if q > 1}
        out = []
        for e in exprs:
            total = None
            for t in e.terms:
                piece = dd_pow_frac(xs, t.theta, roots.get(t.theta.denominator))
                if t.logpow:
                    piece = piece * dd_ipow(logs, t.logpow)
                if t.coeff != ONE_COEFF:  # piece * 1 and 0 + piece are piece
                    piece = piece * t.coeff.dd()
                total = piece if total is None else total + piece
            out.append(DD(np.zeros_like(xs)) if total is None else total)
        finite = all(np.all(np.isfinite(v.hi)) for v in out)
    else:
        raise ValueError("precision must be 'standard' or 'compensated'")
    if not finite:
        raise OverflowError("non-finite intermediate value")
    return out[0] if isinstance(expr, HardyExpr) else out


def _map_chunks(work, ns, *, threads: int = 1, first: int = 0) -> list:
    """work(chunk, start) for each chunk of ns, in order; start is the
    chunk's position in ns.

    ns is cut before every position i at which the absolute index first + i
    is a multiple of DEFAULT_CHUNK (read at the call); an empty ns is one
    empty chunk.  The chunks depend on first only: when threads > 1 and
    there is more than one chunk, a pool of at most threads, chunks and CPUs
    workers runs them, and the results come back in the same order either
    way.
    """
    ns = np.asarray(ns)
    cuts = range(DEFAULT_CHUNK - first % DEFAULT_CHUNK, len(ns), DEFAULT_CHUNK)
    chunks, starts = np.split(ns, cuts), [0, *cuts]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, chunks, starts))
    return [work(c, s) for c, s in zip(chunks, starts)]


def _evaluate_chunks(expr: HardyExpr | Sequence[HardyExpr], ns, reduce, *,
                     threads: int = 1, first: int = 0) -> list:
    """reduce(compensated expr values, chunk) for each chunk of ns, in order
    (the chunks and threads of _map_chunks).  For a sequence of expressions
    reduce sees the list of their values on one shared basis (see
    evaluate_array).
    """
    def work(chunk, _):
        return reduce(evaluate_array(expr, chunk.astype(np.float64),
                                     "compensated"), chunk)

    return _map_chunks(work, ns, threads=threads, first=first)


# -- floors ---------------------------------------------------------------------


def _band_weight(t: Term, logs):
    """Error of a double piece of t per unit of |piece|, before the
    headroom: FLOOR_ULPS units of 2^-53, plus |fl(theta) - theta| log x, by
    which x ** fl(theta) misses x^theta."""
    err = abs(float(Fraction(float(t.theta)) - t.theta))
    return FLOOR_ULPS * 2.0**-53 + (err * logs if err else 0.0)


def _decidable(exprs: Sequence[HardyExpr], xs: np.ndarray) -> bool:
    """Whether a double pre-pass can settle floors on xs: a bound on the
    band over [min xs, max xs] (every term, theta <= 0 too) stays below 1/4
    and no dd intermediate can reach _DD_SAFE.  Such a band also keeps every
    value below 2^45, well inside the 2^52 from which a double holds no
    fraction."""
    lo, hi = float(np.min(xs)), float(np.max(xs))
    lx = max(abs(math.log(lo)), abs(math.log(hi)))
    band = 0.0
    try:
        for e in exprs:
            for t in e.terms:
                th = float(t.theta)
                # x^(|k|) and the root power are the largest dd intermediates
                if hi ** (abs(th) + 1.0) * max(lx, 1.0) ** t.logpow > _DD_SAFE:
                    return False
                size = abs(t.coeff.value) * max(lo ** th, hi ** th) * lx ** t.logpow
                band += size * _band_weight(t, lx)
    except OverflowError:
        return False
    return FLOOR_HEADROOM * band + 4.0 * BOUNDARY_TOL < 0.25


def _prepass(exprs: Sequence[HardyExpr], xs: np.ndarray) -> list:
    """[(double value, error band)] for each expr at xs: the band bounds
    |double - dd value| with FLOOR_HEADROOM to spare, plus 4 BOUNDARY_TOL so
    that no point outside it is a dd boundary event."""
    needs_log = any(t.logpow or float(t.theta) != t.theta
                    for e in exprs for t in e.terms)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        logs = np.log(xs) if needs_log else None
        for e in exprs:
            total, err = np.zeros_like(xs), np.zeros_like(xs)
            for t, piece in _standard_terms(e, xs, logs):
                total += piece
                err += np.abs(piece) * _band_weight(t, logs)
            out.append((total, FLOOR_HEADROOM * err + 4.0 * BOUNDARY_TOL))
    return out


def floor_array(exprs: Sequence[HardyExpr], xs) -> list:
    """[(int64 floors, boundary events)] of each expr at exact-double xs, bit
    for bit [floor_with_boundary(v) for v in evaluate_array(exprs, xs,
    "compensated")], with the same exceptions.

    Filtered arithmetic, as in Ziv's rounding test (ACM TOMS 17, 1991) and
    Shewchuk's adaptive predicates (DCG 18, 1997): a double evaluation with
    an error band (_prepass) settles every point whose band clears the
    nearest integer; its floor is the double's, and it is no boundary
    event.  The other points (NaN and inf included) are evaluated on one
    shared dd basis and floored by floor_with_boundary.  A set of points on
    which the band may reach 1/4 (_decidable) goes to dd whole, with no
    pre-pass.
    """
    exprs = tuple(exprs)
    xs = np.asarray(xs, dtype=np.float64)
    _check_domain(exprs, xs)
    if not (xs.size and _decidable(exprs, xs)):
        return [floor_with_boundary(v, BOUNDARY_TOL)
                for v in evaluate_array(exprs, xs, "compensated")]
    floors, slow = [], np.zeros(xs.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        for v, band in _prepass(exprs, xs):
            fl = np.floor(v)
            frac = v - fl  # exact below 2^52, 0 from there on, NaN at inf
            fast = (band < frac) & (frac < 1.0 - band)
            slow |= ~fast
            floors.append(np.where(fast, fl, 0.0).astype(np.int64))
    events = [0] * len(exprs)
    if slow.any():
        idx = np.flatnonzero(slow)
        for i, v in enumerate(evaluate_array(exprs, xs[idx], "compensated")):
            floors[i][idx], events[i] = floor_with_boundary(v, BOUNDARY_TOL)
    return list(zip(floors, events))


def evaluate(expr: HardyExpr, x: float) -> float:
    """Scalar evaluation in double precision; x > 1.  For a compensated
    value, whose fractional part is good to < 1e-9 absolute for |values| up
    to COMPENSATED_LIMIT = 2^70, call evaluate_array(expr, [x],
    "compensated")."""
    if not (x > 1.0):
        raise ExprDomainError("x must be > 1")
    if not math.isfinite(x):
        raise ExprDomainError("x must be finite")
    return float(evaluate_array(expr, np.asarray([x]), "standard")[0])


def differentiate(expr: HardyExpr) -> HardyExpr:
    """d/dx [c x^t log^k] = c*t x^(t-1) log^k + c*k x^(t-1) log^(k-1)."""
    out = []
    for t in expr.terms:
        if t.theta != 0:
            out.append(Term(t.coeff.scale(t.theta), t.theta - 1, t.logpow))
        if t.logpow > 0:
            out.append(Term(t.coeff.scale(t.logpow), t.theta - 1, t.logpow - 1))
    return HardyExpr.build(out)


def nth_derivative(expr: HardyExpr, n: int) -> HardyExpr:
    for _ in range(n):
        expr = differentiate(expr)
    return expr


# -- growth classification ------------------------------------------------------


@dataclass(frozen=True)
class GrowthType:
    """One of: constant limit, pure log power, strictly-between window
    x^l << f << x^(l+1), or an exact monomial."""

    kind: str  # "constant" | "log-power" | "type-l-plus" | "monomial"
    l: int | None = None
    logpow: int = 0
    degree: int | None = None
    leading: Coefficient | None = None
    limit: float | None = None


def classify_growth(expr: HardyExpr) -> GrowthType:
    if expr.is_zero:
        raise ValueError("cannot classify the zero expression")
    lead = expr.leading
    th, lp = lead.theta, lead.logpow
    if th < 0:
        return GrowthType(kind="constant", limit=0.0)
    if th == 0:
        if lp == 0:
            return GrowthType(kind="constant", limit=lead.coeff.value)
        return GrowthType(kind="log-power", logpow=lp)
    if th.denominator == 1 and lp == 0:
        return GrowthType(kind="monomial", degree=int(th), leading=lead.coeff)
    return GrowthType(kind="type-l-plus", l=int(math.floor(th)), logpow=lp)


def boshernitzan_condition(expr: HardyExpr) -> bool:
    """Decide whether (f - P)/log x diverges for every rational polynomial P.

    Split f = poly + g.  Any irrational non-constant polynomial coefficient
    settles it; otherwise the divergence is governed by the residual's
    leading term (x^theta with theta > 0 beats log; log^k needs k >= 2; a
    plain log or anything smaller fails).
    """
    if expr.is_zero:
        return False
    poly, g = expr.poly_and_residual()
    for t in poly.terms:
        if t.theta >= 1 and not t.coeff.is_rational:
            return True
    if g.is_zero:
        return False
    lead = g.leading
    if lead.theta > 0:
        return True
    return lead.theta == 0 and lead.logpow >= 2


# -- differential inequality verification ---------------------------------------

# Multiplicative slack applied to both ends of each asymptotic bound.
WINDOW_LO, WINDOW_HI = 1.0 / 64.0, 64.0
# Exponent slack of the power-law envelope |f^(j)| ~ x^(beta - j).
ENVELOPE_EPS = 0.1


@dataclass(frozen=True)
class RatioRow:
    eq: str
    x: float
    j: int
    value: float | None
    lower: float | None
    upper: float | None
    ok: bool | None
    note: str = ""


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple[RatioRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows if r.ok is not None)

    @property
    def flagged(self) -> tuple[RatioRow, ...]:
        return tuple(r for r in self.rows if r.ok is None)


def _ratio_row(eq, x, j, value, lower, upper) -> RatioRow:
    ok = True
    if lower is not None and value < WINDOW_LO * lower:
        ok = False
    if upper is not None and value > WINDOW_HI * upper:
        ok = False
    return RatioRow(eq, x, j, value, lower, upper, ok)


def verify_differential_inequalities(
    expr: HardyExpr,
    x_samples: Sequence[float],
    j_max: int = 2,
) -> InequalityReport:
    """Evaluate the derivative-ratio inequalities appropriate to the
    expression's growth class at each sample and report whether each ratio
    sits inside its constant window [WINDOW_LO, WINDOW_HI] times the bound.

    Sublinear window (and log-power) expressions get the x f'/f bounds and
    the shifted j-th ratio bounds; expressions in a higher window get the
    order-one shifted ratio and the power-law envelope
    x^(beta - j -+ ENVELOPE_EPS) for |f^(j)|.  Samples where a derivative
    vanishes are flagged rather than fatal.
    """
    if expr.is_zero:
        raise ValueError("zero expression")
    xs = [float(x) for x in x_samples]
    if any(x <= math.e for x in xs):
        raise ValueError("samples must exceed e")
    if sorted(xs) != xs:
        raise ValueError("samples must be increasing")

    g = classify_growth(expr)
    sublinear = g.kind == "log-power" or (g.kind == "type-l-plus" and g.l == 0)
    upper_window = g.kind == "type-l-plus" and (g.l or 0) >= 1
    beta = float(expr.leading.theta)  # lim log|f| / log x

    derivs = [expr]
    for _ in range(j_max + 1):
        derivs.append(differentiate(derivs[-1]))

    def val(j, x):
        d = derivs[j]
        if d.is_zero:
            return 0.0
        return evaluate(d, x)

    rows: list[RatioRow] = []
    for x in xs:
        lg = math.log(x)
        for j in range(0, j_max + 1):
            fj = val(j, x)
            fj1 = val(j + 1, x)
            if fj == 0.0:
                rows.append(RatioRow("e0", x, j, None, None, None, None, "zero denominator"))
                continue
            base = x * fj1 / fj
            rows.append(_ratio_row("e0", x, j, abs(base), 1.0 / lg**2, None))
            if sublinear and j >= 1:
                rows.append(_ratio_row("e3", x, j, abs(base + j), 1.0 / lg**2, 1.0))
                rows.append(_ratio_row("e4", x, j, abs(base), 1.0 / lg**2, 1.0))
            if upper_window:
                rows.append(_ratio_row("e5", x, j, abs(base + j), 1.0, 1.0))
                rows.append(_ratio_row("e6", x, j, abs(fj), x ** (beta - j - ENVELOPE_EPS),
                                       x ** (beta - j + ENVELOPE_EPS)))
        if sublinear:
            f0, f1 = val(0, x), val(1, x)
            if f0 != 0.0:
                rows.append(_ratio_row("e2", x, 0, x * f1 / f0, 1.0 / (2 * lg), 1.0))
            f1_2x = val(1, 2 * x)
            if f1_2x != 0.0:
                rows.append(_ratio_row("e1", x, 0, f1 / f1_2x, 1.0, lg))
            else:
                rows.append(RatioRow("e1", x, 0, None, None, None, None, "zero denominator"))
    return InequalityReport(tuple(rows))
