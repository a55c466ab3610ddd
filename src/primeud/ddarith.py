"""Vectorized double-double (compensated) floating-point arithmetic.

A double-double value is an unevaluated sum ``hi + lo`` with
``|lo| <= ulp(hi)/2``, which gives ~106 significand bits.  All kernels are
branch-free error-free transforms (Dekker / Knuth / Kahan) operating
elementwise on float64 numpy arrays, so a whole vector of phase values can
be evaluated at once.

This is the precision backbone for fractional parts of large phase values:
a plain double loses the fractional part of v once |v| grows (at 2^45 only
7 bits of the fraction survive), while a double-double keeps about
106 - log2|v| of them.  A compensated phase evaluation is measured to err by
about 5e-11 at 2^70 and 1.7e-5 at 2^88, so ``hardy.COMPENSATED_LIMIT``
admits phase values up to 2^70 only.

The kernels, with their worst relative error measured against 50-digit
mpmath: ``dd_sqrt`` is the QD library's one-correction square root (Hida,
Li & Bailey 2001), bit-equal to a full dd Newton step on 2..2*10^5;
``dd_nroot`` takes the odd roots the same way, one correction of a double
seed polished by one double Newton step (3.5e-32 for q = 3, 4.1e-32 for
q = 5 and 5.1e-32 for q = 7 on [2, 2^52]); ``dd_pow_frac`` builds x^(p/q)
as x^k (x^(1/q))^r from one square root per factor 2 of q and
``dd_nroot`` for the odd part; ``dd_log`` is Tang's table-driven method
(ACM TOMS 1990), 1024 cells per octave and a 5-term atanh series
(1.6e-32 relative, 2.0e-31 absolute on [2, 2^52]).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1, exact in double

# Tie-break tolerance for floors near integer boundaries: values within
# BOUNDARY_TOL of an integer m floor to m (deterministic, auditable).
BOUNDARY_TOL = 1e-9


def two_sum(a, b):
    """Error-free sum: s + err == a + b exactly."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    """Error-free sum assuming |a| >= |b| elementwise."""
    s = a + b
    err = b - (s - a)
    return s, err


def split(a):
    """Dekker split into two 26-bit halves, a == hi + lo."""
    c = _SPLITTER * a
    hi = c - (c - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """Error-free product: p + err == a * b exactly (no FMA needed)."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


class DD:
    """hi + lo pair over numpy float64 arrays (scalar inputs become 0-d)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.asarray(lo, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            self.lo = np.broadcast_to(self.lo, self.hi.shape).copy()

    @classmethod
    def _raw(cls, hi, lo):
        out = cls.__new__(cls)
        out.hi = hi
        out.lo = lo
        return out

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DD":
        """Round an exact rational to double-double (two roundings)."""
        hi = float(fr)
        lo = float(fr - Fraction(hi))
        s, e = two_sum(np.float64(hi), np.float64(lo))
        return cls._raw(np.asarray(s), np.asarray(e))

    @classmethod
    def from_decimal(cls, digits: str) -> "DD":
        return cls.from_fraction(Fraction(digits))

    # -- basic arithmetic ---------------------------------------------------

    def __neg__(self):
        return DD._raw(-self.hi, -self.lo)

    def __add__(self, other):
        o = as_dd(other)
        s, e = two_sum(self.hi, o.hi)
        e = e + self.lo + o.lo
        hi, lo = quick_two_sum(s, e)
        return DD._raw(hi, lo)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_dd(other))

    def __mul__(self, other):
        if isinstance(other, DD):
            p, e = two_prod(self.hi, other.hi)
            e = e + (self.hi * other.lo + self.lo * other.hi)
        else:
            f = np.asarray(other, dtype=np.float64)
            p, e = two_prod(self.hi, f)
            e = e + self.lo * f
        hi, lo = quick_two_sum(p, e)
        return DD._raw(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_dd(other)
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        s, e = two_sum(q1, q2)
        e = e + q3
        hi, lo = quick_two_sum(s, e)
        return DD._raw(hi, lo)

    # -- conversions --------------------------------------------------------

    def to_float(self) -> np.ndarray:
        return self.hi + self.lo

    def __float__(self):
        return float(self.hi) + float(self.lo)

    def __repr__(self):
        return f"DD(hi={self.hi!r}, lo={self.lo!r})"


def as_dd(x) -> DD:
    if isinstance(x, DD):
        return x
    if isinstance(x, Fraction):
        return DD.from_fraction(x)
    return DD(x)


def dd_sqrt(x) -> DD:
    """Double-double square root, as sqrt(dd_real) of the QD library: one
    correction of the correctly rounded y = sqrt(hi), y + (a - y^2) / (2 y),
    with y^2 exact by two_prod and the correction in plain double."""
    a = as_dd(x)
    y = np.sqrt(a.hi)
    p, e = two_prod(y, y)
    r = ((a.hi - p) - e) + a.lo  # a.hi - p is exact (Sterbenz)
    return DD._raw(*quick_two_sum(y, r / (y * 2.0)))


def dd_ipow(base: DD, n: int) -> DD:
    """Integer power by binary exponentiation; n >= 0."""
    if n < 0:
        raise ValueError("dd_ipow expects n >= 0")
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return DD(np.ones_like(base.hi)) if result is None else result


def dd_nroot(a: DD, q: int) -> DD:
    """q-th root (a > 0, q >= 2) by one correction, as dd_sqrt: the
    seed y = hi^(1/q), polished by one Newton step in double (1/q is
    inexact: the raw seed is up to 6.4 ulps off for q = 3 near 2^52), then
    y + (a - y^q) / (q y^(q-1)) with y^q in dd and the correction in
    plain double."""
    y = np.power(a.hi, 1.0 / q)
    y = y + (a.hi / y ** (q - 1) - y) / q
    yq1 = dd_ipow(DD(y), q - 1)
    yq = yq1 * y
    r = ((a.hi - yq.hi) - yq.lo) + a.lo  # a.hi - yq.hi is exact (Sterbenz)
    return DD._raw(*quick_two_sum(y, r / (yq1.hi * q)))


def dd_pow_frac(x: np.ndarray, theta: Fraction, root: DD | None = None) -> DD:
    """x**theta for exact-double x > 0 and rational theta = p/q.

    Built as x^k * (x^(1/q))^r with p = k q + r, 0 <= r < q.  The root takes
    one dd_sqrt per factor 2 of q and dd_nroot for the odd part; a caller
    that evaluates several terms of one denominator passes it as root.
    """
    x = np.asarray(x, dtype=np.float64)
    q = theta.denominator
    k, r = divmod(theta.numerator, q)
    if r == 0:
        a = dd_ipow(DD(x), abs(k))
        return DD(np.ones_like(x)) / a if k < 0 else a
    if root is None:
        root = DD(x)
        while q % 2 == 0:
            root, q = dd_sqrt(root), q // 2
        if q > 1:
            root = dd_nroot(root, q)
    a = dd_ipow(root, r)
    if k > 0:
        return a * dd_ipow(DD(x), k)
    return a / dd_ipow(DD(x), -k) if k < 0 else a


# -- logarithm ---------------------------------------------------------------

_SQRT_HALF = 0.7071067811865476

# 40+ digit decimal strings, rounded to double-double at import.
_LN2_DIGITS = "0.6931471805599453094172321214581765680755001343602552541"
LN2 = DD.from_decimal(_LN2_DIGITS)
PI = DD.from_decimal("3.1415926535897932384626433832795028841971693993751058210")
E = DD.from_decimal("2.7182818284590452353602874713526624977572470936999595750")

# ln 2 = _LN2_HI + _LN2_LO with _LN2_HI on 40 bits, so e * _LN2_HI is exact
# for every binary exponent e of a double.
_LN2_HI = math.ldexp(round(math.ldexp(float(LN2), 40)), -40)
_LN2_LO = DD.from_fraction(Fraction(_LN2_DIGITS) - Fraction(_LN2_HI))

# atanh series coefficients 1/(2k+1).
_ATANH_COEF = [DD.from_fraction(Fraction(1, 2 * k + 1)) for k in range(22)]


def _quotient(num: np.ndarray, den: DD) -> DD:
    """num / den for a double num, by one correction of the double quotient."""
    q = num / den.hi
    p, e = two_prod(q, den.hi)
    r = ((num - p) - e) - q * den.lo  # num - p is exact (Sterbenz)
    return DD._raw(*quick_two_sum(q, r / den.hi))


def _log_atanh(num: np.ndarray, den: DD) -> DD:
    """log((den + num) / (den - num)) = 2 atanh(z), z = num / den, by the
    22-term odd series sum z^(2k+1) / (2k+1) in dd: 1e-33 for |z| <= 0.1716."""
    z = _quotient(num, den)
    z2 = z * z
    acc = _ATANH_COEF[-1]
    for c in reversed(_ATANH_COEF[:-1]):
        acc = acc * z2 + c
    s = z * acc
    return s + s


def _fold(x: np.ndarray):
    """x = m * 2^e with m in [sqrt(1/2), sqrt(2)); returns (m, e as float)."""
    m, e = np.frexp(x)
    scale = m < _SQRT_HALF
    return np.where(scale, m * 2.0, m), (e - scale).astype(np.float64)


# log F for the cells F = j/1024 that a folded m rounds to (j = 724..1448),
# by the series at z = (F-1)/(F+1); built at import in about 1.4 ms.
_CELL_SCALE = 1024.0
_CELL_FIRST = 724
_CELLS = np.arange(_CELL_FIRST, 1449) / _CELL_SCALE
_LOG_CELL = _log_atanh(_CELLS - 1.0, DD._raw(*two_sum(_CELLS, 1.0)))
_THIRD = _ATANH_COEF[1]


def dd_log(x: np.ndarray) -> DD:
    """log of exact-double x > 0, accurate to ~1e-32 relative.

    Table-driven (Tang, ACM TOMS 1990): x = m * 2^e with m folded into
    [sqrt(1/2), sqrt(2)), m = F (1 + f/F) with F = j/1024 the nearest cell
    and f = m - F exact, and log(1 + f/F) = 2 atanh(z), z = f / (m + F).
    There |z| <= 2^-11.5, so 2 (z + z^3 P) with P = 1/3 + z^2/5 + z^4/7 +
    z^6/9 reaches 1e-36; only 1/3 needs a low word, and z^3 is
    (zh^2 by two_prod) zh with 3 zh^2 zl on its low word.  Then
    log x = e ln 2 + log F + that, with e * _LN2_HI exact.
    """
    m, e = _fold(np.asarray(x, dtype=np.float64))
    j = np.rint(m * _CELL_SCALE)
    cell = j / _CELL_SCALE
    z = _quotient(m - cell, DD._raw(*two_sum(m, cell)))
    zh2, err = two_prod(z.hi, z.hi)
    z3 = DD._raw(zh2, err) * z.hi
    z3.lo += 3.0 * zh2 * z.lo
    s = z + z3 * (_THIRD + zh2 * (0.2 + zh2 * (1.0 / 7.0 + zh2 / 9.0)))
    idx = j.astype(np.intp) - _CELL_FIRST
    log_cell = DD._raw(_LOG_CELL.hi[idx], _LOG_CELL.lo[idx])
    s2 = DD._raw(s.hi * 2.0, s.lo * 2.0)  # s + s, exactly
    return (_LN2_LO * e + log_cell + s2) + _LN2_HI * e


# -- floors and fractional parts ---------------------------------------------

def _nearest(x: DD):
    """Nearest integer of a dd value, as in floor(dd_real) of the QD library:
    returns (n_hi, n_lo, r, d) with n_hi = rint(hi), n_lo = rint(lo) (0 below
    2^51), r = x - n_hi and d = r - n_lo = x - (n_hi + n_lo).  |d| <= 0.5,
    save where hi is a half-integer that lo moves x past (|d| <= 0.75)."""
    n_hi = np.rint(x.hi)
    n_lo = np.rint(x.lo)
    r = DD._raw(*quick_two_sum(x.hi - n_hi, x.lo))  # x.hi - n_hi is exact
    return n_hi, n_lo, r, r.to_float() - n_lo


def floor_with_boundary(x: DD, tol: float = BOUNDARY_TOL):
    """Floor with the near-integer tie-break: values within tol of an
    integer m floor to m (never m-1).  Returns (int64, boundary count);
    raises OverflowError from |floor| ~ 2^62 on, before int64 wraps."""
    n_hi, n_lo, _, d = _nearest(x)
    if np.any(np.abs(n_hi) >= 2.0**62):
        raise OverflowError("floor exceeds the int64 range (2^62)")
    boundary = np.abs(d) < tol
    fl = n_hi.astype(np.int64) + n_lo.astype(np.int64) - ((d < 0) & ~boundary)
    return fl, int(np.count_nonzero(boundary))


def frac_unit(x: DD, tol: float = BOUNDARY_TOL):
    """Fractional parts in [0, 1); near-integer values collapse to 0.0 and
    are counted as boundary events (consistent with floor_with_boundary)."""
    _, n_lo, r, d = _nearest(x)
    boundary = np.abs(d) < tol
    pts = (r - (n_lo - (d < 0))).to_float()
    pts = np.where(boundary | (pts >= 1.0), 0.0, pts)
    return pts, int(np.count_nonzero(boundary))


def frac_nearest(x: DD) -> np.ndarray:
    """Signed distance to the nearest integer (up to a tie, see _nearest).

    Used to reduce phases mod 1 before sin/cos so the circular argument
    never carries the magnitude of the phase.
    """
    return _nearest(x)[3]
