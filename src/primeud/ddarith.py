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
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1, exact in double


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
    """Double-double square root via one full-precision Newton step."""
    a = as_dd(x)
    y0 = np.sqrt(a.hi)
    y = DD(y0)
    # y += (a - y^2) / (2 y); doubles the correct digits of the seed
    return y + (a - y * y) / (y * 2.0)


def dd_ipow(base: DD, n: int) -> DD:
    """Integer power by binary exponentiation; n >= 0."""
    if n < 0:
        raise ValueError("dd_ipow expects n >= 0")
    result = DD(np.ones_like(base.hi))
    acc = base
    while n:
        if n & 1:
            result = result * acc
        acc = acc * acc
        n >>= 1
    return result


def dd_nroot(a: DD, q: int) -> DD:
    """q-th root (a > 0) from a double seed plus two dd Newton steps."""
    y0 = np.power(a.hi, 1.0 / q)
    y = DD(y0)
    for _ in range(2):
        yq1 = dd_ipow(y, q - 1)
        y = y + (a - yq1 * y) / (yq1 * float(q))
    return y


def dd_pow_frac(x: np.ndarray, theta: Fraction) -> DD:
    """x**theta for exact-double x > 0 and rational theta."""
    p = theta.numerator
    q = theta.denominator
    if p == 0:
        return DD(np.ones_like(np.asarray(x, dtype=np.float64)))
    a = dd_ipow(DD(x), abs(p))
    if q > 1:
        a = dd_nroot(a, q)
    if p < 0:
        a = DD(np.ones_like(a.hi)) / a
    return a


# -- logarithm ---------------------------------------------------------------

_SQRT_HALF = 0.7071067811865476

# 40+ digit decimal strings, rounded to double-double at import.
LN2 = DD.from_decimal("0.6931471805599453094172321214581765680755001343602552541")
PI = DD.from_decimal("3.1415926535897932384626433832795028841971693993751058210")
E = DD.from_decimal("2.7182818284590452353602874713526624977572470936999595750")
TWO_PI = PI * 2.0

# atanh series coefficients 1/(2k+1); |z| <= 0.1716 needs 22 terms for 1e-33.
_ATANH_COEF = [DD.from_fraction(Fraction(1, 2 * k + 1)) for k in range(22)]


def dd_log(x: np.ndarray) -> DD:
    """log of exact-double x > 0, accurate to ~1e-32 relative.

    Reduction: x = m * 2^e with m in [sqrt(1/2), sqrt(2)), then
    log m = 2 atanh((m-1)/(m+1)) by a 22-term odd series in dd.
    """
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    scale = m < _SQRT_HALF
    m = np.where(scale, m * 2.0, m)
    e = (e - scale).astype(np.float64)
    num = DD(m - 1.0)  # exact: m within [0.70, 1.42] of 1 (Sterbenz)
    dh, dl = two_sum(m, np.ones_like(m))
    z = num / DD._raw(dh, dl)
    z2 = z * z
    acc = DD(np.full_like(m, float(_ATANH_COEF[-1].hi)))
    acc.lo = np.full_like(m, float(_ATANH_COEF[-1].lo))
    for c in reversed(_ATANH_COEF[:-1]):
        acc = acc * z2 + c
    s = z * acc
    s = s + s
    return LN2 * e + s


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


def floor_with_boundary(x: DD, tol: float = 1e-9):
    """Floor with the near-integer tie-break: values within tol of an
    integer m floor to m (never m-1).  Returns (int64, boundary count);
    raises OverflowError from |floor| ~ 2^62 on, before int64 wraps."""
    n_hi, n_lo, _, d = _nearest(x)
    if np.any(np.abs(n_hi) >= 2.0**62):
        raise OverflowError("floor exceeds the int64 range (2^62)")
    boundary = np.abs(d) < tol
    fl = n_hi.astype(np.int64) + n_lo.astype(np.int64) - ((d < 0) & ~boundary)
    return fl, int(np.count_nonzero(boundary))


def frac_unit(x: DD, tol: float = 1e-9):
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
