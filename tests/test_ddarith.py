"""Double-double kernels against an independent big-float oracle."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeud.ddarith import (
    DD,
    E,
    LN2,
    PI,
    dd_ipow,
    dd_log,
    dd_nroot,
    dd_pow_frac,
    dd_sqrt,
    floor_with_boundary,
    frac_nearest,
    frac_unit,
    two_prod,
    two_sum,
)
from primeud.hardy import evaluate_array
from primeud.literals import parse_expr

mpmath.mp.dps = 50


def mp(dd):
    return mpmath.mpf(float(np.asarray(dd.hi).ravel()[0])) + mpmath.mpf(
        float(np.asarray(dd.lo).ravel()[0])
    )


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


@given(finite, finite)
def test_two_sum_error_free(a, b):
    s, e = two_sum(np.float64(a), np.float64(b))
    assert float(s) == a + b
    # the error term recovers the exact sum
    assert mpmath.mpf(a) + mpmath.mpf(b) == mpmath.mpf(float(s)) + mpmath.mpf(float(e))


# products must stay clear of subnormal underflow for the transform to be
# exact; phase values here live in [1, 2^70] so this is the relevant range
_prod_float = st.floats(allow_nan=False, allow_infinity=False,
                        min_value=1e-100, max_value=1e100).map(
    lambda v: v if v > 1e-100 else 1.0
)


@given(_prod_float, _prod_float, st.booleans(), st.booleans())
def test_two_prod_error_free(a, b, na, nb):
    a = -a if na else a
    b = -b if nb else b
    p, e = two_prod(np.float64(a), np.float64(b))
    assert mpmath.mpf(a) * mpmath.mpf(b) == mpmath.mpf(float(p)) + mpmath.mpf(float(e))


def test_constants_match_oracle():
    assert abs(mp(LN2) - mpmath.log(2)) < mpmath.mpf("1e-31")
    assert abs(mp(PI) - mpmath.pi) < mpmath.mpf("1e-31")
    assert abs(mp(E) - mpmath.e) < mpmath.mpf("1e-31")


def test_from_fraction_round_trip():
    fr = Fraction(1, 3)
    v = DD.from_fraction(fr)
    # two roundings leave at most ~2^-106 relative error
    assert abs(mp(v) - mpmath.mpf(1) / 3) < mpmath.mpf("3e-33")


@pytest.mark.parametrize("x", [2, 3, 10, 97, 10**6, 999999937, 2**52 - 1])
def test_dd_log_accuracy(x):
    val = dd_log(np.asarray([float(x)]))
    err = abs(mp(DD(val.hi[0], val.lo[0])) - mpmath.log(x))
    assert err < mpmath.mpf("1e-30")


@pytest.mark.parametrize(
    "x,theta",
    [
        (4, Fraction(3, 2)),
        (10**9, Fraction(3, 2)),
        (999999937, Fraction(1, 2)),
        (12345, Fraction(5, 3)),
        (7, Fraction(0)),
        (100, Fraction(-1, 2)),
        (31, Fraction(4)),
    ],
)
def test_dd_pow_frac_accuracy(x, theta):
    val = dd_pow_frac(np.asarray([float(x)]), theta)
    exact = mpmath.power(x, mpmath.mpf(theta.numerator) / theta.denominator)
    err = abs(mp(DD(val.hi[0], val.lo[0])) - exact) / exact
    assert err < mpmath.mpf("1e-28")


def test_dd_pow_trivial():
    val = dd_pow_frac(np.asarray([4.0]), Fraction(3, 2))
    assert float(val.hi[0]) == 8.0 and float(val.lo[0]) == 0.0


def _rel_err(val, exact):
    """Largest relative error of a dd array against mpmath values."""
    return max(abs(mpmath.mpf(float(h)) + mpmath.mpf(float(l)) - x) / abs(x)
               for h, l, x in zip(val.hi, val.lo, exact))


def _log_points():
    """Integers spread over [2, 2^52]; the points (j +- 1/2)/128 and the
    sqrt(1/2) fold at every 2^e; every edge (j +- 1/2)/1024 of a dd_log
    table cell at three exponents in turn; each with both neighbours."""
    rng = np.random.default_rng(7)
    spread = np.rint(np.exp(rng.uniform(math.log(2.0), 52 * math.log(2.0), 5000)))
    edges = [(j + 0.5) / 128.0 for j in range(90, 182)] + [0.7071067811865476]
    pts = [v * 2.0**e for v in edges for e in range(2, 53)]
    pts += [(j + 0.5) / 1024.0 * 2.0**(2 + (j + 17 * k) % 51)
            for j in range(723, 1449) for k in range(3)]
    pts += [np.nextafter(v, np.inf) for v in pts] + [np.nextafter(v, 0.0) for v in pts]
    pts = np.unique(np.concatenate([spread, pts]))
    return pts[(pts >= 2.0) & (pts <= 2.0**52)]


def test_dd_log_against_mpmath_over_cells():
    xs = _log_points()
    assert len(xs) >= 5000
    exact = [mpmath.log(mpmath.mpf(float(x))) for x in xs]
    assert _rel_err(dd_log(xs), exact) < 1e-30


@pytest.mark.parametrize("theta", list(dict.fromkeys(
    Fraction(p, q) for q in (2, 3, 4, 5, 7) for p in (-5, -3, -1, 1, 3, 5, 7))),
    ids=str)
def test_dd_pow_frac_roots_against_mpmath(theta):
    rng = np.random.default_rng(theta.denominator * 100 + theta.numerator)
    xs = np.unique(np.rint(np.exp(rng.uniform(math.log(2.0), 40 * math.log(2.0), 300))))
    power = mpmath.mpf(theta.numerator) / theta.denominator
    exact = [mpmath.power(mpmath.mpf(float(x)), power) for x in xs]
    assert _rel_err(dd_pow_frac(xs, theta), exact) < 1e-30


def _newton_sqrt(x):
    """The former dd_sqrt: one Newton step with a dd division."""
    a = DD(x)
    y = DD(np.sqrt(a.hi))
    return y + (a - y * y) / (y * 2.0)


def test_dd_sqrt_bit_equal_to_newton_form():
    xs = np.arange(2, 100_001, dtype=np.float64)
    new, old = dd_sqrt(xs), _newton_sqrt(xs)
    assert new.hi.tobytes() == old.hi.tobytes()
    assert new.lo.tobytes() == old.lo.tobytes()


def test_dd_sqrt_and_nroot():
    v = dd_sqrt(2.0)
    assert abs(mp(v) - mpmath.sqrt(2)) < mpmath.mpf("1e-31")
    v = dd_nroot(DD(np.asarray([7.0])), 3)
    assert abs(mp(DD(v.hi[0], v.lo[0])) - mpmath.cbrt(7)) < mpmath.mpf("1e-31")


def test_dd_division():
    a = DD.from_fraction(Fraction(1, 3))
    b = DD.from_fraction(Fraction(1, 7))
    q = a / b
    assert abs(mp(q) - mpmath.mpf(7) / 3) < mpmath.mpf("1e-31")


def test_dd_ipow_matches_binary_powering():
    base = DD(np.asarray([1.0000001]))
    v = dd_ipow(base, 20)
    exact = mpmath.power(mpmath.mpf("1.0000001"), 20)
    # base itself is the rounded double, so compare against that value
    exact = mpmath.power(mpmath.mpf(1.0000001), 20)
    assert abs(mp(DD(v.hi[0], v.lo[0])) - exact) < mpmath.mpf("1e-25")


def test_floor_tie_break_both_sides():
    eps = 1e-12
    x = DD(np.asarray([5.0, 5.0, 2.5]), np.asarray([-eps, +eps, 0.0]))
    floors, events = floor_with_boundary(x, tol=1e-9)
    # 5 - eps floors UP to 5 under the tie-break; 5 + eps floors to 5 anyway
    assert list(floors) == [5, 5, 2]
    assert events == 2


def test_floor_plain():
    x = DD(np.asarray([3.75, -1.25, 7.0]))
    floors, events = floor_with_boundary(x)
    assert list(floors) == [3, -2, 7]
    assert events == 1  # exact integer 7 counts as a boundary event


def test_frac_unit_boundary_collapse():
    eps = 1e-12
    x = DD(np.asarray([5.0, 5.0, 2.25]), np.asarray([-eps, +eps, 0.0]))
    pts, events = frac_unit(x, tol=1e-9)
    assert events == 2
    assert pts[0] == 0.0 and pts[1] == 0.0 and pts[2] == 0.25
    assert np.all((pts >= 0.0) & (pts < 1.0))


def test_frac_nearest_large_magnitude():
    # fractional part of a ~2^45-scale value survives the reduction
    x = np.asarray([float(2**45)])
    v = dd_pow_frac(x, Fraction(1)) + DD.from_fraction(Fraction(1, 3))
    r = frac_nearest(v)
    assert abs(r[0] - (1.0 / 3.0)) < 1e-15


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10**12), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3))
def test_pow_frac_property(x, num, den):
    theta = Fraction(num, den)
    val = dd_pow_frac(np.asarray([float(x)]), theta)
    exact = mpmath.power(x, mpmath.mpf(num) / den)
    rel = abs(mp(DD(val.hi[0], val.lo[0])) - exact) / exact
    assert rel < mpmath.mpf("1e-27")


def test_floor_refuses_int64_overflow():
    floors, _ = floor_with_boundary(DD(np.asarray([2.0**62 - 1024, -(2.0**62 - 1024)])))
    assert list(floors) == [2**62 - 1024, -(2**62 - 1024)]
    for v in (2.0**62, -(2.0**62), 2.0**70):
        with pytest.raises(OverflowError, match="int64"):
            floor_with_boundary(DD(np.asarray([5.0, v])))


# One expression per term class, with the first and last integer x at which
# its phase lies in [2^40, 2^70] (the compensated limit), and its exact value.
_MP = mpmath.mpf
REDUCTION_CASES = [
    ("x^(7/2)", 2757, 1048575, lambda x: _MP(x) ** (_MP(7) / 2)),
    ("x^(5/3)", 2**24, 2**42 - 1, lambda x: mpmath.cbrt(_MP(x) ** 5)),
    ("x^(3/2) + log^2", 106528682, 111703418533304,
     lambda x: _MP(x) ** (_MP(3) / 2) + mpmath.log(x) ** 2),
    ("x^2*log^3", 31462, 390493821, lambda x: _MP(x) ** 2 * mpmath.log(x) ** 3),
    ("pi*x^3", 7048, 7216333, lambda x: mpmath.pi * _MP(x) ** 3),
    ("sqrt(2)*x^2", 881744, 28892980822, lambda x: mpmath.sqrt(2) * _MP(x) ** 2),
    ("x^(5/4)", 2**32, 2**56, lambda x: _MP(x) ** (_MP(5) / 4)),
    ("irr(0.734051234)*x^(5/3)", 20196871, 5294488313616,
     lambda x: _MP("0.734051234") * mpmath.cbrt(_MP(x) ** 5)),
]


@pytest.mark.parametrize("literal, x_lo, x_hi, exact", REDUCTION_CASES,
                         ids=[c[0] for c in REDUCTION_CASES])
def test_reductions_match_oracle_to_limit(literal, x_lo, x_hi, exact):
    """frac_unit, frac_nearest and floor_with_boundary of compensated phase
    values from 2^40 to 2^70, against the reductions of the exact value."""
    xs = np.unique(np.rint(np.geomspace(x_lo, x_hi, 160)))
    vals = evaluate_array(parse_expr(literal), xs, "compensated")
    exact_vals = [exact(int(x)) for x in xs]
    mags = np.abs(vals.hi)
    assert 2.0**40 <= mags.min() < 2.0**41 and 2.0**69 < mags.max() <= 2.0**70
    tol = 1e-9  # the measured evaluation error is 5e-11 at 2^70

    pts, _ = frac_unit(vals, tol)
    dist = frac_nearest(vals)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert np.all(np.abs(dist) <= 0.75)
    for i, v in enumerate(exact_vals):
        frac = float(v - mpmath.floor(v))
        for got in (pts[i], dist[i]):
            off = abs(got - frac)
            assert abs(off - round(off)) < tol, (xs[i], got, frac)

    below = mags < 2.0**62
    assert below.sum() > 20
    floors, _ = floor_with_boundary(DD(vals.hi[below], vals.lo[below]), tol)
    for fl, v in zip(floors, (v for v, b in zip(exact_vals, below) if b)):
        if abs(v - mpmath.nint(v)) > tol:
            assert int(fl) == int(mpmath.floor(v)), (v, fl)
    with pytest.raises(OverflowError):
        floor_with_boundary(vals, tol)
