"""hardy.floor_array against the double-double floors it replaces: floors and
boundary events bit for bit, the error band's headroom, and the chunks that
skip the double pre-pass.

CI runs this file a second time with numpy's dispatched SIMD loops turned off
(NPY_DISABLE_CPU_FEATURES), so the band also holds for the baseline pow and
log.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primeud.hardy as hardy
from primeud.ddarith import floor_with_boundary
from primeud.hardy import (
    Coefficient,
    ExprDomainError,
    HardyExpr,
    Term,
    _map_chunks,
    _prepass,
    evaluate_array,
    floor_array,
)
from primeud.literals import parse_expr
from primeud.primes import sieve

mpmath.mp.dps = 50

N_PRIMES = 1_000_000
P_LAST = 15_485_863  # the 10^6-th prime

# The benchmark's recurrence expressions, then the theta whose double rounds
# worst (7/3: 21 units of 2^-53 of |piece| at p = P_LAST) and an irrational
# coefficient.
LITERALS = ("x^(3/2)", "x^(1/2) + log^2", "x^(5/4)", "x^(5/3)", "log",
            "x^(7/3)", "irr(0.318309886)*x^(5/3)")


def _dd_floors(exprs, xs):
    return [floor_with_boundary(v) for v in evaluate_array(exprs, xs, "compensated")]


def _assert_same(got, want):
    assert len(got) == len(want)
    for (gf, ge), (wf, we) in zip(got, want):
        assert gf.dtype == wf.dtype == np.int64
        assert np.array_equal(gf, wf)
        assert ge == we


@pytest.fixture(scope="module")
def prime_scan():
    """Per literal, over the first 10^6 primes in the scans' chunks: floor
    mismatches, events of both paths, the largest |double - dd| / band and
    the share of points evaluated in dd."""
    ps = sieve(P_LAST + 1).first(N_PRIMES).astype(np.float64)
    assert ps[-1] == P_LAST
    out = {}
    for lit in LITERALS:
        exprs = [parse_expr(lit)]
        dd_points = []

        def spy(expr, xs, precision="compensated", _real=evaluate_array):
            if precision == "compensated":
                dd_points.append(len(xs))
            return _real(expr, xs, precision)

        def chunk(xs, _):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hardy, "evaluate_array", spy)
                (fl, ev), = floor_array(exprs, xs)
            vals = evaluate_array(exprs, xs, "compensated")
            (want, want_ev), = [floor_with_boundary(v) for v in vals]
            (v, band), = _prepass(exprs, xs)
            err = np.abs((v - vals[0].hi) - vals[0].lo)
            small = np.abs(v) < 2.0**52
            ratio = float(np.max(err[small] / band[small], initial=0.0))
            return int(np.count_nonzero(fl != want)), ev, want_ev, ratio

        parts = _map_chunks(chunk, ps)
        out[lit] = {
            "mismatches": sum(p[0] for p in parts),
            "events": (sum(p[1] for p in parts), sum(p[2] for p in parts)),
            "ratio": max(p[3] for p in parts),
            "dd_share": sum(dd_points) / N_PRIMES,
        }
    return out


@pytest.mark.parametrize("literal", LITERALS)
def test_floors_equal_dd_over_first_million_primes(prime_scan, literal):
    res = prime_scan[literal]
    assert res["mismatches"] == 0
    assert res["events"][0] == res["events"][1]


@pytest.mark.parametrize("literal", LITERALS)
def test_band_headroom_over_first_million_primes(prime_scan, literal):
    # the measured error stays within an eighth of the band, so a pow or log
    # a few ulps worse than this numpy's cannot flip a floor
    assert prime_scan[literal]["ratio"] <= 1 / 8


@pytest.mark.parametrize("literal, share", [
    ("x^(3/2)", 0.002), ("x^(1/2) + log^2", 0.002), ("x^(5/4)", 0.002),
    ("log", 0.002), ("x^(5/3)", 0.02), ("irr(0.318309886)*x^(5/3)", 0.02),
])
def test_prepass_settles_most_points(prime_scan, literal, share):
    assert prime_scan[literal]["dd_share"] < share


def test_squares_and_cubes_are_boundary_events():
    # x^(3/2) at m^2 and x^(5/3), x^(7/3) at m^3 are integers: every point
    # is a boundary event, which only dd may decide
    squares = (np.arange(2, 4001, dtype=np.float64)) ** 2
    cubes = (np.arange(2, 251, dtype=np.float64)) ** 3
    for lits, xs in ((("x^(3/2)",), squares), (("x^(5/3)", "x^(7/3)"), cubes)):
        exprs = [parse_expr(s) for s in lits]
        got = floor_array(exprs, xs)
        _assert_same(got, _dd_floors(exprs, xs))
        assert all(ev == len(xs) for _, ev in got)


def _exact_value(expr: HardyExpr, x: float):
    """expr(x) at 50 digits for rational coefficients."""
    total = mpmath.mpf(0)
    for t in expr.terms:
        c = t.coeff.rational_value
        total += (mpmath.mpf(c.numerator) / c.denominator
                  * mpmath.power(x, mpmath.mpf(t.theta.numerator) / t.theta.denominator)
                  * mpmath.log(x) ** t.logpow)
    return total


@pytest.mark.parametrize("literal", ["x^(3/2)", "x^(5/3)", "x^(7/3)",
                                     "x^(1/2) + log^2", "log"])
def test_values_near_an_integer(literal):
    # expr + c with a rational c that puts the value at x within delta of
    # an integer, for delta from 1e-12 to 1e-6 on either side: the points
    # inside BOUNDARY_TOL are boundary events, those just outside it are
    # not, and the double pre-pass must give way to dd on all of them
    base = parse_expr(literal)
    xs = [3.0, 101.0, 10007.0, 1000003.0, float(P_LAST)]
    if literal == "x^(7/3)":
        xs = xs[:4]  # past 2^52 at P_LAST
    deltas = [s * 10.0**-k for k in range(6, 13) for s in (1, -1)]
    events = 0
    for x in xs:
        v = _exact_value(base, x)
        shift = Fraction(str(mpmath.nint(v) - v))
        for delta in deltas:
            c = Coefficient.rational(shift + Fraction(delta))
            expr = HardyExpr.build(base.terms + (Term(c, Fraction(0), 0),))
            got = floor_array([expr], [x])
            _assert_same(got, _dd_floors([expr], np.asarray([x])))
            events += got[0][1]
    assert 0 < events < len(xs) * len(deltas)


_THETAS = st.builds(Fraction, st.integers(-16, 24), st.integers(1, 8))
_COEFFS = st.one_of(
    st.builds(Coefficient.rational,
              st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 20))),
    st.builds(Coefficient.irrational, st.sampled_from(["sqrt(2)", "pi", "phi", "e"]),
              st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))),
)
_TERMS = st.builds(Term, _COEFFS, _THETAS, st.integers(0, 3))


def _outcome(f):
    try:
        return f()
    except (OverflowError, ExprDomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(terms=st.lists(_TERMS, min_size=1, max_size=3),
       start=st.integers(2, 10**7), count=st.integers(1, 300),
       step=st.sampled_from([1.0, 0.25, 0.001]))
def test_floor_array_property(terms, start, count, step):
    # any expression of the term class on any run of points: the same floors,
    # boundary events and exceptions as dd
    expr = HardyExpr.build(terms)
    xs = start + step * np.arange(count, dtype=np.float64)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: floor_array([expr], xs))
        want = _outcome(lambda: _dd_floors([expr], xs))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        _assert_same(got, want)


def test_floor_array_keeps_the_gates():
    x_log, x_pow = parse_expr("log"), parse_expr("x^(3/2)")
    with pytest.raises(ExprDomainError):
        floor_array([x_pow, x_log], [1.0, 2.0])
    with pytest.raises(OverflowError, match="int64"):
        floor_array([parse_expr("x^3")], [2.0**21])
    # dd overflows inside x^(-40) = 1 / x^40 where the double does not
    x_neg = HardyExpr.build([Term(Coefficient.rational(1), Fraction(-40), 0)])
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="non-finite"):
        floor_array([x_neg], [10.0, 1e8])
    empty = floor_array([x_pow, x_log], np.zeros(0))
    _assert_same(empty, _dd_floors([x_pow, x_log], np.zeros(0)))
    assert floor_array([], [2.0, 3.0]) == []


@pytest.mark.parametrize("literal", ["x^2 + x", "sqrt(2)*x^2"])
def test_undecidable_chunk_goes_to_dd_whole(monkeypatch, literal):
    # near 10^7 the band of x^2 passes 1/4: the chunk skips the pre-pass and
    # makes exactly one compensated evaluation, over the whole chunk
    calls = []

    def spy(expr, xs, precision="compensated", _real=evaluate_array):
        calls.append((precision, len(xs)))
        return _real(expr, xs, precision)

    def no_prepass(*_):
        raise AssertionError("pre-pass on an undecidable chunk")

    exprs = [parse_expr(literal)]
    xs = np.arange(10**7, 10**7 + hardy.DEFAULT_CHUNK, dtype=np.float64)
    want = _dd_floors(exprs, xs)
    monkeypatch.setattr(hardy, "evaluate_array", spy)
    monkeypatch.setattr(hardy, "_prepass", no_prepass)
    _assert_same(floor_array(exprs, xs), want)
    assert calls == [("compensated", len(xs))]


def test_decidable_chunk_sends_only_its_slow_points_to_dd(monkeypatch):
    calls = []

    def spy(expr, xs, precision="compensated", _real=evaluate_array):
        calls.append(np.array(xs))
        return _real(expr, xs, precision)

    exprs = [parse_expr("x^(3/2)")]
    xs = np.concatenate([np.arange(10**6, 10**6 + 1000, dtype=np.float64),
                         [4.0, 9.0, 16.0]])  # perfect squares: integer values
    want = _dd_floors(exprs, xs)
    monkeypatch.setattr(hardy, "evaluate_array", spy)
    _assert_same(floor_array(exprs, xs), want)
    assert len(calls) == 1
    assert set(calls[0]) >= {4.0, 9.0, 16.0}
    assert len(calls[0]) < 20
