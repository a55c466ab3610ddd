"""Symbolic engine: evaluation, differentiation, growth classification, the
equidistribution decision procedure, and the derivative-ratio checks."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from primeud import hardy
from primeud.ddarith import DD, dd_ipow, dd_log, dd_pow_frac, frac_nearest
from primeud.expsums import e
from primeud.hardy import (
    Coefficient,
    ExprDomainError,
    HardyExpr,
    Term,
    _evaluate_chunks,
    _map_chunks,
    boshernitzan_condition,
    classify_growth,
    differentiate,
    evaluate,
    evaluate_array,
    nth_derivative,
    verify_differential_inequalities,
)
from primeud.literals import parse_expr

mpmath.mp.dps = 50


def coeff_to_mp(c: Coefficient):
    total = mpmath.mpf(0)
    for sym, fr in c.parts:
        base = mpmath.mpf(1)
        if sym == "phi":
            base = (1 + mpmath.sqrt(5)) / 2
        elif sym == "pi":
            base = mpmath.pi
        elif sym == "e":
            base = mpmath.e
        elif sym.startswith("sqrt("):
            base = mpmath.sqrt(int(sym[5:-1]))
        elif sym.startswith("irr("):
            base = mpmath.mpf(sym[4:-1])
        total += base * mpmath.mpf(fr.numerator) / fr.denominator
    return total


def eval_oracle(expr: HardyExpr, x):
    """50-digit big-float evaluation, independent of the dd path."""
    total = mpmath.mpf(0)
    lx = mpmath.log(x)
    for t in expr.terms:
        theta = mpmath.mpf(t.theta.numerator) / t.theta.denominator
        total += coeff_to_mp(t.coeff) * mpmath.power(x, theta) * lx**t.logpow
    return total


# -- evaluate -----------------------------------------------------------------


def test_evaluate_trivial_power():
    assert evaluate(parse_expr("x^(3/2)"), 4.0) == 8.0


def test_evaluate_zero_expr():
    assert evaluate(HardyExpr.zero(), 10.0) == 0.0


def test_evaluate_rejects_bad_x():
    with pytest.raises(ExprDomainError):
        evaluate(parse_expr("x"), 1.0)
    with pytest.raises(ExprDomainError):
        evaluate(parse_expr("log"), 0.5)
    with pytest.raises(ExprDomainError):
        evaluate(parse_expr("x"), float("inf"))


def test_evaluate_compensated_fractional_part():
    # sqrt(2) x^2 at 1e6: value ~1.4e12, fractional part to 1e-9 absolute
    expr = parse_expr("sqrt(2)*x^2")
    v = evaluate_array(expr, [1e6], "compensated")
    exact = eval_oracle(expr, 10**6)
    frac_exact = exact - mpmath.floor(exact)
    got = mpmath.mpf(float(v.hi[0])) + mpmath.mpf(float(v.lo[0]))
    frac_got = got - mpmath.floor(got)
    assert abs(frac_got - frac_exact) < mpmath.mpf("1e-9")


def test_compensated_fracparts_match_oracle_up_to_1e9():
    # module invariant: arguments up to 1e9, values up to ~1e14
    rng = np.random.default_rng(7)
    expr = parse_expr("x^(3/2) + sqrt(2)*x")
    xs = rng.integers(10, 10**9, size=50).astype(np.float64)
    vals = evaluate_array(expr, xs, "compensated")
    for i, x in enumerate(xs):
        exact = eval_oracle(expr, int(x))
        got = mpmath.mpf(float(vals.hi[i])) + mpmath.mpf(float(vals.lo[i]))
        d = got - exact
        frac_err = abs(d - mpmath.nint(d))
        assert frac_err < mpmath.mpf("1e-9")


def test_evaluate_standard_matches_floats():
    expr = parse_expr("x^(1/2) + log^2")
    x = 100.0
    assert evaluate(expr, x) == pytest.approx(math.sqrt(x) + math.log(x) ** 2, rel=1e-14)


# -- differentiate ------------------------------------------------------------


def test_differentiate_power():
    assert differentiate(parse_expr("x^2")) == parse_expr("2*x")


def test_differentiate_log():
    d = differentiate(parse_expr("log"))
    assert len(d.terms) == 1
    t = d.terms[0]
    assert t.theta == Fraction(-1) and t.logpow == 0
    assert t.coeff.rational_value == 1


def test_differentiate_sqrt_log_vs_finite_differences():
    expr = parse_expr("x^(1/2)*log")
    d = differentiate(expr)
    # closed form: (1/2) x^{-1/2} log x + x^{-1/2}
    sigs = {(t.theta, t.logpow) for t in d.terms}
    assert sigs == {(Fraction(-1, 2), 1), (Fraction(-1, 2), 0)}
    for x in (10.0, 1e3, 1e6):
        h = x * 1e-6
        fd = (evaluate(expr, x + h) - evaluate(expr, x - h)) / (2 * h)
        assert abs(fd - evaluate(d, x)) / abs(fd) < 1e-6


def _random_expr(rng):
    thetas = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(4),
              Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(5, 2)]
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        c = Coefficient.rational(Fraction(int(rng.integers(-9, 10)) or 1,
                                          int(rng.integers(1, 10))))
        terms.append(Term(c, thetas[int(rng.integers(0, len(thetas)))],
                          int(rng.integers(0, 3))))
    return HardyExpr.build(terms)


def test_derivative_finite_difference_property(rng):
    checked = 0
    for _ in range(100):
        expr = _random_expr(rng)
        if expr.is_zero:
            continue
        d = differentiate(expr)
        for x in (1e2, 1e4):
            h = x * 1e-7
            fd = (evaluate(expr, x + h) - evaluate(expr, x - h)) / (2 * h)
            dv = evaluate(d, x) if not d.is_zero else 0.0
            scale = max(abs(fd), abs(dv), 1e-12)
            assert abs(fd - dv) / scale < 1e-5
        checked += 1
    assert checked >= 90


# -- growth classification ------------------------------------------------------


@pytest.mark.parametrize(
    "literal,kind,param",
    [
        ("x^(3/2)", "type-l-plus", 1),
        ("x^2*log", "type-l-plus", 2),
        ("5*x^3", "monomial", 3),
        ("x^(1/2)", "type-l-plus", 0),
        ("log^2", "log-power", 2),
        ("7", "constant", None),
    ],
)
def test_classify_growth(literal, kind, param):
    g = classify_growth(parse_expr(literal))
    assert g.kind == kind
    if kind == "type-l-plus":
        assert g.l == param
    elif kind == "monomial":
        assert g.degree == param
    elif kind == "log-power":
        assert g.logpow == param


def test_classify_monomial_leading_coeff():
    g = classify_growth(parse_expr("5*x^3"))
    assert g.leading.is_rational and g.leading.rational_value == 5


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        classify_growth(HardyExpr.zero())


def test_classify_ratio_limits_consistency():
    # for type-l-plus(l): f/x^l grows past 1 and f/x^{l+1} decays below 1
    for literal in ("x^(3/2)", "x^2*log", "x^(1/2)*log", "x^(7/3)"):
        expr = parse_expr(literal)
        g = classify_growth(expr)
        assert g.kind == "type-l-plus"
        lo = [evaluate(expr, float(x)) / float(x) ** g.l for x in (1e3, 1e6, 1e9)]
        hi = [evaluate(expr, float(x)) / float(x) ** (g.l + 1) for x in (1e3, 1e6, 1e9)]
        assert lo[0] < lo[1] < lo[2] and lo[2] > 1.0
        assert hi[0] > hi[1] > hi[2] and hi[2] < 1.0


def test_classify_product_consistency():
    # products of window terms classify consistently with ratio limits
    f = parse_expr("x^(1/2)")
    g = parse_expr("x*log")
    prod = f * g
    cls = classify_growth(prod)
    assert cls.kind == "type-l-plus" and cls.l == 1


# -- decision procedures ----------------------------------------------------------


@pytest.mark.parametrize(
    "literal,expected",
    [
        ("x^(1/2)", True),
        ("log", False),
        ("sqrt(2)*x^2", True),
        ("x^2 + 1/3*x", False),
        ("log^2", True),
        ("x^(1/2) + x^2", True),
        ("x^3", False),
        ("log + sqrt(2)*x^2", True),
        ("2 + log", False),
        ("x^(3/2) + sqrt(2)*x^2", True),
    ],
)
def test_boshernitzan_condition(literal, expected):
    assert boshernitzan_condition(parse_expr(literal)) is expected


def _divergence_oracle(expr):
    """Semantic check: |f - P| / log x must diverge for every rational
    polynomial P; only the rational truncations of f can cancel growth, so
    those are the candidates to minimize over."""
    poly, _ = expr.poly_and_residual()
    rational_poly = HardyExpr.build([t for t in poly.terms if t.coeff.is_rational])
    xs = (1e6, 1e12, 1e24)

    def diverges(P):
        diff = expr - P
        if diff.is_zero:
            return False
        vals = [abs(evaluate(diff, x)) / math.log(x) for x in xs]
        return vals[0] < vals[1] < vals[2] and vals[2] > 3.0 * vals[0]

    return all(diverges(P) for P in (HardyExpr.zero(), rational_poly))


@pytest.mark.parametrize(
    "literal",
    ["x^(1/2)", "log", "sqrt(2)*x^2", "x^2 + 1/3*x", "log^2",
     "x^(1/2) + x^2", "x^3", "log + sqrt(2)*x^2", "x^(3/2)"],
)
def test_boshernitzan_agrees_with_semantic_oracle(literal):
    expr = parse_expr(literal)
    assert boshernitzan_condition(expr) == _divergence_oracle(expr)


def test_evaluate_overflow_rejected():
    with pytest.raises(OverflowError):
        evaluate(parse_expr("x^4"), 1e300)


def test_standard_and_compensated_agree_at_small_scale():
    expr = parse_expr("x^(1/2) + 2/7*log^2")
    xs = np.array([2.0, 17.0, 1001.0, 99991.0])
    std = evaluate_array(expr, xs, "standard")
    comp = evaluate_array(expr, xs, "compensated")
    assert np.allclose(std, comp.to_float(), rtol=1e-13, atol=0)


def _explicit_sum(exprs, xs):
    """The compensated terms summed as 0 + piece * coeff for every term, on
    the shared basis of evaluate_array."""
    logs = dd_log(xs)
    roots = {q: dd_pow_frac(xs, Fraction(1, q))
             for q in {t.theta.denominator for e in exprs for t in e.terms} if q > 1}
    out = []
    for e in exprs:
        total = DD(np.zeros_like(xs))
        for t in e.terms:
            piece = dd_pow_frac(xs, t.theta, roots.get(t.theta.denominator))
            if t.logpow:
                piece = piece * dd_ipow(logs, t.logpow)
            total = total + piece * t.coeff.dd()
        out.append(total)
    return out


def test_unit_coefficients_bit_equal_to_explicit_sum():
    exprs = [parse_expr(s) for s in (
        "x^(3/2)", "x^(1/2) + log^2", "x^(5/4)", "x^(5/3)", "log",
        "x^2*log^3", "x^(3/2) + 2/7*x + sqrt(2)*log", "x^(1/3) + 1")]
    rng = np.random.default_rng(11)
    xs = np.unique(np.rint(np.exp(rng.uniform(math.log(2.0), 30 * math.log(2.0), 3000))))
    for got, want in zip(evaluate_array(exprs, xs), _explicit_sum(exprs, xs)):
        assert got.hi.tobytes() == want.hi.tobytes()
        assert got.lo.tobytes() == want.lo.tobytes()


# -- differential inequality report -----------------------------------------------


def test_inequalities_sqrt_exact_ratio():
    rep = verify_differential_inequalities(parse_expr("x^(1/2)"), [10.0, 1e3, 1e6], j_max=2)
    e2 = [r for r in rep.rows if r.eq == "e2"]
    assert e2 and all(abs(r.value - 0.5) < 1e-12 for r in e2)
    assert rep.all_ok


def test_inequalities_logsq_lower_bound():
    rep = verify_differential_inequalities(parse_expr("log^2"), [10.0, 1e3, 1e6], j_max=2)
    e2 = [r for r in rep.rows if r.eq == "e2"]
    for r in e2:
        assert abs(r.value - 2.0 / math.log(r.x)) < 1e-12
        assert r.value >= r.lower / 64.0
    assert rep.all_ok


def test_inequalities_power_envelope():
    rep = verify_differential_inequalities(parse_expr("x^(3/2)"), [1e2, 1e4], j_max=1)
    e6 = [r for r in rep.rows if r.eq == "e6" and r.j == 1]
    for r in e6:
        assert abs(r.value - 1.5 * r.x**0.5) < 1e-6 * r.value
        assert r.ok
    e5 = [r for r in rep.rows if r.eq == "e5"]
    assert e5 and all(r.ok for r in e5)


def test_inequalities_zero_derivative_flagged():
    # x^2 has f''' = 0: the j=2 ratio has a zero numerator (fails e0) and
    # the j=3 denominator vanishes at higher j_max (flagged, not fatal)
    rep = verify_differential_inequalities(parse_expr("x^2"), [1e2], j_max=3)
    assert any(r.ok is None for r in rep.rows)
    assert not rep.all_ok


def test_inequalities_validates_samples():
    with pytest.raises(ValueError):
        verify_differential_inequalities(parse_expr("x^(1/2)"), [2.0, 10.0])
    with pytest.raises(ValueError):
        verify_differential_inequalities(parse_expr("x^(1/2)"), [100.0, 10.0])


# -- coefficient algebra -----------------------------------------------------------


def test_coefficient_merge_and_cancel():
    a = parse_expr("sqrt(2)*x^2")
    b = parse_expr("x^2")
    s = a + b
    assert len(s.terms) == 1 and not s.terms[0].coeff.is_rational
    cancelled = s - a - b
    assert cancelled.is_zero


def test_sqrt_canonicalization():
    # sqrt(8) = 2 sqrt(2): same symbol, so the dependence is visible
    c = Coefficient.irrational("sqrt(8)")
    assert c.parts[0][0] == "sqrt(2)" and c.parts[0][1] == 2
    assert Coefficient.irrational("sqrt(4)").is_rational


def test_irrational_products_rejected():
    a = Coefficient.irrational("sqrt(2)")
    with pytest.raises(ValueError):
        a.mul(a)


def test_nth_derivative_matches_repeated():
    expr = parse_expr("x^(5/2) + x*log")
    d3 = nth_derivative(expr, 3)
    assert d3 == differentiate(differentiate(differentiate(expr)))


def _chunk_lengths(ns, **kw):
    return _evaluate_chunks(parse_expr("x^(3/2)"), ns, lambda v, _: len(v.hi), **kw)


def test_evaluate_chunks_cut_at_absolute_multiples(monkeypatch):
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 1000)
    ns = np.arange(777, 3001)
    assert _chunk_lengths(ns, first=777) == [223, 1000, 1000, 1]
    assert _chunk_lengths(ns[223:], first=1000) == [1000, 1000, 1]
    assert _chunk_lengths(ns) == [1000, 1000, 224]
    assert _chunk_lengths(ns[:5], first=777) == [5]
    assert _chunk_lengths(ns[:0]) == [0]


def test_evaluate_chunks_pass_each_chunks_integers(monkeypatch):
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 1000)
    ns = np.arange(777, 3001)
    got = _evaluate_chunks(parse_expr("x^(3/2)"), ns, lambda v, chunk: chunk,
                           first=777)
    assert [len(c) for c in got] == [223, 1000, 1000, 1]
    assert np.array_equal(np.concatenate(got), ns)


def test_map_chunks_start_at_their_positions(monkeypatch):
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 1000)
    ns = np.arange(777, 3001)
    for threads in (1, 2):
        got = _map_chunks(lambda c, start: (start, len(c), int(c[0])), ns,
                          threads=threads, first=777)
        assert got == [(0, 223, 777), (223, 1000, 1000), (1223, 1000, 2000),
                       (2223, 1, 3000)]


@pytest.mark.parametrize("cpus, threads, chunks, workers", [
    (2, 10**6, 100, 2),  # capped at the CPUs
    (64, 10**6, 4, 4),   # at the chunks
    (64, 3, 100, 3),     # at --threads
    (None, 8, 100, 1),   # an unknown CPU count: no pool
    (64, 8, 1, 1),       # one chunk: no pool
])
def test_map_chunks_bounds_the_thread_pool(monkeypatch, cpus, threads, chunks,
                                           workers):
    # the fake records the pool size and starts no thread
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(hardy, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(hardy.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 10)
    got = _map_chunks(lambda c, start: start, np.arange(10 * chunks),
                      threads=threads)
    assert got == list(range(0, 10 * chunks, 10))
    assert sizes == ([workers] if workers > 1 else [])


def test_evaluate_chunks_values_and_threads(monkeypatch):
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 300)
    expr = parse_expr("x^(1/2) + log^2")
    ns = np.arange(5, 2000)
    whole = evaluate_array(expr, ns.astype(np.float64), "compensated")
    parts = {
        threads: _evaluate_chunks(expr, ns, lambda v, _: np.stack([v.hi, v.lo]),
                                  threads=threads, first=5)
        for threads in (1, 2)
    }
    assert len(parts[1]) == len(parts[2]) == 7
    for a, b in zip(parts[1], parts[2]):
        assert np.array_equal(a, b)
    joined = np.concatenate(parts[1], axis=1)
    assert np.array_equal(joined[0], whole.hi)
    assert np.array_equal(joined[1], whole.lo)


def test_evaluate_chunks_shared_basis_and_threads(monkeypatch):
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 300)
    exprs = [parse_expr(s) for s in ("x^(3/2)", "x^(1/2) + log^2", "x^(5/4)")]
    ns = np.arange(5, 2000)

    def stack(vals, _):
        return np.stack([np.stack([v.hi, v.lo]) for v in vals])

    parts = {
        threads: _evaluate_chunks(exprs, ns, stack, threads=threads, first=5)
        for threads in (1, 2)
    }
    assert len(parts[1]) == len(parts[2]) == 7
    for a, b in zip(parts[1], parts[2]):
        assert np.array_equal(a, b)
    joined = np.concatenate(parts[1], axis=2)
    for i, expr in enumerate(exprs):
        alone = evaluate_array(expr, ns.astype(np.float64), "compensated")
        assert np.array_equal(joined[i, 0], alone.hi)
        assert np.array_equal(joined[i, 1], alone.lo)


def test_evaluate_array_sequence_standard():
    exprs = [parse_expr("x^(3/2)"), parse_expr("log^2")]
    xs = np.asarray([2.0, 10.0, 1e6])
    vals = evaluate_array(exprs, xs, "standard")
    assert len(vals) == 2
    for expr, v in zip(exprs, vals):
        assert np.array_equal(v, evaluate_array(expr, xs, "standard"))
    with pytest.raises(ExprDomainError):
        evaluate_array([parse_expr("x^(3/2)"), parse_expr("log")],
                       np.asarray([1.0, 2.0]))


@pytest.mark.parametrize("literal", ["irr(0.7340512)*x^2", "x^(3/2)",
                                     "x^(1/2) + log^2"])
def test_unit_reduction_is_pointwise(literal, rng, monkeypatch):
    # vaughan-check tabulates e(phase(n)) once over 1..X and indexes it; that
    # is byte-identical to evaluating any subset only if no value depends on
    # its neighbours in the chunk.
    def units(ns, first=0):
        return np.concatenate(_evaluate_chunks(
            expr, ns, lambda v, _: e(frac_nearest(v)), first=first))

    expr = parse_expr(literal)
    table = units(np.arange(2, 50_001), first=2)  # log is undefined at 1
    subset = rng.permutation(49_999)[:7_001] + 2
    assert not np.all(np.diff(subset) == 1)
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 1000)
    got = units(subset)
    assert got.tobytes() == table[subset - 2].tobytes()
