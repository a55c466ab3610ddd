"""Exponential sums and the bound-vs-actual evaluators."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from primeud import hardy
from primeud.cli import _jsonable
from primeud.expsums import (
    ExpSumResult,
    _cell_moments,
    composite_bound_eval,
    e,
    erdos_turan_bound,
    kusmin_landau_check,
    vdc_inequality_check,
    weyl_moduli,
    weyl_sum_integers,
    weyl_sum_primes,
)
from primeud.hardy import HardyExpr
from primeud.literals import parse_expr


# -- weyl_sum_integers -----------------------------------------------------------


def test_full_period_cancellation():
    res = weyl_sum_integers(parse_expr("1/3*x"), 1, 1, 3)
    assert abs(res.sum) < 1e-12
    assert res.count == 3


def test_integer_phase_gives_count():
    res = weyl_sum_integers(parse_expr("1/2*x"), 2, 1, 500)
    assert res.sum.real == pytest.approx(500.0, abs=1e-9)
    assert res.normalized == pytest.approx(1.0)


def test_linear_phase_matches_geometric_series():
    # |sum_{n=1}^{N} e(alpha n)| = |sin(pi N alpha) / sin(pi alpha)|
    alpha = math.sqrt(2)
    for N in (100, 1234, 10_000):
        res = weyl_sum_integers(parse_expr("sqrt(2)*x"), 1, 1, N)
        closed = abs(math.sin(math.pi * N * alpha) / math.sin(math.pi * alpha))
        assert abs(abs(res.sum) - closed) <= 1e-9 * max(closed, 1.0)


def test_split_range_reassembles():
    phase = parse_expr("x^(3/2)")
    whole = weyl_sum_integers(phase, 1, 2, 60_000)
    for cut in (777, 16384, 43210):
        left = weyl_sum_integers(phase, 1, 2, cut)
        right = weyl_sum_integers(phase, 1, cut + 1, 60_000)
        assert abs(whole.sum - (left.sum + right.sum)) < 1e-10


def test_threading_is_bit_deterministic(monkeypatch):
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 1024)
    monkeypatch.setattr(hardy.os, "cpu_count", lambda: 4)  # 4 workers on any CPU
    phase = parse_expr("sqrt(2)*x^2")
    a = weyl_sum_integers(phase, 1, 2, 30_000)
    b = weyl_sum_integers(phase, 1, 2, 30_000, threads=4)
    assert a.sum == b.sum  # ordered reduction: thread count cannot matter


def test_triangle_inequality_invariant(rng):
    for _ in range(50):
        a = int(rng.integers(2, 50))
        b = a + int(rng.integers(0, 500))
        q = int(rng.integers(1, 5))
        res = weyl_sum_integers(parse_expr("x^(1/2)"), q, a, b)
        assert abs(res.sum) <= res.count * (1 + 1e-12)
        assert 0.0 <= res.normalized <= 1.0


def test_weyl_sum_validates():
    with pytest.raises(ValueError):
        weyl_sum_integers(parse_expr("x"), 0, 1, 10)
    with pytest.raises(ValueError):
        weyl_sum_integers(parse_expr("log"), 1, 1, 10)  # log needs n >= 2
    with pytest.raises(OverflowError):
        weyl_sum_integers(parse_expr("x^4"), 10**9, 2, 10**9)


# -- weyl_sum_primes -------------------------------------------------------------


def test_zero_phase_counts_primes(table100k):
    res = weyl_sum_primes(HardyExpr.zero(), 1, 50_000, table100k)
    assert res.sum.real == pytest.approx(table100k.pi(50_000), abs=1e-9)


def test_half_phase_q2_counts_primes(table100k):
    res = weyl_sum_primes(parse_expr("1/2*x"), 2, 50_000, table100k)
    assert res.normalized == pytest.approx(1.0)


def test_prime_window_restriction(table100k):
    full = weyl_sum_primes(parse_expr("x^(1/2)"), 1, 50_000, table100k)
    tail = weyl_sum_primes(parse_expr("x^(1/2)"), 1, 50_000, table100k, X0=10_000)
    head = weyl_sum_primes(parse_expr("x^(1/2)"), 1, 10_000, table100k)
    assert abs(full.sum - (head.sum + tail.sum)) < 1e-10
    assert tail.count == table100k.pi(50_000) - table100k.pi(10_000)


def test_window_power_phase_is_small(table100k):
    res = weyl_sum_primes(parse_expr("x^(3/2)"), 1, 100_000, table100k)
    assert res.normalized < 0.05


def test_empty_prime_window(table100k):
    res = weyl_sum_primes(parse_expr("x^(1/2)"), 1, 100, table100k, X0=5_000)
    assert res.count == 0 and res.sum == 0j and res.normalized == 0.0


def test_erdos_turan_three_points():
    rep = erdos_turan_bound(np.array([0.1, 0.4, 0.9]), 5)
    assert rep.holds


# -- kusmin-landau ----------------------------------------------------------------


def test_kusmin_landau_holds_on_valid_interval():
    rep = kusmin_landau_check(parse_expr("x^(1/2)"), 1, 700, 2300)
    assert rep.valid
    assert rep.holds
    assert rep.params["lambda"] > 0.0


def test_kusmin_landau_flags_integer_crossing():
    # phase' = x/50 crosses integers on a long interval
    rep = kusmin_landau_check(parse_expr("1/100*x^2"), 1, 10, 200)
    assert not rep.valid
    assert rep.note


def test_kusmin_landau_full_period():
    # phase' = 1/3 on [1,3]: e(1/3) + e(2/3) + e(1) cancels exactly
    rep = kusmin_landau_check(parse_expr("1/3*x"), 1, 1, 3)
    assert rep.valid
    assert rep.actual == pytest.approx(0.0, abs=1e-12)
    assert rep.params["lambda"] == pytest.approx(1.0 / 3.0)
    assert rep.holds


# -- van der Corput shifted correlations ---------------------------------------------


def test_vdc_constant_sequence():
    rep = vdc_inequality_check(np.ones(100, dtype=complex), 1)
    assert rep.actual == pytest.approx(100.0**2)
    assert rep.bound == pytest.approx(101.0 * 100.0)
    assert rep.holds


def test_vdc_rotation_sequence():
    rep = vdc_inequality_check(e(0.6180339887 * np.arange(1, 101)), 10)
    assert rep.holds


def test_vdc_randomized_trials(rng):
    for _ in range(300):
        N = int(rng.integers(2, 150))
        H = int(rng.integers(1, 25))
        vals = np.exp(2j * np.pi * rng.random(N))
        rep = vdc_inequality_check(vals, H)
        assert rep.holds


def test_vdc_shift_exceeding_interval():
    # H larger than the interval: shifted sums are empty (= 0 by convention)
    rep = vdc_inequality_check(np.ones(3, dtype=complex), 50)
    assert rep.holds


def test_vdc_validates():
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones(10, dtype=complex), 0)
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones(0, dtype=complex), 1)


# -- iterated shift bound --------------------------------------------------------------


def test_composite_bound_window_phase():
    rep = composite_bound_eval(parse_expr("x^(3/2)"), 1, 1, 10_000, 10_000)
    assert rep.valid
    assert rep.advisory
    assert math.isfinite(rep.ratio) and rep.ratio >= 0.0


def test_composite_bound_linear_phase_flagged():
    rep = composite_bound_eval(parse_expr("sqrt(2)*x"), 1, 1, 1000, 1000)
    assert not rep.valid


def test_composite_bound_normalized_trend():
    norms = []
    for X1 in (1_000, 10_000, 100_000):
        rep = composite_bound_eval(parse_expr("x^(3/2)"), 1, 1, X1, X1)
        norms.append(rep.actual / X1)
    assert norms[0] > norms[1] > norms[2]


def test_composite_bound_rejects_bad_interval():
    with pytest.raises(ValueError):
        composite_bound_eval(parse_expr("x^(3/2)"), 1, 1, 100, 200)
    with pytest.raises(ValueError):
        composite_bound_eval(parse_expr("x^(3/2)"), 1, 0, 100, 100)


# -- harmonic discrepancy bound ---------------------------------------------------------


def moduli_oracle(points, Q):
    """|sum_j e(q x_j)| / N for q = 1..Q at 30 digits; 2 q x_j is exact."""
    with mpmath.workdps(30):
        xs = [mpmath.mpf(float(x)) for x in points]
        return np.array([
            float(abs(mpmath.fsum(mpmath.expjpi(2 * q * x) for x in xs)) / len(xs))
            for q in range(1, Q + 1)
        ])


@pytest.mark.parametrize("Q", [50, 200, 1000])
@pytest.mark.parametrize("kind", ["random", "grid", "edges", "constant"])
def test_weyl_moduli_against_mpmath(Q, kind):
    N = 64
    points = {
        "random": np.random.default_rng(Q).random(N),
        "grid": np.arange(N) / N,
        "edges": np.array([0.0, 1.0 - 2.0**-53]),
        "constant": np.full(N, 0.7310585786300049),
    }[kind]
    got = weyl_moduli(points, Q)
    assert [q for q, _ in got] == list(range(1, Q + 1))
    err = np.abs(np.array([m for _, m in got]) - moduli_oracle(points, Q))
    assert np.all(err <= np.arange(1, Q + 1) * 1e-15)


def test_weyl_moduli_one_cell():
    """Every point in one cell of the 4096 (M = 4096 up to Q = 256), both
    cell edges included: every modulus within 1e-15 of the oracle, with no
    growth in q."""
    points = (1234 + np.random.default_rng(7).random(64)) / 4096
    points[:2] = 1234 / 4096, np.nextafter(1235 / 4096, 0)
    got = np.array([m for _, m in weyl_moduli(points, 256)])
    assert np.all(np.abs(got - moduli_oracle(points, 256)) <= 1e-15)


def test_cell_moments_are_taken_about_the_cell_centre():
    """Offsets run from the cell centre, so |delta| <= 1/(2M), the bound
    the series cut of weyl_moduli assumes: a left edge is -1/(2M) off, a
    centre 0."""
    M = 4096
    cells = np.arange(M)
    points = np.concatenate([cells / M, (cells + 0.5) / M])
    counts, first, second = _cell_moments(points, M, 3)
    assert np.all(counts == 2)
    assert np.all(first == -0.5 / M)
    assert np.all(second == 0.25 / M**2)


def test_weyl_moduli_prefix_does_not_depend_on_Q():
    """The q-th modulus is the same bits for every Q <= 256."""
    x = np.random.default_rng(5).random(1000)
    assert weyl_moduli(x, 50)[:10] == weyl_moduli(x, 10)
    assert weyl_moduli(x, 256)[:50] == weyl_moduli(x, 50)


@pytest.mark.parametrize("bad", [[-0.25], [0.5, 1.0], [np.nan], []])
def test_weyl_moduli_refuses_points_outside_unit_interval(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        weyl_moduli(np.array(bad, dtype=float), 10)


def test_erdos_turan_all_zeros():
    rep = erdos_turan_bound(np.zeros(10), 1)
    assert rep.actual == pytest.approx(1.0)
    assert rep.bound == pytest.approx(8.0)
    assert rep.holds


def test_erdos_turan_grid():
    N = 200
    grid = np.arange(N) / N
    rep = erdos_turan_bound(grid, N)
    assert rep.actual == pytest.approx(1.0 / N)
    assert rep.holds


def test_erdos_turan_sqrt2_primes(table100k):
    from primeud.discrepancy import fractional_parts

    pts = fractional_parts(parse_expr("sqrt(2)*x"), 1, "primes", 9_000, table100k)
    rep = erdos_turan_bound(pts.points, 50)
    assert rep.holds


def test_erdos_turan_randomized(rng):
    for _ in range(100):
        kind = rng.integers(0, 3)
        N = int(rng.integers(1, 400))
        if kind == 0:
            pts = rng.random(N)
        elif kind == 1:
            pts = np.full(N, float(rng.random()) * 0.999)
        else:
            pts = (np.arange(N) / max(N, 1) + rng.random()) % 1.0
        rep = erdos_turan_bound(pts, int(rng.integers(1, 60)))
        assert rep.holds


def test_bound_report_serialization():
    """A report serializes as its fields plus its public properties."""
    rep = erdos_turan_bound(np.zeros(5), 2)
    blob = _jsonable(rep)
    assert set(blob) == {f.name for f in dataclasses.fields(rep)} | {"ratio"}
    assert blob["ratio"] == rep.ratio
    assert json.loads(json.dumps(blob)) == blob


def test_exp_sum_result_asserts_triangle():
    with pytest.raises(AssertionError):
        ExpSumResult.make(complex(10.0, 0.0), 5)
