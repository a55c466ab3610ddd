"""Exact discrepancy against brute-force oracles, point generation, and the
equidistribution reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeud.discrepancy import (
    equidistribution_report,
    fractional_parts,
    joint_weyl_test,
    star_discrepancy,
)
from primeud import hardy
from primeud.hardy import HardyExpr
from primeud.literals import parse_expr


def star_brute_force(points):
    """O(N^2) oracle: evaluate the empirical-CDF deviation at both limits of
    every jump; counts directly, no sorting."""
    pts = np.asarray(points, dtype=np.float64)
    N = len(pts)
    best = 0.0
    for b in pts:
        less = float(np.count_nonzero(pts < b))
        leq = float(np.count_nonzero(pts <= b))
        best = max(best, abs(less / N - b), abs(leq / N - b))
    return best


# -- star discrepancy --------------------------------------------------------------


def test_star_single_midpoint():
    assert star_discrepancy([0.5]) == pytest.approx(0.5)


def test_star_uniform_grid():
    for N in (1, 5, 100):
        grid = np.arange(N) / N
        assert star_discrepancy(grid) == pytest.approx(1.0 / N)


def test_star_lower_bound_invariant(rng):
    for _ in range(20):
        N = int(rng.integers(1, 300))
        pts = rng.random(N)
        assert star_discrepancy(pts) >= 1.0 / (2.0 * N) - 1e-15


def test_star_matches_brute_force_random(rng):
    for _ in range(20):
        N = int(rng.integers(1, 500))
        pts = rng.random(N)
        assert abs(star_discrepancy(pts) - star_brute_force(pts)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.9999999, allow_nan=False),
                min_size=1, max_size=60))
def test_star_matches_brute_force_property(pts):
    assert abs(star_discrepancy(pts) - star_brute_force(pts)) <= 1e-12


def test_star_validates_inputs():
    with pytest.raises(ValueError):
        star_discrepancy([])
    with pytest.raises(ValueError):
        star_discrepancy([0.2, 1.0])
    with pytest.raises(ValueError):
        star_discrepancy([-0.1])


# -- point generation -----------------------------------------------------------------


def test_fractional_parts_identity_integers():
    sample = fractional_parts(parse_expr("x"), 1, "integers", 50)
    assert np.all(sample.points == 0.0)
    assert sample.boundary_events == 50


def test_fractional_parts_half_primes(table100k):
    sample = fractional_parts(parse_expr("1/2*x"), 1, "primes", 100, table100k)
    # all odd primes land at 1/2; p = 2 lands at 0
    assert sample.points[0] == 0.0
    assert np.all(sample.points[1:] == 0.5)


def test_fractional_parts_decreasing_star(table2m):
    expr = parse_expr("x^(3/2)")
    stars = {}
    for N in (1_000, 100_000):
        pts = fractional_parts(expr, 1, "primes", N, table2m)
        stars[N] = star_discrepancy(pts.points)
    assert stars[100_000] < stars[1_000] / 2.0


def test_fractional_parts_past_2_52():
    # pi*n^3 reaches 2^57.5 at n = 400000, where dd values carry integer
    # parts in lo; Weyl's theorem makes the sequence u.d.
    sample = fractional_parts(parse_expr("pi*x^3"), 1, "integers", 400_000)
    assert star_discrepancy(sample.points) < 0.01


def test_fractional_parts_independent_of_chunks_and_threads(table2m, monkeypatch):
    expr = parse_expr("x^(1/2) + log^2")
    monkeypatch.setattr(hardy, "DEFAULT_CHUNK", 1000)
    ref = fractional_parts(expr, 1, "primes", 40_000, table2m)
    for chunk_size in (1000, 16384):
        monkeypatch.setattr(hardy, "DEFAULT_CHUNK", chunk_size)
        for threads in (1, 2):
            s = fractional_parts(expr, 1, "primes", 40_000, table2m,
                                 threads=threads)
            assert np.array_equal(s.points, ref.points)
            assert s.boundary_events == ref.boundary_events


def test_fractional_parts_needs_table():
    with pytest.raises(ValueError):
        fractional_parts(parse_expr("x"), 1, "primes", 10, None)


def test_fractional_parts_insufficient_table(table100k):
    with pytest.raises(ValueError):
        fractional_parts(parse_expr("x"), 1, "primes", 10_000, table100k)


# -- reports -----------------------------------------------------------------------------


def test_report_et_bound_dominates_star(table100k, rng):
    for literal in ("x^(1/2)", "x^(3/2)", "log"):
        rep = equidistribution_report(parse_expr(literal), 1, "primes", 2_000,
                                      table100k)
        assert rep.et_bound >= rep.star
        assert len(rep.weyl_moduli) == 10
        assert rep.N == 2_000


def test_report_computes_harmonics_once(monkeypatch, table100k):
    import primeud.discrepancy as disc

    calls, used = [], []
    real_moduli, real_et = disc.weyl_moduli, disc.erdos_turan_bound

    def spy_moduli(points, Q):
        calls.append(Q)
        return real_moduli(points, Q)

    def spy_et(points, Q, **kw):
        used.append(kw["harmonics"])
        return real_et(points, Q, **kw)

    monkeypatch.setattr(disc, "weyl_moduli", spy_moduli)
    monkeypatch.setattr(disc, "erdos_turan_bound", spy_et)
    sample = fractional_parts(parse_expr("x^(3/2)"), 1, "primes", 3_000, table100k)
    rep = disc.report_from_points(sample)
    assert calls == [disc.ET_Q]
    assert len(used[0]) == disc.ET_Q
    assert rep.weyl_moduli == tuple(real_moduli(sample.points, disc.WEYL_Q_MAX))
    assert rep.weyl_moduli == tuple(used[0][:disc.WEYL_Q_MAX])
    assert rep.et_bound == real_et(sample.points, disc.ET_Q).bound


def test_primes_in_ap_report_examples(table2m):
    rep3 = equidistribution_report(parse_expr("x^(1/2)"), 1, "primes_in_ap",
                                   1_000, table2m, modulus=4, residue=1)
    rep4 = equidistribution_report(parse_expr("x^(1/2)"), 1, "primes_in_ap",
                                   10_000, table2m, modulus=4, residue=1)
    assert rep4.star < rep3.star


def test_primes_in_ap_report_zero_expr(table100k):
    rep = equidistribution_report(HardyExpr.zero(), 1, "primes_in_ap", 100,
                                  table100k, modulus=4, residue=1)
    assert rep.star == pytest.approx(1.0)


def test_primes_in_ap_report_trivial_modulus_matches_primes(table100k):
    rep_ap = equidistribution_report(parse_expr("x^(1/2)"), 1, "primes_in_ap",
                                     2_000, table100k, modulus=1, residue=1)
    rep = equidistribution_report(parse_expr("x^(1/2)"), 1, "primes", 2_000,
                                  table100k)
    assert rep_ap.star == rep.star


def test_primes_in_ap_report_gcd_validation(table100k):
    with pytest.raises(ValueError):
        equidistribution_report(parse_expr("x^(1/2)"), 1, "primes_in_ap", 100,
                                table100k, modulus=4, residue=2)


# -- joint frequency tests -----------------------------------------------------------------


def test_joint_weyl_detects_dependence(table100k):
    res = joint_weyl_test(
        family=[parse_expr("x^(1/2)"), parse_expr("2*x^(1/2)")],
        poly_part=[],
        lattice_vectors=[(2, -1)],
        N=2_000,
        domain="primes",
        table=table100k,
    )
    assert res.max_modulus == pytest.approx(1.0)


def test_joint_weyl_independent_family(table2m):
    res = joint_weyl_test(
        family=[parse_expr("x^(1/2)")],
        poly_part=[parse_expr("sqrt(2)*x")],
        lattice_vectors=[(1, 0), (0, 1), (1, 1)],
        N=100_000,
        domain="primes",
        table=table2m,
    )
    assert res.max_modulus < 0.05
    assert len(res.per_vector) == 3


def test_joint_weyl_rejects_zero_vector(table100k):
    with pytest.raises(ValueError):
        joint_weyl_test([parse_expr("x^(1/2)")], [], [(0,)], 100,
                        "primes", table100k)
