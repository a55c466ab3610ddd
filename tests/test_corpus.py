"""Corpus-level invariants: the decision procedure, the measured trends and
the harmonic bound must tell one consistent story across every control."""


from primeud.corpus import CONTROL_CORPUS
from primeud.discrepancy import fractional_parts, star_discrepancy
from primeud.ergodic import filtered_recurrence
from primeud.expsums import erdos_turan_bound
from primeud.hardy import boshernitzan_condition


def test_decision_procedure_matches_expected_verdicts():
    for entry in CONTROL_CORPUS:
        assert boshernitzan_condition(entry.expr) is entry.expected_ud, entry.name


def test_positive_controls_monotone_star_trend(table2m):
    for entry in (c for c in CONTROL_CORPUS if c.expected_ud):
        stars = []
        for N in (1_000, 10_000, 100_000):
            pts = fractional_parts(entry.expr, 1, "primes", N, table2m)
            stars.append(star_discrepancy(pts.points))
        assert stars[1] <= stars[0] * 1.1, entry.name
        assert stars[2] <= stars[1] * 1.1, entry.name
        assert stars[2] < stars[0] / 2.0, entry.name


def test_negative_controls_keep_mass(table2m):
    for entry in (c for c in CONTROL_CORPUS if not c.expected_ud):
        pts = fractional_parts(entry.expr, 1, "primes", 100_000, table2m)
        assert star_discrepancy(pts.points) > 0.05, entry.name


def test_harmonic_bound_dominates_on_all_controls(table2m):
    # u.d. and non-u.d. alike
    for entry in CONTROL_CORPUS:
        pts = fractional_parts(entry.expr, 1, "primes", 20_000, table2m)
        rep = erdos_turan_bound(pts.points, 50)
        assert rep.holds, entry.name


def test_divisibility_filters_keep_recurrence(table2m, examples):
    # filtering to r-divisible index vectors never drops the average below
    # mu(A)^2 - 0.02 at N = 1e4, for r in {2, 3, 6}
    for name, (sysm, spec) in examples("torus").items():
        for r in (2, 3, 6):
            res = filtered_recurrence(sysm, r, spec, 10_000, table2m)
            assert res.valid, (name, r)
            assert res.average >= res.reference_sq - 0.02, (name, r)
