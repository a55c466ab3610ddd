"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s`).

The underlying statements are asymptotic, so acceptance is property-based
at desk scale: exact identities to 1e-9/1e-12, unconditional inequalities
with zero tolerated violations, and trend/margin thresholds frozen here.
"""

import json
import math
import time

import mpmath
import numpy as np

from primeud.cli import main as cli_main
from primeud.corpus import CONTROL_CORPUS
from primeud.discrepancy import fractional_parts, star_discrepancy
from primeud.ergodic import (
    DiagonalUnitarySystem,
    ergodic_average,
    lattice_recurrence_scan,
    torus_recurrence_average,
)
from primeud.expsums import erdos_turan_bound, vdc_inequality_check
from primeud.hardy import evaluate_array
from primeud.literals import parse_expr
from primeud.primes import vaughan_decompose

mpmath.mp.dps = 50

# The examples/ systems criteria 06-08 gate on, in the order they are printed.
UNITARY = ("golden-1d", "sqrt2-sqrt3-2d", "mixed-invariant-row")
TORUS = ("interval-half-golden", "interval-quarter-sqrt2", "interval-tenth-golden",
         "square-quarter-2d", "rect-tenth-2d")
LATTICE = ("multiples-of-2", "multiples-of-5", "multiples-of-10",
           "even-first-coord-2d", "5z-x-2z-2d", "block-half-2d",
           "even-first-coord-3d", "5z-first-coord-3d", "10z-split-3d")


def _systems(examples, kind, names):
    """The named examples of a kind, in the given order; every file is named."""
    built = examples(kind)
    assert sorted(built) == sorted(names), sorted(built)
    return [(name, *built[name]) for name in names]


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


# 1 -----------------------------------------------------------------------------


def test_criterion_01_vaughan_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        X = int(rng.integers(30, 10_001))
        u = int(rng.integers(1, 21))
        v = int(rng.integers(1, 21))
        X = max(X, v)
        g_table = np.exp(2j * np.pi * rng.random(X + 1))
        rep = vaughan_decompose(g_table, u, v)
        worst = max(worst, rep.relative_residual)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, "bilinear decomposition identity (50 randomized instances)",
            ok, f"worst rel residual {worst:.2e}, {elapsed:.1f}s")


# 2 -----------------------------------------------------------------------------


def _star_brute_force(points):
    pts = np.asarray(points, dtype=np.float64)
    N = len(pts)
    best = 0.0
    for b in pts:
        less = float(np.count_nonzero(pts < b))
        leq = float(np.count_nonzero(pts <= b))
        best = max(best, abs(less / N - b), abs(leq / N - b))
    return best


def test_criterion_02_star_discrepancy_oracle():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(20):
        N = int(rng.integers(1, 2001))
        kind = trial % 3
        if kind == 0:
            pts = rng.random(N)
        elif kind == 1:
            pts = (rng.random(N) * 0.2 + 0.4) % 1.0  # clustered
        else:
            pts = (np.arange(N) / max(N, 1) + rng.random()) % 1.0
        worst = max(worst, abs(star_discrepancy(pts) - _star_brute_force(pts)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    _report(2, "star discrepancy equals O(N^2) brute force (20 samples)",
            ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")


# 3 -----------------------------------------------------------------------------


def test_criterion_03_inequalities_hold():
    t0 = time.time()
    rng = np.random.default_rng(303)
    vdc_violations = 0
    for _ in range(1000):
        N = int(rng.integers(2, 250))
        H = int(rng.integers(1, 30))
        vals = np.exp(2j * np.pi * rng.random(N))
        rep = vdc_inequality_check(vals, H)
        vdc_violations += not rep.holds
    et_violations = 0
    for trial in range(1000):
        N = int(rng.integers(1, 500))
        kind = trial % 4
        if kind == 0:
            pts = rng.random(N)
        elif kind == 1:
            pts = np.full(N, float(rng.random()) * 0.999)
        elif kind == 2:
            pts = (np.arange(N) / max(N, 1) + rng.random()) % 1.0
        else:
            pts = (rng.random(N) ** 2) * 0.999
        rep = erdos_turan_bound(pts, int(rng.integers(1, 80)))
        et_violations += not rep.holds
    elapsed = time.time() - t0
    ok = vdc_violations == 0 and et_violations == 0 and elapsed < 60.0
    _report(3, "shifted-correlation + harmonic bounds (10^3 trials each)",
            ok, f"violations vdc={vdc_violations} et={et_violations}, {elapsed:.1f}s")


# 4 & 5 ---------------------------------------------------------------------------


def test_criterion_04_positive_controls(table2m):
    t0 = time.time()
    failures = []
    for entry in (c for c in CONTROL_CORPUS if c.expected_ud):
        expr = entry.expr
        s1k = star_discrepancy(
            fractional_parts(expr, 1, "primes", 1_000, table2m).points
        )
        s100k = star_discrepancy(
            fractional_parts(expr, 1, "primes", 100_000, table2m).points
        )
        if not s100k < s1k / 2.0:
            failures.append((entry.name, s1k, s100k))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    _report(4, "positive controls halve star discrepancy by N = 1e5",
            ok, f"failures={failures}, {elapsed:.1f}s")


def test_criterion_05_negative_controls(table2m):
    floors = {}
    for entry in (c for c in CONTROL_CORPUS if not c.expected_ud):
        pts = fractional_parts(entry.expr, 1, "primes", 100_000, table2m)
        floors[entry.name] = star_discrepancy(pts.points)
    ok = all(v > 0.05 for v in floors.values())
    detail = " ".join(f"{k}={v:.4f}" for k, v in floors.items())
    _report(5, "negative controls stay above the 0.05 floor", ok, detail)


# 6 -----------------------------------------------------------------------------


def test_criterion_06_unitary_averages(table2m, examples):
    devs = {}
    for name, sysm, spec in _systems(examples, "unitary", UNITARY):
        devs[name] = ergodic_average(sysm, spec.exprs, 100_000, table2m).deviation
    invariant = DiagonalUnitarySystem(
        frequencies=np.zeros((3, 2)),
        f=np.array([1 + 0j, -0.5 + 0.25j, 0.125j]),
    )
    res0 = ergodic_average(
        invariant, (parse_expr("x^(1/2)"), parse_expr("x^(1/3)")),
        100_000, table2m,
    )
    ok = all(v < 0.05 for v in devs.values()) and res0.deviation == 0.0
    detail = " ".join(f"{k}={v:.4f}" for k, v in devs.items())
    _report(6, "unitary averages: deviation < 0.05 at 1e5, invariant exact",
            ok, detail + f" invariant={res0.deviation}")


# 7 -----------------------------------------------------------------------------


def test_criterion_07_torus_margins(table2m, examples):
    margins = {}
    for name, sysm, spec in _systems(examples, "torus", TORUS):
        margins[name] = torus_recurrence_average(sysm, spec, 100_000,
                                                 table2m).margin
    ok = all(m >= -0.005 for m in margins.values())
    detail = " ".join(f"{k}={v:+.5f}" for k, v in margins.items())
    _report(7, "torus recurrence margins >= -0.005 at N = 1e5", ok, detail)


# 8 -----------------------------------------------------------------------------


def test_criterion_08_lattice_hits(table2m, examples):
    margins = {}
    for name, E, spec in _systems(examples, "lattice", LATTICE):
        res = lattice_recurrence_scan(E, spec, 10_000, table2m)
        margins[name] = res.hit_density - res.dstar_sq
    ok = all(m >= -0.02 for m in margins.values())
    detail = " ".join(f"{k}={v:+.4f}" for k, v in margins.items())
    _report(8, "difference-set hit density >= d*^2 - 0.02 at N = 1e4",
            ok, detail)


# 9 -----------------------------------------------------------------------------


def test_criterion_09_residue_class_balance(table2m):
    # |pi(x; q, a) phi(q) / pi(x) - 1| over q <= 10 and gcd(a, q) = 1
    ps = table2m.primes[: table2m.pi(10**6)]
    devs = {}
    for q in range(2, 11):
        counts = np.bincount(ps % q, minlength=q)
        reduced = [a for a in range(1, q) if math.gcd(a, q) == 1]
        for a in reduced:
            devs[(q, a)] = abs(counts[a] * len(reduced) / len(ps) - 1.0)
    worst = max(devs, key=devs.get)
    ok = devs[worst] < 0.05
    _report(9, "residue-class prime counts balance at x = 1e6",
            ok, f"max deviation {devs[worst]:.5f} at {worst}")


# 10 ----------------------------------------------------------------------------


def test_criterion_10_compensated_fractional_parts():
    rng = np.random.default_rng(1010)
    expr = parse_expr("x^(3/2)")
    xs = rng.integers(2, 10**9, size=1000).astype(np.float64)
    vals = evaluate_array(expr, xs, "compensated")
    worst = 0.0
    for i in range(len(xs)):
        exact = mpmath.power(int(xs[i]), mpmath.mpf(3) / 2)
        got = mpmath.mpf(float(vals.hi[i])) + mpmath.mpf(float(vals.lo[i]))
        d = got - exact
        worst = max(worst, float(abs(d - mpmath.nint(d))))
    ok = worst < 1e-9
    _report(10, "compensated fractional parts match 50-digit oracle",
            ok, f"worst |frac error| {worst:.2e}")


# 11 ----------------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"corpus_{tag}.json"
        code = cli_main(["corpus-run", "--N", "10000",
                         "--table-limit", "200000", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    blob = json.loads(outs[0])
    _report(11, "identical corpus runs produce byte-identical artifacts",
            ok and blob["results"]["all_pass"],
            f"{len(outs[0])} bytes, hash {blob['config_hash']}")
