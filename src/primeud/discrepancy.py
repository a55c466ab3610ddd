"""Exact discrepancy computation and equidistribution testing along
integers, primes, and primes in arithmetic progressions.

Star discrepancy is the closed-form order-statistics maximum (O(N log N));
the two-sided (extreme) discrepancy enumerates candidate endpoint pairs
exactly and is capped at N <= 10^4, beyond which reports carry the
[D*, 2 D*] sandwich instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expsums import (
    DEFAULT_CHUNK,
    _check_magnitude,
    erdos_turan_bound,
    weyl_moduli,
)
from .errors import GateError
from .hardy import BOUNDARY_TOL, HardyExpr, _evaluate_chunks
from .ddarith import frac_unit
from .primes import PrimeTable

EXTREME_CAP = 10_000


def _validate_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a nonempty 1-d point list")
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ValueError("points must lie in [0, 1)")
    return pts


def star_discrepancy(points) -> float:
    """Exact D*_N = max_i max(i/N - x_(i), x_(i) - (i-1)/N) over the sorted
    sample."""
    pts = np.sort(_validate_points(points))
    N = len(pts)
    i = np.arange(1, N + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / N - pts, pts - (i - 1.0) / N)))


def extreme_discrepancy(points, cap: int = EXTREME_CAP) -> float:
    """Exact two-sided discrepancy sup over subintervals [alpha, beta).

    Candidate endpoints are the sample values plus 0 and 1: the excess part
    closes the interval at sample points, the deficiency part opens it.
    Note the sup for a single point set {x} is 1 (a vanishing interval
    around x holds all the mass), and D* <= D <= 2 D* always.  O(N^2), so
    capped at N <= cap.
    """
    pts = _validate_points(points)
    N = len(pts)
    if N > cap:
        raise ValueError(f"extreme discrepancy is O(N^2); capped at N = {cap}")
    vals = np.unique(np.concatenate([pts, [0.0, 1.0]]))
    sorted_pts = np.sort(pts)
    # counts of points < v and <= v for each candidate endpoint v
    below = np.searchsorted(sorted_pts, vals, side="left").astype(np.float64)
    upto = np.searchsorted(sorted_pts, vals, side="right").astype(np.float64)
    best = 0.0
    for i in range(len(vals)):
        a = vals[i]
        bs = vals[i:]
        # closed [a, b]: maximal excess of points over length
        closed = (upto[i:] - below[i]) / N - (bs - a)
        # open (a, b): maximal deficiency
        open_ = (bs - a) - (below[i:] - upto[i]) / N
        m = max(float(np.max(closed)), float(np.max(open_)))
        if m > best:
            best = m
    return best


# -- point generation ---------------------------------------------------------------


@dataclass(frozen=True)
class PointSample:
    points: np.ndarray
    boundary_events: int
    source: dict


def _domain_indices(domain: str, N: int, table: PrimeTable | None,
                    modulus: int = 1, residue: int = 0) -> np.ndarray:
    if domain == "integers":
        return np.arange(2, N + 2, dtype=np.int64)
    if table is None:
        raise ValueError("prime domains need a prime table")
    if domain == "primes":
        return table.first(N)
    if domain == "primes_in_ap":
        if math.gcd(residue, modulus) != 1:
            raise ValueError(f"gcd({residue}, {modulus}) != 1")
        ps = table.primes[table.primes % modulus == residue % modulus]
        if len(ps) < N:
            raise ValueError(
                f"table holds {len(ps)} primes = {residue} mod {modulus}, "
                f"{N} requested"
            )
        return ps[:N]
    raise ValueError(f"unknown domain {domain!r}")


def fractional_parts(expr: HardyExpr, q: int, domain: str, N: int,
                     table: PrimeTable | None = None, *,
                     modulus: int = 1, residue: int = 0,
                     chunk_size: int = DEFAULT_CHUNK,
                     threads: int = 1) -> PointSample:
    """First N values {q * expr(n)} over the chosen index domain, evaluated
    in compensated precision with near-integer boundary events logged."""
    if q == 0:
        raise ValueError("q must be nonzero")
    if N < 1:
        raise ValueError("N must be >= 1")
    ns = _domain_indices(domain, N, table, modulus, residue)
    _check_magnitude(expr, q, float(ns[-1]))
    if expr.is_zero:
        pts, events = np.zeros(len(ns)), 0
    else:
        parts = _evaluate_chunks(
            expr, ns, lambda v: frac_unit(v * float(q), BOUNDARY_TOL),
            chunk_size=chunk_size, threads=threads)
        pts = np.concatenate([p for p, _ in parts])
        events = sum(ev for _, ev in parts)
    source = {"expr": str(expr), "q": q, "domain": domain, "N": N}
    if domain == "primes_in_ap":
        source.update({"modulus": modulus, "residue": residue})
    return PointSample(points=pts, boundary_events=events, source=source)


# -- reports -------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscrepancyReport:
    N: int
    star: float
    et_bound: float
    weyl_moduli: tuple[tuple[int, float], ...]
    source: dict
    boundary_events: int = 0
    extreme: float | None = None
    extreme_lo: float | None = None  # D* <= D <= 2 D* sandwich when capped
    extreme_hi: float | None = None


def report_from_points(sample: PointSample, *, et_Q: int = 50,
                       weyl_q_max: int = 10,
                       with_extreme: bool = False) -> DiscrepancyReport:
    pts = sample.points
    N = len(pts)
    star = star_discrepancy(pts)
    harmonics = weyl_moduli(pts, max(et_Q, weyl_q_max))
    et = erdos_turan_bound(pts, et_Q, star=star, harmonics=harmonics[:et_Q])
    if not et.holds:
        raise GateError("harmonic bound must dominate the exact star discrepancy")
    moduli = tuple(harmonics[:weyl_q_max])
    extreme = lo = hi = None
    if with_extreme:
        if N <= EXTREME_CAP:
            extreme = extreme_discrepancy(pts)
        else:
            lo, hi = star, 2.0 * star
    return DiscrepancyReport(
        N=N, star=star, et_bound=et.bound, weyl_moduli=moduli,
        source=sample.source, boundary_events=sample.boundary_events,
        extreme=extreme, extreme_lo=lo, extreme_hi=hi,
    )


def equidistribution_report(expr: HardyExpr, q: int, domain: str, N: int,
                            table: PrimeTable | None = None, *,
                            modulus: int = 1, residue: int = 0,
                            et_Q: int = 50, weyl_q_max: int = 10,
                            chunk_size: int = DEFAULT_CHUNK,
                            threads: int = 1,
                            with_extreme: bool = False) -> DiscrepancyReport:
    sample = fractional_parts(expr, q, domain, N, table, modulus=modulus,
                              residue=residue, chunk_size=chunk_size,
                              threads=threads)
    return report_from_points(sample, et_Q=et_Q, weyl_q_max=weyl_q_max,
                              with_extreme=with_extreme)


def ud_along_ap(expr: HardyExpr, q_exp: int, modulus: int, residue: int,
                N: int, table: PrimeTable, **kw) -> DiscrepancyReport:
    """Discrepancy report for {q_exp * expr(p)} over the first N primes
    congruent to residue mod modulus (gcd(residue, modulus) = 1)."""
    return equidistribution_report(expr, q_exp, "primes_in_ap", N, table,
                                   modulus=modulus, residue=residue, **kw)


# -- joint equidistribution via finite frequency sets ---------------------------------


@dataclass(frozen=True)
class JointWeylResult:
    max_modulus: float
    per_vector: tuple[tuple[tuple[int, ...], float], ...]


def joint_weyl_test(family: Sequence[HardyExpr], poly_part: Sequence[HardyExpr],
                    lattice_vectors: Sequence[Sequence[int]], N: int,
                    domain: str, table: PrimeTable | None = None, *,
                    chunk_size: int = DEFAULT_CHUNK,
                    threads: int = 1) -> JointWeylResult:
    """Max normalized harmonic modulus of sum_i a_i P_i + sum_j b_j xi_j over
    the supplied integer frequency vectors (a..., b...).  Small max is
    evidence of joint equidistribution restricted to that frequency set;
    a dependent family shows up as a modulus near 1.
    """
    dim = len(poly_part) + len(family)
    results = []
    worst = 0.0
    for vec in lattice_vectors:
        vec = tuple(int(v) for v in vec)
        if len(vec) != dim:
            raise ValueError(f"vector {vec} has wrong length (need {dim})")
        if all(v == 0 for v in vec):
            raise ValueError("zero frequency vector rejected")
        combo = HardyExpr.zero()
        for coeff, g in zip(vec, list(poly_part) + list(family)):
            if coeff:
                combo = combo + g.scale(coeff)
        sample = fractional_parts(combo, 1, domain, N, table,
                                  chunk_size=chunk_size, threads=threads)
        w = 2.0 * np.pi * sample.points
        m = float(abs(np.sum(np.cos(w)) + 1j * np.sum(np.sin(w)))) / N
        results.append((vec, m))
        worst = max(worst, m)
    return JointWeylResult(max_modulus=worst, per_vector=tuple(results))
