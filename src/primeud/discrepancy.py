"""Exact discrepancy computation and equidistribution testing along
integers, primes, and primes in arithmetic progressions.

Star discrepancy is the closed-form order-statistics maximum (O(N log N)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expsums import _circle_sum, erdos_turan_bound, weyl_moduli
from .errors import GateError
from .hardy import HardyExpr, _check_magnitude, _evaluate_chunks
from .ddarith import frac_unit
from .primes import PrimeTable

ET_Q = 50  # harmonics in the Erdos-Turan bound of every report
WEYL_Q_MAX = 10  # harmonic moduli a report lists (WEYL_Q_MAX <= ET_Q)


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
                     threads: int = 1) -> PointSample:
    """First N values {q * expr(n)} over the chosen index domain, evaluated
    in compensated precision with near-integer boundary events logged."""
    if q == 0:
        raise ValueError("q must be nonzero")
    if N < 1:
        raise ValueError("N must be >= 1")
    ns = _domain_indices(domain, N, table, modulus, residue)
    _check_magnitude(expr, float(ns[-1]), q)
    if expr.is_zero:
        pts, events = np.zeros(len(ns)), 0
    else:
        parts = _evaluate_chunks(
            expr, ns, lambda v, _: frac_unit(v * float(q)), threads=threads)
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


def report_from_points(sample: PointSample) -> DiscrepancyReport:
    pts = sample.points
    star = star_discrepancy(pts)
    harmonics = weyl_moduli(pts, ET_Q)
    et = erdos_turan_bound(pts, ET_Q, star=star, harmonics=harmonics)
    if not et.holds:
        raise GateError("harmonic bound must dominate the exact star discrepancy")
    return DiscrepancyReport(
        N=len(pts), star=star, et_bound=et.bound,
        weyl_moduli=tuple(harmonics[:WEYL_Q_MAX]), source=sample.source,
        boundary_events=sample.boundary_events,
    )


def equidistribution_report(expr: HardyExpr, q: int, domain: str, N: int,
                            table: PrimeTable | None = None, *,
                            modulus: int = 1, residue: int = 0,
                            threads: int = 1) -> DiscrepancyReport:
    sample = fractional_parts(expr, q, domain, N, table, modulus=modulus,
                              residue=residue, threads=threads)
    return report_from_points(sample)


# -- joint equidistribution via finite frequency sets ---------------------------------


@dataclass(frozen=True)
class JointWeylResult:
    max_modulus: float
    per_vector: tuple[tuple[tuple[int, ...], float], ...]


def joint_weyl_test(family: Sequence[HardyExpr], poly_part: Sequence[HardyExpr],
                    lattice_vectors: Sequence[Sequence[int]], N: int,
                    domain: str, table: PrimeTable | None = None
                    ) -> JointWeylResult:
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
        sample = fractional_parts(combo, 1, domain, N, table)
        m = float(abs(_circle_sum(sample.points))) / N
        results.append((vec, m))
        worst = max(worst, m)
    return JointWeylResult(max_modulus=worst, per_vector=tuple(results))
