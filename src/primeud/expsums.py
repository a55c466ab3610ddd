"""Exponential-sum engines over integers and primes, plus bound-vs-actual
evaluators for the classical inequalities (Weyl shift / van der Corput,
Kusmin-Landau, the iterated k-th-derivative bound, Erdos-Turan).

Phases are reduced mod 1 in compensated arithmetic before the circular
exponential is called, so sin/cos never see the raw magnitude of the phase.
Sums run through ``hardy._evaluate_chunks`` and add the per-chunk sums in
chunk order in double-double: an integer range is chunked at absolute
multiples of the chunk size, a prime list by position in the list.  A sum is
bit-deterministic for a given chunk size, whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ddarith import DD, frac_nearest
from .errors import GateError
from .hardy import (
    COMPENSATED_LIMIT,
    DEFAULT_CHUNK,
    HardyExpr,
    _evaluate_chunks,
    evaluate_array,
    differentiate,
    magnitude_bound,
    nth_derivative,
)
from .primes import PrimeTable

# Safe published explicit constants; the asymptotic statements hide theirs.
KUSMIN_LANDAU_FORM = "2/(pi*lambda) + 1"
ERDOS_TURAN_CONSTANT = 4.0
DERIVATIVE_GRID = 1024  # dense sampling for lambda/alpha estimation


def e(x):
    """e(x) = exp(2 pi i x)."""
    w = 2.0 * np.pi * np.asarray(x, dtype=np.float64)
    return np.cos(w) + 1j * np.sin(w)


@dataclass(frozen=True)
class ExpSumResult:
    sum: complex
    count: int
    normalized: float

    @staticmethod
    def make(total: complex, count: int) -> "ExpSumResult":
        mag = abs(total)
        if mag > count * (1.0 + 1e-12) + 1e-9:
            raise GateError("triangle inequality violated")
        norm = 0.0 if count == 0 else min(mag / count, 1.0)
        return ExpSumResult(sum=total, count=count, normalized=norm)


@dataclass(frozen=True)
class BoundReport:
    op: str
    actual: float
    bound: float
    holds: bool
    valid: bool = True
    advisory: bool = False
    note: str = ""
    params: dict = field(default_factory=dict)
    chunk_size: int = DEFAULT_CHUNK
    precision_mode: str = "compensated"

    @property
    def ratio(self) -> float:
        if self.bound == 0.0:
            return math.inf if self.actual > 0 else 0.0
        return self.actual / self.bound


def _make_bound_report(op, actual, bound, **kw) -> BoundReport:
    actual, bound = float(actual), float(bound)
    holds = actual <= bound * (1.0 + 1e-12) + 1e-12
    return BoundReport(op=op, actual=actual, bound=bound, holds=holds, **kw)


# -- chunked compensated summation ------------------------------------------------


def _circle_sums(q: int):
    """Per-chunk reduce: (sum cos, sum sin) of 2 pi (q * phase mod 1)."""
    def reduce(vals) -> tuple[float, float]:
        w = 2.0 * np.pi * frac_nearest(vals * float(q))
        return (float(np.sum(np.cos(w))), float(np.sum(np.sin(w))))
    return reduce


def _reduce_ordered(parts: list[tuple[float, float]]) -> complex:
    re = DD(0.0)
    im = DD(0.0)
    for r, i in parts:
        re = re + r
        im = im + i
    return complex(float(re), float(im))


def _check_magnitude(expr: HardyExpr, q: int, x_max: float) -> None:
    if magnitude_bound(expr, x_max, q) > COMPENSATED_LIMIT:
        raise OverflowError(
            "phase magnitude exceeds the compensated range "
            f"(2^{math.log2(COMPENSATED_LIMIT):g})"
        )


def weyl_sum_integers(phase: HardyExpr, q: int, a: int, b: int, *,
                      chunk_size: int = DEFAULT_CHUNK,
                      threads: int = 1) -> ExpSumResult:
    """sum_{n=a}^{b} e(q * phase(n)); compensated phase arithmetic throughout.

    a >= 1 is accepted for log-free phases (log factors need a >= 2).
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    lo = 2 if phase.has_log else 1
    if not (b >= a >= lo):
        raise ValueError(f"need b >= a >= {lo} for this phase")
    _check_magnitude(phase, q, float(b))
    parts = _evaluate_chunks(phase, np.arange(a, b + 1, dtype=np.int64),
                             _circle_sums(q), chunk_size=chunk_size,
                             threads=threads, first=a)
    return ExpSumResult.make(_reduce_ordered(parts), b - a + 1)


def weyl_sum_primes(phase: HardyExpr, q: int, X: int, table: PrimeTable, *,
                    X0: int | None = None, chunk_size: int = DEFAULT_CHUNK,
                    threads: int = 1) -> ExpSumResult:
    """sum over primes p <= X (optionally restricted to X0 < p) of
    e(q * phase(p))."""
    if q == 0:
        raise ValueError("q must be nonzero")
    if X > table.limit:
        raise ValueError("X exceeds table limit")
    _check_magnitude(phase, q, float(X))
    hi = int(np.searchsorted(table.primes, X, side="right"))
    lo = 0
    if X0 is not None:
        lo = int(np.searchsorted(table.primes, X0, side="right"))
    ps = table.primes[lo:hi]
    parts = _evaluate_chunks(phase, ps, _circle_sums(q),
                             chunk_size=chunk_size, threads=threads)
    return ExpSumResult.make(_reduce_ordered(parts), len(ps))


# -- bound evaluators ---------------------------------------------------------------


def _derivative_profile(deriv: HardyExpr, q: int, a: float, b: float):
    """Dense samples of q * deriv on [a, b]: values, monotone flag."""
    grid = np.linspace(a, b, DERIVATIVE_GRID)
    if deriv.is_zero:
        vals = np.zeros_like(grid)
    else:
        vals = q * evaluate_array(deriv, grid, "standard")
    d = np.diff(vals)
    scale = max(1e-300, float(np.max(np.abs(vals))))
    monotone = bool(np.all(d >= -1e-12 * scale) or np.all(d <= 1e-12 * scale))
    return vals, monotone


def kusmin_landau_check(phase: HardyExpr, q: int, a: int, b: int, *,
                        chunk_size: int = DEFAULT_CHUNK,
                        threads: int = 1) -> BoundReport:
    """|sum_{n=a}^{b} e(q phase(n))| against 2/(pi lambda) + 1, where lambda
    is the distance of q*phase' from the integers on [a, b].

    The hypothesis (phase' monotone, ||q phase'|| bounded away from 0) is
    verified numerically on a dense grid; violations flag the report as
    invalid rather than raising.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    lo = 2 if phase.has_log else 1
    if not b >= a >= lo:
        raise ValueError(f"need b >= a >= {lo} for this phase")
    deriv = differentiate(phase)
    vals, monotone = _derivative_profile(deriv, q, float(a), float(b))
    dist = np.abs(vals - np.rint(vals))
    lam = float(np.min(dist))
    crossed = math.floor(vals[0] + 0.5) != math.floor(vals[-1] + 0.5)
    valid = monotone and lam > 0.0 and not crossed
    note = ""
    if not monotone:
        note = "derivative not monotone on interval"
    elif crossed or lam == 0.0:
        note = "||q phase'|| reaches 0 on interval"
    s = weyl_sum_integers(phase, q, a, b, chunk_size=chunk_size, threads=threads)
    actual = abs(s.sum)
    bound = (2.0 / (math.pi * lam) + 1.0) if lam > 0 else math.inf
    rep = _make_bound_report(
        "kusmin-landau", actual, bound,
        valid=valid, note=note, chunk_size=chunk_size,
        params={"q": q, "a": a, "b": b, "lambda": lam, "count": s.count},
    )
    return rep


def vdc_inequality_check(xi: Callable[[np.ndarray], np.ndarray], H: int,
                         a: int, b: int) -> BoundReport:
    """Shifted-correlation inequality for a unit-modulus sequence on the
    interval I = (a, b]:

        |sum_{n in I} xi(n)|^2  <=  (|I|+H)/H * sum_{|h|<=H} (1-|h|/H) C_h,

    with C_h the signed shifted correlation.  Holds unconditionally; sums
    over empty shifted ranges are 0 by convention.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    if b - a < 1:
        raise ValueError("|I| must be >= 1")
    ns = np.arange(a + 1, b + 1, dtype=np.int64)
    vals = np.asarray(xi(ns), dtype=complex)
    N = len(ns)
    lhs = abs(np.sum(vals)) ** 2
    total = float(np.sum(np.abs(vals) ** 2))  # h = 0 term, weight 1
    for h in range(1, H + 1):
        if h >= N:
            break
        z = np.sum(vals[:-h] * np.conj(vals[h:]))
        total += 2.0 * (1.0 - h / H) * z.real
    bound = (N + H) / H * total
    return _make_bound_report(
        "weyl-van-der-corput", lhs, bound,
        params={"H": H, "interval": [a, b], "count": N},
        precision_mode="standard",
    )


def composite_bound_eval(phase: HardyExpr, q: int, k: int, X1: int, X: int, *,
                         constant: float = 10.0,
                         chunk_size: int = DEFAULT_CHUNK,
                         threads: int = 1) -> BoundReport:
    """k-th iterated shift bound on I = (X1, X1+X] subset (X1, 2 X1]:

        |S| <= C X [ (alpha lam)^(1/(2K-2)) + (lam X^(k+1))^(-1/K) (log X)^(k/K)
                     + (alpha log^k X / X)^(1/K) ],   K = 2^k,

    with lam <= |q phase^(k+1)| <= alpha lam estimated by dense sampling of
    the exact symbolic derivative.  The inequality's constant depends only
    on k and is never quantified, so holds is advisory; the ratio is the
    primary output.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if X < 1 or X > X1:
        raise ValueError("interval must satisfy (X1, X1+X] subset (X1, 2 X1]")
    deriv = nth_derivative(phase, k + 1)
    vals, monotone = _derivative_profile(deriv, q, float(X1 + 1), float(X1 + X))
    avals = np.abs(vals)
    lam = float(np.min(avals))
    top = float(np.max(avals))
    valid = monotone and lam > 0.0
    note = "" if valid else "derivative hypothesis fails (lambda = 0 or not monotone)"
    s = weyl_sum_integers(phase, q, X1 + 1, X1 + X,
                          chunk_size=chunk_size, threads=threads)
    actual = abs(s.sum)
    if valid:
        alpha = top / lam
        K = float(2**k)
        lx = math.log(X) if X > 1 else 1.0
        bound = constant * X * (
            (alpha * lam) ** (1.0 / (2.0 * K - 2.0))
            + (lam * X ** (k + 1)) ** (-1.0 / K) * lx ** (k / K)
            + (alpha * lx**k / X) ** (1.0 / K)
        )
    else:
        alpha = math.inf
        bound = math.inf
    rep = _make_bound_report(
        "iterated-shift-bound", actual, bound,
        valid=valid, advisory=True, note=note, chunk_size=chunk_size,
        params={"q": q, "k": k, "X1": X1, "X": X, "lambda": lam,
                "alpha": alpha, "constant": constant},
    )
    return rep


def weyl_moduli(points: np.ndarray, Q: int) -> list[tuple[int, float]]:
    """Normalized harmonic sums |sum e(q x_j)| / N for q = 1..Q.

    z_j = e(x_j) is evaluated once and z_j^q = z_j^(q-1) z_j by an in-place
    complex multiply, so the Q harmonics cost one cos/sin pass.  Each
    multiply adds a few ulps of relative error, so the error of the q-th
    modulus grows about linearly in q, like the rounding of 2 pi q x in a
    direct evaluation; it is tested against mpmath at q * 1e-15.
    """
    pts = np.asarray(points, dtype=np.float64)
    N = len(pts)
    z = e(pts)
    zq = np.ones_like(z)
    out = []
    for q in range(1, Q + 1):
        np.multiply(zq, z, out=zq)
        out.append((q, float(abs(np.sum(zq))) / N))
    return out


def erdos_turan_bound(points, Q: int, *, constant: float = ERDOS_TURAN_CONSTANT,
                      star: float | None = None,
                      harmonics: list[tuple[int, float]] | None = None
                      ) -> BoundReport:
    """Exact star discrepancy against the harmonic-sum bound

        D* <= C (1/Q + (1/N) sum_{q<=Q} (1/q) |sum_n e(q x_n)|),  C = 4.

    C = 4 dominates the classical explicit constant, so holds must be true
    for every point set.  ``star`` and ``harmonics`` (the first Q entries of
    ``weyl_moduli(points, ...)``) may be passed in when already computed.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if callable(points):
        points = points()
    pts = np.asarray(points, dtype=np.float64)
    N = len(pts)
    if N < 1:
        raise ValueError("need at least one point")
    if star is None:
        from .discrepancy import star_discrepancy

        star = star_discrepancy(pts)
    if harmonics is None:
        harmonics = weyl_moduli(pts, Q)
    elif len(harmonics) != Q:
        raise ValueError(f"need {Q} harmonics, got {len(harmonics)}")
    total = math.fsum(m / q for q, m in harmonics)
    bound = constant * (1.0 / Q + total)
    return _make_bound_report(
        "erdos-turan", star, bound,
        params={"Q": Q, "N": N, "constant": constant},
        precision_mode="standard",
    )
