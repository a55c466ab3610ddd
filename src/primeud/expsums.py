"""Exponential-sum engines over integers and primes, plus bound-vs-actual
evaluators for the classical inequalities (Weyl shift / van der Corput,
Kusmin-Landau, the iterated k-th-derivative bound, Erdos-Turan).

Phases are reduced mod 1 in compensated arithmetic before the circular
exponential is called, so sin/cos never see the raw magnitude of the phase.
Sums run through ``hardy._evaluate_chunks`` and add the per-chunk sums
with an exactly rounded ``math.fsum``: an integer range is chunked at
absolute multiples of the chunk size, a prime list by position in the list.
A sum is byte-identical at any thread count; the chunk size is the constant
``hardy.DEFAULT_CHUNK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ddarith import frac_nearest
from .errors import GateError
from .hardy import (
    HardyExpr,
    _check_magnitude,
    _evaluate_chunks,
    evaluate_array,
    differentiate,
    nth_derivative,
)
from .primes import PrimeTable, _fsum_complex

# A safe published explicit constant; the asymptotic statement hides it.
ERDOS_TURAN_CONSTANT = 4.0
# The iterated shift bound's constant is unquantified; its report is advisory.
COMPOSITE_CONSTANT = 10.0
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


def _circle_sum(x) -> np.complex128:
    """sum_j e(x_j) as (sum cos) + i (sum sin) of 2 pi x."""
    w = 2.0 * np.pi * np.asarray(x, dtype=np.float64)
    return np.sum(np.cos(w)) + 1j * np.sum(np.sin(w))


def _circle_sums(q: int):
    """Per-chunk reduce: the circle sum of q * phase mod 1."""
    return lambda vals, _: _circle_sum(frac_nearest(vals * float(q)))


def weyl_sum_integers(phase: HardyExpr, q: int, a: int, b: int, *,
                      threads: int = 1) -> ExpSumResult:
    """sum_{n=a}^{b} e(q * phase(n)); compensated phase arithmetic throughout.

    a >= 1 is accepted for log-free phases (log factors need a >= 2).
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    lo = 2 if phase.has_log else 1
    if not (b >= a >= lo):
        raise ValueError(f"need b >= a >= {lo} for this phase")
    _check_magnitude(phase, float(b), q)
    parts = _evaluate_chunks(phase, np.arange(a, b + 1, dtype=np.int64),
                             _circle_sums(q), threads=threads, first=a)
    return ExpSumResult.make(_fsum_complex(parts), b - a + 1)


def weyl_sum_primes(phase: HardyExpr, q: int, X: int, table: PrimeTable, *,
                    X0: int | None = None, threads: int = 1) -> ExpSumResult:
    """sum over primes p <= X (optionally restricted to X0 < p) of
    e(q * phase(p))."""
    if q == 0:
        raise ValueError("q must be nonzero")
    hi = table.pi(X)
    _check_magnitude(phase, float(X), q)
    lo = 0
    if X0 is not None:
        lo = int(np.searchsorted(table.primes, X0, side="right"))
    ps = table.primes[lo:hi]
    parts = _evaluate_chunks(phase, ps, _circle_sums(q), threads=threads)
    return ExpSumResult.make(_fsum_complex(parts), len(ps))


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
                        threads: int = 1) -> BoundReport:
    """|sum_{n=a}^{b} e(q phase(n))| against 2/(pi lambda) + 1, where lambda
    is the distance of q*phase' from the integers on [a, b].

    The hypothesis (phase' monotone, ||q phase'|| bounded away from 0) is
    verified numerically on a dense grid; violations flag the report as
    invalid rather than raising.
    """
    s = weyl_sum_integers(phase, q, a, b, threads=threads)
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
    actual = abs(s.sum)
    bound = (2.0 / (math.pi * lam) + 1.0) if lam > 0 else math.inf
    rep = _make_bound_report(
        "kusmin-landau", actual, bound,
        valid=valid, note=note,
        params={"q": q, "a": a, "b": b, "lambda": lam, "count": s.count},
    )
    return rep


def vdc_inequality_check(vals, H: int) -> BoundReport:
    """Shifted-correlation inequality for a unit-modulus sequence
    xi(n) = vals[n - 1] on the interval I = (0, N], N = len(vals):

        |sum_{n in I} xi(n)|^2  <=  (|I|+H)/H * sum_{|h|<=H} (1-|h|/H) C_h,

    with C_h the signed shifted correlation.  Holds unconditionally; sums
    over empty shifted ranges are 0 by convention.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    vals = np.asarray(vals, dtype=complex)
    N = len(vals)
    if N < 1:
        raise ValueError("|I| must be >= 1")
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
        params={"H": H, "interval": [0, N], "count": N},
        precision_mode="standard",
    )


def composite_bound_eval(phase: HardyExpr, q: int, k: int, X1: int, X: int, *,
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
    s = weyl_sum_integers(phase, q, X1 + 1, X1 + X, threads=threads)
    actual = abs(s.sum)
    if valid:
        alpha = top / lam
        K = float(2**k)
        lx = math.log(X) if X > 1 else 1.0
        bound = COMPOSITE_CONSTANT * X * (
            (alpha * lam) ** (1.0 / (2.0 * K - 2.0))
            + (lam * X ** (k + 1)) ** (-1.0 / K) * lx ** (k / K)
            + (alpha * lx**k / X) ** (1.0 / K)
        )
    else:
        alpha = math.inf
        bound = math.inf
    rep = _make_bound_report(
        "iterated-shift-bound", actual, bound,
        valid=valid, advisory=True, note=note,
        params={"q": q, "k": k, "X1": X1, "X": X, "lambda": lam,
                "alpha": alpha, "constant": COMPOSITE_CONSTANT},
    )
    return rep


def _cell_moments(points: np.ndarray, M: int, K: int):
    """mu_k[b] = sum of delta_j^k over the points in cell b, for k < K, one
    k at a time: b_j = floor(M x_j), exact for a power of 2 M, and
    delta_j = x_j - (b_j + 1/2) / M, so |delta_j| <= 1/(2M)."""
    cells = (points * M).astype(np.intp)
    delta = cells + 0.5
    delta *= 1.0 / M
    np.subtract(points, delta, out=delta)
    power = np.empty_like(delta)
    weights = None
    for k in range(K):
        if k == 1:
            weights = delta
        elif k > 1:
            weights = np.multiply(weights, delta, out=power)
        yield np.bincount(cells, weights, minlength=M)


def weyl_moduli(points: np.ndarray, Q: int) -> list[tuple[int, float]]:
    """Normalized harmonic sums |sum e(q x_j)| / N for q = 1..Q, x_j in [0, 1).

    A Taylor-expansion nonuniform DFT (Anderson and Dahleh, SIAM J. Sci.
    Comput. 17(4), 1996).  [0, 1) is cut into M cells, M the least power of
    2 at or above max(4096, 16 Q).  With the cell moments mu_k of
    _cell_moments and R_k their real FFT,

        sum_j e(-q x_j) = e(-q/2M) sum_k (-2 pi i q)^k / k! R_k[q],

    and |sum_j e(-q x_j)| = |sum_j e(q x_j)|, so the unit factor e(-q/2M)
    drops out.  Each point's series is that of e(-q delta_j), whose terms
    are at most t^k / k! with t = pi q / M <= pi / 16.  So the sum for q
    stops at the least K(q) with t^K / K! e^t < 2^-60 (K <= 13), which
    bounds the truncation error of the q-th modulus by 2^-60.  For every Q
    up to 20,000 that product, at K(q) and at K(q) - 1, is more than 2.8e-5
    relative away from 2^-60, so a last-bit difference in exp cannot move
    K.  K(q) depends on q and M only, so while M = 4096 (Q <= 256) the q-th
    modulus does not depend on Q.  The N-length work is real (bincount sums
    and in-place products) and the K(q) terms are combined in Python
    floats: no complex ufunc multiply, whose bits move with numpy's SIMD
    level, is on the path.
    """
    pts = np.asarray(points, dtype=np.float64)
    N = len(pts)
    if not (N and pts.min() >= 0.0 and pts.max() < 1.0):
        raise ValueError("harmonic sums need a nonempty set of points in [0, 1)")
    M = 1 << max(12, (16 * Q - 1).bit_length())
    orders = []
    for q in range(1, Q + 1):
        t = math.pi * q / M
        K, tail = 0, math.exp(t)  # t^K / K! e^t
        while tail >= 2.0**-60:
            K += 1
            tail *= t / K
        orders.append(K)
    spectra = [np.fft.rfft(mu)[1:Q + 1].tolist()
               for mu in _cell_moments(pts, M, max(orders, default=0))]
    rotations = (1, -1j, -1, 1j)  # (-i)^k
    out = []
    for q, K in enumerate(orders, start=1):
        coef, terms = 1.0, []
        for k in range(K):
            terms.append(coef * rotations[k % 4] * spectra[k][q - 1])
            coef *= 2.0 * math.pi * q / (k + 1)
        total = complex(math.fsum(z.real for z in terms),
                        math.fsum(z.imag for z in terms))
        out.append((q, abs(total) / N))
    return out


def _erdos_turan(star: float, harmonics: list[tuple[int, float]],
                 N: int) -> BoundReport:
    """Erdos-Turan report of ``star`` against Q = len(harmonics) moduli."""
    Q = len(harmonics)
    total = math.fsum(m / q for q, m in harmonics)
    bound = ERDOS_TURAN_CONSTANT * (1.0 / Q + total)
    return _make_bound_report(
        "erdos-turan", star, bound,
        params={"Q": Q, "N": N, "constant": ERDOS_TURAN_CONSTANT},
        precision_mode="standard",
    )


def erdos_turan_bound(points, Q: int) -> BoundReport:
    """Exact star discrepancy against the harmonic-sum bound

        D* <= C (1/Q + (1/N) sum_{q<=Q} (1/q) |sum_n e(q x_n)|),  C = 4.

    C = 4 dominates the classical explicit constant, so holds must be true
    for every point set.
    """
    from .discrepancy import star_discrepancy

    if Q < 1:
        raise ValueError("Q must be >= 1")
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 1:
        raise ValueError("need at least one point")
    return _erdos_turan(star_discrepancy(pts), weyl_moduli(pts, Q), len(pts))
