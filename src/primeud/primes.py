"""Segmented prime sieve, arithmetic-function tables, and the exact
summation identities (bilinear decomposition of weighted prime sums, Abel
summation) that the exponential-sum machinery rests on.

All tables are numpy arrays, immutable by convention after construction.
The sieve works on odd numbers in cache-sized segments so limits in the
1e8-1e9 range stay memory-bounded.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEGMENT = 1 << 20  # odd numbers per segment (~1 MB of bool mask)
MAX_SIEVE_LIMIT = 1 << 40

_CACHE_MAGIC = b"UDPRIMES"
_CACHE_VERSION = 1


@dataclass(frozen=True)
class PrimeTable:
    limit: int
    primes: np.ndarray  # ascending int64

    @property
    def pi_checkpoints(self) -> dict[int, int]:
        """pi(x) at x = 10, 100, ... up to the limit, and at the limit."""
        checkpoints = {}
        x = 10
        while x <= self.limit:
            checkpoints[x] = self.pi(x)
            x *= 10
        checkpoints[self.limit] = len(self.primes)
        return checkpoints

    def pi(self, x) -> int:
        """pi(x) = number of primes <= x."""
        if x > self.limit:
            raise ValueError(f"pi({x}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self.primes, x, side="right"))

    def first(self, n: int) -> np.ndarray:
        if n > len(self.primes):
            raise ValueError(
                f"table holds {len(self.primes)} primes, {n} requested"
            )
        return self.primes[:n]

    def nth(self, n: int) -> int:
        """1-indexed n-th prime."""
        return int(self.first(n)[-1])


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _sieve_segment(low: int, high: int, base: np.ndarray) -> np.ndarray:
    """Primes among the odd numbers in [low, high); low odd."""
    count = (high - low + 1) // 2
    mask = np.ones(count, dtype=bool)
    for p in base[1:]:  # odd base primes
        p = int(p)
        start = max(p * p, ((low + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= high:
            continue
        mask[(start - low) // 2 :: p] = False
    return low + 2 * np.flatnonzero(mask).astype(np.int64)


def sieve(limit: int, segment_size: int = DEFAULT_SEGMENT,
          max_limit: int = MAX_SIEVE_LIMIT) -> PrimeTable:
    """All primes <= limit via an odd-only segmented sieve.

    Segments cover disjoint ranges and are concatenated in ascending order.
    """
    if not (2 <= limit <= max_limit):
        raise ValueError(f"limit must be in [2, {max_limit}]")
    base = _simple_sieve(math.isqrt(limit))
    ranges = []
    low = 3
    span = 2 * segment_size
    while low <= limit:
        high = min(low + span, limit + 1)  # exclusive
        ranges.append((low, high))
        low = high if high % 2 == 1 else high + 1
    chunks = [np.array([2], dtype=np.int64)]
    chunks += [_sieve_segment(lo, hi, base) for lo, hi in ranges]
    return PrimeTable(limit=limit, primes=np.concatenate(chunks))


def primes_in_ap(table: PrimeTable, q: int, a: int, upto: int) -> int:
    """pi(x; q, a) = #{p <= x : p = a mod q}; requires gcd(a, q) = 1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1: residue class not reduced")
    if upto > table.limit:
        raise ValueError("x exceeds table limit")
    ps = table.primes[: np.searchsorted(table.primes, upto, side="right")]
    return int(np.count_nonzero(ps % q == a % q))


@dataclass(frozen=True)
class ApBalanceReport:
    x: int
    q_max: int
    max_deviation: float
    worst: tuple[int, int]
    rows: tuple[tuple[int, int, int, float], ...]  # (q, a, count, deviation)


def ap_balance_report(table: PrimeTable, q_max: int, x: int) -> ApBalanceReport:
    """Deviation of prime counts in reduced residue classes from perfect
    balance: max over q <= q_max, gcd(a,q)=1 of |pi(x;q,a) phi(q) / pi(x) - 1|."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if x > table.limit:
        raise ValueError("x exceeds table limit")
    ps = table.primes[: np.searchsorted(table.primes, x, side="right")]
    pix = len(ps)
    rows = []
    worst = (0, 0)
    max_dev = 0.0
    for q in range(2, q_max + 1):
        residues = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        phi_q = len(residues)
        mods = ps % q
        for a in residues:
            count = int(np.count_nonzero(mods == a % q))
            dev = abs(count * phi_q / pix - 1.0)
            rows.append((q, a, count, dev))
            if dev > max_dev:
                max_dev, worst = dev, (q, a)
    return ApBalanceReport(x=x, q_max=q_max, max_deviation=max_dev,
                           worst=worst, rows=tuple(rows))


# -- arithmetic-function tables -------------------------------------------------


@dataclass(frozen=True)
class ArithTables:
    """Lambda (von Mangoldt), Mobius and totient values up to limit.

    lam[n] stores log p for prime powers; lam_base[n] stores the prime p
    itself, so prime-power membership is an integer lookup rather than a
    float comparison.
    """

    limit: int
    lam: np.ndarray        # float64, lam[n] = log p if n = p^k else 0
    lam_base: np.ndarray   # int64, p for prime powers, else 0
    mobius: np.ndarray     # int8 in {-1, 0, 1}
    phi: np.ndarray        # int64

    def is_prime_power(self, n: int) -> bool:
        return self.lam_base[n] != 0


def arith_tables(limit: int) -> ArithTables:
    if limit < 2:
        raise ValueError("limit must be >= 2")
    n = limit + 1
    primes = _simple_sieve(limit)

    lam = np.zeros(n, dtype=np.float64)
    lam_base = np.zeros(n, dtype=np.int64)
    lam[primes] = np.log(primes.astype(np.float64))
    lam_base[primes] = primes
    for p in primes[primes <= math.isqrt(limit)]:
        p = int(p)
        pk = p * p
        while pk <= limit:
            lam[pk] = math.log(p)
            lam_base[pk] = p
            pk *= p

    mob = np.ones(n, dtype=np.int64)
    for p in primes:
        p = int(p)
        mob[p::p] *= -1
        sq = p * p
        if sq <= limit:
            mob[sq::sq] = 0

    phi = np.arange(n, dtype=np.int64)
    for p in primes:
        p = int(p)
        phi[p::p] -= phi[p::p] // p

    return ArithTables(limit=limit, lam=lam, lam_base=lam_base,
                       mobius=mob.astype(np.int8), phi=phi)


# -- exact identities -------------------------------------------------------------


def _fsum_complex(parts: list[complex]) -> complex:
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


@dataclass(frozen=True)
class VaughanReport:
    X: int
    u: int
    v: int
    t1: complex
    t2: complex
    t3: complex
    lhs: complex  # sum over v < n <= X of Lambda(n) g(n)

    @property
    def rhs(self) -> complex:
        return self.t1 - self.t2 - self.t3

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_residual(self) -> float:
        return self.residual / (1.0 + abs(self.lhs))


def vaughan_decompose(g: Callable[[np.ndarray], np.ndarray], X: int, u: int,
                      v: int, tables: ArithTables | None = None) -> VaughanReport:
    """Exact bilinear decomposition of sum_{v < n <= X} Lambda(n) g(n) into
    T1 - T2 - T3.

    g must be vectorized (int64 array -> complex array).  The left-hand sum
    runs over n strictly greater than v: with the inclusive boundary the
    identity is off by Lambda(v) g(v) whenever v is a prime power (checked
    by direct expansion), so the strict version is the exact one.
    """
    if u < 1 or v < 1:
        raise ValueError("u and v must be >= 1")
    if X < v:
        raise ValueError("X must be >= v")
    t = tables if tables is not None and tables.limit >= X else arith_tables(max(X, 2))
    lam, mob = t.lam, t.mobius

    ns = np.arange(v + 1, X + 1, dtype=np.int64)
    if ns.size:
        w = lam[ns]
        gv = g(ns)
        lhs = complex(math.fsum(w * gv.real), math.fsum(w * gv.imag))
    else:
        lhs = 0j

    # T1 = sum_{d<=u} mu(d) sum_{m<=X/d} log(m) g(dm)
    parts = []
    for d in range(1, u + 1):
        mu_d = int(mob[d])
        if mu_d == 0:
            continue
        ms = np.arange(1, X // d + 1, dtype=np.int64)
        vals = np.log(ms.astype(np.float64)) * g(d * ms)
        parts.append(mu_d * complex(np.sum(vals.real), np.sum(vals.imag)))
    t1 = _fsum_complex(parts)

    # a(m) = sum_{d<=u} sum_{n<=v, dn=m} mu(d) Lambda(n), supported on m <= uv
    a = np.zeros(u * v + 1, dtype=np.float64)
    for d in range(1, u + 1):
        mu_d = int(mob[d])
        if mu_d == 0:
            continue
        for nn in range(1, v + 1):
            if lam[nn] != 0.0:
                a[d * nn] += mu_d * lam[nn]
    parts = []
    for m in range(1, min(u * v, X) + 1):
        if a[m] == 0.0:
            continue
        rs = np.arange(1, X // m + 1, dtype=np.int64)
        vals = g(m * rs)
        parts.append(a[m] * complex(np.sum(vals.real), np.sum(vals.imag)))
    t2 = _fsum_complex(parts)

    # b(m) = sum_{d<=u, d|m} mu(d); T3 = sum_{m>u} sum_{v<n<=X/m} b(m) Lam(n) g(mn)
    m_max = X // (v + 1)
    b = np.zeros(m_max + 1, dtype=np.int64)
    for d in range(1, min(u, m_max) + 1):
        if mob[d] != 0:
            b[d::d] += int(mob[d])
    parts = []
    for m in range(u + 1, m_max + 1):
        if b[m] == 0:
            continue
        nn = np.arange(v + 1, X // m + 1, dtype=np.int64)
        w = lam[nn]
        nz = w != 0.0
        if not np.any(nz):
            continue
        vals = w[nz] * g(m * nn[nz])
        parts.append(int(b[m]) * complex(np.sum(vals.real), np.sum(vals.imag)))
    t3 = _fsum_complex(parts)

    return VaughanReport(X=X, u=u, v=v, t1=t1, t2=t2, t3=t3, lhs=lhs)


@dataclass(frozen=True)
class PartialSummationReport:
    lhs: complex
    rhs: complex

    @property
    def diff(self) -> float:
        return abs(self.lhs - self.rhs)


def _as_values(seq, X1: int, X2: int) -> np.ndarray:
    if callable(seq):
        return np.asarray([complex(seq(n)) for n in range(X1, X2 + 1)], dtype=complex)
    vals = np.asarray(seq, dtype=complex)
    if vals.size != X2 - X1 + 1:
        raise ValueError("sequence length must match [X1, X2]")
    return vals


def partial_summation_check(a, b, X1: int, X2: int) -> PartialSummationReport:
    """Both sides of the Abel summation identity
    sum a_n b_n = sum_{n<X2} (a_n - a_{n+1}) B(n) + a_{X2} B(X2),
    with B(n) = sum_{m=X1}^n b_m.  Sequences are callables on [X1, X2] or
    arrays of length X2 - X1 + 1."""
    if not X1 < X2:
        raise ValueError("need X1 < X2")
    av = _as_values(a, X1, X2)
    bv = _as_values(b, X1, X2)
    lhs = complex(math.fsum((av * bv).real), math.fsum((av * bv).imag))
    B = np.cumsum(bv)
    pieces = (av[:-1] - av[1:]) * B[:-1]
    rhs = complex(math.fsum(pieces.real) + (av[-1] * B[-1]).real,
                  math.fsum(pieces.imag) + (av[-1] * B[-1]).imag)
    return PartialSummationReport(lhs=lhs, rhs=rhs)


# -- on-disk prime cache ----------------------------------------------------------


def save_prime_cache(table: PrimeTable, path) -> None:
    """Little-endian u64 deltas with header (magic, version, limit, count).

    The file is written under a temporary name and then renamed over
    `path`, so a reader never sees a half-written cache.
    """
    primes = table.primes
    deltas = np.empty(len(primes), dtype="<u8")
    if len(primes):
        deltas[0] = primes[0]
        deltas[1:] = np.diff(primes).astype("<u8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CACHE_MAGIC)
            f.write(struct.pack("<QQQ", _CACHE_VERSION, table.limit, len(primes)))
            f.write(deltas.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_prime_cache(path) -> PrimeTable:
    """Read a cache written by `save_prime_cache`; ValueError if the file is
    not one or is shorter than its header says."""
    with open(path, "rb") as f:
        header = f.read(32)
        if header[:8] != _CACHE_MAGIC:
            raise ValueError("not a prime cache file (bad magic)")
        if len(header) < 32:
            raise ValueError("truncated prime cache")
        version, limit, count = struct.unpack_from("<QQQ", header, 8)
        if version != _CACHE_VERSION:
            raise ValueError(f"unsupported cache version {version}")
        if 32 + 8 * count > os.path.getsize(path):  # before read() allocates it
            raise ValueError("truncated prime cache")
        deltas = np.frombuffer(f.read(8 * count), dtype="<u8")
    return PrimeTable(limit=int(limit), primes=np.cumsum(deltas, dtype=np.int64))
