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


def sieve(limit: int) -> PrimeTable:
    """All primes <= limit via an odd-only segmented sieve.

    Segments cover disjoint ranges and are concatenated in ascending order.
    """
    if not (2 <= limit <= MAX_SIEVE_LIMIT):
        raise ValueError(f"limit must be in [2, {MAX_SIEVE_LIMIT}]")
    base = _simple_sieve(math.isqrt(limit))
    ranges = []
    low = 3
    span = 2 * DEFAULT_SEGMENT
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
    ps = table.primes[: table.pi(upto)]
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
    ps = table.primes[: table.pi(x)]
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
    """Lambda (von Mangoldt) and Mobius values up to limit, the two tables
    vaughan_decompose reads."""

    limit: int
    lam: np.ndarray        # float64, lam[n] = log p if n = p^k else 0
    mobius: np.ndarray     # int8 in {-1, 0, 1}


def arith_tables(limit: int) -> ArithTables:
    """Lambda and Mobius up to limit, sieved with the primes <= sqrt(limit).

    rad[n] is the product of those primes that divide n.  A squarefree n
    with rad[n] != n has exactly one prime factor above sqrt(limit), which
    flips mu(n) once more.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    n = limit + 1
    primes = _simple_sieve(limit)

    lam = np.zeros(n, dtype=np.float64)
    lam[primes] = np.log(primes.astype(np.float64))
    mob = np.ones(n, dtype=np.int8)
    rad = np.ones(n, dtype=np.int32 if limit < 2**31 else np.int64)
    for p in primes[primes <= math.isqrt(limit)]:
        p = int(p)
        pk = p * p
        while pk <= limit:
            lam[pk] = math.log(p)
            pk *= p
        mob[p::p] *= -1
        mob[p * p :: p * p] = 0
        rad[p::p] *= p
    mob[1:][rad[1:] != np.arange(1, n, dtype=rad.dtype)] *= -1
    return ArithTables(limit=limit, lam=lam, mobius=mob)


# -- exact identities -------------------------------------------------------------


def _fsum_complex(parts) -> complex:
    """Exactly rounded total of a list or array of complex values."""
    z = np.asarray(parts, dtype=complex)
    return complex(math.fsum(z.real), math.fsum(z.imag))


def _csum(vals: np.ndarray) -> complex:
    return complex(np.sum(vals.real), np.sum(vals.imag))


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


def vaughan_decompose(gv: np.ndarray, u: int, v: int) -> VaughanReport:
    """Exact bilinear decomposition of sum_{v < n <= X} Lambda(n) g(n) into
    T1 - T2 - T3, where gv[n] = g(n) for 0 <= n <= X = len(gv) - 1.

    g(0) is never read, and g(1) only as log(1) g(1).  The left-hand sum
    runs over n strictly greater than v: with the inclusive boundary the
    identity is off by Lambda(v) g(v) whenever v is a prime power (checked
    by direct expansion), so the strict version is the exact one.
    """
    X = len(gv) - 1
    if u < 1 or v < 1:
        raise ValueError("u and v must be >= 1")
    if X < v:
        raise ValueError("X must be >= v")
    t = arith_tables(max(X, 2))
    lam, mob = t.lam[: X + 1], t.mobius
    # squarefree d <= u; a d > X adds nothing to any term
    sqfree = [int(d) for d in np.flatnonzero(mob[1 : min(u, X) + 1]) + 1]

    nz = v + 1 + np.flatnonzero(lam[v + 1 :])  # prime powers; zeros add nothing
    lhs = _fsum_complex(lam[nz] * gv[nz])

    # T1 = sum_{d<=u} mu(d) sum_{m<=X/d} log(m) g(dm)
    log_m = np.log(np.arange(1, X + 1, dtype=np.float64))
    t1 = _fsum_complex([int(mob[d]) * _csum(log_m[: X // d] * gv[d::d])
                        for d in sqfree])

    # a(m) = sum_{d<=u} sum_{n<=v, dn=m} mu(d) Lambda(n), supported on m <= uv
    small = np.flatnonzero(lam[: v + 1])  # prime powers <= v
    a = np.zeros(u * v + 1, dtype=np.float64)
    for d in sqfree:
        a[d * small] += int(mob[d]) * lam[small]
    t2 = _fsum_complex([a[m] * _csum(gv[m::m])
                        for m in np.flatnonzero(a[: min(u * v, X) + 1])])

    # b(m) = sum_{d<=u, d|m} mu(d); T3 = sum_{m>u} sum_{v<n<=X/m} b(m) Lam(n) g(mn)
    b = np.zeros(X // (v + 1) + 1, dtype=np.int64)
    for d in sqfree:
        b[d::d] += int(mob[d])
    large = v + 1 + np.flatnonzero(lam[v + 1 : X // (u + 1) + 1])  # prime powers
    parts = []
    for m in u + 1 + np.flatnonzero(b[u + 1 :]):
        nn = large[: np.searchsorted(large, X // m, side="right")]
        if nn.size:
            parts.append(int(b[m]) * _csum(lam[nn] * gv[m * nn]))
    t3 = _fsum_complex(parts)

    return VaughanReport(X=X, u=u, v=v, t1=t1, t2=t2, t3=t3, lhs=lhs)


@dataclass(frozen=True)
class PartialSummationReport:
    lhs: complex
    rhs: complex

    @property
    def diff(self) -> float:
        return abs(self.lhs - self.rhs)


def partial_summation_check(a, b) -> PartialSummationReport:
    """Both sides of the Abel summation identity
    sum a_n b_n = sum_{n<N} (a_n - a_{n+1}) B(n) + a_N B(N),
    with B(n) = b_1 + ... + b_n, for two arrays a, b of one length N >= 2."""
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if av.ndim != 1 or av.shape != bv.shape or av.size < 2:
        raise ValueError("need two 1-D sequences of one length >= 2")
    lhs = _fsum_complex(av * bv)
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
