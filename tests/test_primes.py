"""Sieve, arithmetic tables, and the exact summation identities."""

import math
import struct

import numpy as np
import pytest

from primeud.primes import (
    DEFAULT_SEGMENT,
    MAX_SIEVE_LIMIT,
    arith_tables,
    load_prime_cache,
    save_prime_cache,
    sieve,
    vaughan_decompose,
)
from primeud.primes import _fsum_complex, _simple_sieve


def _trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


# -- sieve ---------------------------------------------------------------------


def test_sieve_small():
    assert list(sieve(10).primes) == [2, 3, 5, 7]
    assert list(sieve(2).primes) == [2]
    assert list(sieve(3).primes) == [2, 3]


def test_sieve_matches_trial_division_to_1e5():
    table = sieve(100_000)
    assert list(table.primes) == _trial_division_primes(100_000)


def test_sieve_small_segments_agree():
    # 5 * 10^6 spans three segments of 2 * DEFAULT_SEGMENT numbers each
    assert 2 * (2 * DEFAULT_SEGMENT) < 5_000_000 < 3 * (2 * DEFAULT_SEGMENT)
    assert np.array_equal(sieve(5_000_000).primes, _simple_sieve(5_000_000))


def test_pi_checkpoint_invariants(table100k):
    assert table100k.pi_checkpoints[table100k.limit] == len(table100k.primes)
    oracle = len(_trial_division_primes(10_000))
    assert table100k.pi(10_000) == oracle
    assert table100k.pi_checkpoints[10_000] == oracle


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve(1)
    with pytest.raises(ValueError):
        sieve(MAX_SIEVE_LIMIT + 1)


def test_primes_strictly_increasing_and_coprime(table100k):
    ps = table100k.primes
    assert np.all(np.diff(ps) > 0)
    assert ps[0] > 1
    # spot-check: no listed prime divisible by a smaller listed prime
    rng = np.random.default_rng(5)
    for i in rng.integers(1, len(ps), size=200):
        p = int(ps[i])
        assert all(p % int(q) for q in ps[: np.searchsorted(ps, math.isqrt(p) + 1)])


# -- arithmetic tables -------------------------------------------------------------


def test_mobius_values(arith10k):
    mob = arith10k.mobius
    assert mob[1] == 1
    assert mob[4] == 0
    assert mob[6] == 1
    assert mob[2] == -1
    assert mob[30] == -1


def test_lambda_values(arith10k):
    lam = arith10k.lam
    assert lam[8] == pytest.approx(math.log(2), abs=0)
    assert lam[6] == 0.0
    assert lam[7] == pytest.approx(math.log(7), abs=0)


def test_multiplicativity_spot_checks(rng):
    t = arith_tables(1_000_000)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) != 1:
            continue
        assert t.mobius[m * n] == t.mobius[m] * t.mobius[n]
        checked += 1


def _factor(n):
    """{p: exponent} by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _lam_mu(n):
    """(Lambda(n), mu(n)) by trial division."""
    f = _factor(n)
    lam = math.log(next(iter(f))) if len(f) == 1 else 0.0
    mu = 0 if any(k > 1 for k in f.values()) else (-1) ** len(f)
    return lam, mu


def _check_lam_mu(t, n):
    lam, mu = _lam_mu(n)
    assert t.lam[n] == pytest.approx(lam, rel=1e-15, abs=0), n
    assert t.mobius[n] == mu, n


def test_arith_tables_match_trial_division():
    t = arith_tables(5_000)
    assert t.mobius.dtype == np.int8
    for n in range(1, 5_001):
        _check_lam_mu(t, n)


def test_arith_tables_past_sqrt_limit(rng):
    # sqrt(1_000_003) ~ 1000: the large prime factor of p*q, p^2*q and of
    # the primes near the limit (1_000_003 is one) is never sieved with.
    limit = 1_000_003
    t = arith_tables(limit)
    primes = sieve(limit).primes
    small, large = primes[primes <= 1000], primes[primes > 1000]
    ns = [int(n) for n in large[-20:]]
    for _ in range(300):
        q = int(rng.choice(large[large <= limit // 2]))
        p = int(rng.choice(small[small <= limit // q]))
        ns += [p * q, p * p] + ([p * p * q] if p * p * q <= limit else [])
    for p in (2, 3, 7, 31, 997):
        ns += [p**k for k in range(1, 20) if p**k <= limit]
    assert limit in ns
    for n in ns:
        _check_lam_mu(t, n)


def test_lambda_sq_window(arith100k):
    # sum_{y<=n<=2y} Lambda^2(n) / (y log y) stays in a recorded window
    lam = arith100k.lam
    for y in (1_000, 10_000, 50_000):
        total = float(np.sum(lam[y : 2 * y + 1] ** 2))
        ratio = total / (y * math.log(y))
        assert 0.5 <= ratio <= 3.0


# -- identities ---------------------------------------------------------------------


def test_vaughan_constant_g():
    rep = vaughan_decompose(np.ones(11, dtype=complex), 2, 2)
    # direct oracle: sum over (v, X] of Lambda(n) = 2 log 2 + 2 log 3 + log 5 + log 7
    oracle = 2 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert rep.lhs.real == pytest.approx(oracle, abs=1e-12)
    assert rep.residual < 1e-12


def test_vaughan_zero_g():
    rep = vaughan_decompose(np.zeros(101, dtype=complex), 3, 3)
    assert rep.t1 == rep.t2 == rep.t3 == rep.lhs == 0j


def test_vaughan_linear_phase():
    rep = vaughan_decompose(np.exp(2j * np.pi * 0.37 * np.arange(501)), 5, 5)
    assert rep.residual < 1e-9


def test_vaughan_randomized_instances(rng):
    for _ in range(20):
        X = int(rng.integers(20, 2000))
        u = int(rng.integers(1, 21))
        v = int(rng.integers(1, 21))
        X = max(X, v)
        phases = rng.random(X + 1)
        tbl = np.exp(2j * np.pi * phases)
        rep = vaughan_decompose(tbl, u, v)
        assert rep.relative_residual < 1e-9


def _vaughan_terms_by_definition(g, u, v):
    """T1, T2, T3 of the bilinear decomposition, summed term by term from
    their definitions with Lambda and mu by trial division."""
    X = len(g) - 1
    lam = [0.0] + [_lam_mu(n)[0] for n in range(1, X + 1)]
    mu = {d: _lam_mu(d)[1] for d in range(1, u + 1)}
    t1 = sum(mu[d] * math.log(m) * g[d * m]
             for d in range(1, u + 1) for m in range(1, X // d + 1))
    a = {}
    for d in range(1, u + 1):
        for n in range(1, v + 1):
            a[d * n] = a.get(d * n, 0.0) + mu[d] * lam[n]
    t2 = sum(a.get(m, 0.0) * g[m * r]
             for m in range(1, min(u * v, X) + 1) for r in range(1, X // m + 1))
    t3 = 0j
    for m in range(u + 1, X + 1):
        b = sum(mu[d] for d in range(1, u + 1) if m % d == 0)
        for n in range(v + 1, X // m + 1):
            t3 += b * lam[n] * g[m * n]
    return complex(t1), complex(t2), complex(t3)


@pytest.mark.parametrize("X, u, v", [
    (40, 3, 40),     # X = v: T3 has no n in (v, X/m]
    (150, 20, 10),   # X < u*v: a(m) is cut at X
    (300, 60, 4),    # u > X/(v+1): no m > u has an n > v
    (30, 45, 2),     # u > X: mu(d) for d > X adds nothing
    (400, 7, 9),
    (397, 11, 13),
])
def test_vaughan_terms_match_definitions(X, u, v, rng):
    g = np.exp(2j * np.pi * rng.random(X + 1))
    rep = vaughan_decompose(g, u, v)
    t1, t2, t3 = _vaughan_terms_by_definition(g.tolist(), u, v)
    assert abs(rep.t1 - t1) < 1e-12
    assert abs(rep.t2 - t2) < 1e-12
    assert abs(rep.t3 - t3) < 1e-12
    assert rep.relative_residual < 1e-9


def test_vaughan_lhs_over_prime_powers_bit_equal(rng):
    # the left-hand side sums only the prime powers in (v, X]; the exact
    # zeros it skips cannot move an exactly rounded sum
    X, v = 200_000, 100
    g = np.exp(2j * np.pi * rng.random(X + 1))
    w = arith_tables(X).lam[v + 1 :]
    full = complex(math.fsum(w * g[v + 1 :].real), math.fsum(w * g[v + 1 :].imag))
    assert vaughan_decompose(g, 10, v).lhs == full


def test_vaughan_validates_inputs():
    with pytest.raises(ValueError):
        vaughan_decompose(np.zeros(11, dtype=complex), 0, 2)
    with pytest.raises(ValueError):
        vaughan_decompose(np.zeros(4, dtype=complex), 2, 5)


def test_fsum_complex_list_and_array_exactly_rounded():
    # a left-to-right double sum loses the 1.0 in each part
    parts = [1e16 + 1j, 1.0 + 1e16j, -1e16 - 1e16j]
    assert _fsum_complex(parts) == _fsum_complex(np.array(parts)) == 1.0 + 1j


# -- prime cache ------------------------------------------------------------------------


def test_prime_cache_round_trip(tmp_path, table100k):
    path = tmp_path / "primes.bin"
    save_prime_cache(table100k, path)
    loaded = load_prime_cache(path)
    assert loaded.limit == table100k.limit
    assert np.array_equal(loaded.primes, table100k.primes)
    assert loaded.pi_checkpoints == table100k.pi_checkpoints


def test_prime_cache_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 24)
    with pytest.raises(ValueError):
        load_prime_cache(path)


@pytest.mark.parametrize("keep", [12, 500, -1])
def test_prime_cache_rejects_truncated(tmp_path, table100k, keep):
    path = tmp_path / "primes.bin"
    save_prime_cache(table100k, path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated"):
        load_prime_cache(path)


def test_prime_cache_rejects_huge_count(tmp_path):
    path = tmp_path / "forged.bin"
    path.write_bytes(b"UDPRIMES" + struct.pack("<QQQ", 1, 10_000, 2**40))
    with pytest.raises(ValueError, match="truncated"):
        load_prime_cache(path)


def test_prime_cache_write_replaces_whole_file(tmp_path, table100k, monkeypatch):
    path = tmp_path / "primes.bin"
    save_prime_cache(sieve(1000), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("primeud.primes.os.replace", fail)
    with pytest.raises(OSError):
        save_prime_cache(table100k, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["primes.bin"]


def _reference_cache_bytes(table):
    """Version-1 cache bytes built independently of `save_prime_cache`."""
    primes = np.asarray(table.primes, dtype=np.int64)
    deltas = np.diff(primes, prepend=0).astype("<u8").tobytes()
    return (b"UDPRIMES" + struct.pack("<QQQ", 1, table.limit, len(primes))
            + deltas)


# 5 * 10^6 spans three sieve segments (see test_sieve_small_segments_agree)
@pytest.mark.parametrize("limit", [2, 3, 10, 100_000, 5_000_000])
def test_prime_cache_bytes_match_reference_encoder(tmp_path, limit):
    table = sieve(limit)
    path = tmp_path / "primes.bin"
    save_prime_cache(table, path)
    assert path.read_bytes() == _reference_cache_bytes(table)
