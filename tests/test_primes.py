"""Sieve, arithmetic tables, and the exact summation identities."""

import math
import struct

import numpy as np
import pytest

from primeud.primes import (
    ap_balance_report,
    arith_tables,
    load_prime_cache,
    partial_summation_check,
    primes_in_ap,
    save_prime_cache,
    sieve,
    vaughan_decompose,
)


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
    a = sieve(50_000, segment_size=1000)
    b = sieve(50_000)
    assert np.array_equal(a.primes, b.primes)


def test_pi_checkpoint_invariants(table100k):
    assert table100k.pi_checkpoints[table100k.limit] == len(table100k.primes)
    oracle = len(_trial_division_primes(10_000))
    assert table100k.pi(10_000) == oracle
    assert table100k.pi_checkpoints[10_000] == oracle


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve(1)
    with pytest.raises(ValueError):
        sieve(10, max_limit=5)


def test_primes_strictly_increasing_and_coprime(table100k):
    ps = table100k.primes
    assert np.all(np.diff(ps) > 0)
    assert ps[0] > 1
    # spot-check: no listed prime divisible by a smaller listed prime
    rng = np.random.default_rng(5)
    for i in rng.integers(1, len(ps), size=200):
        p = int(ps[i])
        assert all(p % int(q) for q in ps[: np.searchsorted(ps, math.isqrt(p) + 1)])


# -- residue classes -------------------------------------------------------------


def test_primes_in_ap_examples(table100k):
    # oracle: filter the sieve output by residue
    ps = [p for p in _trial_division_primes(20) if p % 4 == 1]
    assert ps == [5, 13, 17]
    assert primes_in_ap(table100k, 4, 1, 20) == 3
    assert primes_in_ap(table100k, 1, 1, 50_000) == table100k.pi(50_000)
    with pytest.raises(ValueError):
        primes_in_ap(table100k, 2, 2, 100)


def test_primes_in_ap_oracle_random(table100k, rng):
    for _ in range(20):
        q = int(rng.integers(2, 30))
        a = int(rng.integers(1, q))
        if math.gcd(a, q) != 1:
            continue
        x = int(rng.integers(100, 50_000))
        oracle = sum(1 for p in table100k.primes[table100k.primes <= x] if p % q == a)
        assert primes_in_ap(table100k, q, a, x) == oracle


def test_ap_balance_q2(table100k):
    rep = ap_balance_report(table100k, 2, 50_000)
    pix = table100k.pi(50_000)
    q2 = [r for r in rep.rows if r[0] == 2]
    assert len(q2) == 1
    assert q2[0][3] == pytest.approx(1.0 / pix, rel=1e-9)


def test_ap_balance_q3_has_both_residues(table100k):
    rep = ap_balance_report(table100k, 3, 1000)
    residues = {(q, a) for q, a, _, _ in rep.rows if q == 3}
    assert residues == {(3, 1), (3, 2)}


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
    assert arith10k.is_prime_power(8)
    assert arith10k.lam_base[8] == 2
    assert not arith10k.is_prime_power(6)


def test_phi_values(arith10k):
    phi = arith10k.phi
    assert phi[12] == 4
    assert phi[1] == 1
    assert phi[7] == 6


def test_phi_divisor_sum(arith10k):
    # sum_{d | n} phi(d) = n, spot-checked
    for n in (1, 2, 12, 36, 97, 360, 1024, 9999):
        total = sum(int(arith10k.phi[d]) for d in range(1, n + 1) if n % d == 0)
        assert total == n


def test_multiplicativity_spot_checks(rng):
    t = arith_tables(1_000_000)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) != 1:
            continue
        assert t.mobius[m * n] == t.mobius[m] * t.mobius[n]
        assert t.phi[m * n] == t.phi[m] * t.phi[n]
        checked += 1


def test_lambda_sq_window(arith100k):
    # sum_{y<=n<=2y} Lambda^2(n) / (y log y) stays in a recorded window
    lam = arith100k.lam
    for y in (1_000, 10_000, 50_000):
        total = float(np.sum(lam[y : 2 * y + 1] ** 2))
        ratio = total / (y * math.log(y))
        assert 0.5 <= ratio <= 3.0


# -- identities ---------------------------------------------------------------------


def test_vaughan_constant_g(arith10k):
    rep = vaughan_decompose(lambda ns: np.ones(len(ns), dtype=complex),
                            10, 2, 2, tables=arith10k)
    # direct oracle: sum over (v, X] of Lambda(n) = 2 log 2 + 2 log 3 + log 5 + log 7
    oracle = 2 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert rep.lhs.real == pytest.approx(oracle, abs=1e-12)
    assert rep.residual < 1e-12


def test_vaughan_zero_g(arith10k):
    rep = vaughan_decompose(lambda ns: np.zeros(len(ns), dtype=complex),
                            100, 3, 3, tables=arith10k)
    assert rep.t1 == rep.t2 == rep.t3 == rep.lhs == 0j


def test_vaughan_linear_phase(arith10k):
    def g(ns):
        return np.exp(2j * np.pi * 0.37 * ns)

    rep = vaughan_decompose(g, 500, 5, 5, tables=arith10k)
    assert rep.residual < 1e-9


def test_vaughan_randomized_instances(arith10k, rng):
    for _ in range(20):
        X = int(rng.integers(20, 2000))
        u = int(rng.integers(1, 21))
        v = int(rng.integers(1, 21))
        X = max(X, v)
        phases = rng.random(X + 1)
        tbl = np.exp(2j * np.pi * phases)
        rep = vaughan_decompose(lambda ns, t=tbl: t[ns], X, u, v, tables=arith10k)
        assert rep.relative_residual < 1e-9


def test_vaughan_validates_inputs(arith10k):
    with pytest.raises(ValueError):
        vaughan_decompose(lambda ns: ns, 10, 0, 2, tables=arith10k)
    with pytest.raises(ValueError):
        vaughan_decompose(lambda ns: ns, 3, 2, 5, tables=arith10k)


# -- partial summation ----------------------------------------------------------------


def test_partial_summation_constant_a():
    rep = partial_summation_check(lambda n: 1.0, lambda n: n * n, 1, 10)
    assert rep.lhs == rep.rhs
    assert rep.lhs == pytest.approx(sum(n * n for n in range(1, 11)))


def test_partial_summation_arithmetic():
    rep = partial_summation_check(lambda n: n, lambda n: 1.0, 1, 5)
    assert rep.lhs == pytest.approx(15.0)
    assert rep.diff < 1e-12


def test_partial_summation_random_complex(rng):
    a = rng.random(1000) + 1j * rng.random(1000)
    b = rng.random(1000) + 1j * rng.random(1000)
    rep = partial_summation_check(a, b, 1, 1000)
    assert rep.diff < 1e-10


def test_partial_summation_validates():
    with pytest.raises(ValueError):
        partial_summation_check(lambda n: n, lambda n: n, 5, 5)
    with pytest.raises(ValueError):
        partial_summation_check([1, 2], [1, 2, 3], 1, 3)


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
