"""Finite recurrence models: floor sequences, mean averages, exact overlap
volumes, difference-set scans, filters, and spectral probes."""

import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from primeud.corpus import (
    GOLDEN_FRAC,
    lattice_corpus,
    spectral_corpus,
    spectral_generators,
    torus_corpus,
    unitary_corpus,
)
from primeud.ddarith import floor_with_boundary
from primeud.ergodic import (
    Box,
    DiagonalUnitarySystem,
    LatticeSet,
    SequenceSpec,
    SpectralMeasure,
    TorusSystem,
    ergodic_average,
    fcplus_probe,
    filtered_recurrence,
    lattice_recurrence_scan,
    torus_recurrence_average,
)
from primeud.ergodic import _overlap_volumes, _scan
from primeud.hardy import DEFAULT_CHUNK, evaluate_array
from primeud.literals import parse_expr

mpmath.mp.dps = 50


# -- index sequences -------------------------------------------------------------


def _index_vectors(spec, N, table):
    # the streamed scan's index-vector blocks, concatenated
    blocks, _, events = _scan(lambda d, start: d, spec, N, table)
    return np.concatenate(blocks), events


def test_identity_sequence(table100k):
    d, _ = _index_vectors(SequenceSpec(exprs=(parse_expr("x"),)), 5, table100k)
    assert list(d.ravel()) == [2, 3, 5, 7, 11]


def test_sqrt_floor_first_prime(table100k):
    d, _ = _index_vectors(SequenceSpec(exprs=(parse_expr("x^(1/2)"),)), 1,
                          table100k)
    assert d[0, 0] == 1  # floor(sqrt 2)


def test_floors_match_bigfloat_oracle(table2m):
    # oracle applies the same near-integer tie-break at 50 digits; every one
    # of the first 10^4 values must agree exactly
    n = 10_000
    d, _ = _index_vectors(SequenceSpec(exprs=(parse_expr("x^(3/2)"),)), n, table2m)
    ps = table2m.first(n)
    for i in range(n):
        p = int(ps[i])
        v = mpmath.power(p, mpmath.mpf(3) / 2)
        near = mpmath.nint(v)
        fl = int(near) if abs(v - near) < mpmath.mpf("1e-9") else int(mpmath.floor(v))
        assert int(d[i, 0]) == fl, p


def test_shared_basis_matches_each_expr_alone(monkeypatch, table2m):
    import primeud.hardy as hardy

    # one evaluation shares log x and x^(1/q) across the exprs; each floor
    # column and the event count must be those of the expr on its own
    exprs = tuple(parse_expr(s) for s in ("x^(3/2)", "x^(1/2) + log^2", "x^(5/4)"))
    # a tolerance wide enough that every column records boundary events
    monkeypatch.setattr(hardy, "BOUNDARY_TOL", 1e-3)
    d, events = _index_vectors(SequenceSpec(exprs=exprs), 40_000, table2m)
    alone_events = []
    for i, expr in enumerate(exprs):
        col, ev = _index_vectors(SequenceSpec(exprs=(expr,)), 40_000, table2m)
        assert np.array_equal(d[:, i], col[:, 0]), str(expr)
        alone_events.append(ev)
    assert min(alone_events) > 0
    assert events == sum(alone_events)


def test_polynomial_coordinates_with_shift(table100k):
    spec = SequenceSpec(poly_degree=2, shift=+1)
    d, _ = _index_vectors(spec, 3, table100k)
    assert list(d[0]) == [3, 9]    # p = 2
    assert list(d[1]) == [4, 16]   # p = 3
    assert list(d[2]) == [6, 36]   # p = 5


def test_linear_map_composition(table100k):
    spec = SequenceSpec(exprs=(parse_expr("x"),), poly_degree=1, shift=-1,
                        L=((1, 1), (1, -1)))
    d, _ = _index_vectors(spec, 2, table100k)
    # coordinates are (p-1, [p]); L maps to (sum, difference)
    assert list(d[0]) == [3, -1]
    assert list(d[1]) == [5, -1]


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec(poly_degree=1, shift=2)
    with pytest.raises(ValueError):
        SequenceSpec()


def test_spec_wrong_L_width_raises(table100k):
    spec = SequenceSpec(exprs=(parse_expr("x"),), L=((1, 1),))
    with pytest.raises(ValueError):
        _index_vectors(spec, 3, table100k)


def test_overflow_guard(table2m):
    spec = SequenceSpec(poly_degree=4, shift=0)
    with pytest.raises(OverflowError):
        _index_vectors(spec, 100_000, table2m)


# -- diagonal unitary averages ------------------------------------------------------


def test_all_invariant_system_exact(table100k):
    sysm = DiagonalUnitarySystem(frequencies=np.zeros((3, 2)),
                                 f=np.array([1 + 0j, 0.5j, -0.25 + 0.1j]))
    res = ergodic_average(sysm, (parse_expr("x^(1/2)"), parse_expr("x^(1/3)")),
                          1_000, table100k)
    assert res.deviation == 0.0
    assert np.array_equal(res.average, sysm.f)


def test_golden_average_decreases(table2m):
    sysm = DiagonalUnitarySystem(frequencies=np.array([[GOLDEN_FRAC]]),
                                 f=np.array([1 + 0j]))
    r3 = ergodic_average(sysm, (parse_expr("x^(1/2)"),), 1_000, table2m)
    r5 = ergodic_average(sysm, (parse_expr("x^(1/2)"),), 100_000, table2m)
    assert abs(r5.average[0]) < abs(r3.average[0])
    assert r5.deviation < 0.05


def test_mixed_system_projection_fixed(table2m):
    sysm = DiagonalUnitarySystem(frequencies=np.array([[0.0], [GOLDEN_FRAC]]),
                                 f=np.array([1 + 0j, 1 + 0j]))
    res = ergodic_average(sysm, (parse_expr("x^(3/2)"),), 50_000, table2m)
    assert res.average[0] == 1 + 0j
    assert res.projection[1] == 0j
    assert abs(res.average[1]) < 0.05


def test_unitary_corpus_deviation_trend(table2m):
    for name, sysm, exprs in unitary_corpus():
        devs = [ergodic_average(sysm, exprs, N, table2m).deviation
                for N in (1_000, 10_000, 100_000)]
        # non-increasing up to 10% slack, and small at the end
        assert devs[1] <= devs[0] * 1.1, name
        assert devs[2] <= devs[1] * 1.1, name
        assert devs[2] < 0.05, name


def test_ergodic_average_validates(table100k):
    sysm = DiagonalUnitarySystem(frequencies=np.zeros((1, 2)),
                                 f=np.array([1 + 0j]))
    with pytest.raises(ValueError):
        ergodic_average(sysm, (parse_expr("x"),), 100, table100k)


def test_frequency_validation():
    with pytest.raises(ValueError):
        DiagonalUnitarySystem(frequencies=np.array([[1.5]]), f=np.array([1 + 0j]))
    with pytest.raises(ValueError):
        DiagonalUnitarySystem(frequencies=np.zeros((2, 1)), f=np.array([1 + 0j]))


# -- torus recurrence -----------------------------------------------------------------


def test_zero_rotation_gives_full_measure(table100k):
    sysm = TorusSystem(alphas=np.array([[0.0]]),
                       boxes=(Box((0,), (Fraction(1, 2),)),))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    res = torus_recurrence_average(sysm, spec, 200, table100k)
    assert res.average == pytest.approx(0.5)
    assert res.margin == pytest.approx(0.25)


def test_full_torus_margin_zero(table100k):
    sysm = TorusSystem(alphas=np.array([[GOLDEN_FRAC]]),
                       boxes=(Box((0,), (Fraction(1),)),))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    res = torus_recurrence_average(sysm, spec, 200, table100k)
    assert res.average == pytest.approx(1.0)
    assert res.margin == pytest.approx(0.0)


def test_interval_recurrence_finite_slack(table100k):
    sysm = TorusSystem(alphas=np.array([[GOLDEN_FRAC]]),
                       boxes=(Box((0,), (Fraction(1, 2),)),))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    res = torus_recurrence_average(sysm, spec, 9_000, table100k)
    assert res.margin >= -0.01


def test_torus_corpus_margins_at_1e4(table2m):
    for name, sysm, spec in torus_corpus():
        res = torus_recurrence_average(sysm, spec, 10_000, table2m)
        assert res.margin >= -0.02, name


def test_exact_measure_and_disjointness():
    boxes = (Box((0,), (Fraction(1, 3),)), Box((Fraction(1, 2),), (Fraction(3, 4),)))
    sysm = TorusSystem(alphas=np.array([[0.1]]), boxes=boxes)
    assert sysm.mu_A == Fraction(7, 12)
    with pytest.raises(ValueError):
        TorusSystem(alphas=np.array([[0.1]]),
                    boxes=(Box((0,), (Fraction(1, 2),)),
                           Box((Fraction(1, 4),), (Fraction(3, 4),))))


def test_wraparound_overlap_volume(table100k):
    # one box, rotation shifting across the 0/1 seam: overlap must match the
    # circle-arc formula length max(0, 1/2 - s) + wrap part
    sysm = TorusSystem(alphas=np.array([[0.75]]),
                       boxes=(Box((0,), (Fraction(1, 2),)),))
    spec = SequenceSpec(exprs=(parse_expr("x"),))  # psi = p
    res = torus_recurrence_average(sysm, spec, 1, table100k)
    # p = 2: shift = 1.5 mod 1 = 0.5 -> A and A - 0.5 are disjoint half-circles
    assert res.average == pytest.approx(0.0)


def _allocating_overlap_volumes(sysm, shifts):
    """The former _overlap_volumes, one fresh array per step."""
    def circular_overlap(a, b, c, d, shift):
        ell = d - c
        u = c - shift
        u -= np.floor(u)
        top = u + ell
        first = np.maximum(0.0, np.minimum(b, top) - np.maximum(a, u))
        wrapped = np.maximum(0.0, top - 1.0)
        second = np.maximum(0.0, np.minimum(b, wrapped) - a)
        return first + second

    n = shifts.shape[0]
    total = np.zeros(n)
    for b1 in sysm.boxes:
        for b2 in sysm.boxes:
            piece = np.ones(n)
            for dim in range(sysm.m):
                piece *= circular_overlap(
                    float(b1.lo[dim]), float(b1.hi[dim]),
                    float(b2.lo[dim]), float(b2.hi[dim]), shifts[:, dim])
                if not np.any(piece):
                    break
            total += piece
    return total


# Boxes that touch 0 and 1, one per row; the first m columns of each.
_F = Fraction
_OVERLAP_BOXES = [
    ((0, _F(1, 8), 0), (_F(3, 8), 1, 1)),
    ((_F(1, 2), 0, _F(1, 4)), (1, _F(5, 8), _F(3, 4))),
    ((_F(3, 8), _F(1, 3), 0), (_F(1, 2), _F(7, 9), _F(1, 5))),
]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_overlap_volumes_bit_equal_to_allocating_form(m):
    boxes = tuple(Box(lo[:m], hi[:m]) for lo, hi in _OVERLAP_BOXES)
    sysm = TorusSystem(alphas=np.eye(m) * 0.5, boxes=boxes)
    edges = sorted({float(v) for lo, hi in _OVERLAP_BOXES for v in lo + hi})
    special = edges + [float(np.nextafter(1.0, 0.0))]
    special += [float(np.nextafter(v, w)) for v in edges for w in (0.0, 1.0)
                if 0.0 < v < 1.0]
    grid = np.array(np.meshgrid(*[special] * m)).reshape(m, -1).T
    rng = np.random.default_rng(m)
    shifts = np.concatenate([grid, rng.random((4000, m))])
    got = _overlap_volumes(sysm, shifts)
    assert got.tobytes() == _allocating_overlap_volumes(sysm, shifts).tobytes()
    for row in grid[:50]:  # one shift at a time takes the early break
        one = row[None, :]
        assert (_overlap_volumes(sysm, one).tobytes()
                == _allocating_overlap_volumes(sysm, one).tobytes())


def test_dimension_mismatch_rejected(table100k):
    sysm = TorusSystem(alphas=np.array([[0.1]]),
                       boxes=(Box((0,), (Fraction(1, 2),)),))
    spec = SequenceSpec(exprs=(parse_expr("x"), parse_expr("x^(1/2)")))
    with pytest.raises(ValueError):
        torus_recurrence_average(sysm, spec, 10, table100k)


# -- lattice scans -------------------------------------------------------------------


def test_everything_set_hits_always(table100k):
    E = LatticeSet(period=(1,), mask=np.array([True]))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    res = lattice_recurrence_scan(E, spec, 500, table100k)
    assert res.hit_density == 1.0


def test_multiples_of_five(table2m):
    E = LatticeSet(period=(5,), mask=np.array([True] + [False] * 4))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    res = lattice_recurrence_scan(E, spec, 10_000, table2m)
    assert abs(res.hit_density - 0.2) < 0.02
    assert res.hit_density >= res.dstar_sq - 0.02


def test_parity_shift_hits(table100k):
    # d_n = p_n + 1 is even for every odd prime
    E = LatticeSet(period=(2,), mask=np.array([True, False]))
    spec = SequenceSpec(poly_degree=1, shift=+1)
    res = lattice_recurrence_scan(E, spec, 1_000, table100k)
    assert res.hit_density >= 0.999


def test_difference_mask_block():
    E = LatticeSet(period=(4,), mask=np.array([True, True, False, False]))
    diff = E.difference_mask()
    # differences of {0, 1} mod 4 are {0, 1, 3}
    assert list(diff) == [True, True, False, True]


def test_lattice_corpus_margins(table2m):
    for name, E, spec in lattice_corpus():
        res = lattice_recurrence_scan(E, spec, 10_000, table2m)
        assert res.hit_density >= res.dstar_sq - 0.02, name


# -- filtered recurrence -----------------------------------------------------------------


def test_filter_r1_is_identity(table100k):
    E = LatticeSet(period=(5,), mask=np.array([True] + [False] * 4))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    plain = lattice_recurrence_scan(E, spec, 5_000, table100k)
    filt = filtered_recurrence(E, 1, spec, 5_000, table100k)
    assert filt.relative_density == 1.0
    assert filt.average == pytest.approx(plain.hit_density)


def test_lattice_and_filtered_references_agree(table100k):
    # 33/41 is the density of smallest denominator whose float's square
    # rounds differently by x * x and by x ** 2 (libm pow)
    E = LatticeSet(period=(41,), mask=np.arange(41) < 33)
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    plain = lattice_recurrence_scan(E, spec, 1_000, table100k)
    filt = filtered_recurrence(E, 1, spec, 1_000, table100k)
    assert plain.dstar_sq == filt.reference_sq


def test_filter_parity_keeps_odd_primes(table100k):
    spec = SequenceSpec(poly_degree=1, shift=+1)
    E = LatticeSet(period=(2,), mask=np.array([True, False]))
    res = filtered_recurrence(E, 2, spec, 1_000, table100k)
    assert res.relative_density >= 0.999


def test_filter_r6_product_prediction(table2m):
    # coordinates ((p+1), [sqrt p]): 6 | p+1 has density 1/phi(6) = 1/2 and
    # 6 | [sqrt p] has limiting density 1/6, independently
    spec = SequenceSpec(poly_degree=1, shift=+1, exprs=(parse_expr("x^(1/2)"),))
    E = LatticeSet(period=(2, 2), mask=np.eye(2, dtype=bool))
    res = filtered_recurrence(E, 6, spec, 10_000, table2m)
    predicted = (1.0 / 2.0) * (1.0 / 6.0)
    assert abs(res.relative_density - predicted) < 0.02
    assert res.valid


def test_filter_empty_flagged(table100k):
    # d_n = p_n is never divisible by 4 beyond p = 2
    spec = SequenceSpec(exprs=(parse_expr("x"),))
    E = LatticeSet(period=(2,), mask=np.array([True, False]))
    res = filtered_recurrence(E, 10**6, spec, 100, table100k)
    assert not res.valid
    assert res.average is None and res.margin is None


def test_filtered_torus_stays_near_reference(table2m):
    sysm = TorusSystem(alphas=np.array([[GOLDEN_FRAC]]),
                       boxes=(Box((0,), (Fraction(1, 2),)),))
    spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),))
    for r in (2, 3, 6):
        res = filtered_recurrence(sysm, r, spec, 10_000, table2m)
        assert res.valid
        assert res.average >= res.reference_sq - 0.02, r


# -- spectral probes ------------------------------------------------------------------------


def test_point_mass_probe(table100k):
    sigma = SpectralMeasure(k=1, atoms=(((Fraction(0),), 1.0),))
    spec = SequenceSpec(poly_degree=1, shift=+1)
    res = fcplus_probe(sigma, spec, 2_000, table100k)
    assert res.mass_at_zero == 1.0
    assert res.final_tail_max == pytest.approx(1.0)


def test_lebesgue_probe(table100k):
    sigma = SpectralMeasure(k=1, ac_table=(((0,), 1.0 + 0j),))
    spec = SequenceSpec(poly_degree=1, shift=+1)
    res = fcplus_probe(sigma, spec, 2_000, table100k)
    assert res.mass_at_zero == 0.0
    assert res.final_tail_max == pytest.approx(0.0)


def test_mixed_atom_probe(table100k):
    sigma = SpectralMeasure(k=1, atoms=(((Fraction(0),), 0.5),
                                        ((Fraction(1, 3),), 0.5)))
    spec = SequenceSpec(poly_degree=1, shift=+1)
    res = fcplus_probe(sigma, spec, 9_000, table100k)
    assert res.final_tail_max >= 0.5
    assert res.mass_at_zero <= res.final_tail_max + 0.01


def test_spectral_corpus_tail_dominates_mass(table2m):
    for mname, sigma in spectral_corpus():
        for gname, spec in spectral_generators(sigma.k):
            res = fcplus_probe(sigma, spec, 10_000, table2m)
            assert res.mass_at_zero <= res.final_tail_max + 0.01, (mname, gname)


def test_measure_validation():
    with pytest.raises(ValueError):
        SpectralMeasure(k=1)
    with pytest.raises(ValueError):
        SpectralMeasure(k=1, atoms=(((Fraction(0),), -1.0),))
    with pytest.raises(ValueError):
        SpectralMeasure(k=2, atoms=(((Fraction(0),), 1.0),))


def test_fourier_origin_atom_adds_mass_bit_equal(rng):
    # an atom at the origin skips cos/sin: e(0) = 1 adds exactly its mass
    sigma = SpectralMeasure(k=2, atoms=(((0, 0), 0.5), ((_F(1, 7), _F(2, 3)), 0.25)),
                            ac_table=(((0, 1), 0.1 + 0.2j),))
    d = rng.integers(-10**12, 10**12, size=(20_000, 2))
    d[:50, 0], d[:50, 1] = 0, 1  # rows that hit the density table
    want = np.zeros(len(d), dtype=complex)
    for loc, mass in sigma.atoms:
        w = -2.0 * np.pi * sum((d[:, i] % v.denominator) * (v.numerator / v.denominator)
                               for i, v in enumerate(loc) if v != 0)
        want += mass * (np.cos(w) + 1j * np.sin(w))
    want[:50] += 0.1 + 0.2j
    assert sigma.fourier(d).tobytes() == want.tobytes()


# -- streamed scans against whole-array references -------------------------------------------

# Horizons around the scan's chunk size: one point short of a chunk, exactly
# one chunk, one point into a second chunk, and two chunks plus a few points.
_NS = (DEFAULT_CHUNK - 1, DEFAULT_CHUNK, DEFAULT_CHUNK + 1, 2 * DEFAULT_CHUNK + 7)
_FLOORS = SequenceSpec(exprs=(parse_expr("x^(3/2)"), parse_expr("x^(5/4)")))
# (p - 1, [sqrt p + log^2 p], [p]) mapped to 2-d; the floors of x are all
# boundary events
_MIXED = SequenceSpec(exprs=(parse_expr("x^(1/2) + log^2"), parse_expr("x")),
                      poly_degree=1, shift=-1, L=((1, 1, 0), (0, 1, 1)))
# (p, [p^(3/2)]): both even only at p = 2, so under r = 2 every chunk after
# the first keeps no row
_PRIME_LED = SequenceSpec(exprs=(parse_expr("x^(3/2)"),), poly_degree=1)
_SPECS = {"floors": _FLOORS, "mixed": _MIXED}
_TORUS = TorusSystem(alphas=np.array([[0.6180339887498949, 0.4142135623730951],
                                      [0.7320508075688772, 0.2360679774997897]]),
                     boxes=(Box((0, _F(1, 8)), (_F(3, 8), _F(5, 8))),
                            Box((_F(3, 8), _F(2, 8)), (_F(7, 8), _F(6, 8)))))
_LATTICE = LatticeSet(period=(3, 5), mask=np.array([c == "1" for c in "101001100010110"]))


def _whole_index_vectors(spec, N, table):
    # one floor pass over all N primes, then the polynomial powers and L
    ps = table.first(N)
    floors = [floor_with_boundary(v) for v in
              evaluate_array(spec.exprs, ps.astype(np.float64), "compensated")]
    cols = [(ps + spec.shift) ** j for j in range(1, spec.poly_degree + 1)]
    d = np.stack(cols + [fl for fl, _ in floors], axis=1)
    if spec.L is not None:
        d = d @ np.asarray(spec.L, dtype=np.int64).T
    return d, sum(ev for _, ev in floors)


def _whole_phase(d, w):
    # d @ w with the products added in index order, as one double each
    return sum(np.multiply.outer(d[:, i], w[i]) for i in range(d.shape[1]))


def _whole_torus_average(d):
    shifts = _whole_phase(d, _TORUS.alphas)
    return float(np.mean(_overlap_volumes(_TORUS, shifts - np.floor(shifts))))


def _whole_hits(d):
    period = np.asarray(_LATTICE.period)
    return int(np.count_nonzero(_LATTICE.difference_mask()[tuple((d % period).T)]))


@pytest.mark.parametrize("N", _NS)
@pytest.mark.parametrize("name", sorted(_SPECS) + ["prime-led"])
def test_index_vectors_match_whole_array(name, N, table2m):
    spec = _SPECS.get(name, _PRIME_LED)
    d, events = _whole_index_vectors(spec, N, table2m)
    got, got_events = _index_vectors(spec, N, table2m)
    assert got.dtype == np.int64 and np.array_equal(got, d)
    assert got_events == events and (events > 0) == (name == "mixed")


@pytest.mark.parametrize("N", _NS)
@pytest.mark.parametrize("name", sorted(_SPECS))
def test_streamed_torus_and_lattice_match_whole_array(name, N, table2m):
    spec = _SPECS[name]
    d, events = _whole_index_vectors(spec, N, table2m)
    torus = torus_recurrence_average(_TORUS, spec, N, table2m)
    assert abs(torus.average - _whole_torus_average(d)) <= 1e-12
    lattice = lattice_recurrence_scan(_LATTICE, spec, N, table2m)
    assert lattice.hits == _whole_hits(d)
    assert torus.boundary_events == lattice.boundary_events == events


@pytest.mark.parametrize("N", _NS)
@pytest.mark.parametrize("spec", [_FLOORS, _PRIME_LED], ids=["floors", "prime-led"])
def test_streamed_filter_matches_whole_array(spec, N, table2m):
    d, events = _whole_index_vectors(spec, N, table2m)
    kept = np.all(d % 2 == 0, axis=1)
    count = int(np.count_nonzero(kept))
    assert 0 < count < N
    if spec is _PRIME_LED:
        assert count == 1 and kept[0]  # later chunks keep no row
    torus = filtered_recurrence(_TORUS, 2, spec, N, table2m)
    lattice = filtered_recurrence(_LATTICE, 2, spec, N, table2m)
    for res in (torus, lattice):
        assert res.valid and res.count == count and res.relative_density == count / N
        assert res.boundary_events == events
    assert abs(torus.average - _whole_torus_average(d[kept])) <= 1e-12
    assert lattice.average == _whole_hits(d[kept]) / count


@pytest.mark.parametrize("N", _NS)
def test_streamed_filter_all_empty(N, table2m):
    spec = SequenceSpec(exprs=(parse_expr("x"),), poly_degree=1)  # (p, p)
    for target in (_TORUS, _LATTICE):
        res = filtered_recurrence(target, 10**7, spec, N, table2m)
        assert not res.valid and res.count == 0 and res.relative_density == 0.0
        assert res.average is None and res.margin is None
        assert res.boundary_events == N


@pytest.mark.parametrize("N", _NS)
@pytest.mark.parametrize("name", sorted(_SPECS))
def test_streamed_fcplus_envelope_exact(name, N, table2m):
    spec = _SPECS[name]
    sigma = SpectralMeasure(k=2, atoms=(((0, 0), 0.5), ((_F(1, 3), _F(2, 5)), 0.5)),
                            ac_table=(((1, 1), 0.25 + 0j),))
    d, events = _whole_index_vectors(spec, N, table2m)
    tail = np.maximum.accumulate(np.abs(sigma.fourier(d))[::-1])[::-1]
    res = fcplus_probe(sigma, spec, N, table2m)
    last = int(0.9 * N)
    assert [n for n, _ in res.envelope] == [1, 10, 100, 1000, 10000, last, N]
    assert res.envelope == tuple((n, float(tail[n - 1])) for n, _ in res.envelope)
    assert res.final_tail_max == float(tail[last - 1])
    assert res.boundary_events == events
    assert len({v for _, v in res.envelope}) > 1


@pytest.mark.parametrize("N", _NS)
def test_streamed_fcplus_spike_at_the_last_prime(N, table2m):
    # |sigma-hat| is 1/2 everywhere but at d = p_N, so every checkpoint's
    # tail maximum comes from the last chunk, whichever chunk it lies in
    p_last = int(table2m.first(N)[-1])
    sigma = SpectralMeasure(k=1, atoms=(((0,), 0.5),), ac_table=(((p_last,), 0.25),))
    res = fcplus_probe(sigma, SequenceSpec(exprs=(parse_expr("x"),)), N, table2m)
    assert [v for _, v in res.envelope] == [0.75] * 7
    assert res.envelope[-1][0] == N and res.boundary_events == N


@pytest.mark.parametrize("N", _NS)
def test_streamed_unitary_matches_whole_array(N, table2m):
    sysm = DiagonalUnitarySystem(
        frequencies=np.array([[0.6180339887498949, 0.25], [0.1, 0.9], [0.0, 0.0]]),
        f=np.array([1 + 0j, 0.5 - 0.5j, 2j]))
    d, events = _whole_index_vectors(_FLOORS, N, table2m)
    res = ergodic_average(sysm, _FLOORS.exprs, N, table2m)
    for j in range(2):
        phase = _whole_phase(d, sysm.frequencies[j])
        want = np.mean(np.exp(2j * np.pi * (phase - np.rint(phase)))) * sysm.f[j]
        assert abs(res.average[j] - want) <= 1e-12
    assert res.average[2] == 2j
    assert res.boundary_events == events


@pytest.mark.parametrize("probe", ["torus", "fcplus"])
def test_scan_memory_flat_in_N(probe, table2m):
    # The scans hold one chunk at a time: doubling N from 50,000 to 100,000
    # must not add 1 MB to the traced peak (a whole-array scan holds ~78
    # bytes per point, ~3.9 MB for the extra points).
    if probe == "torus":
        spec = SequenceSpec(exprs=(parse_expr("x^(3/2)"),
                                   parse_expr("x^(1/2) + log^2")))
        run = lambda n: torus_recurrence_average(_TORUS, spec, n, table2m)
    else:
        sigma = SpectralMeasure(k=1, atoms=(((0,), 0.5), ((_F(1, 100003),), 0.5)))
        spec = SequenceSpec(exprs=(parse_expr("x^(5/3)"),))
        run = lambda n: fcplus_probe(sigma, spec, n, table2m)
    run(1_000)  # warm-up: first-call allocations are not the scan's
    peaks = []
    for n in (50_000, 100_000):
        tracemalloc.start()
        try:
            run(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks

