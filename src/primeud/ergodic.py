"""Finite, explicitly computable models for the recurrence applications:
diagonal commuting unitaries (mean averages along primes), torus rotations
with exact box-overlap volumes, periodic integer sets with exact difference
sets, divisibility-filtered subsequences, and closed-form spectral probes.

Index sequences are d_n = (P_1(p_n + i), ..., P_l(p_n + i),
[xi_1(p_n)], ..., [xi_k(p_n)]) with i in {-1, 0, +1}; the shift applies only
to the polynomial coordinates, never inside xi.  Floors use the documented
near-integer tie-break and log boundary events; they come from
hardy.floor_array, which takes double-double only near an integer.
Scans stream the index vectors chunk by chunk and hold no N-length array;
partial sums are added exactly, so results are byte-identical at any thread
count; the chunk size is the constant hardy.DEFAULT_CHUNK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .expsums import _circle_sum, e
from .hardy import HardyExpr, _check_magnitude, _map_chunks, floor_array
from .primes import PrimeTable, _fsum_complex


# -- index sequence generators ---------------------------------------------------


@dataclass(frozen=True)
class SequenceSpec:
    """Generator of integer index vectors along primes.

    Coordinates: (p + shift)^j for j = 1..poly_degree, then the floors of
    each expression at p; optionally composed with an integer matrix L.
    """

    exprs: tuple[HardyExpr, ...] = ()
    poly_degree: int = 0
    shift: int = 0
    L: tuple[tuple[int, ...], ...] | None = None  # m x (l + k), None = identity

    def __post_init__(self):
        if self.shift not in (-1, 0, 1):
            raise ValueError("shift must be -1, 0 or +1")
        if self.poly_degree < 0:
            raise ValueError("poly_degree must be >= 0")
        if self.poly_degree == 0 and not self.exprs:
            raise ValueError("spec generates no coordinates")

    @property
    def input_dim(self) -> int:
        return self.poly_degree + len(self.exprs)

    @property
    def output_dim(self) -> int:
        return len(self.L) if self.L is not None else self.input_dim


def _scan(stat, spec: SequenceSpec, N: int, table: PrimeTable, *, r: int = 1):
    """([stat(block, start) per chunk], kept rows, boundary events) over the
    first N primes, after the gates: block is a chunk's int64 index vectors
    whose every entry r divides, and start the chunk's first position."""
    if N < 1:
        raise ValueError("N must be >= 1")
    ps = table.first(N)
    if spec.poly_degree and spec.poly_degree * math.log2(
            max(int(ps[-1]) + spec.shift, 2)) > 62:
        raise OverflowError("polynomial coordinate exceeds int64")
    L = None if spec.L is None else np.asarray(spec.L, dtype=np.int64)
    if L is not None and L.shape[1] != spec.input_dim:
        raise ValueError(
            f"L has {L.shape[1]} columns, sequence has {spec.input_dim} coordinates")
    for expr in spec.exprs:
        _check_magnitude(expr, float(ps[-1]))

    def work(ns, start):
        floors = floor_array(spec.exprs, ns.astype(np.float64))
        d = np.stack([(ns + spec.shift) ** j for j in range(1, spec.poly_degree + 1)]
                     + [fl for fl, _ in floors], axis=1)
        if L is not None:
            d = d @ L.T
        if r > 1:
            d = d[np.all(d % r == 0, axis=1)]
        return stat(d, start), len(d), sum(ev for _, ev in floors)

    stats, counts, events = zip(*_map_chunks(work, ps))
    return list(stats), sum(counts), sum(events)


def _phase_mod1(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d @ w mod 1 in [-1/2, 1/2], where cos and sin are fastest, for an int
    (n x k) block d and a float (k,) or (k x m) w.  Elementwise numpy sums
    the products in index order; a BLAS kernel may fuse a multiply and an
    add by CPU, so these bits are the same on every CPU."""
    out = np.multiply.outer(d[:, 0], w[0])
    term = np.empty_like(out)
    for i in range(1, d.shape[1]):
        np.multiply.outer(d[:, i], w[i], out=term)
        out += term
    out -= np.rint(out, out=term)
    return out


# -- diagonal unitary systems ------------------------------------------------------


@dataclass(frozen=True)
class DiagonalUnitarySystem:
    """k commuting unitaries acting diagonally on C^dim: operator i
    multiplies basis vector j by e(frequencies[j, i]).  A basis vector is
    invariant under every operator exactly when its frequency row is zero.
    """

    frequencies: np.ndarray  # dim x k, entries in [0, 1)
    f: np.ndarray            # complex vector of length dim

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=np.float64)
        if freq.ndim != 2:
            raise ValueError("frequencies must be dim x k")
        if np.any(freq < 0.0) or np.any(freq >= 1.0):
            raise ValueError("frequencies must lie in [0, 1)")
        object.__setattr__(self, "frequencies", freq)
        fv = np.asarray(self.f, dtype=complex)
        if fv.shape != (freq.shape[0],):
            raise ValueError("f must have length dim")
        object.__setattr__(self, "f", fv)

    @property
    def dim(self) -> int:
        return self.frequencies.shape[0]

    @property
    def k(self) -> int:
        return self.frequencies.shape[1]

    @property
    def invariant_rows(self) -> np.ndarray:
        return np.all(self.frequencies == 0.0, axis=1)


@dataclass(frozen=True)
class ErgodicAverageResult:
    average: np.ndarray
    projection: np.ndarray
    deviation: float
    N: int
    boundary_events: int


def ergodic_average(sys: DiagonalUnitarySystem, exprs: Sequence[HardyExpr],
                    N: int, table: PrimeTable) -> ErgodicAverageResult:
    """(1/N) sum_n U_1^{d_n,1} ... U_k^{d_n,k} f per basis coordinate, with
    the projection onto the joint invariant subspace and their distance.

    Invariant rows are averaged exactly (every term is f_j), so an
    all-invariant system reports deviation 0.0 identically.
    """
    if len(exprs) != sys.k:
        raise ValueError(f"system has k={sys.k} operators, {len(exprs)} exprs given")
    invariant = sys.invariant_rows
    rows = np.flatnonzero(~invariant)
    parts, _, events = _scan(
        lambda d, start: [_circle_sum(_phase_mod1(d, sys.frequencies[j]))
                          for j in rows],
        SequenceSpec(exprs=tuple(exprs)), N, table)
    proj = np.where(invariant, sys.f, 0.0)
    avg = proj.astype(complex)
    for j, sums in zip(rows, np.array(parts).T):
        avg[j] = _fsum_complex(sums) / N * sys.f[j]
    diff = avg - proj
    deviation = math.sqrt(math.fsum(np.concatenate([diff.real**2, diff.imag**2])))
    return ErgodicAverageResult(average=avg, projection=proj, deviation=deviation,
                                N=N, boundary_events=events)


# -- torus systems ------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        lo = tuple(Fraction(v) for v in self.lo)
        hi = tuple(Fraction(v) for v in self.hi)
        if len(lo) != len(hi):
            raise ValueError("corner dimensions differ")
        for a, b in zip(lo, hi):
            if not (0 <= a < b <= 1):
                raise ValueError("boxes need 0 <= lo < hi <= 1 per dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v


def _boxes_overlap(b1: Box, b2: Box) -> bool:
    return all(a1 < b2_ and a2 < b1_ for (a1, b1_), (a2, b2_)
               in zip(zip(b1.lo, b1.hi), zip(b2.lo, b2.hi)))


@dataclass(frozen=True)
class TorusSystem:
    """m commuting rotations of the m-torus, T_i x = x + alpha_i, acting on
    a set A that is a disjoint union of rational boxes (exact measure)."""

    alphas: np.ndarray  # m x m; row i is the translation vector of T_i
    boxes: tuple[Box, ...]

    def __post_init__(self):
        al = np.asarray(self.alphas, dtype=np.float64)
        if al.ndim != 2 or al.shape[0] != al.shape[1]:
            raise ValueError("alphas must be an m x m matrix of rotation vectors")
        if np.any(al < 0.0) or np.any(al >= 1.0):
            raise ValueError("rotation entries must lie in [0, 1)")
        object.__setattr__(self, "alphas", al)
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("A must contain at least one box")
        m = al.shape[0]
        for b in boxes:
            if len(b.lo) != m:
                raise ValueError("box dimension does not match torus dimension")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _boxes_overlap(boxes[i], boxes[j]):
                    raise ValueError("boxes must be pairwise disjoint")
        object.__setattr__(self, "boxes", boxes)

    @property
    def m(self) -> int:
        return self.alphas.shape[0]

    @property
    def mu_A(self) -> Fraction:
        return sum((b.volume for b in self.boxes), Fraction(0))


def _overlap_volumes(sysm: TorusSystem, shifts: np.ndarray) -> np.ndarray:
    """vol(A intersect (A - s)) for each shift row s, exact per-dimension
    interval bookkeeping (no sampling).

    Per dimension, the length of [a,b) intersected with the circle arc
    [c,d) - s: the input intervals do not wrap, the shifted one may.  It is
    computed in place in three buffers u, top and first.
    """
    n = shifts.shape[0]
    total = np.zeros(n)
    piece = np.empty(n)
    u, top, first = np.empty(n), np.empty(n), np.empty(n)
    for b1 in sysm.boxes:
        for b2 in sysm.boxes:
            piece.fill(1.0)
            for dim in range(sysm.m):
                a, b = float(b1.lo[dim]), float(b1.hi[dim])
                c, d = float(b2.lo[dim]), float(b2.hi[dim])
                np.subtract(c, shifts[:, dim], out=u)
                u -= np.floor(u, out=top)
                np.add(u, d - c, out=top)
                np.minimum(b, top, out=first)
                first -= np.maximum(a, u, out=u)
                np.maximum(0.0, first, out=first)
                top -= 1.0  # the part of the arc that wraps past 1
                np.maximum(0.0, top, out=top)
                np.minimum(b, top, out=top)
                top -= a
                np.maximum(0.0, top, out=top)
                first += top
                piece *= first
                if not np.any(piece):
                    break
            total += piece
    return total


@dataclass(frozen=True)
class RecurrenceResult:
    average: float
    mu_sq: float
    margin: float
    N: int
    boundary_events: int = 0


def torus_recurrence_average(sysm: TorusSystem, spec: SequenceSpec, N: int,
                             table: PrimeTable) -> RecurrenceResult:
    """Average over n <= N of vol(A intersect T_1^{-psi_1} ... T_m^{-psi_m} A)
    with psi = spec(p_n), against mu(A)^2."""
    total, _, events = _target_scan(sysm, 1, spec, N, table)
    mu = float(sysm.mu_A)
    avg, mu2 = total / N, mu * mu
    return RecurrenceResult(average=avg, mu_sq=mu2, margin=avg - mu2, N=N,
                            boundary_events=events)


# -- periodic integer sets -----------------------------------------------------------


@dataclass(frozen=True)
class LatticeSet:
    """Periodic subset of Z^k given by a boolean mask over the fundamental
    box prod [0, period_i); the density is exact and equals the upper
    density for periodic sets."""

    period: tuple[int, ...]
    mask: np.ndarray

    def __post_init__(self):
        period = tuple(int(p) for p in self.period)
        if any(p < 1 for p in period):
            raise ValueError("period entries must be >= 1")
        mask = np.asarray(self.mask, dtype=bool).reshape(period)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "mask", mask)

    @property
    def k(self) -> int:
        return len(self.period)

    @property
    def density(self) -> Fraction:
        cells = 1
        for p in self.period:
            cells *= p
        return Fraction(int(np.count_nonzero(self.mask)), cells)

    def difference_mask(self) -> np.ndarray:
        """Indicator of E - E over the fundamental box (exact, finite)."""
        cells = np.argwhere(self.mask)
        out = np.zeros(self.period, dtype=bool)
        period = np.asarray(self.period, dtype=np.int64)
        for c in cells:
            diffs = (c[None, :] - cells) % period
            out[tuple(diffs.T)] = True
        return out


@dataclass(frozen=True)
class LatticeScanResult:
    hit_density: float
    dstar_sq: float
    hits: int
    N: int
    boundary_events: int = 0

    @property
    def margin(self) -> float:
        return self.hit_density - self.dstar_sq


def lattice_recurrence_scan(E: LatticeSet, spec: SequenceSpec, N: int,
                            table: PrimeTable) -> LatticeScanResult:
    """Density of n <= N with d_n in E - E, against density(E)^2."""
    hits, _, events = _target_scan(E, 1, spec, N, table)
    hits, dens = int(hits), float(E.density)
    return LatticeScanResult(hit_density=hits / N, dstar_sq=dens * dens,
                             hits=hits, N=N, boundary_events=events)


# -- divisibility-filtered recurrence --------------------------------------------------


@dataclass(frozen=True)
class FilteredResult:
    r: int
    relative_density: float
    count: int
    N: int
    average: float | None
    reference_sq: float
    margin: float | None
    valid: bool
    boundary_events: int = 0


def _target_scan(target, r: int, spec: SequenceSpec, N: int, table: PrimeTable):
    """_scan's (total, kept rows, events) for the overlap volumes
    vol(A intersect (A - psi . alpha)) of a torus or the hits in E - E of a
    lattice set."""
    torus = isinstance(target, TorusSystem)
    if not (torus or isinstance(target, LatticeSet)):
        raise TypeError("target must be a TorusSystem or a LatticeSet")
    dim = target.m if torus else target.k
    if spec.output_dim != dim:
        raise ValueError(f"spec produces {spec.output_dim} coordinates, "
                         f"the target has dimension {dim}")
    if torus:
        def stat(d, start):
            shifts = _phase_mod1(d, target.alphas)
            return float(np.sum(_overlap_volumes(target, shifts)))
    else:
        diff = target.difference_mask()
        period = np.asarray(target.period, dtype=np.int64)

        def stat(d, start):
            return int(np.count_nonzero(diff[tuple((d % period).T)]))
    sums, count, events = _scan(stat, spec, N, table, r=r)
    return math.fsum(sums), count, events


def filtered_recurrence(target, r: int, spec: SequenceSpec, N: int,
                        table: PrimeTable) -> FilteredResult:
    """Recurrence average restricted to indices n whose whole vector d_n is
    divisible by r; reports the relative density of the filtered
    subsequence alongside the filtered average.  r = 1 is the unfiltered
    scan.  An empty filtered set is reported, not raised."""
    if r < 1:
        raise ValueError("r must be >= 1")
    total, count, events = _target_scan(target, r, spec, N, table)
    ref = float(target.mu_A if isinstance(target, TorusSystem) else target.density)
    ref *= ref
    if count == 0:
        return FilteredResult(r, 0.0, 0, N, None, ref, None, False, events)
    avg = total / count
    return FilteredResult(r, count / N, count, N, avg, ref, avg - ref, True, events)


# -- spectral probes ------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMeasure:
    """Positive finite measure on the k-torus with closed-form Fourier
    transform: atoms plus an optional trigonometric-polynomial density
    (finite Fourier coefficient table)."""

    k: int
    atoms: tuple[tuple[tuple[Fraction, ...], float], ...] = ()
    ac_table: tuple[tuple[tuple[int, ...], complex], ...] = ()

    def __post_init__(self):
        atoms = []
        for loc, mass in self.atoms:
            loc = tuple(Fraction(v) for v in loc)
            if len(loc) != self.k:
                raise ValueError("atom location dimension mismatch")
            if any(not (0 <= v < 1) for v in loc):
                raise ValueError("atom locations must lie in [0, 1)^k")
            if mass <= 0:
                raise ValueError("atom masses must be positive")
            atoms.append((loc, float(mass)))
        object.__setattr__(self, "atoms", tuple(atoms))
        table = []
        for d, c in self.ac_table:
            d = tuple(int(v) for v in d)
            if len(d) != self.k:
                raise ValueError("density coefficient dimension mismatch")
            table.append((d, complex(c)))
        object.__setattr__(self, "ac_table", tuple(table))
        if not self.atoms and not self.ac_table:
            raise ValueError("measure must have positive total mass")

    @property
    def mass_at_zero(self) -> float:
        zero = tuple(Fraction(0) for _ in range(self.k))
        return math.fsum(m for loc, m in self.atoms if loc == zero)

    def fourier(self, d: np.ndarray) -> np.ndarray:
        """sigma-hat(d) = sum masses e(-d.loc) + density coefficient lookup,
        for an (N x k) integer matrix of frequencies."""
        d = np.asarray(d, dtype=np.int64)
        out = np.zeros(d.shape[0], dtype=complex)
        for loc, mass in self.atoms:
            phase = np.zeros(d.shape[0])
            for i, v in enumerate(loc):
                if v != 0:
                    phase += (d[:, i] % v.denominator) * (v.numerator / v.denominator)
            out += mass * e(-phase) if any(loc) else mass  # e(0) = 1: no cos/sin
        for key, c in self.ac_table:
            sel = np.all(d == np.asarray(key, dtype=np.int64), axis=1)
            out[sel] += c
        return out


@dataclass(frozen=True)
class FcPlusResult:
    mass_at_zero: float
    final_tail_max: float
    envelope: tuple[tuple[int, float], ...]  # (n, max_{n <= m <= N} |sigma-hat(d_m)|)
    N: int
    boundary_events: int = 0


def fcplus_probe(sigma: SpectralMeasure, spec: SequenceSpec, N: int,
                 table: PrimeTable) -> FcPlusResult:
    """Evaluate sigma-hat along the index sequence and report the tail-max
    envelope; the acceptance comparison is mass_at_zero against the tail
    max over the last tenth of the horizon."""
    if spec.output_dim != sigma.k:
        raise ValueError("sequence dimension does not match the measure")
    last = max(1, int(0.9 * N))
    checkpoints = sorted({1, N, last} | {10**j for j in range(1, 12) if 10**j <= N})

    def stat(d, start):
        tail = np.maximum.accumulate(np.abs(sigma.fourier(d))[::-1])[::-1]
        return float(tail[0]), [(n, float(tail[n - 1 - start])) for n in checkpoints
                                if start < n <= start + len(d)]

    parts, _, events = _scan(stat, spec, N, table)
    tails, later = {}, 0.0  # the maximum over the chunks after this one
    for top, marks in reversed(parts):
        tails.update((n, max(v, later)) for n, v in marks)
        later = max(top, later)
    return FcPlusResult(mass_at_zero=sigma.mass_at_zero, final_tail_max=tails[last],
                        envelope=tuple((n, tails[n]) for n in checkpoints),
                        N=N, boundary_events=events)
