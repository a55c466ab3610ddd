"""The benchmark's three workloads: fixed lists of ``primeud`` CLI commands.

A workload seed varies coefficients, residue classes, torus rotations and
boxes, lattice masks, atom locations and frequencies.  It never varies a
size, so the cost of a pass does not depend on the seed.

Each command carries the number of phase points it sends to the phase
engine (``points``), the artifact key that must read true (``check``), and
the oracle cases whose sampled points ``oracle.py`` checks against mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TABLE_LIMIT = 20_000_000
# The unfiltered lattice scan is small: it adds one layer, not a second
# copy of the filtered scan's work.
N_LATTICE_R1 = 200_000


@dataclass(frozen=True)
class OracleCase:
    expr: str
    # ("primes", N): the first N primes; ("primes_ap", N, modulus, residue):
    # the first N primes in a class; ("primes_upto", X): the primes <= X;
    # ("range", a, b): the integers a..b.
    index_set: tuple
    reduce: str                      # "frac_unit" | "frac_nearest" | "floor"
    # A wrong point whose exact |value| is at least `defect_above` is the
    # known defect: reported, but it does not clear `correct`.  Any other
    # wrong point does.
    known_defect: str | None = None
    defect_above: float | None = None


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    points: int
    cases: tuple[OracleCase, ...] = ()
    check: str | None = None         # results key that must be true


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    configs: dict = field(default_factory=dict)  # file name -> text

    @property
    def points(self) -> int:
        return sum(c.points for c in self.commands)

    def sizes(self) -> dict:
        return {c.name: {"argv": " ".join(c.argv), "points": c.points}
                for c in self.commands}


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _irr(rng: np.random.Generator) -> str:
    return f"irr(0.{int(rng.integers(100_000_000, 1_000_000_000))})"


def _common(*argv: str) -> tuple[str, ...]:
    return (*argv, "--table-limit", str(TABLE_LIMIT))


KNOWN_DEFECT_CUBIC = ("fractional parts past 2^52 take the floor of the high "
                      "word only (ROADMAP item 1)")


def ud_report(seed: int, cfg_dir: Path) -> Workload:
    from primeud.corpus import CONTROL_CORPUS

    rng = _rng(seed, 1)
    ap_expr = f"{_irr(rng)}*x^(5/3)"
    residue = int(rng.choice([1, 3]))
    checkpoints = (1_000, 10_000, 100_000, 1_000_000)
    corpus_n = 200_000
    commands = (
        Command("ud-primes",
                _common("ud-test", "--expr", "x^(3/2)", "--N", "1000000",
                        "--checkpoints", ",".join(map(str, checkpoints))),
                points=sum(checkpoints),
                cases=(OracleCase("x^(3/2)", ("primes", 1_000_000), "frac_unit"),)),
        Command("corpus",
                _common("corpus-run", "--N", str(corpus_n)),
                points=len(CONTROL_CORPUS) * (1_000 + corpus_n),
                cases=tuple(OracleCase(e.literal, ("primes", corpus_n), "frac_unit")
                            for e in CONTROL_CORPUS),
                check="all_pass"),
        Command("ud-ap",
                _common("ud-test", "--expr", ap_expr, "--domain", "primes_in_ap",
                        "--modulus", "4", "--residue", str(residue),
                        "--N", "300000"),
                points=300_000,
                cases=(OracleCase(ap_expr, ("primes_ap", 300_000, 4, residue),
                                  "frac_unit"),)),
        Command("ud-cubic",
                _common("ud-test", "--expr", "pi*x^3", "--domain", "integers",
                        "--N", "400000"),
                points=400_000,
                cases=(OracleCase("pi*x^3", ("range", 2, 400_001), "frac_unit",
                                  known_defect=KNOWN_DEFECT_CUBIC,
                                  defect_above=2.0 ** 52),)),
    )
    return Workload(
        "ud-report",
        "discrepancy reports over primes: harmonic sums dominate; checkpoint "
        "prefixes and q<=10 after q<=50 are recomputed; pi*x^3 passes 2^52",
        commands)


def expsum(seed: int, cfg_dir: Path) -> Workload:
    rng = _rng(seed, 2)
    vaughan_phase = f"{_irr(rng)}*x^2"
    n_primes = 1_270_607  # pi(2 * 10^7)
    X = str(TABLE_LIMIT)
    commands = (
        Command("weyl-irr-quad",
                _common("weyl-sum", "--expr", "sqrt(2)*x^2", "--X", X,
                        "--threads", "1"),
                points=n_primes,
                cases=(OracleCase("sqrt(2)*x^2", ("primes_upto", TABLE_LIMIT),
                                  "frac_nearest"),)),
        Command("weyl-sqrt-log",
                _common("weyl-sum", "--expr", "x^(1/2) + log^2", "--X", X,
                        "--threads", "2"),
                points=n_primes,
                cases=(OracleCase("x^(1/2) + log^2", ("primes_upto", TABLE_LIMIT),
                                  "frac_nearest"),)),
        Command("weyl-int",
                _common("weyl-sum", "--expr", "pi*x^(3/2)", "--domain", "integers",
                        "--range", "2", "2000000"),
                points=2_000_000 - 1,
                cases=(OracleCase("pi*x^(3/2)", ("range", 2, 2_000_000),
                                  "frac_nearest"),)),
        Command("vaughan",
                ("vaughan-check", "--X", "1000000", "--u", "100", "--v", "100",
                 "--phase", vaughan_phase),
                points=1_000_000,
                cases=(OracleCase(vaughan_phase, ("range", 1, 1_000_000),
                                  "frac_nearest"),),
                check="identity_holds"),
    )
    return Workload(
        "expsum",
        "Weyl sums over 1.27M primes and 2M integers plus a Vaughan check: "
        "chunked evaluation, thread fan-out, arith tables; no sort, no harmonics",
        commands)


def recurrence(seed: int, cfg_dir: Path) -> Workload:
    rng = _rng(seed, 3)
    N = 1_000_000
    torus_exprs = ("x^(3/2)", "x^(1/2) + log^2")
    lattice_exprs = ("x^(3/2)", "x^(5/4)")
    fc_expr = "x^(5/3)"
    avg_exprs = ("x^(3/2)", "log")

    alphas = rng.uniform(0.05, 0.95, size=(2, 2))
    a = int(rng.integers(2, 5))
    b = int(rng.integers(a + 1, 8))
    y = sorted(int(v) for v in rng.choice(np.arange(0, 9), size=4, replace=False))
    torus = "\n".join([
        "kind = torus", f"N = {N}", "m = 2",
        *(f"alpha.{i + 1} = {float(row[0])!r} {float(row[1])!r}" for i, row in enumerate(alphas)),
        f"box.1 = 0 {a}/8 {y[0]}/8 {y[2]}/8",
        f"box.2 = {a}/8 {b}/8 {y[1]}/8 {y[3]}/8",
        f"exprs = {'; '.join(torus_exprs)}", ""])

    mask = rng.random(15) < 0.4
    mask[0] = True
    def lattice(n, r):
        return "\n".join([
            "kind = lattice", f"N = {n}", "period = 3 5",
            "mask = " + "".join("1" if m else "0" for m in mask), f"r = {r}",
            f"exprs = {'; '.join(lattice_exprs)}", ""])

    den = int(rng.integers(3, 12))
    measure = "\n".join([
        "kind = measure", f"N = {N}", "k = 1",
        "atom.1 = 0.5 @ 0",
        f"atom.2 = 0.5 @ {int(rng.integers(1, den))}/{den}",
        f"exprs = {fc_expr}", ""])

    freq = rng.uniform(0.01, 0.99, size=(3, 2))
    unitary = "\n".join([
        "kind = diagonal-unitary", f"N = {N}",
        *(f"freq.{i + 1} = {float(row[0])!r} {float(row[1])!r}" for i, row in enumerate(freq)),
        "freq.4 = 0 0",
        *(f"f.{i + 1} = 1,0" for i in range(4)),
        f"exprs = {'; '.join(avg_exprs)}", ""])

    # r = 1 takes lattice_recurrence_scan, r = 2 filtered_recurrence.
    configs = {"torus.cfg": torus, "lattice.cfg": lattice(N, 2),
               "lattice_r1.cfg": lattice(N_LATTICE_R1, 1),
               "measure.cfg": measure, "unitary.cfg": unitary}

    def cmd(name, sub, cfg, exprs, n=N):
        return Command(name, _common(sub, "--config", str(cfg_dir / cfg)),
                       points=n * len(exprs),
                       cases=tuple(OracleCase(e, ("primes", n), "floor") for e in exprs))

    commands = (
        cmd("torus", "recurrence-scan", "torus.cfg", torus_exprs),
        cmd("lattice", "recurrence-scan", "lattice.cfg", lattice_exprs),
        cmd("lattice-r1", "recurrence-scan", "lattice_r1.cfg", lattice_exprs,
            N_LATTICE_R1),
        cmd("fcplus", "fcplus-probe", "measure.cfg", (fc_expr,)),
        cmd("average", "ergodic-average", "unitary.cfg", avg_exprs),
    )
    return Workload(
        "recurrence",
        "index vectors over 10^6 primes: floors through unchunked dd kernels, "
        "overlap volumes and spectral transforms; the peak-memory workload",
        commands, configs)


WORKLOADS = {"ud-report": ud_report, "expsum": expsum, "recurrence": recurrence}


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload `name` for `seed`, with its configs under work/cfg_<seed>."""
    return WORKLOADS[name](seed, work / f"cfg_{seed}")
