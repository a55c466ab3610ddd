"""Command-line front end: every experiment is reachable as a subcommand
with reproducible, config-hashed artifacts.

Exit codes: 0 success, 2 validation/usage error, 3 mathematical assertion
failure (a bound that must hold reported holds=false, or a corpus control
missing its criterion).  Identical config + seed produce byte-identical
artifacts at any thread count (the chunk size is the constant
hardy.DEFAULT_CHUNK): outputs carry no timestamps and keys are sorted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import GateError
from .flatcfg import (
    ConfigError,
    get_int,
    indexed_rows,
    load_flat_config,
    parse_complex,
    parse_floats,
    parse_fraction,
)
from .primes import load_prime_cache, save_prime_cache, sieve, vaughan_decompose

if TYPE_CHECKING:
    from .ergodic import (DiagonalUnitarySystem, LatticeSet, SequenceSpec,
                          SpectralMeasure, TorusSystem)

# The modules behind the experiments (hardy and all that builds on it) are
# imported by the handlers that use them, so `sieve` and `--version` load
# only the prime sieve.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ASSERTION = 3

CACHE_ENV = "PRIMEUD_CACHE_DIR"


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    parameters: dict
    seed: int = 0
    output: str | None = None
    fmt: str = "json"
    threads: int = 1
    table_limit: int = 2_000_000

    def effective(self) -> dict:
        """Every field but the output path and the thread count (``fmt`` as
        ``format``), and the version."""
        eff = _jsonable(self)
        del eff["output"], eff["threads"]
        eff["format"] = eff.pop("fmt")
        return {**eff, "version": __version__}

    def digest(self) -> str:
        blob = json.dumps(self.effective(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _jsonable(v):
    """The one conversion of a result to JSON values: a dataclass instance
    becomes a dict of its fields, complex numbers [re, im], fractions
    strings, numpy scalars and arrays Python numbers and lists."""
    if is_dataclass(v) and not isinstance(v, type):
        return {f.name: _jsonable(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return _jsonable(v.tolist())
    return v


def _emit(config: RunConfig, results, csv_rows=None, csv_header=None,
          plot_rows=None, **extra) -> None:
    """Write the artifact in the selected format (or pretty-print to stdout).

    `results` is a result dataclass or a dict; the artifact's ``results``
    are its fields (or items) plus the keys of `extra`.
    """
    payload = {
        "config": config.effective(),
        "config_hash": config.digest(),
        "results": {**_jsonable(results), **_jsonable(extra)},
    }
    if config.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif config.fmt == "csv":
        if csv_rows is None:
            raise UsageError(f"command {config.command} has no CSV form")
        lines = [f"# {k}={v}" for k, v in sorted(_flatten(payload["config"]).items())]
        lines.append(f"# config_hash={payload['config_hash']}")
        lines.append(",".join(csv_header))
        lines.extend(",".join(str(v) for v in row) for row in csv_rows)
        text = "\n".join(lines) + "\n"
    elif config.fmt == "plotdata":
        if plot_rows is None:
            raise UsageError(f"command {config.command} has no plotdata form")
        lines = [f"# config_hash={payload['config_hash']}"]
        lines.extend(" ".join(str(v) for v in row) for row in plot_rows)
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown format {config.fmt!r}")
    if config.output:
        with open(config.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = json.dumps(v) if isinstance(v, (list,)) else v
    return out


def _cache_path(config: RunConfig) -> str | None:
    """--cache, else primes_<table limit>.bin under $PRIMEUD_CACHE_DIR."""
    cache = config.parameters.get("cache")
    if cache is None and os.environ.get(CACHE_ENV):
        cache = os.path.join(os.environ[CACHE_ENV], f"primes_{config.table_limit}.bin")
    return cache


def _get_table(config: RunConfig):
    """The prime table up to the run's limit: a cache of exactly that limit,
    else a fresh sieve that (re)writes the cache.  A cache that fails to
    load is rebuilt, never trusted."""
    cache = _cache_path(config)
    if cache and os.path.exists(cache):
        try:
            table = load_prime_cache(cache)
        except ValueError:
            table = None
        if table is not None and table.limit == config.table_limit:
            return table
    table = sieve(config.table_limit)
    _save_cache(table, cache)
    return table


def _save_cache(table, cache) -> None:
    """Write the cache, if one is set; a path that cannot be written exits 2."""
    if cache:
        try:
            save_prime_cache(table, cache)
        except OSError as exc:
            raise UsageError(f"cannot write prime cache {cache}: "
                             f"{exc.strerror or exc}") from exc


def _parse_expr_arg(text: str):
    from .literals import ExprSyntaxError, parse_expr

    try:
        return parse_expr(text)
    except ExprSyntaxError as exc:
        raise UsageError(f"malformed expression literal: {exc}") from exc


# -- subcommand handlers ---------------------------------------------------------


def _cmd_sieve(config: RunConfig) -> int:
    table = sieve(config.table_limit)
    cache = _cache_path(config)
    _save_cache(table, cache)
    rows = sorted(table.pi_checkpoints.items())
    results = {
        "limit": table.limit,
        "count": len(table.primes),
        "pi_checkpoints": {str(k): v for k, v in rows},
        "largest": int(table.primes[-1]),
        "cache": cache,
    }
    _emit(config, results, csv_rows=rows, csv_header=["x", "pi"],
          plot_rows=rows)
    return EXIT_OK


def _cmd_ud_test(config: RunConfig) -> int:
    from .discrepancy import equidistribution_report

    p = config.parameters
    expr = _parse_expr_arg(p["expr"])
    domain = p["domain"]
    checkpoints = p["checkpoints"] or [p["N"]]
    if max(checkpoints) > p["N"]:
        raise UsageError("checkpoints cannot exceed N")
    if any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise UsageError("checkpoints must be strictly increasing")
    if domain == "primes_in_ap" and not 0 <= p["residue"] < p["modulus"]:
        hint = ("; --domain primes_in_ap takes --modulus M --residue R"
                if p["modulus"] == 1 else "")
        raise UsageError(f"residue must lie in [0, modulus): got residue "
                         f"{p['residue']}, modulus {p['modulus']}{hint}")
    table = None
    if domain != "integers":
        table = _get_table(config)
    reports = []
    for N in checkpoints:
        rep = equidistribution_report(
            expr, p["q"], domain, N, table,
            modulus=p["modulus"], residue=p["residue"], threads=config.threads,
        )
        reports.append(rep)
    csv_rows = [
        (r.N, f"{r.star:.12g}", f"{r.et_bound:.12g}",
         f"{max(m for _, m in r.weyl_moduli):.12g}")
        for r in reports
    ]
    plot_rows = [(r.N, f"{r.star:.12g}") for r in reports]
    _emit(config, {"reports": reports}, csv_rows=csv_rows,
          csv_header=["N", "star", "et_bound", "max_weyl_q10"],
          plot_rows=plot_rows)
    return EXIT_OK


def _cmd_weyl_sum(config: RunConfig) -> int:
    from .expsums import weyl_sum_integers, weyl_sum_primes

    p = config.parameters
    phase = _parse_expr_arg(p["expr"])
    if p["domain"] == "integers":
        if p["range"] is None:
            raise UsageError("--range A B is required for the integers domain")
        a, b = p["range"]
        res = weyl_sum_integers(phase, p["q"], a, b, threads=config.threads)
    else:
        table = _get_table(config)
        X = p["X"] or config.table_limit
        res = weyl_sum_primes(phase, p["q"], X, table, X0=p["X0"],
                              threads=config.threads)
    _emit(config, res)
    return EXIT_OK


def _cmd_vaughan_check(config: RunConfig) -> int:
    """g(n) = e(phase(n)), or a seeded random unit, tabulated once for
    0 <= n <= X; vaughan_decompose reads each point many times.  A phase
    table starts at n = 2, inside the log domain: g(0) is never read and
    g(1) only as log(1) g(1), so both stay 0."""
    p = config.parameters
    X, u, v = p["X"], p["u"], p["v"]
    size = max(X, 0) + 1  # X < v is vaughan_decompose's to refuse
    if p["phase"] is not None:
        from .ddarith import frac_nearest
        from .expsums import e
        from .hardy import _check_magnitude, _evaluate_chunks

        phase = _parse_expr_arg(p["phase"])
        _check_magnitude(phase, float(X))
        tbl = np.zeros(size, dtype=complex)
        np.concatenate(_evaluate_chunks(
            phase, np.arange(2, size, dtype=np.int64),
            lambda vals, _: e(frac_nearest(vals)), threads=config.threads, first=2),
            out=tbl[2:])
    else:
        rng = np.random.default_rng(config.seed)
        tbl = np.exp(2j * np.pi * rng.random(size))

    rep = vaughan_decompose(tbl, u, v)
    holds = rep.relative_residual < 1e-9
    _emit(config, rep, residual=rep.residual,
          relative_residual=rep.relative_residual, identity_holds=holds)
    return EXIT_OK if holds else EXIT_ASSERTION


def _cmd_bound_check(config: RunConfig) -> int:
    from .discrepancy import fractional_parts
    from .expsums import (composite_bound_eval, erdos_turan_bound,
                          kusmin_landau_check, vdc_inequality_check)
    from .hardy import verify_differential_inequalities

    p = config.parameters
    which = p["which"]
    if which in ("kusmin-landau", "composite", "erdos-turan", "differential") \
            and not p.get("expr"):
        raise UsageError(f"bound check {which!r} needs --expr")
    must_hold = False
    if which == "kusmin-landau":
        if not p.get("range"):
            raise UsageError("kusmin-landau needs --range A B")
        phase = _parse_expr_arg(p["expr"])
        rep = kusmin_landau_check(phase, p["q"], p["range"][0], p["range"][1],
                                  threads=config.threads)
    elif which == "vdc":
        rng = np.random.default_rng(config.seed)
        vals = np.exp(2j * np.pi * rng.random(p["N"]))
        rep = vdc_inequality_check(vals, p["H"])
        must_hold = True
    elif which == "composite":
        phase = _parse_expr_arg(p["expr"])
        rep = composite_bound_eval(phase, p["q"], p["k"], p["X1"], p["X"],
                                   threads=config.threads)
    elif which == "erdos-turan":
        expr = _parse_expr_arg(p["expr"])
        table = _get_table(config)
        sample = fractional_parts(expr, p["q"], "primes", p["N"], table,
                                  threads=config.threads)
        rep = erdos_turan_bound(sample.points, p["Q"])
        must_hold = True
    elif which == "differential":
        expr = _parse_expr_arg(p["expr"])
        samples = p["samples"] or [10.0**j for j in (1, 2, 3, 4, 5, 6)]
        rep = verify_differential_inequalities(expr, samples, j_max=p["j_max"])
        _emit(config, {"rows": rep.rows}, all_ok=rep.all_ok,
              flagged=len(rep.flagged))
        return EXIT_OK if rep.all_ok else EXIT_ASSERTION
    else:
        raise UsageError(f"unknown bound check {which!r}")
    _emit(config, rep, ratio=rep.ratio)
    return EXIT_ASSERTION if must_hold and not rep.holds else EXIT_OK


def _build_spec(cfg: dict) -> SequenceSpec:
    from .ergodic import SequenceSpec
    from .literals import ExprSyntaxError, parse_expr

    exprs = []
    if cfg.get("exprs"):
        for literal in cfg["exprs"].split(";"):
            literal = literal.strip()
            if literal:
                try:
                    exprs.append(parse_expr(literal))
                except ExprSyntaxError as exc:
                    raise ConfigError(f"exprs: {exc}") from exc
    L_rows = indexed_rows(cfg, "L")
    L = None
    if L_rows:
        L = tuple(tuple(int(tok) for tok in row.split()) for row in L_rows)
    return SequenceSpec(
        exprs=tuple(exprs),
        poly_degree=get_int(cfg, "poly_degree", 0),
        shift=get_int(cfg, "shift", 0),
        L=L,
    )


def _build_unitary(cfg: dict) -> DiagonalUnitarySystem:
    from .ergodic import DiagonalUnitarySystem

    freq = [parse_floats(row) for row in indexed_rows(cfg, "freq")]
    if not freq:
        raise ConfigError("diagonal-unitary config needs freq.1 ... rows")
    fvec = [parse_complex(row) for row in indexed_rows(cfg, "f")]
    if len(fvec) != len(freq):
        raise ConfigError("need one f.J entry per freq.J row")
    return DiagonalUnitarySystem(frequencies=np.asarray(freq),
                                 f=np.asarray(fvec, dtype=complex))


def _build_torus(cfg: dict) -> TorusSystem:
    from .ergodic import Box, TorusSystem

    m = get_int(cfg, "m")
    alphas = [parse_floats(row) for row in indexed_rows(cfg, "alpha")]
    if len(alphas) != m:
        raise ConfigError(f"need {m} alpha.I rows")
    boxes = []
    for row in indexed_rows(cfg, "box"):
        toks = row.split()
        if len(toks) != 2 * m:
            raise ConfigError(f"box rows need {2*m} rationals (lo hi per dim)")
        fr = [parse_fraction(t) for t in toks]
        boxes.append(Box(tuple(fr[0::2]), tuple(fr[1::2])))
    if not boxes:
        raise ConfigError("torus config needs box.1 ... rows")
    return TorusSystem(alphas=np.asarray(alphas), boxes=tuple(boxes))


def _build_lattice(cfg: dict) -> LatticeSet:
    from .ergodic import LatticeSet

    if "period" not in cfg:
        raise ConfigError("lattice config needs 'period'")
    period = tuple(int(t) for t in cfg["period"].split())
    cells = "".join(cfg.get("mask", "").split())
    size = int(np.prod(period))
    if len(cells) != size or set(cells) - {"0", "1"}:
        raise ConfigError(f"mask must be {size} cells of 0/1")
    mask = np.array([c == "1" for c in cells], dtype=bool).reshape(period)
    return LatticeSet(period=period, mask=mask)


def _build_measure(cfg: dict) -> SpectralMeasure:
    from .ergodic import SpectralMeasure

    k = get_int(cfg, "k")
    atoms = []
    for row in indexed_rows(cfg, "atom"):
        if "@" not in row:
            raise ConfigError("atom rows use 'mass @ loc1 loc2 ...'")
        mass_s, loc_s = row.split("@", 1)
        loc = tuple(parse_fraction(t) for t in loc_s.split())
        atoms.append((loc, float(mass_s)))
    table = []
    for key, value in cfg.items():
        if key.startswith("ac."):
            try:
                d = tuple(int(t) for t in key[3:].split(","))
            except ValueError as exc:
                raise ConfigError(f"{key}: index is not integers d1,...,dk") from exc
            table.append((d, parse_complex(value)))
    return SpectralMeasure(k=k, atoms=tuple(atoms), ac_table=tuple(table))


def _load_experiment(config: RunConfig) -> dict:
    path = config.parameters.get("config")
    if not path:
        raise UsageError("this command needs --config FILE")
    try:
        cfg = load_flat_config(path)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    if "table_limit" in cfg:
        config.table_limit = get_int(cfg, "table_limit")
    if "out" in cfg and not config.output:
        config.output = cfg["out"]
    config.parameters["experiment"] = dict(cfg)
    return cfg


def _cmd_ergodic_average(config: RunConfig) -> int:
    from .ergodic import ergodic_average

    cfg = _load_experiment(config)
    if cfg.get("kind", "diagonal-unitary") != "diagonal-unitary":
        raise UsageError("ergodic-average expects kind = diagonal-unitary")
    sysm = _build_unitary(cfg)
    spec = _build_spec(cfg)
    if spec.poly_degree or spec.L is not None:
        raise UsageError("ergodic-average uses floor coordinates only")
    N = get_int(cfg, "N")
    table = _get_table(config)
    res = ergodic_average(sysm, spec.exprs, N, table)
    _emit(config, res, N=N, table_limit=table.limit)
    return EXIT_OK


def _cmd_recurrence_scan(config: RunConfig) -> int:
    from .ergodic import (filtered_recurrence, lattice_recurrence_scan,
                          torus_recurrence_average)

    cfg = _load_experiment(config)
    kind = cfg.get("kind")
    spec = _build_spec(cfg)
    N = get_int(cfg, "N")
    r = get_int(cfg, "r", 1)
    table = _get_table(config)
    if kind == "torus":
        target = _build_torus(cfg)
    elif kind == "lattice":
        target = _build_lattice(cfg)
    else:
        raise UsageError("recurrence-scan expects kind = torus | lattice")
    if r != 1:
        res = filtered_recurrence(target, r, spec, N, table)
    elif kind == "torus":
        res = torus_recurrence_average(target, spec, N, table)
    else:
        res = lattice_recurrence_scan(target, spec, N, table)
    _emit(config, res, kind=kind, margin=res.margin, table_limit=table.limit)
    return EXIT_OK


def _cmd_fcplus_probe(config: RunConfig) -> int:
    from .ergodic import fcplus_probe

    cfg = _load_experiment(config)
    sigma = _build_measure(cfg)
    spec = _build_spec(cfg)
    N = get_int(cfg, "N")
    table = _get_table(config)
    res = fcplus_probe(sigma, spec, N, table)
    _emit(config, res, table_limit=table.limit)
    return EXIT_OK


def _cmd_corpus_run(config: RunConfig) -> int:
    from .corpus import CONTROL_CORPUS
    from .discrepancy import fractional_parts, star_discrepancy
    from .hardy import boshernitzan_condition

    p = config.parameters
    N = p["N"]
    if N < 2_000:
        raise UsageError("corpus-run needs N >= 2000 (the trend compares to N = 1000)")
    checkpoints = sorted({1000, N})
    table = _get_table(config)
    rows = []
    all_pass = True
    for entry in CONTROL_CORPUS:
        expr = entry.expr
        stars = {n: star_discrepancy(fractional_parts(
            expr, 1, "primes", n, table, threads=config.threads).points)
            for n in checkpoints}
        criterion = boshernitzan_condition(expr)
        if entry.expected_ud:
            passed = stars[N] < stars[1000] / 2.0
            verdict = "halving"
        else:
            passed = stars[N] > 0.05
            verdict = "floor"
        consistent = criterion == entry.expected_ud
        rows.append({
            "name": entry.name,
            "expr": entry.literal,
            "class": entry.klass,
            "expected_ud": entry.expected_ud,
            "criterion_ud": criterion,
            "criterion_consistent": consistent,
            "stars": {str(k): v for k, v in stars.items()},
            "check": verdict,
            "passed": bool(passed),
        })
        all_pass &= passed and consistent
    results = {"N": N, "entries": rows, "all_pass": all_pass,
               "table_limit": table.limit}
    csv_rows = [
        (r["name"], r["expected_ud"], r["criterion_ud"],
         f"{r['stars'][str(1000)]:.12g}", f"{r['stars'][str(N)]:.12g}",
         r["check"], r["passed"])
        for r in rows
    ]
    _emit(config, results, csv_rows=csv_rows,
          csv_header=["name", "expected_ud", "criterion_ud",
                      "star_1000", f"star_{N}", "check", "passed"])
    return EXIT_OK if all_pass else EXIT_ASSERTION


# -- argument parsing --------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(t) for t in text.split(",")]


def _floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of numbers") from None


def _add_common(sp, *groups):
    """--out and --format, plus the flags of each named group: "seed",
    "threads", "table" (--table-limit) and "cache"."""
    sp.add_argument("--out", default=None, help="artifact path (default: stdout)")
    sp.add_argument("--format", default=None,
                    choices=["json", "csv", "plotdata"], dest="fmt",
                    help="default: inferred from --out extension, else json")
    if "seed" in groups:
        sp.add_argument("--seed", type=int, default=RunConfig.seed)
    if "threads" in groups:
        sp.add_argument("--threads", type=_positive_int, default=RunConfig.threads)
    if "table" in groups:
        sp.add_argument("--table-limit", type=int, default=RunConfig.table_limit)
    if "cache" in groups:
        sp.add_argument("--cache", default=None,
                        help="prime cache path (default under $%s)" % CACHE_ENV)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="primeud",
        description="equidistribution-along-primes experiment runner",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sieve", help="build a prime table")
    sp.add_argument("--limit", type=int, required=True)
    _add_common(sp, "cache")

    sp = sub.add_parser("ud-test", help="discrepancy report for {q*f(n)}")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--domain", default="primes",
                    choices=["integers", "primes", "primes_in_ap"])
    sp.add_argument("--modulus", type=_positive_int, default=1)
    sp.add_argument("--residue", type=int, default=1)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--checkpoints", type=_positive_ints, default=None,
                    help="comma-separated N checkpoints (default: just N)")
    _add_common(sp, "threads", "table", "cache")

    sp = sub.add_parser("weyl-sum", help="exponential sum over a range or primes")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--domain", default="primes", choices=["integers", "primes"])
    sp.add_argument("--range", type=int, nargs=2, default=None, metavar=("A", "B"))
    sp.add_argument("--X", type=int, default=None)
    sp.add_argument("--X0", type=int, default=None)
    _add_common(sp, "threads", "table", "cache")

    sp = sub.add_parser("vaughan-check", help="bilinear decomposition identity")
    sp.add_argument("--X", type=int, required=True)
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--phase", default=None,
                    help="g(n) = e(phase(n)); omit for seeded random unit g")
    _add_common(sp, "seed", "threads")

    sp = sub.add_parser("bound-check", help="bound-vs-actual evaluators")
    sp.add_argument("--which", required=True,
                    choices=["kusmin-landau", "vdc", "composite",
                             "erdos-turan", "differential"])
    sp.add_argument("--expr", default=None)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--range", type=int, nargs=2, default=None, metavar=("A", "B"))
    sp.add_argument("--N", type=_positive_int, default=1000)
    sp.add_argument("--H", type=int, default=10)
    sp.add_argument("--Q", type=int, default=50)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--X1", type=int, default=10_000)
    sp.add_argument("--X", type=int, default=10_000)
    sp.add_argument("--j-max", type=int, default=2, dest="j_max")
    sp.add_argument("--samples", type=_floats, default=None,
                    help="comma-separated x samples for --which differential")
    _add_common(sp, "seed", "threads", "table", "cache")

    for name, help_ in [
        ("ergodic-average", "mean average of a diagonal-unitary system"),
        ("recurrence-scan", "torus / lattice recurrence experiment"),
        ("fcplus-probe", "spectral tail-max probe"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True,
                        help="flat key-value experiment config")
        _add_common(sp, "table", "cache")

    sp = sub.add_parser("corpus-run", help="positive/negative control matrix")
    sp.add_argument("--N", type=int, default=10_000)
    _add_common(sp, "threads", "table", "cache")
    return ap


_HANDLERS = {
    "sieve": _cmd_sieve,
    "ud-test": _cmd_ud_test,
    "weyl-sum": _cmd_weyl_sum,
    "vaughan-check": _cmd_vaughan_check,
    "bound-check": _cmd_bound_check,
    "ergodic-average": _cmd_ergodic_average,
    "recurrence-scan": _cmd_recurrence_scan,
    "fcplus-probe": _cmd_fcplus_probe,
    "corpus-run": _cmd_corpus_run,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run flags a subparser defines go to their RunConfig fields, the
    rest to ``parameters``; a flag it lacks keeps the RunConfig default."""
    params = dict(vars(args))
    command, out, fmt = params.pop("command"), params.pop("out"), params.pop("fmt")
    run_flags = {k: params.pop(k) for k in ("seed", "threads", "table_limit")
                 if k in params}
    if command == "sieve":
        run_flags["table_limit"] = params.pop("limit")
    if fmt is None:
        suffix = os.path.splitext(out)[1].lower() if out else ""
        fmt = {".csv": "csv", ".dat": "plotdata", ".plot": "plotdata"}.get(
            suffix, "json")
    return RunConfig(command=command, parameters=params, output=out, fmt=fmt,
                     **run_flags)


def run(config: RunConfig) -> int:
    """Dispatch a validated run config; returns the process exit code."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    return handler(config)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = config_from_args(args)
    try:
        return run(config)
    # ExprSyntaxError and ExprDomainError are ValueErrors too
    except (UsageError, ConfigError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the refused size
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GateError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
