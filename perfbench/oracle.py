"""mpmath spot check of the phase points a workload's commands compute.

For each oracle case, a seeded sample of its indices (always including the
last, largest one) goes through the same public primeud calls the command
makes (``evaluate_array`` then ``frac_unit``, ``frac_nearest`` or
``floor_with_boundary``), pointwise.  The expression literal is evaluated
independently of primeud's parser, at 50 digits.

A fractional part is wrong when its circular distance from the mpmath value
exceeds BOUNDARY_TOL; a floor f is wrong unless the value lies in
[f - BOUNDARY_TOL, f + 1 + BOUNDARY_TOL).  A wrong point is unexpected
unless its case marks a known defect and the exact |value| is at least the
case's ``defect_above``.
"""

from __future__ import annotations

import re

import numpy as np

SAMPLES_PER_CASE = 256
DIGITS = 50

_TOKEN = re.compile(r"\s*(irr\(\s*[0-9.]+\s*\)|sqrt|pi|phi|log|e|x|[0-9]+(?:\.[0-9]+)?|[-+*/^()])")


def _python_source(literal: str) -> str:
    """Literal -> Python expression over mpmath names X (the point) and L (log X)."""
    out, pos = [], 0
    literal = literal.strip()
    while pos < len(literal):
        m = _TOKEN.match(literal, pos)
        if not m:
            raise ValueError(f"oracle cannot parse {literal!r} at {pos}")
        tok, pos = m.group(1), m.end()
        if tok.startswith("irr("):
            out.append(f"mpf('{tok[4:-1].strip()}')")
        elif tok[0].isdigit():
            out.append(f"mpf('{tok}')")
        else:
            out.append({"sqrt": "sqrt", "pi": "pi", "phi": "((1 + sqrt(5)) / 2)",
                        "log": "L", "e": "e", "x": "X", "^": "**"}.get(tok, tok))
    return "".join(out)


def sample_indices(index_set: tuple, table, rng: np.random.Generator) -> np.ndarray:
    kind = index_set[0]
    if kind == "primes":
        values = table.primes[: index_set[1]]
    elif kind == "primes_ap":
        _, n, modulus, residue = index_set
        values = table.primes[table.primes % modulus == residue][:n]
    elif kind == "primes_upto":
        values = table.primes[: table.pi(index_set[1])]
    elif kind == "range":
        a, b = index_set[1:]
        picks = rng.integers(a, b, size=SAMPLES_PER_CASE - 1)
        return np.sort(np.append(picks, b)).astype(np.int64)
    else:
        raise ValueError(f"unknown index set {index_set!r}")
    picks = rng.integers(0, len(values) - 1, size=SAMPLES_PER_CASE - 1)
    return np.sort(values[np.append(picks, len(values) - 1)])


def program_values(expr_literal: str, reduce: str, xs: np.ndarray) -> np.ndarray:
    from primeud.ddarith import floor_with_boundary, frac_nearest, frac_unit
    from primeud.hardy import BOUNDARY_TOL, evaluate_array
    from primeud.literals import parse_expr

    vals = evaluate_array(parse_expr(expr_literal), xs.astype(np.float64), "compensated")
    if reduce == "frac_unit":
        return frac_unit(vals * 1.0, BOUNDARY_TOL)[0]
    if reduce == "frac_nearest":
        return frac_nearest(vals * 1.0)
    if reduce == "floor":
        return floor_with_boundary(vals, BOUNDARY_TOL)[0]
    raise ValueError(f"unknown reduction {reduce!r}")


def count_errors(case, xs: np.ndarray, got: np.ndarray) -> tuple[int, int]:
    """(wrong points, wrong points the case's known defect does not explain)."""
    import mpmath

    from primeud.hardy import BOUNDARY_TOL

    ctx = mpmath.mp.clone()
    ctx.dps = DIGITS
    code = compile(_python_source(case.expr), "<oracle>", "eval")
    names = {"mpf": ctx.mpf, "sqrt": ctx.sqrt, "pi": ctx.pi, "e": ctx.e}
    tol = ctx.mpf(BOUNDARY_TOL)
    defect_above = (ctx.inf if case.defect_above is None
                    else ctx.mpf(case.defect_above))
    errors = unexpected = 0
    for x, g in zip(xs.tolist(), got.tolist()):
        X = ctx.mpf(x)
        v = eval(code, {"__builtins__": {}}, {**names, "X": X, "L": ctx.log(X)})
        if case.reduce == "floor":
            ok = g - tol <= v < g + 1 + tol
        else:
            d = ctx.frac(ctx.mpf(g) - v)
            ok = min(d, 1 - d) <= tol
        if not ok:
            errors += 1
            unexpected += abs(v) < defect_above
    return errors, unexpected


def check(commands, table, seed: int) -> list[dict]:
    """One row per oracle case: command, expr, samples, errors (all wrong
    points and the unexpected ones), known defect."""
    rows = []
    for ci, cmd in enumerate(commands):
        for ki, case in enumerate(cmd.cases):
            rng = np.random.default_rng([seed, 7, ci, ki])
            xs = sample_indices(case.index_set, table, rng)
            got = program_values(case.expr, case.reduce, xs)
            errors, unexpected = count_errors(case, xs, got)
            rows.append({"command": cmd.name, "expr": case.expr,
                         "reduce": case.reduce, "samples": len(xs),
                         "errors": errors, "unexpected": unexpected,
                         "known_defect": case.known_defect,
                         "defect_above": case.defect_above})
    return rows
