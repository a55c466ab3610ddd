"""Flat key-value experiment config format.

Grammar (one entry per line; '#' starts a comment; blank lines ignored):

    key = value

Keys are dotted/indexed lowercase words; an index may be a comma-separated
integer tuple (ac.0,1).  Values are whitespace-separated
scalars: integers, decimals, rationals 'p/q', complex 're,im', or free text
(expression literals).  Repeated indexed keys (freq.1, freq.2, ...) build
row lists.  Which keys are meaningful depends on the experiment kind:

    kind = diagonal-unitary | torus | lattice | measure
    N = 100000                  horizon
    exprs = x^(1/2) ; x^(1/3)   expression literals, ';'-separated
    poly_degree = 1             polynomial coordinates (p+shift)^j, j<=deg
    shift = 1                   -1 | 0 | 1, applies to polynomial coords
    L.1 = 1 0                   optional integer matrix rows
    r = 1                       divisibility filter (1 = unfiltered)
    table_limit = 2000000
    out = results.json

    # diagonal-unitary
    freq.1 = 0.6180339887 0.0   frequency row per basis vector
    f.1 = 1,0                   complex vector entry (re,im)

    # torus
    m = 2
    alpha.1 = 0.618 0.0         translation vector of T_1
    box.1 = 0 1/2 0 1/2         lo/hi per dimension, rationals allowed

    # lattice
    period = 2 5
    mask = 10 01 ...            row-major 0/1 cells, any whitespace

    # measure (spectral probe)
    k = 1
    atom.1 = 0.5 @ 1/3          mass @ location coords
    ac.0 = 1,0                  density Fourier coefficient at d = (0,)
    ac.0,1 = 0.5,0              on the k-torus, k >= 2: d = (0, 1)
"""

from __future__ import annotations

import re
from fractions import Fraction


class ConfigError(ValueError):
    """Malformed flat config."""


_KEY = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.,\-]*$")


def parse_flat_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not _KEY.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_flat_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_flat_config(f.read())


def indexed_rows(cfg: dict[str, str], prefix: str) -> list[str]:
    """Values of prefix.1, prefix.2, ... in index order; contiguous from 1."""
    rows = {}
    pat = re.compile(rf"^{re.escape(prefix)}\.(\d+)$")
    for key, value in cfg.items():
        m = pat.match(key)
        if m:
            rows[int(m.group(1))] = value
    if not rows:
        return []
    if sorted(rows) != list(range(1, len(rows) + 1)):
        raise ConfigError(f"{prefix}.* indices must be contiguous from 1")
    return [rows[i] for i in range(1, len(rows) + 1)]


def get_int(cfg, key, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {cfg[key]!r}") from exc


def parse_fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {token!r}") from exc


def parse_floats(value: str) -> list[float]:
    try:
        return [float(Fraction(tok)) for tok in value.split()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a number list: {value!r}") from exc


def parse_complex(token: str) -> complex:
    parts = token.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"not a complex 're,im' value: {token!r}")
