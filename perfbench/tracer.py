"""Span recorder that wraps primeud's public functions from outside.

``SpanRecorder.install`` replaces each public function of the traced
modules with a timing wrapper in every ``primeud`` module that binds the
name (so ``from .hardy import evaluate_array`` call sites are covered), and
wraps two methods.  Spans stay in memory as (id, parent id, name, start,
end); ``restore`` puts the originals back.

Self time is the wall time during which a span is open with no open child.
Worker threads of the library's thread pools have no span of their own to
nest under, so their spans take the spawning thread's innermost span as
parent; where several spans are leaves at one instant, that instant is
split evenly between them.  Self times therefore partition the time
covered by any span, and the rest of a pass is unattributed.

The error-free transforms ``two_sum``, ``quick_two_sum``, ``split``,
``two_prod`` and ``as_dd`` run inside every double-double operator, so they
are not wrapped: their time is part of the caller's self time.

The recorder's own counting of a counted call's arguments (binding them to
the signature and, for ``weyl_moduli``, hashing the points) runs after the
call's span has closed, as a span of its own named ``trace.counting``, so
that time goes to ``trace.counting_s`` and not to the caller's layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

MODULES = ("primes", "ddarith", "hardy", "expsums", "discrepancy", "ergodic", "cli")
METHODS = (("ergodic", "LatticeSet", "difference_mask"),
           ("ergodic", "SpectralMeasure", "fourier"))
UNWRAPPED = {"ddarith.two_sum", "ddarith.quick_two_sum", "ddarith.split",
             "ddarith.two_prod", "ddarith.as_dd"}
# dd kernels that other dd functions call: their self time joins the caller's.
FOLDED = {"ddarith.dd_floor", "ddarith.dd_ipow", "ddarith.dd_nroot", "ddarith.dd_sqrt"}

BUCKETS = {
    "primes.sieve": "primes.sieve_s",
    "primes.save_prime_cache": "primes.cache_save_s",
    "primes.load_prime_cache": "primes.cache_load_s",
    "primes.arith_tables": "primes.arith_tables_s",
    "primes.vaughan_decompose": "primes.vaughan_self_s",
    "ddarith.dd_log": "ddarith.dd_log_s",
    "ddarith.dd_pow_frac": "ddarith.dd_pow_frac_s",
    "ddarith.frac_unit": "ddarith.frac_unit_s",
    "ddarith.frac_nearest": "ddarith.frac_nearest_s",
    "ddarith.floor_with_boundary": "ddarith.floor_s",
    "hardy.evaluate_array": "hardy.evaluate_self_s",
    "hardy.evaluate": "hardy.evaluate_self_s",
    "hardy.magnitude_bound": "hardy.evaluate_self_s",
    "expsums.weyl_sum_integers": "expsums.weyl_sum_self_s",
    "expsums.weyl_sum_primes": "expsums.weyl_sum_self_s",
    "expsums.weyl_moduli": "expsums.weyl_moduli_s",
    "expsums.erdos_turan_bound": "expsums.erdos_turan_self_s",
    "discrepancy.fractional_parts": "discrepancy.fractional_parts_self_s",
    "discrepancy.star_discrepancy": "discrepancy.star_s",
    "discrepancy.extreme_discrepancy": "discrepancy.star_s",
    "discrepancy.report_from_points": "discrepancy.report_self_s",
    "discrepancy.equidistribution_report": "discrepancy.report_self_s",
    "discrepancy.ud_along_ap": "discrepancy.report_self_s",
    "ergodic.index_vectors": "ergodic.index_vectors_self_s",
    "ergodic.prime_index_sequence": "ergodic.index_vectors_self_s",
    "ergodic.torus_recurrence_average": "ergodic.torus_self_s",
    "ergodic.filtered_recurrence": "ergodic.filtered_self_s",
    "ergodic.lattice_recurrence_scan": "ergodic.lattice_self_s",
    "ergodic.LatticeSet.difference_mask": "ergodic.difference_mask_s",
    "ergodic.SpectralMeasure.fourier": "ergodic.fourier_s",
    "ergodic.ergodic_average": "ergodic.average_self_s",
    "ergodic.fcplus_probe": "ergodic.fcplus_self_s",
    "trace.counting": "trace.counting_s",
}
CLI_BUCKET = "cli.self_s"
OTHER_BUCKET = "other.self_s"
SELF_METRICS = tuple(dict.fromkeys([*BUCKETS.values(), CLI_BUCKET, OTHER_BUCKET]))


def _points_digest(points) -> bytes:
    import numpy as np

    return hashlib.blake2b(np.ascontiguousarray(points).tobytes(),
                           digest_size=16).digest()


class Counters:
    """Work counts taken from the arguments of wrapped calls."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.evaluate_points = 0
        self.harmonic_evals = 0
        self.harmonic_pairs = 0
        self.harmonic_distinct = set()
        self.points_evaluated = 0
        self.prefix_max = {}
        self.index_points = 0

    def record(self, name: str, args: inspect.BoundArguments | None) -> None:
        with self._lock:
            self.calls[name] += 1
            if args is None:
                return
            a = args.arguments
            if name == "hardy.evaluate_array":
                self.evaluate_points += int(getattr(a["xs"], "size", len(a["xs"])))
            elif name == "expsums.weyl_moduli":
                n, Q = len(a["points"]), int(a["Q"])
                self.harmonic_evals += n * Q
                self.harmonic_pairs += Q
                key = _points_digest(a["points"])
                self.harmonic_distinct.update((key, q) for q in range(1, Q + 1))
            elif name == "discrepancy.fractional_parts":
                N = int(a["N"])
                key = (str(a["expr"]), a["q"], a["domain"],
                       a["modulus"], a["residue"])
                self.points_evaluated += N
                self.prefix_max[key] = max(self.prefix_max.get(key, 0), N)
            elif name == "ergodic.index_vectors":
                self.index_points += int(a["N"]) * len(a["spec"].exprs)

    def metrics(self) -> dict:
        calls = self.calls["hardy.evaluate_array"]
        distinct = sum(self.prefix_max.values())
        return {
            "primes.sieve_calls": (self.calls["primes.sieve"], "count"),
            "primes.cache_loads": (self.calls["primes.load_prime_cache"], "count"),
            "hardy.evaluate_calls": (calls, "count"),
            "hardy.evaluate_points": (self.evaluate_points, "count"),
            "hardy.points_per_call": (self.evaluate_points / calls if calls else 0.0,
                                      "points/call"),
            "expsums.harmonic_evals": (self.harmonic_evals, "count"),
            "expsums.harmonic_useful_frac": (
                len(self.harmonic_distinct) / self.harmonic_pairs
                if self.harmonic_pairs else 0.0, "ratio"),
            "discrepancy.points_evaluated": (self.points_evaluated, "count"),
            "discrepancy.prefix_useful_frac": (
                distinct / self.points_evaluated if self.points_evaluated else 0.0,
                "ratio"),
            "ergodic.index_points": (self.index_points, "count"),
        }


def _bucket(sid: int, names: dict, parents: dict) -> str:
    """The self-time metric a span's self time goes to."""
    name = names[sid]
    while name in FOLDED:
        sid = parents[sid]
        if sid is None:
            return OTHER_BUCKET
        name = names[sid]
    if name.startswith("cli."):
        return CLI_BUCKET
    return BUCKETS.get(name, OTHER_BUCKET)


_COUNTED = {"hardy.evaluate_array", "expsums.weyl_moduli",
            "discrepancy.fractional_parts", "ergodic.index_vectors"}


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters = Counters()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in _COUNTED else None
        spans, counters, ids, main_stack = (self.spans, self.counters, self._ids,
                                            self._main_stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
                if sig is None:
                    counters.record(name, None)
                else:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counters.record(name, bound)
                    spans.append((next(ids), parent, "trace.counting", t1, clock()))

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"primeud.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    originals[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "primeud" or mod_name.startswith("primeud.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"primeud.{short}"), cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- attribution -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> self time, splitting instants shared by several leaves."""
        parent_of = {s[0]: s[1] for s in self.spans}
        events = []
        for sid, _, _, t0, t1 in self.spans:
            events.append((t0, 1, sid))
            events.append((t1, 0, sid))
        events.sort()
        open_children = defaultdict(int)
        is_open = set()
        active = set()
        share = defaultdict(float)
        last = None
        for t, starting, sid in events:
            if active and last is not None and t > last:
                dt = (t - last) / len(active)
                for a in active:
                    share[a] += dt
            last = t
            parent = parent_of[sid]
            if starting:
                is_open.add(sid)
                active.add(sid)
                if parent in is_open:
                    open_children[parent] += 1
                    active.discard(parent)
            else:
                is_open.discard(sid)
                active.discard(sid)
                if parent in is_open:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        active.add(parent)
        return share

    def covered_time(self) -> float:
        """Length of the union of all span intervals, by merging them."""
        total, end = 0.0, None
        for t0, t1 in sorted((s[3], s[4]) for s in self.spans):
            if end is None or t0 > end:
                total += t1 - t0
                end = t1
            elif t1 > end:
                total += t1 - end
                end = t1
        return total

    def layer_times(self) -> tuple[dict[str, float], float]:
        """Self time per bucket, and the total time covered by spans."""
        names = {s[0]: s[2] for s in self.spans}
        parents = {s[0]: s[1] for s in self.spans}
        out = dict.fromkeys(SELF_METRICS, 0.0)
        covered = 0.0
        for sid, t in self.self_times().items():
            out[_bucket(sid, names, parents)] += t
            covered += t
        return out, covered
