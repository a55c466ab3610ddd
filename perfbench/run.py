"""primeud benchmark: one closed-loop client running a workload's CLI commands.

    python3 perfbench/run.py --workload ud-report --seed 1 --seconds 20 --trace 0

Run from the repository root.  See perfbench/README.md for the metrics.
The last line of standard output is the JSON result; the lines before it
report the checks, provenance and, with --trace 0, all six end-to-end
metrics by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from setup_env import cache_path  # noqa: E402
from workloads import TABLE_LIMIT  # noqa: E402

# Untraced runs time a set-up after every command of every pass (outside the
# pass's timing), so that the set-up samples span the whole run; then top up
# to at least SETUP_MIN samples.
SETUP_MIN = 15
SETUP_TIMEOUT_S = 60
# The tracer must account for nearly all of the traced time.
UNATTRIBUTED_MAX_FRAC = 0.01
# Rounding allowance when self times are summed against the span union.
COVER_TOL_S = 1e-6


# -- set-up ------------------------------------------------------------------


def timed_setup(workload: str, seeds, env: dict, work: Path) -> float:
    """Wall time of one fresh-interpreter set-up into `work`."""
    cmd = [sys.executable, str(HERE / "setup_env.py"), "--work", str(work),
           "--workload", workload]
    for s in seeds:
        cmd += ["--seed", str(s)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    # A blocking wait: Popen.wait(timeout) polls and rounds times to 50 ms.
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up exited with code {code}")
    return wall


# -- passes ------------------------------------------------------------------


class Pass:
    def __init__(self, seed: int, timed: bool, wall: float, codes: dict,
                 artifacts: dict):
        self.seed, self.timed, self.wall = seed, timed, wall
        self.codes, self.artifacts = codes, artifacts
        self.recorder = None  # the SpanRecorder of a traced pass

    @property
    def traced(self) -> bool:
        return self.recorder is not None


def run_pass(wl, seed: int, timed: bool, cli_main, between=None) -> Pass:
    """One pass over the command list; each command starts when the last
    returns, or when `between()`, which is not timed, has returned."""
    out_dir = WORK / "out" / str(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = [(c.name, [*c.argv, "--out", str(out_dir / f"{c.name}.json")])
             for c in wl.commands]
    codes = {}
    wall = 0.0
    for name, argv in argvs:
        t0 = time.perf_counter()
        try:
            codes[name] = cli_main(argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            codes[name] = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        if between is not None:
            between()
    artifacts = {}
    for c in wl.commands:
        path = out_dir / f"{c.name}.json"
        artifacts[c.name] = path.read_bytes() if path.exists() else None
    return Pass(seed, timed, wall, codes, artifacts)


def command_failures(wl, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): exit code, checked key, bytes vs previous pass."""
    attempted = failed = 0
    reasons = []
    previous = {}
    for i, p in enumerate(passes):
        for c in wl.commands:
            attempted += 1
            art = p.artifacts[c.name]
            why = None
            if p.codes[c.name] != 0:
                why = f"exit code {p.codes[c.name]}"
            elif art is None:
                why = "no artifact"
            elif c.check and json.loads(art)["results"].get(c.check) is not True:
                why = f"{c.check} is not true"
            elif (p.seed, c.name) in previous and previous[(p.seed, c.name)] != art:
                why = "artifact bytes differ from the previous pass"
            previous[(p.seed, c.name)] = art
            if why:
                failed += 1
                reasons.append(f"pass {i} ({'traced' if p.traced else 'untraced'}, "
                               f"seed {p.seed}) {c.name}: {why}")
    return attempted, failed, reasons


# -- provenance ----------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "primeud").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(args, wl, n_passes: int, n_setups: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "table_limit": TABLE_LIMIT,
        "passes": n_passes,
        "setups_timed": n_setups,
        "sizes": wl.sizes(),
    }


# -- traced measurement -----------------------------------------------------------


COUNT_METRICS = ("hardy.evaluate_points", "expsums.harmonic_evals",
                 "discrepancy.points_evaluated", "ergodic.index_points",
                 "primes.cache_loads")


def traced_setup(name: str, seed: int):
    """One in-process set-up under the tracer: (recorder, wall, cache bytes)."""
    from setup_env import setup
    from tracer import SpanRecorder

    rec = SpanRecorder()
    with rec:
        t0 = time.perf_counter()
        path = setup(WORK / "traced_setup", WORK / "traced_setup" / "cache", name, [seed])
        wall = time.perf_counter() - t0
    return rec, wall, path.stat().st_size


def per_layer(args, passes, untraced_wall) -> tuple[dict, dict]:
    """Per-layer metrics and the tracer's own checks.

    Self times are the traced set-up's plus the mean over traced passes, so
    they and trace.unattributed_s add up to trace.wall_s exactly.
    """
    from tracer import SELF_METRICS

    traced = [p for p in passes if p.traced and p.timed]
    setup_rec, setup_wall, cache_bytes = traced_setup(args.workload, args.seed)
    setup_self, setup_covered = setup_rec.layer_times()
    selfs, covered = zip(*(p.recorder.layer_times() for p in traced))
    traced_wall = statistics.fmean(p.wall for p in traced)
    out = {name: (setup_self[name] + statistics.fmean(s[name] for s in selfs), "s")
           for name in SELF_METRICS}
    out["primes.cache_bytes"] = (cache_bytes, "B")
    out.update(traced[0].recorder.counters.metrics())
    out["cli.artifact_bytes"] = (
        sum(len(a) for a in traced[0].artifacts.values() if a), "B")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    out["trace.unattributed_s"] = (
        setup_wall - setup_covered
        + statistics.fmean(p.wall - c for p, c in zip(traced, covered)), "s")
    out["trace.wall_s"] = (setup_wall + traced_wall, "s")

    recorders = [p.recorder for p in passes if p.traced]
    counts = [rec.counters.metrics() for rec in recorders]
    # Per recording: self times summed against the union of the span
    # intervals (computed by merging them), and the time no span covers.
    coverage = [{"self_sum_s": rec.layer_times()[1], "union_s": rec.covered_time(),
                 "wall_s": wall}
                for rec, wall in [(setup_rec, setup_wall),
                                  *((p.recorder, p.wall) for p in passes if p.traced)]]
    unattributed = out["trace.unattributed_s"][0]
    checks = {
        "counts_repeat": all(len({c[k][0] for c in counts}) == 1 for k in COUNT_METRICS),
        "coverage": coverage,
        "self_times_match_span_union": all(
            abs(c["self_sum_s"] - c["union_s"]) <= COVER_TOL_S for c in coverage),
        "unattributed_small": (all(c["union_s"] <= c["wall_s"] for c in coverage)
                               and 0.0 <= unattributed
                               <= UNATTRIBUTED_MAX_FRAC * out["trace.wall_s"][0]),
        "spans": str(write_spans([setup_rec, *recorders]).relative_to(ROOT)),
    }
    return out, checks


def write_spans(recorders) -> Path:
    """All spans, once, as JSON lines; recording 0 is the traced set-up."""
    path = WORK / "spans.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for i, rec in enumerate(recorders):
            selfs = rec.self_times()
            for sid, parent, name, t0, t1 in rec.spans:
                f.write(json.dumps({"recording": i, "id": sid, "parent": parent,
                                    "name": name, "start": t0, "end": t1,
                                    "self": selfs.get(sid, 0.0)}) + "\n")
    return path


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="primeud closed-loop CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(args, wls, cli_main, between=None) -> list[Pass]:
    """Passes on the seed until the timed ones have taken --seconds of
    command time.  Untraced: every pass is timed, at least two.  Traced: a
    first, untimed pass on seed + 1 (its counts only), then an untraced and
    a traced pass on the seed, alternating.  A warm-up pass was tried and
    dropped: it took as long as the passes after it.  `between` runs after
    every command, untimed."""
    from tracer import SpanRecorder

    passes = []

    def one(seed, traced, timed):
        if not traced:
            return run_pass(wls[seed], seed, timed, cli_main, between)
        rec = SpanRecorder()
        with rec:
            p = run_pass(wls[seed], seed, timed, cli_main, between)
        p.recorder = rec
        return p

    if args.trace:
        passes.append(one(args.seed + 1, True, False))
    plan = [(args.seed, False), (args.seed, bool(args.trace))]
    while plan or sum(p.wall for p in passes if p.timed) < args.seconds:
        seed, traced = plan.pop(0) if plan else (
            args.seed, bool(args.trace) and not passes[-1].traced)
        passes.append(one(seed, traced, True))
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "primeud" / "cli.py").is_file():
        print(f"error: no primeud sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    # The traced run also runs seed + 1, to check that counts ignore the seed.
    seeds = [args.seed, args.seed + 1] if args.trace else [args.seed]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # This set-up writes the cache and configs the passes read.  It may
    # also compile primeud's bytecode, so it is not a set-up sample.
    timed_setup(args.workload, seeds, env, WORK)
    setup_walls = []

    def one_setup():
        setup_walls.append(timed_setup(args.workload, seeds, env, WORK / "setup"))

    from primeud.cli import CACHE_ENV, main as cli_main
    os.environ[CACHE_ENV] = str(WORK / "cache")
    from primeud.primes import load_prime_cache

    wls = {s: workloads.build(args.workload, s, WORK) for s in seeds}
    wl = wls[args.seed]
    passes = measure(args, wls, cli_main, None if args.trace else one_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and len(setup_walls) < SETUP_MIN:
        one_setup()

    attempted = failed = 0
    reasons = []
    for s in seeds:
        a, f, r = command_failures(wls[s], [p for p in passes if p.seed == s])
        attempted, failed, reasons = attempted + a, failed + f, reasons + r

    import oracle

    table = load_prime_cache(cache_path(WORK / "cache"))
    rows = oracle.check(wl.commands, table, args.seed)
    sampled = sum(r["samples"] for r in rows)
    unexpected = [r for r in rows if r["unexpected"]]
    fail_frac = failed / attempted
    oracle_err_frac = sum(r["errors"] for r in rows) / sampled
    checks = {"failures": reasons, "oracle": rows}
    correct = failed == 0 and not unexpected

    untraced = [p.wall for p in passes if p.timed and not p.traced]
    wall_s = statistics.median(untraced)
    if args.trace:
        metrics, trace_checks = per_layer(args, passes, wall_s)
        metrics["fail_frac"] = (fail_frac, "ratio")
        metrics["oracle_err_frac"] = (oracle_err_frac, "ratio")
        checks.update(trace_checks)
        correct = (correct and trace_checks["counts_repeat"]
                   and trace_checks["self_times_match_span_union"]
                   and trace_checks["unattributed_small"])
        shown = metrics
        n = {}
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "points_per_s": (wl.points / wall_s, "points/s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        shown = dict(metrics, fail_frac=(fail_frac, "ratio"),
                     oracle_err_frac=(oracle_err_frac, "ratio"))
        n = {"wall_s": len(untraced), "points_per_s": len(untraced),
             "setup_s": len(setup_walls), "peak_rss_mb": 1,
             "fail_frac": attempted, "oracle_err_frac": sampled}
        checks["pass_walls_s"] = untraced
        checks["setup_walls_s"] = setup_walls

    for name, (value, unit) in shown.items():
        count = f"  (n={n[name]})" if name in n else ""
        print(f"{wl.name:<11} {name:<36} {value:>14.6g} {unit}{count}")
    for r in rows:
        if r["errors"]:
            tag = (f"{r['unexpected']} UNEXPECTED" if r["unexpected"]
                   else f"all at |value| >= {r['defect_above']:.6g}, known defect: "
                        f"{r['known_defect']}")
            print(f"oracle: {r['command']} {r['expr']!r}: {r['errors']}/{r['samples']} "
                  f"sampled points wrong ({tag})")
    for line in reasons:
        print(f"failure: {line}")
    print(json.dumps({"provenance": provenance(args, wl, len(passes), len(setup_walls)),
                      "checks": checks},
                     sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
