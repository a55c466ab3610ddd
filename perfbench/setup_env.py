"""Benchmark set-up: import primeud, sieve to the table limit, write the
prime cache and the workload's experiment configs.

``run.py`` times this script in a fresh interpreter (that time is
``setup_s``) and also calls ``setup`` in-process under the tracer:

    PYTHONPATH=src python3 perfbench/setup_env.py --work DIR --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from workloads import TABLE_LIMIT, build


def cache_path(cache_dir: Path) -> Path:
    """The file the CLI reads for --table-limit TABLE_LIMIT under $PRIMEUD_CACHE_DIR."""
    return cache_dir / f"primes_{TABLE_LIMIT}.bin"


def setup(work: Path, cache_dir: Path, workload: str, seeds) -> Path:
    import primeud  # noqa: F401  (set-up pays for the whole package import)
    from primeud.primes import save_prime_cache, sieve

    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir)
    save_prime_cache(sieve(TABLE_LIMIT), path)
    for seed in seeds:
        wl = build(workload, seed, work)
        cfg_dir = work / f"cfg_{seed}"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for name, text in wl.configs.items():
            (cfg_dir / name).write_text(text, encoding="utf-8")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args()
    work = Path(args.work)
    setup(work, work / "cache", args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
