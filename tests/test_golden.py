"""Byte-exact artifacts for a fixed command set.

Each ``tests/golden/<name>.json`` is the artifact of ``GOLDEN[name]``, run
from inside ``tests/golden/`` with ``--out <name>.json`` and
``PRIMEUD_CACHE_DIR`` unset (config paths are recorded as given).  A change
that moves any byte of an artifact fails here; rewrite a golden file only
for a change whose numbers are meant to move, and say so where the change
is recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from primeud.cli import CACHE_ENV, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "schemas"

GOLDEN = {
    "ud_primes_checkpoints": [
        "ud-test", "--expr", "x^(3/2)", "--N", "40000",
        "--checkpoints", "1000,10000,40000", "--threads", "2",
        "--table-limit", "1000000"],
    "ud_integers": [
        "ud-test", "--expr", "x^(1/2) + log^2", "--domain", "integers",
        "--N", "30000"],
    "ud_primes_in_ap": [
        "ud-test", "--expr", "irr(0.318309886)*x^(5/3)",
        "--domain", "primes_in_ap", "--modulus", "4", "--residue", "3",
        "--N", "20000", "--table-limit", "1000000"],
    "weyl_integers": [
        "weyl-sum", "--expr", "pi*x^(3/2)", "--domain", "integers",
        "--range", "777", "60000"],
    "weyl_primes": [
        "weyl-sum", "--expr", "x^(1/2) + log^2", "--X", "1000000",
        "--X0", "12345", "--threads", "2", "--table-limit", "1000000"],
    "vaughan_phase": [
        "vaughan-check", "--X", "50000", "--u", "30", "--v", "30",
        "--phase", "irr(0.7071067811)*x^2"],
    "recurrence_torus": [
        "recurrence-scan", "--config", "torus.cfg", "--table-limit", "1000000"],
    "recurrence_lattice_r2": [
        "recurrence-scan", "--config", "lattice.cfg",
        "--table-limit", "1000000"],
    "recurrence_torus_r2": [
        "recurrence-scan", "--config", "torus_r2.cfg", "--table-limit", "1000000"],
    "fcplus_probe": [
        "fcplus-probe", "--config", "measure.cfg", "--table-limit", "1000000"],
    "ergodic_average": [
        "ergodic-average", "--config", "unitary.cfg",
        "--table-limit", "1000000"],
    "bound_erdos_turan": [
        "bound-check", "--which", "erdos-turan", "--expr", "x^(1/2)",
        "--N", "20000", "--Q", "40", "--table-limit", "1000000"],
    "bound_kusmin_landau": [
        "bound-check", "--which", "kusmin-landau", "--expr", "x^(1/2)",
        "--range", "1000", "40000"],
    "bound_vdc": ["bound-check", "--which", "vdc"],
    "bound_composite": [
        "bound-check", "--which", "composite", "--expr", "x^(3/2)",
        "--X1", "20000", "--X", "5000"],
    "bound_differential": [
        "bound-check", "--which", "differential", "--expr", "x^(1/2) + log^2"],
    "sieve": ["sieve", "--limit", "100000"],
    "corpus_run": ["corpus-run", "--N", "3000", "--table-limit", "200000"],
}

# Exit codes other than 0: at N = 3000 some corpus controls miss their
# criterion, so the run records the failure and exits 3.
EXPECTED_EXIT = {"corpus_run": 3}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / f"{name}.json"
    assert main(GOLDEN[name] + ["--out", str(out)]) == EXPECTED_EXIT.get(name, 0)
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_corpus_run_computes_no_harmonics(tmp_path, monkeypatch):
    """corpus-run prints only D*, so it computes no harmonic sums."""
    def no_harmonics(points, Q):
        raise AssertionError("corpus-run computed harmonic sums")

    monkeypatch.setattr("primeud.discrepancy.weyl_moduli", no_harmonics)
    monkeypatch.setattr("primeud.expsums.weyl_moduli", no_harmonics)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / "corpus_run.json"
    code = main(GOLDEN["corpus_run"] + ["--out", str(out)])
    assert code == EXPECTED_EXIT["corpus_run"]
    assert out.read_bytes() == (GOLDEN_DIR / "corpus_run.json").read_bytes()


# The commands that take --threads, and the goldens they write.
THREADED = ("ud-test", "weyl-sum", "vaughan-check", "bound-check", "corpus-run")
THREADED_GOLDENS = sorted(n for n in GOLDEN if GOLDEN[n][0] in THREADED)


def _with_threads(argv, threads):
    if "--threads" in argv:
        i = argv.index("--threads")
        argv = argv[:i] + argv[i + 2:]
    return argv + ["--threads", str(threads)]


@pytest.mark.parametrize("name", THREADED_GOLDENS)
def test_artifact_independent_of_threads(name, tmp_path, monkeypatch):
    """The thread count is no part of an artifact: at 1 and 2 threads the
    bytes are the golden's."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on one CPU too
    want = (GOLDEN_DIR / f"{name}.json").read_bytes()
    for threads in (1, 2):
        out = tmp_path / f"{name}_{threads}.json"
        argv = _with_threads(GOLDEN[name], threads) + ["--out", str(out)]
        assert main(argv) == EXPECTED_EXIT.get(name, 0)
        assert out.read_bytes() == want, threads


# Every bound check but `differential` (a table of ratio rows, not one
# bound) reports one bound-vs-actual result.
BOUND_GOLDENS = sorted(n for n in GOLDEN if n.startswith("bound_")
                       and n != "bound_differential")


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", BOUND_GOLDENS)
def test_bound_check_results_match_schema(name):
    jsonschema.validate(_golden(name)["results"], _schema("bound_report"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_matches_artifact_schema(name):
    jsonschema.validate(_golden(name), _schema("run_artifact"))


def test_schemas_refuse_unknown_keys():
    """The schemas are closed: a key that is no part of the artifact, such
    as a deleted one, is refused."""
    blob = _golden("bound_composite")
    blob["config"]["threads"] = 1
    blob["results"]["chunk_size"] = 16384
    with pytest.raises(jsonschema.ValidationError, match="threads"):
        jsonschema.validate(blob, _schema("run_artifact"))
    with pytest.raises(jsonschema.ValidationError, match="chunk_size"):
        jsonschema.validate(blob["results"], _schema("bound_report"))


# Artifacts whose float results come from weighted sums of index vectors
# (torus shifts, unitary phases).  Their bits must not depend on which
# BLAS kernel the CPU selects.
WEIGHTED_SUM_GOLDENS = ("ergodic_average", "recurrence_torus",
                        "recurrence_torus_r2")


def _assert_close(got, want, tol, path="results"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], tol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, tol, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= tol, (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("name", WEIGHTED_SUM_GOLDENS)
def test_weighted_sum_goldens_within_bound(name, tmp_path, monkeypatch):
    """Every value within 1e-9 absolute of the golden: the bound a change
    to the order of the weighted sums must meet before these goldens are
    rewritten."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / f"{name}.json"
    assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert got["config"] == want["config"]
    _assert_close(got["results"], want["results"], 1e-9)


@pytest.mark.parametrize("name", WEIGHTED_SUM_GOLDENS)
def test_goldens_independent_of_blas_kernel(name, tmp_path):
    """The artifact is byte-identical when OpenBLAS is made to pick its
    Nehalem kernels, which have no fused multiply-add."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["OPENBLAS_CORETYPE"] = "Nehalem"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "primeud", *GOLDEN[name], "--out", str(out)],
        cwd=GOLDEN_DIR, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()
