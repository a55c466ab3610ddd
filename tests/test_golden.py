"""Byte-exact artifacts for a fixed command set.

Each ``tests/golden/<name>.json`` is the artifact of ``GOLDEN[name]``, run
from inside ``tests/golden/`` with ``--out <name>.json`` and
``PRIMEUD_CACHE_DIR`` unset (config paths are recorded as given).  A change
that moves any byte of an artifact fails here; rewrite a golden file only
for a change whose numbers are meant to move, and say so where the change
is recorded.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from primeud.cli import CACHE_ENV, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"

GOLDEN = {
    "ud_primes_checkpoints": [
        "ud-test", "--expr", "x^(3/2)", "--N", "40000",
        "--checkpoints", "1000,10000,40000", "--threads", "2",
        "--table-limit", "1000000"],
    "ud_integers": [
        "ud-test", "--expr", "x^(1/2) + log^2", "--domain", "integers",
        "--N", "30000", "--chunk", "1000"],
    "ud_primes_in_ap": [
        "ud-test", "--expr", "irr(0.318309886)*x^(5/3)",
        "--domain", "primes_in_ap", "--modulus", "4", "--residue", "3",
        "--N", "20000", "--table-limit", "1000000"],
    "weyl_integers": [
        "weyl-sum", "--expr", "pi*x^(3/2)", "--domain", "integers",
        "--range", "777", "60000", "--chunk", "1000"],
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
        "--range", "1000", "40000", "--chunk", "4096"],
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


# Every bound check but `differential` (a table of ratio rows, not one
# bound) reports one bound-vs-actual result.
BOUND_GOLDENS = sorted(n for n in GOLDEN if n.startswith("bound_")
                       and n != "bound_differential")


@pytest.mark.parametrize("name", BOUND_GOLDENS)
def test_bound_check_results_match_schema(name):
    schema = json.loads((SCHEMAS / "bound_report.schema.json").read_text())
    blob = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    jsonschema.validate(blob["results"], schema)
