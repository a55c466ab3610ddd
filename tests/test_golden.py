"""Byte-exact artifacts: every ``tests/golden/*.json`` replays itself.

A golden is the artifact of one CLI run, and its ``config`` is the whole
spec of that run: ``cli.replay`` rebuilds the run from it, from an empty
directory with ``PRIMEUD_CACHE_DIR`` unset, and must give back the file's
bytes.  A new golden is added by running its command once with ``--out
tests/golden/<name>.json``; no test names it.  A change that moves any byte
of an artifact fails here; rewrite a golden file only for a change whose
numbers are meant to move, and say so where the change is recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from primeud.cli import CACHE_ENV, RunConfig, build_parser, config_from_args, replay

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ROOT / "schemas"

GOLDENS = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))

# Exit codes other than 0: at N = 3000 some corpus controls miss their
# criterion, so the run records the failure and exits 3.
EXPECTED_EXIT = {"corpus_run": 3}


def _path(name):
    return GOLDEN_DIR / f"{name}.json"


@pytest.fixture
def empty_dir(tmp_path, monkeypatch):
    """Replays run where no experiment file lies, with no cache dir."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_expected_exit_names_a_golden():
    assert set(EXPECTED_EXIT) <= set(GOLDENS)


@pytest.mark.parametrize("name", GOLDENS)
def test_artifact_matches_golden(name, empty_dir):
    code, got = replay(_path(name))
    assert code == EXPECTED_EXIT.get(name, 0)
    assert got == _path(name).read_bytes()
    assert not any(empty_dir.iterdir())  # the replay wrote no file


def test_corpus_run_computes_no_harmonics(empty_dir, monkeypatch):
    """corpus-run prints only D*, so it computes no harmonic sums."""
    def no_harmonics(points, Q):
        raise AssertionError("corpus-run computed harmonic sums")

    monkeypatch.setattr("primeud.discrepancy.weyl_moduli", no_harmonics)
    monkeypatch.setattr("primeud.expsums.weyl_moduli", no_harmonics)
    code, got = replay(_path("corpus_run"))
    assert code == EXPECTED_EXIT["corpus_run"]
    assert got == _path("corpus_run").read_bytes()


@pytest.mark.parametrize("name", GOLDENS)
def test_artifact_independent_of_threads(name, empty_dir, monkeypatch):
    """The thread count is no part of an artifact: at 1 and 2 threads the
    bytes are the golden's."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on one CPU too
    want = _path(name).read_bytes()
    for threads in (1, 2):
        code, got = replay(_path(name), threads)
        assert code == EXPECTED_EXIT.get(name, 0)
        assert got == want, threads


# Every bound check but `differential` (a table of ratio rows, not one
# bound) reports one bound-vs-actual result.
BOUND_GOLDENS = [n for n in GOLDENS if n.startswith("bound_")
                 and n != "bound_differential"]


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _golden(name):
    return json.loads(_path(name).read_text())


def _argv(config):
    """A command line for a recorded run: each parameter that is not None
    as its flag, and the seed and table limit where they are not
    RunConfig's defaults."""
    argv = [config["command"]]
    for key, value in config["parameters"].items():
        flag = "--" + key.replace("_", "-")
        if value is None:
            continue
        if key == "range":  # the one two-value flag
            argv += [flag, *map(str, value)]
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    if config["seed"] != RunConfig.seed:
        argv += ["--seed", str(config["seed"])]
    if config["command"] == "sieve":
        argv += ["--limit", str(config["table_limit"])]
    elif config["table_limit"] != RunConfig.table_limit:
        argv += ["--table-limit", str(config["table_limit"])]
    return argv


# Goldens run from flags alone; the experiment commands read a file, which
# test_cli.py::test_mismatched_cache_leaves_artifact_unchanged covers.
FLAG_GOLDENS = [n for n in GOLDENS
                if "experiment" not in _golden(n)["config"]["parameters"]]


@pytest.mark.parametrize("name", FLAG_GOLDENS)
def test_flags_give_the_golden_config(name):
    """From argv to a run: a golden's parameters, given as flags, come back
    as its config through the parser and config_from_args."""
    config = _golden(name)["config"]
    args = build_parser().parse_args(_argv(config))
    assert config_from_args(args).effective() == config


@pytest.mark.parametrize("name", BOUND_GOLDENS)
def test_bound_check_results_match_schema(name):
    jsonschema.validate(_golden(name)["results"], _schema("bound_report"))


@pytest.mark.parametrize("name", GOLDENS)
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


def _assert_within(name, tol):
    code, got = replay(_path(name))
    assert code == EXPECTED_EXIT.get(name, 0)
    got, want = json.loads(got), _golden(name)
    assert got["config"] == want["config"]
    _assert_close(got["results"], want["results"], tol)


@pytest.mark.parametrize("name", WEIGHTED_SUM_GOLDENS)
def test_weighted_sum_goldens_within_bound(name, empty_dir):
    """Every value within 1e-9 absolute of the golden: the bound a change
    to the order of the weighted sums must meet before these goldens are
    rewritten."""
    _assert_within(name, 1e-9)


# Artifacts whose float results come from the harmonic sums
# (expsums.weyl_moduli) and the Erdos-Turan bound built on them.
HARMONIC_GOLDENS = ("bound_erdos_turan", "ud_integers",
                    "ud_primes_checkpoints", "ud_primes_in_ap")


@pytest.mark.parametrize("name", HARMONIC_GOLDENS)
def test_harmonic_goldens_within_bound(name, empty_dir):
    """Every value within 1e-15 absolute of the golden: the bound a change
    to the harmonic-sum kernel must meet before these goldens are
    rewritten."""
    _assert_within(name, 1e-15)


def _replay_in_subprocess(names, env, tmp_path):
    """Replay each named golden in one fresh interpreter, from the empty
    directory tmp_path, with env added to the environment and
    PRIMEUD_CACHE_DIR unset; returns {name: (exit code, artifact bytes)}."""
    script = ("import json, sys\n"
              "from pathlib import Path\n"
              "from primeud.cli import replay\n"
              "codes = {}\n"
              "for path in map(Path, sys.argv[1:]):\n"
              "    codes[path.stem], got = replay(path)\n"
              "    Path(path.name).write_bytes(got)\n"
              "Path('exit_codes.json').write_text(json.dumps(codes))\n")
    full = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    full.update(env)
    full["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, map(_path, names))],
        cwd=tmp_path, env=full, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads((tmp_path / "exit_codes.json").read_text())
    return {n: (codes[n], (tmp_path / f"{n}.json").read_bytes()) for n in names}


def _assert_replayed(name, replays):
    code, got = replays[name]
    assert code == EXPECTED_EXIT.get(name, 0)
    assert got == _path(name).read_bytes()


@pytest.fixture(scope="module")
def nehalem_kernel_artifacts(tmp_path_factory):
    return _replay_in_subprocess(WEIGHTED_SUM_GOLDENS,
                                 {"OPENBLAS_CORETYPE": "Nehalem"},
                                 tmp_path_factory.mktemp("nehalem"))


@pytest.mark.parametrize("name", WEIGHTED_SUM_GOLDENS)
def test_goldens_independent_of_blas_kernel(name, nehalem_kernel_artifacts):
    """The artifact is byte-identical when OpenBLAS is made to pick its
    Nehalem kernels, which have no fused multiply-add."""
    _assert_replayed(name, nehalem_kernel_artifacts)


def _enabled_dispatch_features() -> str:
    """The dispatched CPU features numpy uses here, listed as the CI step
    that turns them off lists them."""
    m = (getattr(getattr(np, "_core", None), "_multiarray_umath", None)
         or np.core._multiarray_umath)
    return " ".join(f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f))


@pytest.fixture(scope="module")
def baseline_loop_artifacts(tmp_path_factory):
    features = _enabled_dispatch_features()
    if not features:
        pytest.skip("numpy dispatches no CPU feature here (or all are off)")
    return _replay_in_subprocess(GOLDENS, {"NPY_DISABLE_CPU_FEATURES": features},
                                 tmp_path_factory.mktemp("simd_off"))


@pytest.mark.parametrize("name", GOLDENS)
def test_goldens_independent_of_simd_level(name, baseline_loop_artifacts):
    """Every golden is byte-identical on numpy's baseline loops, with every
    dispatched CPU feature this machine has turned off."""
    _assert_replayed(name, baseline_loop_artifacts)
