"""Command-line front end: dispatch, artifact formats, exit codes,
determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from artifact_schema import validator

from primeud import __version__, hardy
from primeud.cli import CACHE_ENV, _build_measure, _jsonable, main, replay
from primeud.corpus import CONTROL_CORPUS
from primeud.ergodic import FcPlusResult
from primeud.flatcfg import parse_flat_config
from primeud.literals import format_expr, parse_expr
from primeud.primes import load_prime_cache, save_prime_cache, sieve

ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = validator("run_artifact.schema.json")
BOUND_REPORT = validator("bound_report.schema.json")


def run_cli(*args):
    return main(list(args))


def load_artifact(path):
    """Parse a JSON artifact and check it against the run-artifact schema,
    which closes the results of each command."""
    blob = json.loads(Path(path).read_text())
    ARTIFACT.validate(blob)
    return blob


def test_corpus_literals_round_trip():
    for entry in CONTROL_CORPUS:
        expr = parse_expr(entry.literal)
        assert parse_expr(format_expr(expr)) == expr


def test_malformed_literal_exits_2():
    assert run_cli("ud-test", "--expr", "log^", "--N", "100",
                   "--table-limit", "10000") == 2
    assert run_cli("ud-test", "--expr", "x]3", "--N", "100",
                   "--table-limit", "10000") == 2


def test_insufficient_table_exits_2():
    assert run_cli("ud-test", "--expr", "x^(1/2)", "--N", "100000",
                   "--table-limit", "10000") == 2


def test_unknown_command_exits_2(capsys):
    assert run_cli("no-such-command") == 2


def test_ud_test_csv_artifact(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli("ud-test", "--expr", "x^(3/2)", "--domain", "primes",
                   "--N", "1000", "--table-limit", "50000",
                   "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    header_rows = [l for l in lines if l.startswith("#")]
    data_rows = [l for l in lines if not l.startswith("#")]
    assert any("config_hash=" in l for l in header_rows)
    assert data_rows[0] == "N,star,et_bound,max_weyl_q10"
    assert data_rows[1].startswith("1000,")


def test_ud_test_checkpoints_plotdata(tmp_path):
    out = tmp_path / "r.dat"
    code = run_cli("ud-test", "--expr", "x^(3/2)", "--N", "2000",
                   "--checkpoints", "500,2000", "--table-limit", "50000",
                   "--out", str(out), "--format", "plotdata")
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2
    n_vals = [int(r.split()[0]) for r in rows]
    assert n_vals == [500, 2000]


def test_vaughan_check_artifact(tmp_path):
    out = tmp_path / "v.json"
    code = run_cli("vaughan-check", "--X", "500", "--u", "5", "--v", "5",
                   "--phase", "0.37*x", "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    assert blob["results"]["identity_holds"] is True
    assert blob["results"]["residual"] < 1e-9


def test_vaughan_check_independent_of_chunks_and_threads(tmp_path, monkeypatch):
    # X = 50_001 is no multiple of either chunk size.
    def artifact(phase, name, *flags):
        out = tmp_path / f"{name}.json"
        assert run_cli("vaughan-check", "--X", "50001", "--u", "20", "--v", "20",
                       "--phase", phase, "--out", str(out), *flags) == 0
        return out.read_bytes()

    for phase in ("sqrt(2)*x^(3/2)", "x^(1/2) + log^2"):
        default = artifact(phase, "default")
        with monkeypatch.context() as m:
            m.setattr(hardy, "DEFAULT_CHUNK", 1000)
            assert artifact(phase, "chunk") == default
        assert artifact(phase, "threads1", "--threads", "1") == default
        assert artifact(phase, "threads2", "--threads", "2") == default


@pytest.mark.parametrize("phase", ["x^(1/2) + log^2", "log^2"])
def test_vaughan_check_log_phase(phase, tmp_path):
    # The table starts at n = 2, inside the log domain.
    out = tmp_path / "v.json"
    assert run_cli("vaughan-check", "--X", "100000", "--u", "30", "--v", "30",
                   "--phase", phase, "--out", str(out)) == 0
    assert load_artifact(out)["results"]["identity_holds"] is True


def test_weyl_sum_command(tmp_path):
    out = tmp_path / "w.json"
    code = run_cli("weyl-sum", "--expr", "x^(3/2)", "--domain", "integers",
                   "--range", "2", "5000", "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    assert blob["results"]["count"] == 4999
    assert 0.0 <= blob["results"]["normalized"] <= 1.0


def test_sieve_command_with_cache(tmp_path):
    out = tmp_path / "s.json"
    cache = tmp_path / "primes.bin"
    code = run_cli("sieve", "--limit", "10000", "--cache", str(cache),
                   "--out", str(out))
    assert code == 0
    assert cache.exists()
    blob = load_artifact(out)
    assert blob["results"]["count"] == 1229  # pi(10^4)


def test_bound_check_vdc_holds(tmp_path):
    out = tmp_path / "b.json"
    code = run_cli("bound-check", "--which", "vdc", "--N", "200", "--H", "12",
                   "--seed", "3", "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    assert blob["results"]["holds"] is True


def test_bound_check_erdos_turan(tmp_path):
    out = tmp_path / "et.json"
    code = run_cli("bound-check", "--which", "erdos-turan", "--expr", "x^(1/2)",
                   "--N", "2000", "--Q", "40", "--table-limit", "50000",
                   "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    assert blob["results"]["holds"] is True


# Bound-vs-actual ratios over a spread of phases and ranges: flat-derivative
# cancellation, the iterated-shift bound at k = 1, and the harmonic
# discrepancy bound along the primes.
BOUND_EXAMPLES = (
    [["kusmin-landau", "--expr", expr, "--range", a, b]
     for expr, a, b in [("x^(1/2)", "700", "2300"), ("x^(1/2)", "10000", "40000"),
                        ("x^(2/3)", "1000", "2000")]]
    + [["composite", "--expr", "x^(3/2)", "--k", "1", "--X1", X, "--X", X]
       for X in ("1000", "10000", "100000")]
    + [["erdos-turan", "--expr", expr, "--N", "50000", "--Q", "50",
        "--table-limit", "700000"] for expr in ("x^(3/2)", "sqrt(2)*x^2", "log")]
)


@pytest.mark.parametrize("argv", BOUND_EXAMPLES, ids=lambda argv: "-".join(
    a for a in argv if not a.startswith("--")))
def test_bound_check_examples(argv, tmp_path):
    out = tmp_path / "b.json"
    assert run_cli("bound-check", "--which", *argv, "--out", str(out)) == 0
    BOUND_REPORT.validate(load_artifact(out)["results"])


def test_bound_check_differential_failure_exits_3(tmp_path):
    # x^2 has a derivative comparable to 1, so the ratio check must fail
    code = run_cli("bound-check", "--which", "differential", "--expr", "x^2",
                   "--out", str(tmp_path / "d.json"))
    assert code == 3


def test_bound_check_differential_window_expr(tmp_path):
    out = tmp_path / "d.json"
    code = run_cli("bound-check", "--which", "differential",
                   "--expr", "x^(1/2)", "--samples", "10,1000,100000",
                   "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    assert blob["results"]["all_ok"] is True


def test_ergodic_average_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind = diagonal-unitary\n"
        "N = 5000\n"
        "exprs = x^(1/2)\n"
        "freq.1 = 0.6180339887498949\n"
        "f.1 = 1,0\n"
        "table_limit = 100000\n"
    )
    out = tmp_path / "e.json"
    code = run_cli("ergodic-average", "--config", str(cfg), "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    assert blob["results"]["deviation"] < 0.1


def test_recurrence_scan_torus_config(tmp_path):
    cfg = tmp_path / "torus.cfg"
    cfg.write_text(
        "kind = torus\nN = 3000\nm = 1\n"
        "alpha.1 = 0.6180339887498949\n"
        "box.1 = 0 1/2\n"
        "exprs = x^(3/2)\n"
        "table_limit = 100000\n"
    )
    out = tmp_path / "t.json"
    assert run_cli("recurrence-scan", "--config", str(cfg), "--out", str(out)) == 0
    blob = load_artifact(out)
    assert blob["results"]["margin"] >= -0.02


def test_recurrence_scan_lattice_filter_config(tmp_path):
    cfg = tmp_path / "lat.cfg"
    cfg.write_text(
        "kind = lattice\nN = 3000\nperiod = 5\nmask = 10000\n"
        "exprs = x^(3/2)\nr = 2\ntable_limit = 100000\n"
    )
    out = tmp_path / "l.json"
    assert run_cli("recurrence-scan", "--config", str(cfg), "--out", str(out)) == 0
    blob = load_artifact(out)
    assert blob["results"]["valid"] is True
    assert 0.0 < blob["results"]["relative_density"] < 1.0


def test_fcplus_probe_config(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "kind = measure\nN = 2000\nk = 1\n"
        "atom.1 = 0.5 @ 0\natom.2 = 0.5 @ 1/3\n"
        "poly_degree = 1\nshift = 1\ntable_limit = 100000\n"
    )
    out = tmp_path / "f.json"
    assert run_cli("fcplus-probe", "--config", str(cfg), "--out", str(out)) == 0
    blob = load_artifact(out)
    assert blob["results"]["mass_at_zero"] <= blob["results"]["final_tail_max"] + 0.01


# Atoms at 0 and (1/2, 1/2) plus the density 1 + cos(2 pi (t1 - t2)) on the
# 2-torus: its coefficients are indexed by integer pairs, `ac.d1,d2`.
MEASURE_2D = (
    "kind = measure\nN = 2000\nk = 2\n"
    "atom.1 = 0.25 @ 0 0\natom.2 = 0.25 @ 1/2 1/2\n"
    "ac.0,0 = 1,0\nac.1,-1 = 0.5,0\nac.-1,1 = 0.5,0\n"
    "poly_degree = 1\nshift = 1\nexprs = x^(1/2)\ntable_limit = 100000\n"
)


def test_density_table_on_the_2_torus(tmp_path):
    sigma = _build_measure(parse_flat_config(MEASURE_2D))
    assert sigma.k == 2
    assert sigma.atoms[1] == ((Fraction(1, 2), Fraction(1, 2)), 0.25)
    assert dict(sigma.ac_table) == {(0, 0): 1, (1, -1): 0.5, (-1, 1): 0.5}
    cfg = tmp_path / "m2.cfg"
    cfg.write_text(MEASURE_2D)
    out = tmp_path / "f.json"
    assert run_cli("fcplus-probe", "--config", str(cfg), "--out", str(out)) == 0
    assert load_artifact(out)["results"]["mass_at_zero"] == 0.25


def test_non_integer_density_index_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MEASURE_2D.replace("ac.1,-1", "ac.1,x"))
    assert run_cli("fcplus-probe", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "ac.1,x" in err and "Traceback" not in err


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = torus\nN = fifty\n")
    assert run_cli("recurrence-scan", "--config", str(cfg)) == 2
    cfg.write_text("this line has no equals sign\n")
    assert run_cli("recurrence-scan", "--config", str(cfg)) == 2
    assert run_cli("recurrence-scan", "--config", str(tmp_path / "nope.cfg")) == 2


def test_corpus_run_and_determinism(tmp_path):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    for out in (out1, out2):
        code = run_cli("corpus-run", "--N", "10000", "--table-limit", "200000",
                       "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    blob = load_artifact(out1)
    assert blob["results"]["all_pass"] is True
    names = {e["name"] for e in blob["results"]["entries"]}
    assert "log" in names and "irr-quad" in names


def test_corpus_run_flags_negative_controls(tmp_path):
    out = tmp_path / "c.json"
    run_cli("corpus-run", "--N", "10000", "--table-limit", "200000",
            "--out", str(out))
    blob = load_artifact(out)
    by_name = {e["name"]: e for e in blob["results"]["entries"]}
    assert by_name["log"]["criterion_ud"] is False
    assert by_name["log"]["check"] == "floor"
    assert by_name["pow-3-2"]["criterion_ud"] is True
    assert by_name["pow-3-2"]["check"] == "halving"


def test_ud_test_primes_in_ap_domain(tmp_path):
    out = tmp_path / "ap.json"
    code = run_cli("ud-test", "--expr", "x^(1/2)", "--domain", "primes_in_ap",
                   "--modulus", "4", "--residue", "1", "--N", "1000",
                   "--table-limit", "100000", "--out", str(out))
    assert code == 0
    blob = load_artifact(out)
    src = blob["results"]["reports"][0]["source"]
    assert src["modulus"] == 4 and src["residue"] == 1


def test_ud_test_rejects_nonreduced_residue():
    assert run_cli("ud-test", "--expr", "x^(1/2)", "--domain", "primes_in_ap",
                   "--modulus", "4", "--residue", "2", "--N", "100",
                   "--table-limit", "100000") == 2


def test_csv_format_inferred_from_extension(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli("ud-test", "--expr", "x^(3/2)", "--domain", "primes",
                   "--N", "1000", "--table-limit", "50000", "--out", str(out))
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "N,star,et_bound,max_weyl_q10"


def test_cache_env_var_sets_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEUD_CACHE_DIR", str(tmp_path))
    code = run_cli("weyl-sum", "--expr", "x^(1/2)", "--domain", "primes",
                   "--X", "10000", "--table-limit", "10000",
                   "--out", str(tmp_path / "w.json"))
    assert code == 0
    assert (tmp_path / "primes_10000.bin").exists()
    # second run loads from the cache
    assert run_cli("weyl-sum", "--expr", "x^(1/2)", "--domain", "primes",
                   "--X", "10000", "--table-limit", "10000",
                   "--out", str(tmp_path / "w2.json")) == 0


def test_sieve_cache_named_after_limit(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    out = tmp_path / "s.json"
    assert run_cli("sieve", "--limit", "3000", "--out", str(out)) == 0
    cache = tmp_path / "primes_3000.bin"
    assert cache.exists()
    load_artifact(out)
    assert str(tmp_path) not in out.read_text()  # the artifact names no path


@pytest.mark.parametrize("argv, via_env", [
    (["ud-test", "--expr", "x^(1/2)", "--N", "100", "--table-limit", "10000"], False),
    (["sieve", "--limit", "1000"], False),
    (["sieve", "--limit", "1000"], True),
])
def test_unwritable_cache_exits_2(argv, via_env, tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing" / "dir"
    if via_env:
        monkeypatch.setenv(CACHE_ENV, str(missing))
        cache = missing / "primes_1000.bin"
    else:
        monkeypatch.delenv(CACHE_ENV, raising=False)
        cache = missing / "x.bin"
        argv = argv + ["--cache", str(cache)]
    assert run_cli(*argv, "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert f"cannot write prime cache {cache}" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_mismatched_cache_leaves_artifact_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    # the recurrence_torus golden's experiment, whose table_limit is 10^6,
    # under the relative path the golden records
    golden_path = ROOT / "tests" / "golden" / "recurrence_torus.json"
    experiment = load_artifact(golden_path)["config"]["parameters"]["experiment"]
    torus_cfg = "torus.cfg"
    Path(torus_cfg).write_text("".join(f"{k} = {v}\n" for k, v in experiment.items()))
    plain = tmp_path / "plain.json"
    assert run_cli("recurrence-scan", "--config", torus_cfg, "--out", str(plain)) == 0
    assert plain.read_bytes() == golden_path.read_bytes()
    # A larger table under both the --table-limit name and the config's name.
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    bigger = sieve(1_100_000)
    for limit in (1_000_000, 2_000_000):
        save_prime_cache(bigger, cache_dir / f"primes_{limit}.bin")
    monkeypatch.setenv(CACHE_ENV, str(cache_dir))
    cached = tmp_path / "cached.json"
    assert run_cli("recurrence-scan", "--config", torus_cfg, "--out", str(cached)) == 0
    assert cached.read_bytes() == plain.read_bytes()
    # the cache of the wrong limit was not used, but rebuilt at the run's
    assert load_prime_cache(cache_dir / "primes_1000000.bin").limit == 1_000_000


def test_truncated_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    argv = ["weyl-sum", "--expr", "x^(1/2)", "--X", "10000", "--table-limit", "10000"]
    assert run_cli(*argv, "--out", str(tmp_path / "w1.json")) == 0
    cache = tmp_path / "primes_10000.bin"
    whole = cache.read_bytes()
    cache.write_bytes(whole[:500])
    assert run_cli(*argv, "--out", str(tmp_path / "w2.json")) == 0
    assert cache.read_bytes() == whole
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w2.json").read_bytes()


def test_jsonable_expands_dataclass_instances():
    res = FcPlusResult(mass_at_zero=np.float64(0.5), final_tail_max=0.25,
                       envelope=((1, 1.0), (10, 0.5)), N=10)
    assert _jsonable({"r": [res], "z": 1 + 2j, "a": np.arange(2)}) == {
        "r": [{"mass_at_zero": 0.5, "final_tail_max": 0.25,
               "envelope": [[1, 1.0], [10, 0.5]], "N": 10, "boundary_events": 0}],
        "z": [1.0, 2.0], "a": [0, 1]}
    assert _jsonable(FcPlusResult) is FcPlusResult  # a class is not a result


def test_config_hash_stable_across_runs(tmp_path):
    out1 = tmp_path / "h1.json"
    out2 = tmp_path / "h2.json"
    for out in (out1, out2):
        run_cli("weyl-sum", "--expr", "x^(1/2)", "--domain", "integers",
                "--range", "2", "1000", "--out", str(out))
    h1 = load_artifact(out1)["config_hash"]
    h2 = load_artifact(out2)["config_hash"]
    assert h1 == h2


TORUS_1D = ("kind = torus\nN = 3000\nm = 1\nalpha.1 = 0.6180339887498949\n"
            "box.1 = 0 1/2\nexprs = x^(3/2)\ntable_limit = 100000\n")


def test_config_out_is_no_part_of_the_artifact(tmp_path, monkeypatch):
    """An experiment file's `out` is an output path, like --out: two files
    that differ only in it give the same bytes, and a replay writes nothing
    to it, even where an artifact records one."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    for name in ("a", "b"):  # one file path, so that only `out` differs
        Path("exp.cfg").write_text(TORUS_1D + f"out = {name}.json\n")
        assert run_cli("recurrence-scan", "--config", "exp.cfg") == 0
    assert Path("a.json").read_bytes() == Path("b.json").read_bytes()
    blob = load_artifact("a.json")
    assert "out" not in blob["config"]["parameters"]["experiment"]
    Path("a.json").rename("kept.json")
    assert replay("kept.json") == (0, Path("kept.json").read_bytes())
    blob["config"]["parameters"]["experiment"]["out"] = "c.json"
    Path("recorded.json").write_text(json.dumps(blob))
    code, got = replay("recorded.json")
    assert code == 0 and json.loads(got)["results"] == blob["results"]
    assert not Path("a.json").exists() and not Path("c.json").exists()


def test_config_out_sets_the_format(tmp_path, monkeypatch, capsys):
    """An experiment file's `out` sets the format as --out does."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    Path("csv.cfg").write_text(TORUS_1D + "out = r.csv\n")
    assert run_cli("recurrence-scan", "--config", "csv.cfg") == 2
    assert "has no CSV form" in capsys.readouterr().err
    assert not Path("r.csv").exists()
    Path("json.cfg").write_text(TORUS_1D + "out = r.json\n")
    assert run_cli("recurrence-scan", "--config", "json.cfg") == 0
    assert load_artifact("r.json")["config"]["format"] == "json"


WEYL_PRIMES = ["weyl-sum", "--expr", "x^(1/2)", "--X", "10000",
               "--table-limit", "10000"]


def test_artifact_records_no_cache_path(tmp_path, monkeypatch):
    """--cache A, --cache B and $PRIMEUD_CACHE_DIR give the same bytes, and a
    replay of the --cache A artifact leaves A untouched."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    for name in ("A", "B"):
        assert run_cli(*WEYL_PRIMES, "--cache", name, "--out", f"{name}.json") == 0
    Path("dir").mkdir()
    monkeypatch.setenv(CACHE_ENV, "dir")
    assert run_cli(*WEYL_PRIMES, "--out", "env.json") == 0
    assert Path("dir/primes_10000.bin").exists()
    want = Path("A.json").read_bytes()
    assert Path("B.json").read_bytes() == want == Path("env.json").read_bytes()
    assert "cache" not in load_artifact("A.json")["config"]["parameters"]
    monkeypatch.delenv(CACHE_ENV)
    Path("A").write_text("not a prime table\n")  # a run using A would rebuild it
    assert replay("A.json") == (0, want)
    assert Path("A").read_text() == "not a prime table\n"


def test_artifact_records_no_config_path(tmp_path, monkeypatch):
    """The same experiment at two --config paths gives the same bytes."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    Path("sub").mkdir()
    for i, path in enumerate(("exp.cfg", "sub/other.cfg")):
        Path(path).write_text(TORUS_1D)
        assert run_cli("recurrence-scan", "--config", path, "--out", f"{i}.json") == 0
    assert Path("0.json").read_bytes() == Path("1.json").read_bytes()
    assert set(load_artifact("0.json")["config"]["parameters"]) == {"experiment"}


def test_replay_rebuilds_the_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for seed in ("0", "7"):
        assert run_cli("bound-check", "--which", "vdc", "--seed", seed,
                       "--out", f"vdc{seed}.json") == 0
    assert (load_artifact("vdc0.json")["results"]
            != load_artifact("vdc7.json")["results"])
    assert run_cli("replay", "vdc7.json", "--threads", "2") == 0
    assert capsys.readouterr().out == "vdc7.json: identical\n"


def test_replay_names_the_first_difference(tmp_path, capsys):
    good = tmp_path / "w.json"
    assert run_cli("weyl-sum", "--expr", "x^(1/2)", "--domain", "integers",
                   "--range", "2", "1000", "--out", str(good)) == 0
    blob = json.loads(good.read_text())
    blob["results"]["sum"][1] += 1e-9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob, sort_keys=True, indent=2) + "\n")
    assert run_cli("replay", str(bad), str(good)) == 3
    out, err = capsys.readouterr()
    assert out == f"{good}: identical\n"
    assert f"{bad}: differs; first difference at results.sum[1]: " in err
    assert f"file {blob['results']['sum'][1]!r}" in err


def _doctored(blob, **config):
    """A copy of an artifact with some config values replaced."""
    return json.dumps({**blob, "config": {**blob["config"], **config}})


@pytest.mark.parametrize("kind, message", [
    ("csv", "is not a JSON artifact"),
    ("text", "is not a JSON artifact"),
    ("list", "is not a JSON artifact with a run config"),
    ("no-seed", "is not a JSON artifact with a run config"),
    ("format", "is not a JSON artifact with a run config"),
    ("version", "was written by primeud 0.0.1"),
    ("v0.1.0", f"was written by primeud 0.1.0; this is {__version__}"),
    ("command", "'replay' is no artifact command"),
    pytest.param("no-param", "config.parameters has keys []; weyl-sum records "
                 "['X', 'X0', 'domain', 'expr', 'q', 'range']",
                 id="no-param-weyl-sum without its parameters"),
    pytest.param("cache", "config.parameters has keys ['cache']; sieve records []",
                 id="cache-parameters record a cache path"),
    ("missing", "cannot read"),
])
def test_replay_refuses_a_bad_file(kind, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("sieve", "--limit", "100", "--out", "s.json") == 0
    assert run_cli("sieve", "--limit", "100", "--out", "s.csv") == 0
    blob = load_artifact("s.json")
    no_seed = {k: v for k, v in blob["config"].items() if k != "seed"}
    Path("victim").write_text("not a prime table\n")
    files = {"csv": Path("s.csv").read_text(), "text": "sieve\n", "list": "[1]",
             "no-seed": json.dumps({**blob, "config": no_seed}),
             "format": _doctored(blob, format="csv"),
             "version": _doctored(blob, version="0.0.1"),
             "v0.1.0": _doctored(blob, version="0.1.0"),
             "command": _doctored(blob, command="replay"),
             "no-param": _doctored(blob, command="weyl-sum"),
             # a 0.1.0-style artifact, which recorded its --cache path
             "cache": _doctored(blob, parameters={"cache": "victim"})}
    if kind in files:
        Path(f"{kind}.x").write_text(files[kind])
    assert run_cli("replay", "s.json", f"{kind}.x") == 2
    err = capsys.readouterr().err
    assert f"{kind}.x" in err and message in err and "Traceback" not in err
    assert Path("victim").read_text() == "not a prime table\n"


UD_SMALL = ["ud-test", "--expr", "x^(1/2)", "--N", "100", "--table-limit", "10000"]


def _case(argv, message=None):
    """argv is rejected with exit 2; the message defaults to argparse's
    complaint about the flag before the last argument."""
    return pytest.param(argv, message or f"argument {argv[-2]}:",
                        id=" ".join(argv[-2:]))


def _unread(command, flag, value, *rest):
    """A flag that the command does not read is refused."""
    return pytest.param([command, *rest, flag, value],
                        f"unrecognized arguments: {flag} {value}",
                        id=f"{command} {flag}")


# An x^4 floor coordinate over the first N primes: 104729^4 ~ 2^66.7 passes
# the 2^70 phase guard but not the int64 floors; 224737^4 ~ 2^71.1 does not.
LATTICE_X4 = "kind = lattice\nN = {N}\nperiod = 3\nmask = 101\nexprs = x^4\n"
X4_SCAN = ["recurrence-scan", "--table-limit", "300000", "--config"]


@pytest.mark.parametrize("argv, message", [
    _case(UD_SMALL + ["--checkpoints", "10,abc"]),
    _case(UD_SMALL + ["--checkpoints", "10,0"]),
    _case(UD_SMALL + ["--threads", "x"]),
    _case(UD_SMALL + ["--threads", "0"]),
    # the chunk size is no option: --chunk is refused whatever its value
    _case(UD_SMALL + ["--chunk", "0"], "unrecognized arguments: --chunk 0"),
    _case(UD_SMALL + ["--chunk", "-5"], "unrecognized arguments: --chunk -5"),
    _case(UD_SMALL + ["--domain", "primes_in_ap", "--modulus", "0"]),
    _case(UD_SMALL + ["--checkpoints", "10,10"],
          "checkpoints must be strictly increasing"),
    _case(UD_SMALL + ["--checkpoints", "50,10"],
          "checkpoints must be strictly increasing"),
    _case(UD_SMALL + ["--domain", "primes_in_ap"],
          "--domain primes_in_ap takes --modulus M --residue R"),
    _case(UD_SMALL + ["--domain", "primes_in_ap", "--modulus", "4",
                      "--residue", "5"], "residue must lie in [0, modulus)"),
    _case(UD_SMALL + ["--domain", "primes_in_ap", "--modulus", "4",
                      "--residue", "-3"], "residue must lie in [0, modulus)"),
    _case(["bound-check", "--which", "differential", "--expr", "x^(1/2)",
           "--samples", "10,abc"]),
    _case(["ud-test", "--expr", "x^(1/2)", "--N", "10", "--table-limit", "1000",
           "--q", "0"], "q must be nonzero"),
    _case(["sieve", "--limit", "100", "--table-limit", "5"],
          "unrecognized arguments: --table-limit 5"),
    _case(["vaughan-check", "--X", "100000", "--u", "10", "--v", "10",
           "--phase", "x^9"], "exceeds the compensated range (2^70)"),
    _case(["vaughan-check", "--X", "0", "--u", "1", "--v", "1", "--phase", "x"],
          "X must be >= v"),
    _case(["ud-test", "--domain", "integers", "--N", "10", "--expr", "x^(100000)"],
          "exceeds the compensated range (2^70)"),
    _case(["weyl-sum", "--expr", "x^(100000)", "--range", "2", "10",
           "--domain", "integers"], "exceeds the compensated range (2^70)"),
    _case(["vaughan-check", "--X", "1000", "--u", "10", "--v", "10",
           "--phase", "x^(100000)"], "exceeds the compensated range (2^70)"),
    _case(["bound-check", "--which", "vdc", "--N", "-5"]),
    # 8·10^18 bytes of index array: the allocation fails at once.
    _case(["ud-test", "--expr", "x^(1/2)", "--domain", "integers",
           "--N", "1000000000000000000"], "error: out of memory"),
    _case(["weyl-sum", "--expr", "x^(1/2)", "--domain", "integers",
           "--range", "2", "1000000000000000000"], "error: out of memory"),
    _case(["bound-check", "--which", "differential", "--expr", "x^(1/2)",
           "--j-max", "-1"], "j_max must be >= 0"),
    # an artifact path that cannot be written, a config that cannot be read
    _case(["sieve", "--limit", "100", "--out", "no_such_dir/a.json"],
          "cannot write artifact no_such_dir/a.json"),
    _case(["recurrence-scan", "--config", "."], "cannot read config file ."),
    _case(["recurrence-scan", "--config", "nope.cfg"],
          "cannot read config file nope.cfg"),
    _case(X4_SCAN + ["x4_20000.cfg"], "exceeds the compensated range (2^70)"),
    _case(X4_SCAN + ["x4_10000.cfg"], "floor exceeds the int64 range"),
    *(_unread(cmd, flag, "3", *rest)
      for cmd, rest in [("sieve", ["--limit", "100"]),
                        ("ergodic-average", ["--config", "unitary.cfg"]),
                        ("recurrence-scan", ["--config", "x4_10000.cfg"]),
                        ("fcplus-probe", ["--config", "measure.cfg"])]
      for flag in ("--seed", "--threads", "--chunk")),
    _unread("ud-test", "--seed", "3", *UD_SMALL[1:]),
    *(_unread(cmd, flag, "3", *rest)
      for cmd, rest, flags in [
          ("weyl-sum", ["--expr", "x^(1/2)"], ("--seed", "--chunk")),
          ("vaughan-check", ["--X", "100", "--u", "5", "--v", "5"], ("--chunk",)),
          ("bound-check", ["--which", "vdc"], ("--chunk",)),
          ("corpus-run", [], ("--seed", "--chunk"))]
      for flag in flags),
])
def test_invalid_flags_exit_2(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for N in (10_000, 20_000):
        (tmp_path / f"x4_{N}.cfg").write_text(LATTICE_X4.format(N=N))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# A sample clustered near 0 (D* = 0.99): with every harmonic zeroed, the
# Erdos-Turan bound falls to 4/Q and the gate must fail.
CLUSTERED = ["ud-test", "--expr", "1/100000*x", "--domain", "integers",
             "--N", "1000"]


def _zero_moduli(points, Q):
    return [(q, 0.0) for q in range(1, Q + 1)]


def test_failed_gate_exits_3(monkeypatch, tmp_path):
    monkeypatch.setattr("primeud.discrepancy.weyl_moduli", _zero_moduli)
    assert run_cli(*CLUSTERED, "--out", str(tmp_path / "g.json")) == 3
    assert not (tmp_path / "g.json").exists()


def test_failed_gate_exits_3_under_optimize(tmp_path):
    script = (
        "import sys\n"
        "import primeud.discrepancy as d\n"
        "from primeud.cli import main\n"
        "d.weyl_moduli = lambda points, Q: [(q, 0.0) for q in range(1, Q + 1)]\n"
        f"sys.exit(main({CLUSTERED + ['--out', str(tmp_path / 'g.json')]!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "assertion failure" in proc.stderr
