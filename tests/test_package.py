"""What a process imports, and the suite's own pytest settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _modules_after(code: str) -> list[str]:
    """The primeud modules loaded after running `code` in a fresh interpreter."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('primeud')))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_only_what_is_used():
    for code, loaded in [
        ("import primeud\nfrom primeud.primes import sieve, save_prime_cache",
         ["primeud", "primeud.primes"]),
        ("from primeud.corpus import CONTROL_CORPUS", ["primeud", "primeud.corpus"]),
    ]:
        assert _modules_after(code) == loaded, code


@pytest.mark.parametrize("argv", [["--version"], ["sieve", "--limit", "1000", "--out"]])
def test_cli_sieve_loads_only_the_sieve(argv, tmp_path):
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "s.json")]
    assert _modules_after(f"from primeud.cli import main\nassert main({argv!r}) == 0") == [
        "primeud", "primeud.cli", "primeud.errors", "primeud.flatcfg",
        "primeud.primes"]


def test_failing_property_is_reported_not_internalerror(tmp_path):
    """A failing hypothesis property, run under this suite's pytest settings,
    ends as one failure and not as an INTERNALERROR."""
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out and "INTERNALERROR" not in out
