"""Smoke runs of the demo scripts: they exit 0 on small tables."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["recurrence_demo.py", "--N", "2000", "--table-limit", "100000"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
