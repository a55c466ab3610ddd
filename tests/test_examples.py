"""Every example config under examples/ runs through the CLI on a small
table and writes an artifact that matches the run-artifact schema."""

import json
from pathlib import Path

import jsonschema
import pytest

from primeud.cli import main
from primeud.flatcfg import load_flat_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "examples").glob("**/*.cfg"))
COMMAND = {"unitary": "ergodic-average", "torus": "recurrence-scan",
           "lattice": "recurrence-scan", "measure": "fcplus-probe"}
SCHEMA = json.loads((ROOT / "schemas" / "run_artifact.schema.json").read_text())


def test_all_examples_are_found():
    # 3 unitary, 5 torus, 9 lattice and 5 measures x 2 shifted-prime index sets
    assert len(CONFIGS) == 27


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_example_runs(path, tmp_path):
    small = tmp_path / path.name
    cfg = {**load_flat_config(path), "N": "2000", "table_limit": "100000"}
    small.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp_path / "artifact.json"
    assert main([COMMAND[path.parent.name], "--config", str(small),
                 "--out", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), SCHEMA)
