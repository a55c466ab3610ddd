from pathlib import Path

import numpy as np
import pytest

from primeud import cli
from primeud.flatcfg import load_flat_config
from primeud.primes import arith_tables, sieve

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(scope="session")
def table2m():
    return sieve(2_000_000)


@pytest.fixture(scope="session")
def table100k():
    return sieve(100_000)


@pytest.fixture(scope="session")
def arith10k():
    return arith_tables(10_000)


@pytest.fixture(scope="session")
def arith100k():
    return arith_tables(100_000)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def examples():
    """examples(kind) -> {name: (system, spec)} for each examples/<kind>/*.cfg,
    built as the CLI builds them; the name is the file's stem."""
    builders = {"unitary": cli._build_unitary, "torus": cli._build_torus,
                "lattice": cli._build_lattice, "measure": cli._build_measure}

    def load(kind):
        built = {}
        for path in sorted((EXAMPLES / kind).glob("*.cfg")):
            cfg = load_flat_config(path)
            built[path.stem] = (builders[kind](cfg), cli._build_spec(cfg))
        return built
    return load
