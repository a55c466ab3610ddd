"""Metamorphic relations: results that must agree with each other.

Each relation runs the CLI twice, on inputs whose answers the mathematics
relates, and compares the two artifacts' `results`; no second computation
of the same thing is needed as an oracle.  The relations here are exact:
every result agrees bit for bit, except the `source` record of the inputs.
"""

import json

import pytest

from primeud.cli import main

UD = ["ud-test", "--table-limit", "300000"]
WEYL = ["weyl-sum", "--X", "100000", "--table-limit", "100000"]


def _without_source(v):
    if isinstance(v, dict):
        return {k: _without_source(x) for k, x in v.items() if k != "source"}
    if isinstance(v, list):
        return [_without_source(x) for x in v]
    return v


def _conjugate(results):
    re, im = results["sum"]
    return {**results, "sum": [re, -im]}


def _first_report(results):
    return {**results, "reports": results["reports"][:1]}


def _same(results):
    return results


# (argv of one run, argv of the other, the map that takes the other run's
# results to the first's)
RELATIONS = [
    pytest.param(UD + ["--expr", "x^(3/2)", "--q", "2", "--N", "20000"],
                 UD + ["--expr", "2*x^(3/2)", "--N", "20000"], _same,
                 id="q times f is f times q"),
    pytest.param(WEYL + ["--expr", "x^(3/2)", "--q=-1"],
                 WEYL + ["--expr", "x^(3/2)"], _conjugate,
                 id="q=-1 conjugates the sum"),
    pytest.param(WEYL + ["--expr=-x^(1/2) - log^2"],
                 WEYL + ["--expr", "x^(1/2) + log^2"], _conjugate,
                 id="-f conjugates the sum"),
    pytest.param(UD + ["--expr", "x^(3/2)", "--N", "1000"],
                 UD + ["--expr", "x^(3/2)", "--N", "20000",
                       "--checkpoints", "1000,20000"], _first_report,
                 id="a checkpoint is the run at its N"),
    pytest.param(UD + ["--expr", "x^(1/2)", "--N", "20000",
                       "--domain", "primes_in_ap", "--modulus", "1",
                       "--residue", "0"],
                 UD + ["--expr", "x^(1/2)", "--N", "20000"], _same,
                 id="every prime is 0 mod 1"),
]


@pytest.mark.parametrize("one, other, relate", RELATIONS)
def test_exact_relation(one, other, relate, tmp_path):
    results = []
    for i, argv in enumerate((one, other)):
        out = tmp_path / f"{i}.json"
        assert main([*argv, "--out", str(out)]) == 0
        results.append(_without_source(json.loads(out.read_text())["results"]))
    assert results[0] == relate(results[1])
