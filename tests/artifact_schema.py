"""JSON Schemas (draft 2020-12) of the CLI artifacts, generated from the
result records.

A command's ``results`` are the fields and public properties of its
record (``cli._jsonable``), so its schema is one object per record type
with exactly those keys, each typed by its annotation (a property by its
return annotation), and no other key allowed.  The files in ``schemas/``
are this module's output; after a record changes, regenerate them with

    PYTHONPATH=src python tests/artifact_schema.py
"""

import json
import sys
import types
import typing
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np

from primeud import cli, discrepancy, ergodic, expsums, hardy, primes

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"

# The record type, or types, that each command writes as its results.
RECORDS = {
    "sieve": (cli.SieveResult,),
    "ud-test": (cli.UdTestResult,),
    "weyl-sum": (expsums.ExpSumResult,),
    "vaughan-check": (primes.VaughanReport,),
    "bound-check": (expsums.BoundReport, hardy.InequalityReport),
    "ergodic-average": (ergodic.ErgodicAverageResult,),
    "recurrence-scan": (ergodic.RecurrenceResult, ergodic.LatticeScanResult,
                        ergodic.FilteredResult),
    "fcplus-probe": (ergodic.FcPlusResult,),
    "corpus-run": (cli.CorpusResult,),
}

# The names the records' annotations use; cli imports some only to type.
_NAMES = {name: value for module in (primes, expsums, discrepancy, hardy, ergodic)
          for name, value in vars(module).items()}

_NUMBER = {"type": "number"}
_TYPES = {
    int: {"type": "integer"},
    float: _NUMBER,
    bool: {"type": "boolean"},
    str: {"type": "string"},
    Fraction: {"type": "string"},
    type(None): {"type": "null"},
    complex: {"type": "array", "prefixItems": [_NUMBER, _NUMBER],
              "items": False, "minItems": 2},
    dict: {"type": "object"},
    np.ndarray: {"type": "array"},
}


def _hints(obj) -> dict:
    return typing.get_type_hints(obj, localns=_NAMES)


def _schema(tp, defs: dict) -> dict:
    """The schema of a value of type `tp`; a record goes to `defs` once and
    is referenced."""
    if tp in _TYPES:
        return _TYPES[tp]
    if is_dataclass(tp):
        if tp.__name__ not in defs:
            defs[tp.__name__] = None  # a placeholder while its keys are built
            defs[tp.__name__] = _record(tp, defs)
        return {"$ref": f"#/$defs/{tp.__name__}"}
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[1:] == (...,):
        return {"type": "array", "items": _schema(args[0], defs)}
    if origin is tuple:
        return {"type": "array", "prefixItems": [_schema(a, defs) for a in args],
                "items": False, "minItems": len(args)}
    if origin is dict:
        return {"type": "object", "additionalProperties": _schema(args[1], defs)}
    if origin in (typing.Union, types.UnionType):
        return {"anyOf": [_schema(a, defs) for a in args]}
    raise TypeError(f"no JSON Schema for {tp!r}")


def _record(cls, defs: dict) -> dict:
    hints = _hints(cls)
    keys = {f.name: hints[f.name] for f in fields(cls)}
    for name in dir(cls):
        if not name.startswith("_") and isinstance(getattr(cls, name), property):
            keys[name] = _hints(getattr(cls, name).fget)["return"]
    return {"type": "object", "additionalProperties": False,
            "required": sorted(keys),
            "properties": {k: _schema(tp, defs) for k, tp in keys.items()}}


def _document(name: str, title: str, body: dict, defs: dict) -> dict:
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            "$id": f"primeud/{name}", "title": title, **body, "$defs": defs}


def run_artifact_schema() -> dict:
    """A JSON artifact: its closed config, and the results of the command
    that config names."""
    defs = {}
    results = {}
    for command, records in RECORDS.items():
        refs = [_schema(r, defs) for r in records]
        results[command] = refs[0] if len(refs) == 1 else {"anyOf": refs}
    config = {
        "type": "object", "additionalProperties": False,
        "required": ["command", "parameters", "seed", "format", "table_limit",
                     "version"],
        "properties": {
            "command": {"enum": list(RECORDS)},
            "parameters": {"type": "object"},
            "seed": {"type": "integer"},
            "format": {"enum": ["json", "csv", "plotdata"]},
            "table_limit": {"type": "integer", "minimum": 2},
            "version": {"type": "string"},
        },
    }
    return _document("run_artifact", "CLI run artifact (JSON format)", {
        "description": (
            "Every run serializes its effective config, without the output "
            "path, the thread count and the prime cache path, and its "
            "results: the fields and public properties of the command's "
            "result record. Complex numbers serialize as [re, im]."),
        "type": "object", "additionalProperties": False,
        "required": ["config", "config_hash", "results"],
        "properties": {
            "config": config,
            "config_hash": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
            "results": {"type": "object"},
        },
        "allOf": [{"if": {"properties": {"config": {"properties": {
                       "command": {"const": command}}}}},
                   "then": {"properties": {"results": schema}}}
                  for command, schema in results.items()],
    }, defs)


def bound_report_schema() -> dict:
    """The results of a bound check that reports one bound."""
    defs = {}
    ref = _schema(expsums.BoundReport, defs)
    return _document("bound_report", "Bound-vs-actual report", ref, defs)


GENERATED = {"run_artifact.schema.json": run_artifact_schema,
             "bound_report.schema.json": bound_report_schema}


def render(schema: dict) -> str:
    return json.dumps(schema, indent=2, sort_keys=True) + "\n"


def validator(name: str):
    """A validator for the committed schema of that file name."""
    schema = json.loads((SCHEMAS / name).read_text())
    return jsonschema.Draft202012Validator(schema)


if __name__ == "__main__":
    for name, build in GENERATED.items():
        (SCHEMAS / name).write_text(render(build()))
        print(f"wrote {SCHEMAS / name}", file=sys.stderr)
