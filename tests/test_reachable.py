"""Every public library function is reached from the library or its scripts,
not only from the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "primeud").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _uses(node):
    """How often each name is used under node: as a Name, an Attribute or an
    entry of a `from ... import`."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            uses.update(alias.name for alias in n.names)
    return uses


def test_no_public_function_is_reached_only_by_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + SCRIPTS}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{path.stem}.{fn.name}"
              for path in LIBRARY for fn in trees[path].body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and total[fn.name] == _uses(fn)[fn.name]]
    assert not unused, f"used only by tests, or not at all: {', '.join(unused)}"
