"""Every public library function, class and module constant is reached from
the library, not only from the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "primeud").glob("*.py"))


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


def _public_names(tree):
    """(name, own node) for each public module-level function, class and
    constant; uses inside the own node (a body, or the constant's own
    assignment target) do not count."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t) for t in targets if isinstance(t, ast.Name))


def test_no_public_function_is_reached_only_by_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{path.stem}.{name}"
              for path in LIBRARY for name, node in _public_names(trees[path])
              if not name.startswith("_") and total[name] == _uses(node)[name]]
    assert not unused, f"used only by tests, or not at all: {', '.join(unused)}"
