"""No private top-level function or class of ``src/repro`` is dead.

A module-level ``def _name`` or ``class _Name`` is private to the
package, so only ``src/repro`` can use it.  This test parses every
module with ``ast`` and fails when such a definition is named nowhere
in ``src/repro`` outside its own definition: no ``Name`` reads it,
no attribute access (``module._name``) reaches it, and no import
binds it.  Tests do not count as uses: a helper only a test calls
belongs in the test.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node
        for node in tree.body
        if isinstance(node, _DEFINITIONS)
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def _names(tree: ast.AST) -> Counter:
    """How often ``tree`` reads, reaches as an attribute, or imports
    each name."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def unused_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` of every private top-level definition
    that no module of ``sources`` (module name → source) names outside
    the definition itself."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named: Counter = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in _private_definitions(tree)
        if named[node.name] == _names(node)[node.name]
    )


def test_no_private_definition_is_unused():
    sources = {
        path.relative_to(SOURCE).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SOURCE.rglob("*.py"))
    }
    assert unused_definitions(sources) == []


def test_the_check_sees_each_kind_of_use():
    sources = {
        "a.py": '''
def _called():
    return 1


def _reached():
    return 2


def _imported():
    return 3


class _Unused:
    pass


def _unused(x):
    return _unused(x - 1) if x else _called()
''',
        "b.py": '''
import a
from a import _imported


def public():
    return a._reached() + _imported()
''',
    }
    # A definition that only calls itself is still unused.
    assert unused_definitions(sources) == [
        ("a.py", 14, "_Unused"), ("a.py", 18, "_unused"),
    ]
