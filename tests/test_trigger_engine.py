"""One trigger engine: compiled chase plans are the only way the
library enumerates a dependency's triggers.

The backtracking search (``iter_homomorphisms`` / ``find_homomorphism``)
stays as the oracle of the plan tests (certain answers among them) and
for the paths that evaluate queries rather than dependency triggers:
the reference ``naive_chase``, containment, and ``explain_missing``.  This test parses ``src/repro`` and fails when any
other module imports the search, or when a second SO-tgd executor
(``execute_so_tgd``) comes back.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

SEARCH = {"iter_homomorphisms", "find_homomorphism"}

ALLOWED = {
    "logic/homomorphism.py",
    "logic/__init__.py",
    "logic/chase.py",
    "logic/containment.py",
    "runtime/debugging.py",
}


@cache
def _modules() -> tuple:
    return tuple(
        (path.relative_to(SOURCE).as_posix(),
         ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(SOURCE.rglob("*.py"))
    )


def _search_uses(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names} & SEARCH
        elif isinstance(node, ast.Attribute) and node.attr in SEARCH:
            found.add(node.attr)
    return found


def test_only_the_allowlist_imports_the_search():
    offenders = {
        name: sorted(uses)
        for name, tree in _modules()
        if name not in ALLOWED and (uses := _search_uses(tree))
    }
    assert not offenders, offenders


def test_no_second_so_tgd_executor():
    defined = [
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "execute_so_tgd")
        or (isinstance(node, ast.Name) and node.id == "execute_so_tgd")
        or (isinstance(node, ast.alias) and node.name == "execute_so_tgd")
    ]
    assert not defined, defined
