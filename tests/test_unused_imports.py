"""No module of ``src/repro`` imports a name it never reads.

This is pyflakes' F401 rule, which ``make lint`` runs through ruff
when ruff is installed; the target skips when it is not, so this test
keeps the rule in tier-1.  It parses every module with ``ast``.  An
import is read when its bound name appears as a ``Name`` anywhere in
its scope, in a string annotation, or (at module level) in
``__all__``; an import inside a function is judged within that
function.  ``__init__.py`` files are exempt: their imports are the
package's re-export surface, as the ruff config in pyproject.toml
pins.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _names(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read by string annotations (``x: "OrderedDict[K, V]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(
                arg.annotation
                for arg in (args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg])
                if arg is not None
            )
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    names |= _names(ast.parse(sub.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def _exported(tree: ast.Module) -> set[str]:
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)
        for element in node.value.elts
    }


def _bound(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or (alias.name.split(".")[0]
                         if isinstance(node, ast.Import) else alias.name)
        for alias in node.names if alias.name != "*"
    ]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every import ``source`` never reads."""
    tree = ast.parse(source)
    scope_of = {}
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # ast.walk is breadth-first, so inner functions come later and win.
    for scope in [tree] + functions:
        for node in ast.walk(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                scope_of[node] = scope
    module_reads = _names(tree) | _annotation_names(tree) | _exported(tree)
    return sorted(
        (node.lineno, name)
        for node, scope in scope_of.items()
        for name in _bound(node)
        if name not in (module_reads if scope is tree else _names(scope))
    )


def test_no_module_imports_a_name_it_never_reads():
    offenders = {
        path.relative_to(SOURCE).as_posix(): found
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "__init__.py"
        and (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders


def test_the_check_sees_each_kind_of_unused_import():
    source = '''
import os
import json as j
from typing import Optional, Sequence
from dataclasses import dataclass, field


def helper() -> "Sequence[int]":
    from math import floor, ceil
    return [ceil(1.5)]


@dataclass
class Box:
    size: Optional[int] = None
'''
    assert unused_imports(source) == [
        (2, "os"), (3, "j"), (5, "field"), (9, "floor"),
    ]
