"""Broad exception handlers in ``src/repro`` stay at six named sites.

``repro/errors.py`` promises that every engine error derives from
``ModelManagementError``, so code that translates engine errors for a
caller catches that, and a bug elsewhere reaches the caller as itself.
This test parses ``src/repro`` and fails when ``except Exception``,
``except BaseException`` or a bare ``except`` appears anywhere but at
the sites that re-raise, report, or count and journal what they catch.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

BROAD = {"Exception", "BaseException"}

#: (module, enclosing function) of every allowed broad handler.
ALLOWED = {
    # the script thread of ``repro top``: reported after the run
    ("cli.py", "cmd_top.run_script"),
    # stamps the span's error attribute and re-raises
    ("observability/tracing.py", "Tracer.span"),
    # query telemetry: counted, never fails the query
    ("algebra/evaluator.py", "_evaluate_observed"),
    # planning: counted, falls back to the heuristic plan
    ("algebra/optimizer.py", "optimize_with_report"),
    # EXPLAIN estimates: counted, advisory
    ("algebra/explain.py", "_estimates_for"),
    ("algebra/explain.py", "_plan_for"),
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def _broad_sites(tree: ast.AST, scope: tuple[str, ...] = ()):
    """``(qualified enclosing name, line)`` of each broad handler."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _broad_sites(node, scope + (node.name,))
            continue
        if isinstance(node, ast.ExceptHandler) and _is_broad(node):
            yield ".".join(scope), node.lineno
        yield from _broad_sites(node, scope)


def test_broad_handlers_only_at_the_allowed_sites():
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "except" not in text:
            continue
        module = path.relative_to(SOURCE).as_posix()
        for scope, line in _broad_sites(ast.parse(text, filename=str(path))):
            found.setdefault((module, scope), []).append(line)
    stray = {site: lines for site, lines in found.items()
             if site not in ALLOWED}
    assert not stray, stray
    assert set(found) == ALLOWED, ALLOWED - set(found)
