"""One implementation of each query semantics, checked on the source.

Row semantics live in the interpreter (``apply_operator``), which runs
every plan the vectorized executor cannot run over columns, whole;
conjunctive queries run on the chase's compiled plans.  This test
parses ``src/repro`` and fails when a second scalar compiler or
CQ-to-algebra translator comes back, when an engine switch appears
anywhere but ``evaluate`` (the oracle selector) and ``QueryProcessor``
(a query workload's oracle), when the executor runs one interpreter
operator over a stage's rows again, or when the algebra grows a second
join equality."""

from __future__ import annotations

import ast
import re

from tests.test_trigger_engine import SOURCE, _modules

ENGINE_TAKERS = {
    "algebra/evaluator.py:evaluate",
    "runtime/query_processor.py:QueryProcessor.__init__",
}


def _functions(tree: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of every function, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")


def test_only_evaluate_and_query_processor_take_engine():
    takers = {
        f"{name}:{qualname}"
        for name, tree in _modules()
        for qualname, node in _functions(tree)
        if any(arg.arg == "engine" for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        ))
    }
    assert takers == ENGINE_TAKERS


def test_no_engine_field_or_attribute_elsewhere():
    """No dataclass field named ``engine``, and ``self.engine`` is set
    only by ``QueryProcessor``."""
    offenders = []
    for name, tree in _modules():
        for qualname, node in _functions(tree):
            for target in ast.walk(node):
                if (isinstance(target, ast.Attribute)
                        and target.attr == "engine"
                        and isinstance(target.ctx, ast.Store)
                        and qualname != "QueryProcessor.__init__"):
                    offenders.append(f"{name}:{qualname}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                offenders += [
                    f"{name}:{cls.name}.engine"
                    for field in cls.body
                    if isinstance(field, ast.AnnAssign)
                    and isinstance(field.target, ast.Name)
                    and field.target.id == "engine"
                ]
    assert not offenders, offenders


#: Every ``compile*`` / ``translate*`` function the source defines.  A
#: scalar compiler or a CQ-to-algebra translator coming back shows up
#: as a name outside this set.
COMPILERS = {
    "compile_vector_plan", "compile_dependency", "_compile", "_compile_head",
    "translate", "translate_one", "_translate_condition",
}


def test_no_second_scalar_compiler_or_cq_translator():
    found = {
        qualname.rsplit(".", 1)[-1]
        for _, tree in _modules()
        for qualname, _ in _functions(tree)
        if qualname.rsplit(".", 1)[-1].lstrip("_").startswith(
            ("compile", "translate")
        )
    }
    assert found == COMPILERS


def test_logic_does_not_import_the_algebra():
    """Certain answers run on the chase's plans, so no ``repro.logic``
    module reaches into ``repro.algebra``."""
    offenders = [
        name
        for name, tree in _modules()
        if name.startswith("logic/")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.algebra")
    ]
    assert not offenders, offenders


def test_the_executor_hands_the_interpreter_whole_plans():
    """``algebra/vectorized.py`` reads no ``apply_operator``: a plan
    outside the columnar dialect runs on the interpreter's ``_eval``
    over its whole tree, never one operator over one stage's rows."""
    [tree] = [tree for name, tree in _modules()
              if name == "algebra/vectorized.py"]
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    } | {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "apply_operator" not in names
    assert "_eval" in names


#: The algebra's one join equality is ``_JoinEq``, under which a null
#: never matches.  The null-matching equality class that was deleted,
#: and the flag that threaded it through the algebra, must not come
#: back.  The pattern spells those names with a character class, so a
#: plain text search for them finds only real uses.
SECOND_EQUALITY = re.compile(r"Value\s*JoinEq|tole[r]ant", re.IGNORECASE)


def test_one_join_equality_in_the_algebra():
    offenders = [
        f"{path.relative_to(SOURCE).as_posix()}:{number}"
        for path in sorted((SOURCE / "algebra").rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if SECOND_EQUALITY.search(line)
    ]
    assert not offenders, offenders
