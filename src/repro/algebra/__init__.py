"""Relational algebra over universal-metamodel instances.

This is the engine's transformation language: TransGen compiles mapping
constraints into these expressions (the paper's Figure 3 query is one),
the mapping runtime evaluates them, and printers render them as
SQL-like text.

Two expression families:

* **scalar expressions** (:mod:`repro.algebra.scalars`): column
  references, literals, functions, ``CASE``, comparisons, boolean
  connectives, ``IS NULL``, and the Entity SQL ``IS OF`` type test;
* **relational expressions** (:mod:`repro.algebra.expressions`): scan,
  entity scan, select, project, extend, join (inner/left-outer),
  union-all, difference, distinct, rename, aggregate, sort, values.
"""

from repro.algebra.scalars import (
    Scalar,
    Col,
    Lit,
    Func,
    Arith,
    Case,
    Predicate,
    Comparison,
    And,
    Or,
    Not,
    IsNull,
    IsOf,
    In,
    TRUE,
    FALSE,
    col,
    lit,
    eq,
    ne,
    lt,
    le,
    gt,
    ge,
    conjunction,
)
from repro.algebra.expressions import (
    RelExpr,
    Scan,
    EntityScan,
    Values,
    Select,
    Project,
    Extend,
    Join,
    UnionAll,
    Difference,
    Distinct,
    Rename,
    Aggregate,
    Sort,
    project_names,
    eq_join,
    ValueJoinEq,
)
from repro.algebra.evaluator import (
    EvalContext,
    evaluate,
    evaluate_interpreted,
)
from repro.algebra.compiler import PlanNode, PlanProfile
from repro.algebra.explain import (
    ExplainAnalyzeResult,
    ExplainResult,
    explain,
    explain_analyze,
)
from repro.algebra.plan_cache import (
    GLOBAL_VECTOR_PLAN_CACHE,
    PlanCache,
    cached_vector_plan,
    clear_plan_cache,
    plan_cache_stats,
    vector_plan_cache_stats,
)
from repro.algebra.vectorized import VectorizedPlan, compile_vector_plan
from repro.algebra.printer import node_label, render_plan, to_text
from repro.algebra.sql import to_sql
from repro.algebra.optimizer import optimize

__all__ = [
    "Scalar", "Col", "Lit", "Func", "Arith", "Case", "Predicate",
    "Comparison", "And", "Or", "Not", "IsNull", "IsOf", "In",
    "TRUE", "FALSE", "col", "lit", "eq", "ne", "lt", "le", "gt", "ge",
    "conjunction",
    "RelExpr", "Scan", "EntityScan", "Values", "Select", "Project",
    "Extend", "Join", "UnionAll", "Difference", "Distinct", "Rename",
    "Aggregate", "Sort", "project_names", "eq_join", "ValueJoinEq",
    "evaluate", "evaluate_interpreted", "EvalContext",
    "PlanCache", "clear_plan_cache", "plan_cache_stats",
    "VectorizedPlan", "compile_vector_plan", "GLOBAL_VECTOR_PLAN_CACHE",
    "cached_vector_plan", "vector_plan_cache_stats",
    "PlanNode", "PlanProfile",
    "explain", "explain_analyze", "ExplainResult", "ExplainAnalyzeResult",
    "to_text", "to_sql", "node_label", "render_plan", "optimize",
]
