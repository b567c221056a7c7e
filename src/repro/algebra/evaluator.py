"""Evaluation of relational algebra expressions over instances.

This is the query-execution half of the paper's "mapping runtime": the
engine that actually runs generated transformations.  :func:`evaluate`
runs one executor and keeps one oracle:

* ``vectorized`` (the default) — the columnar plan pipeline of
  :mod:`repro.algebra.vectorized`: stages operate on
  :class:`~repro.instances.columnar.ColumnBatch` operands (masks,
  column permutations, column-slice hash joins), memoized through the
  plan cache of :mod:`repro.algebra.plan_cache`;
* ``interpreted`` — the reference tree-walking interpreter in this
  module: a straightforward evaluator that materializes each
  operator's output.  Simple, deterministic, and the semantic oracle
  the differential suite holds the vectorized engine to.

The interpreter is child evaluation (:func:`_eval`) plus one per-node
entry, :func:`apply_operator`.  That entry is the library's one row
semantics: where the vectorized executor cannot run a plan over
columns, it runs :func:`_eval` over the plan's whole tree.

Pick the oracle per call with ``evaluate(..., engine="interpreted")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.compiler import (
    SortKey,
    join_key_value,
    reduce_aggregate,
    split_join_predicate,
)
from repro.algebra.expressions import (
    Aggregate,
    Difference,
    Distinct,
    EntityScan,
    Extend,
    Join,
    Project,
    RelExpr,
    Rename,
    Scan,
    Select,
    Sort,
    UnionAll,
    Values,
    _JoinEq,
)
from repro.algebra.scalars import Col, Scalar
from repro.errors import EvaluationError
from repro.instances.database import Instance, Row, freeze_row
from repro.metamodel.schema import Schema
from repro.observability.journal import JOURNAL
from repro.observability.metrics import registry
from repro.observability.state import STATE
from repro.observability.tracing import tracer


@dataclass
class EvalContext:
    """What scalar expressions may consult during evaluation."""

    schema: Optional[Schema] = None
    instance: Optional[Instance] = None
    params: tuple = ()  # values of the expression's Param slots


def evaluate(
    expr: RelExpr,
    instance: Instance,
    schema: Optional[Schema] = None,
    engine: Optional[str] = None,
    params: tuple = (),
) -> list[Row]:
    """Evaluate ``expr`` against ``instance`` and return its rows.

    ``schema`` supplies the is-a hierarchy for ``EntityScan`` and
    ``IsOf``; it defaults to the instance's bound schema.  ``engine``
    is ``None``/``"vectorized"`` (the plan-cached executor) or
    ``"interpreted"`` (the reference oracle); both produce identical
    row multisets, and any other value raises ``EvaluationError``.
    ``params`` bind ``expr``'s ``Param`` slots, if it has any.  The
    executor runs the cached plan of the query's *shape*
    (:func:`~repro.algebra.plan_cache.parameterize`).
    """
    if engine is None or engine == "vectorized":
        from repro.algebra.plan_cache import (
            GLOBAL_VECTOR_PLAN_CACHE,
            parameterize,
        )

        shape, params = parameterize(expr, params)
        if not STATE.enabled:
            plan, _ = GLOBAL_VECTOR_PLAN_CACHE.adaptive_lookup(
                shape, instance, schema, params
            )
            return plan.execute(instance, schema, params)
        return _evaluate_observed(
            expr, shape, params, instance, schema, GLOBAL_VECTOR_PLAN_CACHE
        )
    if engine != "interpreted":
        raise EvaluationError(
            f"unknown query engine {engine!r}; expected 'vectorized' "
            "or 'interpreted'"
        )
    return evaluate_interpreted(expr, instance, schema, params)


def _evaluate_observed(
    expr: RelExpr,
    shape: RelExpr,
    params: tuple,
    instance: Instance,
    schema: Optional[Schema],
    cache,
) -> list[Row]:
    """The executor's path under ``STATE.enabled``: identical result,
    plus a ``query`` event (see :func:`_record_query`) carrying the
    *source* expression fingerprint (the interpreter and the adaptive
    feedback store agree on it, whatever tree the optimizer chose) and
    the worst estimate↔actual divergent node.  A flagged divergence is
    handed to the adaptive cache, which may schedule a
    re-optimization of this query with actuals-corrected
    cardinalities (``reopt`` in the event).

    The divergence compares this run's own profile with estimates
    against this run's instance — never state stored on the shared
    cached plan, which concurrent runs over other instances overwrite.
    The estimator runs *after* execution (outside the recorded wall
    time) and its failures never fail the query — they are counted
    and journaled as ``query.estimate.error``."""
    import time

    from repro.algebra import estimate

    plan, cache_hit = cache.adaptive_lookup(shape, instance, schema, params)
    start = time.perf_counter()
    rows, profile = plan.execute_profiled(instance, schema, params)
    wall_ms = (time.perf_counter() - start) * 1000.0
    worst = None
    reopt = False
    try:
        if params:
            estimates = estimate.annotate_plan(plan, instance, schema, params)
        else:
            estimates = estimate.annotate_plan(plan, instance, schema)
        worst = estimate.worst_divergent(plan.nodes, profile, estimates)
        if worst is not None and worst["flagged"]:
            reopt = cache.note_divergence(shape, plan, profile)
    except Exception as exc:  # noqa: BLE001 - telemetry never fails a query
        estimate.note_estimate_error(exc, "evaluate")
    _record_query(expr, "vectorized", cache_hit, wall_ms, len(rows),
                  worst, reopt)
    return rows


#: Wall time (ms) at or over which an observed query counts as slow.
SLOW_QUERY_MS = 100.0


def _record_query(
    expr: RelExpr,
    executed_by: str,
    cache_hit: bool,
    wall_ms: float,
    rows_out: int,
    worst: Optional[dict] = None,
    reopt: bool = False,
) -> None:
    """Journal one observed execution as a ``query`` event and bump
    the ``query.log.entries`` / ``.slow`` and
    ``query.estimate.divergent`` counters the health monitor reads."""
    JOURNAL.record(
        "query",
        fingerprint=expr.fingerprint(),
        engine=executed_by,
        cache_hit=cache_hit,
        wall_ms=round(wall_ms, 3),
        rows_out=rows_out,
        worst_divergent=worst,
        reopt=reopt,
    )
    registry.counter("query.log.entries").inc()
    if wall_ms >= SLOW_QUERY_MS:
        registry.counter("query.log.slow").inc()
    if worst is not None and worst["flagged"]:
        registry.counter("query.estimate.divergent").inc()


def evaluate_interpreted(
    expr: RelExpr,
    instance: Instance,
    schema: Optional[Schema] = None,
    params: tuple = (),
) -> list[Row]:
    """The reference tree-walking interpreter (the oracle that
    ``evaluate(..., engine="interpreted")`` selects)."""
    ctx = EvalContext(schema or instance.schema, instance, params)
    if not STATE.enabled:
        return _eval(expr, ctx)
    import time

    start = time.perf_counter()
    with tracer.span(
        "query.execute", engine="interpreted", **{"plan.size": expr.size()}
    ) as span:
        rows = _eval(expr, ctx)
        if span is not None:
            span.set_attribute("rows", len(rows))
    wall_ms = (time.perf_counter() - start) * 1000.0
    registry.counter("query.execute.count").inc()
    registry.histogram("query.execute.rows").observe(len(rows))
    # No plan cache or per-node plan here, but the event carries the
    # same structural fingerprint the vectorized engine's does.
    _record_query(expr, "interpreted", False, wall_ms, len(rows))
    return rows


def _eval(expr: RelExpr, ctx: EvalContext) -> list[Row]:
    return apply_operator(
        expr, [_eval(child, ctx) for child in expr.inputs()], ctx
    )


def apply_operator(expr: RelExpr, inputs: list[list[Row]], ctx) -> list[Row]:
    """The rows of one ``expr`` node, given its children's rows in
    ``expr.inputs()`` order (none for source nodes, which read
    ``ctx.instance``).

    ``ctx`` is an :class:`EvalContext` or anything exposing the same
    ``schema``/``instance``/``params`` — the vectorized executor passes
    its per-execution context when it hands a plan to the interpreter,
    so both engines share this one row semantics.  The input lists may
    be consumed (a sort reorders its input in place).
    """
    if isinstance(expr, Scan):
        return [dict(row) for row in ctx.instance.rows(expr.relation)]

    if isinstance(expr, EntityScan):
        if ctx.schema is None:
            raise EvaluationError("EntityScan requires a schema")
        # The schema override threads straight through objects_of —
        # no instance.copy() just to rebind the schema.
        return [
            dict(row)
            for row in ctx.instance.objects_of(
                expr.entity, strict=expr.only, schema=ctx.schema
            )
        ]

    if isinstance(expr, Values):
        return [dict(row) for row in expr.rows]

    if isinstance(expr, Select):
        return [row for row in inputs[0] if expr.predicate.eval(row, ctx)]

    if isinstance(expr, Project):
        return [
            {name: scalar.eval(row, ctx) for name, scalar in expr.outputs}
            for row in inputs[0]
        ]

    if isinstance(expr, Extend):
        out = []
        for row in inputs[0]:
            extended = dict(row)
            extended[expr.name] = expr.scalar.eval(row, ctx)
            out.append(extended)
        return out

    if isinstance(expr, Join):
        return _join(expr, inputs[0], inputs[1], ctx)

    if isinstance(expr, UnionAll):
        return _pad_union(inputs[0], inputs[1])

    if isinstance(expr, Difference):
        right = {freeze_row(r) for r in inputs[1]}
        seen: set[frozenset] = set()
        out = []
        for row in inputs[0]:
            frozen = freeze_row(row)
            if frozen not in right and frozen not in seen:
                seen.add(frozen)
                out.append(row)
        return out

    if isinstance(expr, Distinct):
        seen: set[frozenset] = set()
        out = []
        for row in inputs[0]:
            frozen = freeze_row(row)
            if frozen not in seen:
                seen.add(frozen)
                out.append(row)
        return out

    if isinstance(expr, Rename):
        return [
            {expr.mapping.get(k, k): v for k, v in row.items()}
            for row in inputs[0]
        ]

    if isinstance(expr, Aggregate):
        return _aggregate(expr, inputs[0], ctx)

    if isinstance(expr, Sort):
        rows = inputs[0]
        for key in reversed(expr.keys):
            descending = key.startswith("-")
            column = key[1:] if descending else key
            rows.sort(key=lambda r: SortKey(r.get(column)), reverse=descending)
        return rows

    raise EvaluationError(f"unknown expression node {type(expr).__name__}")


def _join(
    expr: Join, left_rows: list[Row], right_rows: list[Row], ctx
) -> list[Row]:
    """Hash the right rows on the predicate's top-level equi-pairs (a
    null key never matches; labeled nulls match by label) and test the
    residual on each candidate.  The residual reads one row holding the
    left row's cells over the right's; the ``$left.``/``$right.``
    copies of both are added only when it reads them."""
    out: list[Row] = []
    right_columns: set[str] = set()
    for row in right_rows:
        right_columns.update(row)

    pairs, residual = split_join_predicate(expr.predicate)
    index: Optional[dict[tuple, list[Row]]] = None
    if pairs:
        index = {}
        for r_row in right_rows:
            key = tuple(join_key_value(r_row.get(rc)) for _, rc in pairs)
            index.setdefault(key, []).append(r_row)
    tagged = residual is not None and _reads_sides(residual)

    for l_row in left_rows:
        if index is not None:
            key = tuple(join_key_value(l_row.get(lc)) for lc, _ in pairs)
            candidates = index.get(key, ()) if None not in key else ()
        else:
            candidates = right_rows
        matched = False
        for r_row in candidates:
            if residual is not None:
                combined = {**r_row, **l_row}
                if tagged:
                    for name, value in l_row.items():
                        combined[f"$left.{name}"] = value
                    for name, value in r_row.items():
                        combined[f"$right.{name}"] = value
                if not residual.eval(combined, ctx):
                    continue
            matched = True
            out.append(_merge(l_row, r_row, expr.right_prefix))
        if not matched and expr.kind == "left":
            padding = {c: None for c in right_columns if c not in l_row}
            if expr.right_prefix:
                padding = {
                    f"{expr.right_prefix}.{c}": None for c in right_columns
                }
            merged = dict(l_row)
            merged.update(padding)
            out.append(merged)
    return out


def _reads_sides(scalar) -> bool:
    """Whether a join residual reads the ``$left.``/``$right.`` copies:
    a column named so, or a ``_JoinEq`` anywhere inside it."""
    if isinstance(scalar, _JoinEq):
        return True
    if isinstance(scalar, Col):
        return scalar.name.startswith(("$left.", "$right."))
    if isinstance(scalar, Scalar):
        return _reads_sides(scalar._key())
    if isinstance(scalar, tuple):
        return any(_reads_sides(part) for part in scalar)
    return False


def _merge(l_row: Row, r_row: Row, right_prefix: Optional[str]) -> Row:
    merged = dict(l_row)
    for key, value in r_row.items():
        if key in merged:
            if right_prefix:
                merged[f"{right_prefix}.{key}"] = value
            # else: left wins, right duplicate dropped
        else:
            merged[key] = value
    return merged


def _pad_union(left: list[Row], right: list[Row]) -> list[Row]:
    # Insertion-ordered dict keeps first-seen column order with O(1)
    # membership (the old list scan was O(rows·cols)).
    columns: dict[str, None] = {}
    for row in left:
        for key in row:
            columns[key] = None
    for row in right:
        for key in row:
            columns[key] = None
    out = []
    for row in left + right:
        out.append({c: row.get(c) for c in columns})
    return out


def _aggregate(expr: Aggregate, rows: list[Row], ctx) -> list[Row]:
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        key = tuple(join_key_value(row.get(c)) for c in expr.group_by)
        groups.setdefault(key, []).append(row)
    if not groups and not expr.group_by:
        groups[()] = []
    out: list[Row] = []
    for members in groups.values():
        result: Row = {}
        for column in expr.group_by:
            # .get: a group-by column may be absent from a row (padded
            # unions); the group key already treats that as None.
            result[column] = members[0].get(column) if members else None
        for name, func, scalar in expr.aggregations:
            if func == "count" and scalar is None:
                result[name] = len(members)
            else:
                result[name] = reduce_aggregate(func, [
                    scalar.eval(row, ctx) if scalar is not None else 1
                    for row in members
                ])
        out.append(result)
    return out
