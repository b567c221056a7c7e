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

Pick the oracle per call with ``evaluate(..., engine="interpreted")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
)
from repro.errors import EvaluationError
from repro.instances.database import Instance, Row, freeze_row
from repro.instances.labeled_null import LabeledNull
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
    engine: str,
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
        engine=engine,
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
        return _eval(expr, instance, ctx)
    import time

    start = time.perf_counter()
    with tracer.span(
        "query.execute", engine="interpreted", **{"plan.size": expr.size()}
    ) as span:
        rows = _eval(expr, instance, ctx)
        if span is not None:
            span.set_attribute("rows", len(rows))
    wall_ms = (time.perf_counter() - start) * 1000.0
    registry.counter("query.execute.count").inc()
    registry.histogram("query.execute.rows").observe(len(rows))
    # No plan cache or per-node plan here, but the event carries the
    # same structural fingerprint the vectorized engine's does.
    _record_query(expr, "interpreted", False, wall_ms, len(rows))
    return rows


def _eval(expr: RelExpr, instance: Instance, ctx: EvalContext) -> list[Row]:
    if isinstance(expr, Scan):
        return [dict(row) for row in instance.rows(expr.relation)]

    if isinstance(expr, EntityScan):
        if ctx.schema is None:
            raise EvaluationError("EntityScan requires a schema")
        # The schema override threads straight through objects_of —
        # no instance.copy() just to rebind the schema.
        return [
            dict(row)
            for row in instance.objects_of(
                expr.entity, strict=expr.only, schema=ctx.schema
            )
        ]

    if isinstance(expr, Values):
        return [dict(row) for row in expr.rows]

    if isinstance(expr, Select):
        rows = _eval(expr.input, instance, ctx)
        return [row for row in rows if expr.predicate.eval(row, ctx)]

    if isinstance(expr, Project):
        rows = _eval(expr.input, instance, ctx)
        return [
            {name: scalar.eval(row, ctx) for name, scalar in expr.outputs}
            for row in rows
        ]

    if isinstance(expr, Extend):
        rows = _eval(expr.input, instance, ctx)
        out = []
        for row in rows:
            extended = dict(row)
            extended[expr.name] = expr.scalar.eval(row, ctx)
            out.append(extended)
        return out

    if isinstance(expr, Join):
        return _eval_join(expr, instance, ctx)

    if isinstance(expr, UnionAll):
        left = _eval(expr.left, instance, ctx)
        right = _eval(expr.right, instance, ctx)
        return _pad_union(left, right)

    if isinstance(expr, Difference):
        left = _eval(expr.left, instance, ctx)
        right = {freeze_row(r) for r in _eval(expr.right, instance, ctx)}
        seen: set[frozenset] = set()
        out = []
        for row in left:
            frozen = freeze_row(row)
            if frozen not in right and frozen not in seen:
                seen.add(frozen)
                out.append(row)
        return out

    if isinstance(expr, Distinct):
        rows = _eval(expr.input, instance, ctx)
        seen: set[frozenset] = set()
        out = []
        for row in rows:
            frozen = freeze_row(row)
            if frozen not in seen:
                seen.add(frozen)
                out.append(row)
        return out

    if isinstance(expr, Rename):
        rows = _eval(expr.input, instance, ctx)
        return [
            {expr.mapping.get(k, k): v for k, v in row.items()} for row in rows
        ]

    if isinstance(expr, Aggregate):
        return _eval_aggregate(expr, instance, ctx)

    if isinstance(expr, Sort):
        rows = _eval(expr.input, instance, ctx)
        for key in reversed(expr.keys):
            descending = key.startswith("-")
            column = key[1:] if descending else key
            rows.sort(key=lambda r: _SortKey(r.get(column)), reverse=descending)
        return rows

    raise EvaluationError(f"unknown expression node {type(expr).__name__}")


def _eval_join(expr: Join, instance: Instance, ctx: EvalContext) -> list[Row]:
    left_rows = _eval(expr.left, instance, ctx)
    right_rows = _eval(expr.right, instance, ctx)
    out: list[Row] = []
    right_columns: set[str] = set()
    for row in right_rows:
        right_columns.update(row)

    # Hash-join fast path for pure equality predicates.
    pairs = _equality_pairs(expr.predicate)
    index: Optional[dict[tuple, list[Row]]] = None
    if pairs is not None and pairs:
        index = {}
        for r_row in right_rows:
            key = tuple(_join_value(r_row.get(rc)) for _, rc in pairs)
            index.setdefault(key, []).append(r_row)

    for l_row in left_rows:
        if index is not None:
            key = tuple(_join_value(l_row.get(lc)) for lc, _ in pairs)
            candidates = index.get(key, []) if None not in key else []
        else:
            candidates = right_rows
        matched = False
        for r_row in candidates:
            if index is None and not _join_predicate_holds(
                expr, l_row, r_row, ctx
            ):
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


def _equality_pairs(predicate) -> Optional[list[tuple[str, str]]]:
    """Extract (left_col, right_col) pairs if the predicate is a pure
    conjunction of ``_JoinEq`` atoms — enables the hash join."""
    from repro.algebra.expressions import _JoinEq
    from repro.algebra.scalars import And, TRUE

    if predicate is TRUE:
        return []
    if isinstance(predicate, _JoinEq):
        return [(predicate.left_col, predicate.right_col)]
    if isinstance(predicate, And):
        pairs: list[tuple[str, str]] = []
        for operand in predicate.operands:
            if not isinstance(operand, _JoinEq):
                return None
            pairs.append((operand.left_col, operand.right_col))
        return pairs
    return None


def _join_value(value):
    """Join keys: None never matches; labeled nulls match by label."""
    if value is None:
        return None
    if isinstance(value, LabeledNull):
        return ("⊥", value.label)
    return value


def _join_predicate_holds(expr: Join, l_row: Row, r_row: Row, ctx) -> bool:
    combined = dict(l_row)
    combined.update(
        {k: v for k, v in r_row.items() if k not in combined}
    )
    for key, value in l_row.items():
        combined[f"$left.{key}"] = value
    for key, value in r_row.items():
        combined[f"$right.{key}"] = value
    return expr.predicate.eval(combined, ctx)


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


def _eval_aggregate(
    expr: Aggregate, instance: Instance, ctx: EvalContext
) -> list[Row]:
    rows = _eval(expr.input, instance, ctx)
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        key = tuple(_join_value(row.get(c)) for c in expr.group_by)
        groups.setdefault(key, []).append(row)
    if not groups and not expr.group_by:
        groups[()] = []
    out: list[Row] = []
    for key, members in groups.items():
        result: Row = {}
        for column, raw in zip(expr.group_by, key):
            # .get: a group-by column may be absent from a row (padded
            # unions); the group key already treats that as None.
            sample = members[0].get(column) if members else None
            result[column] = sample
        for name, func, scalar in expr.aggregations:
            result[name] = _apply_aggregate(func, scalar, members, ctx)
        out.append(result)
    return out


def _apply_aggregate(func: str, scalar, members: list[Row], ctx) -> object:
    if func == "count" and scalar is None:
        return len(members)
    values = []
    for row in members:
        value = scalar.eval(row, ctx) if scalar is not None else 1
        if value is not None and not isinstance(value, LabeledNull):
            values.append(value)
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "avg":
        return sum(values) / len(values)
    raise EvaluationError(f"unknown aggregate {func!r}")


class _SortKey:
    """Total order over heterogeneous values: nulls last, then by type
    name, then by value (string fallback for incomparables)."""

    __slots__ = ("rank", "type_name", "value")

    def __init__(self, value):
        if value is None or isinstance(value, LabeledNull):
            self.rank = 1
            self.type_name = ""
            self.value = repr(value)
        else:
            self.rank = 0
            self.type_name = type(value).__name__
            self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        if self.type_name != other.type_name:
            return self.type_name < other.type_name
        try:
            return self.value < other.value
        except TypeError:
            return str(self.value) < str(other.value)
