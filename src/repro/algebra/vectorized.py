"""Vectorized (columnar) plan executor — the engine behind ``evaluate``.

This module lowers a :class:`~repro.algebra.expressions.RelExpr` once
into a pipeline of stage closures over
:class:`~repro.instances.columnar.ColumnBatch` operands, so a cached
plan runs many times without re-walking the tree or re-dispatching
scalars per row:

* **selection** evaluates vectorizable predicates as boolean masks over
  whole columns and compresses once; ``σ[col = value](Scan R)`` reads
  the relation's postings (:meth:`Instance.index_lookup`) instead when
  the statistics price that below the mask (``vec_probe``);
* **projection** of columns/constants is a column *permutation* —
  O(columns) per stage, sharing the input's (immutable) value lists;
* **hash joins** build and probe over column slices, then gather output
  columns through index lists (one C-level list comprehension per
  column instead of one dict build per row); a cross join is the hash
  join on the empty key;
* **distinct / difference** encode rows as tuples via ``zip(*columns)``
  and dedup through sets, unless a column of the (left) input is
  :meth:`~repro.instances.columnar.Column.unique`: then δ returns its
  input and − only filters;
* **union** aligns layouts once per batch pair and concatenates value
  lists.

Semantics are bit-for-bit those of the reference interpreter in
:mod:`repro.algebra.evaluator` — the differential suite in
``tests/test_query_compiler.py`` holds the two to identical results,
labeled nulls included.  A plan runs on columns end to end or on the
interpreter whole.  Lowering a node outside the columnar dialect (a
predicate no mask expresses, a computed projection, extension or
aggregate, a join with a residual, a left join with a ``right_prefix``)
makes the plan one ``interpreted`` node; a run whose batch a stage
cannot read (a column absent from some row, a colliding rename, an
unhashable δ/− cell) is redone on the interpreter.  Either way the
result is the interpreter's rows over the plan's whole tree, so the
fallback is the oracle's semantics by construction.  Every interpreted
execution is counted (``query.vectorized.interpreted``) and journaled
once per node kind when observability is enabled.

The plan-building blocks — CSE detection, projection-through-union
pushdown, and the :class:`~repro.algebra.compiler._PlanRegistry` node
bookkeeping behind EXPLAIN / EXPLAIN ANALYZE — live in
:mod:`repro.algebra.compiler`.  Batches flowing between stages are
immutable by convention; fresh row dicts are built exactly once, at
the plan boundary (:meth:`VectorizedPlan.execute`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.algebra import compiler as C
from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.optimizer import COST
from repro.algebra.printer import node_label
from repro.algebra.compiler import (
    PlanProfile,
    SortKey,
    _Run,
    join_key_value,
    reduce_aggregate,
    split_join_predicate,
)
from repro.algebra.evaluator import _eval
from repro.errors import EvaluationError
from repro.instances.columnar import Column, ColumnBatch
from repro.instances.database import TYPE_FIELD, Instance, Row
from repro.instances.labeled_null import LabeledNull
from repro.metamodel.schema import Schema
from repro.observability.journal import JOURNAL
from repro.observability.metrics import registry
from repro.observability.state import STATE
from repro.observability.tracing import tracer

#: Sentinel for "this row can never match" join keys (a null key
#: cell).  Never inserted into an index.
_NOMATCH = object()
_EMPTY = ()

VStage = Callable[[_Run], ColumnBatch]


class _Interpret(Exception):
    """``node`` is outside the columnar dialect: raised while lowering a
    node no stage expresses, and while running a stage over a batch it
    cannot read.  :class:`VectorizedPlan` then runs the whole plan on
    the interpreter."""

    def __init__(self, node: E.RelExpr):
        super().__init__(type(node).__name__)
        self.node = node


class _Lower:
    """Per-compilation state: the CSE slot map, the stages already
    built for shared subtrees, and the plan-node registry."""

    __slots__ = ("shared", "compiled", "registry")

    def __init__(self, shared: dict[int, int], registry: C._PlanRegistry):
        self.shared = shared
        self.compiled: dict[int, VStage] = {}
        self.registry = registry


# ----------------------------------------------------------------------
# column access helpers
# ----------------------------------------------------------------------
def _plain_values(batch: ColumnBatch, name: str) -> Optional[list]:
    """The column's values with absent cells surfaced as ``None`` (the
    ``row.get(name)`` view); ``None`` when the column does not exist at
    all (callers substitute an all-``None`` column)."""
    col = batch.cols.get(name)
    if col is None:
        return None
    if col.present is None:
        return col.values
    return [v if p else None for v, p in zip(col.values, col.present)]


def _full_values(batch: ColumnBatch, name: str) -> Optional[list]:
    """The column's values when every row carries the column, else
    ``None`` (the caller leaves the run to the interpreter, which may
    raise per row)."""
    col = batch.cols.get(name)
    if col is None or col.present is not None:
        return None
    return col.values


def _tuple_keys(batch: ColumnBatch, order: tuple[str, ...]) -> list[tuple]:
    """Tuple encoding of fully-present rows in ``order`` — dict
    equality ⇔ tuple equality when both sides share one column set."""
    if not order:
        return [()] * batch.nrows
    return list(zip(*(batch.cols[c].values for c in order)))


# ----------------------------------------------------------------------
# vectorized scalar predicates
# ----------------------------------------------------------------------
#: (mask_fn(batch, ctx) -> list[bool], names that must be fully present)
_VecPred = tuple[Callable[[ColumnBatch, object], list], frozenset]


def _pair_fn(op: str):
    """Per-cell comparison with the engines' SQL null semantics."""
    if op == "=":

        def pair_eq(lhs, rhs):
            if isinstance(lhs, LabeledNull) or isinstance(rhs, LabeledNull):
                return lhs == rhs
            if lhs is None or rhs is None:
                return False
            return bool(lhs == rhs)

        return pair_eq
    if op == "!=":

        def pair_ne(lhs, rhs):
            if isinstance(lhs, LabeledNull) or isinstance(rhs, LabeledNull):
                return lhs != rhs
            if lhs is None or rhs is None:
                return False
            return bool(lhs != rhs)

        return pair_ne
    op_fn = S.Comparison._OPS[op]

    def pair_ordered(lhs, rhs):
        if isinstance(lhs, LabeledNull) or isinstance(rhs, LabeledNull):
            return False
        if lhs is None or rhs is None:
            return False
        try:
            return bool(op_fn(lhs, rhs))
        except TypeError:
            return False  # cross-type comparison is unknown

    return pair_ordered


def _lit_mask_fn(op: str, name: str, lit, flipped: bool):
    """A mask evaluator for ``col <op> lit`` that runs the comparison
    as one plain comprehension — no per-cell closure call — whenever
    that is provably equivalent to the engines' null semantics, else
    falls back to the per-cell pairing at runtime.  Returns ``None``
    when no fast lane exists for this op/literal."""
    if lit is None or isinstance(lit, LabeledNull):
        return None  # null literals need the pairing rules everywhere
    pair = _pair_fn(op)

    if op == "!=":
        # Diverges only on SQL NULL cells (pair says False, != says
        # True), so it is licensed per batch by the cached null mask.
        def run_mask_ne(b, ctx):
            col = b.cols[name]
            values = col.values
            if not any(col.null_mask()):
                return [v != lit for v in values]
            if flipped:
                return [pair(lit, v) for v in values]
            return [pair(v, lit) for v in values]

        return run_mask_ne

    op_fn = S.Comparison._OPS[op]

    def run_mask_ordered(b, ctx):
        col = b.cols[name]
        values = col.values
        if col.clean():
            try:
                if flipped:
                    return [op_fn(lit, v) for v in values]
                return [op_fn(v, lit) for v in values]
            except TypeError:
                pass  # cross-type cell → per-cell unknown-as-False
        if flipped:
            return [pair(lit, v) for v in values]
        return [pair(v, lit) for v in values]

    return run_mask_ordered


def _vector_predicate(scalar) -> Optional[_VecPred]:
    """A columnar mask evaluator for ``scalar``, or ``None`` when the
    scalar is outside the vectorizer's dialect.  Only licensed when
    every referenced column is fully present (``needs``) — that rules
    out both missing-column raises and short-circuit visibility
    differences in ``And``/``Or``."""
    if isinstance(scalar, S._Bool):
        value = bool(scalar.value)
        return (lambda b, ctx: [value] * b.nrows), frozenset()

    if isinstance(scalar, S.Comparison):
        left, right = scalar.left, scalar.right
        pair = _pair_fn(scalar.op)
        test = C.eq_test(scalar)
        if test is not None:
            name, value_of = test[0], _value_of(test[1])

            def run_mask_eq(b, ctx):
                lit = value_of(ctx)
                values = b.cols[name].values
                if lit is None or isinstance(lit, LabeledNull):
                    return [pair(v, lit) for v in values]
                # `v == lit` matches pair_eq for every v: None == lit is
                # False, LabeledNull.__eq__(concrete) is False.
                return [v == lit for v in values]

            return run_mask_eq, frozenset((name,))
        if isinstance(left, S.Col) and isinstance(right, S.Lit):
            name, lit = left.name, right.value
            fast = _lit_mask_fn(scalar.op, name, lit, flipped=False)
            if fast is not None:
                return fast, frozenset((name,))
            return (
                lambda b, ctx: [pair(v, lit) for v in b.cols[name].values]
            ), frozenset((name,))
        if isinstance(left, S.Lit) and isinstance(right, S.Col):
            lit, name = left.value, right.name
            fast = _lit_mask_fn(scalar.op, name, lit, flipped=True)
            if fast is not None:
                return fast, frozenset((name,))
            return (
                lambda b, ctx: [pair(lit, v) for v in b.cols[name].values]
            ), frozenset((name,))
        if isinstance(left, S.Col) and isinstance(right, S.Col):
            ln, rn = left.name, right.name
            return (
                lambda b, ctx: [
                    pair(lv, rv)
                    for lv, rv in zip(b.cols[ln].values, b.cols[rn].values)
                ]
            ), frozenset((ln, rn))
        if isinstance(left, S.Lit) and isinstance(right, S.Lit):
            value = pair(left.value, right.value)
            return (lambda b, ctx: [value] * b.nrows), frozenset()
        return None

    if isinstance(scalar, (S.And, S.Or)):
        parts = [_vector_predicate(p) for p in scalar.operands]
        if any(p is None for p in parts):
            return None
        fns = tuple(fn for fn, _ in parts)
        needs = frozenset().union(*(n for _, n in parts))
        if isinstance(scalar, S.And):

            def run_and(b, ctx):
                mask = fns[0](b, ctx)
                for fn in fns[1:]:
                    other = fn(b, ctx)
                    mask = [x and y for x, y in zip(mask, other)]
                return mask

            return run_and, needs

        def run_or(b, ctx):
            mask = fns[0](b, ctx)
            for fn in fns[1:]:
                other = fn(b, ctx)
                mask = [x or y for x, y in zip(mask, other)]
            return mask

        return run_or, needs

    if isinstance(scalar, S.Not):
        part = _vector_predicate(scalar.operand)
        if part is None:
            return None
        fn, needs = part
        return (lambda b, ctx: [not x for x in fn(b, ctx)]), needs

    if isinstance(scalar, S.IsNull) and isinstance(scalar.operand, S.Col):
        name = scalar.operand.name
        if scalar.negated:
            return (
                lambda b, ctx: [
                    not (v is None or isinstance(v, LabeledNull))
                    for v in b.cols[name].values
                ]
            ), frozenset((name,))
        return (
            lambda b, ctx: [
                v is None or isinstance(v, LabeledNull)
                for v in b.cols[name].values
            ]
        ), frozenset((name,))

    if isinstance(scalar, S.In) and isinstance(scalar.operand, S.Col):
        name = scalar.operand.name
        values = scalar.values
        return (
            lambda b, ctx: [
                False if v is None else v in values
                for v in b.cols[name].values
            ]
        ), frozenset((name,))

    if isinstance(scalar, S.IsOf):
        cell = scalar.eval  # consults only row.get(TYPE_FIELD)

        def run_is_of_mask(b, ctx):
            vals = _plain_values(b, TYPE_FIELD)
            if vals is None:
                return [cell({}, ctx)] * b.nrows
            return [cell({TYPE_FIELD: v}, ctx) for v in vals]

        return run_is_of_mask, frozenset()

    return None


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def _lower(expr: E.RelExpr, st: _Lower) -> VStage:
    """Lower ``expr``, sharing CSE subtrees through the per-execution
    memo and registering plan-node metadata; every stage is wrapped in
    the registry's per-node profiling hook (outside the memo, so a
    shared node's ``calls`` counts every reference)."""
    reg = st.registry
    reg.enter()
    slot = st.shared.get(id(expr))
    if slot is None:
        run = _lower_node(expr, st)
        node_id = reg.exit_register(expr, run.__name__, False)
        return reg.wrap_stage(run, node_id)
    cached = st.compiled.get(id(expr))
    if cached is not None:
        reg.exit_reference(expr)
        return cached
    run = _lower_node(expr, st)
    node_id = reg.exit_register(expr, run.__name__, True)

    def run_shared(ctx, _run=run, _slot=slot):
        memo = ctx.memo
        batch = memo.get(_slot)
        if batch is None:
            batch = memo[_slot] = _run(ctx)
        return batch

    cached = st.compiled[id(expr)] = reg.wrap_stage(run_shared, node_id)
    return cached


def _lower_node(expr: E.RelExpr, st: _Lower) -> VStage:
    if isinstance(expr, E.Scan):
        relation = expr.relation

        def run_vec_scan(ctx):
            return ctx.instance.column_batch(relation)

        return run_vec_scan

    if isinstance(expr, E.EntityScan):
        return _lower_entity_scan(expr)

    if isinstance(expr, E.Values):
        batch = ColumnBatch.from_rows([dict(r) for r in expr.rows])

        def run_vec_values(ctx):
            return batch

        return run_vec_values

    if isinstance(expr, E.Select):
        return _lower_select(expr, st)

    if isinstance(expr, E.Project):
        return _lower_project(expr, st)

    if isinstance(expr, E.Extend):
        return _lower_extend(expr, st)

    if isinstance(expr, E.Rename):
        inner = _lower(expr.input, st)
        mapping = expr.mapping

        def run_vec_rename(ctx):
            batch = inner(ctx)
            new_names = tuple(mapping.get(c, c) for c in batch.names)
            if len(set(new_names)) != len(new_names):
                # Colliding rename: the later key wins per row.
                raise _Interpret(expr)
            cols = {
                new: batch.cols[old]
                for new, old in zip(new_names, batch.names)
            }
            return ColumnBatch(new_names, cols, batch.nrows)

        return run_vec_rename

    if isinstance(expr, E.Join):
        return _lower_join(expr, st)

    if isinstance(expr, E.UnionAll):
        return _lower_union(expr, st)

    if isinstance(expr, E.Difference):
        return _lower_difference(expr, st)

    if isinstance(expr, E.Distinct):
        inner = _lower(expr.input, st)

        def run_vec_distinct(ctx):
            batch = inner(ctx)
            if not batch.full:
                raise _Interpret(expr)
            cols = batch.cols.values()
            # A unique column makes every row distinct.  The interpreter
            # raises TypeError on an unhashable cell; so must δ.
            if any(c.unique() for c in cols) and all(
                c.hashable() for c in cols
            ):
                return batch
            names = batch.names
            n = batch.nrows
            try:
                if len(names) == 1:
                    # Single column: row equality is value equality
                    # (labeled nulls hash/eq by label either way), and
                    # dict.fromkeys keeps first occurrences in
                    # first-seen order — the output column itself.
                    name = names[0]
                    ordered = list(dict.fromkeys(batch.cols[name].values))
                    return ColumnBatch(
                        names, {name: Column(ordered)}, len(ordered)
                    )
                # Reversed insertion: the surviving position per key is
                # its first occurrence (last assignment wins).
                keys = _tuple_keys(batch, names)
                first = {
                    key: i
                    for i, key in zip(range(n - 1, -1, -1), reversed(keys))
                }
            except TypeError:
                raise _Interpret(expr) from None  # an unhashable cell
            if len(first) == n:
                return batch
            return batch.take(sorted(first.values()))

        return run_vec_distinct

    if isinstance(expr, E.Aggregate):
        return _lower_aggregate(expr, st)

    if isinstance(expr, E.Sort):
        inner = _lower(expr.input, st)
        keys = expr.keys

        def run_vec_sort(ctx):
            batch = inner(ctx)
            indices = list(range(batch.nrows))
            for key in reversed(keys):
                descending = key.startswith("-")
                column = key[1:] if descending else key
                vals = _plain_values(batch, column)
                if vals is None:
                    continue  # all keys equal → stable sort is identity
                indices.sort(
                    key=lambda i: SortKey(vals[i]), reverse=descending
                )
            return batch.take(indices)

        return run_vec_sort

    raise EvaluationError(f"unknown expression node {type(expr).__name__}")


def _lower_entity_scan(expr: E.EntityScan) -> VStage:
    entity_name = expr.entity
    only = expr.only

    def run_vec_entity_scan(ctx):
        schema = ctx.schema
        if schema is None:
            raise EvaluationError("EntityScan requires a schema")
        entity = schema.entity(entity_name)
        root = entity.root().name
        batch = ctx.instance.column_batch(root)
        values = _plain_values(batch, TYPE_FIELD)
        col = batch.cols.get(TYPE_FIELD)
        absent = None if col is None or col.present is None else col.present
        if only:
            if values is None:
                mask = [False] * batch.nrows
            else:
                mask = [v == entity_name for v in values]
        else:
            members = {entity.name} | {d.name for d in entity.descendants()}
            if values is None:
                mask = [root in members] * batch.nrows
            elif absent is None:
                mask = [v in members for v in values]
            else:
                # An absent $type defaults to the root entity; a
                # present None does not (row.get(k, default) parity).
                mask = [
                    (v if p else root) in members
                    for v, p in zip(values, absent)
                ]
        return batch.compress(mask)

    return run_vec_entity_scan


def _lower_select(expr: E.Select, st: _Lower) -> VStage:
    vec = _vector_predicate(expr.predicate)
    if vec is None:
        raise _Interpret(expr)
    inner = _lower(expr.input, st)
    mask_fn, needs = vec

    def select(batch, ctx):
        if not batch.nrows:
            return batch
        cols = batch.cols
        for name in needs:
            col = cols.get(name)
            if col is None or col.present is not None:
                # A referenced column is missing from some row: only
                # the interpreter raises or short-circuits per row.
                raise _Interpret(expr)
        return batch.compress(mask_fn(batch, ctx))

    test = C.eq_test(expr.predicate)
    if not isinstance(expr.input, E.Scan) or test is None:

        def run_vec_select(ctx):
            return select(inner(ctx), ctx)

        return run_vec_select

    relation = expr.input.relation
    name, value_of = test[0], _value_of(test[1])

    def run_vec_probe(ctx):
        batch = inner(ctx)
        value = value_of(ctx)
        if (
            batch.nrows
            and isinstance(value, (int, str))
            and name in batch.cols
            and batch.full
            and _probe_pays(ctx.instance, relation, name, value, batch.nrows)
        ):
            # Postings hold stored rows in stored order, and a full batch
            # has exactly ``names`` in every row.
            rows = ctx.instance.index_lookup(relation, name, value)
            return ColumnBatch.from_homogeneous_rows(rows, batch.names)
        return select(batch, ctx)

    return run_vec_probe


def _value_of(operand):
    """``ctx -> value`` of a literal or a parameter slot."""
    if isinstance(operand, S.Param):
        index = operand.index
        return lambda ctx: ctx.params[index]
    value = operand.value
    return lambda ctx: value


def _probe_pays(
    instance: Instance, relation: str, name: str, value, nrows: int
) -> bool:
    """Whether reading ``relation``'s postings for ``name = value``
    costs less than masking its ``nrows``-row batch, under the
    optimizer's ``CostConfig`` weights.  The expected match count is
    the larger of the value's own frequency and the column's average
    per distinct value, so a low-cardinality column never gets a
    postings index, even for a rare value."""
    stats = instance.relation_stats(relation).columns.get(name)
    if stats is None or not stats.distinct:
        return False
    matched = max(stats.frequency(value) or 0, stats.non_null / stats.distinct)
    return (
        matched * (COST.probe_weight + COST.output_weight)
        < nrows * COST.scan_weight
    )


def _lower_project(expr: E.Project, st: _Lower) -> VStage:
    outputs = expr.outputs
    if not all(isinstance(s, (S.Col, S.Lit)) for _, s in outputs):
        raise _Interpret(expr)
    pushed = C._push_project_through_union(expr)
    if pushed is not None:
        return _lower(pushed, st)

    inner = _lower(expr.input, st)
    out_names = expr.output_names
    col_pairs = tuple(
        (name, s.name) for name, s in outputs if isinstance(s, S.Col)
    )
    const_items = tuple(
        (name, s.value) for name, s in outputs if isinstance(s, S.Lit)
    )

    def run_vec_project(ctx):
        batch = inner(ctx)
        cols = batch.cols
        nrows = batch.nrows
        out_cols = {}
        for name, src in col_pairs:
            col = cols.get(src)
            if col is None or col.present is not None:
                if not nrows:
                    return ColumnBatch.empty(out_names)
                raise _Interpret(expr)  # the interpreter names the row
            out_cols[name] = col
        for name, value in const_items:
            out_cols[name] = Column([value] * nrows)
        return ColumnBatch(out_names, out_cols, nrows)

    return run_vec_project


def _lower_extend(expr: E.Extend, st: _Lower) -> VStage:
    name = expr.name
    scalar = expr.scalar
    if not isinstance(scalar, (S.Lit, S.Col)):
        raise _Interpret(expr)
    inner = _lower(expr.input, st)

    if isinstance(scalar, S.Lit):
        value = scalar.value

        def run_vec_extend_const(ctx):
            batch = inner(ctx)
            col = batch.cols.get(name)
            if col is not None and col.present is not None:
                # Partially present target: per-row key order differs
                # between rows.
                raise _Interpret(expr)
            return _with_column(batch, name, Column([value] * batch.nrows))

        return run_vec_extend_const

    src = scalar.name

    def run_vec_extend_col(ctx):
        batch = inner(ctx)
        col = batch.cols.get(name)
        values = _full_values(batch, src)
        if values is None or col is not None and col.present is not None:
            raise _Interpret(expr)
        return _with_column(batch, name, Column(values))

    return run_vec_extend_col


def _with_column(batch: ColumnBatch, name: str, col: Column) -> ColumnBatch:
    cols = dict(batch.cols)
    names = batch.names if name in cols else batch.names + (name,)
    cols[name] = col
    return ColumnBatch(names, cols, batch.nrows)


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def _batch_keys(batch: ColumnBatch, columns: tuple[str, ...]) -> list:
    """Per-row join keys over column slices (``_NOMATCH`` marks a row
    with a null key cell; the empty key is ``()`` for every row)."""
    n = batch.nrows
    if not columns:
        return [()] * n
    if len(columns) == 1:
        col = batch.cols.get(columns[0])
        if col is None:
            return [_NOMATCH] * n
        if col.present is None and col.clean():
            # No nulls, no labeled nulls: the values ARE the keys.  The
            # fact is cached on the Column and carried to the columns
            # a take, compress or gather draws from it, so keying a
            # scanned column or one filtered from it is free from the
            # second query on.
            return col.values
        values = _plain_values(batch, columns[0])
        out = []
        append = out.append
        for v in values:
            if v is None:
                append(_NOMATCH)
            elif isinstance(v, LabeledNull):
                append(("⊥", v.label))
            else:
                append(v)
        return out
    per_col = []
    for c in columns:
        values = _plain_values(batch, c)
        per_col.append(values if values is not None else [None] * n)
    out = []
    append = out.append
    for cells in zip(*per_col):
        key = tuple(join_key_value(v) for v in cells)
        append(_NOMATCH if None in key else key)
    return out


def _lower_join(expr: E.Join, st: _Lower) -> VStage:
    """An equi-join, or a cross join on the empty key, as a hash join.
    A residual predicate, or a left join's ``right_prefix`` (its padding
    prefixes *all* right columns while matches keep non-colliding ones
    unprefixed), is the interpreter's."""
    kind = expr.kind
    right_prefix = expr.right_prefix
    pairs, residual = split_join_predicate(expr.predicate)
    is_left = kind == "left"
    if residual is not None or is_left and right_prefix:
        raise _Interpret(expr)
    left = _lower(expr.left, st)
    right = _lower(expr.right, st)
    l_cols = tuple(lc for lc, _ in pairs)
    r_cols = tuple(rc for _, rc in pairs)
    join_right_cols = set(r_cols)
    semi_licensed = (
        kind == "inner"
        and right_prefix is None
        and isinstance(expr.right, (E.Distinct, E.Difference))
    )

    def run_vec_hash_join(ctx):
        lb = left(ctx)
        rb = right(ctx)
        if not (lb.full and rb.full):
            raise _Interpret(expr)
        if (
            semi_licensed
            and set(rb.names) == join_right_cols
            and join_right_cols <= set(lb.names)
        ):
            # Right side contributes no columns and holds at most
            # one row per key: the join is a pure filter.
            rkeys = _batch_keys(rb, r_cols)
            keys = {k for k in rkeys if k is not _NOMATCH}
            lkeys = _batch_keys(lb, l_cols)
            return lb.compress([k in keys for k in lkeys])
        rkeys = _batch_keys(rb, r_cols)
        lkeys = _batch_keys(lb, l_cols)
        padded = False
        li: Optional[list] = None  # None ⇒ identity gather
        distinct_li = False  # li holds each left position at most once
        pos = {
            key: j
            for j, key in enumerate(rkeys)
            if key is not _NOMATCH
        }
        if len(pos) == len(rkeys):
            # Unique build keys, no null-rejected rows (the common
            # FK→PK shape): each left row resolves to at most one
            # gather position — no candidate lists.
            get1 = pos.get
            ji = [get1(key, -1) for key in lkeys]
            if is_left:
                ri = ji  # every left row survives, in order
                padded = -1 in ji
            elif -1 in ji:
                li = [i for i, j in enumerate(ji) if j >= 0]
                ri = [ji[i] for i in li]
                distinct_li = True
            else:
                ri = ji  # every left row matched exactly once
        else:
            index: dict = {}
            setdefault = index.setdefault
            for j, key in enumerate(rkeys):
                if key is not _NOMATCH:
                    setdefault(key, []).append(j)
            get = index.get
            if not is_left:
                # Two comprehension passes beat one interpreted loop.
                li = [
                    i
                    for i, key in enumerate(lkeys)
                    for _ in get(key, _EMPTY)
                ]
                ri = [j for key in lkeys for j in get(key, _EMPTY)]
            else:
                li = []
                ri = []
                li_append = li.append
                ri_append = ri.append
                for i, key in enumerate(lkeys):
                    candidates = get(key)
                    if candidates:
                        li.extend([i] * len(candidates))
                        ri.extend(candidates)
                    else:
                        li_append(i)
                        ri_append(-1)
                        padded = True
        l_names = lb.names
        l_set = set(l_names)
        actions = []
        if rb.nrows:
            for c in rb.names:
                if c in l_set:
                    if right_prefix:
                        actions.append((f"{right_prefix}.{c}", c))
                else:
                    actions.append((c, c))
        out_cols = {}
        if li is None:
            # Identity gather: share the left columns unchanged
            # (batches are immutable by convention).
            for name in l_names:
                out_cols[name] = lb.cols[name]
            nout = lb.nrows
        else:
            # take keeps a left column's unique() fact; gather, for
            # positions that may repeat, keeps none.
            for name in l_names:
                col = lb.cols[name]
                out_cols[name] = col.take(li) if distinct_li else col.gather(li)
            nout = len(li)
        for name, src in actions:
            if padded:
                values = rb.cols[src].values
                out_cols[name] = Column(
                    [values[j] if j >= 0 else None for j in ri]
                )
            else:
                out_cols[name] = rb.cols[src].gather(ri)
        names = l_names + tuple(name for name, _ in actions)
        return ColumnBatch(names, out_cols, nout)

    if not pairs:
        # EXPLAIN names the stage after the join it runs.
        run_vec_hash_join.__name__ = "run_vec_cross_join"
    return run_vec_hash_join


# ----------------------------------------------------------------------
# union / difference
# ----------------------------------------------------------------------
def _lower_union(expr: E.UnionAll, st: _Lower) -> VStage:
    left = _lower(expr.left, st)
    right = _lower(expr.right, st)

    def run_vec_union(ctx):
        lb = left(ctx)
        rb = right(ctx)
        # Column discovery over actual data (interpreter parity): an
        # empty side contributes no columns, so the other side passes
        # through with only its own padding.
        if not rb.nrows:
            if lb.full:
                return lb
            sides = [lb]
        elif not lb.nrows:
            if rb.full:
                return rb
            sides = [rb]
        else:
            sides = [lb, rb]
        observed: dict[str, None] = {}
        for side in sides:
            for name in side.names:
                if name not in observed:
                    col = side.cols[name]
                    if col.present is None or any(col.present):
                        observed[name] = None
        nrows = sum(side.nrows for side in sides)
        out_cols = {}
        for name in observed:
            parts = [
                part
                if (part := _plain_values(side, name)) is not None
                else [None] * side.nrows
                for side in sides
            ]
            if len(parts) == 1:
                out_cols[name] = Column(parts[0])
            else:
                out_cols[name] = Column(parts[0] + parts[1])
        return ColumnBatch(tuple(observed), out_cols, nrows)

    return run_vec_union


def _lower_difference(expr: E.Difference, st: _Lower) -> VStage:
    left = _lower(expr.left, st)
    right = _lower(expr.right, st)

    def run_vec_difference(ctx):
        lb = left(ctx)
        rb = right(ctx)
        if not (lb.full and rb.full and set(lb.names) == set(rb.names)):
            raise _Interpret(expr)
        order = lb.names
        n = lb.nrows
        try:
            if len(order) == 1:
                excluded = set(rb.cols[order[0]].values)
                keys = lb.cols[order[0]].values
            else:
                excluded = set(_tuple_keys(rb, order))
                keys = _tuple_keys(lb, order)
            if any(col.unique() for col in lb.cols.values()):
                # Left rows are pairwise distinct: nothing to dedup.
                # The membership test still hashes every left key, so
                # an unhashable cell still leaves the run.
                indices = [
                    i for i, key in enumerate(keys) if key not in excluded
                ]
            else:
                # First-occurrence position per key (reversed insertion,
                # last assignment wins), minus the excluded keys —
                # difference dedups its left side like the interpreter.
                first = {
                    key: i
                    for i, key in zip(range(n - 1, -1, -1), reversed(keys))
                }
                indices = sorted(
                    i for key, i in first.items() if key not in excluded
                )
        except TypeError:
            raise _Interpret(expr) from None  # an unhashable cell
        if len(indices) == n:
            return lb
        return lb.take(indices)

    return run_vec_difference


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _lower_aggregate(expr: E.Aggregate, st: _Lower) -> VStage:
    aggregations = expr.aggregations
    if not all(
        scalar is None or isinstance(scalar, S.Col)
        for _, _, scalar in aggregations
    ):
        raise _Interpret(expr)
    inner = _lower(expr.input, st)
    group_by = tuple(expr.group_by)
    out_names = group_by + tuple(name for name, _, _ in aggregations)
    agg_srcs = tuple(
        (name, func, scalar.name if scalar is not None else None)
        for name, func, scalar in aggregations
    )

    def run_vec_aggregate(ctx):
        batch = inner(ctx)
        agg_values = {}
        for _, _, src in agg_srcs:
            if src is None or src in agg_values:
                continue
            values = _full_values(batch, src)
            if values is None:
                # Col over a missing or partial column raises per row.
                raise _Interpret(expr)
            agg_values[src] = values
        n = batch.nrows
        group_values = [
            part if (part := _plain_values(batch, c)) is not None
            else [None] * n
            for c in group_by
        ]
        groups: dict[tuple, list[int]] = {}
        setdefault = groups.setdefault
        if group_by:
            mapped = [
                [join_key_value(v) for v in values]
                for values in group_values
            ]
            for i, key in enumerate(zip(*mapped)):
                setdefault(key, []).append(i)
        else:
            groups[()] = list(range(n))
        if not groups and not group_by:
            groups[()] = []
        out_cols: dict[str, list] = {name: [] for name in out_names}
        for idxs in groups.values():
            for c, values in zip(group_by, group_values):
                out_cols[c].append(values[idxs[0]] if idxs else None)
            for name, func, src in agg_srcs:
                if src is None:
                    if func == "count":
                        out_cols[name].append(len(idxs))
                    else:
                        out_cols[name].append(
                            reduce_aggregate(func, [1] * len(idxs))
                        )
                else:
                    values = agg_values[src]
                    out_cols[name].append(
                        reduce_aggregate(func, [values[i] for i in idxs])
                    )
        return ColumnBatch(
            out_names,
            {name: Column(values) for name, values in out_cols.items()},
            len(groups),
        )

    return run_vec_aggregate


# ----------------------------------------------------------------------
# vectorized plans
# ----------------------------------------------------------------------
class VectorizedPlan:
    """An executable columnar pipeline compiled from one
    :class:`RelExpr`, or — when a node is outside the columnar dialect —
    the interpreter over the whole tree, shown as one ``interpreted``
    node.

    Immutable and reentrant: every run's state lives in its own
    :class:`_Run`, so one cached plan serves concurrent executions over
    different instances.  One pipeline serves plain execution and
    EXPLAIN ANALYZE: each stage's profiling hook records only when the
    run carries a profile.  A run the pipeline cannot finish is redone
    on the interpreter, and its profile holds the root's actuals only.
    The only mutable slots are ``optimized_from`` (an EXPLAIN label)
    and ``_annotate_memo`` (the estimator's per-instance cache, whose
    racing writers store equivalent values)."""

    __slots__ = (
        "expr", "fingerprint", "size", "_run", "nodes", "root_id",
        "optimized_from", "_annotate_memo",
    )

    def __init__(self, expr: E.RelExpr, fingerprint: Optional[str] = None):
        self.expr = expr
        self.fingerprint = fingerprint or expr.fingerprint()
        self.size = expr.size()
        self._annotate_memo = None     # annotate_plan's per-instance memo
        # Source fingerprint when the adaptive cache compiled this plan
        # from a cost-based rewrite of a different tree (EXPLAIN shows
        # it); informational only.
        self.optimized_from: Optional[str] = None
        st = _Lower(C._shared_subtrees(expr), C._PlanRegistry())
        try:
            run = _lower(expr, st)
        except _Interpret as exc:
            node = exc.node

            def run_interpreted(ctx):
                raise _Interpret(node)

            self._run = run_interpreted
            self.nodes = [C.PlanNode(
                0, node_label(expr), "interpreted", [], False, expr=expr
            )]
            self.root_id = 0
        else:
            self._run = run
            self.nodes = st.registry.nodes
            self.root_id = st.registry.root_id()

    def _interpret(self, ctx: _Run, exc: _Interpret) -> list[Row]:
        """The interpreter's rows for the whole plan, counted and
        journaled (once per node kind) when observability is on."""
        if STATE.enabled:
            kind = type(exc.node).__name__.lower()
            registry.counter("query.vectorized.interpreted").inc()
            JOURNAL.record_once(
                f"vectorized.interpreted.{kind}",
                "vectorized.interpreted",
                node=kind,
            )
        return _eval(self.expr, ctx)

    def _rows(self, ctx: _Run) -> list[Row]:
        """The run's fresh result rows, from the pipeline or, when it
        leaves the columnar dialect, from the interpreter."""
        try:
            return self._run(ctx).to_rows()
        except _Interpret as exc:
            start = perf_counter()
            rows = self._interpret(ctx, exc)
            seconds = perf_counter() - start
        if ctx.profile is not None:
            # No stage's rows are known: report the root's alone.
            for record in ctx.profile:
                record[:] = (0, 0, 0.0)
            ctx.profile[self.root_id][:] = (1, len(rows), seconds)
        return rows

    def batch(
        self, instance: Instance, schema: Optional[Schema] = None,
        params: tuple = (),
    ) -> ColumnBatch:
        """The plan's output batch (shared storage — treat as
        immutable; :meth:`execute` is the row-materializing API).
        ``params`` bind the plan's ``Param`` slots."""
        schema = schema if schema is not None else instance.schema
        ctx = _Run(instance, schema, params=params)
        try:
            return self._run(ctx)
        except _Interpret as exc:
            return ColumnBatch.from_rows(self._interpret(ctx, exc))

    def execute(
        self, instance: Instance, schema: Optional[Schema] = None,
        params: tuple = (),
    ) -> list[Row]:
        """Run against ``instance`` and return fresh result rows."""
        if STATE.enabled:
            return self.execute_profiled(instance, schema, params)[0]
        schema = schema if schema is not None else instance.schema
        return self._rows(_Run(instance, schema, params=params))

    def execute_profiled(
        self, instance: Instance, schema: Optional[Schema] = None,
        params: tuple = (),
    ) -> tuple[list[Row], PlanProfile]:
        """EXPLAIN ANALYZE: run the pipeline with a profile attached and
        return ``(rows, profile)`` — per-node calls/rows/seconds of
        this run only.

        Works regardless of ``STATE.enabled``; when enabled it also
        emits the ``query.execute`` span and metrics, so the profile's
        root time nests inside the measured span."""
        counters = [[0, 0, 0.0] for _ in self.nodes]
        ctx = _Run(
            instance,
            schema if schema is not None else instance.schema,
            counters,
            params,
        )
        if not STATE.enabled:
            rows = self._rows(ctx)
        else:
            with tracer.span(
                "query.execute",
                engine="vectorized",
                plan=self.fingerprint[:12],
                **{"plan.size": self.size},
            ) as span:
                rows = self._rows(ctx)
                if span is not None:
                    span.set_attribute("rows", len(rows))
            registry.counter("query.execute.count").inc()
            registry.histogram("query.execute.rows").observe(len(rows))
        profile = PlanProfile(
            self.nodes, self.root_id, counters, self.fingerprint, len(rows)
        )
        return rows, profile

    def __repr__(self) -> str:
        return (
            f"<VectorizedPlan {self.fingerprint[:12]} "
            f"size={self.size}>"
        )


def compile_vector_plan(
    expr: E.RelExpr, fingerprint: Optional[str] = None
) -> VectorizedPlan:
    """Compile ``expr`` into a :class:`VectorizedPlan` (uncached — go
    through :mod:`repro.algebra.plan_cache` for the memoized path)."""
    if not STATE.enabled:
        return VectorizedPlan(expr, fingerprint)
    with tracer.span(
        "query.compile", engine="vectorized", **{"plan.size": expr.size()}
    ) as span:
        plan = VectorizedPlan(expr, fingerprint)
        if span is not None:
            span.set_attribute("plan", plan.fingerprint[:12])
    return plan
