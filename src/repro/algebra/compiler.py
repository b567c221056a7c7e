"""Plan-building blocks shared by the query executor.

The executor is :mod:`repro.algebra.vectorized` (the columnar plan
pipeline behind ``evaluate``); the reference interpreter in
:mod:`repro.algebra.evaluator` is its differential oracle.  This module
keeps only what those modules, the optimizer and the estimator import:

* scalar lowering (:func:`compile_scalar`): a scalar AST becomes one
  closure ``f(row, ctx)`` built once per plan — no per-row
  ``isinstance``/``_OPS`` dispatch — memoized per scalar identity
  during a lowering pass;
* static column inference (:func:`_static_cols`), the license for
  projection pushdown through unions
  (:func:`_push_project_through_union`) and the optimizer's join
  analysis;
* CSE detection (:func:`_shared_subtrees`): view unfolding splices the
  same definition object in at every scan site, and each shared
  subtree lowers to one stage memoized per execution;
* plan nodes (:class:`PlanNode`), the per-lowering registry that
  records them and wraps every stage in the per-node profiling hook
  (:class:`_PlanRegistry`), and one execution's per-node statistics
  (:class:`PlanProfile`) — the units of EXPLAIN / EXPLAIN ANALYZE;
* join-predicate analysis (:func:`equality_pairs`) and the row helpers
  the vectorized engine's row fallbacks call: join keyers, merge and
  left-join padding, frozen-row distinct/difference, aggregate
  reduction, and the heterogeneous sort key.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Optional

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.errors import EvaluationError
from repro.instances.database import Instance, Row, freeze_row, hashable_key
from repro.instances.labeled_null import LabeledNull
from repro.metamodel.schema import Schema


# ----------------------------------------------------------------------
# row helpers
# ----------------------------------------------------------------------
def join_key_value(value):
    """Join keys for null-*rejecting* equality (``_JoinEq``): ``None``
    never matches; labeled nulls match by label."""
    if value is None:
        return None
    if isinstance(value, LabeledNull):
        return ("⊥", value.label)
    return value


def equality_pairs(predicate) -> Optional[list[tuple[str, str, bool]]]:
    """``(left_col, right_col, null_tolerant)`` triples if ``predicate``
    is a pure conjunction of ``_JoinEq``/``ValueJoinEq`` atoms — the
    condition for the hash-join fast path.  ``TRUE`` yields ``[]``
    (cross join); anything else yields ``None`` (nested loop)."""
    if predicate is S.TRUE:
        return []
    if isinstance(predicate, E._JoinEq):
        return [(predicate.left_col, predicate.right_col, False)]
    if isinstance(predicate, E.ValueJoinEq):
        return [(predicate.left_col, predicate.right_col, True)]
    if isinstance(predicate, S.And):
        pairs: list[tuple[str, str, bool]] = []
        for operand in predicate.operands:
            if isinstance(operand, E._JoinEq):
                pairs.append((operand.left_col, operand.right_col, False))
            elif isinstance(operand, E.ValueJoinEq):
                pairs.append((operand.left_col, operand.right_col, True))
            else:
                return None
        return pairs
    return None


class SortKey:
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

    def __lt__(self, other: "SortKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        if self.type_name != other.type_name:
            return self.type_name < other.type_name
        try:
            return self.value < other.value
        except TypeError:
            return str(self.value) < str(other.value)


def merge_rows(l_row: Row, r_row: Row, right_prefix: Optional[str]) -> Row:
    """Join output row: left wins on collisions unless a prefix exposes
    the right side's copy."""
    merged = dict(l_row)
    for key, value in r_row.items():
        if key in merged:
            if right_prefix:
                merged[f"{right_prefix}.{key}"] = value
        else:
            merged[key] = value
    return merged


# ----------------------------------------------------------------------
# scalar lowering
# ----------------------------------------------------------------------
ScalarFn = Callable[[Row, object], object]

#: Per-lowering memo of lowered scalars, keyed on scalar *identity*
#: (CSE-shared subtrees splice the same predicate objects under several
#: parents — without the memo each reference relowers the closure
#: tree).  Values keep a strong reference to the scalar so an id cannot
#: be reused mid-pass.  Active only under :data:`_COMPILE_LOCK` (set by
#: the vectorized plan's lowering pass); ``None`` outside a pass, where
#: direct callers get the unmemoized behavior.
_scalar_memo: Optional[dict[int, tuple[S.Scalar, ScalarFn]]] = None


def compile_scalar(scalar: S.Scalar) -> ScalarFn:
    """Lower a scalar AST to one closure ``f(row, ctx) -> value``.

    All dispatch happens here, once per plan; unknown scalar classes
    fall back to their own bound ``eval`` (which has the same
    signature), so user-defined predicates keep working.  During a plan
    lowering pass, results are memoized per scalar identity.
    """
    memo = _scalar_memo
    if memo is None:
        return _compile_scalar(scalar)
    hit = memo.get(id(scalar))
    if hit is not None:
        return hit[1]
    fn = _compile_scalar(scalar)
    memo[id(scalar)] = (scalar, fn)
    return fn


def _compile_scalar(scalar: S.Scalar) -> ScalarFn:
    if isinstance(scalar, S.Col):
        name = scalar.name

        def run_col(row, ctx):
            try:
                return row[name]
            except KeyError:
                raise EvaluationError(
                    f"row has no column {name!r}: {sorted(row)}"
                ) from None

        return run_col

    if isinstance(scalar, (S.Lit, S._Bool)):
        value = scalar.value
        return lambda row, ctx: value

    if isinstance(scalar, S.Comparison):
        return _compile_comparison(scalar)

    if isinstance(scalar, S.And):
        operands = tuple(compile_scalar(p) for p in scalar.operands)

        def run_and(row, ctx):
            for operand in operands:
                if not operand(row, ctx):
                    return False
            return True

        return run_and

    if isinstance(scalar, S.Or):
        operands = tuple(compile_scalar(p) for p in scalar.operands)

        def run_or(row, ctx):
            for operand in operands:
                if operand(row, ctx):
                    return True
            return False

        return run_or

    if isinstance(scalar, S.Not):
        operand = compile_scalar(scalar.operand)
        return lambda row, ctx: not operand(row, ctx)

    if isinstance(scalar, S.IsNull):
        operand = compile_scalar(scalar.operand)
        if scalar.negated:
            return lambda row, ctx: not (
                (v := operand(row, ctx)) is None or isinstance(v, LabeledNull)
            )
        return lambda row, ctx: (
            (v := operand(row, ctx)) is None or isinstance(v, LabeledNull)
        )

    if isinstance(scalar, S.In):
        operand = compile_scalar(scalar.operand)
        values = scalar.values

        def run_in(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return False
            return value in values

        return run_in

    if isinstance(scalar, S.IsOf):
        return _compile_is_of(scalar)

    if isinstance(scalar, S.Arith):
        op = S.Arith._OPS[scalar.op]
        left = compile_scalar(scalar.left)
        right = compile_scalar(scalar.right)

        def run_arith(row, ctx):
            lhs = left(row, ctx)
            rhs = right(row, ctx)
            if lhs is None or rhs is None or isinstance(
                lhs, LabeledNull
            ) or isinstance(rhs, LabeledNull):
                return None
            return op(lhs, rhs)

        return run_arith

    if isinstance(scalar, S.Func):
        args = tuple(compile_scalar(a) for a in scalar.args)
        fn = scalar.fn
        if scalar.null_tolerant:
            return lambda row, ctx: fn(*(a(row, ctx) for a in args))

        def run_func(row, ctx):
            values = [a(row, ctx) for a in args]
            for value in values:
                if value is None or isinstance(value, LabeledNull):
                    return None
            return fn(*values)

        return run_func

    if isinstance(scalar, S.Case):
        whens = tuple(
            (compile_scalar(p), compile_scalar(v)) for p, v in scalar.whens
        )
        default = compile_scalar(scalar.default)

        def run_case(row, ctx):
            for predicate, value in whens:
                if predicate(row, ctx):
                    return value(row, ctx)
            return default(row, ctx)

        return run_case

    # Unknown scalar class (e.g. the CQ translation's guards, or user
    # extensions): its own eval already has the (row, ctx) signature.
    return scalar.eval


def _compile_comparison(scalar: S.Comparison) -> ScalarFn:
    left = compile_scalar(scalar.left)
    right = compile_scalar(scalar.right)
    op = scalar.op

    if op == "=":

        def run_eq(row, ctx):
            lhs = left(row, ctx)
            rhs = right(row, ctx)
            if isinstance(lhs, LabeledNull) or isinstance(rhs, LabeledNull):
                return lhs == rhs
            if lhs is None or rhs is None:
                return False
            return bool(lhs == rhs)

        return run_eq

    if op == "!=":

        def run_ne(row, ctx):
            lhs = left(row, ctx)
            rhs = right(row, ctx)
            if isinstance(lhs, LabeledNull) or isinstance(rhs, LabeledNull):
                return lhs != rhs
            if lhs is None or rhs is None:
                return False
            return bool(lhs != rhs)

        return run_ne

    op_fn = S.Comparison._OPS[op]

    def run_ordered(row, ctx):
        lhs = left(row, ctx)
        rhs = right(row, ctx)
        if isinstance(lhs, LabeledNull) or isinstance(rhs, LabeledNull):
            return False
        if lhs is None or rhs is None:
            return False
        try:
            return bool(op_fn(lhs, rhs))
        except TypeError:
            return False  # cross-type comparison is unknown

    return run_ordered


def _compile_is_of(scalar: S.IsOf) -> ScalarFn:
    from repro.instances.database import TYPE_FIELD

    entity = scalar.entity
    only = scalar.only

    def run_is_of(row, ctx):
        actual = row.get(TYPE_FIELD)
        if actual is None:
            return False
        if only or ctx is None or ctx.schema is None:
            return actual == entity
        schema = ctx.schema
        if actual not in schema.entities or entity not in schema.entities:
            return actual == entity
        return schema.entity(str(actual)).is_subtype_of(schema.entity(entity))

    return run_is_of


# ----------------------------------------------------------------------
# static column inference
# ----------------------------------------------------------------------
def _static_cols(expr: E.RelExpr) -> Optional[tuple[str, ...]]:
    """The exact, ordered column tuple of *every* row ``expr`` produces,
    when statically known — the license for projection pushdown through
    unions and for the optimizer's semi-join and join-graph analysis.
    ``None`` when rows may be heterogeneous (scans, entity scans,
    mixed-shape Values)."""
    if isinstance(expr, E.Project):
        return expr.output_names
    if isinstance(expr, E.Aggregate):
        return tuple(expr.group_by) + tuple(
            name for name, _, _ in expr.aggregations
        )
    if isinstance(expr, (E.Select, E.Distinct, E.Sort)):
        return _static_cols(expr.inputs()[0])
    if isinstance(expr, E.Difference):
        return _static_cols(expr.left)
    if isinstance(expr, E.Extend):
        cols = _static_cols(expr.input)
        if cols is None:
            return None
        return cols if expr.name in cols else cols + (expr.name,)
    if isinstance(expr, E.Rename):
        cols = _static_cols(expr.input)
        if cols is None:
            return None
        renamed = tuple(expr.mapping.get(c, c) for c in cols)
        # A rename that collapses two columns makes the shape dynamic.
        return renamed if len(set(renamed)) == len(renamed) else None
    if isinstance(expr, E.UnionAll):
        l_cols = _static_cols(expr.left)
        r_cols = _static_cols(expr.right)
        if l_cols is None or r_cols is None:
            return None
        return l_cols + tuple(c for c in r_cols if c not in l_cols)
    if isinstance(expr, E.Values):
        rows = expr.rows
        if not rows:
            return None
        first = tuple(rows[0])
        if all(tuple(r) == first for r in rows[1:]):
            return first
        return None
    if isinstance(expr, E.Join):
        if expr.kind == "left":
            # An empty right side pads nothing, so the shape depends on
            # the data — see the interpreter's `_pad_left` behavior.
            return None
        l_cols = _static_cols(expr.left)
        r_cols = _static_cols(expr.right)
        if l_cols is None or r_cols is None:
            return None
        out = list(l_cols)
        for c in r_cols:
            if c in l_cols:
                if expr.right_prefix:
                    out.append(f"{expr.right_prefix}.{c}")
            else:
                out.append(c)
        return tuple(out) if len(set(out)) == len(out) else None
    return None  # Scan / EntityScan / unknown nodes


def _push_project_through_union(expr: E.Project) -> Optional[E.RelExpr]:
    """Rewrite ``π[cols](A ∪ B ∪ …)`` into ``π[cols](A) ∪ π[cols](B) ∪
    …`` when every branch's shape is statically known and carries every
    projected column — the pad-and-rebuild work of the union vanishes
    and the concatenation becomes O(1) per branch.

    Only applied when no column is missing from any branch, so the
    rewrite can never change which rows raise or how absent columns
    pad."""
    if not isinstance(expr.input, E.UnionAll):
        return None
    if not all(isinstance(s, S.Col) for _, s in expr.outputs):
        return None
    branches: list[E.RelExpr] = []

    def flatten(node: E.RelExpr) -> None:
        if isinstance(node, E.UnionAll):
            flatten(node.left)
            flatten(node.right)
        else:
            branches.append(node)

    flatten(expr.input)
    cols_per_branch = [_static_cols(b) for b in branches]
    if any(cols is None for cols in cols_per_branch):
        return None
    for _, scalar in expr.outputs:
        if any(scalar.name not in cols for cols in cols_per_branch):
            return None
    rebuilt: Optional[E.RelExpr] = None
    for branch in branches:
        projected = E.Project(branch, expr.outputs)
        rebuilt = (
            projected if rebuilt is None else E.UnionAll(rebuilt, projected)
        )
    return rebuilt


# ----------------------------------------------------------------------
# execution context and CSE detection
# ----------------------------------------------------------------------
class _Run:
    """Per-execution context a plan pipeline threads through its stage
    and scalar closures (duck-compatible with the interpreter's
    ``EvalContext``: exposes ``schema`` and ``instance``).  ``memo``
    holds the per-execution results of common subexpressions (see
    :func:`_shared_subtrees`); ``profile`` is the per-node
    ``[calls, rows, seconds]`` accumulator of a profiled execution, or
    None, in which case the stage wrappers record nothing."""

    __slots__ = ("instance", "schema", "memo", "profile")

    def __init__(
        self,
        instance: Instance,
        schema: Optional[Schema],
        profile: Optional[list] = None,
    ):
        self.instance = instance
        self.schema = schema
        self.memo: dict = {}
        self.profile = profile


#: Sentinel for "this row can never match" join keys (a null under a
#: null-rejecting pair).  Never inserted into an index.
_NOMATCH = object()


def _shared_subtrees(expr: E.RelExpr) -> dict[int, int]:
    """``id(node) -> memo slot`` for every subtree referenced from more
    than one parent.  View unfolding splices the *same* definition
    object in at every scan site (see ``unfold_scans``), so identity is
    exactly the sharing the plan's DAG structure records; lowering
    each shared subtree to one memoized stage makes it run once per
    execution instead of once per reference."""
    counts: dict[int, int] = {}
    nodes: dict[int, E.RelExpr] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        key = id(node)
        seen = counts.get(key, 0)
        counts[key] = seen + 1
        if not seen:
            nodes[key] = node
            stack.extend(node.inputs())
    return {
        key: slot
        for slot, key in enumerate(
            key
            for key, count in counts.items()
            if count > 1
            # Sharing a source stage saves nothing — it is already O(1).
            and not isinstance(nodes[key], (E.Scan, E.EntityScan, E.Values))
        )
    }


class PlanNode:
    """Static metadata for one plan node (EXPLAIN's unit).

    ``strategy`` is the name of the stage closure the lowering chose —
    ``vec_hash_join``, ``vec_project``, ``vec_select_rows`` — so the
    annotated plan tree shows *which* path each operator took.
    ``children`` holds node ids in input order; a CSE-shared subtree
    keeps one node referenced from every parent (``shared=True``).

    ``expr`` is the (possibly optimizer-synthesized) algebra subtree
    this node lowered from — the cardinality estimator's anchor (see
    :mod:`repro.algebra.estimate`).  A plan is cached
    instance-independently, so estimates are never stored on its
    nodes: :func:`~repro.algebra.estimate.annotate_plan` returns them
    per call."""

    __slots__ = ("node_id", "label", "strategy", "children", "shared",
                 "expr")

    def __init__(self, node_id: int, label: str, strategy: str,
                 children: list[int], shared: bool,
                 expr: Optional[E.RelExpr] = None):
        self.node_id = node_id
        self.label = label
        self.strategy = strategy
        self.children = tuple(children)
        self.shared = shared
        self.expr = expr

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "label": self.label,
            "strategy": self.strategy,
            "children": list(self.children),
            "shared": self.shared,
        }


class _PlanRegistry:
    """Per-lowering collector of :class:`PlanNode` metadata.

    Registration happens post-order (a node registers after its inputs
    lowered), so the stack of pending child-id lists reconstructs the
    *lowered* tree — including rewrites like projection pushdown, whose
    synthesized nodes appear under the original node.  Every stage
    closure is wrapped by :meth:`wrap_stage`; one pipeline serves both
    plain execution and EXPLAIN ANALYZE."""

    __slots__ = ("nodes", "shared_ids", "stack")

    def __init__(self):
        self.nodes: list[PlanNode] = []
        self.shared_ids: dict[int, int] = {}   # id(expr) -> node_id
        self.stack: list[list[int]] = [[]]

    def enter(self) -> None:
        self.stack.append([])

    def exit_register(self, expr: E.RelExpr, strategy: str,
                      shared: bool) -> int:
        from repro.algebra.printer import node_label

        children = self.stack.pop()
        node_id = len(self.nodes)
        self.nodes.append(
            PlanNode(node_id, node_label(expr),
                     strategy.removeprefix("run_"), children, shared,
                     expr=expr)
        )
        if shared:
            self.shared_ids[id(expr)] = node_id
        self.stack[-1].append(node_id)
        return node_id

    def exit_reference(self, expr: E.RelExpr) -> None:
        """A second parent of a CSE-shared subtree: attach the existing
        node id instead of creating a new node."""
        self.stack.pop()
        self.stack[-1].append(self.shared_ids[id(expr)])

    def root_id(self) -> int:
        return self.stack[0][0]

    @staticmethod
    def wrap_stage(run, node_id: int):
        """The per-node hook: adds ``[1, len(output), seconds]`` to the
        node's record when the run carries a profile, and is one extra
        call otherwise."""

        def run_node(ctx, _run=run, _nid=node_id):
            profile = ctx.profile
            if profile is None:
                return _run(ctx)
            start = perf_counter()
            out = _run(ctx)
            seconds = perf_counter() - start
            record = profile[_nid]
            record[0] += 1
            record[1] += len(out)
            record[2] += seconds
            return out

        # A node lowered to another node's stage (projection pushed
        # through a union) reports that stage's strategy.
        run_node.__name__ = run.__name__
        return run_node


#: Lowering is rare (the plan cache memoizes it) but may be reached
#: from several threads at once; the module-level scalar memo makes it
#: a critical section.
_COMPILE_LOCK = threading.RLock()


# ----------------------------------------------------------------------
# row paths the vectorized stages fall back to
# ----------------------------------------------------------------------
def _distinct_frozen(rows) -> list:
    seen: set[frozenset] = set()
    out = []
    for row in rows:
        frozen = freeze_row(row)
        if frozen not in seen:
            seen.add(frozen)
            out.append(row)
    return out


def _difference_frozen(left_rows, right_rows) -> list:
    excluded = {freeze_row(r) for r in right_rows}
    seen: set[frozenset] = set()
    out = []
    for row in left_rows:
        frozen = freeze_row(row)
        if frozen not in excluded and frozen not in seen:
            seen.add(frozen)
            out.append(row)
    return out


def _make_join_keyer(columns: tuple[str, ...], tolerant: tuple[bool, ...]):
    """One closure ``row -> hashable key | _NOMATCH`` per join side.
    ``_NOMATCH`` marks a null under a null-rejecting pair — the row can
    never match and is skipped on both build and probe."""
    if len(columns) == 1:
        column = columns[0]
        if tolerant[0]:
            return lambda row: hashable_key(row.get(column))

        def strict_single(row):
            value = row.get(column)
            if value is None:
                return _NOMATCH
            if isinstance(value, LabeledNull):
                return ("⊥", value.label)
            return value

        return strict_single

    keyers = tuple(hashable_key if t else join_key_value for t in tolerant)
    strict_at = tuple(i for i, t in enumerate(tolerant) if not t)

    def multi(row):
        key = tuple(
            keyer(row.get(c)) for keyer, c in zip(keyers, columns)
        )
        for i in strict_at:
            if key[i] is None:
                return _NOMATCH
        return key

    return multi


def _column_set(rows) -> set[str]:
    columns: set[str] = set()
    for row in rows:
        columns.update(row)
    return columns


def _pad_left(
    l_row: Row, right_columns: set[str], right_prefix: Optional[str]
) -> Row:
    if right_prefix:
        padding = {f"{right_prefix}.{c}": None for c in right_columns}
    else:
        padding = {c: None for c in right_columns if c not in l_row}
    merged = dict(l_row)
    merged.update(padding)
    return merged


def _apply_aggregate(
    func: str, scalar: Optional[ScalarFn], members: list[Row], ctx
) -> object:
    if func == "count" and scalar is None:
        return len(members)
    values = []
    for row in members:
        value = scalar(row, ctx) if scalar is not None else 1
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


# ----------------------------------------------------------------------
# per-execution profiles
# ----------------------------------------------------------------------
class PlanProfile:
    """Per-node runtime statistics from one profiled execution.

    ``counters[node_id]`` is ``[calls, rows_out, seconds]`` (inclusive
    of the node's inputs — the wrapper times the whole stage call).
    ``self_time_ms`` converts to exclusive time with a *charge-once*
    rule: each node's inclusive time is subtracted from the first
    parent edge that reaches it, so the self times telescope exactly to
    the root's inclusive time even when CSE shares a subtree between
    parents."""

    __slots__ = ("nodes", "root_id", "counters", "fingerprint", "result_rows")

    def __init__(self, nodes: list[PlanNode], root_id: int,
                 counters: list[list], fingerprint: str, result_rows: int):
        self.nodes = nodes
        self.root_id = root_id
        self.counters = counters
        self.fingerprint = fingerprint
        self.result_rows = result_rows

    def calls(self, node_id: int) -> int:
        return self.counters[node_id][0]

    def rows_out(self, node_id: int) -> int:
        return self.counters[node_id][1]

    def time_ms(self, node_id: int) -> float:
        return self.counters[node_id][2] * 1000.0

    def memo_hits(self, node_id: int) -> int:
        """CSE-memo hits: a shared node's wrapper counts every parent
        reference, but only the first reference computes rows."""
        node = self.nodes[node_id]
        if not node.shared:
            return 0
        return max(0, self.counters[node_id][0] - 1)

    @property
    def total_ms(self) -> float:
        return self.counters[self.root_id][2] * 1000.0

    def self_time_ms(self) -> list[float]:
        """Exclusive per-node time (charge-once; sums to ``total_ms``)."""
        out = [record[2] for record in self.counters]
        charged: set[int] = set()
        for node in self.nodes:
            for child in node.children:
                if child not in charged:
                    charged.add(child)
                    out[node.node_id] -= self.counters[child][2]
        return [seconds * 1000.0 for seconds in out]

    def to_dict(self) -> dict:
        self_ms = self.self_time_ms()
        return {
            "fingerprint": self.fingerprint,
            "root_id": self.root_id,
            "result_rows": self.result_rows,
            "total_ms": self.total_ms,
            "nodes": [
                {
                    **node.to_dict(),
                    "calls": self.calls(node.node_id),
                    "rows_out": self.rows_out(node.node_id),
                    "time_ms": self.time_ms(node.node_id),
                    "self_time_ms": self_ms[node.node_id],
                    "memo_hits": self.memo_hits(node.node_id),
                }
                for node in self.nodes
            ],
        }
