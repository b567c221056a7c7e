"""Plan-building blocks shared by the query executor.

The executor is :mod:`repro.algebra.vectorized` (the columnar plan
pipeline behind ``evaluate``); the reference interpreter in
:mod:`repro.algebra.evaluator` is its differential oracle and runs
every plan the executor cannot run over columns.  This module keeps
what those modules, the optimizer and the estimator share:

* the value semantics both engines use: join keys
  (:func:`join_key_value`), join-predicate analysis
  (:func:`split_join_predicate`), the heterogeneous sort key
  (:class:`SortKey`) and the aggregate reduction
  (:func:`reduce_aggregate`);
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
  (:class:`PlanProfile`) — the units of EXPLAIN / EXPLAIN ANALYZE.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.errors import EvaluationError
from repro.instances.database import Instance
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


def split_join_predicate(
    predicate,
) -> tuple[list[tuple[str, str]], Optional[S.Predicate]]:
    """``(pairs, residual)`` of a join predicate: its top-level
    ``_JoinEq`` atoms as ``(left_col, right_col)`` pairs, and the rest
    of the predicate (``None`` when nothing is left over; ``TRUE``
    leaves nothing, so a cross join is ``([], None)``).  The
    interpreter hashes on the pairs and tests the residual per
    candidate; the vectorized hash join, the estimator and the
    optimizer act only when the residual is ``None``."""
    if predicate is S.TRUE:
        return [], None
    if isinstance(predicate, E._JoinEq):
        return [(predicate.left_col, predicate.right_col)], None
    if not isinstance(predicate, S.And):
        return [], predicate
    pairs = [
        (operand.left_col, operand.right_col)
        for operand in predicate.operands
        if isinstance(operand, E._JoinEq)
    ]
    rest = [
        operand for operand in predicate.operands
        if not isinstance(operand, E._JoinEq)
    ]
    if not rest:
        return pairs, None
    if not pairs:
        return [], predicate
    return pairs, rest[0] if len(rest) == 1 else S.And(*rest)


def eq_test(predicate) -> Optional[tuple[str, S.Scalar]]:
    """``(column, operand)`` of a ``Col = Lit`` / ``Col = Param`` test
    (either side), else None."""
    if isinstance(predicate, S.Comparison) and predicate.op == "=":
        for column, operand in ((predicate.left, predicate.right),
                                (predicate.right, predicate.left)):
            if isinstance(column, S.Col) and isinstance(
                operand, (S.Lit, S.Param)
            ):
                return column.name, operand
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


def reduce_aggregate(func: str, values: list) -> object:
    """One group's ``func`` over ``values``, skipping SQL and labeled
    nulls: ``count`` of nothing is 0, any other aggregate ``None``."""
    kept = [
        v for v in values if v is not None and not isinstance(v, LabeledNull)
    ]
    if func == "count":
        return len(kept)
    if not kept:
        return None
    if func == "sum":
        return sum(kept)
    if func == "min":
        return min(kept)
    if func == "max":
        return max(kept)
    if func == "avg":
        return sum(kept) / len(kept)
    raise EvaluationError(f"unknown aggregate {func!r}")


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
        # ∪ pads a side's missing columns only while the other side has
        # rows, and takes the right side's order when the left has none,
        # so only a column tuple both sides share is static.
        l_cols = _static_cols(expr.left)
        return l_cols if l_cols == _static_cols(expr.right) else None
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
            # the data (the interpreter pads from the right rows seen).
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


def union_branches(expr: E.RelExpr) -> list[E.RelExpr]:
    """The non-union operands of a ``UnionAll`` tree, left to right."""
    if isinstance(expr, E.UnionAll):
        return union_branches(expr.left) + union_branches(expr.right)
    return [expr]


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
    branches = union_branches(expr.input)
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
    """Per-execution context a plan pipeline threads through its stages
    (duck-compatible with the interpreter's ``EvalContext``: exposes
    ``schema``, ``instance`` and the values bound to the plan's
    ``Param`` slots, so scalars, and the interpreter when it runs the
    plan instead, evaluate against it).  ``memo`` holds the
    per-execution results of common subexpressions (see
    :func:`_shared_subtrees`); ``profile`` is the per-node
    ``[calls, rows, seconds]`` accumulator of a profiled execution, or
    None, in which case the stage wrappers record nothing."""

    __slots__ = ("instance", "schema", "memo", "profile", "params")

    def __init__(
        self,
        instance: Instance,
        schema: Optional[Schema],
        profile: Optional[list] = None,
        params: tuple = (),
    ):
        self.instance = instance
        self.schema = schema
        self.memo: dict = {}
        self.profile = profile
        self.params = params


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
    ``vec_hash_join``, ``vec_project``, ``vec_probe`` — so the
    annotated plan tree shows *which* path each operator took; a plan
    outside the columnar dialect is one ``interpreted`` node.
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
