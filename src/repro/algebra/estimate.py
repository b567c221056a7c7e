"""Cardinality estimation over relational plans.

Classical selectivity rules evaluated against the per-relation
statistics service (:mod:`repro.observability.stats`, maintained by
:meth:`repro.instances.database.Instance.relation_stats`): scans read
observed row counts, selections multiply in predicate selectivities
(exact frequencies for equality against literals, min/max
interpolation for ranges, null fractions for ``IS NULL``), and
equi-joins divide by the larger distinct count per join pair.

Plans are compiled once and cached *instance-independently*, so
estimates cannot be fixed at lowering time: every ``PlanNode`` carries
the ``RelExpr`` it was lowered from (``node.expr``) and
:func:`annotate_plan` walks those anchors against a concrete instance,
returning the estimates per EXPLAIN / EXPLAIN ANALYZE / observed query
instead of storing them on the shared plan.  CSE shares subtrees
between parents, so the walk memoizes by expression identity — a
shared subtree is estimated once.

:func:`divergence_ratio` and :func:`worst_divergent` compare one run's
estimates with the same run's ``PlanProfile`` row counts; nodes beyond
``ESTIMATION.divergence_factor`` feed the PlanCache's re-optimization
loop (:meth:`~repro.algebra.plan_cache.PlanCache.note_divergence`).
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.compiler import PlanNode, split_join_predicate
from repro.errors import SchemaError
from repro.observability.journal import journal
from repro.observability.metrics import registry
from repro.observability.stats import ESTIMATION, RelationStats
from repro.instances.database import TYPE_FIELD

#: Fallback selectivity for predicates the rules can't score.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Fallback selectivity for equality tests without usable statistics.
DEFAULT_EQ_SELECTIVITY = 0.1


class _ColRef:
    """A column's statistics plus the base-relation row count its
    frequency table was measured over (selectivities are fractions of
    the *base* rows, applied multiplicatively as estimates shrink)."""

    __slots__ = ("stats", "base_rows")

    def __init__(self, stats, base_rows: int) -> None:
        self.stats = stats
        self.base_rows = base_rows


class _Est:
    """Estimated row count and the column environment flowing out of
    one expression node."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: float, cols: dict[str, _ColRef]) -> None:
        self.rows = max(0.0, rows)
        self.cols = cols


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


def _from_relation_stats(rs: RelationStats) -> _Est:
    cols = {
        name: _ColRef(stats, rs.rows) for name, stats in rs.columns.items()
    }
    return _Est(float(rs.rows), cols)


def _distinct(est: _Est, name: str) -> float:
    """Distinct-count guess for ``name``, capped at the current row
    estimate; unknown columns assume a unique key (the conservative
    choice for join denominators)."""
    ref = est.cols.get(name)
    if ref is None:
        return max(est.rows, 1.0)
    return max(1.0, min(float(ref.stats.distinct), max(est.rows, 1.0)))


# ----------------------------------------------------------------------
# predicate selectivity
# ----------------------------------------------------------------------
def _entity_member_fraction(
    est: _Est, entity: str, only: bool, schema
) -> Optional[float]:
    """Fraction of rows whose ``$type`` designates (a subtype of)
    ``entity`` — shared by ``IsOf`` predicates and ``EntityScan``."""
    if schema is None:
        return None
    try:
        node = schema.entity(entity)
        root = node.root().name
        members = {node.name} | {d.name for d in node.descendants()}
    except SchemaError:
        return None
    ref = est.cols.get(TYPE_FIELD)
    base = ref.base_rows if ref is not None else est.rows
    if base <= 0:
        return 0.0
    if ref is None:
        # No ``$type`` column observed anywhere: every row defaults to
        # the root type.
        if only:
            return 0.0
        return 1.0 if root in members else 0.0
    if only:
        matched = float(ref.stats.frequency(entity) or 0)
    else:
        matched = float(
            sum(ref.stats.frequency(m) or 0 for m in members)
        )
        if root in members:
            # Rows lacking the column default to the root type.
            matched += max(0, base - ref.stats.present)
    return _clamp(matched / base)


def _comparison_selectivity(pred: S.Comparison, est: _Est) -> float:
    op, left, right = pred.op, pred.left, pred.right
    if isinstance(left, S.Lit) and isinstance(right, S.Col):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left, right = right, left
        op = flip.get(op, op)
    if isinstance(left, S.Col) and isinstance(right, S.Lit):
        ref = est.cols.get(left.name)
        stats = ref.stats if ref is not None else None
        if op in ("=", "!="):
            if ref is None or ref.base_rows <= 0:
                eq = DEFAULT_EQ_SELECTIVITY
            else:
                freq = stats.frequency(right.value)
                if freq is None:
                    eq = DEFAULT_EQ_SELECTIVITY
                else:
                    eq = _clamp(freq / ref.base_rows)
            return eq if op == "=" else _clamp(1.0 - eq)
        if op in ("<", "<=", ">", ">="):
            value = right.value
            if (
                ref is not None
                and ref.base_rows > 0
                and stats.kind == "num"
                and stats.ordered
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                lo, hi = stats.lo, stats.hi
                if hi == lo:
                    holds = {
                        "<": lo < value,
                        "<=": lo <= value,
                        ">": lo > value,
                        ">=": lo >= value,
                    }[op]
                    frac = 1.0 if holds else 0.0
                else:
                    below = _clamp((value - lo) / (hi - lo))
                    frac = below if op in ("<", "<=") else 1.0 - below
                # Null / absent cells never satisfy a comparison.
                return _clamp(frac * stats.non_null / ref.base_rows)
            return DEFAULT_SELECTIVITY
    if isinstance(left, S.Col) and isinstance(right, S.Col):
        if op == "=":
            d = max(_distinct(est, left.name), _distinct(est, right.name))
            return _clamp(1.0 / d)
    return DEFAULT_SELECTIVITY


def _selectivity(pred, est: _Est, schema) -> float:
    """Estimated fraction of ``est``'s rows satisfying ``pred``."""
    if isinstance(pred, S._Bool):
        return 1.0 if pred.value else 0.0
    if isinstance(pred, S.And):
        out = 1.0
        for operand in pred.operands:
            out *= _selectivity(operand, est, schema)
        return out
    if isinstance(pred, S.Or):
        miss = 1.0
        for operand in pred.operands:
            miss *= 1.0 - _selectivity(operand, est, schema)
        return _clamp(1.0 - miss)
    if isinstance(pred, S.Not):
        return _clamp(1.0 - _selectivity(pred.operand, est, schema))
    if isinstance(pred, S.IsNull):
        fraction = None
        if isinstance(pred.operand, S.Col):
            ref = est.cols.get(pred.operand.name)
            if ref is not None and ref.base_rows > 0:
                fraction = _clamp(
                    (ref.base_rows - ref.stats.non_null) / ref.base_rows
                )
            elif ref is None and est.cols:
                # Statistics exist but never saw this column: always
                # absent, hence always null.
                fraction = 1.0
        if fraction is None:
            fraction = DEFAULT_EQ_SELECTIVITY
        return _clamp(1.0 - fraction) if pred.negated else fraction
    if isinstance(pred, S.Comparison):
        return _clamp(_comparison_selectivity(pred, est))
    if isinstance(pred, S.In):
        if isinstance(pred.operand, S.Col):
            ref = est.cols.get(pred.operand.name)
            if ref is not None and ref.base_rows > 0 and ref.stats.present:
                matched = sum(
                    ref.stats.frequency(v) or 0 for v in pred.values
                )
                return _clamp(matched / ref.base_rows)
        return _clamp(DEFAULT_EQ_SELECTIVITY * len(pred.values))
    if isinstance(pred, S.IsOf):
        fraction = _entity_member_fraction(
            est, pred.entity, pred.only, schema
        )
        return fraction if fraction is not None else DEFAULT_SELECTIVITY
    if isinstance(pred, E._JoinEq):
        d = max(_distinct(est, pred.left_col), _distinct(est, pred.right_col))
        return _clamp(1.0 / d)
    return DEFAULT_SELECTIVITY


# ----------------------------------------------------------------------
# expression estimates
# ----------------------------------------------------------------------
def _join_estimate(expr: E.Join, left: _Est, right: _Est, schema) -> _Est:
    pairs, residual = split_join_predicate(expr.predicate)
    cross = left.rows * right.rows
    if residual is not None:
        rows = cross * _selectivity(expr.predicate, left, schema)
    else:
        rows = cross
        for left_col, right_col in pairs:
            rows /= max(
                _distinct(left, left_col), _distinct(right, right_col)
            )
    if expr.kind == "left":
        rows = max(rows, left.rows)
    cols = dict(left.cols)
    for name, ref in right.cols.items():
        if name in left.cols:
            if expr.right_prefix:
                cols[f"{expr.right_prefix}.{name}"] = ref
        else:
            cols[name] = ref
    return _Est(rows, cols)


def _distinct_groups(est: _Est, names) -> float:
    """Estimated group count for a set of grouping columns: product of
    distinct counts, capped at the input rows."""
    if est.rows <= 0:
        return 0.0
    product = 1.0
    for name in names:
        product *= _distinct(est, name)
        if product >= est.rows:
            return est.rows
    return max(1.0, min(product, est.rows))


def _estimate(
    expr: E.RelExpr, instance, schema, memo: dict, params: tuple = ()
) -> _Est:
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    est = _estimate_uncached(expr, instance, schema, memo, params)
    memo[key] = est
    return est


def _estimate_uncached(
    expr: E.RelExpr, instance, schema, memo: dict, params: tuple
) -> _Est:
    if isinstance(expr, E.Scan):
        return _from_relation_stats(instance.relation_stats(expr.relation))
    if isinstance(expr, E.EntityScan):
        if schema is None and getattr(instance, "schema", None) is not None:
            schema = instance.schema
        if schema is None:
            return _Est(0.0, {})
        try:
            root = schema.entity(expr.entity).root().name
        except SchemaError:
            return _Est(0.0, {})
        base = _from_relation_stats(instance.relation_stats(root))
        fraction = _entity_member_fraction(
            base, expr.entity, expr.only, schema
        )
        if fraction is None:
            fraction = 1.0
        return _Est(base.rows * fraction, base.cols)
    if isinstance(expr, E.Values):
        return _from_relation_stats(
            RelationStats.from_rows("<values>", expr.rows)
        )
    if isinstance(expr, E.Select):
        inner = _estimate(expr.input, instance, schema, memo, params)
        predicate = S.bind_params(expr.predicate, params)
        fraction = _clamp(_selectivity(predicate, inner, schema))
        return _Est(inner.rows * fraction, inner.cols)
    if isinstance(expr, E.Project):
        inner = _estimate(expr.input, instance, schema, memo, params)
        cols = {}
        for name, scalar in expr.outputs:
            if isinstance(scalar, S.Col):
                ref = inner.cols.get(scalar.name)
                if ref is not None:
                    cols[name] = ref
        return _Est(inner.rows, cols)
    if isinstance(expr, E.Extend):
        inner = _estimate(expr.input, instance, schema, memo, params)
        cols = dict(inner.cols)
        cols.pop(expr.name, None)
        if isinstance(expr.scalar, S.Col):
            ref = inner.cols.get(expr.scalar.name)
            if ref is not None:
                cols[expr.name] = ref
        return _Est(inner.rows, cols)
    if isinstance(expr, E.Rename):
        inner = _estimate(expr.input, instance, schema, memo, params)
        mapping = expr.mapping
        cols = {
            mapping.get(name, name): ref
            for name, ref in inner.cols.items()
        }
        return _Est(inner.rows, cols)
    if isinstance(expr, E.Sort):
        return _estimate(expr.input, instance, schema, memo, params)
    if isinstance(expr, E.Join):
        left = _estimate(expr.left, instance, schema, memo, params)
        right = _estimate(expr.right, instance, schema, memo, params)
        return _join_estimate(expr, left, right, schema)
    if isinstance(expr, E.UnionAll):
        left = _estimate(expr.left, instance, schema, memo, params)
        right = _estimate(expr.right, instance, schema, memo, params)
        cols = {
            name: ref
            for name, ref in left.cols.items()
            if name in right.cols
        }
        return _Est(left.rows + right.rows, cols)
    if isinstance(expr, E.Difference):
        left = _estimate(expr.left, instance, schema, memo, params)
        _estimate(expr.right, instance, schema, memo, params)
        return _Est(left.rows, left.cols)
    if isinstance(expr, E.Distinct):
        inner = _estimate(expr.input, instance, schema, memo, params)
        if not inner.cols:
            return _Est(inner.rows, inner.cols)
        return _Est(_distinct_groups(inner, inner.cols), inner.cols)
    if isinstance(expr, E.Aggregate):
        inner = _estimate(expr.input, instance, schema, memo, params)
        cols = {
            name: ref
            for name, ref in inner.cols.items()
            if name in expr.group_by
        }
        if not expr.group_by:
            # Ungrouped aggregates emit exactly one row, even on empty
            # input.
            return _Est(1.0, cols)
        return _Est(_distinct_groups(inner, expr.group_by), cols)
    # Unknown node: no estimate basis — report empty environment and
    # zero rows rather than guessing.
    return _Est(0.0, {})


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
class Estimator:
    """A reusable estimation context for the cost-based optimizer.

    Wraps one ``(instance, schema)`` pair with a memo that persists
    across calls, so the join-order search can score thousands of
    candidate trees without re-estimating shared subtrees, and applies
    *actuals-corrected* cardinalities: ``corrections`` maps subtree
    fingerprints to row counts observed by a profiled execution (the
    adaptive re-optimization feedback of
    :meth:`repro.algebra.plan_cache.PlanCache.note_divergence`), and
    ``params`` bind the trees' ``Param`` slots.  A
    corrected subtree overrides its statistics-derived estimate, and
    the override propagates into every parent estimated afterwards.

    The memo is keyed by expression identity, so every estimated root
    is pinned for the estimator's lifetime — otherwise a discarded
    candidate's ``id`` could be recycled and alias a stale entry.
    """

    __slots__ = ("instance", "schema", "corrections", "params", "_memo",
                 "_fps", "_pins")

    def __init__(
        self, instance, schema=None, corrections=None, params: tuple = ()
    ) -> None:
        self.instance = instance
        self.schema = schema
        self.corrections = dict(corrections) if corrections else {}
        self.params = params
        self._memo: dict[int, _Est] = {}
        self._fps: dict[int, str] = {}
        self._pins: list[E.RelExpr] = []

    def fingerprint(self, expr: E.RelExpr) -> str:
        fp = self._fps.get(id(expr))
        if fp is None:
            fp = expr.fingerprint()
            self._fps[id(expr)] = fp
        return fp

    def est(self, expr: E.RelExpr) -> _Est:
        self._pins.append(expr)
        if self.corrections:
            self._correct(expr)
        return _estimate(
            expr, self.instance, self.schema, self._memo, self.params
        )

    def rows(self, expr: E.RelExpr) -> float:
        """Estimated output rows (corrections applied)."""
        return self.est(expr).rows

    def _correct(self, expr: E.RelExpr) -> None:
        """Post-order pass seeding the memo with actuals-corrected
        estimates, children first so parents see corrected inputs."""
        if id(expr) in self._memo:
            return
        for child in expr.inputs():
            self._correct(child)
        est = _estimate(
            expr, self.instance, self.schema, self._memo, self.params
        )
        actual = self.corrections.get(self.fingerprint(expr))
        if actual is not None and est.rows != actual:
            self._memo[id(expr)] = _Est(float(actual), est.cols)


def estimate_expr(
    expr: E.RelExpr, instance, schema=None
) -> float:
    """Estimated output rows for one expression tree."""
    return _estimate(expr, instance, schema, {}).rows


def _annotation_key(plan, instance) -> Optional[tuple]:
    """A cheap validity key for memoized plan annotations: the
    instance identity plus its dirty epoch and each base relation's
    row-list identity and length.  Any mutation path — append, delete,
    list replacement, ``mark_dirty`` — changes at least one component.
    Returns ``None`` for instance-likes without the expected shape
    (no memoization then)."""
    relations = getattr(instance, "relations", None)
    epoch = getattr(instance, "_dirty_epoch", None)
    if not isinstance(relations, dict) or epoch is None:
        return None
    return (
        epoch,
        tuple(
            (name, id(rows), len(rows))
            for name, rows in relations.items()
        ),
    )


def annotate_plan(
    plan, instance, schema=None, params: tuple = ()
) -> list[Optional[float]]:
    """Estimate every node of a compiled plan against ``instance`` and
    return the estimates indexed by node id.

    Estimates are instance-dependent while plans are cached
    instance-independently, so they cannot be fixed at lowering time.
    The walk (memoized per shared subtree) runs once per (instance
    state, plan) pair: the result is cached on the plan keyed by the
    instance's identity, dirty epoch and per-relation row-list
    identity/length, so the warm query path — same plan, unchanged
    data, one annotation per query — pays a key comparison instead of
    a full re-estimation.  Nodes lowered without an expression anchor
    estimate as ``None``.  ``params`` bind the plan's slots, so a
    parameterized plan estimates like the literal query it ran for.
    """
    key = _annotation_key(plan, instance)
    if key is not None:
        key = (key, params)
    memoized = getattr(plan, "_annotate_memo", None)
    if (
        key is not None
        and memoized is not None
        and memoized[0]() is instance
        and memoized[1] == key
    ):
        return list(memoized[2])
    memo: dict[int, _Est] = {}
    estimates = [
        None if node.expr is None
        else _estimate(node.expr, instance, schema, memo, params).rows
        for node in plan.nodes
    ]
    if key is not None:
        try:
            plan._annotate_memo = (
                weakref.ref(instance), key, list(estimates)
            )
        except TypeError:
            pass                    # non-weakrefable instance-like
    return estimates


def divergence_ratio(est: float, actual: int) -> float:
    """Symmetric estimate↔actual divergence, ≥ 1.0; the +1 smoothing
    keeps zero-row estimates comparable."""
    over = (est + 1.0) / (actual + 1.0)
    return max(over, 1.0 / over)


def worst_divergent(
    nodes: list[PlanNode],
    profile,
    estimates: list[Optional[float]],
    factor: Optional[float] = None,
) -> Optional[dict]:
    """The node whose estimate (``estimates[node_id]``, as
    :func:`annotate_plan` returns them) diverges worst from the same
    run's profiled actual rows, as a summary dict, or None when nothing
    is comparable.  A node the run never called (every node but the
    root of a run redone on the interpreter) has no actual.

    ``flagged`` marks ratios at or beyond ``factor`` (default
    :data:`ESTIMATION.divergence_factor`) — the re-optimization
    feedback signal.
    """
    if factor is None:
        factor = ESTIMATION.divergence_factor
    worst: Optional[dict] = None
    for node in nodes:
        est = estimates[node.node_id]
        if est is None or not profile.calls(node.node_id):
            continue
        actual = profile.rows_out(node.node_id)
        ratio = divergence_ratio(est, actual)
        if worst is None or ratio > worst["ratio"]:
            worst = {
                "node_id": node.node_id,
                "label": node.label,
                "est_rows": est,
                "actual_rows": actual,
                "ratio": ratio,
                "flagged": ratio >= factor,
            }
    return worst


def note_estimate_error(exc: Exception, site: str) -> None:
    """Count and journal an estimator failure that ``site`` swallowed:
    estimates are advisory, so a failure never fails the query."""
    registry.counter("query.estimate.errors").inc()
    journal("query.estimate.error", site=site, error=type(exc).__name__)
