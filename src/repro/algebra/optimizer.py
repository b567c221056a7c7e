"""Algebraic rewriting of generated transformations.

TransGen's output is systematic rather than minimal (the paper notes
generating *efficient* transformations "is likely to expose a wealth of
optimization opportunities", Section 4).  This optimizer applies the
classical safe rewrites:

* cascade and fuse selections (σp(σq(x)) → σp∧q(x));
* push selections through projections when the predicate only reads
  pass-through columns, into union branches and both sides of a
  difference that all carry its columns, through renames that leave
  them alone, and into the side of an inner join that owns them —
  ``col = value`` on an equi-join key reaches both sides.  Each push
  needs statically known columns (``compiler._static_cols``);
* fuse adjacent projections;
* drop identity projections and empty renames;
* simplify predicates (TRUE/FALSE absorption);
* eliminate union branches that are provably empty (σFALSE);
* recognize plain ``Comparison('=', Col, Col)`` conjuncts in join
  predicates as equi-join pairs (``_JoinEq``) when the two columns
  provably come from opposite sides, so hand-written joins take the
  executor's hash-join path.

Rewrites run to a fixpoint; each is semantics-preserving under the bag
semantics of the evaluator.

When an :class:`~repro.instances.database.Instance` is supplied,
a second, *cost-based* phase runs after the heuristic fixpoint: commute-
safe inner-equi-join regions are flattened into join graphs, orders are
enumerated (dynamic programming up to ``COST.dp_max_leaves`` relations,
greedy min-est-rows above), and the cheapest tree under the cardinality
estimates of :mod:`repro.algebra.estimate` wins — see
``docs/OPTIMIZER.md`` for the cost model and its knobs.  Without an
instance, ``optimize`` behaves exactly as before.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.compiler import (
    _static_cols,
    eq_test,
    split_join_predicate,
    union_branches,
)


class CostConfig:
    """Tuning knobs for the cost-based phase (``docs/OPTIMIZER.md``).

    The per-row CPU weights are calibrated from the PR 5/7 operator
    profiles (`EXPLAIN ANALYZE` self-times over the BENCH_query
    workloads): hash-build rows cost roughly 2× probe rows, predicate
    evaluation sits between the two, and scans are the cheapest
    per-row touch.  Absolute scale is irrelevant — only ratios steer
    the join-order search.
    """

    __slots__ = (
        "enabled", "dp_max_leaves", "max_region_leaves", "max_reopts",
        "scan_weight", "pred_weight", "build_weight", "probe_weight",
        "output_weight", "sort_weight",
    )

    def __init__(self) -> None:
        self.enabled = True
        #: Regions up to this many leaves get exhaustive DP; larger
        #: ones fall back to the greedy min-est-rows heuristic.
        self.dp_max_leaves = 8
        #: Regions beyond this are left in their written order.
        self.max_region_leaves = 24
        #: Per-query bound on adaptive re-optimizations (feedback loop
        #: in :mod:`repro.algebra.plan_cache`).
        self.max_reopts = 3
        self.scan_weight = 0.25
        self.pred_weight = 0.6
        self.build_weight = 1.4
        self.probe_weight = 0.8
        self.output_weight = 1.0
        self.sort_weight = 0.3


#: Process-wide cost configuration (mutable, like ``ESTIMATION``).
COST = CostConfig()


@dataclass
class OptimizationReport:
    """Outcome of one instance-aware ``optimize`` call: both trees and
    their estimated costs, for ``EXPLAIN`` rendering and the adaptive
    plan cache."""

    heuristic: E.RelExpr
    chosen: E.RelExpr
    heuristic_cost: Optional[float]
    chosen_cost: Optional[float]

    @property
    def reordered(self) -> bool:
        return self.chosen is not self.heuristic


def optimize(
    expr: E.RelExpr,
    max_passes: int = 10,
    instance=None,
    schema=None,
    corrections=None,
) -> E.RelExpr:
    """Rewrite ``expr`` to a fixpoint of the rule set.

    With ``instance`` (and ``COST.enabled``), additionally run the
    cost-based join-order search against its statistics;
    ``corrections`` maps subtree fingerprints to observed row counts
    (the adaptive re-optimization feedback).  Backward compatible: no
    instance → pure heuristics, identical to previous behavior.
    """
    current = _heuristic_fixpoint(expr, max_passes)
    if instance is None or not COST.enabled:
        return current
    return optimize_with_report(
        current, instance, schema=schema, corrections=corrections,
        max_passes=0,
    ).chosen


def _heuristic_fixpoint(expr: E.RelExpr, max_passes: int) -> E.RelExpr:
    current = expr
    for _ in range(max_passes):
        rewritten = _rewrite(current)
        # A pass returns every node no rule changed as itself.  On a
        # settled tree return the pre-pass tree: it keeps the caller's
        # object identity (and with it any shared-subtree DAG structure
        # the compiler CSEs).
        if rewritten is current or rewritten == current:
            return current
        current = rewritten
    return current


def _rewrite(expr: E.RelExpr) -> E.RelExpr:
    expr = _rewrite_children(expr)

    if isinstance(expr, E.Select):
        predicate = simplify_predicate(expr.predicate)
        if predicate is S.TRUE:
            return expr.input
        if predicate is S.FALSE:
            return E.Values([])
        # σp(σq(x)) → σ(p ∧ q)(x)
        if isinstance(expr.input, E.Select):
            return _rewrite(
                E.Select(
                    expr.input.input,
                    S.conjunction([expr.input.predicate, predicate]),
                )
            )
        # σp(δ(x)) → δ(σp(x))
        if isinstance(expr.input, E.Distinct):
            return _rewrite(
                E.Distinct(E.Select(expr.input.input, predicate))
            )
        source = expr.input
        # σp(x ∪ y) → σp(x) ∪ σp(y) when every branch carries p's
        # columns (∪ pads a missing one with None, which σ below the
        # union would not see); σp(x − y) → σp(x) − σp(y) likewise.
        if (
            isinstance(source, E.UnionAll) and all(
                _carries(b, predicate) for b in union_branches(source)
            )
            or isinstance(source, E.Difference) and all(
                _carries(b, predicate) for b in source.inputs()
            )
        ):
            return _rewrite(type(source)(
                *(E.Select(side, predicate) for side in source.inputs())
            ))
        # σp(ρ(x)) → ρ(σp(x)) for an injective rename that leaves p's
        # columns alone.
        if (
            isinstance(source, E.Rename)
            and _static_cols(source) is not None
            and _carries(source.input, predicate)
            and all(source.mapping.get(c, c) == c
                    for c in predicate.columns())
        ):
            return _rewrite(
                E.Rename(E.Select(source.input, predicate), source.mapping)
            )
        if isinstance(source, E.Join):
            pushed = _push_select_into_join(source, predicate)
            if pushed is not None:
                return _rewrite(pushed)
        # σp(π(x)): first partially evaluate p against literal outputs
        # (this statically prunes union branches whose discriminator —
        # e.g. the $type a query-view branch pins — contradicts p)...
        if isinstance(expr.input, E.Project):
            literal_bindings = {
                name: scalar
                for name, scalar in expr.input.outputs
                if isinstance(scalar, S.Lit)
            }
            if literal_bindings and (
                predicate.columns() & set(literal_bindings)
            ):
                predicate = simplify_predicate(
                    _partial_eval(
                        _substitute_columns(predicate, literal_bindings)
                    )
                )
                if predicate is S.TRUE:
                    return expr.input
                if predicate is S.FALSE:
                    return E.Values([])
            # ...then push through when p reads only pass-through columns.
            passthrough = {
                name
                for name, scalar in expr.input.outputs
                if isinstance(scalar, S.Col) and scalar.name == name
            }
            if predicate.columns() <= passthrough:
                return _rewrite(
                    E.Project(
                        E.Select(expr.input.input, predicate),
                        expr.input.outputs,
                    )
                )
        if predicate is expr.predicate or predicate == expr.predicate:
            return expr
        return E.Select(expr.input, predicate)

    if isinstance(expr, E.Project):
        # identity projection over known-output input
        if all(
            isinstance(s, S.Col) and s.name == name for name, s in expr.outputs
        ):
            inner_names = _static_cols(expr.input)
            if inner_names is not None and list(expr.output_names) == list(
                inner_names
            ):
                return expr.input
        # π(π(x)) → π(x) with composed scalars
        if isinstance(expr.input, E.Project):
            inner = dict(expr.input.outputs)
            composed = []
            for name, scalar in expr.outputs:
                composed.append((name, _substitute_columns(scalar, inner)))
            return E.Project(expr.input.input, composed)
        return expr

    if isinstance(expr, E.Rename):
        mapping = {o: n for o, n in expr.mapping.items() if o != n}
        if not mapping:
            return expr.input
        if len(mapping) == len(expr.mapping):
            return expr
        return E.Rename(expr.input, mapping)

    if isinstance(expr, E.Join):
        return _recognize_equi_join(expr)

    if isinstance(expr, E.UnionAll):
        if _is_empty(expr.left):
            return expr.right
        if _is_empty(expr.right):
            return expr.left
        return expr

    if isinstance(expr, E.Distinct):
        if isinstance(expr.input, E.Distinct):
            return expr.input
        if _is_empty(expr.input):
            return E.Values([])
        return expr

    return expr


def _rewrite_children(expr: E.RelExpr) -> E.RelExpr:
    """``expr`` over its rewritten inputs: ``expr`` itself when none
    changed."""
    inputs = expr.inputs()
    if not inputs:
        return expr
    return _replace_children(expr, [_rewrite(c) for c in inputs])


def _carries(expr: E.RelExpr, predicate: S.Predicate) -> bool:
    """Every row of ``expr`` statically carries ``predicate``'s columns."""
    cols = _static_cols(expr)
    return cols is not None and predicate.columns() <= set(cols)


def _push_select_into_join(
    join: E.Join, predicate: S.Predicate
) -> Optional[E.RelExpr]:
    """σp(x ⋈ y) for an inner join with statically known sides: each
    conjunct moves to the side owning its columns (left wins a shared
    name, as in the join's output); ``col = value`` on an equi-join key
    also crosses the key, since joined pairs agree on it.  ``None``
    when nothing moves."""
    if join.kind != "inner":
        return None
    left_cols = _static_cols(join.left)
    right_cols = _static_cols(join.right)
    if left_cols is None or right_cols is None:
        return None
    left_set = set(left_cols)
    right_only = set(right_cols) - left_set
    pairs, residual = split_join_predicate(join.predicate)
    if residual is not None:
        pairs = []
    to_left, to_right, kept = [], [], []
    operands = (
        predicate.operands if isinstance(predicate, S.And) else (predicate,)
    )
    for conjunct in operands:
        cols = conjunct.columns()
        eq = eq_test(conjunct)
        if cols and cols <= left_set:
            to_left.append(conjunct)
            if eq is not None:
                to_right.extend(
                    S.Comparison("=", S.Col(rcol), eq[1])
                    for lcol, rcol in pairs
                    if lcol == eq[0]
                )
        elif cols and cols <= right_only:
            to_right.append(conjunct)
            if eq is not None:
                to_left.extend(
                    S.Comparison("=", S.Col(lcol), eq[1])
                    for lcol, rcol in pairs
                    if rcol == eq[0]
                )
        else:
            kept.append(conjunct)
    if not to_left and not to_right:
        return None
    left, right = (
        E.Select(side, S.conjunction(moved)) if moved else side
        for side, moved in ((join.left, to_left), (join.right, to_right))
    )
    joined = E.Join(left, right, join.predicate, join.kind, join.right_prefix)
    return E.Select(joined, S.conjunction(kept)) if kept else joined


def _is_empty(expr: E.RelExpr) -> bool:
    return isinstance(expr, E.Values) and not expr.rows


def _recognize_equi_join(expr: E.Join) -> E.Join:
    """Turn ``Comparison('=', Col(a), Col(b))`` conjuncts of a join
    predicate into ``_JoinEq`` pairs when ``a`` and ``b`` provably read
    from opposite sides of the join.

    The join evaluator checks Comparisons against the *combined* row
    (left wins on collisions), so the rewrite is only safe when the
    sides are statically known and distinct: same-named columns, or two
    columns from the same side, keep their Comparison semantics.
    """
    operands = (
        list(expr.predicate.operands)
        if isinstance(expr.predicate, S.And)
        else [expr.predicate]
    )
    col_pairs = [_col_eq_col(operand) for operand in operands]
    if not any(col_pairs):
        return expr
    left_names = _static_cols(expr.left)
    right_names = _static_cols(expr.right)
    if left_names is None or right_names is None:
        return expr
    left_set, right_set = set(left_names), set(right_names)

    def side_of(name: str):
        # Mirrors combined-row lookup order: left wins.
        if name in left_set:
            return "left"
        if name in right_set:
            return "right"
        return None

    changed = False
    rewritten = []
    for operand, col_pair in zip(operands, col_pairs):
        if col_pair is not None:
            a, b = col_pair
            sides = (side_of(a), side_of(b))
            if sides == ("left", "right"):
                rewritten.append(E._JoinEq(a, b))
                changed = True
                continue
            if sides == ("right", "left"):
                rewritten.append(E._JoinEq(b, a))
                changed = True
                continue
        rewritten.append(operand)
    if not changed:
        return expr
    return E.Join(
        expr.left,
        expr.right,
        S.conjunction(rewritten),
        expr.kind,
        expr.right_prefix,
    )


def _col_eq_col(predicate: S.Predicate) -> Optional[tuple[str, str]]:
    """``(a, b)`` for ``Comparison('=', Col(a), Col(b))`` with a ≠ b."""
    if (
        isinstance(predicate, S.Comparison)
        and predicate.op == "="
        and isinstance(predicate.left, S.Col)
        and isinstance(predicate.right, S.Col)
        and predicate.left.name != predicate.right.name
    ):
        return predicate.left.name, predicate.right.name
    return None


def _partial_eval(predicate: S.Predicate) -> S.Predicate:
    """Fold literal sub-predicates (every leaf a ``Lit``, no ``Func``)
    to TRUE/FALSE.  Literal arithmetic and ``IN`` can still raise (1/0,
    'a' + 1, an unhashable value); such a predicate stays unfolded."""
    if not isinstance(predicate, S.Predicate):
        return predicate
    if _is_literal(predicate):
        try:
            return S.TRUE if predicate.eval({}, None) else S.FALSE
        except (ArithmeticError, TypeError):
            return predicate
    if isinstance(predicate, S.And):
        return S.And(*(_partial_eval(p) for p in predicate.operands))
    if isinstance(predicate, S.Or):
        return S.Or(*(_partial_eval(p) for p in predicate.operands))
    if isinstance(predicate, S.Not):
        return S.Not(_partial_eval(predicate.operand))
    return predicate


def _is_literal(scalar: S.Scalar) -> bool:
    """Every leaf of ``scalar`` is a ``Lit`` (or TRUE/FALSE) and it
    calls no ``Func``: a ``Param`` needs the execution's bindings and a
    function may do anything."""
    if isinstance(scalar, (S.Lit, S._Bool)):
        return True
    if isinstance(scalar, (S.Comparison, S.Arith)):
        return _is_literal(scalar.left) and _is_literal(scalar.right)
    if isinstance(scalar, (S.And, S.Or)):
        return all(_is_literal(p) for p in scalar.operands)
    if isinstance(scalar, (S.Not, S.IsNull, S.In)):
        return _is_literal(scalar.operand)
    if isinstance(scalar, S.Case):
        return _is_literal(scalar.default) and all(
            _is_literal(p) and _is_literal(v) for p, v in scalar.whens
        )
    return False


def simplify_predicate(predicate: S.Predicate) -> S.Predicate:
    """Constant-fold TRUE/FALSE through the boolean connectives; a
    predicate nothing folds in comes back as itself."""
    if isinstance(predicate, S.And):
        operands = []
        for operand in predicate.operands:
            simplified = simplify_predicate(operand)
            if simplified is S.FALSE:
                return S.FALSE
            if simplified is S.TRUE:
                continue
            if isinstance(simplified, S.And):
                operands.extend(simplified.operands)
            else:
                operands.append(simplified)
        if not operands:
            return S.TRUE
        if len(operands) == 1:
            return operands[0]
        if _same_operands(operands, predicate.operands):
            return predicate
        return S.And(*operands)
    if isinstance(predicate, S.Or):
        operands = []
        for operand in predicate.operands:
            simplified = simplify_predicate(operand)
            if simplified is S.TRUE:
                return S.TRUE
            if simplified is S.FALSE:
                continue
            operands.append(simplified)
        if not operands:
            return S.FALSE
        if len(operands) == 1:
            return operands[0]
        if _same_operands(operands, predicate.operands):
            return predicate
        return S.Or(*operands)
    if isinstance(predicate, S.Not):
        inner = simplify_predicate(predicate.operand)
        if inner is S.TRUE:
            return S.FALSE
        if inner is S.FALSE:
            return S.TRUE
        if isinstance(inner, S.Not):
            return inner.operand
        if inner is predicate.operand:
            return predicate
        return S.Not(inner)
    if isinstance(predicate, S.Comparison):
        if isinstance(predicate.left, S.Lit) and isinstance(predicate.right, S.Lit):
            result = predicate.eval({}, None)
            return S.TRUE if result else S.FALSE
    return predicate


def _same_operands(new: list, old: tuple) -> bool:
    return len(new) == len(old) and all(map(operator.is_, new, old))


def _substitute_columns(scalar: S.Scalar, bindings: dict[str, S.Scalar]) -> S.Scalar:
    """Replace column references by the scalars that produce them (used
    when fusing stacked projections)."""
    if isinstance(scalar, S.Col):
        return bindings.get(scalar.name, scalar)
    if isinstance(scalar, S.Lit) or isinstance(scalar, S._Bool):
        return scalar
    if isinstance(scalar, S.Func):
        return S.Func(
            scalar.name,
            [_substitute_columns(a, bindings) for a in scalar.args],
            scalar.fn,
        )
    if isinstance(scalar, S.Arith):
        return S.Arith(
            scalar.op,
            _substitute_columns(scalar.left, bindings),
            _substitute_columns(scalar.right, bindings),
        )
    if isinstance(scalar, S.Comparison):
        return S.Comparison(
            scalar.op,
            _substitute_columns(scalar.left, bindings),
            _substitute_columns(scalar.right, bindings),
        )
    if isinstance(scalar, S.And):
        return S.And(*(_substitute_columns(p, bindings) for p in scalar.operands))
    if isinstance(scalar, S.Or):
        return S.Or(*(_substitute_columns(p, bindings) for p in scalar.operands))
    if isinstance(scalar, S.Not):
        return S.Not(_substitute_columns(scalar.operand, bindings))
    if isinstance(scalar, S.IsNull):
        return S.IsNull(
            _substitute_columns(scalar.operand, bindings), scalar.negated
        )
    if isinstance(scalar, S.In):
        return S.In(_substitute_columns(scalar.operand, bindings), scalar.values)
    if isinstance(scalar, S.Case):
        return S.Case(
            [
                (
                    _substitute_columns(p, bindings),
                    _substitute_columns(v, bindings),
                )
                for p, v in scalar.whens
            ],
            _substitute_columns(scalar.default, bindings),
        )
    return scalar


# ----------------------------------------------------------------------
# cost-based join ordering
# ----------------------------------------------------------------------
def optimize_with_report(
    expr: E.RelExpr,
    instance,
    schema=None,
    corrections=None,
    max_passes: int = 10,
    params: tuple = (),
) -> OptimizationReport:
    """Instance-aware optimization returning both the heuristic and the
    cost-based tree with their estimated costs (``params`` bind the
    tree's ``Param`` slots for the estimator).

    Any failure in the cost phase (unexpected tree shapes, statistics
    errors) falls back to the heuristic tree, bumps the
    ``query.optimizer.errors`` counter and journals a
    ``query.optimizer.fallback`` event — cost-based planning must never
    make a query unrunnable.
    """
    heuristic = (
        _heuristic_fixpoint(expr, max_passes) if max_passes else expr
    )
    try:
        from repro.algebra.estimate import Estimator

        est = Estimator(instance, schema, corrections, params)
        chosen = _cost_walk(heuristic, est)
        heuristic_cost = plan_cost(heuristic, est)
        if chosen is heuristic or chosen == heuristic:
            return OptimizationReport(
                heuristic, heuristic, heuristic_cost, heuristic_cost
            )
        chosen_cost = plan_cost(chosen, est)
        # Re-estimation noise aside, never trade away a cheaper
        # heuristic tree (and keep fingerprints stable on ties).
        if not chosen_cost < heuristic_cost:
            return OptimizationReport(
                heuristic, heuristic, heuristic_cost, heuristic_cost
            )
        return OptimizationReport(
            heuristic, chosen, heuristic_cost, chosen_cost
        )
    except Exception as exc:  # noqa: BLE001 - planning never breaks queries
        _count_optimizer_error(exc)
        return OptimizationReport(heuristic, heuristic, None, None)


def _count_optimizer_error(exc: Exception) -> None:
    from repro.observability.journal import JOURNAL
    from repro.observability.metrics import registry
    from repro.observability.state import STATE

    if STATE.enabled:
        registry.counter("query.optimizer.errors").inc()
        JOURNAL.record("query.optimizer.fallback", error=type(exc).__name__)


def plan_cost(expr: E.RelExpr, est) -> float:
    """Total estimated CPU cost of a tree under the ``COST`` weights.

    ``est`` is an :class:`repro.algebra.estimate.Estimator`; every
    operator contributes (input rows × per-operator weight), hash joins
    price build/probe/output sides separately, and the semi-join shape
    (Distinct right whose columns are exactly the join keys) is priced
    without an output term — which is what makes the search *place*
    semi-joins against the most selective side.
    """
    total = 0.0
    seen: set[int] = set()

    def walk(node: E.RelExpr) -> None:
        nonlocal total
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.inputs():
            walk(child)
        rows = est.rows(node)
        if isinstance(node, E.Join):
            total += _join_step_cost(node, est)
        elif isinstance(node, E.Select):
            total += est.rows(node.input) * COST.pred_weight
        elif isinstance(node, (E.Scan, E.EntityScan, E.Values)):
            total += rows * COST.scan_weight
        elif isinstance(node, (E.Distinct, E.Aggregate, E.Difference)):
            total += (
                est.rows(node.inputs()[0]) * COST.build_weight
                + rows * COST.output_weight
            )
        elif isinstance(node, E.Sort):
            n = max(rows, 1.0)
            total += n * math.log2(n + 1.0) * COST.sort_weight
        else:  # Project/Extend/Rename/UnionAll and future operators
            total += rows * COST.output_weight

    walk(expr)
    return total


def _join_step_cost(join: E.Join, est) -> float:
    """Cost of one join node, excluding its subtrees."""
    left_rows = est.rows(join.left)
    right_rows = est.rows(join.right)
    out_rows = est.rows(join)
    pairs, residual = split_join_predicate(join.predicate)
    if residual is not None:  # nested loop over the cross product
        return (
            left_rows * right_rows * COST.pred_weight
            + out_rows * COST.output_weight
        )
    if not pairs:  # cross join
        return left_rows * COST.probe_weight + out_rows * COST.output_weight
    cost = (
        right_rows * COST.build_weight + left_rows * COST.probe_weight
    )
    # Semi-join shape: Distinct right over exactly the join keys never
    # materializes widened output rows (the executor's semi-join path).
    right_cols = _static_cols(join.right)
    if isinstance(join.right, E.Distinct) and right_cols is not None and set(
        right_cols
    ) == {rcol for _, rcol in pairs}:
        return cost
    return cost + out_rows * COST.output_weight


def mirror_join_fingerprint(expr: E.RelExpr) -> Optional[str]:
    """Fingerprint of the orientation-flipped twin of an inner
    equi-join, or ``None`` when ``expr`` has no commutable twin.

    Cardinality corrections recorded by the adaptive plan cache are
    keyed by subtree fingerprint, which is structural: ``A ⋈ B`` and
    ``B ⋈ A`` hash differently even though they have identical
    cardinality.  Without the mirror key, the join-order search can
    dodge a correction simply by flipping build/probe sides of the
    mis-estimated join — and needs a second divergence round to learn
    what it already measured.
    """
    if not isinstance(expr, E.Join) or expr.kind != "inner":
        return None
    if expr.right_prefix is not None:
        return None
    pairs, residual = split_join_predicate(expr.predicate)
    if residual is not None:
        return None
    flipped = [E._JoinEq(rcol, lcol) for lcol, rcol in pairs]
    mirror = E.Join(
        expr.right, expr.left, S.conjunction(flipped), "inner", None
    )
    return mirror.fingerprint()


def _cost_walk(node: E.RelExpr, est) -> E.RelExpr:
    """Bottom-up walk that reorders every maximal commute-safe join
    region; non-region nodes are rebuilt only when a child changed."""
    if isinstance(node, E.Join):
        reordered = _reorder_region(node, est)
        if reordered is not None:
            return reordered
    children = [_cost_walk(child, est) for child in node.inputs()]
    return _replace_children(node, children)


def _replace_children(
    node: E.RelExpr, children: list[E.RelExpr]
) -> E.RelExpr:
    if all(map(operator.is_, children, node.inputs())):
        return node
    if isinstance(node, E.Select):
        return E.Select(children[0], node.predicate)
    if isinstance(node, E.Project):
        return E.Project(children[0], node.outputs)
    if isinstance(node, E.Extend):
        return E.Extend(children[0], node.name, node.scalar)
    if isinstance(node, E.Join):
        return E.Join(
            children[0], children[1], node.predicate, node.kind,
            node.right_prefix,
        )
    if isinstance(node, E.UnionAll):
        return E.UnionAll(children[0], children[1])
    if isinstance(node, E.Difference):
        return E.Difference(children[0], children[1])
    if isinstance(node, E.Distinct):
        return E.Distinct(children[0])
    if isinstance(node, E.Rename):
        return E.Rename(children[0], node.mapping)
    if isinstance(node, E.Aggregate):
        return E.Aggregate(children[0], node.group_by, node.aggregations)
    if isinstance(node, E.Sort):
        return E.Sort(children[0], node.keys)
    return node


class _JoinClass:
    """One equivalence class of join columns: all member ``(leaf, col)``
    copies are constrained equal by the region's original predicate.

    ``by_leaf`` maps leaf index → column name (one member per leaf —
    regions where a class touches two columns of the same leaf bail
    out)."""

    __slots__ = ("by_leaf", "mask")

    def __init__(self) -> None:
        self.by_leaf: dict[int, str] = {}
        self.mask = 0

    def name_for(self, mask: int) -> str:
        """The member column on the lowest-index leaf inside ``mask``
        (deterministic, and consistent with left-wins reads)."""
        for leaf in sorted(self.by_leaf):
            if mask & (1 << leaf):
                return self.by_leaf[leaf]
        raise KeyError("class does not span mask")


def _reorder_region(root: E.Join, est) -> Optional[E.RelExpr]:
    """Flatten a maximal inner-equi-join region under ``root``, prove
    the reorder safe, and return the cheapest enumerated tree — or
    ``None`` when the region must stay in its written order.

    Safety model (see docs/OPTIMIZER.md): original ``_JoinEq`` edges
    are grounded to the *leftmost* leaf owning each column (matching
    the evaluator's left-wins combined-row reads), grounded endpoints
    are unioned into equivalence classes, and the rebuilt tree emits
    one atom per class at every join whose two sides both contain
    class members.  That keeps every pair of
    same-named copies provably equal at all times, so which copy a
    collision keeps — in any order — cannot change the result.  Any
    shape the proof does not cover (outer joins, prefixed joins, theta
    predicates, leaves with unknowable columns, a class touching one
    leaf twice, ambiguous copies never constrained equal) bails out.
    """
    leaves: list[E.RelExpr] = []
    raw_edges: list[tuple[int, int, int, str, str]] = []

    def flatten(node: E.RelExpr) -> None:
        if (
            isinstance(node, E.Join)
            and node.kind == "inner"
            and node.right_prefix is None
        ):
            pairs, residual = split_join_predicate(node.predicate)
            if residual is None:
                lo = len(leaves)
                flatten(node.left)
                mid = len(leaves)
                flatten(node.right)
                hi = len(leaves)
                for lcol, rcol in pairs:
                    raw_edges.append((lo, mid, hi, lcol, rcol))
                return
        leaves.append(node)

    flatten(root)
    n = len(leaves)
    if n < 2 or n > COST.max_region_leaves:
        return None

    # Resolve each leaf's output column set.  Statically known shapes
    # are exact; bare scans use the statistics layer's seen columns,
    # which cover every current row of the instance being planned for.
    leaf_cols: list[frozenset[str]] = []
    for leaf in leaves:
        static = _static_cols(leaf)
        if static is not None:
            leaf_cols.append(frozenset(static))
        elif isinstance(leaf, E.Scan):
            stats = est.instance.relation_stats(leaf.relation)
            leaf_cols.append(frozenset(stats.columns))
        else:
            return None

    # Union-find over (leaf, column) copies.
    parent: dict[tuple[int, str], tuple[int, str]] = {}

    def find(item: tuple[int, str]) -> tuple[int, str]:
        parent.setdefault(item, item)
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for lo, mid, hi, lcol, rcol in raw_edges:
        lown = next(
            (i for i in range(lo, mid) if lcol in leaf_cols[i]), None
        )
        rown = next(
            (i for i in range(mid, hi) if rcol in leaf_cols[i]), None
        )
        if lown is None or rown is None:
            return None
        root_l, root_r = find((lown, lcol)), find((rown, rcol))
        parent[root_l] = root_r

    # Collision safety: every column owned by two or more leaves must
    # have ALL its copies constrained into one class, else reordering
    # could change which (unequal) copy the merge keeps.
    owners: dict[str, list[int]] = {}
    for i, cols in enumerate(leaf_cols):
        for name in cols:
            owners.setdefault(name, []).append(i)
    for name, holder in owners.items():
        if len(holder) > 1:
            roots = {find((i, name)) for i in holder}
            if len(roots) > 1:
                return None

    classes: dict[tuple[int, str], _JoinClass] = {}
    for item in list(parent):
        cls = classes.setdefault(find(item), _JoinClass())
        leaf, name = item
        if leaf in cls.by_leaf and cls.by_leaf[leaf] != name:
            return None  # class touches two columns of one leaf
        cls.by_leaf[leaf] = name
        cls.mask |= 1 << leaf
    class_list = [c for c in classes.values() if len(c.by_leaf) > 1]

    new_leaves = [_cost_walk(leaf, est) for leaf in leaves]
    if n <= COST.dp_max_leaves:
        return _dp_order(new_leaves, class_list, est)
    return _greedy_order(new_leaves, class_list, est)


def _join_subsets(
    left_tree: E.RelExpr,
    left_mask: int,
    right_tree: E.RelExpr,
    right_mask: int,
    classes: list[_JoinClass],
) -> E.Join:
    """Join two enumerated subsets, emitting one atom per equivalence
    class that spans both sides (cross join when none does)."""
    atoms: list[S.Predicate] = []
    for cls in classes:
        if cls.mask & left_mask and cls.mask & right_mask:
            atoms.append(E._JoinEq(
                cls.name_for(left_mask), cls.name_for(right_mask)
            ))
    return E.Join(
        left_tree, right_tree, S.conjunction(atoms), "inner", None
    )


def _dp_order(
    leaves: list[E.RelExpr], classes: list[_JoinClass], est
) -> E.RelExpr:
    """Exhaustive DP over subsets (DPsub).  Ordered (left, right)
    splits are both enumerated, so build-side choice is part of the
    search; cross joins are permitted and priced out naturally."""
    n = len(leaves)
    best: dict[int, tuple[float, E.RelExpr]] = {}
    for i, leaf in enumerate(leaves):
        best[1 << i] = (plan_cost(leaf, est), leaf)
    for mask in range(3, 1 << n):
        if mask & (mask - 1) == 0:
            continue  # singleton
        entry: Optional[tuple[float, E.RelExpr]] = None
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            left = best.get(sub)
            right = best.get(rest)
            if left is not None and right is not None:
                joined = _join_subsets(
                    left[1], sub, right[1], rest, classes
                )
                cost = left[0] + right[0] + _join_step_cost(joined, est)
                if entry is None or cost < entry[0]:
                    entry = (cost, joined)
            sub = (sub - 1) & mask
        assert entry is not None
        best[mask] = entry
    return best[(1 << n) - 1][1]


def _greedy_order(
    leaves: list[E.RelExpr], classes: list[_JoinClass], est
) -> E.RelExpr:
    """Greedy min-est-rows for regions too large for DP: repeatedly
    join the pair of components with the smallest estimated output,
    preferring connected pairs over cross products."""
    components: list[tuple[int, E.RelExpr]] = [
        (1 << i, leaf) for i, leaf in enumerate(leaves)
    ]
    while len(components) > 1:
        best_pick = None  # (connected_rank, rows, i, j, joined)
        for i in range(len(components)):
            for j in range(len(components)):
                if i == j:
                    continue
                mask_i, tree_i = components[i]
                mask_j, tree_j = components[j]
                connected = any(
                    cls.mask & mask_i and cls.mask & mask_j
                    for cls in classes
                )
                joined = _join_subsets(
                    tree_i, mask_i, tree_j, mask_j, classes
                )
                rank = (
                    0 if connected else 1,
                    est.rows(joined),
                    _join_step_cost(joined, est),
                    i,
                    j,
                )
                if best_pick is None or rank < best_pick[0]:
                    best_pick = (rank, i, j, joined)
        _, i, j, joined = best_pick
        merged_mask = components[i][0] | components[j][0]
        components = [
            c for k, c in enumerate(components) if k not in (i, j)
        ]
        components.append((merged_mask, joined))
    return components[0][1]
