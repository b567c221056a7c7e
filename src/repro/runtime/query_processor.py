"""Answering target-schema queries through a mapping.

Two regimes, matching the mapping language:

* **equality / view mappings** — *view unfolding*: the target query's
  scans are substituted by the generated query-view expressions, so the
  query runs directly against the source database (the classical
  wrapper / query-mediator execution path);
* **(SO-)tgd mappings** — *certain answers*: a universal solution is
  materialized by the chase (cached until the source changes) and
  conjunctive queries are naive-evaluated on it, discarding answers
  with labeled nulls (paper, Section 4).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.algebra.evaluator import evaluate
from repro.algebra.expressions import RelExpr
from repro.algebra.optimizer import optimize
from repro.errors import TransformationError
from repro.instances.database import Instance, Row
from repro.logic.certain_answers import certain_answers
from repro.logic.formulas import ConjunctiveQuery
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.operators.compose import unfold_scans
from repro.operators.transgen import TransformationPair, transgen


class QueryProcessor:
    """Query answering over one mapping, source database attached.

    ``engine`` picks the algebra execution engine for every query this
    processor answers (``vectorized``/``interpreted``; None →
    vectorized, see :func:`repro.algebra.evaluate`).  Unfolded views
    are structurally stable, so the vectorized engine's plan cache
    makes repeated queries through one processor compile-once/run-many.
    EXPLAIN always shows the vectorized plan.
    """

    def __init__(
        self,
        mapping: Mapping,
        source: Instance,
        engine: Optional[str] = None,
    ):
        self.mapping = mapping
        self.source = source
        self.engine = engine
        self._views: Optional[dict[str, RelExpr]] = None
        self._universal: Optional[Instance] = None

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop cached state after a source change."""
        self._universal = None

    def _view_definitions(self) -> dict[str, RelExpr]:
        """Relation/entity name → source-side view expression.

        Beyond the generated rules (keyed by root entity), every
        subtype entity gets a definition restricting the root view by
        ``$type`` membership, so ``EntityScan("Employee")`` unfolds too.
        """
        if self._views is None:
            transformation = transgen(self.mapping)
            if not isinstance(transformation, TransformationPair):
                raise TransformationError(
                    "view unfolding requires an equality mapping"
                )
            views = dict(transformation.query_view.rules)
            for entity in self.mapping.target.entities.values():
                if entity.name in views or entity.parent is None:
                    continue
                root = entity.root()
                if root.name not in views:
                    continue
                views[entity.name] = _restrict_to_type(
                    views[root.name], entity
                )
            self._views = views
        return self._views

    def _universal_solution(self) -> Instance:
        if self._universal is None:
            from repro.runtime.executor import exchange

            self._universal = exchange(
                self.mapping, self.source, engine=self.engine
            )
        return self._universal

    # ------------------------------------------------------------------
    @instrumented("runtime.query.algebra", attrs=lambda self, query: {
        "mapping.name": self.mapping.name,
        "source.rows": self.source.total_rows()})
    def answer_algebra(self, query: RelExpr) -> list[Row]:
        """Answer an algebra query phrased over the *target* schema.

        Equality mappings unfold views and evaluate on the source;
        tgd mappings evaluate against the materialized universal
        solution and drop rows containing labeled nulls.
        """
        if self.mapping.equalities:
            # Heuristic rewrites here; the cost-based join-order choice
            # happens inside evaluate's adaptive plan cache (keyed by
            # source-instance stats epoch), so it is not re-done per
            # call and EXPLAIN shows exactly the tree that runs.
            localized = _localize_type_predicates(query, self.mapping.target)
            unfolded = optimize(
                unfold_scans(localized, self._view_definitions())
            )
            return evaluate(
                unfolded, self.source, self.mapping.source, engine=self.engine
            )
        universal = self._universal_solution()
        rows = evaluate(
            query, universal, self.mapping.target, engine=self.engine
        )
        from repro.instances.labeled_null import LabeledNull

        return [
            row
            for row in rows
            if not any(isinstance(v, LabeledNull) for v in row.values())
        ]

    @instrumented("runtime.query.cq", attrs=lambda self, query,
                  *a, **k: {"mapping.name": self.mapping.name,
                            "source.rows": self.source.total_rows()})
    def answer_cq(
        self, query: Union[ConjunctiveQuery, Sequence[ConjunctiveQuery]]
    ) -> list[tuple]:
        """Certain answers of a conjunctive query over the target."""
        return certain_answers(
            query, self._universal_solution(), engine=self.engine
        )

    @instrumented("runtime.query.unfold",
                  attrs=lambda self, query: {
                      "mapping.name": self.mapping.name})
    def unfolded(self, query: RelExpr) -> RelExpr:
        """The source-side rewriting of a target query (for inspection,
        EXPLAIN-style)."""
        localized = _localize_type_predicates(query, self.mapping.target)
        return optimize(unfold_scans(localized, self._view_definitions()))

    def explain(self, query: RelExpr, no_opt: bool = False):
        """EXPLAIN: the compiled plan this processor would run for a
        target query — the unfolded source-side plan for equality
        mappings, the query over the universal solution otherwise.

        Nodes carry cardinality estimates against the instance the
        plan would actually run over; for tgd mappings that instance
        is the materialized universal solution, so estimates only
        appear once it has been computed (plain EXPLAIN never triggers
        an exchange).  ``no_opt`` skips the cost-based join-order
        phase and shows the heuristic plan (``repro explain --no-opt``
        / ``--compare``)."""
        from repro.algebra.explain import explain

        if self.mapping.equalities:
            return explain(
                self.unfolded(query),
                instance=self.source,
                schema=self.mapping.source,
                no_opt=no_opt,
            )
        return explain(
            query,
            instance=self._universal,
            schema=self.mapping.target,
            no_opt=no_opt,
        )

    def explain_analyze(self, query: RelExpr, no_opt: bool = False):
        """EXPLAIN ANALYZE: compile *and run* the plan, annotating
        every node with calls / output rows / wall time (see
        :func:`repro.algebra.explain.explain_analyze`).  tgd mappings
        profile the query over the materialized universal solution
        (null-dropping happens after the profiled plan, as in
        :meth:`answer_algebra`)."""
        from repro.algebra.explain import explain_analyze

        if self.mapping.equalities:
            return explain_analyze(
                self.unfolded(query), self.source, self.mapping.source,
                no_opt=no_opt,
            )
        return explain_analyze(
            query, self._universal_solution(), self.mapping.target,
            no_opt=no_opt,
        )


def _concrete_members(entity) -> set[str]:
    return {
        e.name for e in [entity] + entity.descendants() if not e.is_abstract
    }


def _restrict_to_type(root_view: RelExpr, entity) -> RelExpr:
    from repro.algebra import expressions as E
    from repro.algebra import scalars as S
    from repro.instances.database import TYPE_FIELD

    return E.Select(
        root_view, S.In(S.Col(TYPE_FIELD), _concrete_members(entity))
    )


def _localize_type_predicates(query: RelExpr, target_schema) -> RelExpr:
    """Rewrite ``IsOf`` predicates into schema-free ``$type IN {...}``
    membership tests, so unfolded queries evaluate correctly against
    the *source* database (which knows nothing of the target's is-a
    hierarchy)."""
    from repro.algebra import expressions as E
    from repro.algebra import scalars as S
    from repro.instances.database import TYPE_FIELD

    def rewrite_scalar(scalar):
        if isinstance(scalar, S.IsOf):
            if scalar.entity not in target_schema.entities:
                return scalar
            entity = target_schema.entity(scalar.entity)
            members = (
                {entity.name} if scalar.only else _concrete_members(entity)
            )
            return S.In(S.Col(TYPE_FIELD), members)
        if isinstance(scalar, S.And):
            return S.And(*(rewrite_scalar(p) for p in scalar.operands))
        if isinstance(scalar, S.Or):
            return S.Or(*(rewrite_scalar(p) for p in scalar.operands))
        if isinstance(scalar, S.Not):
            return S.Not(rewrite_scalar(scalar.operand))
        if isinstance(scalar, S.Case):
            return S.Case(
                [(rewrite_scalar(p), rewrite_scalar(v))
                 for p, v in scalar.whens],
                rewrite_scalar(scalar.default),
            )
        return scalar

    def rewrite(expr: RelExpr) -> RelExpr:
        if isinstance(expr, E.Select):
            return E.Select(rewrite(expr.input),
                            rewrite_scalar(expr.predicate))
        if isinstance(expr, E.Project):
            return E.Project(
                rewrite(expr.input),
                [(n, rewrite_scalar(s)) for n, s in expr.outputs],
            )
        if isinstance(expr, E.Extend):
            return E.Extend(rewrite(expr.input), expr.name,
                            rewrite_scalar(expr.scalar))
        if isinstance(expr, E.Join):
            return E.Join(rewrite(expr.left), rewrite(expr.right),
                          rewrite_scalar(expr.predicate), expr.kind,
                          expr.right_prefix)
        if isinstance(expr, E.UnionAll):
            return E.UnionAll(rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, E.Difference):
            return E.Difference(rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, E.Distinct):
            return E.Distinct(rewrite(expr.input))
        if isinstance(expr, E.Rename):
            return E.Rename(rewrite(expr.input), expr.mapping)
        if isinstance(expr, E.Sort):
            return E.Sort(rewrite(expr.input), expr.keys)
        if isinstance(expr, E.Aggregate):
            return E.Aggregate(rewrite(expr.input), expr.group_by,
                               expr.aggregations)
        return expr

    return rewrite(query)
