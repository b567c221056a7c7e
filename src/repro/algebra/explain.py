"""EXPLAIN / EXPLAIN ANALYZE for the query executor.

``explain`` compiles (through the plan cache, exactly like
``evaluate``) and renders the annotated plan tree — which strategy
each node lowered to (``vec_*``), where CSE shares a subtree.
``explain_analyze`` additionally runs the plan with a profile attached
and annotates every node with calls, output rows, inclusive and
exclusive (charge-once) wall time, and CSE-memo hits.

Both accept an optional ``instance``: with one in hand the query is
first run through the cost-based optimizer (the same
``adaptive_lookup`` path ``evaluate`` uses, so EXPLAIN shows exactly
the tree that would execute, with its chosen-vs-heuristic cost in the
header) and the plan's nodes are annotated with ``est_rows`` from the
cardinality estimator (:mod:`repro.algebra.estimate` over the
per-relation statistics service) — plain EXPLAIN shows estimates and
EXPLAIN ANALYZE shows estimate vs. actual with per-node divergence
ratios; nodes beyond ``ESTIMATION.divergence_factor`` are flagged and
the worst one is summarized (the signal the query log records and the
PlanCache feedback loop consumes).  ``no_opt=True`` skips the
cost-based phase and shows the heuristic plan (the CLI's ``repro
explain --no-opt`` / ``--compare``).  Estimation failures never fail
the explain: they are swallowed and counted
(``query.estimate.errors``).

The profile comes from the same pipeline ``evaluate`` runs: every
stage is wrapped in a per-node hook that records only when the run
carries a profile, so the disabled path pays one extra call per node
and no timing (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra import expressions as E
from repro.algebra.compiler import PlanProfile
from repro.algebra.estimate import annotate_plan, worst_divergent
from repro.algebra.plan_cache import (
    GLOBAL_VECTOR_PLAN_CACHE,
    bind_plan,
    bind_tree,
    parameterize,
)
from repro.algebra.printer import render_plan, to_text
from repro.algebra.vectorized import VectorizedPlan
from repro.instances.database import Instance, Row
from repro.metamodel.schema import Schema
from repro.observability import registry
from repro.observability.stats import ESTIMATION


def _estimates_for(
    plan, instance: Optional[Instance], schema: Optional[Schema]
) -> Optional[list]:
    """Annotate ``plan`` against ``instance``, swallowing estimator
    bugs (telemetry must never fail the query path) into the
    ``query.estimate.errors`` counter."""
    if instance is None:
        return None
    try:
        return annotate_plan(plan, instance, schema)
    except Exception:
        registry.counter("query.estimate.errors").inc()
        return None


@dataclass
class ExplainResult:
    """A compiled plan plus its rendering context."""

    expr: E.RelExpr
    plan: VectorizedPlan
    cache_hit: bool
    estimates: Optional[list] = None
    #: Estimated cost of the plan shown / of the heuristic tree, when
    #: the cost-based optimizer scored this query (instance given).
    cost: Optional[float] = None
    heuristic_cost: Optional[float] = None
    #: True when the shown plan is a cost-based reordering of the
    #: written query.
    optimized: bool = False

    def _cost_suffix(self) -> str:
        if self.cost is None:
            return ""
        suffix = f"  cost={self.cost:.0f}"
        if (
            self.heuristic_cost is not None
            and self.heuristic_cost != self.cost
        ):
            ratio = self.heuristic_cost / max(self.cost, 1e-12)
            suffix += (
                f" (heuristic {self.heuristic_cost:.0f}, {ratio:.1f}x)"
            )
        if self.optimized:
            suffix += "  reordered"
        return suffix

    def render(self) -> str:
        header = (
            f"plan {self.plan.fingerprint[:12]}"
            f"  size={self.plan.size}"
            f"  nodes={len(self.plan.nodes)}"
            f"  cache={'hit' if self.cache_hit else 'miss'}"
            + self._cost_suffix()
        )
        tree = render_plan(
            self.plan.nodes, self.plan.root_id, estimates=self.estimates
        )
        return f"{header}\n{tree}"

    def to_dict(self) -> dict:
        nodes = [node.to_dict() for node in self.plan.nodes]
        for position, node in enumerate(nodes):
            # This call's estimates: the cached plan stores none.
            node["est_rows"] = (
                self.estimates[position]
                if self.estimates is not None
                else None
            )
        return {
            "fingerprint": self.plan.fingerprint,
            "size": self.plan.size,
            "cache_hit": self.cache_hit,
            "expression": to_text(self.expr),
            "root_id": self.plan.root_id,
            "cost": self.cost,
            "heuristic_cost": self.heuristic_cost,
            "optimized": self.optimized,
            "nodes": nodes,
        }


@dataclass
class ExplainAnalyzeResult(ExplainResult):
    """An executed plan: the rows it produced, its per-node
    :class:`PlanProfile`, and (when estimates were computed) the worst
    estimate↔actual divergence."""

    profile: PlanProfile = None  # always set by explain_analyze
    rows: list[Row] = None
    worst: Optional[dict] = None

    def render(self) -> str:
        header = (
            f"plan {self.plan.fingerprint[:12]}"
            f"  size={self.plan.size}"
            f"  nodes={len(self.plan.nodes)}"
            f"  cache={'hit' if self.cache_hit else 'miss'}"
            f"  rows={self.profile.result_rows}"
            f"  total={self.profile.total_ms:.2f}ms"
            + self._cost_suffix()
        )
        tree = render_plan(
            self.plan.nodes,
            self.plan.root_id,
            profile=self.profile,
            estimates=self.estimates,
            divergence_factor=ESTIMATION.divergence_factor,
        )
        out = f"{header}\n{tree}"
        if self.worst is not None:
            flag = " ⚠" if self.worst["flagged"] else ""
            out += (
                f"\nworst divergence: #{self.worst['node_id']}"
                f" {self.worst['label']}"
                f"  est={self.worst['est_rows']:.0f}"
                f" actual={self.worst['actual_rows']}"
                f" ×{self.worst['ratio']:.1f}{flag}"
            )
        return out

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["profile"] = self.profile.to_dict()
        data["worst_divergent"] = self.worst
        # The profile's annotated nodes supersede the plain ones.
        for node, plain in zip(data["profile"]["nodes"], data.pop("nodes")):
            node["est_rows"] = plain["est_rows"]
        return data


def _plan_for(
    expr: E.RelExpr,
    instance: Optional[Instance],
    schema: Optional[Schema],
    no_opt: bool,
    params: tuple,
):
    """Resolve the plan EXPLAIN should show: the adaptive cost-based
    plan of the query's shape when an instance is in hand (the tree
    ``evaluate`` would run), or the heuristic compilation with
    ``no_opt`` / without an instance.

    Returns ``(plan, params, cache_hit, cost, heuristic_cost,
    optimized)``, ``params`` binding the plan's slots.
    """
    from repro.algebra.optimizer import COST

    cache = GLOBAL_VECTOR_PLAN_CACHE
    expr, params = parameterize(expr, params)
    if instance is None or not COST.enabled:
        cache_hit = expr in cache
        return cache.get(expr), params, cache_hit, None, None, False
    if no_opt:
        cache_hit = expr in cache
        plan = cache.get(expr)
        cost = None
        try:
            from repro.algebra.estimate import Estimator
            from repro.algebra.optimizer import plan_cost

            cost = plan_cost(expr, Estimator(instance, schema, params=params))
        except Exception:
            registry.counter("query.estimate.errors").inc()
        return plan, params, cache_hit, cost, cost, False
    plan, cache_hit = cache.adaptive_lookup(expr, instance, schema, params)
    report = cache.adaptive_report(expr) or {}
    return (
        plan,
        params,
        cache_hit,
        report.get("chosen_cost"),
        report.get("heuristic_cost"),
        bool(report.get("reordered")),
    )


def explain(
    expr: E.RelExpr,
    instance: Optional[Instance] = None,
    schema: Optional[Schema] = None,
    no_opt: bool = False,
    params: tuple = (),
) -> ExplainResult:
    """Compile ``expr`` (via the process-wide plan cache, like
    ``evaluate``) and return its annotated plan, with the values bound
    to its slots shown in their place.

    With an ``instance``, the cost-based optimizer chooses the tree
    (unless ``no_opt``) and nodes additionally carry cardinality
    estimates from its statistics service."""
    plan, params, cache_hit, cost, heuristic_cost, optimized = _plan_for(
        expr, instance, schema, no_opt, params
    )
    plan = bind_plan(plan, params)
    estimates = _estimates_for(plan, instance, schema)
    return ExplainResult(
        expr=bind_tree(expr, params),
        plan=plan,
        cache_hit=cache_hit,
        estimates=estimates,
        cost=cost,
        heuristic_cost=heuristic_cost,
        optimized=optimized,
    )


def explain_analyze(
    expr: E.RelExpr,
    instance: Instance,
    schema: Optional[Schema] = None,
    no_opt: bool = False,
    params: tuple = (),
) -> ExplainAnalyzeResult:
    """Compile, execute against ``instance``, and return the plan
    annotated with per-node runtime statistics and estimate↔actual
    divergence.

    Profiling works whether or not observability is enabled; when it
    is enabled the run also emits the usual ``query.execute`` span, so
    the profile's total nests inside that span's wall time."""
    plan, params, cache_hit, cost, heuristic_cost, optimized = _plan_for(
        expr, instance, schema, no_opt, params
    )
    plan = bind_plan(plan, params)
    estimates = _estimates_for(plan, instance, schema)
    rows, profile = plan.execute_profiled(instance, schema, params)
    worst = (
        worst_divergent(plan.nodes, profile, estimates)
        if estimates is not None
        else None
    )
    return ExplainAnalyzeResult(
        expr=bind_tree(expr, params),
        plan=plan,
        cache_hit=cache_hit,
        estimates=estimates,
        cost=cost,
        heuristic_cost=heuristic_cost,
        optimized=optimized,
        profile=profile,
        rows=rows,
        worst=worst,
    )
