"""LRU cache of compiled plans, keyed on the structural fingerprints of
query *shapes*.

The mapping runtime executes the same generated views over and over —
every query against a mediated schema unfolds to the same algebra tree,
every exchange re-runs the same TransGen script.  Compiling those trees
once and memoizing the result turns the per-call cost into a dict
lookup.  ``evaluate`` first turns each ``Col = literal`` test into a
``Param`` slot bound at execution (:func:`parameterize`), so point
lookups of different keys share one plan.
Keys are :meth:`RelExpr.fingerprint` digests (structural, so
two independently-built but equal trees share one entry); a hit is
collision-guarded by a structural ``==`` check against the cached
plan's expression, so a digest collision degrades to a miss instead of
returning the wrong plan.

Cache behavior is observable through the metrics registry:
``query.plan_cache.hits`` / ``.misses`` / ``.evictions`` counters and a
``query.plan_cache.size`` gauge, plus the ``query.compile`` span that
:func:`repro.algebra.vectorized.compile_vector_plan` records on every
actual compilation — a warm cache shows hits climbing while the compile
span count stays flat.

On top of the fingerprint-keyed compile cache sits an *adaptive* layer
(:meth:`PlanCache.adaptive_lookup`): entries keyed by ``(fingerprint,
instance stats epoch)`` hold the cost-based optimizer's chosen tree, so
statistics drift re-plans instead of reusing a stale join order, and
:meth:`PlanCache.note_divergence` closes the feedback loop — a plan
whose estimate↔actual divergence is flagged by ``EXPLAIN ANALYZE`` /
an observed ``evaluate`` is evicted and re-optimized with actuals-corrected
cardinalities on the next execution (bounded by ``MAX_REOPTS``).
Evictions are attributed by reason through
``query.plan_cache.evictions.{lru,epoch,reopt}`` and re-planning
through ``query.reopt.scheduled`` / ``query.reopt.applied``.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

from repro.algebra.compiler import PlanNode, eq_test
from repro.algebra.expressions import RelExpr, Select
from repro.algebra.optimizer import _replace_children
from repro.algebra.printer import node_label
from repro.algebra.scalars import And, Comparison, Or, Param, bind_params
from repro.algebra.vectorized import VectorizedPlan, compile_vector_plan
from repro.instances.database import TYPE_FIELD
from repro.observability.metrics import registry
from repro.observability.state import STATE

DEFAULT_CAPACITY = 256

_EVICTION_REASONS = ("lru", "epoch", "reopt")


class _AdaptiveEntry:
    """One cost-optimized plan: the source expression it answers, the
    plan compiled from the optimizer's chosen tree, and both costs for
    ``EXPLAIN`` rendering."""

    __slots__ = ("source", "plan", "chosen_cost", "heuristic_cost",
                 "reordered")

    def __init__(self, source, plan, report):
        self.source = source
        self.plan = plan
        self.chosen_cost = report.chosen_cost
        self.heuristic_cost = report.heuristic_cost
        self.reordered = report.reordered


class _Feedback:
    """Actuals learned about one source fingerprint: per-subtree
    observed row counts and how many re-optimizations they triggered."""

    __slots__ = ("corrections", "reopts")

    def __init__(self):
        self.corrections: dict[str, float] = {}
        self.reopts = 0


class PlanCache:
    """Thread-safe LRU cache mapping expression fingerprints to
    executable :class:`~repro.algebra.vectorized.VectorizedPlan`
    objects."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: "OrderedDict[str, VectorizedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evictions_by_reason = {r: 0 for r in _EVICTION_REASONS}
        # Adaptive layer: (fingerprint, stats epoch) → optimized entry,
        # an index from fingerprint to its live key, and the per-query
        # re-optimization feedback.
        self._opt: "OrderedDict[tuple, _AdaptiveEntry]" = OrderedDict()
        self._opt_index: dict[str, tuple] = {}
        self._feedback: dict[str, _Feedback] = {}
        self.opt_hits = 0
        self.opt_misses = 0
        self.reopts = 0

    def _note_eviction(self, reason: str, count: int = 1) -> None:
        """Attribute evictions by reason (caller holds the lock)."""
        self.evictions += count
        self.evictions_by_reason[reason] += count
        if STATE.enabled:
            registry.counter("query.plan_cache.evictions").inc(count)
            registry.counter(
                f"query.plan_cache.evictions.{reason}"
            ).inc(count)
            from repro.observability.journal import JOURNAL

            JOURNAL.record(
                "plan_cache.eviction", reason=reason, count=count
            )

    def get(self, expr: RelExpr) -> VectorizedPlan:
        """The compiled plan for ``expr``, compiling on miss."""
        return self.lookup(expr)[0]

    def lookup(self, expr: RelExpr) -> tuple[VectorizedPlan, bool]:
        """``(plan, cache_hit)`` — like :meth:`get`, but telling the
        caller whether the plan was already cached (``query`` journal
        events record hit/miss per execution)."""
        fingerprint = expr.fingerprint()
        with self._lock:
            cached = self._plans.get(fingerprint)
            if cached is not None and cached.expr == expr:
                self._plans.move_to_end(fingerprint)
                self.hits += 1
                if STATE.enabled:
                    registry.counter("query.plan_cache.hits").inc()
                return cached, True
        # Compile outside the lock: compilation is pure and the worst
        # case of a race is one redundant compile.
        plan = compile_vector_plan(expr, fingerprint)
        with self._lock:
            self.misses += 1
            self._plans[fingerprint] = plan
            self._plans.move_to_end(fingerprint)
            evicted = 0
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                evicted += 1
            if evicted:
                self._note_eviction("lru", evicted)
            if STATE.enabled:
                registry.counter("query.plan_cache.misses").inc()
                registry.gauge("query.plan_cache.size").set(len(self._plans))
        return plan, False

    # ------------------------------------------------------------------
    # adaptive (cost-based) layer
    # ------------------------------------------------------------------
    def adaptive_lookup(
        self, expr: RelExpr, instance, schema=None, params: tuple = ()
    ) -> tuple[VectorizedPlan, bool]:
        """``(plan, cache_hit)`` with cost-based optimization.

        Entries are keyed by ``(source fingerprint, stats_epoch())`` —
        a statistics change (appends, deletes, ``mark_dirty``)
        supersedes the cached join order instead of silently reusing
        it.  On miss the source tree is optimized against the instance
        (applying any actuals-corrections recorded by
        :meth:`note_divergence`), the chosen tree is compiled through
        the plain fingerprint cache (so two epochs choosing the same
        tree share one compilation), and the result is cached.  Falls
        back to :meth:`lookup` when cost-based planning is disabled or
        the instance has no statistics epoch.  ``params`` bind ``expr``'s
        slots for the estimator; the chosen tree serves every value.
        """
        from repro.algebra.optimizer import COST, optimize_with_report

        epoch_fn = getattr(instance, "stats_epoch", None)
        if not COST.enabled or epoch_fn is None:
            return self.lookup(expr)
        fingerprint = expr.fingerprint()
        key = (fingerprint, epoch_fn())
        with self._lock:
            entry = self._opt.get(key)
            if entry is not None and entry.source == expr:
                self._opt.move_to_end(key)
                self.opt_hits += 1
                self.hits += 1
                if STATE.enabled:
                    registry.counter("query.plan_cache.hits").inc()
                return entry.plan, True
            feedback = self._feedback.get(fingerprint)
            corrections = dict(feedback.corrections) if feedback else None
        # Optimize and compile outside the lock (both are pure).
        report = optimize_with_report(
            expr, instance, schema=schema, corrections=corrections,
            params=params,
        )
        plan, _ = self.lookup(report.chosen)
        if corrections and STATE.enabled:
            registry.counter("query.reopt.applied").inc()
        if report.reordered:
            plan.optimized_from = fingerprint
        with self._lock:
            self.opt_misses += 1
            stale = self._opt_index.get(fingerprint)
            if stale is not None and stale != key and stale in self._opt:
                del self._opt[stale]
                self._note_eviction("epoch")
            self._opt[key] = _AdaptiveEntry(expr, plan, report)
            self._opt.move_to_end(key)
            self._opt_index[fingerprint] = key
            while len(self._opt) > self.capacity:
                old_key, _old = self._opt.popitem(last=False)
                if self._opt_index.get(old_key[0]) == old_key:
                    del self._opt_index[old_key[0]]
                self._note_eviction("lru")
        return plan, False

    def note_divergence(self, expr: RelExpr, plan, profile) -> bool:
        """Adaptive feedback: record the actual per-subtree row counts
        of a divergence-flagged execution and evict the cached entry so
        the next execution re-optimizes with corrected cardinalities.

        Bounded per source fingerprint by ``MAX_REOPTS``, and a
        no-op when the profile teaches nothing new (so a plan that
        stays divergent — e.g. inherently correlated predicates — stops
        churning once its corrections converge).  Nodes the run never
        called (a run redone on the interpreter profiles its root only)
        teach nothing.  Returns ``True`` when a re-optimization was
        scheduled.
        """
        from repro.algebra.optimizer import (
            COST,
            MAX_REOPTS,
            mirror_join_fingerprint,
        )

        if profile is None or not COST.enabled:
            return False
        corrections: dict[str, float] = {}
        for node in plan.nodes:
            if node.expr is not None and profile.calls(node.node_id):
                actual = float(profile.rows_out(node.node_id))
                corrections[node.expr.fingerprint()] = actual
                # Inner equi-joins commute; key the correction under
                # both orientations so re-optimization cannot dodge it
                # by flipping build/probe sides.
                mirror = mirror_join_fingerprint(node.expr)
                if mirror is not None:
                    corrections[mirror] = actual
        if not corrections:
            return False
        fingerprint = expr.fingerprint()
        with self._lock:
            feedback = self._feedback.get(fingerprint)
            if feedback is None:
                if len(self._feedback) >= self.capacity:
                    self._feedback.pop(next(iter(self._feedback)))
                feedback = self._feedback.setdefault(
                    fingerprint, _Feedback()
                )
            if feedback.reopts >= MAX_REOPTS:
                return False
            if all(
                feedback.corrections.get(k) == v
                for k, v in corrections.items()
            ):
                return False
            feedback.corrections.update(corrections)
            feedback.reopts += 1
            self.reopts += 1
            key = self._opt_index.pop(fingerprint, None)
            if key is not None and key in self._opt:
                del self._opt[key]
                self._note_eviction("reopt")
            if STATE.enabled:
                registry.counter("query.reopt.scheduled").inc()
                from repro.observability.journal import JOURNAL

                JOURNAL.record(
                    "query.reopt.scheduled",
                    fingerprint=fingerprint[:12],
                    corrections=len(corrections),
                    reopts=feedback.reopts,
                )
        return True

    def adaptive_report(self, expr: RelExpr):
        """Cost metadata of the live adaptive entry for ``expr``
        (chosen/heuristic cost, whether it was reordered, re-opt
        count), or ``None``."""
        fingerprint = expr.fingerprint()
        with self._lock:
            key = self._opt_index.get(fingerprint)
            entry = self._opt.get(key) if key is not None else None
            if entry is None or entry.source != expr:
                return None
            feedback = self._feedback.get(fingerprint)
            return {
                "chosen_cost": entry.chosen_cost,
                "heuristic_cost": entry.heuristic_cost,
                "reordered": entry.reordered,
                "reopts": feedback.reopts if feedback else 0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, expr: RelExpr) -> bool:
        with self._lock:
            cached = self._plans.get(expr.fingerprint())
        return cached is not None and cached.expr == expr

    def clear(self) -> None:
        """Drop every cached plan and reset the statistics (the cache
        holds no references into instances, so invalidation is only
        needed when function *semantics* behind a ``Func`` name change)."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.evictions_by_reason = {r: 0 for r in _EVICTION_REASONS}
            self._opt.clear()
            self._opt_index.clear()
            self._feedback.clear()
            self.opt_hits = 0
            self.opt_misses = 0
            self.reopts = 0
            if STATE.enabled:
                registry.gauge("query.plan_cache.size").set(0)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._plans),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "evictions_by_reason": dict(self.evictions_by_reason),
                "adaptive_size": len(self._opt),
                "adaptive_hits": self.opt_hits,
                "adaptive_misses": self.opt_misses,
                "reopts": self.reopts,
            }


def parameterize(expr: RelExpr, params: tuple = ()) -> tuple[RelExpr, tuple]:
    """``(shape, values)``: ``expr`` with each ``Col = literal`` test in a
    selection predicate made a ``Param`` slot, and the slots' values
    after ``params`` (those of the slots ``expr`` already has).

    Queries differing only in such literals share one shape and one
    plan.  ``$type`` literals stay: they drive the optimizer's static
    pruning of union branches.  Memoized on ``expr`` (expressions are
    immutable), so a reused tree pays for the walk once."""
    memo = getattr(expr, "_shape_memo", None)
    if memo is not None and memo[0] == len(params):
        shape = expr if memo[1] is None else memo[1]
        return shape, params + memo[2]
    hoisted: list = []
    base = len(params)

    def hoist(scalar):
        if isinstance(scalar, (And, Or)):
            operands = [hoist(p) for p in scalar.operands]
            if all(new is old for new, old in zip(operands, scalar.operands)):
                return scalar
            return type(scalar)(*operands)
        test = eq_test(scalar)
        if test is None or test[0] == TYPE_FIELD or isinstance(
            test[1], Param
        ):
            return scalar
        slot = Param(base + len(hoisted))
        hoisted.append(test[1].value)
        if scalar.left is test[1]:
            return Comparison("=", slot, scalar.right)
        return Comparison("=", scalar.left, slot)

    shape = _map_selections(expr, hoist)
    values = tuple(hoisted)
    # No self-reference when nothing was hoisted: a cycle would leave
    # the tree to the cyclic collector.
    expr._shape_memo = (base, None if shape is expr else shape, values)
    return shape, params + values


def bind_plan(plan: VectorizedPlan, params: tuple) -> VectorizedPlan:
    """``plan`` as it runs for ``params``: the same pipeline, with the
    slots' values in place of the slots in its expression and in every
    node's anchor and label — the tree EXPLAIN renders and the
    estimator scores."""
    if not params:
        return plan
    memo: dict = {}

    def bind(expr):
        return bind_tree(expr, params, memo)

    view = copy.copy(plan)
    view.expr = bind(plan.expr)
    view.nodes = [
        node if node.expr is None else PlanNode(
            node.node_id, node_label(bound := bind(node.expr)),
            node.strategy, list(node.children), node.shared, expr=bound,
        )
        for node in plan.nodes
    ]
    view._annotate_memo = None
    return view


def bind_tree(expr: RelExpr, params: tuple, memo=None) -> RelExpr:
    """``expr`` with the values of its slots in place of the slots."""
    return _map_selections(
        expr, lambda scalar: bind_params(scalar, params), memo
    )


def _map_selections(expr: RelExpr, fn, memo=None) -> RelExpr:
    """``expr`` with each selection predicate replaced by ``fn(p)``;
    unchanged subtrees keep their identity, shared ones stay shared."""
    if memo is None:
        memo = {}

    def walk(node):
        done = memo.get(id(node))
        if done is not None:
            return done[1]
        rebuilt = _replace_children(node, [walk(c) for c in node.inputs()])
        if isinstance(rebuilt, Select):
            predicate = fn(rebuilt.predicate)
            if predicate is not rebuilt.predicate:
                rebuilt = Select(rebuilt.input, predicate)
        memo[id(node)] = (node, rebuilt)
        return rebuilt

    return walk(expr)


#: Process-wide cache used by ``evaluate`` and ``explain``.
GLOBAL_VECTOR_PLAN_CACHE = PlanCache()


def cached_vector_plan(expr: RelExpr) -> VectorizedPlan:
    """Fetch ``expr``'s plan from the process-wide cache."""
    return GLOBAL_VECTOR_PLAN_CACHE.get(expr)


def clear_plan_cache() -> None:
    GLOBAL_VECTOR_PLAN_CACHE.clear()


def plan_cache_stats() -> dict[str, int]:
    """Stats of an empty cache: the process has one plan cache, whose
    counters :func:`vector_plan_cache_stats` reports.  Kept so callers
    that add both caches' counters count each event once."""
    return PlanCache().stats()


def vector_plan_cache_stats() -> dict[str, int]:
    return GLOBAL_VECTOR_PLAN_CACHE.stats()
