"""The chase: computing universal solutions for data exchange.

Given a source instance and a set of dependencies, the chase extends
the instance until all dependencies are satisfied, inventing labeled
nulls for existential variables.  The result is a *universal solution*
(paper, Section 4): it has a homomorphism into every solution, so
evaluating a conjunctive query on it (and discarding rows with nulls)
yields exactly the certain answers.

This is the *standard* (restricted) chase: a tgd fires only when its
head is not already satisfied, which keeps results small and guarantees
termination for weakly acyclic dependency sets.
:func:`is_weakly_acyclic` implements the classical position-graph test.

Two engines live here:

* :func:`chase` — the **semi-naive (delta-driven)** engine.  Each round
  enumerates only triggers that touch at least one row inserted (or
  rewritten by an egd merge) in the previous round, via per-dependency
  body-atom → relation subscriptions; round 0 seeds with a full
  enumeration.  Head-satisfaction for full tgds is a frozen-row
  membership test against the instance's incrementally maintained
  projection sets; existential heads keep the homomorphism-extension
  test (it cannot be expressed as plain membership) but memoize it per
  frontier assignment.  Egd equalities are batched per round into a
  union-find over labeled nulls and applied in a single substitution
  pass driven by a null → row occurrence index.  Per-round work is
  proportional to the *delta*, not to the whole instance.  Full tgds
  with a single body atom, no function terms and head atoms on
  distinct relations take a fused per-row lane
  (:class:`_FullTGDLane`): the trigger *is* the row, so matching, the
  satisfaction probe and the head build run in one loop without
  building assignment dicts.

* :func:`naive_chase` — the original Gauss–Seidel engine kept verbatim
  as the reference implementation: equivalence tests assert the
  semi-naive result is hom-equivalent to it, and
  ``benchmarks/bench_chase_scaling.py`` uses it as the speedup
  baseline.

Both produce universal solutions; for non-full tgds the instances may
differ syntactically but are homomorphically equivalent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.errors import ChaseFailure, ChaseNonTermination
from repro.instances.database import Instance, Row, hashable_key
from repro.instances.labeled_null import LabeledNull, NullFactory
from repro.logic.dependencies import EGD, TGD, Dependency
from repro.logic.homomorphism import find_homomorphism, iter_homomorphisms
from repro.logic.terms import Const, Var
from repro.observability.state import STATE as _OBS


@dataclass
class ChaseStats:
    """Observability counters for one chase run.

    * ``rounds`` — delta rounds executed (round 0 included);
    * ``triggers_examined`` — per-dependency count of trigger
      assignments enumerated (before satisfaction filtering);
    * ``delta_sizes`` — rows inserted or rewritten per round; the run
      stops after the first ``0``;
    * ``merges`` — egd equalities applied (null↦value substitutions);
    * ``index_hits`` / ``index_extends`` / ``index_rebuilds`` — how the
      instance's persistent indexes behaved: a *hit* reused an index
      as-is, an *extend* appended only new rows, a *rebuild* scanned the
      relation from scratch;
    * ``wall_time`` — seconds spent inside the engine;
    * ``dep_wall`` / ``dep_kind`` / ``dep_fired`` — per-dependency
      wall seconds, kind (``tgd`` / ``tgd∃`` / ``egd``), and firing
      (tgd) or applied-equality (egd) counts, keyed like
      ``triggers_examined`` — the raw material of :class:`ChaseProfile`.
    """

    rounds: int = 0
    triggers_examined: dict[str, int] = field(default_factory=dict)
    delta_sizes: list[int] = field(default_factory=list)
    merges: int = 0
    index_hits: int = 0
    index_extends: int = 0
    index_rebuilds: int = 0
    wall_time: float = 0.0
    dep_wall: dict[str, float] = field(default_factory=dict)
    dep_kind: dict[str, str] = field(default_factory=dict)
    dep_fired: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"rounds: {self.rounds}",
            f"delta sizes: {self.delta_sizes}",
            f"merges: {self.merges}",
            f"index hits/extends/rebuilds: "
            f"{self.index_hits}/{self.index_extends}/{self.index_rebuilds}",
            f"wall time: {self.wall_time:.4f}s",
        ]
        for name, count in sorted(self.triggers_examined.items()):
            lines.append(f"  triggers[{name}]: {count}")
        return "\n".join(lines)

    def profile(self) -> "ChaseProfile":
        """The per-dependency EXPLAIN ANALYZE view of this run."""
        return ChaseProfile.from_stats(self)


@dataclass
class ChaseProfile:
    """Per-dependency cost attribution for one chase run — the chase's
    analogue of the query executor's plan profile.

    One entry per dependency (by its ``fired``-dict display name):
    triggers enumerated, firings (tgd) or applied equalities (egd),
    suppressed triggers (enumerated but already satisfied — the
    semi-naive engine's redundancy), and wall milliseconds spent in
    that dependency's enumerate/fire cycle.  Entries sort by wall time
    so the most expensive dependency tops the rendering.
    """

    @dataclass
    class Entry:
        name: str
        kind: str
        examined: int
        fired: int
        wall_ms: float

        @property
        def suppressed(self) -> int:
            return max(0, self.examined - self.fired)

        def to_dict(self) -> dict:
            return {
                "name": self.name,
                "kind": self.kind,
                "triggers_examined": self.examined,
                "fired": self.fired,
                "suppressed": self.suppressed,
                "wall_ms": self.wall_ms,
            }

    entries: list["ChaseProfile.Entry"]
    rounds: int
    merges: int
    total_wall_ms: float

    @classmethod
    def from_stats(cls, stats: "ChaseStats") -> "ChaseProfile":
        names = set(stats.dep_wall) | set(stats.triggers_examined)
        entries = [
            cls.Entry(
                name=name,
                kind=stats.dep_kind.get(name, "?"),
                examined=stats.triggers_examined.get(name, 0),
                fired=stats.dep_fired.get(name, 0),
                wall_ms=stats.dep_wall.get(name, 0.0) * 1000.0,
            )
            for name in names
        ]
        entries.sort(key=lambda e: (-e.wall_ms, e.name))
        return cls(
            entries=entries,
            rounds=stats.rounds,
            merges=stats.merges,
            total_wall_ms=stats.wall_time * 1000.0,
        )

    def render(self) -> str:
        lines = [
            f"chase: {self.rounds} round(s), {self.merges} merge(s), "
            f"{self.total_wall_ms:.2f}ms"
        ]
        width = max(
            (len(e.name) for e in self.entries), default=0
        )
        width = max(width, len("dependency"))
        header = (
            f"  {'dependency'.ljust(width)}  kind  examined  fired  "
            f"suppressed   wall"
        )
        lines.append(header)
        for e in self.entries:
            lines.append(
                f"  {e.name.ljust(width)}  {e.kind:<4}  "
                f"{e.examined:>8}  {e.fired:>5}  {e.suppressed:>10}  "
                f"{e.wall_ms:>5.2f}ms"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "merges": self.merges,
            "total_wall_ms": self.total_wall_ms,
            "dependencies": [e.to_dict() for e in self.entries],
        }


class ChaseRecorder:
    """Optional provenance hooks for one chase run.

    The incremental runtime (:mod:`repro.runtime.incremental`) passes a
    recorder to capture *which trigger derived which rows* while the
    chase runs, so deletions can later be propagated by counting/DRed
    instead of re-chasing.  All hooks default to no-ops; the engine
    calls them only when a recorder is supplied, so plain chases pay
    nothing.
    """

    def on_tgd_fire(
        self,
        dep_index: int,
        tgd: "TGD",
        frontier_key: tuple,
        frontier_items: list,
        rows: list[tuple[str, Row]],
    ) -> None:
        """One tgd firing: the frontier key identifying the trigger,
        the (var, value) frontier bindings, and the stored head rows."""

    def on_egd_union(
        self,
        dep_index: int,
        egd: "EGD",
        body_key: tuple,
        left: object,
        right: object,
    ) -> None:
        """One applied egd equality (union of two distinct classes)."""

    def on_substitution(
        self, positions: list[tuple[str, Row, str, "LabeledNull", object]]
    ) -> None:
        """One in-place merge pass: every rewritten position as
        ``(relation, row, attr, old_null, replacement)``."""


@dataclass
class ChaseResult:
    """Outcome of a chase run."""

    instance: Instance
    steps: int
    fired: dict[str, int] = field(default_factory=dict)
    null_factory: NullFactory = field(default_factory=NullFactory)
    stats: Optional[ChaseStats] = None

    @property
    def nulls_created(self) -> int:
        return len(self.instance.nulls())

    def profile(self) -> Optional["ChaseProfile"]:
        """Per-dependency cost attribution (None when run without
        stats, e.g. from :func:`naive_chase`)."""
        return self.stats.profile() if self.stats is not None else None


def _fresh_factory(instance: Instance) -> NullFactory:
    existing = instance.nulls()
    start = max((n.label for n in existing), default=-1) + 1
    return NullFactory(start)


def _unique_names(dependencies: Sequence[Dependency]) -> list[str]:
    """Collision-free display keys for the ``fired`` dict: unnamed
    dependencies sharing a 60-char ``str()`` prefix get ``#n`` suffixes."""
    names: list[str] = []
    used: dict[str, int] = {}
    for dependency in dependencies:
        base = dependency.name or str(dependency)[:60]
        count = used.get(base, 0)
        used[base] = count + 1
        names.append(base if count == 0 else f"{base}#{count + 1}")
    return names


def chase(
    instance: Instance,
    dependencies: Sequence[Union[TGD, EGD]],
    max_steps: int = 100_000,
    null_factory: Optional[NullFactory] = None,
    copy: bool = True,
    recorder: Optional[ChaseRecorder] = None,
    initial_delta: Optional[dict[str, list[Row]]] = None,
) -> ChaseResult:
    """Chase ``instance`` with ``dependencies`` (semi-naive engine).

    ``recorder`` receives provenance callbacks per firing/merge (see
    :class:`ChaseRecorder`).  ``initial_delta`` replaces round 0's full
    trigger enumeration with delta-pinned enumeration over the given
    rows — callers use it when the instance is already chase-consistent
    except for freshly appended rows, so only triggers touching those
    rows can be active.

    Raises :class:`ChaseFailure` if an egd equates distinct constants
    (no solution exists) and :class:`ChaseNonTermination` as soon as a
    firing beyond the ``max_steps`` budget is attempted (the budget is
    exact — no mid-round overshoot).
    """
    working = instance.copy() if copy else instance
    factory = null_factory or _fresh_factory(working)
    engine = _SemiNaiveChase(working, dependencies, factory, max_steps,
                             recorder=recorder, initial_delta=initial_delta)
    if not _OBS.enabled:
        return engine.run()
    from repro.observability.tracing import tracer

    with tracer.span(
        "logic.chase",
        dependencies=len(dependencies),
        source_rows=working.total_rows(),
    ) as span:
        result = engine.run()
        span.set_attributes(rounds=result.stats.rounds, steps=result.steps)
        _publish_stats(result.stats, result.steps)
    return result


def _publish_stats(stats: "ChaseStats", steps: int) -> None:
    """Re-report one run's :class:`ChaseStats` as registry metrics, so
    chase telemetry aggregates across a whole script or benchmark."""
    from repro.observability.metrics import COUNT_BUCKETS, registry

    registry.counter("chase.runs").inc()
    registry.counter("chase.rounds").inc(stats.rounds)
    registry.counter("chase.steps").inc(steps)
    registry.counter("chase.merges").inc(stats.merges)
    registry.counter("chase.triggers_examined").inc(
        sum(stats.triggers_examined.values())
    )
    registry.counter("chase.index.hits").inc(stats.index_hits)
    registry.counter("chase.index.extends").inc(stats.index_extends)
    registry.counter("chase.index.rebuilds").inc(stats.index_rebuilds)
    delta_histogram = registry.histogram("chase.delta_size", COUNT_BUCKETS)
    for size in stats.delta_sizes:
        delta_histogram.observe(size)
    registry.histogram("chase.wall_ms").observe(stats.wall_time * 1000.0)


class _UnionFind:
    """Union-find over chase values (labeled nulls and constants).

    Constants are sinks: a class may contain at most one constant,
    which becomes its representative; uniting two classes holding
    distinct constants raises :class:`ChaseFailure`.  Among nulls the
    lowest label wins, keeping substitutions deterministic.
    """

    __slots__ = ("parent", "value")

    def __init__(self) -> None:
        self.parent: dict[object, object] = {}
        self.value: dict[object, object] = {}

    def _add(self, item: object) -> object:
        key = hashable_key(item)
        if key not in self.parent:
            self.parent[key] = key
            self.value[key] = item
        return key

    def _find(self, key: object) -> object:
        root = key
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:  # path compression
            parent[key], key = root, parent[key]
        return root

    def union(self, left: object, right: object, context: str) -> bool:
        """Unite the classes of ``left`` and ``right``; True if the
        classes were previously distinct."""
        left_root = self._find(self._add(left))
        right_root = self._find(self._add(right))
        if left_root == right_root:
            return False
        left_value = self.value[left_root]
        right_value = self.value[right_root]
        left_null = isinstance(left_value, LabeledNull)
        right_null = isinstance(right_value, LabeledNull)
        if not left_null and not right_null:
            raise ChaseFailure(
                f"egd {context} equates distinct constants "
                f"{left_value!r} and {right_value!r}"
            )
        if left_null and right_null:
            if left_value.label <= right_value.label:
                root, child = left_root, right_root
            else:
                root, child = right_root, left_root
        elif left_null:
            root, child = right_root, left_root
        else:
            root, child = left_root, right_root
        self.parent[child] = root
        return True

    def substitution(self) -> dict[LabeledNull, object]:
        """null → representative for every non-representative null."""
        mapping: dict[LabeledNull, object] = {}
        for key, item in self.value.items():
            if isinstance(item, LabeledNull):
                root = self._find(key)
                if root != key:
                    mapping[item] = self.value[root]
        return mapping


#: Stand-in for the projection members of an absent head relation
#: (read-only).
_NO_MEMBERS: dict = {}


class _FullTGDLane:
    """A full tgd with one body atom, no function terms and head atoms
    on distinct relations, compiled for :meth:`_SemiNaiveChase._fire_lane`.

    The trigger of such a tgd *is* one body row, so the generic cycle
    (an assignment dict per trigger from ``iter_homomorphisms``, an
    index fetch per satisfaction test, a head row built term by term)
    collapses to: an attribute-presence check, the atom's constant and
    repeated-variable checks, one frontier key, one probe per head atom
    against projection indexes fetched once per call, and head rows
    built from a template.  Distinct head relations mean a row built
    for one head atom can never satisfy another atom's probe, so each
    atom's overlay of freshly built rows is exact on its own.
    """

    __slots__ = ("relation", "required", "const_checks", "eq_checks",
                 "frontier", "frontier_attrs", "heads", "self_feeding")

    @classmethod
    def compile(cls, dependency: Dependency) -> Optional["_FullTGDLane"]:
        if not isinstance(dependency, TGD) or len(dependency.body) != 1:
            return None
        relations = [atom.relation for atom in dependency.head]
        if not relations or len(set(relations)) != len(relations):
            return None
        atom = dependency.body[0]
        var_attr: dict[Var, str] = {}
        const_checks: list[tuple[str, object]] = []
        eq_checks: list[tuple[str, str]] = []
        for attr, term in atom.args:
            if isinstance(term, Const):
                const_checks.append((attr, term.value))
            elif isinstance(term, Var):
                first = var_attr.setdefault(term, attr)
                if first != attr:
                    eq_checks.append((first, attr))
            else:
                return None
        # Per head atom: (relation, attrs, probe parts, build parts).
        # A probe part is (body attr, None) or (None, constant key); a
        # build part is (head attr, body attr, None) or (head attr,
        # None, constant).
        heads = []
        for head_atom in dependency.head:
            probe = []
            build = []
            for attr, term in head_atom.args:
                if isinstance(term, Const):
                    probe.append((None, hashable_key(term.value)))
                    build.append((attr, None, term.value))
                elif isinstance(term, Var) and term in var_attr:
                    probe.append((var_attr[term], None))
                    build.append((attr, var_attr[term], None))
                else:
                    return None  # existential or function term
            attrs = tuple(attr for attr, _ in head_atom.args)
            heads.append((head_atom.relation, attrs, tuple(probe),
                          tuple(build)))
        lane = cls()
        lane.relation = atom.relation
        lane.required = frozenset(attr for attr, _ in atom.args)
        lane.const_checks = tuple(const_checks)
        lane.eq_checks = tuple(eq_checks)
        frontier = sorted(dependency.frontier(), key=lambda v: v.name)
        lane.frontier = tuple((var, var_attr[var]) for var in frontier)
        lane.frontier_attrs = tuple(var_attr[var] for var in frontier)
        lane.heads = tuple(heads)
        lane.self_feeding = atom.relation in relations
        return lane


class _SemiNaiveChase:
    """One run of the delta-driven chase over a working instance."""

    def __init__(
        self,
        instance: Instance,
        dependencies: Sequence[Union[TGD, EGD]],
        factory: NullFactory,
        max_steps: int,
        recorder: Optional[ChaseRecorder] = None,
        initial_delta: Optional[dict[str, list[Row]]] = None,
    ) -> None:
        self.instance = instance
        self.dependencies = list(dependencies)
        self.factory = factory
        self.max_steps = max_steps
        self.recorder = recorder
        self.initial_delta = initial_delta
        self.steps = 0
        self.fired: dict[str, int] = {}
        self.stats = ChaseStats()
        self.names = _unique_names(self.dependencies)
        self.has_egds = any(
            isinstance(d, EGD) for d in self.dependencies
        )
        # Per-dependency precomputation.
        self.body_relations: list[set[str]] = [
            d.body_relations() for d in self.dependencies
        ]
        self.body_variables: list[tuple[Var, ...]] = [
            tuple(sorted(d.body_variables(), key=lambda v: v.name))
            for d in self.dependencies
        ]
        for name, dependency in zip(self.names, self.dependencies):
            if isinstance(dependency, EGD):
                self.stats.dep_kind[name] = "egd"
            elif dependency.is_full:
                self.stats.dep_kind[name] = "tgd"
            else:
                self.stats.dep_kind[name] = "tgd∃"
        self.frontiers: list[tuple[Var, ...]] = []
        self.full_head_shape: list[Optional[list]] = []
        for dependency in self.dependencies:
            if isinstance(dependency, TGD):
                self.frontiers.append(
                    tuple(sorted(dependency.frontier(), key=lambda v: v.name))
                )
                if dependency.is_full:
                    # (relation, attr tuple, term tuple) per head atom,
                    # for the projection-set membership test.
                    shape = []
                    for atom in dependency.head:
                        attrs = tuple(name for name, _ in atom.args)
                        terms = tuple(term for _, term in atom.args)
                        shape.append((atom.relation, attrs, terms))
                    self.full_head_shape.append(shape)
                else:
                    self.full_head_shape.append(None)
            else:
                self.frontiers.append(())
                self.full_head_shape.append(None)
        # Memo of frontier assignments whose head is known satisfied;
        # cleared whenever an egd substitution rewrites rows in place.
        self.satisfied: list[set] = [set() for _ in self.dependencies]
        self.lanes: list[Optional[_FullTGDLane]] = [
            _FullTGDLane.compile(d) for d in self.dependencies
        ]
        # null → {id(row): (relation, row)} occurrence index, maintained
        # only when egds can merge nulls.
        self.null_occurrences: dict[
            LabeledNull, dict[int, tuple[str, Row]]
        ] = {}
        if self.has_egds:
            for relation, rows in instance.relations.items():
                for row in rows:
                    self._record_nulls(relation, row)

    # ------------------------------------------------------------------
    def run(self) -> ChaseResult:
        start = time.perf_counter()
        instance = self.instance
        hits0 = dict(instance.index_stats)
        # None ⇒ full round-0 enumeration; a caller-supplied initial
        # delta restricts round 0 to triggers touching its rows.
        delta: Optional[dict[str, list[Row]]] = self.initial_delta
        while True:
            self.stats.rounds += 1
            inserted: dict[str, list[Row]] = {}
            union_find = _UnionFind() if self.has_egds else None
            merged_any = False
            for index, dependency in enumerate(self.dependencies):
                if delta is not None and not (
                    self.body_relations[index] & delta.keys()
                ):
                    continue
                name = self.names[index]
                dep_start = time.perf_counter()
                lane = self.lanes[index]
                if lane is not None:
                    examined = self._fire_lane(index, lane, delta, inserted)
                else:
                    triggers = list(self._triggers(index, dependency, delta))
                    examined = len(triggers)
                    if isinstance(dependency, TGD):
                        self._fire_tgd(index, dependency, triggers, inserted)
                    elif self._collect_egd(index, dependency, triggers,
                                           union_find):
                        merged_any = True
                self.stats.triggers_examined[name] = (
                    self.stats.triggers_examined.get(name, 0) + examined
                )
                self.stats.dep_wall[name] = (
                    self.stats.dep_wall.get(name, 0.0)
                    + (time.perf_counter() - dep_start)
                )
            modified: list[tuple[str, Row]] = []
            if merged_any:
                modified = self._apply_merges(union_find)
            next_delta: dict[str, list[Row]] = dict(inserted)
            inserted_ids = {
                id(row) for rows in inserted.values() for row in rows
            }
            for relation, row in modified:
                if id(row) not in inserted_ids:
                    next_delta.setdefault(relation, []).append(row)
            delta_size = sum(len(rows) for rows in next_delta.values())
            self.stats.delta_sizes.append(delta_size)
            if _OBS.enabled:
                from repro.observability.journal import journal

                journal(
                    "chase.round",
                    round=self.stats.rounds,
                    delta_rows=delta_size,
                )
            if not next_delta:
                break
            delta = next_delta
        self.stats.wall_time = time.perf_counter() - start
        self.stats.dep_fired = dict(self.fired)
        self.stats.index_hits = instance.index_stats["hits"] - hits0["hits"]
        self.stats.index_extends = (
            instance.index_stats["extends"] - hits0["extends"]
        )
        self.stats.index_rebuilds = (
            instance.index_stats["rebuilds"] - hits0["rebuilds"]
        )
        return ChaseResult(
            instance=instance,
            steps=self.steps,
            fired=self.fired,
            null_factory=self.factory,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # trigger enumeration
    # ------------------------------------------------------------------
    def _triggers(
        self,
        index: int,
        dependency: Dependency,
        delta: Optional[dict[str, list[Row]]],
    ) -> Iterator[dict]:
        body = dependency.body
        if delta is None:
            yield from iter_homomorphisms(body, self.instance)
            return
        variables = self.body_variables[index]
        seen: set = set()
        for position, atom in enumerate(body):
            delta_rows = delta.get(atom.relation)
            if not delta_rows:
                continue
            for assignment in iter_homomorphisms(
                body, self.instance, pinned=(position, delta_rows)
            ):
                key = tuple(
                    [hashable_key(assignment[v]) for v in variables]
                )
                if key in seen:
                    continue
                seen.add(key)
                yield assignment

    # ------------------------------------------------------------------
    # tgds
    # ------------------------------------------------------------------
    def _fire_tgd(
        self,
        index: int,
        tgd: TGD,
        triggers: list[dict],
        inserted: dict[str, list[Row]],
    ) -> None:
        frontier = self.frontiers[index]
        memo = self.satisfied[index]
        name = self.names[index]
        fired = 0
        for assignment in triggers:
            key = tuple([hashable_key(assignment[v]) for v in frontier])
            if key in memo:
                continue
            if self._head_satisfied(index, tgd, assignment):
                memo.add(key)
                continue
            self._charge_step()
            existential_values: dict[Var, LabeledNull] = {}
            head_rows: list[tuple[str, Row]] = []
            for atom in tgd.head:
                row: Row = {}
                for attr, term in atom.args:
                    if isinstance(term, Const):
                        row[attr] = term.value
                    elif isinstance(term, Var):
                        if term in assignment:
                            row[attr] = assignment[term]
                        else:
                            null = existential_values.get(term)
                            if null is None:
                                null = self.factory.fresh(
                                    hint=f"{tgd.name or 'tgd'}.{term.name}"
                                )
                                existential_values[term] = null
                            row[attr] = null
                    else:
                        raise ChaseFailure(
                            "cannot chase second-order tgds directly; "
                            "ground their function terms first"
                        )
                stored = self.instance.insert(atom.relation, row)
                inserted.setdefault(atom.relation, []).append(stored)
                if self.has_egds:
                    self._record_nulls(atom.relation, stored)
                head_rows.append((atom.relation, stored))
            if self.recorder is not None:
                self.recorder.on_tgd_fire(
                    index, tgd, key,
                    [(v, assignment[v]) for v in frontier],
                    head_rows,
                )
            memo.add(key)
            fired += 1
        if fired:
            self.fired[name] = self.fired.get(name, 0) + fired

    def _fire_lane(
        self,
        index: int,
        lane: _FullTGDLane,
        delta: Optional[dict[str, list[Row]]],
        inserted: dict[str, list[Row]],
    ) -> int:
        """Scan, probe and fire a :class:`_FullTGDLane` tgd in one loop
        over its body rows (all of them in round 0, else the delta's).
        Same firings, memo entries, recorder calls and step charges as
        :meth:`_fire_tgd` over the generic triggers; returns the number
        of triggers examined."""
        relations = self.instance.relations
        if delta is None:
            rows = relations.get(lane.relation)
        else:
            rows = delta.get(lane.relation)
        if not rows:
            return 0
        if lane.self_feeding and rows is relations.get(lane.relation):
            rows = list(rows)  # head rows are appended to this very list
        # Per head atom: [probe parts, index members, overlay of the
        # projections this loop derives, build parts, backing list,
        # inserted list]; the two lists are resolved on the first
        # firing so no empty relation is ever created.
        heads = []
        for relation, attrs, probe, build in lane.heads:
            entry = self.instance.projection_entry(relation, attrs)
            members = entry.members if entry is not None else _NO_MEMBERS
            heads.append([probe, members, set(), build, None, None])
        required = lane.required
        const_checks = lane.const_checks
        eq_checks = lane.eq_checks
        fattrs = lane.frontier_attrs
        # One head atom is the common shape and gets a straight-line
        # probe; when that atom reads exactly the frontier attributes
        # in frontier order, the probe value *is* the frontier key.
        single = len(heads) == 1
        probe0, members0, fresh0 = heads[0][:3]
        key_probe = single and probe0 == tuple((a, None) for a in fattrs)
        memo = self.satisfied[index]
        recorder = self.recorder
        tgd = self.dependencies[index]
        has_egds = self.has_egds
        hk = hashable_key
        examined = 0
        fired = 0
        for row in rows:
            if not row.keys() >= required:
                continue
            if const_checks and any(
                row[attr] != value for attr, value in const_checks
            ):
                continue
            if eq_checks and any(
                row[left] != row[right] for left, right in eq_checks
            ):
                continue
            key = tuple([hk(row[a]) for a in fattrs])
            examined += 1
            if key in memo:
                continue
            if single:
                value = key if key_probe else tuple(
                    [hk(row[s]) if s is not None else c for s, c in probe0]
                )
                if value in members0 or value in fresh0:
                    memo.add(key)
                    continue
                values = (value,)
            else:
                values = [
                    tuple([hk(row[s]) if s is not None else c
                           for s, c in head[0]])
                    for head in heads
                ]
                if all(
                    value in head[1] or value in head[2]
                    for head, value in zip(heads, values)
                ):
                    memo.add(key)
                    continue
            self._charge_step()
            head_rows = []
            for (relation, _, _, _), head, value in zip(
                lane.heads, heads, values
            ):
                new_row: Row = {
                    attr: row[s] if s is not None else c
                    for attr, s, c in head[3]
                }
                head[2].add(value)
                if head[4] is None:
                    head[4] = relations.setdefault(relation, [])
                    head[5] = inserted.setdefault(relation, [])
                head[4].append(new_row)
                head[5].append(new_row)
                if has_egds:
                    self._record_nulls(relation, new_row)
                head_rows.append((relation, new_row))
            if recorder is not None:
                recorder.on_tgd_fire(
                    index, tgd, key,
                    [(var, row[attr]) for var, attr in lane.frontier],
                    head_rows,
                )
            memo.add(key)
            fired += 1
        if fired:
            name = self.names[index]
            self.fired[name] = self.fired.get(name, 0) + fired
        return examined

    def _charge_step(self) -> None:
        """Charge one firing against the step budget."""
        if self.steps >= self.max_steps:
            raise ChaseNonTermination(
                f"chase exceeded {self.max_steps} steps; dependency "
                "set is probably not weakly acyclic"
            )
        self.steps += 1

    def _head_satisfied(self, index: int, tgd: TGD, assignment: dict) -> bool:
        shape = self.full_head_shape[index]
        if shape is not None:
            # Full tgd: the head instantiation is fully determined, so
            # satisfaction is plain frozen-row membership per atom.
            instance = self.instance
            for relation, attrs, terms in shape:
                values = tuple(
                    [
                        hashable_key(
                            term.value
                            if isinstance(term, Const)
                            else assignment[term]
                        )
                        for term in terms
                    ]
                )
                if not instance.projection_member(relation, attrs, values):
                    return False
            return True
        partial = {
            var: assignment[var]
            for var in self.frontiers[index]
            if var in assignment
        }
        return (
            find_homomorphism(tgd.head, self.instance, partial=partial)
            is not None
        )

    # ------------------------------------------------------------------
    # egds
    # ------------------------------------------------------------------
    def _collect_egd(
        self,
        index: int,
        egd: EGD,
        triggers: list[dict],
        union_find: _UnionFind,
    ) -> bool:
        name = self.names[index]
        variables = self.body_variables[index]
        merged = 0
        for assignment in triggers:
            for equality in egd.equalities:
                left = _value(equality.left, assignment)
                right = _value(equality.right, assignment)
                if left == right:
                    continue
                if not isinstance(left, LabeledNull) and not isinstance(
                    right, LabeledNull
                ):
                    raise ChaseFailure(
                        f"egd {egd.name or egd} equates distinct constants "
                        f"{left!r} and {right!r}"
                    )
                if union_find.union(left, right, egd.name or str(egd)[:60]):
                    self._charge_step()
                    merged += 1
                    if self.recorder is not None:
                        self.recorder.on_egd_union(
                            index, egd,
                            tuple(
                                hashable_key(assignment[v])
                                for v in variables
                            ),
                            left, right,
                        )
        if merged:
            self.fired[name] = self.fired.get(name, 0) + merged
            self.stats.merges += merged
            return True
        return False

    def _apply_merges(
        self, union_find: _UnionFind
    ) -> list[tuple[str, Row]]:
        """One substitution pass over exactly the rows that mention a
        merged null, via the occurrence index."""
        mapping = union_find.substitution()
        if not mapping:
            return []
        touched: dict[int, tuple[str, Row]] = {}
        positions: list[tuple[str, Row, str, LabeledNull, object]] = []
        for null, replacement in mapping.items():
            occurrences = self.null_occurrences.pop(null, None)
            if not occurrences:
                continue
            for row_id, (relation, row) in occurrences.items():
                for attr, value in row.items():
                    if isinstance(value, LabeledNull) and value == null:
                        row[attr] = replacement
                        if self.recorder is not None:
                            positions.append(
                                (relation, row, attr, null, replacement)
                            )
                touched[row_id] = (relation, row)
                if isinstance(replacement, LabeledNull):
                    self.null_occurrences.setdefault(replacement, {})[
                        row_id
                    ] = (relation, row)
        if self.recorder is not None and positions:
            self.recorder.on_substitution(positions)
        # Rows were rewritten in place: the instance's persistent
        # indexes and the satisfied-frontier memos are both stale.
        self.instance.mark_dirty()
        self.satisfied = [set() for _ in self.dependencies]
        return list(touched.values())

    def _record_nulls(self, relation: str, row: Row) -> None:
        for value in row.values():
            if isinstance(value, LabeledNull):
                self.null_occurrences.setdefault(value, {})[id(row)] = (
                    relation,
                    row,
                )


def _value(term, assignment):
    if isinstance(term, Const):
        return term.value
    return assignment[term]


# ----------------------------------------------------------------------
# reference (seed) engine
# ----------------------------------------------------------------------
def naive_chase(
    instance: Instance,
    dependencies: Sequence[Union[TGD, EGD]],
    max_steps: int = 100_000,
    null_factory: Optional[NullFactory] = None,
    copy: bool = True,
) -> ChaseResult:
    """The original Gauss–Seidel chase, kept as the reference baseline:
    every round re-enumerates all triggers of every dependency over the
    full instance and runs a homomorphism search per trigger for the
    activity test.  Used by equivalence tests and as the benchmark
    baseline for the semi-naive engine."""
    working = instance.copy() if copy else instance
    factory = null_factory or _fresh_factory(working)
    steps = 0
    fired: dict[str, int] = {}
    names = _unique_names(dependencies)

    changed = True
    while changed:
        changed = False
        for index, dependency in enumerate(dependencies):
            if isinstance(dependency, TGD):
                applied = _naive_apply_tgd(working, dependency, factory)
            else:
                applied = _naive_apply_egd(working, dependency)
            if applied:
                changed = True
                name = names[index]
                fired[name] = fired.get(name, 0) + applied
                steps += applied
                if steps > max_steps:
                    raise ChaseNonTermination(
                        f"chase exceeded {max_steps} steps; dependency set "
                        "is probably not weakly acyclic"
                    )
    return ChaseResult(
        instance=working, steps=steps, fired=fired, null_factory=factory
    )


def _naive_apply_tgd(instance: Instance, tgd: TGD, factory: NullFactory) -> int:
    """Fire every active trigger of ``tgd`` once; returns firings."""
    applied = 0
    # Materialize triggers first: firing while iterating would re-trigger.
    triggers = list(iter_homomorphisms(tgd.body, instance))
    frontier = tgd.frontier()
    for assignment in triggers:
        partial = {
            var: value
            for var, value in assignment.items()
            if var in frontier
        }
        if find_homomorphism(tgd.head, instance, partial=partial) is not None:
            continue
        existential_values: dict[Var, LabeledNull] = {}
        for atom in tgd.head:
            row: Row = {}
            for name, term in atom.args:
                if isinstance(term, Const):
                    row[name] = term.value
                elif isinstance(term, Var):
                    if term in assignment:
                        row[name] = assignment[term]
                    else:
                        if term not in existential_values:
                            existential_values[term] = factory.fresh(
                                hint=f"{tgd.name or 'tgd'}.{term.name}"
                            )
                        row[name] = existential_values[term]
                else:
                    raise ChaseFailure(
                        "cannot chase second-order tgds directly; "
                        "ground their function terms first"
                    )
            instance.insert(atom.relation, row)
        applied += 1
    return applied


def _naive_apply_egd(instance: Instance, egd: EGD) -> int:
    """Fire egd triggers, merging values one at a time with a restart
    after every merge.  Constant–constant conflicts raise
    :class:`ChaseFailure`."""
    applied = 0
    while True:
        substitution: Optional[dict[LabeledNull, object]] = None
        for assignment in iter_homomorphisms(egd.body, instance):
            for equality in egd.equalities:
                left = _value(equality.left, assignment)
                right = _value(equality.right, assignment)
                if left == right:
                    continue
                left_null = isinstance(left, LabeledNull)
                right_null = isinstance(right, LabeledNull)
                if not left_null and not right_null:
                    raise ChaseFailure(
                        f"egd {egd.name or egd} equates distinct constants "
                        f"{left!r} and {right!r}"
                    )
                if left_null:
                    substitution = {left: right}
                else:
                    substitution = {right: left}
                break
            if substitution:
                break
        if not substitution:
            return applied
        for rows in instance.relations.values():
            for row in rows:
                for key, value in row.items():
                    if isinstance(value, LabeledNull) and value in substitution:
                        row[key] = substitution[value]
        instance.mark_dirty()
        applied += 1


# ----------------------------------------------------------------------
# weak acyclicity
# ----------------------------------------------------------------------
def is_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    """Position-graph test (Fagin et al.): nodes are (relation,
    attribute) positions; a regular edge goes from each body position of
    a frontier variable to each head position of that variable; a
    *special* edge goes from each body position of a frontier variable
    to each head position of an existential variable in the same atom
    set.  The tgd set is weakly acyclic iff no cycle passes through a
    special edge — and then every chase terminates.
    """
    regular: dict[tuple, set[tuple]] = {}
    special: dict[tuple, set[tuple]] = {}

    def add(edges: dict, src: tuple, dst: tuple) -> None:
        edges.setdefault(src, set()).add(dst)

    for tgd in tgds:
        body_positions: dict[Var, list[tuple]] = {}
        for atom in tgd.body:
            for name, term in atom.args:
                if isinstance(term, Var):
                    body_positions.setdefault(term, []).append(
                        (atom.relation, name)
                    )
        existentials = tgd.existentials()
        head_positions_existential: list[tuple] = []
        head_positions_by_var: dict[Var, list[tuple]] = {}
        for atom in tgd.head:
            for name, term in atom.args:
                if isinstance(term, Var):
                    if term in existentials:
                        head_positions_existential.append((atom.relation, name))
                    else:
                        head_positions_by_var.setdefault(term, []).append(
                            (atom.relation, name)
                        )
        for var, sources in body_positions.items():
            if var not in tgd.frontier():
                continue
            for src in sources:
                for dst in head_positions_by_var.get(var, []):
                    add(regular, src, dst)
                for dst in head_positions_existential:
                    add(special, src, dst)

    # Cycle through a special edge ⇔ some special edge (u, v) with a
    # path from v back to u in the combined graph.
    def reachable(start: tuple) -> set[tuple]:
        seen: set[tuple] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in regular.get(node, set()) | special.get(node, set()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    for src, destinations in special.items():
        for dst in destinations:
            if src == dst or src in reachable(dst):
                return False
    return True
