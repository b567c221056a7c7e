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

* :func:`chase` — the **semi-naive, set-at-a-time** engine.  Each
  dependency — a tgd, an egd, or an implication of a second-order tgd
  — is compiled once (:func:`compile_dependency`) into a positional
  join plan: body variables get tuple slots in sorted-name order, and
  each body atom is a step probing the instance's postings on its
  first constant or bound attribute.  A plan extends a list of
  binding tuples one atom at a time, in the order of the backtracking
  search (:func:`iter_homomorphisms`), so triggers, labeled nulls and
  recorder events are the ones that search yields.  Round 0 enumerates
  every trigger; after that each plan pins each body atom in turn to
  the rows it has not read: those appended since its *mark* (its body
  relations' lengths when it last started, so it reads rows that
  dependencies listed before it fired in the same round) and those the
  last egd merge pass rewrote before the mark.  Each row is read once
  per plan, plus once after each merge that rewrites it.  A tgd's last
  step fires as it scans, checking full head atoms against projection
  indexes and existential ones against postings, each fetched once per
  call plus an overlay of the rows the call fired (or the head atoms'
  own plan when an existential spans atoms), memoized per frontier
  assignment.  A function term in a head is a null memoized on
  (function, arguments) for the run, and an implication's conditions
  filter its triggers: Skolem semantics.  Key egds
  ``R(K, Ȳ₁) & R(K, Ȳ₂) → Ȳ₁ = Ȳ₂`` run as a hash group-by on K.  Egd
  equalities are batched per round into a union-find over labeled nulls
  and applied in one substitution pass driven by a null → row
  occurrence index.

  The plans are the library's one trigger engine: :func:`bindings`
  (with a pinned-delta entry and a ``partial=`` entry of preset
  variables), :func:`triggers` and :func:`distinct` also serve
  incremental maintenance, provenance and :func:`satisfies`, the
  satisfaction check behind ``Mapping.holds_for``.

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
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.errors import ChaseFailure, ChaseNonTermination
from repro.instances.database import Instance, Row, hashable_key
from repro.instances.labeled_null import LabeledNull, NullFactory
from repro.logic.dependencies import EGD, TGD, Dependency
from repro.logic.formulas import Atom
from repro.logic.homomorphism import find_homomorphism, iter_homomorphisms
from repro.logic.terms import Const, FuncTerm, Var
from repro.observability.state import STATE as _OBS


@dataclass
class ChaseStats:
    """Observability counters for one chase run.

    * ``rounds`` — delta rounds executed (round 0 included);
    * ``triggers_examined`` — per-dependency count of trigger
      assignments enumerated before satisfaction filtering: all of them
      in round 0 (or those touching ``initial_delta``), later in each
      run each distinct one touching the rows that dependency has not
      read — appended since it last started, or rewritten by the last
      merge pass (a one-atom body: one per unread row, so each row once
      plus once per merge that rewrites it); a key egd's group-by
      counts the assignments it stands for, not the rows it scans;
    * ``delta_sizes`` — rows inserted, plus older rows rewritten, per
      round; the run stops after the first ``0``;
    * ``merges`` — egd equalities applied (null↦value substitutions);
    * ``index_hits`` / ``index_extends`` / ``index_rebuilds`` — index
      fetches (once per plan step and call): a *hit* reused an index
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


def _unique_names(dependencies: Sequence[Dependency],
                  labels: Optional[Sequence[str]] = None) -> list[str]:
    """Collision-free display keys for the ``fired`` dict: dependencies
    sharing a label (by default the name, else a 60-char ``str()``
    prefix) get ``#n`` suffixes."""
    names: list[str] = []
    used: dict[str, int] = {}
    for base in labels or [d.name or str(d)[:60] for d in dependencies]:
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
    """Chase ``instance`` with ``dependencies`` (semi-naive engine):
    tgds, egds, and the implications of second-order tgds
    (``SecondOrderTGD.runnable``), run with Skolem semantics.

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


def satisfies(instance: Instance, dependencies: Sequence[Dependency]) -> bool:
    """Does ``instance`` satisfy every dependency?  One chase round on a
    zero step budget: the first firing or merge it would make is a
    violation, as is an egd equating distinct constants, so the
    instance is never changed."""
    engine = _SemiNaiveChase(instance, dependencies, NullFactory(), 0)
    try:
        for index, plan in enumerate(engine.plans):
            if plan.kind == "egd":
                engine._collect_egd(index, plan, None, _UnionFind())
            else:
                engine._fire_tgd(index, plan, None)
    except (ChaseFailure, ChaseNonTermination):
        return False
    return True


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


#: :class:`_Step` check kinds: the row's value must equal a constant, a
#: binding slot, or the row's value at another attribute.
_CONST, _BOUND, _SAME = 0, 1, 2


def _getter(indices: tuple) -> Callable:
    """``itemgetter(*indices)`` that returns a tuple for any arity."""
    if len(indices) == 1:
        return lambda item, i=indices[0]: (item[i],)
    return itemgetter(*indices) if indices else (lambda item: ())


class _Step:
    """One atom matched against rows (a plan's body atom, or a head atom
    probed for satisfaction): candidates are the postings of ``probe``,
    the first constant or bound argument, under ``source``, else a scan.
    A match has the ``required`` attributes and passes ``checks`` on
    constants, bound and repeated variables; ``grab`` reads its new
    variables, which ``positions`` (variable or function term → binding
    slot) gains."""

    __slots__ = ("relation", "probe", "source", "required", "checks", "grab")

    def __init__(self, atom: Atom, positions: dict, probe: bool = True):
        self.relation, self.probe, self.source = atom.relation, None, None
        self.required = frozenset(attr for attr, _ in atom.args)
        checks, new = [], {}
        for attr, term in atom.args:
            if isinstance(term, Var) and term not in positions:
                if term in new:
                    checks.append((attr, new[term], _SAME))
                new.setdefault(term, attr)
                continue
            if isinstance(term, Const):
                source = (_CONST, term.value)
            elif term in positions:
                source = (_BOUND, positions[term])
            else:
                raise ChaseFailure(f"cannot match function term {term} "
                                   "against rows")
            if probe and self.probe is None:
                self.probe, self.source = attr, source
            else:
                checks.append((attr, source[1], source[0]))
        for var in new:
            positions[var] = len(positions)
        self.checks = tuple(checks)
        self.grab = _getter(tuple(new.values())) if new else None

    def accepts(self, row: Row, binding: tuple) -> bool:
        return not any(
            row[attr] != source if kind == _CONST
            else binding[source] != row[attr] if kind == _BOUND
            else row[source] != row[attr]
            for attr, source, kind in self.checks
        )


def _extend(step: _Step, bindings: Iterable[tuple],
            rows: Optional[Sequence[Row]], postings: dict) -> Iterator[tuple]:
    """``bindings`` extended by ``step`` over ``rows`` or the postings."""
    required, grab, checks = step.required, step.grab, step.checks
    slot = step.source[1] if rows is None else None
    for binding in bindings:
        for row in (rows if slot is None
                    else postings.get(hashable_key(binding[slot]), ())):
            if row.keys() >= required and (
                not checks or step.accepts(row, binding)
            ):
                yield binding if grab is None else binding + grab(row)


class _KeyGroup:
    """A key egd ``R(K, Ȳ₁) & R(K, Ȳ₂) → Ȳ₁ = Ȳ₂`` (see :func:`key_egd`)
    as a hash group-by on ``key``.  Each attribute is a constant in both
    atoms, a key variable in both, or two variables used nowhere else
    that an equality may equate (first atom's on the left); ``slots``
    reads each body variable from a trigger's first or second row."""

    __slots__ = ("relation", "key", "required", "consts", "values", "slots")

    @classmethod
    def of(cls, egd: EGD, variables: tuple) -> Optional["_KeyGroup"]:
        first, second = egd.body if len(egd.body) == 2 else (None, None)
        other = dict(second.args) if second else {}
        if (first is None or first.relation != second.relation
                or not len(first.args) == len(second.args) == len(other)
                or other.keys() != dict(first.args).keys()):
            return None
        terms = [term for _, term in first.args + second.args]
        group, key, consts, pairs, sides = cls(), [], [], {}, {}
        for attr, left in first.args:
            right = other[attr]
            if isinstance(left, Const) and left == right:
                consts.append((attr, left.value))
            elif not (isinstance(left, Var) and isinstance(right, Var)):
                return None
            elif left == right and terms.count(left) == 2:
                key.append(attr)
                sides[left] = (0, attr)
            elif left != right and terms.count(left) == terms.count(right) == 1:
                pairs[(left, right)] = attr
                sides[left], sides[right] = (0, attr), (1, attr)
            else:
                return None  # a variable used elsewhere
        if not key or any((e.left, e.right) not in pairs
                           for e in egd.equalities):
            return None
        group.relation, group.key = first.relation, tuple(key)
        group.required, group.consts = frozenset(other), tuple(consts)
        group.values = tuple(pairs.values())
        group.slots = tuple(sides[var] for var in variables)
        return group

    def collect(self, rows: Iterable[Row]) -> dict[tuple, list[Row]]:
        """The qualifying rows grouped by key, in first-row order."""
        groups: dict[tuple, list[Row]] = {}
        for row in rows:
            if row.keys() >= self.required and not any(
                row[attr] != value for attr, value in self.consts
            ):
                groups.setdefault(self.project(row, self.key), []).append(row)
        return groups

    @staticmethod
    def project(row: Row, attrs: tuple) -> tuple:
        return tuple([hashable_key(row[attr]) for attr in attrs])


class CompiledDependency:
    """A dependency compiled once for the chase: a tgd, an egd, or an
    implication of a second-order tgd.  ``relations`` lists its body
    relations by name.  ``variables`` (body variables by name) is the
    slot order of bindings and body keys, ``frontier`` (by name) that of
    frontier keys.  A tgd's cells are its ``known`` values
    — the frontier's, then one null per distinct function term
    (``skolems``, memoized per chase run) — the head constants, and a
    fresh null per existential (``hints``); ``templates`` pick head rows
    from them.  ``probes`` check its head atoms — ``(relation, attrs,
    pick)`` projection probes, or :class:`_Step` lookups for existential
    atoms, each fed by the rows of the head atoms ``feeds`` names (none
    when the head is one atom) — unless an existential spans atoms
    (None): then ``head_plan``, the head atoms compiled as a body, is
    searched with the known values preset.  An implication's ``conditions`` filter its triggers."""

    def __init__(self, dependency: Dependency):
        self.dependency, self._variants = dependency, {}
        self.label = dependency.name or str(dependency)[:60]
        body = dependency.body
        self.relations = tuple(sorted({atom.relation for atom in body}))
        self.variables = tuple(sorted(set().union(
            *(atom.variables() for atom in body)), key=lambda v: v.name))
        slots = {var: i for i, var in enumerate(self.variables)}
        self.conditions = tuple((c.left, c.right) for c in getattr(
            dependency, "conditions", ()))
        self.frontier, self.group = (), None
        if isinstance(dependency, EGD):
            self.kind = "egd"
            pairs = [(e.left, e.right) for e in dependency.equalities]
            self.equalities = tuple(
                tuple((None, t.value) if isinstance(t, Const)
                      else (slots[t], None) for t in pair)
                for pair in pairs
            )
            self.group = _KeyGroup.of(dependency, self.variables)
        else:
            self._compile_head(dependency.head, dependency.name, slots)
        self.frontier_set = frozenset(self.frontier)

    def _compile_head(self, head: tuple, name: str, slots: dict) -> None:
        head_variables = set().union(*(atom.variables() for atom in head))
        frontier = tuple(v for v in self.variables if v in head_variables)
        self.fget = None if frontier == self.variables else _getter(
            tuple(slots[var] for var in frontier)
        )
        # A firing's cells: the known values, the head constants, then a
        # fresh null per existential in order of first occurrence (the
        # order they are minted in); each head atom picks its row's cells.
        terms = [term for atom in head for _, term in atom.args]
        self.skolems = tuple(t for t in dict.fromkeys(terms)
                             if isinstance(t, FuncTerm))
        known = frontier + self.skolems
        self.frontier, self.known, width = frontier, known, len(known)
        self.consts = tuple(t.value for t in terms if isinstance(t, Const))
        self.hconsts = tuple(hashable_key(c) for c in self.consts)
        opens = [t for t in dict.fromkeys(terms)
                 if isinstance(t, Var) and t not in frontier]
        self.kind = "tgd∃" if opens or self.skolems else "tgd"
        self.hints = tuple(f"{name or 'tgd'}.{var.name}" for var in opens)
        first_open = width + len(self.consts)
        cell = {term: i for i, term in enumerate(known)}
        cell.update((var, first_open + n) for n, var in enumerate(opens))
        consts = iter(range(width, first_open))  # in order of occurrence
        atoms = [tuple(next(consts) if isinstance(t, Const) else cell[t]
                       for _, t in atom.args) for atom in head]
        self.templates = tuple(
            (atom.relation, tuple(attr for attr, _ in atom.args),
             None if at == tuple(range(len(at))) else _getter(at))
            for atom, at in zip(head, atoms)
        )
        self.self_feeding = any(atom.relation in self.relations
                                for atom in head)
        self.probes, self.feeds = None, tuple(() for _ in atoms)
        existential = [any(i >= first_open for i in at) for at in atoms]
        if sum(len({i for i in at if i >= first_open})
               for at in atoms) > len(opens):
            self.head_plan = CompiledDependency(TGD(body=head))
            return  # an existential spans head atoms
        self.probes = tuple(
            _Step(atom, dict(zip(known, range(width)))) if open_atom
            else (atom.relation, attrs,
                  None if at == tuple(range(width)) else _getter(at))
            for atom, (_, attrs, _), at, open_atom
            in zip(head, self.templates, atoms, existential)
        )
        if len(head) == 1:
            return  # a lone atom's rows match only their own frontier key
        self.feeds = tuple(
            tuple(k for k, probe in enumerate(self.probes)
                  if (probe[0] == relation and set(probe[1]) <= set(attrs)
                      if isinstance(probe, tuple)
                      else probe.relation == relation
                      and probe.probe is not None
                      and probe.required <= set(attrs)))
            for relation, attrs, _ in self.templates
        )

    def variant(self, order: tuple, pinned: bool, preset: tuple = ()) -> tuple:
        """The body's steps in ``order`` (the first reading a pinned
        delta when ``pinned``), with the ``preset`` variables bound in
        the first binding slots, and the map from binding order to slot
        order (None when they agree), compiled once per entry."""
        found = self._variants.get((order, pinned, preset))
        if found is None:
            positions = {var: n for n, var in enumerate(preset)}
            steps = tuple(
                _Step(self.dependency.body[i], positions,
                      probe=not (pinned and n == 0))
                for n, i in enumerate(order)
            )
            perm = tuple(positions[var] for var in self.variables)
            found = (steps, None if perm == tuple(range(len(positions)))
                     else _getter(perm))
            self._variants[(order, pinned, preset)] = found
        return found


def bindings(plan: CompiledDependency, instance: Instance,
             pin: Optional[tuple] = None,
             partial: Optional[dict] = None) -> Iterable[tuple]:
    """Every assignment of ``plan``'s body over ``instance`` as a slot
    tuple, in the order of ``iter_homomorphisms``: the pinned atom
    ``(position, rows)`` first, then the rest by cardinality; each atom
    probes its first constant or bound argument, and the ``partial``
    variables (a dict, like the search's ``partial=``) count as bound.
    Each step fetches its postings once; the last step runs as the
    caller consumes it."""
    body, relations = plan.dependency.body, instance.relations
    order = sorted(range(len(body)), key=lambda i: (
        (0, 0) if pin is not None and i == pin[0]
        else (1, len(relations.get(body[i].relation, ())))))
    steps, out = plan.variant(tuple(order), pin is not None,
                              tuple(partial) if partial else ())
    found: Iterable[tuple] = [tuple(partial.values()) if partial else ()]
    for n, step in enumerate(steps):
        postings = None
        if n == 0 and pin is not None:
            rows = pin[1]
        elif step.probe is None:
            rows = relations.get(step.relation, ())
        else:
            postings = instance.postings(step.relation, step.probe)
            kind, source = step.source
            rows = (postings.get(hashable_key(source), ())
                    if kind == _CONST else None)
        found = _extend(step, found, rows, postings)
        if n < len(steps) - 1:
            found = list(found)
    return found if out is None else map(out, found)


def triggers(plan: CompiledDependency, instance: Instance,
             delta: Optional[dict[str, list[Row]]]) -> Iterable[tuple]:
    """All assignments when ``delta`` is None; else those touching
    ``delta``, each distinct one once (a one-atom body: once per delta
    row)."""
    body = plan.dependency.body
    if delta is None:
        return bindings(plan, instance)
    if len(body) == 1:
        rows = delta.get(body[0].relation)
        return bindings(plan, instance, (0, rows)) if rows else ()
    return distinct(plan, instance, delta)


def distinct(plan: CompiledDependency, instance: Instance,
             delta: dict[str, list[Row]]) -> Iterator[tuple]:
    """The distinct assignments touching ``delta``: each body atom
    pinned to its relation's delta rows in turn."""
    seen: set = set()
    for position, atom in enumerate(plan.dependency.body):
        rows = delta.get(atom.relation)
        if not rows:
            continue
        for binding in bindings(plan, instance, (position, rows)):
            key = tuple(map(hashable_key, binding))
            if key not in seen:
                seen.add(key)
                yield binding


def head_members(plan: CompiledDependency, instance: Instance) -> list:
    """The projection members each of ``plan``'s head probes checks;
    None for a lookup probe, whose postings :func:`head_holds` fetches
    at its first lookup."""
    members = []
    for probe in plan.probes or ():
        if isinstance(probe, tuple):
            entry = instance.projection_entry(probe[0], probe[1])
            members.append({} if entry is None else entry.members)
        else:
            members.append(None)
    return members


def head_holds(plan: CompiledDependency, instance: Instance, key: tuple,
               values: tuple, members: list, overlays) -> bool:
    """Is the head satisfied for the known ``values`` (``key`` their
    hashable form)?  Atom by atom, against ``members`` plus ``overlays``
    (rows fired since they were fetched): a projection probe checks a
    member set (its overlay: a set), an existential atom's lookup the
    postings of its probe attribute, fetched into ``members`` on first
    use (its overlay: rows by probe value; ``()`` for none), and a scan
    the live relation.  When an existential spans atoms, the first
    binding of the head plan under the known values."""
    if plan.probes is None:
        preset = dict(zip(plan.known, values))
        return next(iter(bindings(plan.head_plan, instance, partial=preset)),
                    None) is not None
    for k, probe in enumerate(plan.probes):
        fresh = overlays[k]
        if isinstance(probe, tuple):
            get = probe[2]
            value = key if get is None else get(key + plan.hconsts)
            if value not in members[k] and value not in fresh:
                return False
            continue
        if probe.probe is None:
            rows = instance.relations.get(probe.relation, ())
        else:
            postings = members[k]
            if postings is None:
                postings = members[k] = instance.postings(probe.relation,
                                                          probe.probe)
            kind, source = probe.source
            value = hashable_key(source if kind == _CONST
                                 else values[source])
            rows = postings.get(value, ())
            if fresh and value in fresh:
                rows = [*rows, *fresh[value]]
        if next(_extend(probe, (values,), rows, None), None) is None:
            return False
    return True


@lru_cache(maxsize=1024)
def _compile(dependency: Dependency,
             constant_types: tuple) -> CompiledDependency:
    return CompiledDependency(dependency)


def compile_dependency(dependency: Dependency) -> CompiledDependency:
    """``dependency`` compiled for the chase, cached by value and by the
    types of its constants: equal constants can differ in type
    (``Const(1) == Const(True)``), and a plan writes its own."""
    return _compile(dependency, _constant_types(dependency))


def _constant_types(dependency: Dependency) -> tuple:
    """The type of every constant in ``dependency``, function-term
    arguments included, in a fixed order."""
    terms = [t for atom in dependency.body + getattr(dependency, "head", ())
             for _, t in atom.args]
    for pair in (getattr(dependency, "conditions", ())
                 + getattr(dependency, "equalities", ())):
        terms += (pair.left, pair.right)
    types = []
    while terms:
        term = terms.pop()
        if isinstance(term, Const):
            types.append(type(term.value))
        elif isinstance(term, FuncTerm):
            terms.extend(term.args)
    return tuple(types)


class _SemiNaiveChase:
    """One run of the delta-driven chase over a working instance."""

    def __init__(self, instance: Instance,
                 dependencies: Sequence[Union[TGD, EGD]],
                 factory: NullFactory, max_steps: int,
                 recorder: Optional[ChaseRecorder] = None,
                 initial_delta: Optional[dict[str, list[Row]]] = None):
        self.instance, self.factory, self.max_steps = instance, factory, max_steps
        self.recorder, self.initial_delta = recorder, initial_delta
        self.plans = [compile_dependency(d) for d in dependencies]
        self.steps, self.fired, self.stats = 0, {}, ChaseStats()
        self.appended = 0  # rows the run's firings appended
        self.names = _unique_names(dependencies,
                                   [plan.label for plan in self.plans])
        self.has_egds = any(plan.kind == "egd" for plan in self.plans)
        for name, plan in zip(self.names, self.plans):
            self.stats.dep_kind[name] = plan.kind
        # Memo of frontier assignments whose head is known satisfied;
        # cleared whenever an egd substitution rewrites rows in place.
        self.satisfied: list[set] = [set() for _ in self.plans]
        # (function, argument keys) → its null, for the whole run.
        self.skolems: dict[tuple, LabeledNull] = {}
        # null → {id(row): (relation, position, row)} occurrence index,
        # maintained only when egds can merge nulls.  Relations are
        # append-only inside a run, so a row's position is stable.
        self.null_occurrences: dict[LabeledNull, dict] = {}
        if self.has_egds:
            for relation, rows in instance.relations.items():
                for position, row in enumerate(rows):
                    self._record_nulls(relation, row, position)
        # Each plan's mark: the lengths of its body relations
        # (``relations``) when it last started; the chase's start with an initial delta,
        # else taken as round 0 starts the plan on a full enumeration.
        # The rows past a mark are unread by that plan; so are those the
        # last merge pass rewrote (``rewritten``: relation →
        # [(position, row)]).
        self.marks: list[Optional[tuple]] = [None] * len(self.plans)
        if initial_delta is not None:
            start = {name: len(rows)
                     for name, rows in instance.relations.items()}
            self.marks = [tuple([start.get(name, 0)
                                 for name in plan.relations])
                          for plan in self.plans]
        self.rewritten: dict[str, list[tuple[int, Row]]] = {}

    # ------------------------------------------------------------------
    def run(self) -> ChaseResult:
        start = time.perf_counter()
        instance, stats = self.instance, self.stats
        relations = instance.relations
        hits0 = dict(instance.index_stats)
        # Round 0 enumerates every trigger, unless the caller's initial
        # delta restricts it to the triggers touching those rows.
        full = self.initial_delta is None
        pending = self.initial_delta or {}
        while True:
            stats.rounds += 1
            appended = self.appended
            lengths = ({name: len(rows) for name, rows in relations.items()}
                       if self.has_egds else None)
            union_find = _UnionFind() if self.has_egds else None
            merged_any = False
            for index, plan in enumerate(self.plans):
                if full:
                    delta = None
                    self.marks[index] = tuple([len(relations.get(name, ()))
                                               for name in plan.relations])
                else:
                    delta = self._unread(index, plan, pending)
                    if delta is None:
                        continue
                name = self.names[index]
                dep_start = time.perf_counter()
                if plan.kind != "egd":
                    examined = self._fire_tgd(index, plan, delta)
                else:
                    examined, merged = self._collect_egd(index, plan, delta,
                                                         union_find)
                    if merged:
                        self.fired[name] = self.fired.get(name, 0) + merged
                        stats.merges += merged
                        merged_any = True
                examined += stats.triggers_examined.get(name, 0)
                stats.triggers_examined[name] = examined
                wall = time.perf_counter() - dep_start
                stats.dep_wall[name] = stats.dep_wall.get(name, 0.0) + wall
            self.rewritten = (self._apply_merges(union_find) if merged_any
                              else {})
            # Rows this round inserted, plus older rows it rewrote.
            delta_size = self.appended - appended
            for name, rewritten in self.rewritten.items():
                seen = lengths.get(name, 0)
                delta_size += sum(1 for at, _ in rewritten if at < seen)
            stats.delta_sizes.append(delta_size)
            if _OBS.enabled:
                from repro.observability.journal import journal

                journal("chase.round", round=stats.rounds,
                        delta_rows=delta_size)
            if not delta_size:
                break
            full, pending = False, {}
        stats.wall_time = time.perf_counter() - start
        stats.dep_fired = dict(self.fired)
        for kind in ("hits", "extends", "rebuilds"):
            setattr(stats, f"index_{kind}",
                    instance.index_stats[kind] - hits0[kind])
        return ChaseResult(instance=instance, steps=self.steps,
                           fired=self.fired, null_factory=self.factory,
                           stats=stats)

    def _unread(self, index: int, plan: CompiledDependency,
                pending: dict[str, list[Row]]) -> Optional[dict]:
        """The rows plan ``index`` has not read, by body relation, after
        which its mark moves; None, with the mark kept, when there are
        none.  They are the ``pending`` rows (round 0's initial delta,
        which need not sit at a relation's tail), the rows appended
        since the mark, and the rows the last merge pass rewrote before
        the mark (a rewritten row past it is among the appended ones)."""
        relations, rewritten = self.instance.relations, self.rewritten
        reads, mark = plan.relations, self.marks[index]
        for name, seen in zip(reads, mark):
            if (len(relations.get(name, ())) > seen or name in rewritten
                    or pending.get(name)):
                break
        else:
            return None
        delta, now = {}, []
        for name, seen in zip(reads, mark):
            rows = relations.get(name, ())
            now.append(len(rows))
            rows = rows[seen:]
            if name in pending:
                rows = [*pending[name], *rows] if rows else pending[name]
            if name in rewritten:
                rows = [*rows, *(row for at, row in rewritten[name]
                                 if at < seen)]
            if rows:
                delta[name] = rows
        self.marks[index] = tuple(now)
        return delta

    # ------------------------------------------------------------------
    # tgds
    # ------------------------------------------------------------------
    def _fire_tgd(self, index: int, plan: CompiledDependency,
                  delta: Optional[dict[str, list[Row]]]) -> int:
        """Enumerate, check and fire one tgd's triggers (materialized
        first if the head writes a body relation); returns the count."""
        found = triggers(plan, self.instance, delta)
        if plan.conditions:
            found = filter(self._conditions(plan), found)
        fget = self._known(plan) if plan.skolems else plan.fget
        if plan.self_feeding:
            found = list(found)
        relations = self.instance.relations
        # Head indexes are fetched once (a lookup probe's postings at
        # its first lookup), plus overlays of the rows fired here.  A
        # lone head atom needs none: its rows match only their own
        # frontier key, which the memo has.  A lone full atom is probed
        # inline.
        probes = plan.probes or ()
        members = head_members(plan, self.instance)
        overlays = [set() if isinstance(probe, tuple) else {}
                    for probe in probes]
        single = len(probes) == 1 and isinstance(probes[0], tuple)
        if single:
            get, members0 = probes[0][2], members[0]
        feeds = plan.feeds
        hints, memo = plan.hints, self.satisfied[index]
        templates, consts, hconsts = plan.templates, plan.consts, plan.hconsts
        recorder, has_egds, hk = self.recorder, self.has_egds, hashable_key
        instance = self.instance
        examined = fired = 0
        outputs = [None] * len(templates)
        for binding in found:
            examined += 1
            values = binding if fget is None else fget(binding)
            key = tuple(map(hk, values))
            if key in memo:
                continue
            if single:
                if (key if get is None else get(key + hconsts)) in members0:
                    memo.add(key)
                    continue
            elif head_holds(plan, instance, key, values, members, overlays):
                memo.add(key)
                continue
            self._charge_step()
            cells = values + consts
            if hints:
                cells += tuple([self.factory.fresh(hint=h) for h in hints])
            head_rows = []
            for n, (relation, attrs, pick) in enumerate(templates):
                row = dict(zip(attrs, cells if pick is None else pick(cells)))
                out = outputs[n]
                if out is None:
                    out = outputs[n] = relations.setdefault(relation, [])
                out.append(row)
                for k in feeds[n]:
                    probe = probes[k]
                    if isinstance(probe, tuple):
                        overlays[k].add(tuple(map(hk, map(row.get, probe[1]))))
                    else:
                        overlays[k].setdefault(hk(row[probe.probe]),
                                               []).append(row)
                if has_egds:
                    self._record_nulls(relation, row, len(out) - 1)
                if recorder is not None:
                    head_rows.append((relation, row))
            if recorder is not None:
                recorder.on_tgd_fire(index, plan.dependency, key,
                                     list(zip(plan.frontier, values)),
                                     head_rows)
            memo.add(key)
            fired += 1
        if fired:
            name = self.names[index]
            self.fired[name] = self.fired.get(name, 0) + fired
            self.appended += fired * len(templates)
        return examined

    def _value(self, slots: dict) -> Callable:
        """A term's value under a tuple whose ``slots`` map variables to
        positions.  A function term is a null memoized on (function,
        arguments) for the run: Skolem semantics, so two implications
        inventing ``f(x)`` for the same ``x`` agree."""
        memo, fresh = self.skolems, self.factory.fresh

        def value(term, values: tuple) -> object:
            if isinstance(term, Var):
                return values[slots[term]]
            if isinstance(term, Const):
                return term.value
            key = (term.function, tuple([hashable_key(value(arg, values))
                                         for arg in term.args]))
            null = memo.get(key)
            if null is None:
                null = memo[key] = fresh(hint=term.function)
            return null

        return value

    def _conditions(self, plan: CompiledDependency) -> Callable:
        """Does a binding pass the implication's conditions?"""
        value = self._value({var: i for i, var in enumerate(plan.variables)})
        pairs = plan.conditions
        return lambda binding: all(value(left, binding) == value(right, binding)
                                   for left, right in pairs)

    def _known(self, plan: CompiledDependency) -> Callable:
        """A binding's frontier values followed by its Skolem nulls."""
        value = self._value({var: i for i, var in enumerate(plan.frontier)})
        fget, skolems = plan.fget, plan.skolems

        def known(binding: tuple) -> tuple:
            values = binding if fget is None else fget(binding)
            return values + tuple([value(term, values) for term in skolems])

        return known

    def _charge_step(self) -> None:
        """Charge one firing against the step budget."""
        if self.steps >= self.max_steps:
            raise ChaseNonTermination(
                f"chase exceeded {self.max_steps} steps; dependency "
                "set is probably not weakly acyclic"
            )
        self.steps += 1

    # ------------------------------------------------------------------
    # egds
    # ------------------------------------------------------------------
    def _collect_egd(self, index: int, plan: CompiledDependency,
                     delta: Optional[dict[str, list[Row]]],
                     union_find: _UnionFind) -> tuple[int, int]:
        """Unite every trigger's equalities in the round's union-find;
        returns (examined, united)."""
        if plan.group is None:
            found, examined = triggers(plan, self.instance, delta), None
        else:
            examined, found = self._groups(plan, delta)
        count = merged = 0
        for binding in found:
            count += 1
            for (lslot, lconst), (rslot, rconst) in plan.equalities:
                left = lconst if lslot is None else binding[lslot]
                right = rconst if rslot is None else binding[rslot]
                if left == right:
                    continue
                if not (isinstance(left, LabeledNull)
                        or isinstance(right, LabeledNull)):
                    raise ChaseFailure(
                        f"egd {plan.dependency.name or plan.dependency} "
                        f"equates distinct constants {left!r} and {right!r}"
                    )
                if union_find.union(left, right, plan.label):
                    self._charge_step()
                    merged += 1
                    if self.recorder is not None:
                        self.recorder.on_egd_union(
                            index, plan.dependency,
                            tuple([hashable_key(v) for v in binding]),
                            left, right,
                        )
        return (count if examined is None else examined), merged

    def _groups(self, plan: CompiledDependency,
                delta: Optional[dict[str, list[Row]]]) -> tuple[int, Iterator]:
        """A key egd's triggers by a hash group-by on the key: each group
        paired with its first row (in a later round, its first delta
        row).  These make the backtracking self-join's successful unions
        in its order, so steps, merges and recorder events agree; the
        count returned is that join's (distinct) assignments."""
        group, project = plan.group, plan.group.project
        if delta is None:
            groups = group.collect(self.instance.relations.get(
                group.relation, ()))
            examined = sum(len(rows) ** 2 for rows in groups.values())
            anchored = [(rows[0], rows) for rows in groups.values()]
        else:
            postings = self.instance.postings(group.relation, group.key[0])
            examined, anchored = 0, []
            delta_groups = group.collect(delta.get(group.relation, ()))
            for key, fresh in delta_groups.items():
                rows = group.collect(postings.get(key[0], ())).get(key, [])
                old = {project(row, group.values) for row in rows}
                new = {project(row, group.values) for row in fresh}
                examined += 2 * len(old) * len(new) - len(old & new) ** 2
                anchored.append((fresh[0], rows))
        return examined, (
            tuple([(anchor, row)[side][attr] for side, attr in group.slots])
            for anchor, rows in anchored for row in rows
        )

    def _apply_merges(
        self, union_find: _UnionFind
    ) -> dict[str, list[tuple[int, Row]]]:
        """One substitution pass over exactly the rows that mention a
        merged null, via the occurrence index; returns the rewritten
        rows as relation → [(position, row)]."""
        mapping = union_find.substitution()
        if not mapping:
            return {}
        touched: dict[int, tuple[str, int, Row]] = {}
        positions: list[tuple[str, Row, str, LabeledNull, object]] = []
        for null, replacement in mapping.items():
            occurrences = self.null_occurrences.pop(null, None)
            if not occurrences:
                continue
            for row_id, entry in occurrences.items():
                relation, _, row = entry
                for attr, value in row.items():
                    if isinstance(value, LabeledNull) and value == null:
                        row[attr] = replacement
                        if self.recorder is not None:
                            positions.append(
                                (relation, row, attr, null, replacement)
                            )
                touched[row_id] = entry
                if isinstance(replacement, LabeledNull):
                    self.null_occurrences.setdefault(replacement, {})[
                        row_id
                    ] = entry
        if self.recorder is not None and positions:
            self.recorder.on_substitution(positions)
        # Rows were rewritten in place: the instance's persistent
        # indexes and the satisfied-frontier memos are both stale.
        self.instance.mark_dirty()
        self.satisfied = [set() for _ in self.plans]
        rewritten: dict[str, list[tuple[int, Row]]] = {}
        for relation, position, row in touched.values():
            rewritten.setdefault(relation, []).append((position, row))
        return rewritten

    def _record_nulls(self, relation: str, row: Row, position: int) -> None:
        for value in row.values():
            if isinstance(value, LabeledNull):
                self.null_occurrences.setdefault(value, {})[id(row)] = (
                    relation, position, row,
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
