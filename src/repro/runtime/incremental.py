"""Incremental materialized exchange: delta propagation through the
mapping runtime (paper, Section 5).

Section 5 makes update propagation, replica synchronization and
peer-to-peer chains first-class runtime services, but a service that
re-chases the whole source per update batch costs time proportional to
the *instance*, not the *delta*.  :class:`MaterializedExchange` keeps a
tgd mapping's universal solution materialized and maintains it under
:class:`~repro.runtime.updates.UpdateSet` batches:

* **provenance counts** — while the chase runs, a
  :class:`~repro.logic.chase.ChaseRecorder` captures every trigger
  firing: which ``(dependency, frontier key)`` derived which stored
  rows, and which egd trigger united which null classes (plus the full
  substitution log of in-place rewrites);

* **inserts** seed the semi-naive chase with *only* the delta
  relations (``initial_delta``) — the instance is chase-consistent
  except for the appended rows, so only triggers touching them can be
  active, and the persistent ``(relation, attr)`` indexes extend
  incrementally;

* **deletes** run counting/DRed-style: enumerate the triggers that die
  with the deleted rows (pinned-atom enumeration *before* removal),
  decrement the derivation counts of their head rows, over-delete rows
  whose count reaches zero, cascade, then *rederive* survivors — first
  by reinstating a dead derivation from an alternative body witness
  with the same frontier key (which preserves its labeled nulls), then
  by cross-dependency refiring for rows derivable another way — and
  finish with a repair delta chase over everything that moved.  Every
  trigger comes from the chase's compiled plans (pinned to the deleted
  rows, or with the frontier preset), keyed as the chase recorded it;

* **egd-merge rollback** — an egd-merged null whose last deriving
  trigger dies must come apart again: the union-find substitution log
  is replayed backwards (newest merge first) over the surviving rows,
  and the repair chase re-merges whatever is still justified.  When a
  *later* tgd firing copied the merged value forward (so restoring the
  null would strand a stale constant in a derived row), maintenance
  falls back to a full re-exchange — the one case counting cannot
  handle locally; see docs/RUNTIME_SERVICES.md.

Everything is instrumented with ``runtime.incremental.*`` spans and
``incremental.{reused_rows,rederived,overdeleted,full_reexchange}``
metrics in the observability registry.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExpressivenessError
from repro.instances.database import (
    Instance,
    Row,
    freeze_row,
    hashable_key,
    null_key_label,
)
from repro.instances.labeled_null import LabeledNull, NullFactory
from repro.logic.chase import (
    ChaseRecorder,
    bindings,
    chase,
    compile_dependency,
    distinct,
    head_holds,
    head_members,
)
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.observability.state import STATE as _OBS
from repro.operators.transgen import exchange_dependencies
from repro.runtime.provenance import invert_head
from repro.runtime.updates import UpdateSet, resolve_deletes


class _FallbackNeeded(Exception):
    """Raised internally when counting maintenance cannot proceed and a
    full re-exchange is required (egd rollback would strand a merged
    value inside a later derivation)."""


class _Derivation:
    """One recorded tgd firing: the trigger's frontier bindings and the
    stored rows it derived."""

    __slots__ = ("dep_index", "key", "frontier", "rows", "seq", "alive",
                 "suppressed", "null_keys")

    def __init__(self, dep_index, key, frontier, rows, seq):
        self.dep_index = dep_index
        self.key = key          # frontier key (kept current under merges)
        self.frontier = frontier  # [(Var, value)] in frontier order
        self.rows = rows        # [(relation, stored row)]
        self.seq = seq
        self.alive = True
        self.suppressed = False  # directly deleted: never rederive
        # Null-index keys listing this record (see _index_null); None
        # once the record is dead for good and pruned.
        self.null_keys: Optional[set | tuple] = ()


class _Edge:
    """One applied egd union, keyed by its trigger's body bindings."""

    __slots__ = ("egd_index", "body_key", "left_key", "right_key", "seq",
                 "alive", "null_keys")

    def __init__(self, egd_index, body_key, left_key, right_key, seq):
        self.egd_index = egd_index
        self.body_key = body_key
        self.left_key = left_key
        self.right_key = right_key
        self.seq = seq
        self.alive = True
        self.null_keys: Optional[set | tuple] = ()  # as on _Derivation


class _MergeRecord:
    """One applied substitution (null → value) with every rewritten
    ``(relation, row, attr)`` position — the rollback log.

    ``rekeys`` additionally logs the bookkeeping rewrites (which key
    tuple indices / frontier slots of which derivations and edges were
    switched to the merged value), so rollback can restore provenance
    exactly, not just row content."""

    __slots__ = ("null", "positions", "rekeys", "seq", "alive")

    def __init__(self, null, seq):
        self.null = null
        self.positions = []
        self.rekeys = []  # (kind, obj, key_indices, frontier_indices)
        self.seq = seq
        self.alive = True


class _ProvenanceRecorder(ChaseRecorder):
    """Forwards chase hooks into the owning exchange's bookkeeping."""

    def __init__(self, owner: "MaterializedExchange"):
        self.owner = owner

    def on_tgd_fire(self, dep_index, tgd, frontier_key, frontier_items,
                    rows):
        self.owner._record_derivation(dep_index, frontier_key,
                                      frontier_items, rows)

    def on_egd_union(self, dep_index, egd, body_key, left, right):
        self.owner._record_edge(dep_index, body_key, left, right)

    def on_substitution(self, positions):
        self.owner._record_substitution(positions)


class MaterializedExchange:
    """A source instance, its chased target, and the provenance needed
    to maintain the target under update batches without re-chasing.

    ``apply`` takes a *source-side* :class:`UpdateSet` and returns the
    *target-side* delta (restricted to the mapping's target relations),
    with the maintained target guaranteed equivalent — up to null
    renaming — to a full re-exchange of the updated source.
    """

    @instrumented("runtime.incremental.materialize",
                  attrs=lambda self, mapping, source, **kw: {
                      "mapping.name": mapping.name,
                      "source.rows": source.total_rows()})
    def __init__(self, mapping: Mapping, source: Instance, *,
                 enforce_target_keys: bool = False,
                 max_steps: int = 100_000,
                 null_factory: Optional[NullFactory] = None):
        if mapping.so_tgd is not None or not mapping.tgds:
            raise ExpressivenessError(
                "incremental materialized exchange needs a tgd mapping "
                "(so-tgds and pure equality mappings are not maintained)"
            )
        self.mapping = mapping
        self._dependencies = exchange_dependencies(mapping,
                                                   enforce_target_keys)
        self._max_steps = max_steps
        self._target_relations = set(mapping.target.entities)
        self._recorder = _ProvenanceRecorder(self)
        self.stats = {
            "applies": 0,
            "reused_rows": 0,
            "rederived": 0,
            "overdeleted": 0,
            "merge_rollbacks": 0,
            "full_reexchange": 0,
        }
        # The chase's compilations own the body-key and frontier-key
        # order, so recorded keys and re-enumerated keys always agree.
        self._compiled = [compile_dependency(d) for d in self._dependencies]
        # (dependency, relation) → the (dependency, head atom) pairs
        # that can re-derive a row a dead derivation of that dependency
        # lost: the relation's atoms in every other tgd, and its own
        # when its head has two or more atoms.  A one-atom head's row
        # fixes the frontier key, which _try_reinstate already tried.
        tgds = [(index, plan) for index, plan in enumerate(self._compiled)
                if plan.kind != "egd"]
        self._refire_atoms: dict[tuple[int, str], list] = {}
        for owner, plan in tgds:
            for relation in {atom.relation for atom in plan.dependency.head}:
                self._refire_atoms[(owner, relation)] = [
                    (index, atom)
                    for index, other in tgds
                    if index != owner or len(plan.dependency.head) > 1
                    for atom in other.dependency.head
                    if atom.relation == relation
                ]
        # Working instance: source relations ∪ chased target relations.
        self.working = Instance(mapping.source)
        for relation, rows in source.relations.items():
            self.working.relations[relation] = [dict(row) for row in rows]
        # ``null_factory`` lets the hops of one p2p chain share labels
        # (see PeerNetwork.materialize_chain): a hop must never mint a
        # label that another hop already uses.
        self._factory = null_factory or NullFactory(
            max((n.label for n in source.nulls()), default=-1) + 1
        )
        self._reset_bookkeeping()
        self._begin_session()
        chase(self.working, self._dependencies, max_steps=self._max_steps,
              null_factory=self._factory, copy=False,
              recorder=self._recorder)
        self._begin_session()  # discard the build session

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _reset_bookkeeping(self) -> None:
        self._seq = 0
        # (dep_index, frontier key) → alive derivations (normally one;
        # egd merges can collapse two keys into the same bucket).
        self._derivations: dict[tuple, list[_Derivation]] = {}
        self._deriver: dict[int, _Derivation] = {}   # id(row) → derivation
        self._support: dict[int, int] = {}           # id(row) → count
        self._edges: dict[tuple, list[_Edge]] = {}   # (egd, body key) → edges
        # Live merge records in recording order (a dict as ordered set,
        # so pruning a rolled-back record is O(1)).
        self._merges: dict[_MergeRecord, None] = {}
        # null key → [(kind, record)]: the live derivations and edges
        # whose keys mention the null, one entry per (key, record).
        self._null_index: dict[object, list] = {}
        self._alive: set[int] = {
            id(row)
            for rows in self.working.relations.values()
            for row in rows
        }

    def _begin_session(self) -> None:
        self._session_inserted: dict[int, tuple[str, Row]] = {}
        self._session_deleted: dict[str, list[Row]] = {}
        # id(row) → ({attr: value at session start}, (relation, row))
        self._session_rewrites: dict[int, tuple[dict, tuple[str, Row]]] = {}
        # Derivations, edges and merge records that died this session
        # (see _prune_dead).
        self._session_dead: list = []

    def _record_derivation(self, dep_index, key, frontier_items, rows):
        self._seq += 1
        derivation = _Derivation(dep_index, key, list(frontier_items),
                                 list(rows), self._seq)
        self._derivations.setdefault((dep_index, key), []).append(derivation)
        for relation, row in rows:
            rid = id(row)
            self._deriver[rid] = derivation
            self._support[rid] = self._support.get(rid, 0) + 1
            self._alive.add(rid)
            self._session_inserted[rid] = (relation, row)
        for _, value in frontier_items:
            if isinstance(value, LabeledNull):
                self._index_null(hashable_key(value), "deriv", derivation)

    def _record_edge(self, dep_index, body_key, left, right):
        self._seq += 1
        edge = _Edge(dep_index, body_key, hashable_key(left),
                     hashable_key(right), self._seq)
        self._edges.setdefault((dep_index, body_key), []).append(edge)
        for part in set(body_key) | {edge.left_key, edge.right_key}:
            if null_key_label(part) is not None:
                self._index_null(part, "edge", edge)

    def _index_null(self, key, kind, record) -> None:
        """List ``record`` under the null ``key`` (once per key; never
        for a pruned record)."""
        keys = record.null_keys
        if keys is None or key in keys:
            return
        if keys:
            keys.add(key)
        else:
            record.null_keys = {key}
        self._null_index.setdefault(key, []).append((kind, record))

    def _prune_dead(self) -> None:
        """Forget this session's records that are dead for good: merge
        records rolled back, edges dropped, and derivations killed and
        not reinstated (rederivation only ever reinstates derivations
        that died in the same session, so after it they stay dead).
        Costs the dead records' own index lists, never a sweep."""
        index = self._null_index
        for record in self._session_dead:
            if isinstance(record, _MergeRecord):
                self._merges.pop(record, None)
                continue
            if record.alive or record.null_keys is None:
                continue
            for key in record.null_keys:
                entries = index.get(key)
                if entries is None:
                    continue
                entries[:] = [e for e in entries if e[1] is not record]
                if not entries:
                    del index[key]
            record.null_keys = None
        self._session_dead = []

    def _record_substitution(self, positions):
        self._seq += 1
        seq = self._seq
        records: dict[LabeledNull, _MergeRecord] = {}
        replacements: dict[LabeledNull, object] = {}
        for relation, row, attr, null, replacement in positions:
            record = records.get(null)
            if record is None:
                record = _MergeRecord(null, seq)
                records[null] = record
                self._merges[record] = None
                replacements[null] = replacement
            record.positions.append((relation, row, attr))
            rewrites = self._session_rewrites.setdefault(
                id(row), ({}, (relation, row))
            )
            rewrites[0].setdefault(attr, null)
        # Recorded frontier keys, frontier values and egd trigger keys
        # mention the substituted nulls: rewrite them so future
        # enumerations (which see the merged values) still match.
        for null, replacement in replacements.items():
            old_key = hashable_key(null)
            new_key = hashable_key(replacement)
            record = records[null]
            for kind, obj in self._null_index.pop(old_key, []):
                obj.null_keys.discard(old_key)
                if kind == "deriv":
                    rekey = self._rekey_derivation(obj, null, replacement,
                                                   old_key, new_key)
                else:
                    rekey = self._rekey_edge(obj, old_key, new_key)
                if rekey is not None:
                    record.rekeys.append(rekey)

    def _rekey_derivation(self, derivation, null, replacement, old_key,
                          new_key):
        key_indices = [
            i for i, part in enumerate(derivation.key) if part == old_key
        ]
        frontier_indices = [
            i for i, (_, value) in enumerate(derivation.frontier)
            if isinstance(value, LabeledNull) and value == null
        ]
        if not key_indices and not frontier_indices:
            return None
        self._unbucket_derivation(derivation)
        key = list(derivation.key)
        for i in key_indices:
            key[i] = new_key
        derivation.key = tuple(key)
        for i in frontier_indices:
            var, _ = derivation.frontier[i]
            derivation.frontier[i] = (var, replacement)
        if derivation.alive:
            self._derivations.setdefault(
                (derivation.dep_index, derivation.key), []
            ).append(derivation)
        if null_key_label(new_key) is not None:
            self._index_null(new_key, "deriv", derivation)
        return ("deriv", derivation, key_indices, frontier_indices)

    def _unbucket_derivation(self, derivation):
        if not derivation.alive:
            return
        bucket = self._derivations.get(
            (derivation.dep_index, derivation.key)
        )
        if bucket is not None and derivation in bucket:
            bucket.remove(derivation)
            if not bucket:
                del self._derivations[(derivation.dep_index, derivation.key)]

    def _rekey_edge(self, edge, old_key, new_key):
        # Only the *body* key tracks current values (dying triggers are
        # re-enumerated against the merged instance).  The endpoint keys
        # keep their at-record-time identity: they are what links an
        # edge to the merge records of its null class during rollback.
        key_indices = [
            i for i, part in enumerate(edge.body_key) if part == old_key
        ]
        if not key_indices:
            return None
        in_bucket = False
        if edge.alive:
            bucket = self._edges.get((edge.egd_index, edge.body_key))
            if bucket is not None and edge in bucket:
                bucket.remove(edge)
                in_bucket = True
                if not bucket:
                    del self._edges[(edge.egd_index, edge.body_key)]
        body_key = list(edge.body_key)
        for i in key_indices:
            body_key[i] = new_key
        edge.body_key = tuple(body_key)
        if in_bucket:
            self._edges.setdefault(
                (edge.egd_index, edge.body_key), []
            ).append(edge)
        if null_key_label(new_key) is not None:
            self._index_null(new_key, "edge", edge)
        return ("edge", edge, key_indices, ())

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def target_instance(self, copy: bool = True) -> Instance:
        """The maintained target (the universal solution restricted to
        the target relations, like ``ExchangeTransformation.apply``)."""
        result = Instance(self.mapping.target)
        for relation in self._target_relations:
            rows = self.working.relations.get(relation)
            if rows:
                result.relations[relation] = (
                    [dict(row) for row in rows] if copy else list(rows)
                )
        return result

    def source_instance(self, copy: bool = True) -> Instance:
        """The maintained source state (every non-derived row)."""
        result = Instance(self.mapping.source)
        for relation, rows in self.working.relations.items():
            live = [row for row in rows if id(row) not in self._deriver]
            if live:
                result.relations[relation] = (
                    [dict(row) for row in live] if copy else live
                )
        return result

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @instrumented("runtime.incremental.apply",
                  attrs=lambda self, update: {
                      "mapping.name": self.mapping.name,
                      "update.size": update.size()})
    def apply(self, update: UpdateSet) -> UpdateSet:
        """Maintain the target under a source-side update batch; return
        the target-side delta."""
        self._begin_session()
        overdeleted = 0
        rederived = 0
        try:
            dead_derivations, dead_edges, overdeleted = (
                self._cascade_deletes(update)
            )
            # Roll back orphaned merges *before* rederiving, so witness
            # searches and reinstated row content both see the restored
            # values (a witness found pre-rollback could be undone by
            # the rollback right after).
            restored = self._rollback_edges(dead_edges)
            reinserted = self._rederive(dead_derivations)
            rederived = len(reinserted)
            seed: dict[str, list[Row]] = {}
            for relation, row in reinserted:
                seed.setdefault(relation, []).append(row)
            for relation, row in restored:
                seed.setdefault(relation, []).append(row)
            for relation, rows in self._insert_source_rows(update).items():
                seed.setdefault(relation, []).extend(rows)
            if seed:
                chase(self.working, self._dependencies,
                      max_steps=self._max_steps,
                      null_factory=self._factory, copy=False,
                      recorder=self._recorder, initial_delta=seed)
        except _FallbackNeeded:
            delta = self._full_reexchange(update)
            self._publish(overdeleted, rederived, full=True)
            return delta
        self._prune_dead()
        delta = self._finish_session()
        self._publish(overdeleted, rederived, full=False)
        return delta

    # -- inserts -------------------------------------------------------
    def _insert_source_rows(self, update: UpdateSet) -> dict[str, list[Row]]:
        inserted: dict[str, list[Row]] = {}
        for relation, rows in update.inserts.items():
            for row in rows:
                if relation == "$typed":
                    values = {k: v for k, v in row.items() if k != "$type"}
                    stored = self.working.insert_object(
                        str(row["$type"]), **values
                    )
                    entity = self.mapping.source.entity(str(row["$type"]))
                    target_relation = entity.root().name
                else:
                    stored = self.working.insert(relation, dict(row))
                    target_relation = relation
                rid = id(stored)
                self._alive.add(rid)
                self._session_inserted[rid] = (target_relation, stored)
                inserted.setdefault(target_relation, []).append(stored)
        return inserted

    # -- deletes -------------------------------------------------------
    def _cascade_deletes(self, update: UpdateSet):
        """Counting/DRed over-deletion: kill the triggers that used the
        deleted rows, decrement their head rows' derivation counts, and
        cascade rows whose count reaches zero."""
        resolved = resolve_deletes(self.working, update.deletes)
        dead_derivations: list[_Derivation] = []
        dead_edges: list[_Edge] = []
        pending = {relation: list(rows) for relation, rows in
                   resolved.items()}
        scheduled = {id(row) for rows in pending.values() for row in rows}
        # Directly deleted *derived* rows take their own derivation down
        # (and stay down: the user asked for the row to go).
        for rows in list(pending.values()):
            for row in list(rows):
                derivation = self._deriver.get(id(row))
                if derivation is not None and derivation.alive:
                    derivation.suppressed = True
                    self._kill_derivation(derivation, dead_derivations,
                                          pending, scheduled)
        overdeleted = 0
        next_round: dict[str, list[Row]] = {}
        while pending:
            for dep_index, plan in enumerate(self._compiled):
                if not (plan.relations & pending.keys()):
                    continue
                # Frontier and body keys as the chase recorded them.
                fget = plan.fget if plan.kind != "egd" else None
                for binding in distinct(plan, self.working, pending):
                    key = tuple(map(hashable_key, binding if fget is None
                                    else fget(binding)))
                    if plan.kind == "egd":
                        for edge in self._edges.pop((dep_index, key), []):
                            edge.alive = False
                            dead_edges.append(edge)
                            self._session_dead.append(edge)
                        continue
                    for derivation in list(
                        self._derivations.get((dep_index, key), ())
                    ):
                        self._kill_derivation(derivation, dead_derivations,
                                              next_round, scheduled)
            self._remove_batch(pending)
            pending = next_round
            next_round = {}
            overdeleted += sum(len(rows) for rows in pending.values())
        return dead_derivations, dead_edges, overdeleted

    def _kill_derivation(self, derivation, dead_derivations, dying_out,
                         scheduled):
        if not derivation.alive:
            return
        derivation.alive = False
        self._session_dead.append(derivation)
        bucket = self._derivations.get(
            (derivation.dep_index, derivation.key)
        )
        if bucket is not None and derivation in bucket:
            bucket.remove(derivation)
            if not bucket:
                del self._derivations[
                    (derivation.dep_index, derivation.key)
                ]
        dead_derivations.append(derivation)
        for relation, row in derivation.rows:
            rid = id(row)
            count = self._support.get(rid, 0) - 1
            self._support[rid] = count
            if count <= 0 and rid in self._alive and rid not in scheduled:
                scheduled.add(rid)
                dying_out.setdefault(relation, []).append(row)

    def _remove_batch(self, pending: dict[str, list[Row]]) -> None:
        for relation, rows in pending.items():
            for row in self.working.remove_rows(relation, rows):
                rid = id(row)
                self._alive.discard(rid)
                # Dead rows must not stay reachable (or keep their ids
                # claimed) through provenance; _try_reinstate restores
                # both entries for a row it brings back.
                self._deriver.pop(rid, None)
                self._support.pop(rid, None)
                if rid in self._session_inserted:
                    del self._session_inserted[rid]
                    continue
                snapshot = dict(row)
                rewrites = self._session_rewrites.get(rid)
                if rewrites:
                    snapshot.update(rewrites[0])
                self._session_deleted.setdefault(relation, []).append(
                    snapshot
                )

    # -- rederivation --------------------------------------------------
    def _rederive(self, dead_derivations):
        """DRed's rederivation step: reinstate over-deleted rows that
        are still derivable from the surviving instance."""
        reinserted: list[tuple[str, Row]] = []
        remaining = sorted(
            (d for d in dead_derivations if not d.suppressed),
            key=lambda d: d.seq,
        )
        progress = True
        while progress and remaining:
            progress = False
            keep = []
            for derivation in remaining:
                if self._try_reinstate(derivation):
                    progress = True
                    reinserted.extend(derivation.rows)
                else:
                    keep.append(derivation)
            remaining = keep
        # Rows another trigger can still derive (the original trigger
        # is gone for good, but the content is not).
        for derivation in remaining:
            for relation, row in derivation.rows:
                if id(row) in self._alive:
                    continue
                atoms = self._refire_atoms[(derivation.dep_index, relation)]
                if atoms:
                    reinserted.extend(self._try_refire(atoms, row))
        return reinserted

    def _try_reinstate(self, derivation) -> bool:
        """Reinstate a dead derivation from an alternative body witness
        with the *same* frontier bindings — this preserves the original
        head rows (and their labeled nulls) exactly."""
        if self._derivations.get((derivation.dep_index, derivation.key)):
            return False  # the frontier key is already supported
        plan = self._compiled[derivation.dep_index]
        witnesses = bindings(plan, self.working,
                             partial=dict(derivation.frontier))
        if next(iter(witnesses), None) is None:
            return False
        for relation, row in derivation.rows:
            self.working.relations.setdefault(relation, []).append(row)
            rid = id(row)
            self._alive.add(rid)
            self._support[rid] = self._support.get(rid, 0) + 1
            self._deriver[rid] = derivation
            self._session_inserted[rid] = (relation, row)
        derivation.alive = True
        self._derivations.setdefault(
            (derivation.dep_index, derivation.key), []
        ).append(derivation)
        return True

    def _try_refire(self, atoms, row: Row):
        """Fire every trigger of ``atoms``' dependencies (see
        ``_refire_atoms``) that can produce ``row``'s content, never
        fired, and whose head no longer holds (fresh nulls for the
        existentials, exactly as the chase would).  Every one, not the
        first: a head that holds on the first firing's rows may still
        have needed ``row`` itself."""
        head_rows = []
        for dep_index, atom in atoms:
            plan = self._compiled[dep_index]
            partial = invert_head(atom, row, plan.frontier_set)
            if partial is None:
                continue
            members = head_members(plan, self.working)
            fresh = [()] * len(members)
            for binding in list(bindings(plan, self.working,
                                         partial=partial)):
                values = (binding if plan.fget is None
                          else plan.fget(binding))
                key = tuple(map(hashable_key, values))
                if self._derivations.get((dep_index, key)) or head_holds(
                    plan, self.working, key, values, members, fresh
                ):
                    continue
                cells = values + plan.consts + tuple(
                    self._factory.fresh(hint=h) for h in plan.hints
                )
                fired = [
                    (name, dict(zip(attrs, cells if pick is None
                                    else pick(cells))))
                    for name, attrs, pick in plan.templates
                ]
                for name, stored in fired:
                    self.working.relations.setdefault(name, []).append(
                        stored
                    )
                self._record_derivation(
                    dep_index, key, list(zip(plan.frontier, values)), fired,
                )
                head_rows.extend(fired)
                members = head_members(plan, self.working)
        return head_rows

    # -- egd rollback --------------------------------------------------
    def _rollback_edges(self, dead_edges):
        """Undo substitutions whose merge class lost an edge, via the
        recorded positions (newest merge first); the repair chase
        re-merges whatever the surviving triggers still justify."""
        if not dead_edges:
            return []
        parent: dict = {}

        def find(key):
            parent.setdefault(key, key)
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        for bucket in self._edges.values():
            for edge in bucket:
                parent[find(edge.left_key)] = find(edge.right_key)
        for edge in dead_edges:
            parent[find(edge.left_key)] = find(edge.right_key)
        affected_roots = {find(edge.left_key) for edge in dead_edges}
        to_restore = []
        for record in self._merges:
            if not record.alive:
                continue
            if find(hashable_key(record.null)) not in affected_roots:
                continue
            live = [
                (relation, row, attr)
                for relation, row, attr in record.positions
                if id(row) in self._alive
            ]
            if live:
                # Cascade safety: a later firing that copied the merged
                # value into its frontier would keep the stale value
                # after rollback — counting cannot fix that locally.
                _, row0, attr0 = live[0]
                value = row0.get(attr0)
                for bucket in self._derivations.values():
                    for derivation in bucket:
                        if derivation.seq > record.seq and any(
                            v == value for _, v in derivation.frontier
                        ):
                            raise _FallbackNeeded(
                                "merged value flowed into a later "
                                "derivation"
                            )
            # Restore even when every position row is currently dead:
            # rederivation may revive those rows, and they must come
            # back carrying the un-merged values.
            to_restore.append((record, live))
        restored: dict[int, tuple[str, Row]] = {}
        for record, live in sorted(to_restore, key=lambda p: -p[0].seq):
            for relation, row, attr in record.positions:
                rid = id(row)
                if rid in self._alive:
                    rewrites = self._session_rewrites.setdefault(
                        rid, ({}, (relation, row))
                    )
                    rewrites[0].setdefault(attr, row.get(attr))
                    restored[rid] = (relation, row)
                # Dead rows get their content restored too: if the
                # rederivation step reinstates them, they must carry
                # the un-merged values (their removal snapshot was
                # copied, so the delta is unaffected).
                row[attr] = record.null
            self._restore_rekeys(record)
            record.alive = False
            self._session_dead.append(record)
        for key in list(self._edges):
            bucket = self._edges[key]
            kept = []
            for edge in bucket:
                if find(edge.left_key) in affected_roots:
                    edge.alive = False
                    self._session_dead.append(edge)
                else:
                    kept.append(edge)
            if kept:
                bucket[:] = kept
            else:
                del self._edges[key]
        if restored:
            self.working.mark_dirty()
        self.stats["merge_rollbacks"] += len(to_restore)
        return list(restored.values())

    def _restore_rekeys(self, record):
        """Undo the bookkeeping rewrites the merge performed, so the
        surviving derivations' keys and frontiers match the restored
        instance again (newest merge restored first handles chains)."""
        old_key = hashable_key(record.null)
        for kind, obj, key_indices, frontier_indices in record.rekeys:
            if kind == "deriv":
                self._unbucket_derivation(obj)
                key = list(obj.key)
                for i in key_indices:
                    key[i] = old_key
                obj.key = tuple(key)
                for i in frontier_indices:
                    var, _ = obj.frontier[i]
                    obj.frontier[i] = (var, record.null)
                if obj.alive:
                    self._derivations.setdefault(
                        (obj.dep_index, obj.key), []
                    ).append(obj)
                self._index_null(old_key, "deriv", obj)
            else:
                edge = obj
                in_bucket = False
                if edge.alive:
                    bucket = self._edges.get(
                        (edge.egd_index, edge.body_key)
                    )
                    if bucket is not None and edge in bucket:
                        bucket.remove(edge)
                        in_bucket = True
                        if not bucket:
                            del self._edges[
                                (edge.egd_index, edge.body_key)
                            ]
                body_key = list(edge.body_key)
                for i in key_indices:
                    body_key[i] = old_key
                edge.body_key = tuple(body_key)
                if in_bucket:
                    self._edges.setdefault(
                        (edge.egd_index, edge.body_key), []
                    ).append(edge)
                self._index_null(old_key, "edge", edge)

    # -- fallback ------------------------------------------------------
    def _full_reexchange(self, update: UpdateSet) -> UpdateSet:
        """Rebuild the materialization from scratch (metrics-counted);
        the returned delta still reflects exactly this apply call."""
        old_target = self._target_image_before_session()
        self._insert_source_rows(update)
        base = Instance(self.mapping.source)
        for relation, rows in self.working.relations.items():
            live = [row for row in rows if id(row) not in self._deriver]
            if live:
                base.relations[relation] = live
        self.working = base
        self._reset_bookkeeping()
        self._begin_session()
        if _OBS.enabled:
            from repro.observability.journal import JOURNAL
            from repro.observability.tracing import tracer

            JOURNAL.record(
                "incremental.full_reexchange",
                mapping=self.mapping.name,
                inserts=sum(len(r) for r in update.inserts.values()),
                deletes=sum(len(r) for r in update.deletes.values()),
            )
            with tracer.span("runtime.incremental.full_reexchange",
                             mapping=self.mapping.name):
                chase(self.working, self._dependencies,
                      max_steps=self._max_steps,
                      null_factory=self._factory, copy=False,
                      recorder=self._recorder)
        else:
            chase(self.working, self._dependencies,
                  max_steps=self._max_steps,
                  null_factory=self._factory, copy=False,
                  recorder=self._recorder)
        self._begin_session()
        self.stats["full_reexchange"] += 1
        return _bag_delta(old_target, self.target_instance(copy=False),
                          self._target_relations)

    def _target_image_before_session(self) -> Instance:
        """The target state at the start of the current apply call,
        reconstructed from the session's removal snapshots and rewrite
        originals (only needed on the fallback path)."""
        image = Instance(self.mapping.target)
        for relation in self._target_relations:
            rows: list[Row] = []
            for row in self.working.relations.get(relation, []):
                rid = id(row)
                if rid in self._session_inserted:
                    continue
                rewrites = self._session_rewrites.get(rid)
                if rewrites:
                    rows.append({**row, **rewrites[0]})
                else:
                    rows.append(dict(row))
            rows.extend(self._session_deleted.get(relation, []))
            if rows:
                image.relations[relation] = rows
        return image

    # -- delta assembly ------------------------------------------------
    def _finish_session(self) -> UpdateSet:
        delta = UpdateSet()
        for relation, snapshots in self._session_deleted.items():
            if relation not in self._target_relations:
                continue
            delta.deletes.setdefault(relation, []).extend(
                dict(snapshot) for snapshot in snapshots
            )
        for rid, (relation, row) in self._session_inserted.items():
            if relation not in self._target_relations:
                continue
            if rid not in self._alive:
                continue
            delta.inserts.setdefault(relation, []).append(dict(row))
        for rid, (originals, (relation, row)) in (
            self._session_rewrites.items()
        ):
            if relation not in self._target_relations:
                continue
            if rid not in self._alive or rid in self._session_inserted:
                continue
            delta.deletes.setdefault(relation, []).append(
                {**row, **originals}
            )
            delta.inserts.setdefault(relation, []).append(dict(row))
        return _net_cancel(delta)

    def _publish(self, overdeleted: int, rederived: int, full: bool):
        touched = sum(
            1 for relation, _ in self._session_inserted.values()
            if relation in self._target_relations
        ) + sum(
            len(rows) for relation, rows in self._session_deleted.items()
            if relation in self._target_relations
        )
        total = sum(
            len(self.working.relations.get(relation, []))
            for relation in self._target_relations
        )
        reused = 0 if full else max(0, total - touched)
        self.stats["applies"] += 1
        self.stats["reused_rows"] += reused
        self.stats["rederived"] += rederived
        self.stats["overdeleted"] += overdeleted
        if not _OBS.enabled:
            return
        from repro.observability.metrics import registry

        registry.counter("incremental.applies").inc()
        registry.counter("incremental.reused_rows").inc(reused)
        registry.counter("incremental.rederived").inc(rederived)
        registry.counter("incremental.overdeleted").inc(overdeleted)
        if full:
            registry.counter("incremental.full_reexchange").inc()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _net_cancel(update: UpdateSet) -> UpdateSet:
    """Cancel equal insert/delete pairs per relation (bag semantics), so
    rows deleted and rederived within one apply produce no delta."""
    result = UpdateSet()
    for relation in sorted(set(update.inserts) | set(update.deletes)):
        inserts: dict[frozenset, list[Row]] = {}
        for row in update.inserts.get(relation, []):
            inserts.setdefault(freeze_row(row), []).append(row)
        deletes: dict[frozenset, list[Row]] = {}
        for row in update.deletes.get(relation, []):
            deletes.setdefault(freeze_row(row), []).append(row)
        for key, rows in inserts.items():
            surplus = len(rows) - len(deletes.get(key, ()))
            for _ in range(surplus):
                result.inserts.setdefault(relation, []).append(rows[0])
        for key, rows in deletes.items():
            surplus = len(rows) - len(inserts.get(key, ()))
            for _ in range(surplus):
                result.deletes.setdefault(relation, []).append(rows[0])
    return result


def _bag_delta(before: Instance, after: Instance,
               relations) -> UpdateSet:
    update = UpdateSet()
    for relation in sorted(relations):
        old: dict[frozenset, list[Row]] = {}
        for row in before.relations.get(relation, []):
            old.setdefault(freeze_row(row), []).append(row)
        new: dict[frozenset, list[Row]] = {}
        for row in after.relations.get(relation, []):
            new.setdefault(freeze_row(row), []).append(row)
        for key, rows in new.items():
            for _ in range(len(rows) - len(old.get(key, ()))):
                update.inserts.setdefault(relation, []).append(
                    dict(rows[0])
                )
        for key, rows in old.items():
            for _ in range(len(rows) - len(new.get(key, ()))):
                update.deletes.setdefault(relation, []).append(
                    dict(rows[0])
                )
    return update


def _deduped(instance: Instance) -> Instance:
    result = Instance(instance.schema)
    for relation, row_sets in instance.as_sets().items():
        result.relations[relation] = [dict(frozen) for frozen in row_sets]
    return result


def _match_rows(source: Instance, target: Instance,
                bijective: bool) -> Optional[dict]:
    """A null assignment mapping every source row onto some target row
    (constants fixed), or ``None``.  ``bijective`` requires a
    null-to-null injection.

    Unit propagation first: rows whose current image is compatible
    with exactly one target row bind their nulls immediately, so
    constrained rows (a null alongside a unique constant) pin the
    assignment before unconstrained rows (all-null tuples, which are
    mutually interchangeable and would make a naive fixed-order
    backtracking search explode) are even considered.  Whatever
    symmetric residue survives propagation is settled by a
    most-constrained-first backtracking pass.
    """
    mapping: dict = {}
    used: set = set()  # images already taken (bijective mode)

    def bind(null, value) -> bool:
        if bijective:
            if not isinstance(value, LabeledNull):
                return False
            key = hashable_key(value)
            if key in used:
                return False
            used.add(key)
        mapping[null] = value
        return True

    target_lists = {relation: list(rows)
                    for relation, rows in target.relations.items()}
    target_frozen = {relation: {freeze_row(r) for r in rows}
                     for relation, rows in target_lists.items()}

    pending: list[tuple[str, Row]] = []
    for relation in sorted(source.relations):
        for row in source.relations[relation]:
            if any(isinstance(v, LabeledNull) for v in row.values()):
                pending.append((relation, row))
            elif freeze_row(row) not in target_frozen.get(relation, ()):
                return None  # ground rows must appear verbatim

    def compatible(row: Row, candidate: Row) -> Optional[dict]:
        """The bindings this candidate would add, or None."""
        if set(row) != set(candidate):
            return None
        local: dict = {}
        local_used: set = set()
        for attr, value in row.items():
            image = candidate[attr]
            if isinstance(value, LabeledNull):
                bound = mapping.get(value, local.get(value))
                if bound is not None:
                    if bound != image:
                        return None
                    continue
                if bijective:
                    if not isinstance(image, LabeledNull):
                        return None
                    key = hashable_key(image)
                    if key in used or key in local_used:
                        return None
                    local_used.add(key)
                local[value] = image
            elif value != image:
                return None
        return local

    def candidates_of(relation: str, row: Row,
                      cap: Optional[int] = None) -> Optional[list[dict]]:
        found: list[dict] = []
        for candidate in target_lists.get(relation, ()):
            local = compatible(row, candidate)
            if local is not None:
                found.append(local)
                if cap is not None and len(found) >= cap:
                    break
        return found

    while pending:
        progress = False
        residue: list[tuple[str, Row]] = []
        for relation, row in pending:
            found = candidates_of(relation, row, cap=2)
            if not found:
                return None
            free = any(
                isinstance(v, LabeledNull) and v not in mapping
                for v in row.values()
            )
            if not free:
                progress = True  # fully bound and matched: satisfied
            elif len(found) == 1:
                for null, value in found[0].items():
                    if not bind(null, value):
                        return None
                progress = True
            else:
                residue.append((relation, row))
        pending = residue
        if not progress:
            break

    def solve(remaining: list[tuple[str, Row]]) -> bool:
        if not remaining:
            return True
        best = None
        for index, (relation, row) in enumerate(remaining):
            found = candidates_of(relation, row)
            if not found:
                return False
            if best is None or len(found) < len(best[1]):
                best = (index, found)
                if len(found) == 1:
                    break
        index, found = best
        rest = remaining[:index] + remaining[index + 1:]
        for local in found:
            saved_mapping = dict(mapping)
            saved_used = set(used)
            if all(bind(n, v) for n, v in local.items()) and solve(rest):
                return True
            mapping.clear()
            mapping.update(saved_mapping)
            used.clear()
            used.update(saved_used)
        return False

    return mapping if solve(pending) else None


def set_equal_modulo_nulls(left: Instance, right: Instance) -> bool:
    """Equality of two instances up to a renaming of labeled nulls.

    Fast path: plain set equality.  Otherwise both sides are
    *deduplicated* (the chase's firing order can duplicate rows that an
    egd merge later collapses — homomorphisms ignore multiplicity, and
    duplicate rows make the matching search explode) and a null-to-null
    bijection whose substitution maps ``left`` onto exactly ``right``
    is searched via :func:`_match_rows`.  When the engines produced
    syntactically different (but hom-equivalent) universal solutions,
    the final tier accepts homomorphisms both ways — the data-exchange
    notion of equivalence.
    """
    left_sets = left.as_sets()
    right_sets = right.as_sets()
    if set(left_sets) != set(right_sets):
        return False
    if left_sets == right_sets:
        return True
    ded_left = _deduped(left)
    ded_right = _deduped(right)
    same_shape = all(
        len(left_sets[name]) == len(right_sets[name]) for name in left_sets
    )
    if same_shape:
        mapping = _match_rows(ded_left, ded_right, bijective=True)
        if mapping is not None and (
            not mapping
            or ded_left.substitute(mapping).set_equal(ded_right)
        ):
            return True
    return (
        _match_rows(ded_left, ded_right, bijective=False) is not None
        and _match_rows(ded_right, ded_left, bijective=False) is not None
    )
