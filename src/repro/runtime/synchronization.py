"""Synchronization logic (paper, Section 5, "Synchronization logic").

"Data replication rules may be stated in terms of T, e.g., that complex
objects in schema T1 should be replicated to corresponding complex
objects in T2.  For efficiency, it may be better to translate the rules
into equivalent rules on finer-grained (e.g., relational) data in the
corresponding sources S1 and S2 to be executed there."

:class:`Synchronizer` holds two endpoints, each a (bidirectional
mapping, source instance) pair exposing the same logical target schema,
plus object-level :class:`ReplicationRule` s.  :meth:`synchronize`
translates the rules into *source-level* deltas: it reads the matching
objects from S1 through the first endpoint's query view, converts them
to S2's storage format through the second endpoint's update view, and
applies only the row-level difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra import scalars as S
from repro.errors import ExpressivenessError, MappingError
from repro.instances.database import TYPE_FIELD, Instance, Row, freeze_row
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.operators.transgen import TransformationPair, transgen
from repro.runtime.updates import (
    UpdateSet,
    apply_update_in_place,
    instance_delta,
)


@dataclass
class ReplicationRule:
    """Replicate objects of ``entity`` (optionally filtered) T1 → T2."""

    entity: str
    condition: Optional[S.Predicate] = None
    name: str = ""

    def selects(self, row: Row) -> bool:
        if self.condition is None:
            return True
        return bool(self.condition.eval(row, None))


class Endpoint:
    """One replica: a bidirectional mapping plus its source database."""

    def __init__(self, mapping: Mapping, source: Instance, name: str = ""):
        views = transgen(mapping)
        if not isinstance(views, TransformationPair):
            raise ExpressivenessError(
                "synchronization endpoints need bidirectional mappings"
            )
        self.mapping = mapping
        self.views = views
        self.source = source
        self.name = name or mapping.name

    def objects(self) -> Instance:
        materialized = self.views.query_view.apply(self.source)
        materialized.schema = self.mapping.target
        return materialized


class Synchronizer:
    """Executes replication rules at the source level."""

    def __init__(self, primary: Endpoint, replica: Endpoint):
        if set(primary.mapping.target.entities) != set(
            replica.mapping.target.entities
        ):
            raise MappingError(
                "endpoints must expose the same logical target schema"
            )
        self.primary = primary
        self.replica = replica
        self.rules: list[ReplicationRule] = []
        # Populated by synchronize(): (primary objects, desired target
        # state, update-view output) of the last full pass — the basis
        # for forward_update's incremental rounds.
        self._last_primary_objects: Optional[Instance] = None
        self._last_uncovered: Optional[list[tuple[str, Row]]] = None
        self._last_replica_source: Optional[Instance] = None

    def add_rule(
        self,
        entity: str,
        condition: Optional[S.Predicate] = None,
        name: str = "",
    ) -> ReplicationRule:
        rule = ReplicationRule(entity, condition, name)
        self.rules.append(rule)
        # Rule coverage changed: the cached uncovered set is stale.
        self._last_primary_objects = None
        self._last_uncovered = None
        self._last_replica_source = None
        return rule

    # ------------------------------------------------------------------
    def synchronize(self) -> UpdateSet:
        """Translate the object-level rules into a source-level delta on
        the replica, apply it, and return it.

        The selected objects of the primary are merged into the
        replica's current objects (rule-covered objects replaced,
        everything else preserved), then pushed through the replica's
        update view; only the row-level difference touches S2.
        """
        primary_objects = self.primary.objects()
        replica_objects = self.replica.objects()

        uncovered: list[tuple[str, Row]] = []
        for relation, rows in replica_objects.relations.items():
            for row in rows:
                if not self._covered(relation, row):
                    uncovered.append((relation, row))
        desired = self._desired_state(primary_objects, uncovered)

        new_replica_source = self.replica.views.update_view.apply(desired)
        delta = instance_delta(self.replica.source, new_replica_source)
        self.replica.source.relations = new_replica_source.relations
        self._last_primary_objects = primary_objects
        self._last_uncovered = uncovered
        self._last_replica_source = new_replica_source
        return delta

    def _desired_state(
        self,
        primary_objects: Instance,
        uncovered: list[tuple[str, Row]],
    ) -> Instance:
        """Rule-covered objects from the primary merged over the
        replica's uncovered (locally owned) objects."""
        desired = Instance(self.replica.mapping.target)
        for relation, row in uncovered:
            desired.insert(relation, row)
        for rule in self.rules:
            for row in self._matching(primary_objects, rule):
                desired.insert(_relation_of(primary_objects, rule.entity),
                               row)
        return desired.deduplicated()

    @instrumented("runtime.sync.forward_update", attrs=lambda self,
                  update: {"update.size": update.size()})
    def forward_update(self, update: UpdateSet) -> UpdateSet:
        """Apply a *primary-source-side* update and forward its effect
        to the replica incrementally; return the replica-source delta.

        Instead of re-running both views over full instances, the
        primary's query view and the replica's update view are
        re-evaluated only for the rules whose scanned relations the
        update touched (``apply_delta``), and the replica diff is
        restricted to the output relations those rules own — so cost
        tracks the update's footprint, not the database size.  The
        first call (or the first after :meth:`add_rule`) falls back to
        a full :meth:`synchronize`.
        """
        apply_update_in_place(self.primary.source, update)
        if (
            self._last_primary_objects is None
            or self._last_uncovered is None
            or self._last_replica_source is None
        ):
            return self.synchronize()
        touched = _touched_relations(update, self.primary.mapping.source)
        query_view = self.primary.views.query_view
        primary_objects = query_view.apply_delta(
            self.primary.source, self._last_primary_objects, touched
        )
        primary_objects.schema = self.primary.mapping.target
        changed = query_view.output_relations_touched_by(touched)
        desired = self._desired_state(primary_objects,
                                      self._last_uncovered)
        update_view = self.replica.views.update_view
        new_replica_source = update_view.apply_delta(
            desired, self._last_replica_source, changed
        )
        diff_scope = update_view.output_relations_touched_by(changed)
        delta = instance_delta(
            self.replica.source, new_replica_source, relations=diff_scope
        )
        self.replica.source.relations = new_replica_source.relations
        self._last_primary_objects = primary_objects
        self._last_replica_source = new_replica_source
        return delta

    def _covered(self, relation: str, row: Row) -> bool:
        """Is this replica object governed by some rule (and hence
        owned by the primary)?"""
        for rule in self.rules:
            if _object_is(self.replica.mapping.target, relation, row,
                          rule.entity) and rule.selects(row):
                return True
        return False

    def _matching(self, objects: Instance, rule: ReplicationRule) -> list[Row]:
        relation = _relation_of(objects, rule.entity)
        schema = self.primary.mapping.target
        rows = (
            objects.objects_of(rule.entity)
            if _is_hierarchical(schema, rule.entity)
            else objects.rows(relation)
        )
        return [row for row in rows if rule.selects(row)]

    def verify_converged(self) -> bool:
        """After synchronization, rule-covered objects must agree."""
        primary_objects = self.primary.objects()
        replica_objects = self.replica.objects()
        for rule in self.rules:
            relation = _relation_of(primary_objects, rule.entity)
            wanted = {
                freeze_row(r)
                for r in self._matching(primary_objects, rule)
            }
            have = {
                freeze_row(r)
                for r in replica_objects.rows(relation)
                if self._covered(relation, r)
            }
            if not wanted <= have:
                return False
        return True


def _touched_relations(update: UpdateSet, schema) -> set[str]:
    """Relations of ``schema`` named by the update batch ("$typed"
    inserts resolve to their entity's root extent)."""
    touched: set[str] = set()
    for relation, rows in list(update.inserts.items()) + list(
        update.deletes.items()
    ):
        if relation != "$typed":
            touched.add(relation)
            continue
        for row in rows:
            entity = str(row.get("$type", ""))
            if schema is not None and entity in schema.entities:
                touched.add(schema.entity(entity).root().name)
    return touched


def _relation_of(instance: Instance, entity: str) -> str:
    if instance.schema is not None and entity in instance.schema.entities:
        return instance.schema.entity(entity).root().name
    return entity


def _is_hierarchical(schema, entity: str) -> bool:
    if schema is None or entity not in schema.entities:
        return False
    e = schema.entity(entity)
    return e.parent is not None or bool(e.children())


def _object_is(schema, relation: str, row: Row, entity: str) -> bool:
    type_name = row.get(TYPE_FIELD)
    if type_name is not None and schema is not None and (
        str(type_name) in schema.entities and entity in schema.entities
    ):
        return schema.entity(str(type_name)).is_subtype_of(
            schema.entity(entity)
        )
    return relation == entity
