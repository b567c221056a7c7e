"""Business-logic pushdown (paper, Section 5, "Business logic").

"Triggers and other business logic may be attached to data in the
context of T.  It may be more efficient to execute them in the context
of S.  This requires pushing the business logic through mapST, which
should be done statically."

:class:`TriggerSet` holds target-level triggers; :meth:`pushdown`
statically translates each trigger's entity and condition into source
vocabulary using the mapping's element map, producing a source-level
trigger set whose firings on source deltas coincide with the original
triggers' firings on the corresponding target deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.algebra import scalars as S
from repro.errors import ExpressivenessError
from repro.instances.database import TYPE_FIELD, Row
from repro.mappings.mapping import Mapping
from repro.runtime.updates import UpdateSet

Action = Callable[[str, Row], None]


@dataclass
class Trigger:
    """ON <event> <entity> WHEN <condition> DO <action>."""

    entity: str
    event: str  # "insert" | "delete"
    action: Action
    condition: Optional[S.Predicate] = None
    name: str = ""

    def matches(self, row: Row) -> bool:
        if self.condition is None:
            return True
        return bool(self.condition.eval(row, None))


class TriggerSet:
    """A set of triggers over one schema's relations."""

    def __init__(self, schema_name: str):
        self.schema_name = schema_name
        self.triggers: list[Trigger] = []
        self.fired: list[tuple[str, str, Row]] = []

    def on_insert(self, entity: str, action: Action,
                  condition: Optional[S.Predicate] = None,
                  name: str = "") -> Trigger:
        trigger = Trigger(entity, "insert", action, condition, name)
        self.triggers.append(trigger)
        return trigger

    def on_delete(self, entity: str, action: Action,
                  condition: Optional[S.Predicate] = None,
                  name: str = "") -> Trigger:
        trigger = Trigger(entity, "delete", action, condition, name)
        self.triggers.append(trigger)
        return trigger

    # ------------------------------------------------------------------
    def fire(self, update: UpdateSet) -> int:
        """Evaluate all triggers against an update; returns firings."""
        count = 0
        for event, changes in (("insert", update.inserts),
                               ("delete", update.deletes)):
            for relation, rows in changes.items():
                for row in rows:
                    effective_relation = relation
                    if relation == "$typed":
                        effective_relation = str(row.get(TYPE_FIELD, relation))
                    for trigger in self.triggers:
                        applies = trigger.event == event and (
                            trigger.entity == effective_relation
                        )
                        if applies and trigger.matches(row):
                            trigger.action(effective_relation, dict(row))
                            self.fired.append(
                                (trigger.name or trigger.entity, event,
                                 dict(row))
                            )
                            count += 1
        return count


def pushdown(target_triggers: TriggerSet, mapping: Mapping) -> TriggerSet:
    """Statically translate target-level triggers into source-level
    triggers (the paper's push "through mapST … done statically").

    For equality mappings, the fragment analysis of TransGen tells which
    source relation *anchors* each target entity (the most specific
    fragment containing it) and how its attributes land in table
    columns; conditions are rewritten column-wise.  Conditions over
    attributes stored outside the anchor relation are untranslatable
    and raise :class:`ExpressivenessError` — the
    expressiveness-sensitivity the paper keeps pointing at.  For tgd
    mappings the single-head element correspondence is used.
    """
    source_triggers = TriggerSet(mapping.source.name)
    resolver = _Resolver(mapping)
    for trigger in target_triggers.triggers:
        source_relation, column_map = resolver.anchor(trigger.entity)
        condition = None
        if trigger.condition is not None:
            condition = _translate_condition(
                trigger.condition, trigger.entity, source_relation,
                column_map,
            )
        translated = Trigger(
            entity=source_relation,
            event=trigger.event,
            action=trigger.action,
            condition=condition,
            name=f"pushed_{trigger.name or trigger.entity}",
        )
        source_triggers.triggers.append(translated)
    return source_triggers


class _Resolver:
    """Target entity → (anchor source relation, attr→column map)."""

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        from repro.operators.transgen import _analyze, _copy_targets

        self._fragments = []
        self._copies: dict[str, str] = {}
        for constraint in mapping.equalities:
            fragment = _analyze(constraint, mapping.target)
            if fragment is not None:
                self._fragments.append(fragment)
            else:
                relation, _ = _copy_targets(constraint, mapping.target)
                table, _ = _copy_targets(constraint, mapping.source,
                                         side="source")
                self._copies[relation] = table
        self._tgd_map: dict[str, tuple[str, dict[str, str]]] = {}
        for tgd in mapping.tgds:
            if len(tgd.body) == 1 and len(tgd.head) == 1:
                body, head = tgd.body[0], tgd.head[0]
                columns: dict[str, str] = {}
                for head_attr, head_term in head.args:
                    for body_attr, body_term in body.args:
                        if head_term == body_term:
                            columns[head_attr] = body_attr
                self._tgd_map[head.relation] = (body.relation, columns)

    def anchor(self, entity: str) -> tuple[str, dict[str, str]]:
        candidates = [f for f in self._fragments if entity in f.types]
        if candidates:
            anchor = min(candidates, key=lambda f: len(f.types))
            columns: dict[str, str] = {}
            for fragment in candidates:
                for output, attr in fragment.output_to_attr.items():
                    table_column = fragment.output_to_table.get(output)
                    if table_column is not None:
                        columns.setdefault(
                            attr, f"{fragment.table}.{table_column}"
                        )
            return anchor.table, columns
        if entity in self._copies:
            return self._copies[entity], {}
        if entity in self._tgd_map:
            relation, columns = self._tgd_map[entity]
            return relation, {
                attr: f"{relation}.{column}"
                for attr, column in columns.items()
            }
        raise ExpressivenessError(
            f"no source relation stores entity {entity!r}; cannot push "
            "the trigger down"
        )


def _translate_condition(
    predicate: S.Predicate,
    target_entity: str,
    source_relation: str,
    column_map: dict[str, str],
) -> S.Predicate:
    def column_name(column: str) -> str:
        translated = column_map.get(column)
        if translated is None:
            return column  # same name on both sides
        relation, _, name = translated.partition(".")
        if relation != source_relation:
            raise ExpressivenessError(
                f"condition column {column!r} lands in {relation!r}, not "
                f"the trigger's anchor relation {source_relation!r}"
            )
        return name

    def walk(p: S.Scalar) -> S.Scalar:
        if isinstance(p, S.Col):
            return S.Col(column_name(p.name))
        if isinstance(p, S.Lit) or isinstance(p, S._Bool):
            return p
        if isinstance(p, S.Comparison):
            return S.Comparison(p.op, walk(p.left), walk(p.right))
        if isinstance(p, S.And):
            return S.And(*(walk(q) for q in p.operands))
        if isinstance(p, S.Or):
            return S.Or(*(walk(q) for q in p.operands))
        if isinstance(p, S.Not):
            return S.Not(walk(p.operand))
        if isinstance(p, S.IsNull):
            return S.IsNull(walk(p.operand), p.negated)
        if isinstance(p, S.In):
            return S.In(walk(p.operand), p.values)
        raise ExpressivenessError(
            f"cannot push predicate {p!r} through the mapping"
        )

    return walk(predicate)
