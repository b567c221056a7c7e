"""Update propagation (paper, Section 5, first bullet).

"Updates on T need to be translated into updates on S via mapST."  For
bidirectional equality mappings the update view gives the translation
directly: apply the target-side update logically, run the update view,
and diff against the current source state to obtain the source-side
delta.  The roundtripping property guarantees the translated update is
*exact* — re-running the query view reproduces the updated target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ExpressivenessError, TransformationError
from repro.instances.database import Instance, Row, freeze_row
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.operators.transgen import TransformationPair, transgen


@dataclass
class UpdateSet:
    """A batch of tuple-level changes to one schema's relations."""

    inserts: dict[str, list[Row]] = field(default_factory=dict)
    deletes: dict[str, list[Row]] = field(default_factory=dict)

    def insert(self, relation: str, **values: object) -> "UpdateSet":
        self.inserts.setdefault(relation, []).append(values)
        return self

    def insert_object(self, entity: str, **values: object) -> "UpdateSet":
        """Typed insert for entity hierarchies (sets ``$type``)."""
        row = {"$type": entity}
        row.update(values)
        self.inserts.setdefault("$typed", []).append(row)
        return self

    def delete(self, relation: str, **values: object) -> "UpdateSet":
        self.deletes.setdefault(relation, []).append(values)
        return self

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    def size(self) -> int:
        return sum(len(r) for r in self.inserts.values()) + sum(
            len(r) for r in self.deletes.values()
        )

    def describe(self) -> str:
        lines = []
        for relation, rows in sorted(self.inserts.items()):
            for row in rows:
                lines.append(f"+ {relation} {row}")
        for relation, rows in sorted(self.deletes.items()):
            for row in rows:
                lines.append(f"- {relation} {row}")
        return "\n".join(lines) or "(no changes)"


def resolve_deletes(
    instance: Instance, deletes: dict[str, list[Row]]
) -> dict[str, list[Row]]:
    """The concrete stored rows named by a batch of delete patterns.

    Patterns match by attribute subset.  Two regimes per pattern group
    (identical patterns are grouped with their multiplicity):

    * **full-row patterns** — when every matching row equals the
      pattern exactly, the group's multiplicity is honoured: *k* copies
      of the pattern remove *k* matching copies (bag semantics, so a
      delete of one duplicate removes exactly one);
    * **subset patterns** keep the historical delete-all-matches
      semantics (a pattern on a key prefix wipes every row it covers).

    Returned rows are the instance's own stored dicts, ready for
    identity-based removal via :meth:`Instance.remove_rows`.

    Candidate rows are served from the instance's persistent attribute
    indexes (one pattern attribute narrows the scan), so resolution
    cost tracks the pattern's selectivity rather than the relation
    size — the property the incremental maintenance path relies on.
    """
    resolved: dict[str, list[Row]] = {}
    for relation, patterns in deletes.items():
        rows = instance.relations.get(relation)
        if not rows:
            continue
        groups: dict[frozenset, list] = {}
        order: list[frozenset] = []
        for pattern in patterns:
            frozen = freeze_row(pattern)
            if frozen in groups:
                groups[frozen][0] += 1
            else:
                groups[frozen] = [1, pattern]
                order.append(frozen)
        taken: set[int] = set()
        chosen: list[Row] = []
        for frozen in order:
            count, pattern = groups[frozen]
            # Rows lacking an attribute only match a None pattern value
            # and are absent from that attribute's postings, so only a
            # non-None attribute may narrow via the index.
            attr = next(
                (k for k, v in pattern.items() if v is not None), None
            )
            candidates = (
                instance.index_lookup(relation, attr, pattern[attr])
                if attr is not None
                else rows
            )
            matching = [
                row
                for row in candidates
                if id(row) not in taken
                and all(row.get(k) == v for k, v in pattern.items())
            ]
            if not matching:
                continue
            if all(row == pattern for row in matching):
                matching = matching[:count]
            for row in matching:
                taken.add(id(row))
                chosen.append(row)
        if chosen:
            resolved[relation] = chosen
    return resolved


def apply_update(instance: Instance, update: UpdateSet) -> Instance:
    """A new instance with the update applied (deletes resolved by
    :func:`resolve_deletes`; typed inserts route through
    ``insert_object``)."""
    result = instance.copy()
    _apply_to(result, update)
    return result


def apply_update_in_place(instance: Instance, update: UpdateSet) -> None:
    """Apply an update batch to ``instance`` itself, retracting rows
    through :meth:`Instance.remove_rows` so persistent indexes update
    incrementally instead of being rebuilt."""
    _apply_to(instance, update)


def _apply_to(instance: Instance, update: UpdateSet) -> None:
    for relation, rows in resolve_deletes(instance, update.deletes).items():
        instance.remove_rows(relation, rows)
    for relation, rows in update.inserts.items():
        if relation == "$typed":
            for row in rows:
                values = {k: v for k, v in row.items() if k != "$type"}
                instance.insert_object(str(row["$type"]), **values)
        else:
            instance.insert_all(relation, rows)


def instance_delta(
    before: Instance,
    after: Instance,
    relations: Optional[set[str]] = None,
) -> UpdateSet:
    """The tuple-level difference between two states.

    Count-aware (bag semantics): a row occurring *m* times before and
    *n* times after contributes ``n - m`` inserts (or ``m - n``
    deletes) — so deleting one of two duplicates emits exactly one
    delete instead of silently collapsing them.  ``relations`` narrows
    the diff to the given relations (callers that know which relations
    an update touched skip re-freezing everything else).
    """
    update = UpdateSet()
    names = set(before.relations) | set(after.relations)
    if relations is not None:
        names &= relations
    for relation in sorted(names):
        old: dict[frozenset, list[Row]] = {}
        for row in before.rows(relation):
            old.setdefault(freeze_row(row), []).append(row)
        new: dict[frozenset, list[Row]] = {}
        for row in after.rows(relation):
            new.setdefault(freeze_row(row), []).append(row)
        for key, rows in new.items():
            extra = len(rows) - len(old.get(key, ()))
            for _ in range(extra):
                update.inserts.setdefault(relation, []).append(dict(rows[0]))
        for key, rows in old.items():
            missing = len(rows) - len(new.get(key, ()))
            for _ in range(missing):
                update.deletes.setdefault(relation, []).append(dict(rows[0]))
    return update


def touched_relations(update: UpdateSet, schema) -> set[str]:
    """Relations of ``schema`` the update batch names ("$typed" inserts
    resolve to their entity's root extent)."""
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


class UpdatePropagator:
    """Translates target-side updates into source-side updates.

    Requires a bidirectional (equality) mapping — the paper's ADO.NET
    scenario.  For tgd mappings the translation is ambiguous (view
    update problem) and :class:`ExpressivenessError` is raised, which
    is itself one of the paper's points: runtime services constrain the
    usable mapping language.
    """

    def __init__(self, mapping: Mapping):
        if not mapping.equalities:
            raise ExpressivenessError(
                "update propagation needs a bidirectional equality mapping; "
                "tgd mappings do not determine a unique source update"
            )
        self.mapping = mapping
        views = transgen(mapping)
        assert isinstance(views, TransformationPair)
        self.views = views
        # (new_source, new_target) of the previous propagate: lets a
        # caller that chains updates (passing back the target we
        # returned) skip the second full update_view application.
        self._cached: Optional[tuple[Instance, Instance]] = None

    @instrumented("runtime.update_propagate", attrs=lambda self,
                  target_instance, update, source_instance=None, **kw: {
                      "mapping.name": self.mapping.name,
                      "update.size": update.size(),
                      "target.rows": target_instance.total_rows()})
    def propagate(
        self,
        target_instance: Instance,
        update: UpdateSet,
        source_instance: Optional[Instance] = None,
        validate: bool = True,
    ) -> tuple[UpdateSet, Instance, Instance]:
        """Apply ``update`` on the target side; return the translated
        source update, the new source state, and the new target state.

        When the caller chains propagations — passing back the target
        instance returned by the previous call and leaving
        ``source_instance`` unset — the propagator reuses its cached
        source state and re-evaluates only the update-view rules whose
        scanned relations the batch touched, diffing just those
        relations.  ``validate=False`` skips the representability
        roundtrip for callers that have already established it.

        Raises :class:`TransformationError` if the updated target is
        not representable through the mapping (the update view loses
        it), before any state is touched.
        """
        new_target = apply_update(target_instance, update)
        touched = touched_relations(update, self.mapping.target)
        delta_path = (
            source_instance is None
            and self._cached is not None
            and self._cached[1] is target_instance
        )
        if delta_path:
            source_instance = self._cached[0]
            new_source = self.views.update_view.apply_delta(
                new_target, source_instance, touched
            )
            diff_scope = self.views.update_view.output_relations_touched_by(
                touched
            )
        else:
            new_source = self.views.update_view.apply(new_target)
            diff_scope = None
        if validate:
            # Validate representability: query view must reproduce the
            # updated target (roundtrip of the *new* state).
            recovered = self.views.query_view.apply(new_source)
            relations = set(recovered.relations)
            visible = Instance(new_target.schema)
            for relation in relations:
                visible.relations[relation] = list(new_target.rows(relation))
            if not recovered.set_equal(visible):
                raise TransformationError(
                    "update is not representable through the mapping: "
                    "query(update(T′)) ≠ T′"
                )
        if source_instance is None:
            source_instance = self.views.update_view.apply(target_instance)
        source_update = instance_delta(
            source_instance, new_source, relations=diff_scope
        )
        self._cached = (new_source, new_target)
        return source_update, new_source, new_target
