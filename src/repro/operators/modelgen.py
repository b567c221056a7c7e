"""The ModelGen operator (paper, Section 3.2).

ModelGen "automatically translates a source schema expressed in one
metamodel into an equivalent target schema expressed in a different
metamodel, along with mapping constraints between the two schemas."
Following Atzeni & Torlone's rule-repertoire idea, translation is a
sequence of construct eliminations over the universal metamodel —
applying exactly the rules needed to remove constructs the target
metamodel lacks — and, per the paper's critique of the data-copy
approaches [7][81], it emits *declarative instance-level mapping
constraints* (the Figure 2 equality style), not just a schema.

Construct-elimination rules:

* **generalization** → tables, with three strategies (the "flexible
  mapping of inheritance hierarchies" of [19] / ADO.NET):
  - ``TPH`` (table per hierarchy): one table, discriminator column;
  - ``TPT`` (table per type): one table per type holding its own
    attributes, key-joined — Figure 2's shape;
  - ``TPC`` (table per concrete class): one table per concrete type
    holding all inherited attributes;
* **association** → join table keyed by both ends' keys;
* **containment** → child table carrying the parent's key as a foreign
  key;
* **reference** → foreign-key columns.

Enrichment rules run in the opposite direction (relational → ER/OO/
nested): foreign keys become associations, references or containments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.algebra import (
    Col,
    EntityScan,
    IsOf,
    Scan,
    Select,
    eq,
    project_names,
)
from repro.errors import SchemaError
from repro.mappings.mapping import EqualityConstraint, Mapping
from repro.metamodel.constraints import (
    Disjointness,
    InclusionDependency,
    KeyConstraint,
)
from repro.metamodel.elements import Attribute, Entity
from repro.metamodel.schema import Schema
from repro.metamodel.types import STRING
from repro.observability.instrument import instrumented


class InheritanceStrategy(enum.Enum):
    """How generalization hierarchies map to tables."""

    TPH = "table-per-hierarchy"
    TPT = "table-per-type"
    TPC = "table-per-concrete-class"


@dataclass
class ModelGenResult:
    """Derived schema plus the mapping between original and derived.

    ``mapping`` is oriented derived → original (source = derived flat
    schema, target = original), matching the paper's Figure 2 where the
    relational side is the mapping's source and the ER side its target;
    TransGen then produces the query view (entities from tables) and
    update view (tables from entities).
    """

    schema: Schema
    mapping: Mapping


@instrumented("op.modelgen", attrs=lambda schema, target_metamodel, *a, **k: {
    "schema.entities": len(schema.entities),
    "target.metamodel": target_metamodel,
})
def modelgen(
    schema: Schema,
    target_metamodel: str,
    strategy: InheritanceStrategy = InheritanceStrategy.TPT,
    name: str = "",
) -> ModelGenResult:
    """Translate ``schema`` into ``target_metamodel``."""
    if target_metamodel not in Schema.METAMODEL_CONSTRUCTS:
        raise SchemaError(f"unknown metamodel {target_metamodel!r}")
    allowed = Schema.METAMODEL_CONSTRUCTS[target_metamodel]
    derived = Schema(name or f"{schema.name}_{target_metamodel}", target_metamodel)
    constraints: list[EqualityConstraint] = []

    uses_generalization = any(
        e.parent is not None for e in schema.entities.values()
    )
    if uses_generalization and "generalization" not in allowed:
        _eliminate_generalization(schema, derived, strategy, constraints)
    else:
        _copy_entities(schema, derived, constraints,
                       keep_hierarchy="generalization" in allowed)

    if schema.associations:
        if "association" in allowed:
            for association in schema.associations.values():
                derived.add_association(_clone_association(association, derived))
        else:
            _eliminate_associations(schema, derived, constraints)

    if schema.containments:
        if "containment" in allowed:
            for containment in schema.containments.values():
                from repro.metamodel.elements import Containment

                derived.add_containment(
                    Containment(
                        containment.name,
                        derived.entity(containment.parent.name),
                        derived.entity(containment.child.name),
                        containment.cardinality,
                    )
                )
        else:
            _eliminate_containments(schema, derived)

    if schema.references:
        if "reference" in allowed:
            for reference in schema.references.values():
                from repro.metamodel.elements import Reference

                derived.add_reference(
                    Reference(
                        reference.name,
                        derived.entity(reference.owner.name),
                        derived.entity(reference.target.name),
                        reference.via_attributes,
                        reference.cardinality,
                    )
                )
        else:
            _eliminate_references(schema, derived)

    # Enrichment: expose foreign keys as navigable constructs when the
    # target metamodel supports them and the source was flat.
    if schema.metamodel == "relational":
        _enrich_from_foreign_keys(schema, derived, allowed)

    derived.check_metamodel()
    mapping = Mapping(
        derived, schema, constraints,
        name=f"modelgen_{schema.name}_{target_metamodel}",
    )
    return ModelGenResult(schema=derived, mapping=mapping)


# ----------------------------------------------------------------------
# plain copies
# ----------------------------------------------------------------------
def _copy_entities(
    schema: Schema,
    derived: Schema,
    constraints: list[EqualityConstraint],
    keep_hierarchy: bool,
) -> None:
    for entity in schema.entities.values():
        derived.add_entity(entity.clone())
    if keep_hierarchy:
        for entity in schema.entities.values():
            if entity.parent is not None:
                derived.entities[entity.name].parent = derived.entities[
                    entity.parent.name
                ]
    for constraint in schema.constraints:
        derived.add_constraint(constraint)
    hierarchical = {
        e.name for e in schema.entities.values()
        if e.parent is not None or e.children()
    }
    for entity in schema.entities.values():
        if entity.name in hierarchical and not keep_hierarchy:
            continue  # handled by the generalization rule
        columns = list(entity.all_attribute_names())
        source_scan = (
            EntityScan(entity.name, only=True)
            if entity.name in hierarchical
            else Scan(entity.name)
        )
        target_scan = (
            EntityScan(entity.name, only=True)
            if entity.name in hierarchical and keep_hierarchy
            else Scan(entity.name)
        )
        constraints.append(
            EqualityConstraint(
                source_expr=project_names(target_scan, columns),
                target_expr=project_names(source_scan, columns),
                name=f"copy_{entity.name}",
            )
        )


def _clone_association(association, derived: Schema):
    from repro.metamodel.elements import Association, AssociationEnd

    return Association(
        association.name,
        AssociationEnd(
            association.source.role,
            derived.entity(association.source.entity.name),
            association.source.cardinality,
        ),
        AssociationEnd(
            association.target.role,
            derived.entity(association.target.entity.name),
            association.target.cardinality,
        ),
    )


# ----------------------------------------------------------------------
# generalization elimination
# ----------------------------------------------------------------------
def _eliminate_generalization(
    schema: Schema,
    derived: Schema,
    strategy: InheritanceStrategy,
    constraints: list[EqualityConstraint],
) -> None:
    roots = [e for e in schema.root_entities()]
    flat_entities = [e for e in roots if not e.children()]
    hierarchy_roots = [e for e in roots if e.children()]

    for entity in flat_entities:
        copy = entity.clone()
        derived.add_entity(copy)
        columns = list(entity.all_attribute_names())
        constraints.append(
            EqualityConstraint(
                source_expr=project_names(Scan(entity.name), columns),
                target_expr=project_names(Scan(entity.name), columns),
                name=f"copy_{entity.name}",
            )
        )
        for constraint in schema.constraints:
            if isinstance(constraint, KeyConstraint) and (
                constraint.entity == entity.name
            ):
                derived.add_constraint(constraint)

    for root in hierarchy_roots:
        if not root.key:
            raise SchemaError(
                f"hierarchy root {root.name!r} needs a key to map inheritance"
            )
        if strategy is InheritanceStrategy.TPH:
            _tph(root, derived, constraints)
        elif strategy is InheritanceStrategy.TPT:
            _tpt(root, derived, constraints)
        else:
            _tpc(root, derived, constraints)


def _hierarchy_members(root: Entity) -> list[Entity]:
    return [root] + root.descendants()


def _concrete_members(root: Entity) -> list[Entity]:
    return [e for e in _hierarchy_members(root) if not e.is_abstract]


def _tph(root: Entity, derived: Schema, constraints) -> None:
    """One wide table with a discriminator column."""
    table_name = f"{root.name}_all"
    table = Entity(table_name)
    discriminator = f"{root.name}_type"
    table.add_attribute(Attribute(discriminator, STRING))
    added: set[str] = {discriminator}
    for member in _hierarchy_members(root):
        for attribute in member.attributes:
            if attribute.name in added:
                continue
            clone = attribute.clone()
            # Attributes below the root are null for other types.
            clone.nullable = clone.nullable or member.name != root.name
            table.add_attribute(clone)
            added.add(attribute.name)
    table.key = root.key
    derived.add_entity(table)
    derived.add_constraint(KeyConstraint(table_name, root.key))
    for member in _concrete_members(root):
        columns = list(member.all_attribute_names())
        constraints.append(
            EqualityConstraint(
                source_expr=project_names(
                    Select(Scan(table_name),
                           eq(Col(discriminator), member.name)),
                    columns,
                ),
                target_expr=project_names(
                    Select(EntityScan(root.name), IsOf(member.name, only=True)),
                    columns,
                ),
                name=f"tph_{member.name}",
            )
        )


def _tpt(root: Entity, derived: Schema, constraints) -> None:
    """One table per type holding its own attributes plus the key."""
    key = list(root.key)
    for member in _hierarchy_members(root):
        table_name = member.name
        table = Entity(table_name)
        for key_attr in root.key:
            table.add_attribute(root.attribute(key_attr).clone())
        for attribute in member.attributes:
            if attribute.name not in root.key:
                table.add_attribute(attribute.clone())
        table.key = tuple(key)
        derived.add_entity(table)
        derived.add_constraint(KeyConstraint(table_name, tuple(key)))
        if member.parent is not None:
            derived.add_constraint(
                InclusionDependency(
                    table_name, tuple(key), member.parent.name, tuple(key)
                )
            )
        columns = key + [
            a.name for a in member.attributes if a.name not in root.key
        ]
        constraints.append(
            EqualityConstraint(
                source_expr=project_names(Scan(table_name), columns),
                target_expr=project_names(
                    Select(EntityScan(root.name), IsOf(member.name)), columns
                ),
                name=f"tpt_{member.name}",
            )
        )


def _tpc(root: Entity, derived: Schema, constraints) -> None:
    """One table per concrete class with all inherited attributes."""
    for member in _concrete_members(root):
        table_name = f"{member.name}_c"
        table = Entity(table_name)
        for attribute in member.all_attributes():
            table.add_attribute(attribute.clone())
        table.key = root.key
        derived.add_entity(table)
        derived.add_constraint(KeyConstraint(table_name, root.key))
        columns = list(member.all_attribute_names())
        constraints.append(
            EqualityConstraint(
                source_expr=project_names(Scan(table_name), columns),
                target_expr=project_names(
                    Select(EntityScan(root.name), IsOf(member.name, only=True)),
                    columns,
                ),
                name=f"tpc_{member.name}",
            )
        )
    siblings = [f"{m.name}_c" for m in _concrete_members(root)]
    if len(siblings) > 1:
        derived.add_constraint(Disjointness(tuple(siblings)))


# ----------------------------------------------------------------------
# other construct eliminations
# ----------------------------------------------------------------------
def _key_of(schema_entity: Entity) -> list[str]:
    key = list(schema_entity.root().key)
    if not key:
        raise SchemaError(
            f"entity {schema_entity.name!r} needs a key for this rule"
        )
    return key


def _eliminate_associations(schema: Schema, derived: Schema, constraints) -> None:
    """Every association becomes a join table over the two ends' keys.

    Instance convention: an association's extent is a relation named
    after it with columns ``<role>_<key>``; the join table uses the
    same columns, so the mapping constraint is a plain copy.
    """
    for association in schema.associations.values():
        table = Entity(association.name)
        columns: list[str] = []
        for end in association.ends():
            for key_attr in _key_of(end.entity):
                column = f"{end.role}_{key_attr}"
                attr_type = end.entity.root().attribute(key_attr).data_type
                table.add_attribute(Attribute(column, attr_type))
                columns.append(column)
        table.key = tuple(columns)
        derived.add_entity(table)
        derived.add_constraint(KeyConstraint(association.name, tuple(columns)))
        for end in association.ends():
            end_key = _key_of(end.entity)
            end_table = _table_for_entity(derived, end.entity)
            if end_table is not None:
                derived.add_constraint(
                    InclusionDependency(
                        association.name,
                        tuple(f"{end.role}_{k}" for k in end_key),
                        end_table,
                        tuple(end_key),
                    )
                )
        constraints.append(
            EqualityConstraint(
                source_expr=project_names(Scan(association.name), columns),
                target_expr=project_names(Scan(association.name), columns),
                name=f"assoc_{association.name}",
            )
        )


def _table_for_entity(derived: Schema, entity: Entity) -> str | None:
    """The derived table carrying an entity's key (depends on strategy)."""
    for candidate in (entity.name, f"{entity.name}_c", f"{entity.root().name}_all",
                      entity.root().name):
        if candidate in derived.entities:
            return candidate
    return None


def _eliminate_containments(schema: Schema, derived: Schema) -> None:
    """Child tables carry the parent key as FK columns named
    ``<parent>_<key>`` (the nested importer establishes the same
    convention on instances)."""
    for containment in schema.containments.values():
        parent_key = _key_of(containment.parent)
        child_name = containment.child.name
        child = derived.entities.get(child_name)
        if child is None:
            continue
        for key_attr in parent_key:
            column = f"{containment.parent.name}_{key_attr}"
            if not child.has_attribute(column):
                child.add_attribute(
                    Attribute(
                        column,
                        containment.parent.root().attribute(key_attr).data_type,
                    )
                )
        derived.add_constraint(
            InclusionDependency(
                child_name,
                tuple(f"{containment.parent.name}_{k}" for k in parent_key),
                containment.parent.name,
                tuple(parent_key),
            )
        )


def _eliminate_references(schema: Schema, derived: Schema) -> None:
    """Reference ``r`` on entity E targeting T becomes FK columns
    ``<r>_<key>`` on E's table."""
    for reference in schema.references.values():
        target_key = _key_of(reference.target)
        owner = derived.entities.get(reference.owner.name)
        if owner is None:
            continue
        columns = []
        for key_attr in target_key:
            column = f"{reference.name}_{key_attr}"
            if not owner.has_attribute(column):
                owner.add_attribute(
                    Attribute(
                        column,
                        reference.target.root().attribute(key_attr).data_type,
                        nullable=not reference.cardinality.is_required,
                    )
                )
            columns.append(column)
        target_table = _table_for_entity(derived, reference.target)
        if target_table is not None:
            derived.add_constraint(
                InclusionDependency(
                    reference.owner.name,
                    tuple(columns),
                    target_table,
                    tuple(target_key),
                )
            )


# ----------------------------------------------------------------------
# enrichment (relational → richer metamodels)
# ----------------------------------------------------------------------
def _enrich_from_foreign_keys(
    schema: Schema, derived: Schema, allowed: frozenset[str]
) -> None:
    from repro.metamodel.elements import (
        Association,
        AssociationEnd,
        Cardinality,
        Containment,
        Reference,
    )

    for dep in schema.inclusion_dependencies():
        if dep.source not in derived.entities or dep.target not in derived.entities:
            continue
        if "reference" in allowed:
            ref_name = f"ref_{dep.target}"
            if f"{dep.source}.{ref_name}" not in derived.references:
                derived.add_reference(
                    Reference(
                        ref_name,
                        derived.entity(dep.source),
                        derived.entity(dep.target),
                        dep.source_attributes,
                    )
                )
        elif "association" in allowed:
            assoc_name = f"{dep.source}_{dep.target}"
            if assoc_name not in derived.associations:
                derived.add_association(
                    Association(
                        assoc_name,
                        AssociationEnd(dep.source, derived.entity(dep.source),
                                       Cardinality(0, None)),
                        AssociationEnd(dep.target, derived.entity(dep.target),
                                       Cardinality(1, 1)),
                    )
                )
        elif "containment" in allowed:
            cont_name = f"{dep.target}_{dep.source}"
            if cont_name not in derived.containments:
                derived.add_containment(
                    Containment(
                        cont_name,
                        derived.entity(dep.target),
                        derived.entity(dep.source),
                    )
                )
