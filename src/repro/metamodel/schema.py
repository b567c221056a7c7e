"""The :class:`Schema` container and element paths.

A schema is "an expression that defines a set of possible instances"
(paper, Section 2).  Here the expression is the collection of entities,
associations, containments, references and integrity constraints; the
set of possible instances is checked by
:mod:`repro.instances.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import SchemaError
from repro.metamodel.constraints import (
    Constraint,
    InclusionDependency,
    KeyConstraint,
)
from repro.metamodel.elements import (
    Association,
    Containment,
    Element,
    Entity,
    Reference,
)


@dataclass(frozen=True)
class ElementPath:
    """A dotted path naming an element within a schema.

    ``"Person"`` names an entity, ``"Person.Name"`` one of its
    attributes.  Correspondences (:mod:`repro.mappings.correspondence`)
    are pairs of these.
    """

    schema: str
    path: str

    def __str__(self) -> str:
        return f"{self.schema}::{self.path}"

    @property
    def entity(self) -> str:
        return self.path.split(".", 1)[0]

    @property
    def attribute(self) -> Optional[str]:
        parts = self.path.split(".", 1)
        return parts[1] if len(parts) == 2 else None

    @property
    def is_entity(self) -> bool:
        return self.attribute is None


class Schema:
    """A named collection of elements in a given metamodel.

    ``metamodel`` is a tag (``"universal"``, ``"relational"``, ``"er"``,
    ``"nested"``, ``"oo"``) recording which construct subset the schema
    is allowed to use; :meth:`check_metamodel` enforces it and ModelGen
    uses it to pick elimination rules.
    """

    #: Constructs permitted per concrete metamodel.  The universal
    #: metamodel permits everything.
    METAMODEL_CONSTRUCTS: dict[str, frozenset[str]] = {
        "universal": frozenset(
            {"entity", "attribute", "association", "containment",
             "reference", "generalization"}
        ),
        "relational": frozenset({"entity", "attribute"}),
        "er": frozenset({"entity", "attribute", "association", "generalization"}),
        "nested": frozenset({"entity", "attribute", "containment"}),
        "oo": frozenset({"entity", "attribute", "reference", "generalization"}),
    }

    def __init__(self, name: str, metamodel: str = "universal"):
        if metamodel not in self.METAMODEL_CONSTRUCTS:
            raise SchemaError(f"unknown metamodel {metamodel!r}")
        self.name = name
        self.metamodel = metamodel
        self.entities: dict[str, Entity] = {}
        self.associations: dict[str, Association] = {}
        self.containments: dict[str, Containment] = {}
        self.references: dict[str, Reference] = {}
        self.constraints: list[Constraint] = []
        self.documentation: str = ""

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_entity(self, entity: Entity) -> Entity:
        if entity.name in self.entities:
            raise SchemaError(f"duplicate entity {entity.name!r} in {self.name!r}")
        entity.schema = self
        self.entities[entity.name] = entity
        return entity

    def add_association(self, association: Association) -> Association:
        if association.name in self.associations:
            raise SchemaError(f"duplicate association {association.name!r}")
        self.associations[association.name] = association
        return association

    def add_containment(self, containment: Containment) -> Containment:
        if containment.name in self.containments:
            raise SchemaError(f"duplicate containment {containment.name!r}")
        self.containments[containment.name] = containment
        return containment

    def add_reference(self, reference: Reference) -> Reference:
        if reference.path in self.references:
            raise SchemaError(f"duplicate reference {reference.path!r}")
        self.references[reference.path] = reference
        return reference

    def add_constraint(self, constraint: Constraint) -> Constraint:
        if constraint not in self.constraints:
            self.constraints.append(constraint)
        return constraint

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def entity(self, name: str) -> Entity:
        try:
            return self.entities[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no entity {name!r}") from None

    def resolve(self, path: str) -> Element:
        """Resolve a dotted path to an entity or attribute element."""
        parts = path.split(".")
        entity = self.entity(parts[0])
        if len(parts) == 1:
            return entity
        if len(parts) == 2:
            return entity.attribute(parts[1])
        raise SchemaError(f"cannot resolve path {path!r}")

    def element_path(self, path: str) -> ElementPath:
        self.resolve(path)  # raises if invalid
        return ElementPath(self.name, path)

    def all_element_paths(self) -> list[ElementPath]:
        """All entity and attribute paths, entities first — the match
        operator iterates these."""
        paths: list[ElementPath] = []
        for entity in self.entities.values():
            paths.append(ElementPath(self.name, entity.name))
        for entity in self.entities.values():
            for attr in entity.attributes:
                paths.append(ElementPath(self.name, f"{entity.name}.{attr.name}"))
        return paths

    def root_entities(self) -> list[Entity]:
        return [e for e in self.entities.values() if e.parent is None]

    def keys_of(self, entity_name: str) -> list[KeyConstraint]:
        return [
            c
            for c in self.constraints
            if isinstance(c, KeyConstraint) and c.entity == entity_name
        ]

    def inclusion_dependencies(self) -> list[InclusionDependency]:
        return [c for c in self.constraints if isinstance(c, InclusionDependency)]

    def foreign_keys_of(self, entity_name: str) -> list[InclusionDependency]:
        return [
            c for c in self.inclusion_dependencies() if c.source == entity_name
        ]

    # ------------------------------------------------------------------
    # metamodel conformance
    # ------------------------------------------------------------------
    def constructs_used(self) -> set[str]:
        used = set()
        if self.entities:
            used.add("entity")
        if any(e.attributes for e in self.entities.values()):
            used.add("attribute")
        if any(e.parent is not None for e in self.entities.values()):
            used.add("generalization")
        if self.associations:
            used.add("association")
        if self.containments:
            used.add("containment")
        if self.references:
            used.add("reference")
        return used

    def check_metamodel(self) -> None:
        """Raise :class:`SchemaError` if the schema uses constructs its
        declared metamodel does not support."""
        allowed = self.METAMODEL_CONSTRUCTS[self.metamodel]
        illegal = self.constructs_used() - allowed
        if illegal:
            raise SchemaError(
                f"schema {self.name!r} ({self.metamodel}) uses unsupported "
                f"constructs: {sorted(illegal)}"
            )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "Schema":
        """Deep-copy the schema (shared nothing with the original)."""
        copy = Schema(name or self.name, self.metamodel)
        copy.documentation = self.documentation
        for entity in self.entities.values():
            copy.add_entity(entity.clone())
        for entity in self.entities.values():
            if entity.parent is not None:
                copy.entities[entity.name].parent = copy.entities[entity.parent.name]
        for assoc in self.associations.values():
            from repro.metamodel.elements import AssociationEnd

            copy.add_association(
                Association(
                    assoc.name,
                    AssociationEnd(
                        assoc.source.role,
                        copy.entities[assoc.source.entity.name],
                        assoc.source.cardinality,
                    ),
                    AssociationEnd(
                        assoc.target.role,
                        copy.entities[assoc.target.entity.name],
                        assoc.target.cardinality,
                    ),
                )
            )
        for cont in self.containments.values():
            copy.add_containment(
                Containment(
                    cont.name,
                    copy.entities[cont.parent.name],
                    copy.entities[cont.child.name],
                    cont.cardinality,
                )
            )
        for ref in self.references.values():
            copy.add_reference(
                Reference(
                    ref.name,
                    copy.entities[ref.owner.name],
                    copy.entities[ref.target.name],
                    ref.via_attributes,
                    ref.cardinality,
                )
            )
        copy.constraints = list(self.constraints)
        return copy

    def describe(self) -> str:
        """A human-readable one-schema report (used by examples/tools)."""
        lines = [f"schema {self.name} [{self.metamodel}]"]
        for entity in self.entities.values():
            flags = []
            if entity.parent is not None:
                flags.append(f"is-a {entity.parent.name}")
            if entity.is_abstract:
                flags.append("abstract")
            suffix = f"  ({', '.join(flags)})" if flags else ""
            lines.append(f"  entity {entity.name}{suffix}")
            for attr in entity.attributes:
                null = "?" if attr.nullable else ""
                key_mark = "*" if attr.name in entity.key else ""
                lines.append(f"    {key_mark}{attr.name}{null}: {attr.data_type}")
        for assoc in self.associations.values():
            lines.append(
                f"  association {assoc.name}: "
                f"{assoc.source.entity.name}[{assoc.source.cardinality}] -- "
                f"{assoc.target.entity.name}[{assoc.target.cardinality}]"
            )
        for cont in self.containments.values():
            lines.append(
                f"  containment {cont.name}: {cont.parent.name} contains "
                f"{cont.child.name}[{cont.cardinality}]"
            )
        for ref in self.references.values():
            lines.append(
                f"  reference {ref.path} -> {ref.target.name}"
            )
        for constraint in self.constraints:
            lines.append(f"  constraint {constraint.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Schema {self.name} [{self.metamodel}] {len(self.entities)} entities>"

    def __contains__(self, path: str) -> bool:
        try:
            self.resolve(path)
        except SchemaError:
            return False
        return True

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities.values())
