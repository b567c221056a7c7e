"""Schema elements of the universal metamodel.

The element kinds cover the constructs of the popular metamodels the
paper requires (Section 2): SQL tables, ER entity types with is-a
hierarchies, XSD complex types with containment (nesting), and OO
classes with references.  Following Atzeni & Torlone's "supermodel"
idea (cited in Section 3.2), each concrete metamodel uses a subset of
these constructs, and ModelGen works by eliminating the constructs a
target metamodel lacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, TYPE_CHECKING

from repro.errors import SchemaError
from repro.metamodel.types import DataType

if TYPE_CHECKING:
    from repro.metamodel.schema import Schema


class ElementKind(enum.Enum):
    """Discriminator for the universal metamodel's constructs."""

    ENTITY = "entity"
    ATTRIBUTE = "attribute"
    ASSOCIATION = "association"
    CONTAINMENT = "containment"
    REFERENCE = "reference"
    GENERALIZATION = "generalization"


@dataclass(frozen=True)
class Cardinality:
    """A (min, max) multiplicity; ``max=None`` means unbounded (``*``)."""

    min: int = 0
    max: Optional[int] = 1

    def __str__(self) -> str:
        upper = "*" if self.max is None else str(self.max)
        return f"{self.min}..{upper}"

    @property
    def is_many(self) -> bool:
        return self.max is None or self.max > 1

    @property
    def is_required(self) -> bool:
        return self.min >= 1


ONE = Cardinality(1, 1)
ZERO_OR_ONE = Cardinality(0, 1)
MANY = Cardinality(0, None)
ONE_OR_MORE = Cardinality(1, None)


class Element:
    """Common behaviour of named schema elements.

    Elements are identified within a schema by their *path* (e.g.
    ``"Person.Name"`` for an attribute); identity is by path within the
    owning schema, so elements are hashable and comparable without
    dragging in the whole object graph.
    """

    kind: ElementKind

    def __init__(self, name: str):
        if not name:
            raise SchemaError("element name must be non-empty")
        self.name = name
        self.documentation: str = ""
        self.annotations: dict[str, object] = {}

    @property
    def path(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.path}>"


class Attribute(Element):
    """A typed, possibly nullable attribute of an entity.

    SQL column, ER attribute, XSD simple element/attribute, OO field —
    all map to this construct.
    """

    kind = ElementKind.ATTRIBUTE

    def __init__(
        self,
        name: str,
        data_type: DataType,
        nullable: bool = False,
        default: object = None,
    ):
        super().__init__(name)
        self.data_type = data_type
        self.nullable = nullable
        self.default = default
        self.owner: Optional[Entity] = None

    @property
    def path(self) -> str:
        if self.owner is None:
            return self.name
        return f"{self.owner.path}.{self.name}"

    def clone(self) -> "Attribute":
        copy = Attribute(self.name, self.data_type, self.nullable, self.default)
        copy.documentation = self.documentation
        copy.annotations = dict(self.annotations)
        return copy


class Entity(Element):
    """A structured type with attributes: table, entity type, complex
    type or class, depending on the metamodel.

    ``parent`` implements is-a generalization (single inheritance, as in
    the paper's Figure 2 hierarchy); ``is_abstract`` marks entities that
    may not have direct instances.
    """

    kind = ElementKind.ENTITY

    def __init__(self, name: str, is_abstract: bool = False):
        super().__init__(name)
        self.attributes: list[Attribute] = []
        self.parent: Optional[Entity] = None
        self.is_abstract = is_abstract
        self.key: tuple[str, ...] = ()
        self.schema: Optional["Schema"] = None

    def add_attribute(self, attribute: Attribute) -> Attribute:
        if any(a.name == attribute.name for a in self.attributes):
            raise SchemaError(
                f"duplicate attribute {attribute.name!r} on entity {self.name!r}"
            )
        attribute.owner = self
        self.attributes.append(attribute)
        return attribute

    def attribute(self, name: str) -> Attribute:
        """The attribute named ``name``, searching inherited attributes too."""
        for entity in self.ancestry():
            for attr in entity.attributes:
                if attr.name == name:
                    return attr
        raise SchemaError(f"entity {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        try:
            self.attribute(name)
        except SchemaError:
            return False
        return True

    def own_attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def all_attributes(self) -> list[Attribute]:
        """Own and inherited attributes, root-most first."""
        result: list[Attribute] = []
        for entity in reversed(list(self.ancestry())):
            result.extend(entity.attributes)
        return result

    def all_attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.all_attributes())

    def ancestry(self) -> Iterator["Entity"]:
        """This entity, then its parent, up to the root."""
        current: Optional[Entity] = self
        seen: set[int] = set()
        while current is not None:
            if id(current) in seen:
                raise SchemaError(f"inheritance cycle at entity {current.name!r}")
            seen.add(id(current))
            yield current
            current = current.parent

    def root(self) -> "Entity":
        *_, last = self.ancestry()
        return last

    def is_subtype_of(self, other: "Entity") -> bool:
        """Reflexive subtype test along the is-a chain."""
        return any(e.name == other.name for e in self.ancestry())

    def children(self) -> list["Entity"]:
        """Direct subtypes within the owning schema."""
        if self.schema is None:
            return []
        return [
            e
            for e in self.schema.entities.values()
            if e.parent is not None and e.parent.name == self.name
        ]

    def descendants(self) -> list["Entity"]:
        """All strict subtypes, breadth-first."""
        result: list[Entity] = []
        frontier = self.children()
        while frontier:
            result.extend(frontier)
            frontier = [c for e in frontier for c in e.children()]
        return result

    def key_attributes(self) -> tuple[Attribute, ...]:
        root = self.root()
        return tuple(root.attribute(k) for k in root.key)

    def clone(self) -> "Entity":
        copy = Entity(self.name, self.is_abstract)
        copy.key = self.key
        copy.documentation = self.documentation
        copy.annotations = dict(self.annotations)
        for attr in self.attributes:
            copy.add_attribute(attr.clone())
        return copy


class AssociationEnd:
    """One end of an association: a role played by an entity."""

    def __init__(self, role: str, entity: Entity, cardinality: Cardinality = MANY):
        self.role = role
        self.entity = entity
        self.cardinality = cardinality

    def __repr__(self) -> str:
        return f"<End {self.role}:{self.entity.name}[{self.cardinality}]>"


class Association(Element):
    """A relationship between two entities (ER relationship, UML
    association).  ModelGen eliminates many-to-many associations into
    join tables when targeting the relational metamodel."""

    kind = ElementKind.ASSOCIATION

    def __init__(self, name: str, source: AssociationEnd, target: AssociationEnd):
        super().__init__(name)
        self.source = source
        self.target = target
        self.attributes: list[Attribute] = []

    @property
    def is_many_to_many(self) -> bool:
        return self.source.cardinality.is_many and self.target.cardinality.is_many

    def ends(self) -> tuple[AssociationEnd, AssociationEnd]:
        return (self.source, self.target)


class Containment(Element):
    """Parent-child nesting: XSD complex content, nested collections in
    OO.  Absent from the relational metamodel, so ModelGen flattens it
    by introducing keys and inclusion dependencies."""

    kind = ElementKind.CONTAINMENT

    def __init__(
        self,
        name: str,
        parent: Entity,
        child: Entity,
        cardinality: Cardinality = MANY,
    ):
        super().__init__(name)
        self.parent = parent
        self.child = child
        self.cardinality = cardinality


class Reference(Element):
    """A typed pointer attribute: OO object reference or SQL foreign key
    viewed as a navigable construct."""

    kind = ElementKind.REFERENCE

    def __init__(
        self,
        name: str,
        owner: Entity,
        target: Entity,
        via_attributes: tuple[str, ...] = (),
        cardinality: Cardinality = ZERO_OR_ONE,
    ):
        super().__init__(name)
        self.owner = owner
        self.target = target
        self.via_attributes = via_attributes
        self.cardinality = cardinality

    @property
    def path(self) -> str:
        return f"{self.owner.name}.{self.name}"
