"""Object-oriented metamodel support.

* :func:`emit_classes` — generate Python dataclass source for an OO
  schema: the substrate of the paper's wrapper-generation scenario
  ("produce an object-oriented wrapper for a relational database");
* :func:`schema_from_classes` — import annotated Python classes as an
  OO schema (inheritance becomes generalization; class-typed
  annotations become references).
"""

from __future__ import annotations

import datetime
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

from repro.errors import SchemaError
from repro.metamodel.constraints import KeyConstraint
from repro.metamodel.elements import Attribute, Entity, Reference
from repro.metamodel.schema import Schema
from repro.metamodel.types import (
    BINARY,
    BOOL,
    DATE,
    DATETIME,
    FLOAT,
    INT,
    STRING,
    base_primitive,
)

_PY_TYPES = {
    "bool": "bool",
    "int": "int",
    "bigint": "int",
    "decimal": "float",
    "float": "float",
    "string": "str",
    "text": "str",
    "date": "datetime.date",
    "datetime": "datetime.datetime",
    "binary": "bytes",
    "any": "object",
}

_FROM_PY = {
    bool: BOOL,
    int: INT,
    float: FLOAT,
    str: STRING,
    bytes: BINARY,
    datetime.date: DATE,
    datetime.datetime: DATETIME,
}


def emit_classes(schema: Schema) -> str:
    """Generate dataclass source code for an OO (or ER) schema.

    Subtypes inherit; references become attributes typed with the
    target class (quoted, to tolerate forward definitions); nullable
    attributes become ``Optional`` with ``None`` defaults.
    """
    if schema.metamodel not in ("oo", "er", "universal"):
        raise SchemaError(
            f"emit_classes expects an OO/ER schema, got {schema.metamodel!r}"
        )
    lines = [
        '"""Generated by repro.metamodels.objects.emit_classes."""',
        "",
        "from __future__ import annotations",
        "",
        "import datetime",
        "from dataclasses import dataclass, field",
        "from typing import Optional",
        "",
    ]
    # Parents before children.
    emitted: set[str] = set()
    order: list[Entity] = []

    def visit(entity: Entity) -> None:
        if entity.name in emitted:
            return
        if entity.parent is not None:
            visit(entity.parent)
        emitted.add(entity.name)
        order.append(entity)

    for entity in schema.entities.values():
        visit(entity)

    references_by_owner: dict[str, list[Reference]] = {}
    for reference in schema.references.values():
        references_by_owner.setdefault(reference.owner.name, []).append(reference)

    for entity in order:
        base = f"({entity.parent.name})" if entity.parent is not None else ""
        lines.append("@dataclass")
        lines.append(f"class {entity.name}{base}:")
        body: list[str] = []
        if entity.documentation:
            body.append(f'    """{entity.documentation}"""')
        required = [a for a in entity.attributes if not a.nullable]
        optional = [a for a in entity.attributes if a.nullable]
        for attribute in required:
            py_type = _PY_TYPES[base_primitive(attribute.data_type).name]
            body.append(f"    {attribute.name}: {py_type}")
        for attribute in optional:
            py_type = _PY_TYPES[base_primitive(attribute.data_type).name]
            body.append(
                f"    {attribute.name}: Optional[{py_type}] = None"
            )
        for reference in references_by_owner.get(entity.name, ()):
            body.append(
                f'    {reference.name}: Optional["{reference.target.name}"] '
                "= None"
            )
        if not body:
            body.append("    pass")
        lines.extend(body)
        lines.append("")
    return "\n".join(lines)


def schema_from_classes(
    name: str, classes: Sequence[type], keys: Optional[dict[str, list[str]]] = None
) -> Schema:
    """Import annotated Python classes as an OO schema.

    Single inheritance among the given classes becomes generalization;
    annotations naming another given class become references;
    ``Optional[t]`` marks nullability.  ``keys`` optionally names key
    attributes per class.
    """
    keys = keys or {}
    schema = Schema(name, metamodel="oo")
    by_name = {cls.__name__: cls for cls in classes}
    entities: dict[str, Entity] = {}
    for cls in classes:
        entity = Entity(cls.__name__)
        entity.key = tuple(keys.get(cls.__name__, ()))
        schema.add_entity(entity)
        entities[cls.__name__] = entity
    deferred_references: list[tuple[str, str, str]] = []
    for cls in classes:
        entity = entities[cls.__name__]
        parents = [b for b in cls.__bases__ if b.__name__ in by_name]
        if len(parents) > 1:
            raise SchemaError(
                f"{cls.__name__} has multiple bases among the given classes"
            )
        if parents:
            entity.parent = entities[parents[0].__name__]
        local_names = {c.__name__: c for c in classes}
        hints = get_type_hints(cls, localns=local_names)
        inherited = set()
        for parent in parents:
            inherited.update(get_type_hints(parent, localns=local_names))
        for field_name, annotation in hints.items():
            if field_name in inherited or field_name.startswith("_"):
                continue
            nullable = False
            if get_origin(annotation) and type(None) in get_args(annotation):
                nullable = True
                annotation = next(
                    a for a in get_args(annotation) if a is not type(None)
                )
            if isinstance(annotation, type) and annotation.__name__ in by_name:
                deferred_references.append(
                    (cls.__name__, field_name, annotation.__name__)
                )
                continue
            data_type = _FROM_PY.get(annotation)
            if data_type is None:
                raise SchemaError(
                    f"unsupported annotation {annotation!r} on "
                    f"{cls.__name__}.{field_name}"
                )
            entity.add_attribute(Attribute(field_name, data_type, nullable))
    for owner, field_name, target in deferred_references:
        schema.add_reference(
            Reference(field_name, entities[owner], entities[target])
        )
    for entity in entities.values():
        if entity.key:
            for key_attr in entity.key:
                entity.attribute(key_attr)
            schema.add_constraint(KeyConstraint(entity.name, entity.key))
    schema.check_metamodel()
    return schema
