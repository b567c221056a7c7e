"""Nested (XML-like) metamodel support.

Three facilities:

* :func:`emit_xsd` — render a nested schema as an XSD subset
  (complexType with nested sequences), for interoperability demos;
* :func:`flatten_documents` — turn nested documents (dicts whose
  list-valued fields hold child documents) into a flat
  :class:`~repro.instances.database.Instance` following the containment
  convention ModelGen's flattening rule expects: each child row carries
  ``<parent>_<key>`` columns;
* :func:`nest_instance` — the reverse: reassemble documents from a
  flat instance plus a nested schema.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SchemaError
from repro.instances.database import Instance, Row
from repro.metamodel.elements import Containment, Entity
from repro.metamodel.schema import Schema
from repro.metamodel.types import base_primitive

_XSD_TYPES = {
    "bool": "xs:boolean",
    "int": "xs:integer",
    "bigint": "xs:long",
    "decimal": "xs:decimal",
    "float": "xs:double",
    "string": "xs:string",
    "text": "xs:string",
    "date": "xs:date",
    "datetime": "xs:dateTime",
    "binary": "xs:base64Binary",
    "any": "xs:anyType",
}


def _children_of(schema: Schema, entity: Entity) -> list[Containment]:
    return [
        c for c in schema.containments.values() if c.parent.name == entity.name
    ]


def _roots(schema: Schema) -> list[Entity]:
    contained = {c.child.name for c in schema.containments.values()}
    return [e for e in schema.entities.values() if e.name not in contained]


def emit_xsd(schema: Schema) -> str:
    """Render a nested schema as an XSD subset."""
    if schema.metamodel not in ("nested", "universal"):
        raise SchemaError(
            f"emit_xsd expects a nested schema, got {schema.metamodel!r}"
        )
    lines = ['<?xml version="1.0"?>',
             '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">']

    def emit_entity(entity: Entity, indent: int) -> None:
        pad = "  " * indent
        lines.append(f'{pad}<xs:element name="{entity.name}">')
        lines.append(f"{pad}  <xs:complexType><xs:sequence>")
        for attribute in entity.attributes:
            occurs = ' minOccurs="0"' if attribute.nullable else ""
            xsd_type = _XSD_TYPES[base_primitive(attribute.data_type).name]
            lines.append(
                f'{pad}    <xs:element name="{attribute.name}" '
                f'type="{xsd_type}"{occurs}/>'
            )
        for containment in _children_of(schema, entity):
            max_occurs = (
                "unbounded"
                if containment.cardinality.max is None
                else str(containment.cardinality.max)
            )
            lines.append(
                f'{pad}    <!-- {containment.name}: '
                f'maxOccurs="{max_occurs}" -->'
            )
            emit_entity(containment.child, indent + 2)
        lines.append(f"{pad}  </xs:sequence></xs:complexType>")
        lines.append(f"{pad}</xs:element>")

    for root in _roots(schema):
        emit_entity(root, 1)
    lines.append("</xs:schema>")
    return "\n".join(lines)


def flatten_documents(
    schema: Schema, root_entity: str, documents: Iterable[dict]
) -> Instance:
    """Flatten nested documents into relation rows.

    A document is a dict of the entity's attributes, plus one key per
    containment (the containment name or the child entity name) holding
    a list of child documents.  Child rows gain ``<parent>_<key>``
    columns so the flat form is joinable — exactly what ModelGen's
    containment-elimination rule emits.
    """
    instance = Instance(schema)
    root = schema.entity(root_entity)

    def visit(entity: Entity, document: dict, parent_link: Row) -> None:
        attributes = set(entity.all_attribute_names())
        row: Row = dict(parent_link)
        child_fields: dict[str, list] = {}
        for key, value in document.items():
            if key in attributes:
                row[key] = value
            elif isinstance(value, list):
                child_fields[key] = value
            else:
                raise SchemaError(
                    f"field {key!r} is neither an attribute of "
                    f"{entity.name!r} nor a child list"
                )
        instance.insert(entity.name, row)
        containments = _children_of(schema, entity)
        for field_name, children in child_fields.items():
            containment = next(
                (
                    c
                    for c in containments
                    if c.name == field_name or c.child.name == field_name
                ),
                None,
            )
            if containment is None:
                raise SchemaError(
                    f"no containment of {entity.name!r} matches field "
                    f"{field_name!r}"
                )
            key = entity.root().key
            if not key:
                raise SchemaError(
                    f"entity {entity.name!r} needs a key to flatten children"
                )
            link = {
                f"{entity.name}_{k}": row.get(k) for k in key
            }
            for child_document in children:
                visit(containment.child, child_document, link)

    for document in documents:
        visit(root, document, {})
    return instance


def nest_instance(
    schema: Schema, root_entity: str, instance: Instance
) -> list[dict]:
    """Reassemble documents from a flat instance (inverse of
    :func:`flatten_documents`)."""
    root = schema.entity(root_entity)

    def assemble(entity: Entity, row: Row) -> dict:
        document = {
            k: v
            for k, v in row.items()
            if k in set(entity.all_attribute_names())
        }
        key = entity.root().key
        for containment in _children_of(schema, entity):
            children = []
            link_columns = {f"{entity.name}_{k}": row.get(k) for k in key}
            for child_row in instance.rows(containment.child.name):
                if all(
                    child_row.get(col) == val
                    for col, val in link_columns.items()
                ):
                    children.append(assemble(containment.child, child_row))
            document[containment.name] = children
        return document

    return [assemble(root, row) for row in instance.rows(root_entity)]
