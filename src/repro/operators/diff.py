"""Extract and Diff (paper, Section 6.2).

``Extract(S, map)`` returns the maximal sub-schema of ``S`` that can be
populated with data through ``map``, plus a mapping embedding it in
``S``.  ``Diff(S, map)`` is "essentially the complement of Extract":
the parts of ``S`` that do *not* participate in the mapping — Section
6.2 uses it to find the new parts of an evolved schema S′.

Participation is determined per attribute: an attribute of ``S``
participates when some constraint reads or writes it with a term that
carries information across the mapping (a frontier variable or a
constant), not a don't-care existential.  Keys are retained on both
sides so that Extract and Diff results can be re-joined losslessly —
the view-complement condition of Bancilhon & Spyratos [8]: together,
Extract and Diff cover the whole schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.logic.dependencies import TGD
from repro.logic.formulas import Atom
from repro.logic.terms import Const, Var
from repro.mappings.mapping import Mapping
from repro.metamodel.constraints import (
    Covering,
    Disjointness,
    InclusionDependency,
    KeyConstraint,
    NotNull,
)
from repro.metamodel.elements import Entity
from repro.metamodel.schema import Schema
from repro.observability.instrument import instrumented


@dataclass
class SchemaSlice:
    """Result of Extract or Diff: the sub-schema and its embedding."""

    schema: Schema
    mapping: Mapping  # identity-style mapping: slice → original
    participating: set[str]  # attribute paths retained


def participating_attributes(schema: Schema, mapping: Mapping) -> set[str]:
    """Attribute paths of ``schema`` that carry information through
    ``mapping`` (on whichever side ``schema`` appears)."""
    if mapping.source.name == schema.name:
        own_relations = set(mapping.source.entities)
    elif mapping.target.name == schema.name:
        own_relations = set(mapping.target.entities)
    else:
        raise MappingError(
            f"schema {schema.name!r} is not an endpoint of {mapping.name!r}"
        )
    participating: set[str] = set()
    for tgd in mapping.tgds:
        frontier = tgd.frontier()
        for atom in tgd.body + tgd.head:
            if atom.relation not in own_relations:
                continue
            for attribute, term in atom.args:
                carries = isinstance(term, Const) or (
                    isinstance(term, Var) and term in frontier
                )
                if carries:
                    participating.add(f"{atom.relation}.{attribute}")
    for constraint in mapping.equalities:
        expr = (
            constraint.source_expr
            if mapping.source.name == schema.name
            else constraint.target_expr
        )
        participating |= _expression_attributes(expr, schema)
    if mapping.so_tgd is not None:
        for implication in mapping.so_tgd.implications:
            for atom in implication.body + implication.head:
                if atom.relation in own_relations:
                    for attribute, term in atom.args:
                        participating.add(f"{atom.relation}.{attribute}")
    return participating


def _expression_attributes(expr, schema: Schema) -> set[str]:
    """Attributes an algebra expression reads, resolved bottom-up from
    its scans (column provenance tracking)."""
    from repro.algebra import expressions as E

    result: set[str] = set()

    def walk(node) -> dict[str, set[str]]:
        """Returns visible column → set of attribute paths."""
        if isinstance(node, E.Scan) or isinstance(node, E.EntityScan):
            relation = node.relation if isinstance(node, E.Scan) else node.entity
            if relation not in schema.entities:
                return {}
            entity = schema.entity(relation)
            return {
                a: {f"{relation}.{a}"} for a in entity.all_attribute_names()
            }
        if isinstance(node, E.Values):
            return {}
        children = node.inputs()
        if isinstance(node, E.Join):
            left = walk(node.left)
            right = walk(node.right)
            merged = dict(left)
            for column, paths in right.items():
                merged.setdefault(column, set()).update(paths)
            for column in node.predicate.columns():
                for paths in (left.get(column), right.get(column)):
                    if paths:
                        result.update(paths)
            return merged
        if isinstance(node, E.UnionAll) or isinstance(node, E.Difference):
            left = walk(children[0])
            right = walk(children[1])
            merged = dict(left)
            for column, paths in right.items():
                merged.setdefault(column, set()).update(paths)
            return merged
        inner = walk(children[0])
        if isinstance(node, E.Select):
            for column in node.predicate.columns():
                result.update(inner.get(column, set()))
            return inner
        if isinstance(node, E.Project):
            out: dict[str, set[str]] = {}
            for name, scalar in node.outputs:
                used: set[str] = set()
                for column in scalar.columns():
                    used |= inner.get(column, set())
                out[name] = used
                result.update(used)
            return out
        if isinstance(node, E.Extend):
            extended = dict(inner)
            used: set[str] = set()
            for column in node.scalar.columns():
                used |= inner.get(column, set())
            extended[node.name] = used
            result.update(used)
            return extended
        if isinstance(node, E.Rename):
            return {
                node.mapping.get(column, column): paths
                for column, paths in inner.items()
            }
        return inner

    top = walk(expr)
    for paths in top.values():
        result.update(paths)
    return result


def _build_slice(
    schema: Schema, keep: set[str], mapping_name: str, slice_name: str
) -> SchemaSlice:
    """Construct the sub-schema containing exactly the ``keep``
    attributes (plus root keys of retained entities), and an identity
    tgd mapping back into the original schema."""
    sub = Schema(slice_name, schema.metamodel)
    kept_paths: set[str] = set()
    for entity in schema.entities.values():
        wanted = [
            a for a in entity.attributes
            if f"{entity.name}.{a.name}" in keep
        ]
        key_names = set(entity.root().key)
        keeps_entity = bool(wanted) or f"{entity.name}" in keep
        if not keeps_entity:
            continue
        copy = Entity(entity.name, entity.is_abstract)
        for attribute in entity.attributes:
            path = f"{entity.name}.{attribute.name}"
            if path in keep or attribute.name in key_names:
                copy.add_attribute(attribute.clone())
                kept_paths.add(path)
        copy.key = tuple(k for k in entity.key if copy.has_attribute(k))
        sub.add_entity(copy)
    for entity in schema.entities.values():
        if entity.name in sub.entities and entity.parent is not None:
            if entity.parent.name in sub.entities:
                sub.entities[entity.name].parent = sub.entities[entity.parent.name]
    for constraint in schema.constraints:
        if _constraint_applies(constraint, sub):
            sub.add_constraint(constraint)
    tgds = []
    for entity in sub.entities.values():
        shared = [
            (a.name, Var(f"x_{a.name}")) for a in entity.attributes
        ]
        original_entity = schema.entity(entity.name)
        head_args = []
        for attribute in original_entity.attributes:
            match = next(
                (term for name, term in shared if name == attribute.name), None
            )
            head_args.append(
                (attribute.name, match if match is not None
                 else Var(f"e_{attribute.name}"))
            )
        tgds.append(
            TGD(
                body=(Atom(entity.name, tuple(shared)),),
                head=(Atom(entity.name, tuple(head_args)),),
                name=f"embed_{entity.name}",
            )
        )
    embedding = Mapping(sub, schema, tgds, name=mapping_name)
    return SchemaSlice(schema=sub, mapping=embedding, participating=kept_paths)


def _constraint_applies(constraint, sub: Schema) -> bool:
    if isinstance(constraint, KeyConstraint):
        return constraint.entity in sub.entities and all(
            sub.entity(constraint.entity).has_attribute(a)
            for a in constraint.attributes
        )
    if isinstance(constraint, InclusionDependency):
        return (
            constraint.source in sub.entities
            and constraint.target in sub.entities
            and all(
                sub.entity(constraint.source).has_attribute(a)
                for a in constraint.source_attributes
            )
            and all(
                sub.entity(constraint.target).has_attribute(a)
                for a in constraint.target_attributes
            )
        )
    if isinstance(constraint, Disjointness):
        return all(e in sub.entities for e in constraint.entities)
    if isinstance(constraint, Covering):
        return constraint.entity in sub.entities and all(
            e in sub.entities for e in constraint.covered_by
        )
    if isinstance(constraint, NotNull):
        return constraint.entity in sub.entities and sub.entity(
            constraint.entity
        ).has_attribute(constraint.attribute)
    return False


@instrumented("op.extract", attrs=lambda schema, mapping: {
    "schema.entities": len(schema.entities),
    "mapping.constraints": mapping.constraint_count(),
})
def extract(schema: Schema, mapping: Mapping) -> SchemaSlice:
    """The sub-schema of ``schema`` populated through ``mapping``."""
    keep = participating_attributes(schema, mapping)
    return SchemaSlice(
        **vars(_build_slice(schema, keep, f"extract_{mapping.name}",
                            f"{schema.name}_extract"))
    )


@instrumented("op.diff", attrs=lambda schema, mapping: {
    "schema.entities": len(schema.entities),
    "mapping.constraints": mapping.constraint_count(),
})
def diff(schema: Schema, mapping: Mapping) -> SchemaSlice:
    """The complement: parts of ``schema`` the mapping does not cover.

    Root keys of entities that keep any attribute are retained (they
    glue Diff back onto Extract); an entity disappears entirely when
    everything except its key participates.
    """
    participating = participating_attributes(schema, mapping)
    complement: set[str] = set()
    for entity in schema.entities.values():
        for attribute in entity.attributes:
            path = f"{entity.name}.{attribute.name}"
            if path not in participating:
                if attribute.name in entity.root().key:
                    continue  # keys belong to both sides implicitly
                complement.add(path)
    return SchemaSlice(
        **vars(_build_slice(schema, complement, f"diff_{mapping.name}",
                            f"{schema.name}_diff"))
    )
