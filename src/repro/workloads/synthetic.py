"""Parametric synthetic workloads for the scaling experiments.

The paper has no benchmark suite of its own; these generators produce
the structures its claims are about, with knobs the benchmarks sweep:

* :func:`snowflake_schema` — FK trees like Figure 4's, any depth/fanout;
* :func:`perturbed_copy` — a renamed/shuffled copy of a schema plus the
  ground-truth correspondences, for matcher precision/recall (E1);
* :func:`inheritance_schema` — is-a hierarchies of any depth/width for
  the ModelGen/TransGen roundtripping experiments (E4);
* :func:`composition_chain` — k-step st-tgd mapping chains, in a
  *linear* family (copy mappings) and an *exponential* family (the
  Fagin-style alternatives construction) for the composition blow-up
  experiment (E2);
* :func:`exchange_tgds` — st-tgd sets with tunable existential density
  for the chase experiments (E3).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.logic.dependencies import TGD
from repro.logic.formulas import Atom
from repro.logic.terms import Var
from repro.mappings.mapping import Mapping
from repro.metamodel import INT, STRING, FLOAT, DATE, SchemaBuilder, Schema

_TYPES = (INT, STRING, FLOAT, DATE)

_NAME_POOL = (
    "customer order line item product price quantity address city country "
    "phone email status created updated amount total region segment "
    "category vendor invoice payment shipment warehouse stock employee "
    "manager department salary grade title birth hire code note"
).split()

_SYNONYMS = {
    "customer": "client", "order": "purchase", "item": "article",
    "product": "goods", "price": "cost", "quantity": "qty",
    "address": "addr", "phone": "telephone", "email": "mail",
    "amount": "value", "total": "sum_value", "employee": "staff",
    "manager": "supervisor", "department": "dept", "salary": "pay",
    "city": "town", "country": "nation", "vendor": "supplier",
    "status": "state", "created": "created_at", "updated": "modified",
}


def snowflake_schema(
    name: str,
    depth: int = 2,
    branching: int = 2,
    attributes_per_entity: int = 3,
    seed: int = 0,
) -> Schema:
    """A root entity with a tree of FK-linked dimension entities."""
    rng = random.Random(seed)
    builder = SchemaBuilder(name, metamodel="relational")
    foreign_keys: list[tuple[str, str]] = []

    def make_entity(entity_name: str, level: int) -> None:
        key = f"{entity_name}_id"
        builder.entity(entity_name, key=[key]).attribute(key, INT)
        names = {key}
        for _ in range(attributes_per_entity):
            attr = rng.choice(_NAME_POOL)
            suffix = 0
            candidate = attr
            # One type drawn per attempt, taken names included, so that
            # every seed keeps generating the schema it always has.
            data_type = rng.choice(_TYPES)
            while candidate in names:
                suffix += 1
                candidate = f"{attr}_{suffix}"
                data_type = rng.choice(_TYPES)
            builder.attribute(candidate, data_type)
            names.add(candidate)
        children: list[str] = []
        if level < depth:
            # Declare all of this entity's FK columns before recursing —
            # the builder's "current entity" moves with each recursion.
            for branch in range(branching):
                child = f"{entity_name}_d{branch}"
                builder.attribute(f"{child}_ref", INT)
                foreign_keys.append((entity_name, child))
                children.append(child)
        for child in children:
            make_entity(child, level + 1)

    make_entity("fact", 0)
    for parent, child in foreign_keys:
        builder.foreign_key(parent, [f"{child}_ref"], child, [f"{child}_id"])
    return builder.build()


def perturbed_copy(
    schema: Schema,
    rename_probability: float = 0.5,
    drop_probability: float = 0.0,
    seed: int = 0,
    name: Optional[str] = None,
    distinct_entity_names: bool = False,
) -> tuple[Schema, set[tuple[str, str]]]:
    """A structurally identical schema with renamed elements.

    Renames use domain synonyms, abbreviation (vowel dropping) or
    suffixing — the noise a matcher actually faces.  Returns the copy
    and the ground-truth ``(source_path, target_path)`` pairs (dropped
    attributes are absent from the truth set).

    ``distinct_entity_names=True`` forces every entity to be renamed —
    required when the copy will be the *target of a data exchange*,
    since exchange semantics (like all of data-exchange theory) assume
    the source and target signatures are disjoint.
    """
    rng = random.Random(seed)
    builder = SchemaBuilder(name or f"{schema.name}_copy", schema.metamodel)
    truth: set[tuple[str, str]] = set()

    def perturb(identifier: str) -> str:
        if rng.random() >= rename_probability:
            return identifier
        style = rng.randrange(3)
        if style == 0 and identifier.lower() in _SYNONYMS:
            return _SYNONYMS[identifier.lower()]
        if style <= 1 and len(identifier) > 4:
            stripped = identifier[0] + "".join(
                ch for ch in identifier[1:] if ch.lower() not in "aeiou"
            )
            if stripped != identifier and len(stripped) >= 2:
                return stripped
        return f"{identifier}_{rng.randrange(10)}"

    entity_renames: dict[str, str] = {}
    attribute_renames: dict[str, dict[str, str]] = {}
    for entity in schema.entities.values():
        new_entity = perturb(entity.name)
        if distinct_entity_names and new_entity == entity.name:
            new_entity = f"{entity.name}_v2"
        while new_entity in entity_renames.values() or (
            distinct_entity_names and new_entity in schema.entities
        ):
            new_entity += "x"
        entity_renames[entity.name] = new_entity
        truth.add((entity.name, new_entity))
        attr_names: dict[str, str] = {}
        kept_key = []
        for attribute in entity.attributes:
            if (
                attribute.name not in entity.key
                and rng.random() < drop_probability
            ):
                continue
            new_attr = perturb(attribute.name)
            while new_attr in attr_names.values():
                new_attr += "x"
            attr_names[attribute.name] = new_attr
            if attribute.name in entity.key:
                kept_key.append(new_attr)
            truth.add(
                (f"{entity.name}.{attribute.name}", f"{new_entity}.{new_attr}")
            )
        attribute_renames[entity.name] = attr_names
        builder.entity(new_entity, key=kept_key)
        for attribute in entity.attributes:
            if attribute.name in attr_names:
                builder.attribute(
                    attr_names[attribute.name],
                    attribute.data_type,
                    attribute.nullable,
                )
    # Carry foreign keys over through the rename maps; an FK survives
    # only if all of its columns survived the attribute drops.
    for dep in schema.inclusion_dependencies():
        if dep.source not in entity_renames or dep.target not in entity_renames:
            continue
        source_columns = [
            attribute_renames[dep.source].get(c)
            for c in dep.source_attributes
        ]
        target_columns = [
            attribute_renames[dep.target].get(c)
            for c in dep.target_attributes
        ]
        if None in source_columns or None in target_columns:
            continue
        builder.foreign_key(
            entity_renames[dep.source], source_columns,
            entity_renames[dep.target], target_columns,
        )
    copy = builder.build()
    return copy, truth


def inheritance_schema(
    name: str,
    depth: int = 2,
    branching: int = 2,
    attributes_per_entity: int = 2,
) -> Schema:
    """An is-a hierarchy (Figure 2 shape, scaled): a keyed root with
    ``branching``-ary subtrees of ``depth`` levels, each entity adding
    its own attributes."""
    builder = SchemaBuilder(name, metamodel="er")
    builder.entity("Root", key=["Id"]).attribute("Id", INT)
    for index in range(attributes_per_entity):
        builder.attribute(f"root_a{index}", STRING)

    def grow(parent: str, level: int) -> None:
        if level > depth:
            return
        for branch in range(branching):
            child = f"{parent}_c{branch}"
            builder.entity(child, parent=parent)
            for index in range(attributes_per_entity):
                builder.attribute(f"{child}_a{index}", STRING, nullable=False)
            grow(child, level + 1)

    grow("Root", 1)
    return builder.build()


def flat_schema(name: str, relations: int, attributes: int = 3) -> Schema:
    """``relations`` unrelated tables R0..Rn with integer attributes."""
    builder = SchemaBuilder(name, metamodel="relational")
    for r in range(relations):
        builder.entity(f"R{r}", key=[f"R{r}_k"]).attribute(f"R{r}_k", INT)
        for a in range(attributes - 1):
            builder.attribute(f"R{r}_a{a}", INT)
    return builder.build()


# ----------------------------------------------------------------------
# composition chains (E2)
# ----------------------------------------------------------------------
def _copy_tgd(src: str, dst: str, attributes: int) -> TGD:
    variables = [Var(f"x{i}") for i in range(attributes)]
    body = Atom(src, tuple((f"{src}_k" if i == 0 else f"{src}_a{i-1}", v)
                           for i, v in enumerate(variables)))
    head = Atom(dst, tuple((f"{dst}_k" if i == 0 else f"{dst}_a{i-1}", v)
                           for i, v in enumerate(variables)))
    return TGD(body=(body,), head=(head,), name=f"{src}→{dst}")


def composition_chain_linear(
    steps: int, relations: int = 3, attributes: int = 3
) -> list[Mapping]:
    """A chain of k copy mappings S0 → S1 → ... → Sk: composing them is
    linear (each step's result has the same size)."""
    schemas = [
        _relabeled_flat(f"L{i}", relations, attributes) for i in range(steps + 1)
    ]
    mappings = []
    for i in range(steps):
        tgds = [
            _copy_tgd(f"L{i}R{r}", f"L{i+1}R{r}", attributes)
            for r in range(relations)
        ]
        mappings.append(
            Mapping(schemas[i], schemas[i + 1], tgds, name=f"step{i}")
        )
    return mappings


def _relabeled_flat(prefix: str, relations: int, attributes: int) -> Schema:
    builder = SchemaBuilder(prefix, metamodel="relational")
    for r in range(relations):
        rel = f"{prefix}R{r}"
        builder.entity(rel, key=[f"{rel}_k"]).attribute(f"{rel}_k", INT)
        for a in range(attributes - 1):
            builder.attribute(f"{rel}_a{a}", INT)
    return builder.build()


def composition_pair_exponential(width: int) -> tuple[Mapping, Mapping]:
    """The alternatives construction behind Fagin et al.'s exponential
    lower bound: σ12 offers two origins (Aᵢ or Bᵢ) for each middle
    relation Cᵢ; σ23 joins all Cᵢ into one target atom.  Composing must
    enumerate all 2^width origin choices."""
    s1 = SchemaBuilder("X1", metamodel="relational")
    s2 = SchemaBuilder("X2", metamodel="relational")
    s3 = SchemaBuilder("X3", metamodel="relational")
    for i in range(width):
        s1.entity(f"A{i}", key=[f"A{i}_v"]).attribute(f"A{i}_v", INT)
        s1.entity(f"B{i}", key=[f"B{i}_v"]).attribute(f"B{i}_v", INT)
        s2.entity(f"C{i}", key=[f"C{i}_v"]).attribute(f"C{i}_v", INT)
    s3.entity("D", key=[])
    d_builder = s3
    for i in range(width):
        d_builder.attribute(f"d{i}", INT)
    schema1, schema2, schema3 = s1.build(), s2.build(), s3.build()

    m12_tgds = []
    for i in range(width):
        x = Var("x")
        m12_tgds.append(TGD(
            body=(Atom(f"A{i}", ((f"A{i}_v", x),)),),
            head=(Atom(f"C{i}", ((f"C{i}_v", x),)),),
            name=f"A{i}→C{i}",
        ))
        m12_tgds.append(TGD(
            body=(Atom(f"B{i}", ((f"B{i}_v", x),)),),
            head=(Atom(f"C{i}", ((f"C{i}_v", x),)),),
            name=f"B{i}→C{i}",
        ))
    body = tuple(
        Atom(f"C{i}", ((f"C{i}_v", Var(f"x{i}")),)) for i in range(width)
    )
    head = (Atom("D", tuple((f"d{i}", Var(f"x{i}")) for i in range(width))),)
    m23_tgds = [TGD(body=body, head=head, name="C*→D")]
    return (
        Mapping(schema1, schema2, m12_tgds, name="m12"),
        Mapping(schema2, schema3, m23_tgds, name="m23"),
    )


# ----------------------------------------------------------------------
# exchange workloads (E3)
# ----------------------------------------------------------------------
def exchange_tgds(
    relations: int = 3,
    existential_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[Schema, Schema, list[TGD]]:
    """Source/target schema pair with one st-tgd per relation; a
    fraction of target attributes are existential (invented by the
    chase as labeled nulls)."""
    rng = random.Random(seed)
    source = flat_schema("SRC", relations)
    target_builder = SchemaBuilder("TGT", metamodel="relational")
    tgds: list[TGD] = []
    for r in range(relations):
        rel_t = f"T{r}"
        target_builder.entity(rel_t, key=[f"{rel_t}_k"])
        target_builder.attribute(f"{rel_t}_k", INT)
        target_builder.attribute(f"{rel_t}_a0", INT, nullable=True)
        target_builder.attribute(f"{rel_t}_a1", INT, nullable=True)
        body = Atom(
            f"R{r}",
            (
                (f"R{r}_k", Var("k")),
                (f"R{r}_a0", Var("a")),
                (f"R{r}_a1", Var("b")),
            ),
        )
        head_args = [(f"{rel_t}_k", Var("k"))]
        for index, var in (("a0", Var("a")), ("a1", Var("b"))):
            if rng.random() < existential_fraction:
                head_args.append((f"{rel_t}_{index}", Var(f"fresh_{index}")))
            else:
                head_args.append((f"{rel_t}_{index}", var))
        tgds.append(
            TGD(body=(body,), head=(Atom(rel_t, tuple(head_args)),),
                name=f"R{r}→T{r}")
        )
    return source, target_builder.build(), tgds
