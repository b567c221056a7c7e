"""Lossless JSON serialization of schemas and mappings.

The metadata repository (:mod:`repro.core.repository`) persists its
artifacts through this module.  Every universal-metamodel construct and
every constraint-language tier round-trips; algebra expressions inside
equality constraints are serialized structurally.
"""

from __future__ import annotations

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.errors import RepositoryError
from repro.logic.dependencies import EGD, TGD
from repro.logic.formulas import Atom, Equality
from repro.logic.second_order import Implication, SecondOrderTGD
from repro.logic.terms import Const, FuncTerm, Term, Var
from repro.mappings.mapping import EqualityConstraint, Mapping
from repro.metamodel.constraints import (
    Covering,
    Disjointness,
    InclusionDependency,
    KeyConstraint,
    NotNull,
)
from repro.metamodel.elements import (
    Association,
    AssociationEnd,
    Attribute,
    Cardinality,
    Containment,
    Entity,
    Reference,
)
from repro.metamodel.schema import Schema
from repro.metamodel.types import (
    ParametricType,
    DataType,
    primitive,
)


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------
def _type_to_dict(t: DataType) -> dict:
    if isinstance(t, ParametricType):
        return {
            "kind": "parametric",
            "name": t.name,
            "base": t.base,
            "params": list(t.params),
        }
    return {"kind": "primitive", "name": t.name}


def _type_from_dict(data: dict) -> DataType:
    if data["kind"] == "parametric":
        return ParametricType(
            name=data["name"],
            base=data["base"],
            params=tuple(data["params"]),
        )
    return primitive(data["name"])


# ----------------------------------------------------------------------
# schemas
# ----------------------------------------------------------------------
def schema_to_dict(schema: Schema) -> dict:
    return {
        "name": schema.name,
        "metamodel": schema.metamodel,
        "documentation": schema.documentation,
        "entities": [
            {
                "name": entity.name,
                "abstract": entity.is_abstract,
                "parent": entity.parent.name if entity.parent else None,
                "key": list(entity.key),
                "attributes": [
                    {
                        "name": attribute.name,
                        "type": _type_to_dict(attribute.data_type),
                        "nullable": attribute.nullable,
                    }
                    for attribute in entity.attributes
                ],
            }
            for entity in schema.entities.values()
        ],
        "associations": [
            {
                "name": association.name,
                "source": _end_to_dict(association.source),
                "target": _end_to_dict(association.target),
            }
            for association in schema.associations.values()
        ],
        "containments": [
            {
                "name": containment.name,
                "parent": containment.parent.name,
                "child": containment.child.name,
                "cardinality": [containment.cardinality.min,
                                containment.cardinality.max],
            }
            for containment in schema.containments.values()
        ],
        "references": [
            {
                "name": reference.name,
                "owner": reference.owner.name,
                "target": reference.target.name,
                "via": list(reference.via_attributes),
                "cardinality": [reference.cardinality.min,
                                reference.cardinality.max],
            }
            for reference in schema.references.values()
        ],
        "constraints": [_constraint_to_dict(c) for c in schema.constraints],
    }


def _end_to_dict(end: AssociationEnd) -> dict:
    return {
        "role": end.role,
        "entity": end.entity.name,
        "cardinality": [end.cardinality.min, end.cardinality.max],
    }


def _constraint_to_dict(constraint) -> dict:
    if isinstance(constraint, KeyConstraint):
        return {
            "kind": "key",
            "entity": constraint.entity,
            "attributes": list(constraint.attributes),
            "primary": constraint.is_primary,
        }
    if isinstance(constraint, InclusionDependency):
        return {
            "kind": "inclusion",
            "source": constraint.source,
            "source_attributes": list(constraint.source_attributes),
            "target": constraint.target,
            "target_attributes": list(constraint.target_attributes),
        }
    if isinstance(constraint, Disjointness):
        return {"kind": "disjoint", "entities": list(constraint.entities)}
    if isinstance(constraint, Covering):
        return {
            "kind": "covering",
            "entity": constraint.entity,
            "covered_by": list(constraint.covered_by),
        }
    if isinstance(constraint, NotNull):
        return {
            "kind": "not_null",
            "entity": constraint.entity,
            "attribute": constraint.attribute,
        }
    raise RepositoryError(f"unserializable constraint {constraint!r}")


def schema_from_dict(data: dict) -> Schema:
    schema = Schema(data["name"], data["metamodel"])
    schema.documentation = data.get("documentation", "")
    for entity_data in data["entities"]:
        entity = Entity(entity_data["name"], entity_data.get("abstract", False))
        entity.key = tuple(entity_data.get("key", ()))
        for attribute_data in entity_data["attributes"]:
            entity.add_attribute(
                Attribute(
                    attribute_data["name"],
                    _type_from_dict(attribute_data["type"]),
                    attribute_data.get("nullable", False),
                )
            )
        schema.add_entity(entity)
    for entity_data in data["entities"]:
        parent = entity_data.get("parent")
        if parent:
            schema.entities[entity_data["name"]].parent = schema.entity(parent)
    for association_data in data.get("associations", []):
        schema.add_association(
            Association(
                association_data["name"],
                _end_from_dict(association_data["source"], schema),
                _end_from_dict(association_data["target"], schema),
            )
        )
    for containment_data in data.get("containments", []):
        schema.add_containment(
            Containment(
                containment_data["name"],
                schema.entity(containment_data["parent"]),
                schema.entity(containment_data["child"]),
                Cardinality(*containment_data["cardinality"]),
            )
        )
    for reference_data in data.get("references", []):
        schema.add_reference(
            Reference(
                reference_data["name"],
                schema.entity(reference_data["owner"]),
                schema.entity(reference_data["target"]),
                tuple(reference_data.get("via", ())),
                Cardinality(*reference_data["cardinality"]),
            )
        )
    for constraint_data in data.get("constraints", []):
        schema.add_constraint(_constraint_from_dict(constraint_data))
    return schema


def _end_from_dict(data: dict, schema: Schema) -> AssociationEnd:
    return AssociationEnd(
        data["role"], schema.entity(data["entity"]),
        Cardinality(*data["cardinality"]),
    )


def _constraint_from_dict(data: dict):
    kind = data["kind"]
    if kind == "key":
        return KeyConstraint(
            data["entity"], tuple(data["attributes"]), data["primary"]
        )
    if kind == "inclusion":
        return InclusionDependency(
            data["source"], tuple(data["source_attributes"]),
            data["target"], tuple(data["target_attributes"]),
        )
    if kind == "disjoint":
        return Disjointness(tuple(data["entities"]))
    if kind == "covering":
        return Covering(data["entity"], tuple(data["covered_by"]))
    if kind == "not_null":
        return NotNull(data["entity"], data["attribute"])
    raise RepositoryError(f"unknown constraint kind {kind!r}")


# ----------------------------------------------------------------------
# terms / atoms / dependencies
# ----------------------------------------------------------------------
def _term_to_dict(term: Term) -> dict:
    if isinstance(term, Var):
        return {"var": term.name}
    if isinstance(term, Const):
        return {"const": term.value}
    return {
        "func": term.function,
        "args": [_term_to_dict(a) for a in term.args],
    }


def _term_from_dict(data: dict) -> Term:
    if "var" in data:
        return Var(data["var"])
    if "const" in data:
        return Const(data["const"])
    return FuncTerm(
        data["func"], tuple(_term_from_dict(a) for a in data["args"])
    )


def _atom_to_dict(atom: Atom) -> dict:
    return {
        "relation": atom.relation,
        "args": [[name, _term_to_dict(term)] for name, term in atom.args],
    }


def _atom_from_dict(data: dict) -> Atom:
    return Atom(
        data["relation"],
        tuple((name, _term_from_dict(term)) for name, term in data["args"]),
    )


def _tgd_to_dict(tgd: TGD) -> dict:
    return {
        "kind": "tgd",
        "name": tgd.name,
        "body": [_atom_to_dict(a) for a in tgd.body],
        "head": [_atom_to_dict(a) for a in tgd.head],
    }


def _egd_to_dict(egd: EGD) -> dict:
    return {
        "kind": "egd",
        "name": egd.name,
        "body": [_atom_to_dict(a) for a in egd.body],
        "equalities": [
            [_term_to_dict(e.left), _term_to_dict(e.right)]
            for e in egd.equalities
        ],
    }


# ----------------------------------------------------------------------
# algebra expressions
# ----------------------------------------------------------------------
def _scalar_to_dict(scalar: S.Scalar) -> dict:
    if isinstance(scalar, S.Col):
        return {"op": "col", "name": scalar.name}
    if isinstance(scalar, S.Lit):
        return {"op": "lit", "value": scalar.value}
    if isinstance(scalar, S._Bool):
        return {"op": "bool", "value": scalar.value}
    if isinstance(scalar, S.Comparison):
        return {
            "op": "cmp", "cmp": scalar.op,
            "left": _scalar_to_dict(scalar.left),
            "right": _scalar_to_dict(scalar.right),
        }
    if isinstance(scalar, S.And):
        return {"op": "and",
                "operands": [_scalar_to_dict(p) for p in scalar.operands]}
    if isinstance(scalar, S.Or):
        return {"op": "or",
                "operands": [_scalar_to_dict(p) for p in scalar.operands]}
    if isinstance(scalar, S.Not):
        return {"op": "not", "operand": _scalar_to_dict(scalar.operand)}
    if isinstance(scalar, S.IsNull):
        return {"op": "isnull", "operand": _scalar_to_dict(scalar.operand),
                "negated": scalar.negated}
    if isinstance(scalar, S.IsOf):
        return {"op": "isof", "entity": scalar.entity, "only": scalar.only}
    if isinstance(scalar, S.In):
        return {"op": "in", "operand": _scalar_to_dict(scalar.operand),
                "values": sorted(scalar.values, key=repr)}
    if isinstance(scalar, S.Case):
        return {
            "op": "case",
            "whens": [
                [_scalar_to_dict(p), _scalar_to_dict(v)]
                for p, v in scalar.whens
            ],
            "default": _scalar_to_dict(scalar.default),
        }
    if isinstance(scalar, E._JoinEq):
        return {"op": "joineq", "left": scalar.left_col,
                "right": scalar.right_col}
    raise RepositoryError(f"unserializable scalar {scalar!r}")


def _scalar_from_dict(data: dict) -> S.Scalar:
    op = data["op"]
    if op == "col":
        return S.Col(data["name"])
    if op == "lit":
        return S.Lit(data["value"])
    if op == "bool":
        return S.TRUE if data["value"] else S.FALSE
    if op == "cmp":
        return S.Comparison(
            data["cmp"], _scalar_from_dict(data["left"]),
            _scalar_from_dict(data["right"]),
        )
    if op == "and":
        return S.And(*(_scalar_from_dict(p) for p in data["operands"]))
    if op == "or":
        return S.Or(*(_scalar_from_dict(p) for p in data["operands"]))
    if op == "not":
        return S.Not(_scalar_from_dict(data["operand"]))
    if op == "isnull":
        return S.IsNull(_scalar_from_dict(data["operand"]), data["negated"])
    if op == "isof":
        return S.IsOf(data["entity"], data["only"])
    if op == "in":
        return S.In(_scalar_from_dict(data["operand"]), data["values"])
    if op == "case":
        return S.Case(
            [(_scalar_from_dict(p), _scalar_from_dict(v))
             for p, v in data["whens"]],
            _scalar_from_dict(data["default"]),
        )
    if op == "joineq":
        return E._JoinEq(data["left"], data["right"])
    raise RepositoryError(f"unknown scalar op {op!r}")


def _expr_to_dict(expr: E.RelExpr) -> dict:
    if isinstance(expr, E.Scan):
        return {"op": "scan", "relation": expr.relation}
    if isinstance(expr, E.EntityScan):
        return {"op": "escan", "entity": expr.entity, "only": expr.only}
    if isinstance(expr, E.Values):
        return {"op": "values", "rows": [dict(r) for r in expr.rows]}
    if isinstance(expr, E.Select):
        return {"op": "select", "input": _expr_to_dict(expr.input),
                "predicate": _scalar_to_dict(expr.predicate)}
    if isinstance(expr, E.Project):
        return {
            "op": "project", "input": _expr_to_dict(expr.input),
            "outputs": [[n, _scalar_to_dict(s)] for n, s in expr.outputs],
        }
    if isinstance(expr, E.Extend):
        return {"op": "extend", "input": _expr_to_dict(expr.input),
                "name": expr.name, "scalar": _scalar_to_dict(expr.scalar)}
    if isinstance(expr, E.Join):
        return {
            "op": "join", "kind": expr.kind,
            "left": _expr_to_dict(expr.left),
            "right": _expr_to_dict(expr.right),
            "predicate": _scalar_to_dict(expr.predicate),
            "right_prefix": expr.right_prefix,
        }
    if isinstance(expr, E.UnionAll):
        return {"op": "union", "left": _expr_to_dict(expr.left),
                "right": _expr_to_dict(expr.right)}
    if isinstance(expr, E.Difference):
        return {"op": "difference", "left": _expr_to_dict(expr.left),
                "right": _expr_to_dict(expr.right)}
    if isinstance(expr, E.Distinct):
        return {"op": "distinct", "input": _expr_to_dict(expr.input)}
    if isinstance(expr, E.Rename):
        return {"op": "rename", "input": _expr_to_dict(expr.input),
                "mapping": dict(expr.mapping)}
    if isinstance(expr, E.Sort):
        return {"op": "sort", "input": _expr_to_dict(expr.input),
                "keys": list(expr.keys)}
    if isinstance(expr, E.Aggregate):
        return {
            "op": "aggregate", "input": _expr_to_dict(expr.input),
            "group_by": list(expr.group_by),
            "aggregations": [
                [n, f, _scalar_to_dict(s) if s is not None else None]
                for n, f, s in expr.aggregations
            ],
        }
    raise RepositoryError(f"unserializable expression {expr!r}")


def _expr_from_dict(data: dict) -> E.RelExpr:
    op = data["op"]
    if op == "scan":
        return E.Scan(data["relation"])
    if op == "escan":
        return E.EntityScan(data["entity"], data["only"])
    if op == "values":
        return E.Values(data["rows"])
    if op == "select":
        return E.Select(_expr_from_dict(data["input"]),
                        _scalar_from_dict(data["predicate"]))
    if op == "project":
        return E.Project(
            _expr_from_dict(data["input"]),
            [(n, _scalar_from_dict(s)) for n, s in data["outputs"]],
        )
    if op == "extend":
        return E.Extend(_expr_from_dict(data["input"]), data["name"],
                        _scalar_from_dict(data["scalar"]))
    if op == "join":
        return E.Join(
            _expr_from_dict(data["left"]), _expr_from_dict(data["right"]),
            _scalar_from_dict(data["predicate"]), data["kind"],
            data.get("right_prefix"),
        )
    if op == "union":
        return E.UnionAll(_expr_from_dict(data["left"]),
                          _expr_from_dict(data["right"]))
    if op == "difference":
        return E.Difference(_expr_from_dict(data["left"]),
                            _expr_from_dict(data["right"]))
    if op == "distinct":
        return E.Distinct(_expr_from_dict(data["input"]))
    if op == "rename":
        return E.Rename(_expr_from_dict(data["input"]), data["mapping"])
    if op == "sort":
        return E.Sort(_expr_from_dict(data["input"]), data["keys"])
    if op == "aggregate":
        return E.Aggregate(
            _expr_from_dict(data["input"]), data["group_by"],
            [
                (n, f, _scalar_from_dict(s) if s is not None else None)
                for n, f, s in data["aggregations"]
            ],
        )
    raise RepositoryError(f"unknown expression op {op!r}")


# ----------------------------------------------------------------------
# mappings
# ----------------------------------------------------------------------
def mapping_to_dict(mapping: Mapping) -> dict:
    constraints = []
    for constraint in mapping.constraints:
        if isinstance(constraint, TGD):
            constraints.append(_tgd_to_dict(constraint))
        elif isinstance(constraint, EGD):
            constraints.append(_egd_to_dict(constraint))
        elif isinstance(constraint, EqualityConstraint):
            constraints.append(
                {
                    "kind": "equality",
                    "name": constraint.name,
                    "source": _expr_to_dict(constraint.source_expr),
                    "target": _expr_to_dict(constraint.target_expr),
                }
            )
    result = {
        "name": mapping.name,
        "source": schema_to_dict(mapping.source),
        "target": schema_to_dict(mapping.target),
        "constraints": constraints,
    }
    if mapping.so_tgd is not None:
        result["so_tgd"] = {
            "name": mapping.so_tgd.name,
            "implications": [
                {
                    "name": implication.name,
                    "body": [_atom_to_dict(a) for a in implication.body],
                    "head": [_atom_to_dict(a) for a in implication.head],
                    "conditions": [
                        [_term_to_dict(c.left), _term_to_dict(c.right)]
                        for c in implication.conditions
                    ],
                }
                for implication in mapping.so_tgd.implications
            ],
        }
    return result


def mapping_from_dict(data: dict) -> Mapping:
    source = schema_from_dict(data["source"])
    target = schema_from_dict(data["target"])
    constraints = []
    for constraint_data in data["constraints"]:
        kind = constraint_data["kind"]
        if kind == "tgd":
            constraints.append(
                TGD(
                    body=tuple(_atom_from_dict(a)
                               for a in constraint_data["body"]),
                    head=tuple(_atom_from_dict(a)
                               for a in constraint_data["head"]),
                    name=constraint_data["name"],
                )
            )
        elif kind == "egd":
            constraints.append(
                EGD(
                    body=tuple(_atom_from_dict(a)
                               for a in constraint_data["body"]),
                    equalities=tuple(
                        Equality(_term_from_dict(l), _term_from_dict(r))
                        for l, r in constraint_data["equalities"]
                    ),
                    name=constraint_data["name"],
                )
            )
        elif kind == "equality":
            constraints.append(
                EqualityConstraint(
                    source_expr=_expr_from_dict(constraint_data["source"]),
                    target_expr=_expr_from_dict(constraint_data["target"]),
                    name=constraint_data["name"],
                )
            )
        else:
            raise RepositoryError(f"unknown constraint kind {kind!r}")
    if "so_tgd" in data:
        so_data = data["so_tgd"]
        so_tgd = SecondOrderTGD(
            implications=tuple(
                Implication(
                    body=tuple(_atom_from_dict(a) for a in impl["body"]),
                    head=tuple(_atom_from_dict(a) for a in impl["head"]),
                    conditions=tuple(
                        Equality(_term_from_dict(l), _term_from_dict(r))
                        for l, r in impl["conditions"]
                    ),
                    name=impl["name"],
                )
                for impl in so_data["implications"]
            ),
            name=so_data["name"],
        )
        return Mapping(source, target, so_tgd, name=data["name"])
    return Mapping(source, target, constraints, name=data["name"])
