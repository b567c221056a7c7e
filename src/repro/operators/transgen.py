"""The TransGen operator (paper, Section 4).

TransGen "produces a transformation that is consistent with the mapping
constraints it takes as input".  Three constraint languages, three
compilation paths:

* **st-tgds / GLAV** → a chase-based *data-exchange program* computing
  a universal solution (optionally minimized to its core), whose
  query-answering semantics is certain answers — the Clio/[38][39]
  approach;
* **second-order tgds** (composition output) → direct execution with
  Skolem semantics;
* **bidirectional equality constraints over an inheritance hierarchy**
  (the Figure 2 / ADO.NET case) → a *query view* expressing the entity
  side as a function of the tables — the Figure 3 query — and an
  *update view* expressing the tables as a function of the entities,
  verified to **roundtrip**: update ∘ query = identity on the entity
  side ("the views must be lossless", Section 4).

The query-view generation algorithm reconstructs each concrete entity
type from its *fragment pattern*: the set of constraints whose type set
includes it.  A type's instances are the key-join of its fragments,
minus keys claimed by types with strictly richer patterns — equivalent
to Figure 3's left-outer-join + ``_from`` flags formulation, expressed
with joins and anti-joins.  Each richer type is told apart by its first
fragment outside the pattern (its *excluder*), and a subtree's types
share one, so each type takes one anti-join, against the union of its
distinct excluders in fragment order: the view stays linear in the
hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.evaluator import evaluate
from repro.algebra.optimizer import optimize
from repro.errors import RoundTripError, TransformationError
from repro.instances.database import TYPE_FIELD, Instance
from repro.logic.chase import ChaseStats, chase
from repro.logic.core_computation import core_of
from repro.mappings.mapping import EqualityConstraint, Mapping
from repro.metamodel.elements import Entity
from repro.metamodel.schema import Schema


# ----------------------------------------------------------------------
# transformations
# ----------------------------------------------------------------------
class Transformation:
    """An executable function from instances of one schema to another.

    ``engine`` selects the query-execution engine for transformations
    that evaluate algebra (see :func:`repro.algebra.evaluate`);
    chase-based transformations accept and ignore it.
    """

    name: str = "transformation"

    def apply(
        self, instance: Instance, engine: Optional[str] = None
    ) -> Instance:
        raise NotImplementedError

    def __call__(self, instance: Instance) -> Instance:
        return self.apply(instance)


class AlgebraTransformation(Transformation):
    """A set of (output relation, algebra expression) rules evaluated
    against the input instance."""

    def __init__(
        self,
        rules: Sequence[tuple[str, E.RelExpr]],
        input_schema: Optional[Schema] = None,
        output_schema: Optional[Schema] = None,
        name: str = "view",
        engine: Optional[str] = None,
    ):
        self.rules = list(rules)
        self.input_schema = input_schema
        self.output_schema = output_schema
        self.name = name
        #: Default engine for :meth:`apply` (None → vectorized).
        self.engine = engine

    def apply(
        self, instance: Instance, engine: Optional[str] = None
    ) -> Instance:
        engine = engine if engine is not None else self.engine
        result = Instance(self.output_schema)
        for relation, expr in self.rules:
            rows = evaluate(expr, instance, self.input_schema, engine=engine)
            result.relations.setdefault(relation, [])
            result.insert_all(relation, self._normalize(rows))
        deduplicated = result.deduplicated()
        for relation, _ in self.rules:
            deduplicated.relations.setdefault(relation, [])
        return deduplicated

    def output_relations_touched_by(self, touched: set) -> set:
        """Output relations owning at least one rule that scans a
        relation in ``touched``."""
        hit = set()
        for relation, expr in self.rules:
            if scan_relations(expr, self.input_schema) & touched:
                hit.add(relation)
        return hit

    def apply_delta(
        self,
        instance: Instance,
        previous_output: Instance,
        touched: set,
        engine: Optional[str] = None,
    ) -> Instance:
        """Like :meth:`apply`, but re-evaluates only the output
        relations whose rules scan a relation in ``touched``; every
        other output relation is carried over from ``previous_output``
        unchanged.  Sound because each rule's output is a function of
        exactly the relations it scans."""
        engine = engine if engine is not None else self.engine
        recompute = self.output_relations_touched_by(touched)
        partial = Instance(self.output_schema)
        for relation, expr in self.rules:
            if relation not in recompute:
                continue
            rows = evaluate(expr, instance, self.input_schema, engine=engine)
            partial.relations.setdefault(relation, [])
            partial.insert_all(relation, self._normalize(rows))
        partial = partial.deduplicated()
        result = Instance(self.output_schema)
        for relation, _ in self.rules:
            if relation in result.relations:
                continue
            if relation in recompute:
                result.relations[relation] = list(partial.rows(relation))
            else:
                result.relations[relation] = [
                    dict(row) for row in previous_output.rows(relation)
                ]
        return result

    def _normalize(self, rows: list) -> list:
        """Typed extent rows (union branches pad each other's columns
        with nulls) are restricted to their ``$type``'s declared
        attributes, matching how entity instances are built."""
        if self.output_schema is None:
            return rows
        normalized = []
        for row in rows:
            type_name = row.get(TYPE_FIELD)
            if type_name is None or type_name not in self.output_schema.entities:
                normalized.append(row)
                continue
            entity = self.output_schema.entity(str(type_name))
            legal = set(entity.all_attribute_names()) | {TYPE_FIELD}
            normalized.append({k: v for k, v in row.items() if k in legal})
        return normalized

    def size(self) -> int:
        return sum(expr.size() for _, expr in self.rules)

    def describe(self) -> str:
        lines = [f"transformation {self.name}:"]
        for relation, expr in self.rules:
            lines.append(f"  {relation} := {expr!r}")
        return "\n".join(lines)


def scan_relations(expr: E.RelExpr, schema: Optional[Schema] = None) -> set:
    """The base relations an algebra expression reads: ``Scan``
    relations plus the root extents of ``EntityScan`` s (resolved
    through ``schema`` when it knows the entity)."""
    found: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, E.Scan):
            found.add(node.relation)
        elif isinstance(node, E.EntityScan):
            if schema is not None and node.entity in schema.entities:
                found.add(schema.entity(node.entity).root().name)
            else:
                found.add(node.entity)
        stack.extend(node.inputs())
    return found


def exchange_dependencies(
    mapping: Mapping, enforce_target_keys: bool = False
) -> list:
    """The chase dependency set of a (SO-)tgd mapping's data exchange:
    the mapping's constraints, or its SO-tgd's runnable implications,
    plus, when ``enforce_target_keys``, the target's primary-key
    constraints as egds (the Section 4 interplay of mappings with
    target constraints).  Shared by :class:`ExchangeTransformation` and
    the incremental runtime (:mod:`repro.runtime.incremental`), which
    must chase with the *same* dependency list to keep provenance
    indexes aligned."""
    dependencies = list(mapping.so_tgd.runnable() if mapping.so_tgd
                        else mapping.constraints)
    if enforce_target_keys:
        from repro.logic.dependencies import key_egd
        from repro.metamodel.constraints import KeyConstraint

        for constraint in mapping.target.constraints:
            if isinstance(constraint, KeyConstraint) and constraint.is_primary:
                entity = mapping.target.entity(constraint.entity)
                dependencies.append(
                    key_egd(
                        constraint.entity,
                        list(constraint.attributes),
                        list(entity.all_attribute_names()),
                    )
                )
    return dependencies


class ExchangeTransformation(Transformation):
    """Chase-based data exchange for (SO-)tgd mappings: computes a
    universal solution over the target relations.

    Like all of data-exchange theory, this assumes the source and
    target signatures are **disjoint**: a relation name shared by both
    schemas would make the chased instance mix source rows into the
    "target" extent.  Rename one side (e.g.
    ``synthetic.perturbed_copy(..., distinct_entity_names=True)``)
    before exchanging.
    """

    def __init__(self, mapping: Mapping, compute_core: bool = False,
                 enforce_target_keys: bool = False, name: str = "exchange"):
        self.mapping = mapping
        self.compute_core = compute_core
        self.enforce_target_keys = enforce_target_keys
        self.name = name
        #: ChaseStats of the most recent :meth:`apply` (None before the
        #: first).
        self.last_chase_stats: Optional[ChaseStats] = None

    def apply(
        self, instance: Instance, engine: Optional[str] = None
    ) -> Instance:
        # ``engine`` is accepted for interface uniformity; the chase
        # does not run relational algebra.
        result = chase(instance, exchange_dependencies(
            self.mapping, self.enforce_target_keys))
        self.last_chase_stats = result.stats
        chased = result.instance
        produced = Instance()
        for relation in self.mapping.target.entities:
            if chased.rows(relation):
                produced.relations[relation] = list(chased.rows(relation))
        if self.compute_core:
            produced = core_of(produced)
        produced.schema = self.mapping.target
        return produced


@dataclass
class TransformationPair:
    """Query view + update view for a bidirectional equality mapping.

    ``query_view``: entity side as a function of the table side
    (Figure 3); ``update_view``: table side as a function of the entity
    side.  :meth:`verify_roundtrip` checks losslessness.
    """

    query_view: AlgebraTransformation
    update_view: AlgebraTransformation
    mapping: Mapping

    def verify_roundtrip(self, entity_instance: Instance) -> None:
        """update ∘ query must be the identity on the entity side."""
        tables = self.update_view.apply(entity_instance)
        recovered = self.query_view.apply(tables)
        if not recovered.set_equal(_restrict(entity_instance,
                                             set(recovered.relations))):
            raise RoundTripError(
                "query(update(D)) ≠ D — generated views are lossy.\n"
                f"original: {entity_instance!r}\nrecovered: {recovered!r}"
            )

    def verify_constraints(self, entity_instance: Instance) -> bool:
        """The generated table state must satisfy the input mapping."""
        tables = self.update_view.apply(entity_instance)
        return self.mapping.holds_for(tables, entity_instance)


def _restrict(instance: Instance, relations: set[str]) -> Instance:
    result = Instance(instance.schema)
    for relation in relations:
        if instance.rows(relation):
            result.relations[relation] = [dict(r) for r in instance.rows(relation)]
    return result


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def transgen(
    mapping: Mapping,
    compute_core: bool = False,
    enforce_target_keys: bool = False,
):
    """Generate the transformation(s) implementing ``mapping``.

    Returns an :class:`ExchangeTransformation` for (SO-)tgd mappings and
    a :class:`TransformationPair` for equality mappings.
    ``enforce_target_keys`` adds the target schema's primary keys as
    egds to the exchange chase ((SO-)tgd mappings).
    """
    if mapping.equalities:
        return _views_from_equalities(mapping)
    return ExchangeTransformation(mapping, compute_core=compute_core,
                                  enforce_target_keys=enforce_target_keys,
                                  name=f"exchange_{mapping.name}")


# ----------------------------------------------------------------------
# fragment analysis for equality mappings
# ----------------------------------------------------------------------
@dataclass
class _Fragment:
    """One analyzed equality constraint."""

    constraint: EqualityConstraint
    table: str
    table_selection: dict[str, object]      # column → literal (e.g. discriminator)
    output_to_table: dict[str, str]         # output column → table column
    output_to_attr: dict[str, str]          # output column → entity attribute
    types: frozenset[str]                   # concrete entity types included
    root: str                               # hierarchy root entity

    def key_columns(self, root_key: Sequence[str]) -> list[str]:
        inverse = {attr: col for col, attr in self.output_to_attr.items()}
        missing = [k for k in root_key if k not in inverse]
        if missing:
            raise TransformationError(
                f"fragment {self.constraint.name!r} does not expose key "
                f"attributes {missing}"
            )
        return [inverse[k] for k in root_key]


def _views_from_equalities(mapping: Mapping) -> TransformationPair:
    entity_schema = mapping.target
    table_schema = mapping.source
    fragments: list[_Fragment] = []
    copies: list[EqualityConstraint] = []
    for constraint in mapping.equalities:
        fragment = _analyze(constraint, entity_schema)
        if fragment is None:
            copies.append(constraint)
        else:
            fragments.append(fragment)

    query_rules: list[tuple[str, E.RelExpr]] = []
    update_rules: list[tuple[str, E.RelExpr]] = []

    # Hierarchy fragments, grouped by root.
    by_root: dict[str, list[_Fragment]] = {}
    for fragment in fragments:
        by_root.setdefault(fragment.root, []).append(fragment)
    for root_name, root_fragments in sorted(by_root.items()):
        root = entity_schema.entity(root_name)
        query_rules.append(
            (root_name, _query_view_expr(root, root_fragments))
        )
        update_rules.extend(_update_view_rules(root, root_fragments,
                                               table_schema))

    # Plain copy constraints (no hierarchy): table side is the rule for
    # the entity side and vice versa.  Output columns beyond the target
    # relation's attributes (e.g. a constant the constraint pins, like
    # Figure 6's Country='US' on Local) are projected away.
    # A constraint yields a rule in a direction only when the *other*
    # side reduces to a single (selected/projected) relation — e.g. a
    # composed view constraint like Figure 6's "Students = <expression
    # over S′>" defines Students but is not updatable, so only one
    # direction materializes.
    for constraint in copies:
        try:
            out_relation, renames = _copy_targets(constraint, entity_schema)
        except TransformationError:
            out_relation = None
        if out_relation is not None:
            expr: E.RelExpr = constraint.source_expr
            if renames:
                expr = E.Rename(expr, renames)
            expr = _fit_to_relation(expr, entity_schema, out_relation)
            query_rules.append((out_relation, expr))
        try:
            table, table_renames = _copy_targets(constraint, table_schema,
                                                 side="source")
        except TransformationError:
            table = None
        if table is not None:
            back: E.RelExpr = constraint.target_expr
            if table_renames:
                back = E.Rename(back, table_renames)
            back = _fit_to_relation(back, table_schema, table)
            update_rules.append((table, back))
        if out_relation is None and table is None:
            raise TransformationError(
                f"constraint {constraint.name!r} defines no relation on "
                "either side; cannot compile it"
            )

    query_view = AlgebraTransformation(
        [(rel, optimize(expr)) for rel, expr in query_rules],
        input_schema=table_schema,
        output_schema=entity_schema,
        name=f"query_view_{mapping.name}",
    )
    update_view = AlgebraTransformation(
        [(rel, optimize(expr)) for rel, expr in update_rules],
        input_schema=entity_schema,
        output_schema=table_schema,
        name=f"update_view_{mapping.name}",
    )
    return TransformationPair(query_view=query_view, update_view=update_view,
                              mapping=mapping)


def _analyze(
    constraint: EqualityConstraint, entity_schema: Schema
) -> Optional[_Fragment]:
    """Decompose a constraint into a fragment; None for plain copies."""
    target_info = _entity_side_shape(constraint.target_expr, entity_schema)
    if target_info is None:
        return None
    root, types, output_to_attr = target_info
    source_info = _table_side_shape(constraint.source_expr)
    if source_info is None:
        raise TransformationError(
            f"constraint {constraint.name!r}: table side is not a "
            "selected/projected scan"
        )
    table, selection, output_to_table = source_info
    return _Fragment(
        constraint=constraint,
        table=table,
        table_selection=selection,
        output_to_table=output_to_table,
        output_to_attr=output_to_attr,
        types=frozenset(types),
        root=root,
    )


def _entity_side_shape(expr: E.RelExpr, schema: Schema):
    """Match π[(col, Col(attr))...](σ[type-pred]?(EntityScan(root)))."""
    output_to_attr: dict[str, str] = {}
    current = expr
    if isinstance(current, E.Distinct):
        current = current.input
    if not isinstance(current, E.Project):
        return None
    for name, scalar in current.outputs:
        if not isinstance(scalar, S.Col):
            return None
        output_to_attr[name] = scalar.name
    current = current.input
    predicate: Optional[S.Predicate] = None
    if isinstance(current, E.Select):
        predicate = current.predicate
        current = current.input
    if not isinstance(current, E.EntityScan):
        return None
    entity = schema.entity(current.entity)
    root = entity.root()
    if not entity.children() and entity.parent is None:
        return None  # flat entity: treat as a copy constraint
    types = _types_of_predicate(predicate, entity, schema, current.only)
    return root.name, types, output_to_attr


def _types_of_predicate(
    predicate: Optional[S.Predicate],
    scanned: Entity,
    schema: Schema,
    scan_only: bool,
) -> set[str]:
    scan_types = (
        {scanned.name}
        if scan_only
        else {
            e.name
            for e in [scanned] + scanned.descendants()
            if not e.is_abstract
        }
    )
    if predicate is None:
        return scan_types

    def of(p: S.Predicate) -> set[str]:
        if isinstance(p, S.IsOf):
            entity = schema.entity(p.entity)
            if p.only:
                return {p.entity} if not entity.is_abstract else set()
            return {
                e.name
                for e in [entity] + entity.descendants()
                if not e.is_abstract
            }
        if isinstance(p, S.Or):
            result: set[str] = set()
            for operand in p.operands:
                result |= of(operand)
            return result
        if isinstance(p, S.And):
            result = None
            for operand in p.operands:
                types = of(operand)
                result = types if result is None else result & types
            return result or set()
        raise TransformationError(
            f"unsupported type predicate {p!r} on the entity side"
        )

    return of(predicate) & scan_types


def _table_side_shape(expr: E.RelExpr):
    """Match π[(col, Col(c))...](σ[col=lit ∧ ...]?(Scan(table)))."""
    current = expr
    if isinstance(current, E.Distinct):
        current = current.input
    output_to_table: dict[str, str] = {}
    if isinstance(current, E.Project):
        for name, scalar in current.outputs:
            if not isinstance(scalar, S.Col):
                return None
            output_to_table[name] = scalar.name
        current = current.input
    selection: dict[str, object] = {}
    if isinstance(current, E.Select):
        for comparison in _conjuncts(current.predicate):
            if (
                isinstance(comparison, S.Comparison)
                and comparison.op == "="
                and isinstance(comparison.left, S.Col)
                and isinstance(comparison.right, S.Lit)
            ):
                selection[comparison.left.name] = comparison.right.value
            else:
                return None
        current = current.input
    if not isinstance(current, E.Scan):
        return None
    if not output_to_table:
        return None
    return current.relation, selection, output_to_table


def _conjuncts(predicate: S.Predicate) -> list[S.Predicate]:
    if isinstance(predicate, S.And):
        result = []
        for operand in predicate.operands:
            result.extend(_conjuncts(operand))
        return result
    return [predicate]


# ----------------------------------------------------------------------
# query view (Figure 3)
# ----------------------------------------------------------------------
def _query_view_expr(root: Entity, fragments: list[_Fragment]) -> E.RelExpr:
    """Reconstruct the polymorphic extent of ``root`` from fragments."""
    schema = root.schema
    concrete = [
        e for e in [root] + root.descendants() if not e.is_abstract
    ]
    root_key = list(root.key)
    branches: list[E.RelExpr] = []
    patterns: dict[str, frozenset[int]] = {}
    for entity in concrete:
        patterns[entity.name] = frozenset(
            i for i, f in enumerate(fragments) if entity.name in f.types
        )
    for entity in concrete:
        pattern = patterns[entity.name]
        if not pattern:
            continue  # type not representable in this mapping
        own = [fragments[i] for i in sorted(pattern)]
        expr = _join_fragments(own, root_key)
        key_cols = own[0].key_columns(root_key)
        # Remove keys claimed by types whose fragment pattern could
        # overlap this join: one anti-join against their distinct
        # excluders (see module docstring).
        intersection_types: set[str] = set(own[0].types)
        for fragment in own[1:]:
            intersection_types &= fragment.types
        excluders: set[int] = set()
        for other in sorted(intersection_types - {entity.name}):
            extra_indices = patterns.get(other, frozenset()) - pattern
            if not extra_indices:
                raise TransformationError(
                    f"types {entity.name!r} and {other!r} are "
                    "indistinguishable under these constraints"
                )
            excluders.add(min(extra_indices))
        if excluders:
            expr = _anti_join(
                expr, [fragments[i] for i in sorted(excluders)], key_cols,
                root_key,
            )
        # Rename output columns to entity attribute names.
        renames: dict[str, str] = {}
        for fragment in own:
            for column, attr in fragment.output_to_attr.items():
                if column != attr:
                    renames[column] = attr
        if renames:
            expr = E.Rename(expr, renames)
        attrs = list(entity.all_attribute_names())
        outputs: list[tuple[str, S.Scalar]] = [
            (TYPE_FIELD, S.Lit(entity.name))
        ]
        available = set()
        for fragment in own:
            available.update(fragment.output_to_attr.values())
        for attr in attrs:
            if attr in available:
                outputs.append((attr, S.Col(attr)))
            else:
                outputs.append((attr, S.Lit(None)))
        branches.append(E.Distinct(E.Project(expr, outputs)))
    if not branches:
        raise TransformationError(
            f"no representable concrete type under {root.name!r}"
        )
    union = branches[0]
    for branch in branches[1:]:
        union = E.UnionAll(union, branch)
    return union


def _join_fragments(
    fragments: list[_Fragment], root_key: list[str]
) -> E.RelExpr:
    base = fragments[0]
    expr: E.RelExpr = base.constraint.source_expr
    base_keys = base.key_columns(root_key)
    for fragment in fragments[1:]:
        other_keys = fragment.key_columns(root_key)
        expr = E.eq_join(
            expr,
            fragment.constraint.source_expr,
            list(zip(base_keys, other_keys)),
        )
    return expr


def _anti_join(
    expr: E.RelExpr,
    excluders: list[_Fragment],
    key_cols: list[str],
    root_key: list[str],
) -> E.RelExpr:
    """Keep rows of ``expr`` whose key no excluder holds; ``expr``
    appears twice, so the view stays linear in its fragments."""
    excluded: Optional[E.RelExpr] = None
    for excluder in excluders:
        excluder_keys = excluder.key_columns(root_key)
        keys: E.RelExpr = E.project_names(
            excluder.constraint.source_expr, excluder_keys
        )
        if excluder_keys != key_cols:
            keys = E.Rename(keys, dict(zip(excluder_keys, key_cols)))
        excluded = keys if excluded is None else E.UnionAll(excluded, keys)
    surviving = E.Difference(
        E.Distinct(E.project_names(expr, key_cols)), E.Distinct(excluded)
    )
    return E.eq_join(expr, surviving, [(k, k) for k in key_cols])


# ----------------------------------------------------------------------
# update view
# ----------------------------------------------------------------------
def _update_view_rules(
    root: Entity, fragments: list[_Fragment], table_schema: Schema
) -> list[tuple[str, E.RelExpr]]:
    """Each fragment contributes its rows to its table; a table's full
    column set is assembled with nulls for columns no fragment covers
    in that branch, and selection literals (discriminators) restored."""
    by_table: dict[str, list[_Fragment]] = {}
    for fragment in fragments:
        by_table.setdefault(fragment.table, []).append(fragment)
    rules: list[tuple[str, E.RelExpr]] = []
    for table_name, table_fragments in sorted(by_table.items()):
        table_entity = table_schema.entity(table_name)
        table_columns = list(table_entity.all_attribute_names())
        branches: list[E.RelExpr] = []
        for fragment in table_fragments:
            # Entity-side rows for this fragment.
            expr = fragment.constraint.target_expr
            outputs: list[tuple[str, S.Scalar]] = []
            covered = {
                fragment.output_to_table[column]: column
                for column in fragment.output_to_table
            }
            for table_column in table_columns:
                if table_column in covered:
                    outputs.append((table_column, S.Col(covered[table_column])))
                elif table_column in fragment.table_selection:
                    outputs.append(
                        (table_column,
                         S.Lit(fragment.table_selection[table_column]))
                    )
                else:
                    outputs.append((table_column, S.Lit(None)))
            branches.append(E.Project(expr, outputs))
        union = branches[0]
        for branch in branches[1:]:
            union = E.UnionAll(union, branch)
        rules.append((table_name, E.Distinct(union)))
    return rules


def _copy_targets(
    constraint: EqualityConstraint, schema: Schema, side: str = "target"
) -> tuple[str, dict[str, str]]:
    """For a copy constraint, the output relation and the renames from
    output columns to that relation's attribute names."""
    expr = constraint.target_expr if side == "target" else constraint.source_expr
    current = expr
    renames: dict[str, str] = {}
    if isinstance(current, E.Distinct):
        current = current.input
    if isinstance(current, E.Project):
        for name, scalar in current.outputs:
            if isinstance(scalar, S.Col) and scalar.name != name:
                renames[name] = scalar.name
        current = current.input
    while isinstance(current, (E.Select, E.Extend)):
        current = current.inputs()[0]
    if isinstance(current, (E.Scan, E.EntityScan)):
        relation = (
            current.relation if isinstance(current, E.Scan) else current.entity
        )
        return relation, renames
    raise TransformationError(
        f"cannot determine output relation of {constraint.name!r}"
    )


def _fit_to_relation(
    expr: E.RelExpr, schema: Schema, relation: str
) -> E.RelExpr:
    """Project the expression onto the relation's attribute list when
    its (statically known) output columns are a strict superset."""
    from repro.algebra.optimizer import _output_names

    if relation not in schema.entities:
        return expr
    attrs = list(schema.entity(relation).all_attribute_names())
    outputs = _output_names(expr)
    if outputs is None:
        return expr
    if set(attrs) <= set(outputs) and set(outputs) != set(attrs):
        return E.project_names(expr, attrs)
    return expr
