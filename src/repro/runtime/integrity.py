"""Cross-schema integrity checking (paper, Sections 2 and 5).

Two services:

* :func:`check_constraint_propagation` — the runtime check the paper
  asks for in Section 2: "for a given source and target database that
  are related by a given mapping, we might need to check that if the
  source database satisfies the source integrity constraints then the
  target database also satisfies the target integrity constraints";

* :func:`inexpressible_constraints` — the static analysis behind the
  paper's Section 5 example: "the disjointness of two sets of
  instances of two classes in T with a common superclass is not
  expressible as relational integrity constraints on S if … the
  classes are mapped to distinct tables" — i.e. which target
  constraints the source layer cannot enforce, so the client runtime
  must.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.instances.database import Instance
from repro.instances.validation import violations
from repro.mappings.mapping import Mapping
from repro.metamodel.constraints import (
    Constraint,
    Covering,
    Disjointness,
)
from repro.runtime.executor import exchange


@dataclass
class PropagationReport:
    """Outcome of a constraint-propagation check."""

    source_violations: list[str]
    target_violations: list[str]

    @property
    def source_satisfied(self) -> bool:
        return not self.source_violations

    @property
    def propagates(self) -> bool:
        """Vacuously true when the source itself is invalid."""
        return not self.source_satisfied or not self.target_violations


def check_constraint_propagation(
    mapping: Mapping, source_instance: Instance
) -> PropagationReport:
    """Exchange the source through the mapping and validate both sides
    against their declared integrity constraints."""
    source_problems = violations(source_instance, mapping.source)
    target_instance = exchange(mapping, source_instance)
    target_instance.schema = mapping.target
    target_problems = violations(target_instance, mapping.target)
    return PropagationReport(
        source_violations=source_problems,
        target_violations=target_problems,
    )


@dataclass
class InexpressibleConstraint:
    """A target constraint the source schema cannot express."""

    constraint: Constraint
    reason: str

    def describe(self) -> str:
        return f"{self.constraint.describe()}: {self.reason}"


def inexpressible_constraints(mapping: Mapping) -> list[InexpressibleConstraint]:
    """Target constraints that cannot be enforced by source-side
    integrity constraints alone, so the mapping runtime must check
    them (paper, Section 5, "Integrity constraints").

    Detection rules (each is a sufficient condition mirroring the
    paper's discussion, not a complete decision procedure):

    * **Disjointness** of target entities that the constraints map to
      *distinct* source relations: relational integrity constraints are
      intra-table or inclusion-shaped; exclusion ("no key in both
      tables") is not among them — the paper's exact example.
    * **Covering** of a target entity by subtypes stored in separate
      relations: requires a union-shaped inclusion, likewise outside
      the standard repertoire.
    """
    results: list[InexpressibleConstraint] = []
    entity_to_relations = _entity_source_relations(mapping)
    for constraint in mapping.target.constraints:
        if isinstance(constraint, Disjointness):
            for i, first in enumerate(constraint.entities):
                for second in constraint.entities[i + 1:]:
                    if not _disjointness_expressible(mapping, first, second):
                        results.append(
                            InexpressibleConstraint(
                                constraint=constraint,
                                reason=(
                                    f"the fragments distinguishing "
                                    f"{first!r} from {second!r} live in "
                                    "distinct source relations; exclusion "
                                    "across tables is not a relational "
                                    "integrity constraint — runtime must "
                                    "enforce it"
                                ),
                            )
                        )
                        break
                else:
                    continue
                break
        elif isinstance(constraint, Covering):
            parent_relations = entity_to_relations.get(constraint.entity, set())
            child_relations = [
                entity_to_relations.get(e, set()) for e in constraint.covered_by
            ]
            if parent_relations and all(child_relations) and not any(
                parent_relations & c for c in child_relations
            ):
                results.append(
                    InexpressibleConstraint(
                        constraint=constraint,
                        reason=(
                            "covering by subtypes stored in separate "
                            "relations needs a union-shaped inclusion; "
                            "runtime must enforce it"
                        ),
                    )
                )
    return results


def _disjointness_expressible(
    mapping: Mapping, first: str, second: str
) -> bool:
    """Disjointness of two target entities is enforceable relationally
    when some pair of *distinguishing* fragments (a constraint covering
    one entity but not the other) stores both in the **same** source
    relation, separated by constant selections on a common column —
    the TPH discriminator case.  Otherwise (TPT/TPC: distinguishing
    data in distinct tables) it needs cross-table exclusion."""
    from repro.operators.transgen import _table_side_shape

    def distinguishing(entity: str, other: str):
        fragments = []
        for constraint in mapping.equalities:
            types = _selected_types(constraint, mapping)
            if entity in types and other not in types:
                shape = _table_side_shape(constraint.source_expr)
                if shape is not None:
                    fragments.append(shape)
        return fragments

    first_fragments = distinguishing(first, second)
    second_fragments = distinguishing(second, first)
    if not first_fragments or not second_fragments:
        # No distinguishing relational fragment at all: nothing to
        # enforce relationally either way; treat as inexpressible only
        # if both entities appear in constraints at all.
        return not (first_fragments or second_fragments)
    for f_table, f_selection, _ in first_fragments:
        for s_table, s_selection, _ in second_fragments:
            if f_table != s_table:
                continue
            shared_columns = set(f_selection) & set(s_selection)
            if any(
                f_selection[c] != s_selection[c] for c in shared_columns
            ):
                return True  # same table, disjoint discriminator values
    return False


def _entity_source_relations(mapping: Mapping) -> dict[str, set[str]]:
    """Target entity → source relations its data lives in."""
    result: dict[str, set[str]] = {}
    for constraint in mapping.equalities:
        target_relations = constraint.target_expr.relations()
        source_relations = constraint.source_expr.relations()
        # With inheritance, the interesting entity set is the types the
        # constraint's predicate selects, not just the scanned root.
        types = _selected_types(constraint, mapping)
        for entity in types or target_relations:
            result.setdefault(entity, set()).update(source_relations)
    for tgd in mapping.tgds:
        body_relations = tgd.body_relations()
        for atom in tgd.head:
            result.setdefault(atom.relation, set()).update(body_relations)
    return result


def _selected_types(constraint, mapping: Mapping) -> set[str]:
    from repro.operators.transgen import _entity_side_shape

    shape = _entity_side_shape(constraint.target_expr, mapping.target)
    if shape is None:
        return set()
    _, types, _ = shape
    return types
