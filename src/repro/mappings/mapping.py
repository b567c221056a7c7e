"""The :class:`Mapping` object: schemas + constraints, with
instance-level semantics.

Constraint languages supported, in increasing expressiveness (the
paper's central tension, Section 2):

* ``st-tgd`` — a list of source-to-target tgds (GLAV);
* ``tgd`` — arbitrary tgds (body/head may mix schemas);
* ``so-tgd`` — one second-order tgd (composition output);
* ``equality`` — bidirectional query-equality constraints
  (Figure 2 / ADO.NET style: an algebra expression over the source
  equals one over the target).

:meth:`Mapping.holds_for` implements the instance-level semantics — a
pair ⟨D1, D2⟩ is in the mapping iff every constraint holds — which is
the ground truth every operator's tests check against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.algebra.evaluator import evaluate
from repro.algebra.expressions import RelExpr
from repro.errors import MappingError
from repro.instances.database import Instance, freeze_row
from repro.logic.chase import chase, satisfies
from repro.logic.dependencies import EGD, TGD
from repro.logic.formulas import Atom
from repro.logic.homomorphism import instance_homomorphism
from repro.logic.second_order import Implication, SecondOrderTGD
from repro.metamodel.schema import Schema


class MappingLanguage(enum.Enum):
    """Expressiveness tiers of the constraint language."""

    ST_TGD = "st-tgd"
    TGD = "tgd"
    SO_TGD = "so-tgd"
    EQUALITY = "equality"


@dataclass(frozen=True)
class EqualityConstraint:
    """``source_expr = target_expr`` — equality of two queries, one per
    side, as in the paper's Figure 2 (Entity SQL over the ER schema
    equals SQL over the tables) and Figure 4 (projection-join equalities).
    """

    source_expr: RelExpr
    target_expr: RelExpr
    name: str = ""

    def holds_for(
        self,
        source_instance: Instance,
        target_instance: Instance,
        source_schema: Optional[Schema] = None,
        target_schema: Optional[Schema] = None,
    ) -> bool:
        left = evaluate(self.source_expr, source_instance, source_schema)
        right = evaluate(self.target_expr, target_instance, target_schema)
        return {freeze_row(r) for r in left} == {freeze_row(r) for r in right}

    def __str__(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.source_expr!r} = {self.target_expr!r}"


Constraint = Union[TGD, EGD, EqualityConstraint]


class Mapping:
    """A mapping between ``source`` and ``target`` schemas.

    ``constraints`` is either a sequence of :class:`TGD` /
    :class:`EqualityConstraint` objects or a single
    :class:`SecondOrderTGD`.
    """

    def __init__(
        self,
        source: Schema,
        target: Schema,
        constraints: Union[Sequence[Constraint], SecondOrderTGD],
        name: str = "",
    ):
        self.source = source
        self.target = target
        self.name = name or f"map_{source.name}_{target.name}"
        if isinstance(constraints, SecondOrderTGD):
            self.so_tgd: Optional[SecondOrderTGD] = constraints
            self.constraints: tuple[Constraint, ...] = ()
        else:
            self.so_tgd = None
            self.constraints = tuple(constraints)
        self._validate()

    # ------------------------------------------------------------------
    @property
    def language(self) -> MappingLanguage:
        if self.so_tgd is not None:
            return MappingLanguage.SO_TGD
        if any(isinstance(c, EqualityConstraint) for c in self.constraints):
            return MappingLanguage.EQUALITY
        if all(
            isinstance(c, TGD)
            and c.is_source_to_target(
                self.source.entities, self.target.entities
            )
            for c in self.constraints
        ):
            return MappingLanguage.ST_TGD
        return MappingLanguage.TGD

    @property
    def tgds(self) -> list[TGD]:
        return [c for c in self.constraints if isinstance(c, TGD)]

    @property
    def egds(self) -> list[EGD]:
        return [c for c in self.constraints if isinstance(c, EGD)]

    @property
    def equalities(self) -> list[EqualityConstraint]:
        return [c for c in self.constraints if isinstance(c, EqualityConstraint)]

    def _validate(self) -> None:
        source_relations = set(self.source.entities)
        target_relations = set(self.target.entities)
        both = source_relations | target_relations
        for tgd in self.tgds:
            used = tgd.body_relations() | tgd.head_relations()
            unknown = used - both
            if unknown:
                raise MappingError(
                    f"constraint {tgd} references relations {sorted(unknown)} "
                    f"not in either schema"
                )

    # ------------------------------------------------------------------
    # instance-level semantics
    # ------------------------------------------------------------------
    def holds_for(
        self, source_instance: Instance, target_instance: Instance
    ) -> bool:
        """⟨D1, D2⟩ ∈ mapping?  (Section 2's subset of D1 × D2.)"""
        combined = self._combined(source_instance, target_instance)
        for constraint in self.equalities:
            if not constraint.holds_for(
                source_instance, target_instance, self.source, self.target,
            ):
                return False
        if not satisfies(combined, self.tgds + self.egds):
            return False
        return self.so_tgd is None or self._so_tgd_holds(combined)

    def _combined(self, source_instance: Instance, target_instance: Instance) -> Instance:
        combined = Instance()
        for relation, rows in source_instance.relations.items():
            combined.relations.setdefault(relation, []).extend(rows)
        for relation, rows in target_instance.relations.items():
            combined.relations.setdefault(relation, []).extend(rows)
        return combined

    def _so_tgd_holds(self, combined: Instance) -> bool:
        """An SO-tgd holds iff *some* interpretation of the function
        symbols satisfies all implications.  We check the canonical
        Skolem interpretation: the chase runs the runnable implications
        over the combined pair, and the head rows they produce must map
        homomorphically into it.

        Bodies are matched against the *combined* instance (atoms find
        their relations wherever they live), so the check stays correct
        for inverted mappings and for implications whose bodies are not
        purely source-side.  The heads write relations tagged apart (a
        tuple names no stored relation), so no body reads a produced
        row: a mapping from a schema to itself runs once rather than
        chasing its own output.
        """
        tagged = [
            Implication(i.body, tuple(Atom(("head", a.relation), a.args)
                                      for a in i.head),
                        i.conditions, i.name)
            for i in self.so_tgd.runnable()
        ]
        chased = chase(combined, tagged, copy=False).instance
        produced = Instance()
        for relation in [r for r in chased.relations if isinstance(r, tuple)]:
            produced.relations[relation[1]] = chased.relations.pop(relation)
        return instance_homomorphism(produced, combined) is not None

    # ------------------------------------------------------------------
    def invert(self) -> "Mapping":
        """The syntactic ``Invert`` of Section 6.2: swap the roles of
        source and target.  For tgd constraints this only relabels which
        side is which (the relation stays the same subset, transposed);
        constraint formulas are unchanged."""
        inverted = Mapping.__new__(Mapping)
        inverted.source = self.target
        inverted.target = self.source
        inverted.name = f"invert_{self.name}"
        inverted.so_tgd = self.so_tgd
        inverted.constraints = tuple(
            EqualityConstraint(c.target_expr, c.source_expr, c.name)
            if isinstance(c, EqualityConstraint)
            else c
            for c in self.constraints
        )
        return inverted

    def constraint_count(self) -> int:
        if self.so_tgd is not None:
            return len(self.so_tgd.implications)
        return len(self.constraints)

    def describe(self) -> str:
        lines = [
            f"mapping {self.name}: {self.source.name} → {self.target.name} "
            f"[{self.language.value}]"
        ]
        for constraint in self.constraints:
            lines.append(f"  {constraint}")
        if self.so_tgd is not None:
            lines.append(f"  {self.so_tgd}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Mapping {self.name} {self.source.name}→{self.target.name} "
            f"[{self.language.value}] {self.constraint_count()} constraints>"
        )
