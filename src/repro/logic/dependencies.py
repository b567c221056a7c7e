"""Tuple-generating and equality-generating dependencies.

A tgd is ``∀x̄ φ(x̄) → ∃ȳ ψ(x̄, ȳ)`` with φ, ψ conjunctions of atoms
(paper, Section 6.1, footnote 2).  When φ uses only source relations
and ψ only target relations it is a *source-to-target* tgd (st-tgd),
the GLAV constraint language of the Clio line of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.logic.formulas import Atom, Equality
from repro.logic.terms import Var


@dataclass(frozen=True)
class Dependency:
    """Base class for tgds and egds."""

    body: tuple[Atom, ...]

    def body_variables(self) -> set[Var]:
        result: set[Var] = set()
        for atom in self.body:
            result |= atom.variables()
        return result

    def body_relations(self) -> set[str]:
        return {atom.relation for atom in self.body}


@dataclass(frozen=True)
class TGD(Dependency):
    """``body → ∃(existentials) head``."""

    head: tuple[Atom, ...] = ()
    name: str = ""

    @staticmethod
    def of(body: Sequence[Atom], head: Sequence[Atom], name: str = "") -> "TGD":
        return TGD(body=tuple(body), head=tuple(head), name=name)

    def head_variables(self) -> set[Var]:
        result: set[Var] = set()
        for atom in self.head:
            result |= atom.variables()
        return result

    def frontier(self) -> set[Var]:
        """Variables shared by body and head (the universally
        quantified ones that matter)."""
        return self.body_variables() & self.head_variables()

    def existentials(self) -> set[Var]:
        """Head-only variables — implicitly ∃-quantified."""
        return self.head_variables() - self.body_variables()

    @property
    def is_full(self) -> bool:
        """A *full* tgd has no existential variables; full tgds always
        chase-terminate and compose within first-order logic."""
        return not self.existentials()

    def head_relations(self) -> set[str]:
        return {atom.relation for atom in self.head}

    def is_source_to_target(
        self, source_relations: Iterable[str], target_relations: Iterable[str]
    ) -> bool:
        source = set(source_relations)
        target = set(target_relations)
        return self.body_relations() <= source and self.head_relations() <= target

    def __str__(self) -> str:
        body = " & ".join(str(a) for a in self.body)
        head = " & ".join(str(a) for a in self.head)
        label = f"[{self.name}] " if self.name else ""
        existentials = self.existentials()
        prefix = (
            "∃" + ",".join(sorted(v.name for v in existentials)) + " "
            if existentials
            else ""
        )
        return f"{label}{body} -> {prefix}{head}"


@dataclass(frozen=True)
class EGD(Dependency):
    """``body → left = right`` (e.g. key constraints as dependencies)."""

    equalities: tuple[Equality, ...] = ()
    name: str = ""

    @staticmethod
    def of(
        body: Sequence[Atom], equalities: Sequence[Equality], name: str = ""
    ) -> "EGD":
        return EGD(body=tuple(body), equalities=tuple(equalities), name=name)

    def __str__(self) -> str:
        body = " & ".join(str(a) for a in self.body)
        eqs = " & ".join(str(e) for e in self.equalities)
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{body} -> {eqs}"


def key_egd(relation: str, key: Sequence[str], attributes: Sequence[str]) -> EGD:
    """The egd encoding "``key`` is a key of ``relation``" over the given
    full attribute list: two tuples agreeing on the key agree everywhere."""
    first_args = []
    second_args = []
    equalities = []
    for attribute in attributes:
        if attribute in key:
            shared = Var(f"k_{attribute}")
            first_args.append((attribute, shared))
            second_args.append((attribute, shared))
        else:
            left = Var(f"a_{attribute}")
            right = Var(f"b_{attribute}")
            first_args.append((attribute, left))
            second_args.append((attribute, right))
            equalities.append(Equality(left, right))
    return EGD(
        body=(
            Atom(relation, tuple(first_args)),
            Atom(relation, tuple(second_args)),
        ),
        equalities=tuple(equalities),
        name=f"key:{relation}({','.join(key)})",
    )

