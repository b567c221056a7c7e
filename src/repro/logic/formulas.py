"""Relational atoms, equalities and conjunctive queries.

Atoms use *named* arguments (attribute → term) rather than positional
ones, matching the engine's row representation; the printer renders
``Empl(EID=x, Name=n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.logic.terms import (
    Const,
    FuncTerm,
    Substitution,
    Term,
    Var,
    apply_term,
    functions_of,
    variables_of,
)


@dataclass(frozen=True)
class Atom:
    """``relation(attr1=t1, attr2=t2, ...)``."""

    relation: str
    args: tuple[tuple[str, Term], ...]

    @staticmethod
    def of(relation: str, **kwargs) -> "Atom":
        """Convenience constructor; bare Python values become constants,
        strings of the form produced by callers stay as given terms."""
        args = []
        for name, value in kwargs.items():
            if isinstance(value, (Var, Const, FuncTerm)):
                args.append((name, value))
            else:
                args.append((name, Const(value)))
        return Atom(relation, tuple(args))

    @property
    def arg_map(self) -> dict[str, Term]:
        return dict(self.args)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.args)

    def term(self, attribute: str) -> Term:
        for name, term in self.args:
            if name == attribute:
                return term
        raise KeyError(attribute)

    def variables(self) -> set[Var]:
        result: set[Var] = set()
        for _, term in self.args:
            if isinstance(term, Var):
                result.add(term)
            elif isinstance(term, FuncTerm):
                result |= variables_of(term)
        return result

    def functions(self) -> set[str]:
        result: set[str] = set()
        for _, term in self.args:
            result |= functions_of(term)
        return result

    def substitute(self, substitution: Substitution) -> "Atom":
        return Atom(
            self.relation,
            tuple((name, apply_term(term, substitution)) for name, term in self.args),
        )

    def __str__(self) -> str:
        inner = ", ".join(f"{name}={term}" for name, term in self.args)
        return f"{self.relation}({inner})"


def atoms_variables(atoms: Iterable[Atom]) -> set[Var]:
    """The variables of ``atoms``, in one walk: a variable term is added
    as it is, and only a function term is opened."""
    result: set[Var] = set()
    add = result.add
    for atom in atoms:
        for _, term in atom.args:
            if isinstance(term, Var):
                add(term)
            elif isinstance(term, FuncTerm):
                result |= variables_of(term)
    return result


@dataclass(frozen=True)
class Equality:
    """``left = right`` — the conclusion of an egd, or a residual
    condition inside a second-order tgd implication."""

    left: Term
    right: Term

    def substitute(self, substitution: Substitution) -> "Equality":
        return Equality(
            apply_term(self.left, substitution), apply_term(self.right, substitution)
        )

    def variables(self) -> set[Var]:
        return variables_of(self.left) | variables_of(self.right)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``q(head_vars) :- body`` — a conjunctive query with optional
    equality conditions.

    The canonical-database construction (:meth:`canonical_instance`)
    turns the body into an instance for Chandra–Merlin containment
    testing.
    """

    head: tuple[Var, ...]
    body: tuple[Atom, ...]
    conditions: tuple[Equality, ...] = ()
    name: str = "q"

    def variables(self) -> set[Var]:
        result: set[Var] = set()
        for atom in self.body:
            result |= atom.variables()
        for condition in self.conditions:
            result |= condition.variables()
        return result

    def is_safe(self) -> bool:
        """All head variables appear in the body."""
        return set(self.head) <= self.variables()

    def relations(self) -> set[str]:
        return {atom.relation for atom in self.body}

    def canonical_instance(self):
        """The frozen body as a database instance: each variable becomes
        a distinct labeled null, constants stay themselves."""
        from repro.instances.database import Instance
        from repro.instances.labeled_null import LabeledNull

        freeze: dict[Var, LabeledNull] = {}
        for index, var in enumerate(sorted(self.variables(), key=lambda v: v.name)):
            freeze[var] = LabeledNull(index, hint=var.name)
        instance = Instance()
        for atom in self.body:
            row = {}
            for name, term in atom.args:
                if isinstance(term, Var):
                    row[name] = freeze[term]
                elif isinstance(term, Const):
                    row[name] = term.value
                else:
                    raise ValueError("canonical instance needs first-order atoms")
            instance.insert(atom.relation, row)
        head_values = tuple(freeze[v] for v in self.head)
        return instance, head_values

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.head)
        parts = [str(a) for a in self.body] + [str(c) for c in self.conditions]
        return f"{self.name}({head}) :- {' & '.join(parts)}"
