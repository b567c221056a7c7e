"""Conjunctive-query → relational-algebra translation.

Naive evaluation of a CQ (:func:`repro.logic.certain_answers.naive_evaluate`)
enumerates homomorphisms with a backtracking search.  That search is
re-planned from scratch on every call; the mapping runtime, however,
answers the *same* target queries over and over.  Translating the CQ
body into a ``RelExpr`` once lets those calls go through the
vectorized plan executor and its plan cache.

The translation reproduces homomorphism-matching semantics exactly:

* an atom matches a row only if the row *has* every mentioned
  attribute, constants agree (``!=`` rejection), and repeated variables
  within the atom bind equal values (:class:`_AtomGuard`);
* shared variables across atoms join with
  :class:`~repro.algebra.expressions.ValueJoinEq` — plain ``!=``
  rejection, so ``None == None`` matches and labeled nulls match by
  label, exactly like binding consistency in ``_match_atom``;
* equality conditions become :class:`_CondEq` selections with the same
  ``!=`` rejection.

Exotic queries (empty body, second-order terms, unsafe heads,
conditions over unbound variables) return ``None`` — callers fall back
to the homomorphism search, which stays the reference implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.expressions import (
    Join,
    Project,
    RelExpr,
    Scan,
    Select,
    ValueJoinEq,
)
from repro.algebra.scalars import Col, Predicate, conjunction
from repro.instances.database import Row
from repro.logic.formulas import Atom, ConjunctiveQuery, Equality
from repro.logic.terms import Const, Term, Var


class _AtomGuard(Predicate):
    """Row-level admission test for one atom: every mentioned attribute
    present, constants equal (``!=`` rejection), repeated variables
    consistent."""

    def __init__(self, atom: Atom):
        self.atom = atom

    def eval(self, row: Row, ctx) -> bool:
        first_seen: dict[Var, object] = {}
        for name, term in self.atom.args:
            if name not in row:
                return False
            value = row[name]
            if isinstance(term, Const):
                if value != term.value:
                    return False
            elif isinstance(term, Var):
                if term in first_seen:
                    if first_seen[term] != value:
                        return False
                else:
                    first_seen[term] = value
            else:  # FuncTerm — callers never build guards over these
                return False
        return True

    def columns(self) -> set[str]:
        return {name for name, _ in self.atom.args}

    def _key(self):
        return (self.atom,)


class _CondEq(Predicate):
    """An equality condition over bound variables/constants, with the
    homomorphism search's ``!=`` rejection semantics."""

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right

    def _value(self, term: Term, row: Row):
        if isinstance(term, Const):
            return term.value
        return row[term.name]

    def eval(self, row: Row, ctx) -> bool:
        return not (self._value(self.left, row) != self._value(self.right, row))

    def columns(self) -> set[str]:
        return {
            t.name for t in (self.left, self.right) if isinstance(t, Var)
        }

    def _key(self):
        return (self.left, self.right)


def translate_cq(query: ConjunctiveQuery) -> Optional[RelExpr]:
    """A ``RelExpr`` whose rows are exactly the head bindings of
    ``query``'s homomorphisms (bag; columns ``c0..cN`` positionally
    matching ``query.head``), or ``None`` when the query needs the
    backtracking search (empty body, second-order terms, unsafe head,
    conditions over unbound variables)."""
    if not query.body:
        return None

    bound: set[Var] = set()
    plan: Optional[RelExpr] = None
    for atom in query.body:
        atom_vars: list[Var] = []
        columns: dict[Var, str] = {}
        for name, term in atom.args:
            if isinstance(term, Var):
                if term not in columns:
                    columns[term] = name
                    atom_vars.append(term)
            elif not isinstance(term, Const):
                return None  # FuncTerm argument — not first-order
        atom_plan: RelExpr = Select(Scan(atom.relation), _AtomGuard(atom))
        atom_plan = Project(
            atom_plan, [(var.name, Col(columns[var])) for var in atom_vars]
        )
        if plan is None:
            plan = atom_plan
        else:
            shared = [var for var in atom_vars if var in bound]
            predicate = conjunction(
                [ValueJoinEq(var.name, var.name) for var in shared]
            )
            plan = Join(plan, atom_plan, predicate)
        bound.update(atom_vars)

    for condition in query.conditions:
        if not _condition_translatable(condition, bound):
            return None
        plan = Select(plan, _CondEq(condition.left, condition.right))

    if not set(query.head) <= bound:
        return None  # unsafe head — naive evaluation raises; keep it there
    return Project(
        plan,
        [(f"c{i}", Col(var.name)) for i, var in enumerate(query.head)],
    )


def _condition_translatable(condition: Equality, bound: set[Var]) -> bool:
    for term in (condition.left, condition.right):
        if isinstance(term, Var):
            if term not in bound:
                return False
        elif not isinstance(term, Const):
            return False
    return True


def answers_from_rows(
    query: ConjunctiveQuery, rows: list[Row]
) -> list[tuple]:
    """Positional answer tuples from a :func:`translate_cq` result set,
    deduplicated with the same label-aware key as naive evaluation."""
    from repro.instances.labeled_null import LabeledNull

    width = len(query.head)
    answers: list[tuple] = []
    seen: set[tuple] = set()
    for row in rows:
        answer = tuple(row[f"c{i}"] for i in range(width))
        key = tuple(
            ("⊥", v.label) if isinstance(v, LabeledNull) else ("c", v)
            for v in answer
        )
        if key not in seen:
            seen.add(key)
            answers.append(answer)
    return answers
