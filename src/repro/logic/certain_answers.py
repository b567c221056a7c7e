"""Certain answers over universal solutions.

"A query over the target should return only those tuples that are in
the output of the query for every target database that satisfies the
constraints" (paper, Section 4).  For (unions of) conjunctive queries,
this is *naive evaluation*: run the query on a universal solution and
discard answers that contain labeled nulls.

Naive evaluation runs on the chase's compiled plans: the query body
compiles once, as the body of a tgd (:func:`~repro.logic.chase.
compile_dependency`), and :func:`~repro.logic.chase.bindings`
enumerates its matches in the order of the homomorphism search
(:func:`~repro.logic.homomorphism.iter_homomorphisms`, the tests'
oracle), so both return the same answers in the same order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence, Union

from repro.instances.database import Instance
from repro.instances.labeled_null import LabeledNull
from repro.logic.chase import _getter, bindings, compile_dependency
from repro.logic.dependencies import TGD
from repro.logic.formulas import ConjunctiveQuery
from repro.logic.terms import Const, Term, Var


def _reader(term: Term, slots: dict[Var, int]) -> Callable:
    """``binding -> value`` of a condition term, read the way the search
    reads it: an unbound variable stands for itself."""
    if isinstance(term, Const):
        value = term.value
        return lambda binding: value
    if not isinstance(term, Var):
        raise TypeError("conditions must be first-order")
    if term in slots:
        return itemgetter(slots[term])
    return lambda binding: term


def naive_evaluate(
    query: ConjunctiveQuery, instance: Instance
) -> list[tuple]:
    """All answer tuples of ``query`` over ``instance`` (nulls allowed
    to bind variables; answers may contain nulls), deduplicated with
    labeled nulls told apart by label, in the search's order.

    A condition holds unless its two sides compare ``!=``.  A head
    variable the body does not bind raises ``KeyError`` at the first
    answer, as the search does."""
    plan = compile_dependency(TGD(body=query.body))
    slots = {var: i for i, var in enumerate(plan.variables)}
    checks = [
        (_reader(c.left, slots), _reader(c.right, slots))
        for c in query.conditions
    ]
    try:
        project = _getter(tuple(slots[var] for var in query.head))
    except KeyError as unbound:
        # An unsafe head: the search raises at its first answer too.
        def project(binding, unbound=unbound):
            raise unbound
    answers: list[tuple] = []
    seen: set[tuple] = set()
    for binding in bindings(plan, instance):
        if any(left(binding) != right(binding) for left, right in checks):
            continue
        answer = project(binding)
        key = tuple(
            ("⊥", v.label) if isinstance(v, LabeledNull) else ("c", v)
            for v in answer
        )
        if key not in seen:
            seen.add(key)
            answers.append(answer)
    return answers


def certain_answers(
    query: Union[ConjunctiveQuery, Sequence[ConjunctiveQuery]],
    universal_solution: Instance,
) -> list[tuple]:
    """Certain answers of a CQ (or union of CQs) given a universal
    solution: naive evaluation minus answers containing labeled nulls."""
    queries = [query] if isinstance(query, ConjunctiveQuery) else list(query)
    results: list[tuple] = []
    seen: set[tuple] = set()
    for q in queries:
        for answer in naive_evaluate(q, universal_solution):
            if any(isinstance(v, LabeledNull) for v in answer):
                continue
            if answer not in seen:
                seen.add(answer)
                results.append(answer)
    return results
