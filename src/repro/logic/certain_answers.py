"""Certain answers over universal solutions.

"A query over the target should return only those tuples that are in
the output of the query for every target database that satisfies the
constraints" (paper, Section 4).  For (unions of) conjunctive queries,
this is *naive evaluation*: run the query on a universal solution and
discard answers that contain labeled nulls.

Two execution paths share these semantics.  The reference path
enumerates homomorphisms directly; the default path translates the CQ
to relational algebra (:mod:`repro.logic.cq_compile`) and runs it
through the plan-cached vectorized executor, falling back to the
reference search for queries the translation declines.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.algebra.evaluator import evaluate
from repro.instances.database import Instance
from repro.instances.labeled_null import LabeledNull
from repro.logic.cq_compile import answers_from_rows, translate_cq
from repro.logic.formulas import ConjunctiveQuery
from repro.logic.homomorphism import iter_homomorphisms


def naive_evaluate(
    query: ConjunctiveQuery,
    instance: Instance,
    engine: Optional[str] = None,
) -> list[tuple]:
    """All answer tuples of ``query`` over ``instance`` (nulls allowed
    to bind variables; answers may contain nulls).

    By default (``engine=None``/``"vectorized"``) the algebra
    translation runs through the vectorized plan cache;
    ``engine="interpreted"`` forces the reference homomorphism
    enumeration, the oracle for the planned path.  Answer *sets* are
    identical; ordering may differ between the paths.
    """
    if engine != "interpreted":
        plan = translate_cq(query)
        if plan is not None:
            rows = evaluate(plan, instance, engine=engine)
            return answers_from_rows(query, rows)
    answers: list[tuple] = []
    seen: set[tuple] = set()
    for assignment in iter_homomorphisms(query.body, instance, query.conditions):
        answer = tuple(assignment[v] for v in query.head)
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
    engine: Optional[str] = None,
) -> list[tuple]:
    """Certain answers of a CQ (or union of CQs) given a universal
    solution: naive evaluation minus answers containing labeled nulls."""
    queries = [query] if isinstance(query, ConjunctiveQuery) else list(query)
    results: list[tuple] = []
    seen: set[tuple] = set()
    for q in queries:
        for answer in naive_evaluate(q, universal_solution, engine=engine):
            if any(isinstance(v, LabeledNull) for v in answer):
                continue
            if answer not in seen:
                seen.add(answer)
                results.append(answer)
    return results
