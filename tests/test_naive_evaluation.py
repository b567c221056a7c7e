"""Naive evaluation on the chase's compiled plans against the
homomorphism search.

``naive_evaluate`` compiles a CQ body as a tgd body and enumerates
``bindings``; ``iter_homomorphisms`` is its oracle.  Over seeded random
CQs — constants that compare equal across types (0, 1, True, 1.0) and
strings that do not ("1"), repeated variables, atoms naming attributes
some rows lack, ``None`` and labeled nulls in the data, ``var = var``
and ``var = const`` conditions, unbound condition variables — both
return the same answers, in the same order, with the same types."""

import random

import pytest

from repro.instances import Instance, LabeledNull
from repro.logic.certain_answers import certain_answers, naive_evaluate
from repro.logic.formulas import Atom, ConjunctiveQuery, Equality
from repro.logic.homomorphism import iter_homomorphisms
from repro.logic.terms import Const, Var


def search_answers(query, instance):
    """The homomorphism search's answers to ``query``: head tuples in
    enumeration order, deduplicated with labeled nulls told apart by
    label."""
    answers, seen = [], set()
    for assignment in iter_homomorphisms(
        query.body, instance, query.conditions
    ):
        answer = tuple(assignment[var] for var in query.head)
        key = tuple(
            ("⊥", v.label) if isinstance(v, LabeledNull) else ("c", v)
            for v in answer
        )
        if key not in seen:
            seen.add(key)
            answers.append(answer)
    return answers


def typed(answers):
    """Answers with each value's type beside it: ``1 == True == 1.0``,
    but an answer must carry the value the row stored."""
    return [tuple((type(v).__name__, v) for v in answer)
            for answer in answers]


RELATIONS = {"A": ("a", "b"), "B": ("b", "c"), "C": ("a", "c", "d")}
VALUES = (0, 1, True, False, 1.0, "1", "x", None)
CONSTANTS = (0, 1, True, 1.0, "1", "x", None)
VARIABLES = tuple(Var(name) for name in ("x", "y", "z", "w"))
UNBOUND = Var("u")


def _value(rng):
    if rng.random() < 0.15:
        return LabeledNull(rng.randint(0, 2))
    return rng.choice(VALUES)


def _instance(rng):
    instance = Instance()
    for relation, attributes in RELATIONS.items():
        for _ in range(rng.randint(0, 7)):
            # Rows sometimes lack an attribute an atom may name.
            row = {attr: _value(rng) for attr in attributes
                   if rng.random() < 0.9}
            instance.insert(relation, row)
    return instance


def _term(rng):
    if rng.random() < 0.25:
        return Const(rng.choice(CONSTANTS))
    return rng.choice(VARIABLES)


def _query(rng):
    body = []
    for _ in range(rng.randint(1, 3)):
        relation = rng.choice(sorted(RELATIONS))
        attributes = list(RELATIONS[relation])
        rng.shuffle(attributes)
        named = attributes[: rng.randint(1, len(attributes))]
        body.append(Atom(relation, tuple((a, _term(rng)) for a in named)))
    bound = sorted({v for atom in body for v in atom.variables()},
                   key=lambda v: v.name)
    conditions = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        left = rng.choice(bound) if bound else UNBOUND
        roll = rng.random()
        if roll < 0.4 and bound:
            right = rng.choice(bound)
        elif roll < 0.85:
            right = Const(rng.choice(CONSTANTS))
        else:
            right = UNBOUND
        if rng.random() < 0.5:
            left, right = right, left
        conditions.append(Equality(left, right))
    head = tuple(v for v in bound if rng.random() < 0.7)
    return ConjunctiveQuery(head=head, body=tuple(body),
                            conditions=tuple(conditions))


@pytest.mark.parametrize("seed", range(50))
def test_random_cqs_match_the_search_list_for_list(seed):
    """2,000 seeded queries: 40 per instance over 50 instances."""
    rng = random.Random(seed)
    instance = _instance(rng)
    for _ in range(40):
        query = _query(rng)
        expected = search_answers(query, instance)
        assert typed(naive_evaluate(query, instance)) == typed(expected), (
            query
        )


def test_certain_answers_drop_labeled_nulls_in_search_order():
    rng = random.Random(7)
    for _ in range(20):
        instance = _instance(rng)
        query = _query(rng)
        expected = [
            answer for answer in search_answers(query, instance)
            if not any(isinstance(v, LabeledNull) for v in answer)
        ]
        expected = list(dict.fromkeys(expected))
        assert typed(certain_answers(query, instance)) == typed(expected)


def test_empty_body_has_the_one_empty_answer():
    query = ConjunctiveQuery(head=(), body=())
    assert naive_evaluate(query, Instance()) == [()]
    assert search_answers(query, Instance()) == [()]


def test_unbound_condition_variable_compares_as_itself():
    x = Var("x")
    instance = Instance()
    instance.insert_all("A", [{"a": 1}, {"a": 2}])
    body = (Atom.of("A", a=x),)
    tautology = ConjunctiveQuery(
        head=(x,), body=body, conditions=(Equality(UNBOUND, UNBOUND),)
    )
    never = ConjunctiveQuery(
        head=(x,), body=body, conditions=(Equality(x, UNBOUND),)
    )
    assert naive_evaluate(tautology, instance) == [(1,), (2,)]
    assert naive_evaluate(never, instance) == []
    for query in (tautology, never):
        assert naive_evaluate(query, instance) == search_answers(
            query, instance
        )


def test_unsafe_head_fails_on_its_first_answer_like_the_search():
    x = Var("x")
    query = ConjunctiveQuery(head=(UNBOUND,), body=(Atom.of("A", a=x),))
    assert naive_evaluate(query, Instance()) == []
    instance = Instance()
    instance.insert("A", {"a": 1})
    with pytest.raises(KeyError):
        search_answers(query, instance)
    with pytest.raises(KeyError):
        naive_evaluate(query, instance)
