"""Exactness of dependency-language Compose against a reference
implementation.

Compose resolves each candidate's equalities with one triangular
substitution, and renames each σ12 origin apart once per middle-atom
position.  The oracles below are the straightforward formulation they
replace: a resolver that substitutes every binding into the whole
implication and every pending condition as soon as it is made, and a
case product that renames the chosen origin again for every choice.

* The resolver must equal the eager one exactly (``==``), on seeded
  implications with nested function terms, constants and occurs-check
  cycles, and on every call that the composes below make.
* Compose must equal the per-choice renamer up to a variable bijection
  per implication, with the implications in the same order, on the
  alternatives family, copy chains and seeded random st-tgd pairs.
* Exchanging through the composition must be homomorphically
  equivalent to the two-step exchange on random instances.
* The chase runs a composition that stays second-order; it must equal
  ``execute_so_tgd``, the separate executor that ran SO-tgds before
  (kept below verbatim), up to null renaming — on the random pairs and
  on 60 seeded compositions whose Skolem functions survive
  de-Skolemization and whose invented values feed joins (one function
  in several head positions) or conditions.
"""

from __future__ import annotations

import importlib
import itertools
import random
from typing import Optional

import pytest

from repro.errors import CompositionError
from repro.instances import Instance
from repro.instances.database import Row
from repro.instances.labeled_null import LabeledNull, NullFactory
from repro.logic import chase, parse_tgd
from repro.logic.dependencies import TGD
from repro.logic.formulas import Atom, Equality
from repro.logic.homomorphism import (
    are_hom_equivalent,
    iter_homomorphisms,
    set_equal_modulo_nulls,
)
from repro.logic.second_order import (
    Implication,
    SecondOrderTGD,
    _resolve_conditions,
    skolemize_all,
)
from repro.logic.terms import Const, FuncTerm, Term, Var, functions_of
from repro.mappings import Mapping
from repro.metamodel import INT, SchemaBuilder
from repro.operators import compose
from repro.runtime import exchange
from repro.workloads import synthetic

# The package re-exports compose(), which shadows the module.
compose_module = importlib.import_module("repro.operators.compose")

# ----------------------------------------------------------------------
# the oracles: eager substitution, and renaming once per choice
# ----------------------------------------------------------------------
def _eager_resolve_conditions(implication: Implication) -> Optional[Implication]:
    """Eliminate conditions by substitution.

    ``x = t`` substitutes ``t`` for ``x``; ``f(s̄) = f(t̄)`` decomposes
    into argument equalities; ``f(s̄) = g(t̄)`` or a function term equal
    to a constant/frontier variable in a position that cannot be
    substituted makes the implication unresolvable (returns None).
    """
    body = list(implication.body)
    head = list(implication.head)
    pending = list(implication.conditions)
    residual: list[Equality] = []
    while pending:
        condition = pending.pop()
        left, right = condition.left, condition.right
        if left == right:
            continue
        if isinstance(right, Var) and not isinstance(left, Var):
            left, right = right, left
        if isinstance(left, Var):
            from repro.logic.terms import variables_of

            if left in variables_of(right):
                # Occurs check: x = f(..x..) is a genuine second-order
                # constraint on the function; keep it residual.
                residual.append(Equality(left, right))
                continue
            substitution = {left: right}
            body = [a.substitute(substitution) for a in body]
            head = [a.substitute(substitution) for a in head]
            pending = [c.substitute(substitution) for c in pending]
            residual = [c.substitute(substitution) for c in residual]
            continue
        if isinstance(left, FuncTerm) and isinstance(right, FuncTerm):
            if left.function == right.function and len(left.args) == len(right.args):
                for l_arg, r_arg in zip(left.args, right.args):
                    pending.append(Equality(l_arg, r_arg))
                continue
            return None  # distinct Skolem functions equated
        if isinstance(left, Const) and isinstance(right, Const):
            if left.value != right.value:
                # Condition can never hold: implication is vacuous.
                return Implication(
                    body=tuple(body), head=(), conditions=(), name=implication.name
                )
            continue
        # FuncTerm = Const: genuinely second-order constraint.
        return None
    return Implication(
        body=tuple(body),
        head=tuple(head),
        conditions=tuple(residual),
        name=implication.name,
    )


def _oracle_replace_middle_atoms(
    implication: Implication,
    sigma12: SecondOrderTGD,
    middle_relations: set[str],
    counter,
) -> list[Implication]:
    """Replace every middle-schema atom in ``implication``'s body by all
    possible σ12 origins (the exponential case product)."""
    middle_atoms = [a for a in implication.body if a.relation in middle_relations]
    other_atoms = [a for a in implication.body if a.relation not in middle_relations]

    # Origins of a middle atom: (implication, head-atom index) pairs
    # whose head atom has the same relation.
    origins: list[list[tuple[Implication, Atom]]] = []
    for atom in middle_atoms:
        candidates: list[tuple[Implication, Atom]] = []
        for source_implication in sigma12.implications:
            for head_atom in source_implication.head:
                if head_atom.relation == atom.relation:
                    candidates.append((source_implication, head_atom))
        if not candidates:
            # No σ12 rule ever produces this relation: the implication
            # body is unsatisfiable over σ12-generated middles, so it
            # contributes nothing (vacuously true).
            return []
        origins.append(candidates)

    results: list[Implication] = []
    for choice in itertools.product(*origins):
        body: list[Atom] = list(other_atoms)
        conditions: list[Equality] = list(implication.conditions)
        for atom, (source_implication, head_atom) in zip(middle_atoms, choice):
            renamed = _oracle_rename_apart(source_implication, next(counter))
            renamed_head_atom = _oracle_find_corresponding_head(
                renamed, source_implication, head_atom
            )
            body.extend(renamed.body)
            conditions.extend(renamed.conditions)
            # Equate the σ23 atom's terms with the σ12 head atom's terms.
            atom_args = atom.arg_map
            head_args = renamed_head_atom.arg_map
            shared = set(atom_args) & set(head_args)
            if set(atom_args) != set(head_args):
                missing = set(atom_args) ^ set(head_args)
                raise CompositionError(
                    f"attribute mismatch on {atom.relation!r}: {sorted(missing)}"
                )
            for attribute in sorted(shared):
                conditions.append(
                    Equality(atom_args[attribute], head_args[attribute])
                )
        candidate = Implication(
            body=tuple(body),
            head=implication.head,
            conditions=tuple(conditions),
            name=f"{implication.name}",
        )
        resolved = _eager_resolve_conditions(candidate)
        if resolved is None:
            # Residual function-term conditions: keep them unresolved —
            # the SO-tgd language allows them.
            results.append(candidate)
        else:
            results.append(resolved)
    return results


def _oracle_rename_apart(implication: Implication, index: int) -> Implication:
    """Rename an implication's variables with a fresh suffix so distinct
    origin choices never share variables."""
    substitution: dict[Var, Term] = {
        var: Var(f"{var.name}~{index}") for var in implication.variables()
    }
    return implication.substitute(substitution)


def _oracle_find_corresponding_head(
    renamed: Implication, original: Implication, head_atom: Atom
) -> Atom:
    position = original.head.index(head_atom)
    return renamed.head[position]


def _oracle_compose(map12: Mapping, map23: Mapping) -> Mapping:
    """``compose(map12, map23, prefer_first_order=False)`` as the
    oracle computes it."""
    if map12.so_tgd is not None:
        sigma12 = map12.so_tgd
    else:
        sigma12 = skolemize_all(map12.tgds, name=map12.name)
    if map23.so_tgd is not None:
        sigma23 = map23.so_tgd
    else:
        sigma23 = skolemize_all(map23.tgds, name=map23.name)
    sigma23 = _oracle_mark_functions(sigma23)
    middle_relations = set(map12.target.entities)
    composed: list[Implication] = []
    counter = itertools.count()
    for implication in sigma23.implications:
        for resolved in _oracle_replace_middle_atoms(
            implication, sigma12, middle_relations, counter
        ):
            if resolved.head:
                composed.append(resolved)
    name = f"{map12.name}∘{map23.name}"
    return Mapping(map12.source, map23.target,
                   SecondOrderTGD(tuple(composed), name=name), name=name)


def _oracle_mark_functions(sigma23: SecondOrderTGD) -> SecondOrderTGD:
    """σ23's Skolem functions are not σ12's, whatever their names:
    mark every one of them as σ23's."""

    def mark(term: Term) -> Term:
        if isinstance(term, FuncTerm):
            return FuncTerm(f"σ23:{term.function}", tuple(map(mark, term.args)))
        return term

    def mark_atoms(atoms):
        return tuple(Atom(a.relation, tuple((n, mark(t)) for n, t in a.args))
                     for a in atoms)

    return SecondOrderTGD(tuple(
        Implication(mark_atoms(i.body), mark_atoms(i.head),
                    tuple(Equality(mark(c.left), mark(c.right))
                          for c in i.conditions), i.name)
        for i in sigma23.implications
    ), name=sigma23.name)


# The former second SO-tgd executor, verbatim: each implication's body
# matched against the source, every head instance inserted, then deduped.
def execute_so_tgd(
    so_tgd: SecondOrderTGD,
    source: Instance,
    target: Optional[Instance] = None,
    null_factory: Optional[NullFactory] = None,
) -> Instance:
    """Populate a target instance from ``source`` per ``so_tgd``.

    Function terms are interpreted as Skolem functions producing
    labeled nulls, memoized per (function, arguments) — so two
    implications inventing ``f(x)`` for the same ``x`` agree, which is
    exactly the semantics composition relies on.
    """
    result = target if target is not None else Instance()
    factory = null_factory or NullFactory(
        max((n.label for n in source.nulls()), default=-1) + 1
    )
    skolem_cache: dict[tuple, LabeledNull] = {}

    for implication in so_tgd.implications:
        bound = set().union(*(atom.variables() for atom in implication.body))
        if any(atom.functions() for atom in implication.body) or any(
            not condition.variables() <= bound for condition in implication.conditions
        ):
            # Equalities that a composition cannot resolve can leave
            # R(f(x)) in a body, or a condition on a variable that no
            # body atom binds.  Neither fires: f(x) is a null fresh to
            # this run, which no source row holds, and an unbound
            # variable equals no value, as in a first-order condition.
            continue
        first_order_conditions = [
            c
            for c in implication.conditions
            if not (functions_of(c.left) or functions_of(c.right))
        ]
        functional_conditions = [
            c for c in implication.conditions if c not in first_order_conditions
        ]
        for assignment in iter_homomorphisms(
            implication.body, source, first_order_conditions
        ):
            if not _functional_conditions_hold(
                functional_conditions, assignment, skolem_cache, factory
            ):
                continue
            for atom in implication.head:
                row: Row = {}
                for name, term in atom.args:
                    row[name] = _term_to_value(
                        term, assignment, skolem_cache, factory
                    )
                result.insert(atom.relation, row)
    return result.deduplicated()


def _term_to_value(term: Term, assignment, cache, factory) -> object:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return assignment[term]
    args = tuple(
        _freeze(_term_to_value(a, assignment, cache, factory)) for a in term.args
    )
    key = (term.function, args)
    if key not in cache:
        cache[key] = factory.fresh(hint=term.function)
    return cache[key]


def _freeze(value: object) -> object:
    if isinstance(value, LabeledNull):
        return ("⊥", value.label)
    return value


def _functional_conditions_hold(conditions, assignment, cache, factory) -> bool:
    for condition in conditions:
        left = _term_to_value(condition.left, assignment, cache, factory)
        right = _term_to_value(condition.right, assignment, cache, factory)
        if left != right:
            return False
    return True


# ----------------------------------------------------------------------
# alpha-equality: equal up to a variable bijection per implication and
# a function-symbol bijection per SO-tgd
# ----------------------------------------------------------------------
def _bijective(forward: dict, backward: dict, s, t) -> bool:
    return forward.setdefault(s, t) == t and backward.setdefault(t, s) == s


def _alpha_equal(a: Implication, b: Implication,
                 functions: Optional[tuple[dict, dict]] = None) -> bool:
    forward: dict[Var, Var] = {}
    backward: dict[Var, Var] = {}
    functions = functions or ({}, {})

    def same(s: Term, t: Term) -> bool:
        if isinstance(s, Var) and isinstance(t, Var):
            return _bijective(forward, backward, s, t)
        if isinstance(s, FuncTerm) and isinstance(t, FuncTerm):
            return (_bijective(*functions, s.function, t.function)
                    and len(s.args) == len(t.args)
                    and all(map(same, s.args, t.args)))
        return type(s) is type(t) and s == t

    def same_atoms(xs, ys) -> bool:
        return len(xs) == len(ys) and all(
            x.relation == y.relation and x.attributes == y.attributes
            and all(same(s, t) for (_, s), (_, t) in zip(x.args, y.args))
            for x, y in zip(xs, ys)
        )

    return (
        a.name == b.name
        and same_atoms(a.body, b.body)
        and same_atoms(a.head, b.head)
        and len(a.conditions) == len(b.conditions)
        and all(same(c.left, d.left) and same(c.right, d.right)
                for c, d in zip(a.conditions, b.conditions))
    )


def _assert_alpha_equal(ours: Mapping, oracle: Mapping) -> None:
    mine, theirs = ours.so_tgd.implications, oracle.so_tgd.implications
    assert len(mine) == len(theirs)
    functions: tuple[dict, dict] = ({}, {})
    for position, (a, b) in enumerate(zip(mine, theirs)):
        assert _alpha_equal(a, b, functions), f"implication {position}: {a} vs {b}"


def test_alpha_equality_is_a_bijection():
    x, y = Var("x"), Var("y")
    one = Implication((Atom("R", (("a", x), ("b", y))),), (Atom("T", (("a", x),)),))
    renamed = Implication((Atom("R", (("a", y), ("b", x))),), (Atom("T", (("a", y),)),))
    merged = Implication((Atom("R", (("a", x), ("b", x))),), (Atom("T", (("a", x),)),))
    assert _alpha_equal(one, renamed)
    assert not _alpha_equal(one, merged) and not _alpha_equal(merged, one)
    # Function symbols: one bijection across the implications.
    fx, gx = FuncTerm("f", (x,)), FuncTerm("g", (x,))
    body = (Atom("R", (("a", x),)),)
    f_and_g = Implication(body, (Atom("T", (("a", fx), ("b", gx))),))
    f_twice = Implication(body, (Atom("T", (("a", fx), ("b", fx))),))
    assert not _alpha_equal(f_and_g, f_twice)
    only_f, only_g = (Implication(body, (Atom("T", (("a", t),)),)) for t in (fx, gx))
    functions: tuple[dict, dict] = ({}, {})
    assert _alpha_equal(only_f, only_g, functions)  # f ↦ g
    assert not _alpha_equal(only_g, only_g, functions)  # g ↦ g, but f ↦ g


# ----------------------------------------------------------------------
# (a) the resolver, on seeded implications
# ----------------------------------------------------------------------
_FUNCTIONS = (("f", 1), ("g", 2), ("h", 1))
_VARIABLES = tuple(Var(n) for n in ("x", "y", "z", "u", "v"))


def _random_term(rng: random.Random, depth: int) -> Term:
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        function, arity = rng.choice(_FUNCTIONS)
        return FuncTerm(function, tuple(
            _random_term(rng, depth - 1) for _ in range(arity)
        ))
    if roll < 0.4:
        return Const(rng.randrange(2))
    return rng.choice(_VARIABLES)


def _random_atoms(rng: random.Random, prefix: str, count: int, depth: int):
    return tuple(
        Atom(f"{prefix}{rng.randrange(3)}", tuple(
            (f"a{i}", _random_term(rng, depth)) for i in range(rng.randint(1, 3))
        ))
        for _ in range(count)
    )


def _random_implication(rng: random.Random) -> Implication:
    conditions = []
    for _ in range(rng.randint(1, 5)):
        left = rng.choice(_VARIABLES) if rng.random() < 0.6 else _random_term(rng, 2)
        right = Const(rng.randrange(2)) if rng.random() < 0.2 else _random_term(rng, 2)
        conditions.append(Equality(left, right))
    return Implication(
        body=_random_atoms(rng, "B", rng.randint(1, 3), 1),
        head=_random_atoms(rng, "H", rng.randint(1, 2), 2),
        conditions=tuple(conditions),
        name=f"i{rng.randrange(4)}",
    )


def _outcome(resolved: Optional[Implication]) -> str:
    if resolved is None:
        return "unresolvable"
    if not resolved.head:
        return "vacuous"
    return "residual" if resolved.conditions else "plain"


def _edge_cases():
    x, y, z = Var("x"), Var("y"), Var("z")
    head = (Atom("T", (("a", x), ("b", y), ("c", z))),)
    for conditions in [
        (),                                                  # nothing to do
        (Equality(x, y), Equality(y, z)),                    # a chain
        (Equality(x, FuncTerm("f", (x,))),),                 # occurs check
        (Equality(x, FuncTerm("f", (x,))), Equality(x, y)),  # residual rebound
        (Equality(FuncTerm("f", (x,)), FuncTerm("g", (x,))),),
        (Equality(FuncTerm("f", (x, y)), FuncTerm("f", (z, Const(1)))),),
        (Equality(x, Const(1)), Equality(x, Const(2))),      # vacuous
        (Equality(Const(1), FuncTerm("f", (y,))),),
    ]:
        yield Implication((Atom("B", (("a", x),)),), head, conditions, "e")


def test_resolver_equals_eager_substitution_on_seeded_implications():
    rng = random.Random(2007)
    seeded = (_random_implication(rng) for _ in range(6000))
    outcomes = {"unresolvable": 0, "residual": 0, "vacuous": 0, "plain": 0}
    for implication in itertools.chain(_edge_cases(), seeded):
        ours = _resolve_conditions(implication)
        assert ours == _eager_resolve_conditions(implication), str(implication)
        outcomes[_outcome(ours)] += 1
    assert min(outcomes.values()) >= 100, outcomes


# ----------------------------------------------------------------------
# (b) Compose, on the alternatives family, chains and random pairs
# ----------------------------------------------------------------------
def _schema(name: str, relations: dict[str, int]):
    builder = SchemaBuilder(name, metamodel="relational")
    for relation, arity in relations.items():
        builder.entity(relation, key=[f"{relation}_0"])
        for i in range(arity):
            builder.attribute(f"{relation}_{i}", INT)
    return builder.build()


def _random_tgd(rng, name, body_relations, head_relations, body_count, head_count):
    """Body atoms join through a small variable pool; head atoms reuse
    body variables, invent values (existentials) or write constants."""
    pool = [Var(n) for n in ("x", "y", "z")]

    def atom(relation, arity, choices):
        return Atom(relation, tuple(
            (f"{relation}_{i}",
             Const(rng.randrange(2)) if rng.random() < 0.1 else rng.choice(choices))
            for i in range(arity)
        ))

    body = tuple(atom(r, a, pool) for r, a in rng.sample(body_relations, body_count))
    used = sorted({v for b in body for v in b.variables()}, key=lambda v: v.name)
    invented = [Var("e"), Var("w")]
    head = tuple(
        atom(r, a, used * 2 + invented)
        for r, a in (rng.choice(head_relations) for _ in range(head_count))
    )
    return TGD(body=body, head=head, name=name)


def _random_pair(rng: random.Random) -> tuple[Mapping, Mapping]:
    """Two st-tgd mappings over three fresh schemas; several tgds write
    the same middle relation, so a middle atom has several origins.
    Half the pairs leave their tgds unnamed, so both mappings Skolemize
    the same names (``f_d0_e``)."""
    arities = {prefix: {f"{prefix}{i}": rng.randint(1, 3) for i in range(3)}
               for prefix in ("R", "S", "T")}
    a, b, c = (_schema(f"P{p}", arities[p]) for p in ("R", "S", "T"))
    source, middle, target = (list(arities[p].items()) for p in ("R", "S", "T"))
    named = rng.random() < 0.5
    m12 = [_random_tgd(rng, f"p{i}" if named else "", source, middle,
                       rng.randint(1, 2), rng.randint(1, 2))
           for i in range(rng.randint(2, 4))]
    m23 = [_random_tgd(rng, f"q{i}" if named else "", middle, target,
                       rng.randint(1, 2), 1)
           for i in range(rng.randint(1, 3))]
    return Mapping(a, b, m12, name="m12"), Mapping(b, c, m23, name="m23")


def _random_source(rng: random.Random, mapping: Mapping) -> Instance:
    instance = Instance()
    for relation in sorted(mapping.source.entities):
        attributes = [a.name for a in mapping.source.entities[relation].attributes]
        for _ in range(rng.randint(0, 4)):
            instance.add(relation, **{a: rng.randrange(2) for a in attributes})
    return instance


def _target_part(instance: Instance, mapping: Mapping) -> Instance:
    part = Instance()
    for relation in mapping.target.entities:
        if instance.rows(relation):
            part.relations[relation] = list(instance.rows(relation))
    return part


@pytest.mark.parametrize("width", range(1, 9))
def test_alternatives_family_alpha_equal(width):
    m12, m23 = synthetic.composition_pair_exponential(width)
    ours = compose(m12, m23, prefer_first_order=False)
    assert len(ours.so_tgd.implications) == 2 ** width
    _assert_alpha_equal(ours, _oracle_compose(m12, m23))


@pytest.mark.parametrize("steps", range(2, 9))
def test_chain_alpha_equal_at_every_step(steps):
    mappings = synthetic.composition_chain_linear(steps, relations=3)
    ours = oracle = mappings[0]
    for step in mappings[1:]:
        ours = compose(ours, step, prefer_first_order=False)
        oracle = _oracle_compose(oracle, step)
        _assert_alpha_equal(ours, oracle)
    assert len(ours.so_tgd.implications) == 3


def test_random_pairs_alpha_equal_and_exchange_like_two_steps():
    rng = random.Random(2107)
    implications = exchanged = 0
    for _ in range(240):
        m12, m23 = _random_pair(rng)
        ours = compose(m12, m23, prefer_first_order=False)
        _assert_alpha_equal(ours, _oracle_compose(m12, m23))
        implications += len(ours.so_tgd.implications)
        for _ in range(2):
            source = _random_source(rng, m12)
            middle = chase(source, m12.tgds).instance
            two_step = _target_part(chase(middle, m23.tgds).instance, m23)
            one_step = _target_part(exchange(ours, source), m23)
            assert are_hom_equivalent(one_step, two_step), (
                f"{ours.so_tgd}\non {source.relations}"
            )
            assert set_equal_modulo_nulls(
                one_step, execute_so_tgd(ours.so_tgd, source)
            ), f"{ours.so_tgd}\non {source.relations}"
            exchanged += bool(two_step.total_rows())
    # The pairs must exercise the case product and the exchange law.
    assert implications >= 600 and exchanged >= 150, (implications, exchanged)


def _subset_pair(tgd12: str, tgd23: str) -> tuple[Mapping, Mapping]:
    def schema(name, relations):
        builder = SchemaBuilder(name, metamodel="relational")
        for relation, attributes in relations.items():
            builder.entity(relation, key=[attributes[0]])
            for attribute in attributes:
                builder.attribute(attribute, INT)
        return builder.build()

    a = schema("A", {"R": ["R_k", "R_v"]})
    b = schema("B", {"S": ["S_k", "S_v"]})
    c = schema("C", {"T": ["T_k"], "S2": ["S_k", "S_v"]})
    return (Mapping(a, b, [parse_tgd(tgd12)], name="m12"),
            Mapping(b, c, [parse_tgd(tgd23)], name="m23"))


@pytest.mark.parametrize("tgd12, tgd23, expected", [
    # The σ23 atom reads a subset of the σ12 head's attributes: only
    # those are equated.
    ("R(R_k=x, R_v=y) -> S(S_k=x, S_v=y)", "S(S_k=x) -> T(T_k=x)",
     {"T": [{"T_k": 1}]}),
    # The σ12 head omits S_v, so its S rows never match an atom that
    # reads S_v; S_v is not an existential.
    ("R(R_k=x, R_v=y) -> S(S_k=x)", "S(S_k=x, S_v=z) -> S2(S_k=x, S_v=z)",
     {}),
])
def test_attribute_subset_atoms_exchange_like_two_steps(tgd12, tgd23, expected):
    m12, m23 = _subset_pair(tgd12, tgd23)
    source = Instance()
    source.add("R", R_k=1, R_v=2)
    middle = chase(source, m12.tgds).instance
    two_step = _target_part(chase(middle, m23.tgds).instance, m23)
    one_step = _target_part(exchange(compose(m12, m23), source), m23)
    assert two_step.relations == expected
    assert are_hom_equivalent(one_step, two_step)
    assert one_step.relations == expected


def _feeds_joins_or_conditions(so_tgd: SecondOrderTGD) -> bool:
    """Does a function of a runnable implication occur in more than one
    head position, or in a condition?"""
    seen: set = set()
    for implication in so_tgd.runnable():
        if any(functions_of(c.left) | functions_of(c.right)
               for c in implication.conditions):
            return True
        for atom in implication.head:
            for _, term in atom.args:
                if isinstance(term, FuncTerm):
                    if term.function in seen:
                        return True
                    seen.add(term.function)
    return False


def test_genuinely_second_order_exchange_equals_the_executor():
    rng = random.Random(61)
    variants = invented = 0
    while variants < 60:
        m12, m23 = _random_pair(rng)
        composed = compose(m12, m23)
        if composed.so_tgd is None or not _feeds_joins_or_conditions(
            composed.so_tgd
        ):
            continue
        variants += 1
        for _ in range(2):
            source = _random_source(rng, m12)
            expected = execute_so_tgd(composed.so_tgd, source)
            assert set_equal_modulo_nulls(exchange(composed, source),
                                          expected), (
                f"{composed.so_tgd}\non {source.relations}"
            )
            invented += bool(expected.nulls())
    assert invented >= 50, invented  # 60 of the 120 at this seed


def test_every_resolver_call_equals_the_oracle(monkeypatch):
    """The resolver calls that Compose itself makes, on the design
    shapes (the 4-step chain, first-order, and the width-6 pair) and on
    seeded random pairs."""
    calls = []

    def checked(implication):
        resolved = _resolve_conditions(implication)
        assert resolved == _eager_resolve_conditions(implication), str(implication)
        calls.append(implication)
        return resolved

    monkeypatch.setattr(compose_module, "_resolve_conditions", checked)
    chain = synthetic.composition_chain_linear(4, relations=3)
    current = chain[0]
    for step in chain[1:]:
        current = compose(current, step)
    assert current.constraint_count() == 3
    compose(*synthetic.composition_pair_exponential(6), prefer_first_order=False)
    rng = random.Random(11)
    for _ in range(40):
        compose(*_random_pair(rng))
    assert len(calls) >= 100
