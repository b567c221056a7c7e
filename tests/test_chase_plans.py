"""Compiled chase plans against the backtracking search, and key egds
as a hash group-by against the naive oracle.

* a compiled body plan enumerates exactly the triggers of
  ``iter_homomorphisms``, in its order, in round 0, pinned to a delta
  and with variables preset (``partial=``) — on seeded random bodies
  with constants, repeated variables, self-joins, rows lacking
  attributes and mixed value types, presets included;
* a key egd ``R(K, Ȳ₁) & R(K, Ȳ₂) → Ȳ₁ = Ȳ₂`` takes the group-by and
  matches ``naive_chase`` (same steps, results equal modulo nulls,
  same failures); egds outside that shape take the compiled plan;
* a head whose existential spans atoms keeps the homomorphism check.
"""

import copy
import random

import pytest

from repro.errors import ChaseFailure, ChaseNonTermination
from repro.instances import Instance, LabeledNull
from repro.instances.database import hashable_key
from repro.logic import EGD, chase, naive_chase, parse_egd, parse_tgd
from repro.logic.chase import (
    ChaseRecorder,
    _fresh_factory,
    _SemiNaiveChase,
    _UnionFind,
    bindings,
    compile_dependency,
    triggers,
)
from repro.logic.dependencies import key_egd
from repro.logic.formulas import Atom
from repro.logic.homomorphism import iter_homomorphisms
from repro.logic.terms import Const, Var
from repro.logic.homomorphism import set_equal_modulo_nulls


def _typed(value):
    """A comparison key that tells 1, True and 1.0 apart."""
    return (type(value).__name__, hashable_key(value))


def plan_triggers(instance, dependency, pin=None, delta=None, partial=None):
    """The compiled plan's triggers as typed ``{variable: value}``
    lists, in enumeration order: all of them, those with one atom
    pinned or some variables preset, or a delta round's."""
    plan = compile_dependency(dependency)
    found = (bindings(plan, instance, pin, partial) if delta is None
             else triggers(plan, instance, delta))
    return [
        {var: _typed(value) for var, value in zip(plan.variables, binding)}
        for binding in found
    ]


def search_triggers(instance, dependency, pin=None, delta=None, partial=None):
    """The same from ``iter_homomorphisms``; a delta round pins each
    atom in turn and keeps each distinct assignment once (a one-atom
    body: once per delta row)."""
    body = dependency.body
    pins = [pin] if delta is None else [
        (position, delta[atom.relation])
        for position, atom in enumerate(body) if delta.get(atom.relation)
    ]
    found, seen = [], set()
    for each in pins:
        for assignment in iter_homomorphisms(body, instance, partial=partial,
                                             pinned=each):
            key = tuple(hashable_key(value) for _, value in
                        sorted(assignment.items(), key=lambda i: i[0].name))
            if delta is not None and len(body) > 1 and key in seen:
                continue
            seen.add(key)
            found.append({var: _typed(value)
                          for var, value in assignment.items()})
    return found


def assert_plans_match_search(instance, dependencies, rng=None):
    """Every dependency's plan yields the backtracking search's
    triggers as an ordered list: over the whole instance, with each
    body atom pinned to (a sample of) its relation's rows, and in a
    delta round over such samples."""
    rng = rng or random.Random(0)
    for dependency in dependencies:
        assert plan_triggers(instance, dependency) == search_triggers(
            instance, dependency
        ), dependency
        delta = {}
        for position, atom in enumerate(dependency.body):
            rows = list(instance.rows(atom.relation))
            pin = (position, rng.sample(rows, (len(rows) + 1) // 2))
            delta.setdefault(atom.relation, pin[1])
            assert plan_triggers(instance, dependency, pin) == (
                search_triggers(instance, dependency, pin)
            ), (dependency, position)
        assert plan_triggers(instance, dependency, delta=delta) == (
            search_triggers(instance, dependency, delta=delta)
        ), dependency
        for partial in presets(instance, dependency, rng):
            assert plan_triggers(instance, dependency, partial=partial) == (
                search_triggers(instance, dependency, partial=partial)
            ), (dependency, partial)


def presets(instance, dependency, rng, count=3):
    """Partial assignments of ``dependency``'s body variables: values
    of a trigger the search finds (when there is one), then values
    drawn from ``_VALUES`` — labeled nulls and 1/True/1.0 included."""
    variables = sorted(set().union(*(a.variables() for a in dependency.body)),
                       key=lambda var: var.name)
    if not variables:
        return []
    found = list(iter_homomorphisms(dependency.body, instance))
    result = []
    for n in range(count):
        chosen = rng.sample(variables, rng.randint(1, len(variables)))
        if n == 0 and found:
            trigger = rng.choice(found)
            result.append({var: trigger[var] for var in chosen})
        else:
            result.append({var: rng.choice(_VALUES) for var in chosen})
    return result


def assert_matches_naive(db, deps, max_steps=100_000):
    semi = chase(copy.deepcopy(db), deps, max_steps=max_steps)
    naive = naive_chase(copy.deepcopy(db), deps, max_steps=max_steps)
    assert set_equal_modulo_nulls(semi.instance, naive.instance)
    assert semi.steps == naive.steps
    return semi


# ----------------------------------------------------------------------
# compiled plans ≡ the backtracking search
# ----------------------------------------------------------------------
#: One column holds 1, True and 1.0, which compare (and hash) equal.
_VALUES = [0, 1, True, 1.0, 2, 2.5, False, "a", "b", None,
           LabeledNull(900), LabeledNull(901)]
_ATTRS = ("a", "b", "c")


def _random_instance(rng):
    db = Instance()
    for relation in ("R", "S"):
        for _ in range(rng.randint(0, 14)):
            db.insert(relation, {
                attr: rng.choice(_VALUES)
                for attr in _ATTRS if rng.random() < 0.85
            })
    return db


def _random_body(rng):
    names = [Var("x"), Var("y"), Var("z"), Var("w")]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        args = []
        for attr in rng.sample(_ATTRS, rng.randint(1, 3)):
            if rng.random() < 0.2:
                args.append((attr, Const(rng.choice(_VALUES[:10]))))
            else:
                args.append((attr, rng.choice(names[:rng.randint(1, 4)])))
        atoms.append(Atom(rng.choice("RS"), tuple(args)))
    return tuple(atoms)


class TestPlansMatchSearch:
    @pytest.mark.parametrize("seed", range(90))
    def test_random_bodies(self, seed):
        rng = random.Random(seed)
        db = _random_instance(rng)
        bodies = [_random_body(rng) for _ in range(6)]
        deps = [EGD(body=body) for body in bodies]
        assert_plans_match_search(db, deps, rng)

    def test_self_join_with_repeats_and_constants(self):
        db = Instance()
        db.insert_all("R", [
            {"a": 1, "b": 1}, {"a": True, "b": 1.0}, {"a": 1.0, "b": 2},
            {"a": 2, "b": "x"}, {"b": 1}, {"a": None, "b": None},
            {"a": LabeledNull(7), "b": LabeledNull(7)},
        ])
        deps = [
            parse_egd("R(a=x, b=x) & R(a=x, b=y) -> x = y"),
            parse_egd("R(a=x, b=1) & R(a=y, b=x) & R(b=y) -> x = y"),
            parse_egd("R(a=x) & R(b=x) -> x = x"),
        ]
        assert_plans_match_search(db, deps)

    def test_plans_compile_once(self):
        tgd = parse_tgd("R(a=x, b=y) & S(b=y, c=z) -> T(a=x, c=z)")
        assert compile_dependency(tgd) is compile_dependency(
            parse_tgd("R(a=x, b=y) & S(b=y, c=z) -> T(a=x, c=z)")
        )

    def test_plans_with_constants_compile_once(self):
        # Certain answers build a fresh tgd per query call; one with a
        # constant, in a function term too, reuses the cached plan.
        text = "R(a=x, b=1) -> S(a=x, c=f(x, \"k\"), d=2.5)"
        assert compile_dependency(parse_tgd(text)) is compile_dependency(
            parse_tgd(text)
        )
        one = parse_tgd("R(a=x) -> S(a=x, c=f(x, 1))")
        true = parse_tgd("R(a=x) -> S(a=x, c=f(x, true))")
        assert one == true
        assert compile_dependency(one) is not compile_dependency(true)

    def test_equal_constants_of_other_types_are_kept_apart(self):
        # Const(1) == Const(True): the compile cache must not hand one
        # dependency's head constant to the other.
        one = parse_tgd("R(a=x) -> S(a=x, b=1)")
        true = parse_tgd("R(a=x) -> S(a=x, b=true)")
        assert one == true
        db = Instance()
        db.insert("R", {"a": 5})
        for dependency, value in ((one, 1), (true, True)):
            [row] = chase(db, [dependency]).instance.rows("S")
            assert type(row["b"]) is type(value)


class TestHeadChecks:
    def test_existential_spanning_head_atoms(self):
        tgd = parse_tgd("R(a=x) -> S(a=x, b=y) & T(b=y)")
        assert compile_dependency(tgd).probes is None
        db = Instance()
        db.insert_all("R", [{"a": i} for i in range(6)])
        n = LabeledNull(50)
        db.insert_all("S", [{"a": 1, "b": n}, {"a": 2, "b": "k"},
                            {"a": 3, "b": "m"}])
        db.insert_all("T", [{"b": n}, {"b": "k"}])
        result = assert_matches_naive(db, [tgd])
        assert result.steps == 4  # a = 1 and a = 2 are satisfied

    def test_existential_per_atom_is_checked_atom_by_atom(self):
        tgd = parse_tgd("R(a=x, b=y) -> S(a=x, c=e, d=e) & T(b=y)")
        plan = compile_dependency(tgd)
        assert plan.probes is not None and not isinstance(
            plan.probes[0], tuple
        )
        db = Instance()
        db.insert_all("R", [{"a": i % 3, "b": i % 2} for i in range(8)])
        db.insert_all("S", [{"a": 0, "c": 1, "d": 1}, {"a": 1, "c": 1}])
        db.insert("T", {"b": 0})
        assert_matches_naive(db, [tgd])


# ----------------------------------------------------------------------
# key egds as a hash group-by
# ----------------------------------------------------------------------
class _Unions(ChaseRecorder):
    def __init__(self):
        self.events = []

    def on_egd_union(self, dep_index, egd, body_key, left, right):
        self.events.append((body_key, left, right))


def search_unions(instance, egd, delta=None):
    """The backtracking self-join's trigger count (distinct assignments
    when pinned to ``delta``) and its successful unions, in order."""
    union_find, events, seen, count = _UnionFind(), [], set(), 0
    pins = [None] if delta is None else [(0, delta), (1, delta)]
    for pin in pins:
        for assignment in iter_homomorphisms(egd.body, instance, pinned=pin):
            key = tuple(hashable_key(assignment[var]) for var in
                        sorted(assignment, key=lambda var: var.name))
            if pin is not None and key in seen:
                continue
            seen.add(key)
            count += 1
            for equality in egd.equalities:
                left = assignment[equality.left]
                right = assignment[equality.right]
                if left != right and union_find.union(left, right, ""):
                    events.append((key, left, right))
    return count, events


def group_unions(instance, egd, delta=None):
    """The same for the engine's group-by."""
    recorder = _Unions()
    engine = _SemiNaiveChase(instance, [egd], _fresh_factory(instance),
                             10 ** 6, recorder=recorder)
    examined, _ = engine._collect_egd(
        0, engine.plans[0], None if delta is None else {"K": delta},
        _UnionFind(),
    )
    return examined, recorder.events


class TestKeyEgd:
    @pytest.mark.parametrize("seed", range(10))
    def test_group_by_makes_the_self_joins_unions(self, seed):
        rng = random.Random(seed)
        db = Instance()
        for _ in range(rng.randint(4, 40)):
            row = {"a": rng.randrange(4), "b": rng.choice([0, 1, True, 1.0]),
                   "c": rng.choice(["x", *map(LabeledNull, range(12))]),
                   "d": LabeledNull(rng.randrange(100, 130))}
            db.insert("K", {attr: value for attr, value in row.items()
                            if rng.random() < 0.95})
        egd = key_egd("K", ["a", "b"], ["a", "b", "c", "d"])
        assert compile_dependency(egd).group is not None
        assert group_unions(db, egd) == search_unions(db, egd)
        rows = list(db.rows("K"))
        delta = rng.sample(rows, rng.randint(1, len(rows)))
        assert group_unions(db, egd, delta) == search_unions(db, egd, delta)
    def test_two_attribute_key_two_dependents(self):
        egd = key_egd("K", ["a", "b"], ["a", "b", "c", "d"])
        assert compile_dependency(egd).group is not None
        db = Instance()
        for i in range(60):
            db.insert("K", {
                "a": i % 4, "b": i % 3,
                "c": LabeledNull(i) if i % 5 else i % 4,
                "d": LabeledNull(100 + i),
            })
        copy_out = parse_tgd("K(a=x, b=y, c=u, d=v) -> L(a=x, c=u)")
        assert_matches_naive(db, [egd])
        assert_matches_naive(db, [copy_out, egd])

    @pytest.mark.parametrize("values", [
        ["x", "y"],                       # direct
        [LabeledNull(1), "x", "y"],       # through a null
        ["x", LabeledNull(1), LabeledNull(2), "y"],
    ])
    def test_constant_conflict_fails(self, values):
        db = Instance()
        db.insert_all("K", [{"a": 1, "c": v} for v in values])
        db.insert("K", {"a": 2, "c": "z"})
        egd = key_egd("K", ["a"], ["a", "c"])
        for engine in (chase, naive_chase):
            with pytest.raises(ChaseFailure):
                engine(copy.deepcopy(db), [egd])

    def test_rows_lacking_a_body_attribute(self):
        db = Instance()
        db.insert_all("K", [
            {"a": 1, "c": LabeledNull(1)}, {"a": 1}, {"c": LabeledNull(2)},
            {"a": 1, "c": LabeledNull(3)}, {"a": 2, "c": "x"},
            {"a": 2, "c": LabeledNull(4), "extra": 0},
        ])
        result = assert_matches_naive(db, [key_egd("K", ["a"], ["a", "c"])])
        assert result.steps == 2

    def test_same_constant_in_both_atoms(self):
        egd = parse_egd("K(a=x, t='p', c=y) & K(a=x, t='p', c=z) -> y = z")
        assert compile_dependency(egd).group is not None
        db = Instance()
        db.insert_all("K", [
            {"a": i % 3, "t": "p" if i % 2 else "q", "c": LabeledNull(i)}
            for i in range(12)
        ])
        result = assert_matches_naive(db, [egd])
        assert result.steps == 3

    def test_budget_runs_out_inside_a_group(self):
        db = Instance()
        db.insert_all("K", [{"a": i % 2, "c": LabeledNull(i)}
                            for i in range(20)])
        egd = key_egd("K", ["a"], ["a", "c"])
        assert chase(copy.deepcopy(db), [egd]).steps == 18
        working = copy.deepcopy(db)
        engine = _SemiNaiveChase(working, [egd], _fresh_factory(working), 7)
        with pytest.raises(ChaseNonTermination):
            engine.run()
        assert engine.steps == 7
        with pytest.raises(ChaseNonTermination):
            naive_chase(copy.deepcopy(db), [egd], max_steps=7)

    @pytest.mark.parametrize("text", [
        "K(a=x, c=y) & L(a=x, c=z) -> y = z",       # two relations
        "K(a=x, c=y) -> y = 'x'",                   # equality to a constant
        "K(a=x, c=y) & K(a=x, c=z) -> x = y",       # key variable equated
    ])
    def test_other_egds_take_the_plan(self, text):
        egd = parse_egd(text)
        assert compile_dependency(egd).group is None
        db = Instance()
        db.insert_all("K", [{"a": i % 3, "c": LabeledNull(i)}
                            for i in range(9)])
        db.insert_all("L", [{"a": i % 3, "c": LabeledNull(20 + i)}
                            for i in range(4)])
        assert_matches_naive(db, [egd])

    def test_union_events_name_live_rows_agreeing_on_the_key(self):
        class Unions(ChaseRecorder):
            def __init__(self):
                self.keys = []

            def on_egd_union(self, dep_index, egd, body_key, left, right):
                self.keys.append(body_key)

        db = Instance()
        db.insert_all("A", [{"e": i} for i in range(12)])
        db.insert_all("B", [{"e": i, "o": f"o{i % 3}"} for i in range(0, 12, 2)])
        deps = [
            parse_tgd("A(e=e) -> Asg(e=e, o=o)"),
            parse_tgd("B(e=e, o=f) -> Asg(e=e, o=f)"),
            parse_egd("Asg(e=e, o=f) & Asg(e=e, o=g) -> f = g"),
        ]
        recorder = Unions()
        working = copy.deepcopy(db)
        engine = _SemiNaiveChase(working, deps, _fresh_factory(working),
                                 100_000, recorder=recorder)
        # Snapshot the rows before each round's merges rewrite them.
        snapshots = []
        apply_merges = engine._apply_merges

        def snapshot_then_merge(union_find):
            snapshots.append([dict(row) for row in working.rows("Asg")])
            return apply_merges(union_find)

        engine._apply_merges = snapshot_then_merge
        engine.run()
        plan = engine.plans[2]
        assert plan.group is not None and len(recorder.keys) == 6
        live = {
            tuple(hashable_key(row[a]) for a in ("e", "o"))
            for rows in snapshots for row in rows
        }
        for key in recorder.keys:
            values = dict(zip([v.name for v in plan.variables], key))
            assert (values["e"], values["f"]) in live
            assert (values["e"], values["g"]) in live
