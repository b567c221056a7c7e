"""The semi-naive chase against the naive oracle, and its compiled
plans against the backtracking search.

Two differential properties:

* ``chase`` ≡ ``naive_chase``: same ``steps`` and results equal modulo
  labeled nulls, on chains, egd-heavy sets, mid-chain merges, joins and
  seeded random workloads;
* plans ≡ search: on the source and on the chased instance, every
  dependency's compiled plan yields the triggers of
  ``iter_homomorphisms`` in its order, over the whole instance and
  pinned to a delta (see ``tests/test_chase_plans.py``).
"""

import copy
import itertools
import random

import pytest

from repro.errors import ChaseNonTermination
from repro.instances import Instance, LabeledNull
from repro.instances.database import freeze_row
from repro.logic import chase, naive_chase, parse_egd, parse_tgd
from repro.logic.chase import (
    _fresh_factory,
    _SemiNaiveChase,
    compile_dependency,
)
from repro.logic.homomorphism import set_equal_modulo_nulls
from repro.workloads.synthetic import keyed_exchange

from tests.test_chase_plans import assert_plans_match_search


def _assert_matches_naive(db, deps, same_steps=True):
    """Chase ``db`` with both engines; results must be equal modulo
    nulls and (by default) take the same number of steps."""
    semi = chase(copy.deepcopy(db), deps)
    naive = naive_chase(copy.deepcopy(db), deps)
    assert set_equal_modulo_nulls(semi.instance, naive.instance), (
        f"diverged: {semi.instance.total_rows()} vs "
        f"{naive.instance.total_rows()} rows"
    )
    if same_steps:
        assert semi.steps == naive.steps
    return semi


def _assert_plans_match(db, deps):
    """One chase run, after checking that each dependency's compiled
    plan yields the backtracking search's triggers, in order, on the
    source and on the chased instance."""
    result = chase(copy.deepcopy(db), deps)
    for instance in (db, result.instance):
        assert_plans_match_search(instance, deps)
    return result


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _chain(rows=2000, stages=3, mod=7):
    db = Instance()
    db.insert_all("R0", [{"a": i, "b": i % mod} for i in range(rows)])
    deps = [
        parse_tgd(f"R{k}(a=x, b=y) -> R{k + 1}(a=x, b=y)")
        for k in range(stages)
    ]
    deps.reverse()  # worst-case ordering: every stage needs a round
    return db, deps


def _egd_heavy(rows=300, keys=30):
    db = Instance()
    db.insert_all("P", [{"k": i % keys, "v": i} for i in range(rows)])
    deps = [
        parse_tgd("P(k=x, v=v) -> Q(k=x, w=y)"),
        parse_egd("Q(k=x, w=y1) & Q(k=x, w=y2) -> y1 = y2"),
    ]
    return db, deps


def _midmerge(rows=400, keys=40):
    # Existentials minted mid-chain and checked by egds while the next
    # stage (a one-atom full tgd) is still firing.
    db = Instance()
    db.insert_all("A", [{"k": i % keys, "v": i} for i in range(rows)])
    deps = [
        parse_tgd("A(k=x, v=v) -> B(k=x, u=y)"),
        parse_tgd("B(k=x, u=y) -> C(k=x, u=y)"),
        parse_egd("B(k=x, u=y1) & B(k=x, u=y2) -> y1 = y2"),
        parse_egd("C(k=x, u=y1) & C(k=x, u=y2) -> y1 = y2"),
    ]
    return db, deps


def _join(rows=500, fan_in=1):
    # A join tgd feeding a one-atom full tgd; each joined L row
    # meets ``fan_in`` E rows.
    db = Instance()
    db.insert_all("E", [{"src": i, "dst": (i * 17) % (rows // fan_in)}
                        for i in range(rows)])
    db.insert_all("L", [{"node": i, "tag": i % 3} for i in range(rows)])
    deps = [
        parse_tgd("E(src=x, dst=y) & L(node=y, tag=t) -> M(node=x, tag=t)"),
        parse_tgd("M(node=x, tag=t) -> Out(node=x, tag=t)"),
    ]
    return db, deps


WORKLOADS = {
    "chain": _chain,
    "egd_heavy": _egd_heavy,
    "midmerge": _midmerge,
    "join": _join,
}


class TestDifferential:
    @pytest.mark.parametrize("stages", [2, 4, 8])
    def test_chain(self, stages):
        _assert_matches_naive(*_chain(stages=stages))

    @pytest.mark.parametrize("per_key", [2, 4, 8])
    def test_egd_heavy(self, per_key):
        _assert_matches_naive(*_egd_heavy(rows=30 * per_key, keys=30))

    @pytest.mark.parametrize("per_key", [2, 4, 8])
    def test_midmerge(self, per_key):
        _assert_matches_naive(*_midmerge(rows=40 * per_key, keys=40))

    @pytest.mark.parametrize("fan_in", [2, 4])
    def test_join(self, fan_in):
        _assert_matches_naive(*_join(fan_in=fan_in))

    @pytest.mark.parametrize("workload", ["chain", "join", "midmerge"])
    def test_lane_matches_generic(self, workload):
        # The fused lane and the generic path are one path now: its
        # compiled plans must match the backtracking search.
        _assert_plans_match(*WORKLOADS[workload]())

    def test_budget_is_exact(self):
        db, deps = _chain(rows=500, stages=2)
        assert chase(db, deps, max_steps=1000).steps == 1000
        with pytest.raises(ChaseNonTermination):
            chase(db, deps, max_steps=999)


def _random_workload(rng, rows, stages):
    """A copy chain S0 → S1 → … over ``rows`` source rows with uniform
    or skewed keys; each stage is a full copy or, with probability 0.3,
    an existential copy plus a key egd on its output, and the
    dependencies come shuffled."""
    keyspace = rng.choice([5, 17, rows])
    skewed = rng.random() < 0.5
    db = Instance()
    for i in range(rows):
        if skewed:
            # ~half the rows pile onto key 0.
            k = 0 if rng.random() < 0.5 else rng.randrange(keyspace)
        else:
            k = rng.randrange(keyspace)
        db.insert("S0", {"a": k, "b": i})
    deps = []
    for s in range(stages):
        if rng.random() < 0.3:
            deps.append(parse_tgd(
                f"S{s}(a=x, b=y) -> S{s + 1}(a=x, c=z)"
            ))
            deps.append(parse_egd(
                f"S{s + 1}(a=x, c=z1) & S{s + 1}(a=x, c=z2) -> z1 = z2"
            ))
        else:
            deps.append(parse_tgd(
                f"S{s}(a=x, b=y) -> S{s + 1}(a=x, b=y)"
            ))
    rng.shuffle(deps)
    return db, deps


class TestRandomizedDifferential:
    """Randomized workloads: uniform and skewed key distributions,
    random chain shapes, optional existentials and egds."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 99, 5, 11, 42, 64, 77,
                                      128, 256, 1000])
    def test_random_workload(self, seed):
        rng = random.Random(seed)
        stages = rng.randint(2, 4)
        db, deps = _random_workload(rng, rng.randint(200, 800), stages)
        _assert_matches_naive(db, deps)
        _assert_plans_match(db, deps)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_ordering(self, seed):
        # Each plan reads the rows past its own mark, so the order the
        # dependencies are listed in decides which rows a plan meets in
        # which round; every order must reach the naive result.
        rng = random.Random(seed)
        db, deps = _random_workload(rng, rng.randint(12, 30), 3)
        while len(deps) > 4:  # at most 24 orderings
            deps.pop()
        for order in itertools.permutations(deps):
            _assert_matches_naive(db, list(order))


# ----------------------------------------------------------------------
# one-atom full tgds (the shapes of the former fused lane)
# ----------------------------------------------------------------------
class TestFullTGDLane:
    def test_lane_selection(self):
        # The shapes of an exchange mapping.  The fused lane took only
        # one-atom full tgds with heads on distinct relations; now every
        # shape compiles to one plan, a one-atom full tgd to a one-step
        # plan whose head atoms are all projection probes — two head
        # atoms on one relation included.
        one_step = [
            "Sale(oid=o, name=n) -> Audit(oid=o)",
            "B(eid=e, office=f) -> Assign(eid=e, office=f)",
            "Assign(eid=e, office=f) -> Room(office=f)",
            "R(a=x, b=y) -> S(a=x, b=y) & S(a=y, b=x)",
        ]
        for text in one_step:
            plan = compile_dependency(parse_tgd(text))
            assert len(plan.variant((0,), False)[0]) == 1
            assert all(isinstance(probe, tuple) for probe in plan.probes)
        join = compile_dependency(parse_tgd(
            "Ord(oid=o, cust=c) & Cust(cid=c, name=n) -> Sale(oid=o, name=n)"
        ))
        assert len(join.variant((1, 0), False)[0]) == 2
        for text in ["Cust(cid=c, name=n) -> Client(cid=c, name=n, tier=t)",
                     "A(eid=e) -> Assign(eid=e, office=o)"]:
            plan = compile_dependency(parse_tgd(text))
            assert plan.kind == "tgd∃"
            assert not isinstance(plan.probes[0], tuple)
        # A function term in a head is a cell memoized on its arguments
        # for the run: equal arguments meet one null, across dependencies.
        skolem = parse_tgd("R(a=x) -> S(a=f(x))")
        plan = compile_dependency(skolem)
        assert plan.kind == "tgd∃" and plan.skolems
        assert all(isinstance(probe, tuple) for probe in plan.probes)
        db = Instance()
        db.insert_all("R", [{"a": 1}, {"a": 2}, {"a": 1}])
        result = chase(db, [skolem, parse_tgd("R(a=x) -> U(a=x, b=f(x))")])
        nulls = [row["a"] for row in result.instance.rows("S")]
        assert len(set(nulls)) == len(nulls) == 2 and result.steps == 4
        assert all(isinstance(null, LabeledNull) for null in nulls)
        assert [(row["a"], row["b"]) for row in result.instance.rows("U")] == [
            (1, nulls[0]), (2, nulls[1])
        ]
        egd = parse_egd("Assign(eid=e, office=f) & Assign(eid=e, office=g) "
                        "-> f = g")
        assert compile_dependency(egd).group is not None

    def test_row_missing_body_attribute(self):
        db = Instance()
        db.insert_all("R", [{"a": 1, "b": 2}, {"a": 3}, {"b": 4}])
        deps = [parse_tgd("R(a=x, b=y) -> S(a=x, b=y)")]
        result = _assert_plans_match(db, deps)
        assert result.steps == 1
        assert result.instance.rows("S") == [{"a": 1, "b": 2}]
        _assert_matches_naive(db, deps)

    def test_body_constant(self):
        db = Instance()
        db.insert_all("R", [{"a": i, "kind": "x" if i % 2 else "y"}
                            for i in range(10)])
        deps = [parse_tgd("R(a=x, kind='x') -> S(a=x)")]
        result = _assert_plans_match(db, deps)
        assert sorted(r["a"] for r in result.instance.rows("S")) == [
            1, 3, 5, 7, 9
        ]
        _assert_matches_naive(db, deps)

    def test_repeated_body_variable(self):
        db = Instance()
        db.insert_all("R", [{"a": i, "b": i % 3} for i in range(9)])
        deps = [parse_tgd("R(a=x, b=x) -> S(a=x)")]
        result = _assert_plans_match(db, deps)
        assert sorted(r["a"] for r in result.instance.rows("S")) == [0, 1, 2]
        _assert_matches_naive(db, deps)

    def test_labeled_null_in_frontier(self):
        db = Instance()
        n1, n2 = LabeledNull(1), LabeledNull(2)
        db.insert_all("R", [{"a": n1, "b": 1}, {"a": n1, "b": 1},
                            {"a": n2, "b": 1}, {"a": 5, "b": n2}])
        deps = [parse_tgd("R(a=x, b=y) -> S(a=x, b=y)")]
        result = _assert_plans_match(db, deps)
        assert result.steps == 3
        assert {freeze_row(r) for r in result.instance.rows("S")} == {
            freeze_row(r) for r in db.rows("R")
        }
        _assert_matches_naive(db, deps)

    def test_constant_in_head(self):
        db = Instance()
        db.insert_all("R", [{"a": i} for i in range(5)])
        db.insert("S", {"a": 2, "tag": "t"})  # already satisfied
        deps = [parse_tgd("R(a=x) -> S(a=x, tag='t')")]
        result = _assert_plans_match(db, deps)
        assert result.steps == 4
        assert all(r["tag"] == "t" for r in result.instance.rows("S"))
        _assert_matches_naive(db, deps)

    @pytest.mark.parametrize("tgd", [
        "R(a=x, b=y) -> S(a=x) & T(b=y)",
        "R(a=x, b=y) -> S(a=x, b=y) & T(a=y, tag='k')",
        "R(a=x, b=y) -> R(a=y, b=x) & S(a=x)",
    ])
    def test_multi_atom_head(self, tgd):
        db = Instance()
        db.insert_all("R", [{"a": i % 4, "b": (i * 3) % 5}
                            for i in range(20)])
        db.insert("S", {"a": 2})  # satisfies one head atom, not both
        deps = [parse_tgd(tgd)]
        _assert_plans_match(db, deps)
        _assert_matches_naive(db, deps)

    @pytest.mark.parametrize("tgd, steps, rounds", [
        ("R(a=x, b=y) -> R(a=y, b=x)", 6, 2),
        # (10, 'k'), derived in round 0, fires ('k', 'k') in round 1.
        ("R(a=x, b=y) -> R(a=y, b='k')", 7, 3),
    ])
    def test_head_relation_is_body_relation(self, tgd, steps, rounds):
        # Round 0 scans R while firing into R: rows derived in the
        # loop must wait for the next round.
        db = Instance()
        db.insert_all("R", [{"a": i, "b": i + 10} for i in range(6)])
        deps = [parse_tgd(tgd)]
        result = _assert_plans_match(db, deps)
        assert result.steps == steps
        assert result.stats.rounds == rounds
        _assert_matches_naive(db, deps)

    def test_egd_merge_between_rounds(self):
        # Round 0 mints B(1, ⊥) and copies it into D;
        # the egd merges ⊥ into 'c' at the round barrier, rewriting the
        # D row and resetting the frontier memos before round 1 re-scans
        # the rewritten B rows.
        db = Instance()
        db.insert("A", {"k": 1})
        db.insert("C", {"k": 1, "u": "c"})
        deps = [
            parse_tgd("A(k=x) -> B(k=x, u=y)"),
            parse_tgd("C(k=x, u=v) -> B(k=x, u=v)"),
            parse_egd("B(k=x, u=y1) & B(k=x, u=y2) -> y1 = y2"),
            parse_tgd("B(k=x, u=y) -> D(k=x, u=y)"),
        ]
        result = _assert_plans_match(db, deps)
        assert result.stats.merges == 1
        assert {freeze_row(r) for r in result.instance.rows("D")} == {
            freeze_row({"k": 1, "u": "c"})
        }
        _assert_matches_naive(db, deps, same_steps=False)

    def test_budget_runs_out_inside_lane(self):
        db, deps = _chain(rows=500, stages=1)
        working = copy.deepcopy(db)
        engine = _SemiNaiveChase(working, deps, _fresh_factory(working), 100)
        with pytest.raises(ChaseNonTermination):
            engine.run()
        assert engine.steps == 100
        assert len(working.rows("R1")) == 100


# ----------------------------------------------------------------------
# each row read once per plan
# ----------------------------------------------------------------------
class TestReadOncePerPlan:
    def test_keyed_target_tgd_examines_what_it_fires(self):
        # Sale → Audit runs after the join that fills Sale, in the same
        # round: it reads each Sale row once, and each fires.
        db, deps = keyed_exchange(250)
        result = _assert_matches_naive(db, deps)
        name = "Sale(oid=o, name=n) -> Audit(oid=o)"
        assert result.stats.triggers_examined[name] == result.fired[name]
        assert result.fired[name] == 140

    def test_merge_rewrites_a_row_already_read(self):
        # The join, listed before the egd, reads B(1, 7, ⊥) in round 0,
        # when it meets no P row.  The merge rewrites it to
        # B(1, 7, 'c') at the round's end; the join reads it again in
        # round 1, and only then does Hit(7) fire.
        db = Instance()
        db.insert("A", {"k": 1, "t": 7})
        db.insert("C", {"k": 1, "u": "c"})
        db.insert("P", {"u": "c"})
        join = parse_tgd("B(k=x, t=t, u=y) & P(u=y) -> Hit(t=t)")
        deps = [
            parse_tgd("A(k=x, t=t) -> B(k=x, t=t, u=y)"),
            parse_tgd("C(k=x, u=v) -> B(k=x, t=0, u=v)"),
            join,
            parse_egd("B(k=x, t=a, u=y1) & B(k=x, t=b, u=y2) -> y1 = y2"),
        ]
        result = _assert_matches_naive(db, deps)
        assert result.stats.merges == 1
        assert sorted(row["t"] for row in result.instance.rows("Hit")) == [
            0, 7]
        # One trigger in each round: B(1, 0, 'c') ⋈ P('c'), then the
        # rewritten row's.
        assert result.stats.triggers_examined[str(join)[:60]] == 2
        assert result.stats.rounds == 3

    def test_existential_witness_fired_in_the_same_call(self):
        # (1, 2)'s head holds only on rows this call fired: S(1, ⊥)
        # from (1, 1) and T(2) from (2, 2).  The S postings are fetched
        # at the first lookup, before either firing, so only the
        # overlay of fired rows finds S(1, ⊥).
        db = Instance()
        db.insert_all("R", [{"a": 1, "b": 1}, {"a": 2, "b": 2},
                            {"a": 1, "b": 2}])
        db.insert("S", {"a": 9, "c": 9})
        deps = [parse_tgd("R(a=x, b=y) -> S(a=x, c=z) & T(b=y)")]
        result = _assert_matches_naive(db, deps)
        assert result.steps == 2
        _assert_plans_match(db, deps)
