"""The semi-naive chase against the naive oracle, and its fused
full-tgd lane against the generic trigger path.

Two differential properties:

* ``chase`` ≡ ``naive_chase``: same ``steps`` and results equal modulo
  labeled nulls, on chains, egd-heavy sets, mid-chain merges, joins and
  seeded random workloads;
* lane ≡ generic path: with every single-body-atom full tgd forced
  onto the generic path, the engine must take the same steps, store the
  same rows in the same order and hand the recorder the same events.
"""

import copy
import random

import pytest

from repro.errors import ChaseNonTermination
from repro.instances import Instance, LabeledNull
from repro.instances.database import freeze_row
from repro.logic import chase, naive_chase, parse_egd, parse_tgd
from repro.logic.chase import (
    ChaseRecorder,
    _FullTGDLane,
    _fresh_factory,
    _SemiNaiveChase,
)
from repro.runtime.incremental import set_equal_modulo_nulls


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


class _Log(ChaseRecorder):
    def __init__(self):
        self.events = []

    def on_tgd_fire(self, dep_index, tgd, frontier_key, frontier_items,
                    rows):
        self.events.append((
            "fire", dep_index, frontier_key, tuple(frontier_items),
            tuple((relation, freeze_row(row)) for relation, row in rows),
        ))

    def on_egd_union(self, dep_index, egd, body_key, left, right):
        self.events.append(("union", dep_index, body_key, left, right))

    def on_substitution(self, positions):
        self.events.append(("subst", tuple(
            (relation, attr, null, value)
            for relation, _row, attr, null, value in positions
        )))


def _run(db, deps, lanes=True, max_steps=100_000):
    """One engine run over a copy of ``db``; ``lanes=False`` forces
    every dependency onto the generic trigger path."""
    working = copy.deepcopy(db)
    log = _Log()
    engine = _SemiNaiveChase(working, deps, _fresh_factory(working),
                             max_steps, recorder=log)
    if not lanes:
        engine.lanes = [None] * len(deps)
    result = engine.run()
    rows = {
        relation: [freeze_row(row) for row in result.instance.rows(relation)]
        for relation in result.instance.relations
    }
    return result, rows, log.events


def _assert_lane_matches_generic(db, deps):
    """The lane must be an exact drop-in for the generic path."""
    fast, fast_rows, fast_events = _run(db, deps)
    slow, slow_rows, slow_events = _run(db, deps, lanes=False)
    assert fast.steps == slow.steps
    assert fast.fired == slow.fired
    assert fast.stats.delta_sizes == slow.stats.delta_sizes
    assert fast_rows == slow_rows
    assert fast_events == slow_events
    return fast


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
    # stage (a lane tgd) is still firing.
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
    # A join tgd (generic path) feeding a lane tgd; each joined L row
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
        db, deps = WORKLOADS[workload]()
        assert any(_FullTGDLane.compile(d) is not None for d in deps)
        _assert_lane_matches_generic(db, deps)

    def test_budget_is_exact(self):
        db, deps = _chain(rows=500, stages=2)
        assert chase(db, deps, max_steps=1000).steps == 1000
        with pytest.raises(ChaseNonTermination):
            chase(db, deps, max_steps=999)


class TestRandomizedDifferential:
    """Randomized workloads: uniform and skewed key distributions,
    random chain shapes, optional existentials and egds."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 99, 5, 11, 42, 64, 77,
                                      128, 256, 1000])
    def test_random_workload(self, seed):
        rng = random.Random(seed)
        stages = rng.randint(2, 4)
        rows = rng.randint(200, 800)
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
        _assert_matches_naive(db, deps)
        _assert_lane_matches_generic(db, deps)


# ----------------------------------------------------------------------
# fused lane edge cases
# ----------------------------------------------------------------------
class TestFullTGDLane:
    def test_lane_selection(self):
        # The shapes of an exchange mapping: only single-body-atom full
        # tgds without function terms, heads on distinct relations,
        # take the lane.
        lane = [
            "Sale(oid=o, name=n) -> Audit(oid=o)",
            "B(eid=e, office=f) -> Assign(eid=e, office=f)",
            "Assign(eid=e, office=f) -> Room(office=f)",
        ]
        generic = [
            "Ord(oid=o, cust=c) & Cust(cid=c, name=n) -> Sale(oid=o, name=n)",
            "Cust(cid=c, name=n) -> Client(cid=c, name=n, tier=t)",
            "A(eid=e) -> Assign(eid=e, office=o)",
            "R(a=x) -> S(a=f(x))",
            # Two head atoms on one relation: a row built for one atom
            # could satisfy the other's probe.
            "R(a=x, b=y) -> S(a=x, b=y) & S(a=y, b=x)",
        ]
        assert all(_FullTGDLane.compile(parse_tgd(t)) for t in lane)
        assert not any(_FullTGDLane.compile(parse_tgd(t)) for t in generic)
        egd = parse_egd("Assign(eid=e, office=f) & Assign(eid=e, office=g) "
                        "-> f = g")
        assert _FullTGDLane.compile(egd) is None

    def test_row_missing_body_attribute(self):
        db = Instance()
        db.insert_all("R", [{"a": 1, "b": 2}, {"a": 3}, {"b": 4}])
        deps = [parse_tgd("R(a=x, b=y) -> S(a=x, b=y)")]
        result = _assert_lane_matches_generic(db, deps)
        assert result.steps == 1
        assert result.instance.rows("S") == [{"a": 1, "b": 2}]
        _assert_matches_naive(db, deps)

    def test_body_constant(self):
        db = Instance()
        db.insert_all("R", [{"a": i, "kind": "x" if i % 2 else "y"}
                            for i in range(10)])
        deps = [parse_tgd("R(a=x, kind='x') -> S(a=x)")]
        result = _assert_lane_matches_generic(db, deps)
        assert sorted(r["a"] for r in result.instance.rows("S")) == [
            1, 3, 5, 7, 9
        ]
        _assert_matches_naive(db, deps)

    def test_repeated_body_variable(self):
        db = Instance()
        db.insert_all("R", [{"a": i, "b": i % 3} for i in range(9)])
        deps = [parse_tgd("R(a=x, b=x) -> S(a=x)")]
        result = _assert_lane_matches_generic(db, deps)
        assert sorted(r["a"] for r in result.instance.rows("S")) == [0, 1, 2]
        _assert_matches_naive(db, deps)

    def test_labeled_null_in_frontier(self):
        db = Instance()
        n1, n2 = LabeledNull(1), LabeledNull(2)
        db.insert_all("R", [{"a": n1, "b": 1}, {"a": n1, "b": 1},
                            {"a": n2, "b": 1}, {"a": 5, "b": n2}])
        deps = [parse_tgd("R(a=x, b=y) -> S(a=x, b=y)")]
        result = _assert_lane_matches_generic(db, deps)
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
        result = _assert_lane_matches_generic(db, deps)
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
        assert _FullTGDLane.compile(deps[0]) is not None
        _assert_lane_matches_generic(db, deps)
        _assert_matches_naive(db, deps)

    @pytest.mark.parametrize("tgd, steps, rounds", [
        ("R(a=x, b=y) -> R(a=y, b=x)", 6, 2),
        # (10, 'k'), derived in round 0, fires ('k', 'k') in round 1.
        ("R(a=x, b=y) -> R(a=y, b='k')", 7, 3),
    ])
    def test_head_relation_is_body_relation(self, tgd, steps, rounds):
        # Round 0 scans R while firing into R: rows derived in the
        # loop must wait for the next round, as with the generic path.
        db = Instance()
        db.insert_all("R", [{"a": i, "b": i + 10} for i in range(6)])
        deps = [parse_tgd(tgd)]
        result = _assert_lane_matches_generic(db, deps)
        assert result.steps == steps
        assert result.stats.rounds == rounds
        _assert_matches_naive(db, deps)

    def test_egd_merge_between_rounds(self):
        # Round 0 mints B(1, ⊥) and copies it into D through the lane;
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
        result = _assert_lane_matches_generic(db, deps)
        assert result.stats.merges == 1
        assert {freeze_row(r) for r in result.instance.rows("D")} == {
            freeze_row({"k": 1, "u": "c"})
        }
        _assert_matches_naive(db, deps, same_steps=False)

    def test_budget_runs_out_inside_lane(self):
        db, deps = _chain(rows=500, stages=1)
        working = copy.deepcopy(db)
        engine = _SemiNaiveChase(working, deps, _fresh_factory(working), 100)
        assert engine.lanes[0] is not None
        with pytest.raises(ChaseNonTermination):
            engine.run()
        assert engine.steps == 100
        assert len(working.rows("R1")) == 100
