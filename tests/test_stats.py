"""Statistics service: maintenance invariants and estimator rules.

The central invariant: however a relation got to its current rows —
appends absorbed in place, removals retracted in place, clears, epoch
bumps — the cached :class:`RelationStats` the instance serves must
equal the statistics recomputed from scratch over the current rows.
The randomized tests drive arbitrary mutation sequences (including
labeled nulls, SQL nulls, ragged rows, and unhashable cells) and check
that equality after every step; the removal test holds every other
per-relation cache (postings, projections, column batch, row order) to
the same standard.
"""

import copy
import pickle
import random

import pytest

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.estimate import (
    divergence_ratio,
    estimate_expr,
    worst_divergent,
)
from repro.algebra.plan_cache import PlanCache
from repro.instances.columnar import ColumnBatch
from repro.instances.database import Instance
from repro.instances.labeled_null import LabeledNull
from repro.observability.stats import (
    ColumnStats,
    ESTIMATION,
    RelationStats,
)


# ----------------------------------------------------------------------
# ColumnStats unit behavior
# ----------------------------------------------------------------------
def test_column_stats_basic_counts():
    stats = ColumnStats()
    for value in [1, 2, 2, None, LabeledNull("x"), 3]:
        stats.observe(value)
    assert stats.present == 6
    assert stats.nulls == 1
    assert stats.labeled == 1
    assert stats.non_null == 4
    assert stats.distinct == 3
    assert stats.frequency(2) == 2
    assert stats.frequency(99) == 0
    assert stats.lo == 1 and stats.hi == 3


def test_column_stats_never_observed_frequency_is_none():
    assert ColumnStats().frequency(1) is None


def test_column_stats_mixed_kinds_turn_ordering_off():
    stats = ColumnStats()
    stats.observe(1)
    stats.observe("a")
    assert stats.kind == "off"
    assert not stats.ordered
    assert stats.lo is None and stats.hi is None
    # Ordering stays off even if later values are homogeneous.
    stats.observe(5)
    assert not stats.ordered


def test_column_stats_string_minmax():
    stats = ColumnStats()
    for value in ["pear", "apple", "plum"]:
        stats.observe(value)
    assert stats.ordered
    assert stats.lo == "apple" and stats.hi == "plum"


def test_column_stats_unhashable_values_counted():
    stats = ColumnStats()
    stats.observe([1, 2])
    stats.observe([1, 2])
    stats.observe([3])
    assert stats.distinct == 2
    assert stats.frequency([1, 2]) == 2


def test_most_common_is_deterministic_and_bounded():
    stats = ColumnStats()
    for value in ["b", "a", "b", "c", "a", "b"]:
        stats.observe(value)
    assert stats.most_common(2) == [("b", 3), ("a", 2)]
    # Default size comes from the estimator config.
    ESTIMATION.mcv_size = 1
    assert stats.most_common() == [("b", 3)]


def test_relation_stats_null_fraction_counts_missing_columns():
    rs = RelationStats.from_rows(
        "r",
        [{"a": 1, "b": None}, {"a": 2}, {"a": LabeledNull("n"), "b": 3}],
    )
    assert rs.rows == 3
    assert rs.null_fraction("a") == pytest.approx(1 / 3)
    # b: one null + one missing row.
    assert rs.null_fraction("b") == pytest.approx(2 / 3)
    # Column never observed at all.
    assert rs.null_fraction("zzz") == 1.0


# ----------------------------------------------------------------------
# incremental maintenance == from scratch
# ----------------------------------------------------------------------
def _random_row(rng: random.Random) -> dict:
    row = {}
    for name in ("a", "b", "c"):
        if rng.random() < 0.3:
            continue  # ragged: column absent from this row
        roll = rng.random()
        if roll < 0.15:
            row[name] = None
        elif roll < 0.3:
            row[name] = LabeledNull(f"n{rng.randrange(5)}")
        elif roll < 0.6:
            row[name] = rng.randrange(8)
        elif roll < 0.85:
            row[name] = rng.choice(["x", "y", "z"])
        else:
            row[name] = [rng.randrange(3)]  # unhashable
    return row


def _assert_stats_fresh(instance: Instance) -> None:
    for relation in instance.relation_names():
        expected = RelationStats.from_rows(
            relation, instance.rows(relation)
        )
        assert instance.relation_stats(relation) == expected, relation


@pytest.mark.parametrize("seed", range(6))
def test_randomized_maintenance_matches_from_scratch(seed):
    rng = random.Random(seed)
    instance = Instance()
    relations = ("r", "s")
    for _ in range(60):
        relation = rng.choice(relations)
        action = rng.random()
        if action < 0.55:
            instance.insert_all(
                relation,
                [_random_row(rng) for _ in range(rng.randrange(1, 5))],
            )
        elif action < 0.75:
            rows = list(instance.rows(relation))
            if rows:
                victims = rng.sample(rows, rng.randrange(1, len(rows) + 1))
                instance.remove_rows(relation, victims)
        elif action < 0.85:
            instance.clear(relation)
        elif action < 0.95:
            instance.mark_dirty()
        # else: no mutation — exercise the cache-hit path
        if rng.random() < 0.5:
            _assert_stats_fresh(instance)
    _assert_stats_fresh(instance)


_ATTRIBUTE_TUPLES = (("a",), ("b",), ("a", "b"), ("b", "c"), ("a", "b", "c"))


def _assert_caches_match_fresh(instance, relation, survivors, values):
    """Every cache of ``relation`` in ``instance`` equals the one a
    fresh instance builds over ``survivors`` — and the stored rows are
    exactly ``survivors``, same objects, same order."""
    stored = instance.relations.get(relation, [])
    assert len(stored) == len(survivors)
    assert all(mine is theirs for mine, theirs in zip(stored, survivors))
    fresh = Instance()
    fresh.insert_all(relation, survivors)
    assert instance.relation_stats(relation) == RelationStats.from_rows(
        relation, survivors
    )
    batch = instance.column_batch(relation)
    expected = ColumnBatch.from_rows(survivors)
    assert batch.to_rows() == expected.to_rows()
    # Same columns, and the same ones full (presence masks normalized).
    assert {name: col.full for name, col in batch.cols.items()} == {
        name: col.full for name, col in expected.cols.items()
    }
    for attribute in ("a", "b", "c"):
        for value in [None, *values]:  # None: every index is read
            assert instance.index_lookup(relation, attribute, value) == (
                fresh.index_lookup(relation, attribute, value)
            ), (attribute, value)
    for attributes in _ATTRIBUTE_TUPLES:
        mine = instance.projection_entry(relation, attributes)
        theirs = fresh.projection_entry(relation, attributes)
        assert (mine.members if mine else {}) == (
            theirs.members if theirs else {}
        ), attributes


def _rebuild_counts(instance):
    stats = instance.index_stats
    return stats["rebuilds"], stats["stats_rebuilds"]


@pytest.mark.parametrize("seed", range(8))
def test_randomized_removals_match_a_fresh_instance(seed):
    """Removals of every shape — FIFO, random, whole-relation, rows not
    stored there, predicate deletes, and removals from deep copies and
    pickle round-trips — leave every cache equal to a fresh instance's
    over the survivors, without a rebuild."""
    rng = random.Random(seed)
    instance = Instance()
    model: dict[str, list] = {"r": [], "s": []}  # expected rows, by identity
    values: list = []
    for _ in range(90):
        relation = rng.choice(("r", "s"))
        rows = model[relation]
        keys_before = set(instance.relations)
        epoch_bumped = False
        dead: list = []
        action = rng.random()
        if action < 0.35:
            batch = [_random_row(rng) for _ in range(rng.randrange(1, 7))]
            values.extend(v for row in batch for v in row.values())
            instance.insert_all(relation, batch)
            rows.extend(instance.relations[relation][-len(batch):])
        elif action < 0.45:
            dead = rows[:rng.randrange(1, 4)]  # FIFO
        elif action < 0.55:
            dead = rng.sample(rows, rng.randrange(0, len(rows) + 1))
        elif action < 0.6:
            dead = list(rows)  # the whole relation
        elif action < 0.68:
            # Lookalike copies and the other relation's rows are not
            # stored here; a real row named twice is removed once.
            other = model["s" if relation == "r" else "r"]
            foreign = [dict(row) for row in rows[:2]] + other[:2]
            real = rng.sample(rows, min(2, len(rows)))
            assert instance.remove_rows(relation, foreign + real + real) == [
                row for row in rows if any(row is r for r in real)
            ]
            model[relation] = [
                row for row in rows if not any(row is r for r in real)
            ]
        elif action < 0.76:
            calls = []

            def predicate(row):
                calls.append(row)
                return rng.random() < 0.4

            removed = instance.delete(relation, predicate)
            assert [id(row) for row in calls] == [id(row) for row in rows]
            dead_ids = {id(row) for row in removed}
            model[relation] = [row for row in rows if id(row) not in dead_ids]
        elif action < 0.84:
            clone = (
                copy.deepcopy(instance) if rng.random() < 0.5
                else pickle.loads(pickle.dumps(instance))
            )
            for name, stored in model.items():
                copied = clone.relations.get(name, [])
                assert copied == stored
                model[name] = list(copied)
            instance = clone
        elif action < 0.9:
            instance.mark_dirty()
            epoch_bumped = True
        # else: no mutation
        if dead:
            dead_ids = {id(row) for row in dead}
            expected = [row for row in rows if id(row) in dead_ids]
            assert instance.remove_rows(relation, dead) == expected
            model[relation] = [row for row in rows if id(row) not in dead_ids]
        before = _rebuild_counts(instance)
        for name in ("r", "s"):
            _assert_caches_match_fresh(instance, name, model[name], values)
        if not epoch_bumped and set(instance.relations) == keys_before:
            assert _rebuild_counts(instance) == before


def test_row_object_stored_twice_loses_every_copy():
    shared, other = {"a": 1}, {"a": 2}
    instance = Instance()
    instance.relations["r"] = [shared, other, shared]
    instance.relation_stats("r")
    instance.column_batch("r")
    assert instance.remove_rows("r", [shared]) == [shared, shared]
    _assert_caches_match_fresh(instance, "r", [other], [1, 2])
    # A second copy appended after the slot map was built.
    late = {"a": 3}
    instance.insert_all("r", [late])
    late = instance.relations["r"][-1]
    instance.relations["r"].append(late)
    instance.relations["r"].append(other)
    assert instance.remove_rows("r", [late, other]) == [other, late, late,
                                                          other]
    _assert_caches_match_fresh(instance, "r", [], [1, 2, 3])


def test_stats_counters_follow_the_validation_contract():
    instance = Instance()
    instance.insert_all("r", [{"a": 1}, {"a": 2}])

    def deltas():
        before = dict(instance.index_stats)
        def diff():
            return {
                key: instance.index_stats[key] - before[key]
                for key in ("stats_hits", "stats_extends", "stats_rebuilds")
            }
        return diff

    diff = deltas()
    instance.relation_stats("r")  # cold: build
    assert diff() == {
        "stats_hits": 0, "stats_extends": 0, "stats_rebuilds": 1
    }

    diff = deltas()
    instance.relation_stats("r")  # warm: hit
    assert diff() == {
        "stats_hits": 1, "stats_extends": 0, "stats_rebuilds": 0
    }

    instance.insert("r", {"a": 3})
    diff = deltas()
    stats = instance.relation_stats("r")  # append: extend in place
    assert stats.rows == 3
    assert diff() == {
        "stats_hits": 0, "stats_extends": 1, "stats_rebuilds": 0
    }

    instance.remove_rows("r", [instance.rows("r")[0]])
    diff = deltas()
    stats = instance.relation_stats("r")  # removal: retracted in place
    assert stats.rows == 2
    assert stats == RelationStats.from_rows("r", [{"a": 2}, {"a": 3}])
    assert diff() == {
        "stats_hits": 1, "stats_extends": 0, "stats_rebuilds": 0
    }

    instance.mark_dirty()
    diff = deltas()
    instance.relation_stats("r")  # epoch bump: rebuild
    assert diff() == {
        "stats_hits": 0, "stats_extends": 0, "stats_rebuilds": 1
    }


def test_fifo_removals_settle_the_extremes_only_when_read(monkeypatch):
    """A FIFO stream on a monotonic column removes its minimum on every
    call.  No removal settles the extremes; the first read after the
    stream does, and the statistics then equal the current rows'."""
    settled = []
    settle = ColumnStats.settle
    monkeypatch.setattr(ColumnStats, "settle",
                        lambda self: settled.append(self) or settle(self))
    db = Instance()
    for oid in range(2_000):
        db.insert("Ledger", {"oid": oid, "name": f"n{oid % 7}"})
    db.relation_stats("Ledger")
    for oid in range(2_000, 3_000):
        db.remove_rows("Ledger", [db.rows("Ledger")[0]])
        db.insert("Ledger", {"oid": oid, "name": f"n{oid % 7}"})
    assert settled == []
    stats = db.relation_stats("Ledger")
    assert stats == RelationStats.from_rows("Ledger", db.rows("Ledger"))
    assert (stats.columns["oid"].lo, stats.columns["oid"].hi) == (1_000, 2_999)
    assert settled


@pytest.mark.parametrize("seed", range(20))
def test_unread_retractions_settle_to_the_fresh_statistics(seed):
    """Observes and retracts of mixed kinds with no read in between: the
    column settles to the statistics of its surviving cells."""
    rng = random.Random(seed)
    values = [0, 1, 2.5, 7, True, "a", "b", None, LabeledNull(1), [1]]
    column, cells = ColumnStats(), []
    for _ in range(300):
        if cells and rng.random() < 0.45:
            column.retract(cells.pop(rng.randrange(len(cells))))
        else:
            cells.append(rng.choice(values))
            column.observe(cells[-1])
    fresh = ColumnStats()
    for value in cells:
        fresh.observe(value)
    assert column == fresh
    assert (column.kind, column.lo, column.hi) == (fresh.kind, fresh.lo, fresh.hi)


def test_relation_stats_for_missing_relation_is_empty():
    stats = Instance().relation_stats("nope")
    assert stats.rows == 0
    assert stats.columns == {}


# ----------------------------------------------------------------------
# estimator rules
# ----------------------------------------------------------------------
@pytest.fixture
def people() -> Instance:
    instance = Instance()
    for i in range(100):
        instance.insert(
            "emp",
            {"id": i, "dept": i % 10, "name": f"n{i}", "salary": 1000 + i},
        )
    for d in range(10):
        instance.insert("dept", {"dept": d, "dname": f"d{d}"})
    return instance


def test_scan_estimate_is_row_count(people):
    assert estimate_expr(E.Scan("emp"), people) == 100.0
    assert estimate_expr(E.Scan("missing"), people) == 0.0


def test_equality_select_uses_exact_frequency(people):
    expr = E.Select(
        E.Scan("emp"), S.Comparison("=", S.Col("dept"), S.Lit(3))
    )
    assert estimate_expr(expr, people) == pytest.approx(10.0)
    absent = E.Select(
        E.Scan("emp"), S.Comparison("=", S.Col("dept"), S.Lit(99))
    )
    assert estimate_expr(absent, people) == 0.0


def test_range_select_interpolates_min_max(people):
    expr = E.Select(
        E.Scan("emp"), S.Comparison("<", S.Col("salary"), S.Lit(1050))
    )
    est = estimate_expr(expr, people)
    assert 40.0 <= est <= 60.0


def test_equijoin_divides_by_larger_distinct(people):
    join = E.Join(E.Scan("emp"), E.Scan("dept"), E._JoinEq("dept", "dept"))
    assert estimate_expr(join, people) == pytest.approx(100.0)


def test_left_join_estimates_at_least_left_rows(people):
    join = E.Join(
        E.Scan("emp"),
        E.Select(E.Scan("dept"), S.Comparison("=", S.Col("dname"),
                                               S.Lit("d3"))),
        E._JoinEq("dept", "dept"),
        kind="left",
    )
    assert estimate_expr(join, people) >= 100.0


def test_union_sums_and_distinct_caps(people):
    union = E.UnionAll(E.Scan("emp"), E.Scan("emp"))
    assert estimate_expr(union, people) == 200.0
    distinct = E.Distinct(
        E.Project(E.Scan("emp"), [("dept", S.Col("dept"))])
    )
    assert estimate_expr(distinct, people) == pytest.approx(10.0)


def test_aggregate_group_count(people):
    grouped = E.Aggregate(
        E.Scan("emp"), ["dept"], [("n", "count", None)]
    )
    assert estimate_expr(grouped, people) == pytest.approx(10.0)
    ungrouped = E.Aggregate(E.Scan("emp"), [], [("n", "count", None)])
    assert estimate_expr(ungrouped, people) == 1.0


def test_isnull_uses_null_fraction():
    instance = Instance()
    instance.insert_all(
        "r", [{"a": 1}, {"a": None}, {"a": None}, {"a": 2}]
    )
    expr = E.Select(E.Scan("r"), S.IsNull(S.Col("a")))
    assert estimate_expr(expr, instance) == pytest.approx(2.0)
    negated = E.Select(E.Scan("r"), S.IsNull(S.Col("a"), negated=True))
    assert estimate_expr(negated, instance) == pytest.approx(2.0)


def test_in_sums_frequencies(people):
    expr = E.Select(E.Scan("emp"), S.In(S.Col("dept"), [1, 2, 99]))
    assert estimate_expr(expr, people) == pytest.approx(20.0)


def test_divergence_ratio_symmetric():
    assert divergence_ratio(10.0, 10) == pytest.approx(1.0)
    assert divergence_ratio(99.0, 9) == pytest.approx(10.0)
    assert divergence_ratio(9.0, 99) == pytest.approx(10.0)
    assert divergence_ratio(0.0, 0) == 1.0


def test_annotate_plan_and_worst_divergent(people):
    cache = PlanCache()
    # A predicate the estimator scores badly on purpose: equality on a
    # computed column it has no statistics for.
    expr = E.Select(
        E.Scan("emp"), S.Comparison("=", S.Col("dept"), S.Lit(3))
    )
    plan, hit = cache.lookup(expr)
    assert not hit
    from repro.algebra.estimate import annotate_plan

    estimates = annotate_plan(plan, people)
    assert len(estimates) == len(plan.nodes)
    assert all(est is not None for est in estimates)
    _, profile = plan.execute_profiled(people)
    worst = worst_divergent(plan.nodes, profile, estimates)
    assert worst is not None
    assert worst["ratio"] == pytest.approx(1.0)
    assert not worst["flagged"]

    # Shrink the divergence factor to force flagging on any mismatch.
    people.insert_all("emp", [{"dept": 3}] * 100)
    estimates = annotate_plan(plan, people)
    _, profile = plan.execute_profiled(people)
    ESTIMATION.divergence_factor = 1.0
    worst = worst_divergent(plan.nodes, profile, estimates)
    assert worst["flagged"]
