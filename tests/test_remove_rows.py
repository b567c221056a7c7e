"""Removal cost and ``delete`` semantics on :class:`Instance`.

:meth:`Instance.remove_rows` promises work proportional to the batch,
not to the relation.  The complexity test checks that promise without
a clock: the relation's backing list counts every element it hands
out, and a stream of small FIFO removals from a large relation must
not walk it.  The ``delete`` tests pin the predicate contract (one
call per stored row) and that a delete leaves other relations' caches
alone.
"""

import random

from repro.instances import Instance
from repro.instances.columnar import ColumnBatch
from repro.observability.stats import RelationStats


class _CountingList(list):
    """A backing list that counts the elements it hands out through
    iteration, slicing and indexing."""

    def __init__(self, rows):
        super().__init__(rows)
        self.handed_out = 0

    def __iter__(self):
        for row in super().__iter__():
            self.handed_out += 1
            yield row

    def __getitem__(self, index):
        picked = super().__getitem__(index)
        self.handed_out += len(picked) if isinstance(index, slice) else 1
        return picked


def test_fifo_removals_touch_the_batch_not_the_relation():
    pool = [
        {"id": i, "k": i % 50, "v": f"s{i}", "w": i % 3 or None}
        for i in range(20_000)
    ]
    db = Instance()
    backing = _CountingList(pool)
    db.relations["R"] = backing
    # Warm every cache a removal maintains.
    db.index_lookup("R", "k", 0)
    db.projection_member("R", ("id", "k"), (0, 0))
    db.column_batch("R")
    db.relation_stats("R")
    db.remove_rows("R", [pool[0]])  # warm-up: builds the slot map
    rebuilds = (db.index_stats["rebuilds"], db.index_stats["stats_rebuilds"])
    backing.handed_out = 0
    batches, size = 100, 8
    for b in range(batches):
        start = 1 + b * size
        removed = db.remove_rows("R", pool[start:start + size])
        assert len(removed) == size
    # One indexed read per removed row is the budget; the old path
    # walked the 20k-row list three times per call.
    assert backing.handed_out <= batches * size
    assert (
        db.index_stats["rebuilds"], db.index_stats["stats_rebuilds"]
    ) == rebuilds
    survivors = pool[1 + batches * size:]
    assert list.__eq__(backing, survivors)
    assert db.relation_stats("R") == RelationStats.from_rows("R", survivors)
    assert db.column_batch("R").to_rows() == (
        ColumnBatch.from_rows(survivors).to_rows()
    )
    assert db.index_lookup("R", "k", 0) == [
        row for row in survivors if row["k"] == 0
    ]


def test_delete_calls_the_predicate_once_per_row():
    db = Instance()
    db.insert_all("R", [{"a": i} for i in range(10)])
    calls: list[int] = []

    def flaky(row):
        # Stateful: a second call on the same row would flip the answer.
        calls.append(row["a"])
        return calls.count(row["a"]) == 1 and row["a"] % 2 == 0

    removed = db.delete("R", flaky)
    assert calls == list(range(10))
    assert removed == [{"a": i} for i in range(0, 10, 2)]
    assert db.rows("R") == [{"a": i} for i in range(1, 10, 2)]


def test_delete_leaves_other_relations_caches_alone():
    db = Instance()
    db.insert_all("R", [{"a": i} for i in range(6)])
    db.insert_all("S", [{"b": i} for i in range(4)])
    assert db.index_lookup("R", "a", 1) == [{"a": 1}]
    assert db.index_lookup("S", "b", 2) == [{"b": 2}]
    db.relation_stats("R")
    db.delete("R", lambda row: row["a"] < 3)
    before = dict(db.index_stats)
    assert db.index_lookup("S", "b", 2) == [{"b": 2}]
    assert db.index_stats["hits"] == before["hits"] + 1
    # The deleted-from relation's caches were maintained, not dropped.
    assert db.index_lookup("R", "a", 1) == []
    assert db.relation_stats("R") == RelationStats.from_rows(
        "R", [{"a": 3}, {"a": 4}, {"a": 5}]
    )
    assert db.index_stats["rebuilds"] == before["rebuilds"]
    assert db.index_stats["stats_rebuilds"] == before["stats_rebuilds"]


def test_large_random_batch_rebuilds_the_list_in_one_pass():
    rng = random.Random(3)
    db = Instance()
    db.insert_all("R", [{"a": i, "b": i % 7} for i in range(1_000)])
    stored = list(db.rows("R"))
    db.relation_stats("R")
    db.column_batch("R")
    db.index_lookup("R", "b", 0)
    backing = db.relations["R"]
    victims = rng.sample(stored, 400)  # above the position-by-position limit
    dead = {id(row) for row in victims}
    assert db.remove_rows("R", victims) == [
        row for row in stored if id(row) in dead
    ]
    survivors = [row for row in stored if id(row) not in dead]
    assert db.relations["R"] is backing
    assert all(a is b for a, b in zip(backing, survivors))
    assert len(backing) == len(survivors)
    assert db.relation_stats("R") == RelationStats.from_rows("R", survivors)
    assert db.column_batch("R").to_rows() == survivors
    assert db.index_lookup("R", "b", 0) == [
        row for row in survivors if row["b"] == 0
    ]
