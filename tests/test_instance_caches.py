"""Differential test of the cache protocol on :class:`Instance`.

Seeded random sequences of writes — ``insert``, direct
``relations[r].append``, ``remove_rows`` batches on both sides of
``_DEL_LIMIT`` (with rows named twice, row objects stored twice and
rows stored elsewhere), ``delete``, list replacement, ``clear``,
``mark_dirty`` and ``copy.deepcopy`` — run against one instance.  After
every step, every cache kind must equal one built from the current
rows: postings, projection multiplicities, the column batch, the
relation statistics and the slot map's positions.  Every read must also
count the path a model of the protocol predicts: a rebuild for a cache
that is absent or invalidated, an extend for one that lags behind
appends, a hit otherwise, and nothing for the slot map.
"""

import copy
import random
from bisect import bisect_left
from collections import Counter

import pytest

from repro.instances import Instance, LabeledNull
from repro.instances.columnar import ColumnBatch
from repro.instances.database import _DEL_LIMIT, _SlotMap, hashable_key
from repro.observability.stats import RelationStats

RELATIONS = ("R", "S")
ATTRIBUTES = ("a", "b", "c")
PROJECTIONS = (("a",), ("a", "b"), ("c", "a"))
EVENTS = ("hits", "extends", "rebuilds", "removes",
          "stats_hits", "stats_extends", "stats_rebuilds")


def _value(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.1:
        return None
    if roll < 0.2:
        return LabeledNull(rng.randrange(4))
    if roll < 0.25:
        return [rng.randrange(3)]  # unhashable
    if roll < 0.45:
        return f"s{rng.randrange(6)}"
    return rng.randrange(8)


def _row(rng: random.Random) -> dict:
    # Ragged: a row may lack any attribute, and rarely carries a new one.
    row = {name: _value(rng) for name in ATTRIBUTES if rng.random() < 0.85}
    if rng.random() < 0.05:
        row[f"x{rng.randrange(3)}"] = rng.randrange(3)
    return row


class _Model:
    """What the protocol promises: each cache's watermark, or none."""

    def __init__(self) -> None:
        self.seen: dict[tuple, int] = {}

    def drop(self, relation=None) -> None:
        self.seen = {
            key: seen for key, seen in self.seen.items()
            if relation is not None and key[0] != relation
        }

    def remove(self, relation: str, positions: list[int]) -> None:
        for key, seen in self.seen.items():
            if key[0] == relation:
                self.seen[key] = seen - sum(1 for p in positions if p < seen)

    def read(self, key: tuple, length: int) -> str:
        seen = self.seen.get(key)
        self.seen[key] = length
        if seen is None:
            return "rebuilds"
        return "extends" if seen < length else "hits"


def _delta(db: Instance, before: dict) -> dict:
    after = db.index_stats
    return {name: after[name] - before[name]
            for name in EVENTS if after[name] != before[name]}


def _read(db, model, key, read):
    """Run one cache read and check the event it counted."""
    before = dict(db.index_stats)
    result = read()
    relation, kind = key[0], key[1]
    if relation not in db.relations:
        assert _delta(db, before) == {}
        return result
    event = model.read(key, len(db.relations[relation]))
    if kind == "stats":
        event = "stats_" + event
    assert _delta(db, before) == {event: 1}, (key, event)
    return result


def _check(db: Instance, model: _Model) -> None:
    for relation in RELATIONS:
        rows = list(db.relations.get(relation, []))
        for attribute in ATTRIBUTES:
            postings = _read(db, model, (relation, "postings", attribute),
                             lambda: db.postings(relation, attribute))
            expected: dict = {}
            for row in rows:
                if attribute in row:
                    expected.setdefault(hashable_key(row[attribute]),
                                        []).append(id(row))
            assert {key: [id(row) for row in posting]
                    for key, posting in postings.items()} == expected
        for attributes in PROJECTIONS:
            entry = _read(db, model, (relation, "projection", attributes),
                          lambda: db.projection_entry(relation, attributes))
            expected = Counter(
                tuple(hashable_key(row[a]) for a in attributes)
                for row in rows if all(a in row for a in attributes)
            )
            assert (entry.members if entry else {}) == dict(expected)
        batch = _read(db, model, (relation, "batch"),
                      lambda: db.column_batch(relation))
        fresh = ColumnBatch.from_rows(rows)
        assert batch.to_rows() == fresh.to_rows() == rows
        assert len(batch) == len(rows)
        assert set(batch.names) == set(fresh.names)
        for name in fresh.names:
            column, oracle = batch.cols[name], fresh.cols[name]
            assert column.values == oracle.values
            assert column.present == oracle.present  # None when full
        stats = _read(db, model, (relation, "stats"),
                      lambda: db.relation_stats(relation))
        assert stats == RelationStats.from_rows(relation, rows)
        if relation in db.relations:
            before = dict(db.index_stats)
            slot_map = db._cache(relation, _SlotMap, _SlotMap)
            assert _delta(db, before) == {}
            assert slot_map.seen == len(rows)
            assert len(slot_map.slots) + sum(
                map(len, slot_map.shared.values())) == len(rows)
            for row in rows:
                held = [slot_map.slots[id(row)],
                        *slot_map.shared.get(id(row), ())]
                assert sorted(
                    slot - bisect_left(slot_map.removed, slot) for slot in held
                ) == [i for i, stored in enumerate(rows) if stored is row]


def _remove(db, model, rng, relation, size) -> None:
    rows = db.relations.get(relation, [])
    victims = rng.sample(list(rows), min(size, len(rows)))
    victims += rng.sample(victims, min(3, len(victims)))  # named twice
    victims.append(_row(rng))  # stored elsewhere: not removed
    rng.shuffle(victims)
    dead = {id(row) for row in victims}
    positions = [i for i, row in enumerate(rows) if id(row) in dead]
    expected = [rows[p] for p in positions]
    survivors = [row for row in rows if id(row) not in dead]
    model.remove(relation, positions)
    before = dict(db.index_stats)
    removed = db.remove_rows(relation, victims)
    assert [id(row) for row in removed] == [id(row) for row in expected]
    assert _delta(db, before) == ({"removes": len(removed)} if removed
                                  else {})
    if relation in db.relations:
        assert [id(row) for row in db.relations[relation]] == [
            id(row) for row in survivors
        ]


def _step(db: Instance, model: _Model, rng: random.Random) -> Instance:
    relation = rng.choice(RELATIONS)
    rows = db.relations.get(relation, [])
    op = rng.randrange(11)
    if op == 0:
        for _ in range(rng.randrange(1, 6)):
            db.insert(relation, _row(rng))
    elif op == 1:
        backing = db.relations.setdefault(relation, [])
        for _ in range(rng.randrange(1, 4)):
            # Direct appends; sometimes a row object stored twice.
            backing.append(rng.choice(backing) if backing
                           and rng.random() < 0.3 else _row(rng))
    elif op == 2:
        db.insert_all(relation, [_row(rng) for _ in range(300)])
    elif op in (3, 4):
        _remove(db, model, rng, relation, rng.randrange(1, 12))
    elif op == 5:
        # Appends the caches have not absorbed, then a removal that
        # takes some of them: each cache retracts only what it holds.
        db.insert_all(relation, [_row(rng) for _ in range(rng.randrange(1, 8))])
        _remove(db, model, rng, relation, rng.randrange(1, 12))
    elif op == 6:
        _remove(db, model, rng, relation, _DEL_LIMIT + rng.randrange(1, 60))
    elif op == 7:
        pivot = rng.randrange(8)
        victims = [row for row in rows
                   if isinstance(row.get("a"), int) and row["a"] < pivot]
        dead = {id(row) for row in victims}
        model.remove(relation, [i for i, row in enumerate(rows)
                                if id(row) in dead])
        removed = db.delete(
            relation,
            lambda row: isinstance(row.get("a"), int) and row["a"] < pivot,
        )
        assert [id(row) for row in removed] == [id(row) for row in victims]
        if relation not in db.relations:
            model.drop(relation)  # emptied: the next list is a new one
    elif op == 8:
        db.relations[relation] = [dict(row) for row in rows[::2]]
        model.drop(relation)
    elif op == 9:
        if rng.random() < 0.3:
            db.clear(relation)
        else:
            db.mark_dirty()
        model.drop()
    else:
        db = copy.deepcopy(db)
    return db


@pytest.mark.parametrize("seed", range(8))
def test_every_cache_equals_a_fresh_build_after_every_step(seed):
    rng = random.Random(seed)
    db = Instance()
    model = _Model()
    db.insert_all("R", [_row(rng) for _ in range(rng.randrange(0, 400))])
    for _ in range(45):
        db = _step(db, model, rng)
        _check(db, model)
