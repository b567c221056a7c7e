"""Columnar batch storage: layout invariants, the row-view boundary,
and the instance-level batch cache.

The batch is the columnar *image* of a row list — same multiset of
rows, observable through :meth:`ColumnBatch.to_rows` — so the central
property here is the round trip: ``from_rows`` → ``to_rows`` must
reproduce every row dict exactly, for homogeneous and ragged shapes,
labeled nulls, ``None`` cells, mixed-type columns and empty relations.
The cache tests pin the persistent-index maintenance contract that
:meth:`Instance.column_batch` shares with the (relation, attr)
indexes: appends extend in place, removals compact into a new batch
without a rebuild, ``mark_dirty`` forces one, and a clean re-read is a
hit that returns the same object.
"""

import random

import pytest

from repro.algebra import Distinct, Project, Scan, evaluate
from repro.algebra import Col as C
from repro.instances import Instance, LabeledNull
from repro.instances.columnar import Column, ColumnBatch


# ----------------------------------------------------------------------
# randomized row ↔ columnar round trips
# ----------------------------------------------------------------------
def _random_cell(rng):
    roll = rng.random()
    if roll < 0.12:
        return None
    if roll < 0.24:
        return LabeledNull(rng.randint(0, 6))
    if roll < 0.45:
        return rng.randint(-5, 5)
    if roll < 0.60:
        return rng.choice(["x", "yy", "", "z"])
    if roll < 0.72:
        return rng.random()
    if roll < 0.82:
        return rng.choice([True, False])
    return (rng.randint(0, 3), rng.choice(["a", "b"]))


def _random_rows(rng):
    names = [f"c{i}" for i in range(rng.randint(1, 6))]
    rows = []
    for _ in range(rng.randint(0, 25)):
        if rng.random() < 0.5:
            keep = names  # homogeneous stretch
        else:
            keep = [n for n in names if rng.random() < 0.7]
        rows.append({n: _random_cell(rng) for n in keep})
    return rows


@pytest.mark.parametrize("seed", range(50))
def test_round_trip_random_rows(seed):
    rng = random.Random(seed)
    rows = _random_rows(rng)
    batch = ColumnBatch.from_rows(rows)
    assert len(batch) == len(rows)
    assert batch.to_rows() == rows
    # row_at agrees with the bulk boundary
    for i in range(len(rows)):
        assert batch.row_at(i) == rows[i]


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_through_instance(seed):
    """The instance's cached batch observes exactly the stored rows —
    including rows appended after the batch was first built."""
    rng = random.Random(1000 + seed)
    db = Instance()
    first = _random_rows(rng)
    db.insert_all("R", first)
    assert db.column_batch("R").to_rows() == first
    tail = _random_rows(rng)
    db.insert_all("R", tail)
    assert db.column_batch("R").to_rows() == first + tail


def test_round_trip_empty_relation():
    assert ColumnBatch.from_rows([]).to_rows() == []
    db = Instance()
    batch = db.column_batch("nowhere")
    assert len(batch) == 0 and batch.to_rows() == []


def test_to_rows_builds_fresh_dicts():
    rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
    batch = ColumnBatch.from_rows(rows)
    out = batch.to_rows()
    assert out == rows
    out[0]["a"] = 99
    assert batch.to_rows()[0]["a"] == 1
    assert rows[0]["a"] == 1


# ----------------------------------------------------------------------
# column-level invariants
# ----------------------------------------------------------------------
def test_null_mask_distinguishes_absent_from_null():
    rows = [{"a": None, "b": 1}, {"b": 2}, {"a": 3, "b": None}]
    batch = ColumnBatch.from_rows(rows)
    a = batch.cols["a"]
    assert not a.full and bytes(a.present) == b"\x01\x00\x01"
    # absent is not null: only row 0 holds a present SQL NULL
    assert bytes(a.null_mask()) == b"\x01\x00\x00"
    b = batch.cols["b"]
    assert b.full
    assert bytes(b.null_mask()) == b"\x00\x00\x01"


def test_labels_side_table_points_at_inline_nulls():
    n1, n2 = LabeledNull(1), LabeledNull(2)
    batch = ColumnBatch.from_rows(
        [{"a": n1}, {"a": 7}, {"a": n2}, {"a": None}]
    )
    col = batch.cols["a"]
    assert col.labels() == {0: n1, 2: n2}
    assert col.values[0] is n1  # inline, not tombstoned


def test_take_and_compress_normalize_full_masks():
    """Selections that drop every key-less row must yield a *full*
    column — downstream fast paths key off ``present is None``."""
    rows = [{"a": 1, "b": 1}, {"b": 2}, {"a": 3, "b": 3}]
    batch = ColumnBatch.from_rows(rows)
    assert not batch.cols["a"].full
    taken = batch.take([0, 2])
    assert taken.cols["a"].full and taken.to_rows() == [rows[0], rows[2]]
    squeezed = batch.compress([True, False, True])
    assert squeezed.cols["a"].full
    assert squeezed.to_rows() == [rows[0], rows[2]]
    partial = batch.take([0, 1])
    assert not partial.cols["a"].full
    assert partial.to_rows() == [rows[0], rows[1]]


def test_from_homogeneous_rows_matches_generic():
    rows = [{"a": i, "b": -i} for i in range(5)]
    shaped = ColumnBatch.from_homogeneous_rows(rows, ("a", "b"))
    assert shaped.to_rows() == ColumnBatch.from_rows(rows).to_rows()


def test_column_take_preserves_values_identity_semantics():
    marker = object()
    col = Column([marker, 1, 2])
    assert col.take([0]).values[0] is marker


# ----------------------------------------------------------------------
# instance batch cache: the persistent-index maintenance contract
# ----------------------------------------------------------------------
def _stats(db):
    return dict(db.index_stats)


def test_cache_hit_returns_same_object():
    db = Instance()
    db.insert_all("R", [{"a": 1}, {"a": 2}])
    first = db.column_batch("R")
    before = _stats(db)
    again = db.column_batch("R")
    assert again is first
    assert db.index_stats["hits"] == before["hits"] + 1


def test_append_extends_batch_in_place():
    db = Instance()
    db.insert_all("R", [{"a": 1}])
    batch = db.column_batch("R")
    db.insert("R", {"a": 2, "b": 9})
    before = _stats(db)
    grown = db.column_batch("R")
    assert grown is batch  # extended, not rebuilt
    assert db.index_stats["extends"] == before["extends"] + 1
    assert grown.to_rows() == [{"a": 1}, {"a": 2, "b": 9}]
    # the pre-existing column gained a presence mask for the old rows
    assert bytes(grown.cols["b"].present) == b"\x00\x01"
    assert grown.cols["a"].unique()
    db.insert("R", {"a": 1, "b": 5})  # a duplicate key arrives
    assert db.column_batch("R") is batch
    assert not batch.cols["a"].unique()
    assert _distinct_a(db) == [{"a": 1}, {"a": 2}]


def test_remove_rows_compacts_cache_without_rebuild():
    db = Instance()
    db.insert_all("R", [{"a": 1}, {"a": 2, "b": 0}, {"a": 3}])
    stale = db.column_batch("R")
    victims = [row for row in db.rows("R") if row["a"] == 2]
    before = _stats(db)
    db.remove_rows("R", victims)
    fresh = db.column_batch("R")
    assert fresh is not stale  # a new batch: handed-out ones stay intact
    assert stale.to_rows() == [{"a": 1}, {"a": 2, "b": 0}, {"a": 3}]
    assert db.index_stats["rebuilds"] == before["rebuilds"]
    assert db.index_stats["hits"] == before["hits"] + 1
    survivors = [{"a": 1}, {"a": 3}]
    assert fresh.to_rows() == ColumnBatch.from_rows(survivors).to_rows()
    assert fresh.names == ("a",)  # no survivor carries "b"
    assert fresh.cols["a"].unique()
    db.insert("R", {"a": 3})  # a duplicate arrives after the removal
    assert db.column_batch("R") is fresh
    assert not fresh.cols["a"].unique()
    assert _distinct_a(db) == survivors


def test_mark_dirty_invalidates_batch():
    db = Instance()
    db.insert_all("R", [{"a": 1}, {"a": 7}])
    stale = db.column_batch("R")
    db.relations["R"][0]["a"] = 42  # declared in-place mutation
    db.mark_dirty()
    fresh = db.column_batch("R")
    assert fresh is not stale
    assert fresh.to_rows() == [{"a": 42}, {"a": 7}]
    assert fresh.cols["a"].unique()
    db.relations["R"][0]["a"] = 7  # now a duplicate
    db.mark_dirty()
    assert not db.column_batch("R").cols["a"].unique()
    assert fresh.cols["a"].unique()  # a batch handed out keeps its fact
    assert _distinct_a(db) == [{"a": 7}]


def _distinct_a(db):
    return evaluate(Distinct(Project(Scan("R"), [("a", C("a"))])), db)


def test_unique_and_hashable_facts():
    assert Column([1, 2.5, "x", None, LabeledNull(1)]).unique()
    for values in ([1, True], [1, 1.0], [None, None],
                   [LabeledNull(1), LabeledNull(1)], [[1], [2]]):
        assert not Column(values).unique()
    assert not Column([1, 2], bytearray(b"\x01\x00")).unique()
    assert not Column([[1], 2]).hashable()
    # take/compress (distinct positions) keep a unique column unique
    # without a rescan, and their copies ask the source for hashability.
    col = Column([3, 1, 2])
    assert col.unique()
    assert col.take([2, 0])._unique is col.compress([1, 0, 1])._unique is True
    # gather may repeat positions, so it carries no unique() fact.
    repeated = col.gather([0, 0])
    assert repeated._unique is None and not repeated.unique()
    assert repeated.hashable()
    source = Column([[0], 1, 2])
    assert source.compress([0, 1, 1]).hashable()  # own cells rescanned
    assert not source.hashable()
    assert source.take([1, 2])._hashable is source.gather([1])._hashable is source


def test_clear_rebuilds_empty():
    db = Instance()
    db.insert_all("R", [{"a": 1}])
    db.column_batch("R")
    db.clear("R")
    assert db.column_batch("R").to_rows() == []
