"""In-memory database instances.

An :class:`Instance` is the concrete representation of a database state
``D`` in the paper's instance-level semantics: a finite set of named
relations, each a bag of rows (``dict`` from attribute name to value).

Entity sets with inheritance (ER/OO schemas) store each object in the
extent of its *root* entity, with the reserved column ``$type`` naming
the object's most specific type — exactly the information the ``IS OF``
predicate of Entity SQL (paper, Figure 2) needs.

Instances also maintain **persistent, incrementally extended indexes**
over their rows — per-(relation, attribute) value postings and
per-(relation, attribute-tuple) projection sets — consumed by the
homomorphism search and the semi-naive chase.  The maintenance contract
(see :meth:`Instance.mark_dirty`): appends through :meth:`insert` and
wholesale list replacement via ``relations[r] = [...]`` are detected
automatically, removals through :meth:`Instance.remove_rows` (and
:meth:`Instance.delete`) update the caches in place; code that mutates
stored row dicts *in place* must call :meth:`Instance.mark_dirty`
afterwards or the indexes go stale.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import SchemaError
from repro.instances.columnar import ColumnBatch, drop_positions
from repro.instances.labeled_null import LabeledNull
from repro.metamodel.schema import Schema

#: Reserved column carrying an object's most-specific entity type.
TYPE_FIELD = "$type"

Row = dict[str, object]


def freeze_row(row: Mapping[str, object]) -> frozenset:
    """A hashable, order-insensitive image of a row (for set semantics)."""
    return frozenset(row.items())


class _IndexTag:
    """Private sentinel used to build index keys that cannot collide
    with user data: unlike the old string-tagged tuples, no genuine row
    value can ever equal a tuple whose first element is this object.

    Tags compare by identity, so ``copy.deepcopy`` and pickle must hand
    back the module's own tag (``name`` is its global name here), or a
    copied instance's index keys would stop matching fresh lookups."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __reduce__(self) -> str:
        return self._name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self._name}>"


_NULL_TAG = _IndexTag("_NULL_TAG")
_OPAQUE_TAG = _IndexTag("_OPAQUE_TAG")


def null_key_label(key: object) -> Optional[int]:
    """The label behind a ``hashable_key(LabeledNull(l))`` image, or
    ``None`` for every other kind of key.  Lets provenance bookkeeping
    (the incremental runtime) recognise null-valued key components
    without re-deriving them from row values."""
    if isinstance(key, tuple) and len(key) == 2 and key[0] is _NULL_TAG:
        return key[1]  # type: ignore[return-value]
    return None


def hashable_key(value: object) -> object:
    """A hashable stand-in for an arbitrary row value.

    Labeled nulls and unhashable values are wrapped in tuples tagged
    with private sentinels, so a genuine tuple value such as
    ``("⊥", 3)`` can never collide with the key of ``LabeledNull(3)``.
    """
    if isinstance(value, LabeledNull):
        return (_NULL_TAG, value.label)
    try:
        hash(value)
    except TypeError:
        return (_OPAQUE_TAG, repr(value))
    return value


_NO_ROWS: list = []  # shared empty backing list for views of absent relations

#: Largest removal batch :meth:`Instance.remove_rows` deletes position
#: by position; bigger batches rebuild the list in one pass instead
#: (each ``del`` shifts the tail: on a 20k-row list, 2,500 of them take
#: about 4x as long as one pass, while 256 break even).
_DEL_LIMIT = 256

#: Shared empty batch for absent relations (immutable by convention).
_EMPTY_BATCH = ColumnBatch((), {}, 0)

#: Pending index-maintenance events at which a writer folds the backlog
#: into the totals, so an instance whose counters nobody reads stays
#: bounded.
_MAX_PENDING_STAT_EVENTS = 1024


class RowsView(Sequence):
    """A read-only, live view of one relation's row list.

    Supports everything read-only callers need (iteration, ``len``,
    indexing, slicing, equality with plain lists) while preventing the
    aliasing bugs of handing out the internal list itself: mutations
    must go through the owning :class:`Instance`.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._rows[index])
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowsView):
            return self._rows == other._rows
        if isinstance(other, (list, tuple)):
            return self._rows == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowsView({self._rows!r})"

    __hash__ = None  # type: ignore[assignment]


class _AttrIndex:
    """Postings index: value key → rows of one relation carrying it."""

    __slots__ = ("source", "seen", "epoch", "postings")

    def __init__(self, source: list, epoch: int):
        self.source = source
        self.seen = 0
        self.epoch = epoch
        self.postings: dict[object, list[Row]] = {}


class _ProjectionSet:
    """Membership index of one relation's rows projected onto an
    attribute tuple (rows lacking any of the attributes are skipped).
    ``members`` maps each projected tuple to its multiplicity so that
    :meth:`Instance.remove_rows` can retract one row without losing
    membership for surviving duplicates."""

    __slots__ = ("source", "seen", "epoch", "members")

    def __init__(self, source: list, epoch: int):
        self.source = source
        self.seen = 0
        self.epoch = epoch
        self.members: dict[tuple, int] = {}


class _BatchEntry:
    """Cached columnar image of one relation (see
    :meth:`Instance.column_batch`), validated exactly like
    :class:`_AttrIndex`: backing-list identity + dirty epoch + a
    ``seen`` watermark that lets appends extend the batch in place.
    :meth:`Instance.remove_rows` swaps in a compacted batch and lowers
    ``seen`` by the rows it covered."""

    __slots__ = ("source", "seen", "epoch", "batch")

    def __init__(self, source: list, epoch: int):
        self.source = source
        self.seen = 0
        self.epoch = epoch
        self.batch = ColumnBatch((), {}, 0)


class _StatsEntry:
    """Cached :class:`~repro.observability.stats.RelationStats` for one
    relation (see :meth:`Instance.relation_stats`), validated exactly
    like :class:`_BatchEntry`: backing-list identity + dirty epoch + a
    ``seen`` watermark under which appends are absorbed in place and
    :meth:`Instance.remove_rows` retracts the rows it covered, while
    epoch bumps and list replacement force a rebuild."""

    __slots__ = ("source", "seen", "epoch", "stats")

    def __init__(self, source: list, epoch: int, stats):
        self.source = source
        self.seen = 0
        self.epoch = epoch
        self.stats = stats


class _SlotMap:
    """Row positions of one relation without a scan (see
    :meth:`Instance.remove_rows`), validated like the other caches:
    backing-list identity + dirty epoch + ``seen`` watermark.

    Every row the map has seen holds a *slot*: its position when the
    map last renumbered, or its arrival order since.  ``slots`` maps
    ``id(row)`` to the slot (``shared`` keeps the extra slots of a row
    object stored more than once) and ``removed`` is the sorted list of
    slots vacated since the last renumbering, so a row's current
    position is its slot minus the removed slots below it.  Keys are
    ``id()`` values: copies of an instance must not inherit the map
    (see :meth:`Instance.__getstate__`)."""

    __slots__ = ("source", "seen", "epoch", "slots", "shared", "removed")

    def __init__(self, source: list, epoch: int):
        self.source = source
        self.seen = 0
        self.epoch = epoch
        self.slots: dict[int, int] = {}
        self.shared: dict[int, list[int]] = {}
        self.removed: list[int] = []

    def absorb(self) -> None:
        """Give the rows appended since the last call fresh slots."""
        rows = self.source
        slots = self.slots
        slot = self.seen + len(self.removed)
        for row in rows[self.seen:]:
            key = id(row)
            if key in slots:
                self.shared.setdefault(key, []).append(slot)
            else:
                slots[key] = slot
            slot += 1
        self.seen = len(rows)

    def take(self, rows: Iterable[Row]) -> list[int]:
        """Release the slots of ``rows`` (those the map holds) and
        return their current positions, ascending."""
        slots = self.slots
        removed = self.removed
        freed: list[int] = []
        for row in rows:
            slot = slots.pop(id(row), None)
            if slot is None:
                continue  # not stored here, or named twice
            freed.append(slot)
            if self.shared:
                freed.extend(self.shared.pop(id(row), ()))
        freed.sort()
        positions = [slot - bisect_left(removed, slot) for slot in freed]
        for slot in freed:
            insort(removed, slot)
        self.seen -= len(freed)
        if len(removed) > self.seen:
            # Vacated slots outnumber live rows: renumber from scratch
            # (one pass, paid for by the removals since the last one).
            slots.clear()
            self.shared.clear()
            removed.clear()
            self.seen = 0
        return positions


class Instance:
    """A database state: named relations of rows.

    The optional ``schema`` enables typed insertion
    (:meth:`insert_object`) and validation; an instance can also live
    schema-free, which the logic layer uses for chase intermediates.
    """

    def __init__(self, schema: Optional[Schema] = None):
        self.schema = schema
        self.relations: dict[str, list[Row]] = {}
        # Persistent index caches.  Validated per access against the
        # backing list's identity and length plus ``_dirty_epoch``, so
        # appends extend incrementally, removals through remove_rows
        # retract in place, and replacements and declared in-place
        # mutations trigger a rebuild.
        self._attr_indexes: dict[tuple[str, str], _AttrIndex] = {}
        self._projection_sets: dict[tuple[str, tuple[str, ...]], _ProjectionSet] = {}
        self._batches: dict[str, _BatchEntry] = {}
        self._relation_stats: dict[str, _StatsEntry] = {}
        self._slot_maps: dict[str, _SlotMap] = {}
        self._dirty_epoch = 0
        # Index-maintenance counters.  Writers append interned event
        # names to ``_stat_events`` (a single ``list.append``, atomic
        # under the GIL, so writers on threads a caller starts never
        # lose an increment); reads, and a writer that finds
        # ``_MAX_PENDING_STAT_EVENTS`` pending, fold the pending events
        # into the totals under ``_stats_lock``.  See the
        # :attr:`index_stats` property.
        self._index_stats = {
            "hits": 0, "extends": 0, "rebuilds": 0, "removes": 0,
            "stats_hits": 0, "stats_extends": 0, "stats_rebuilds": 0,
        }
        self._stat_events: list[str] = []
        self._stats_lock = threading.Lock()

    def __getstate__(self):
        # Locks are neither picklable nor deepcopy-able; the copy gets
        # a fresh one (counter state itself transfers fine).  Slot maps
        # are keyed by id(row), and a copy's rows have new ids: the
        # copy starts without them and rebuilds on its first removal.
        state = self.__dict__.copy()
        del state["_stats_lock"]
        state["_slot_maps"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    @property
    def index_stats(self) -> dict[str, int]:
        """Index maintenance counters (hits / extends / rebuilds /
        removes, plus the ``stats_*`` family for relation statistics).

        Safe to read while other threads are mutating the instance's
        indexes: writers only ever append to an event list, and this
        property folds the backlog into the totals under a lock before
        returning them."""
        if self._stat_events:
            self._fold_stat_events()
        return self._index_stats

    def _count(self, event: str) -> None:
        """Record one index-maintenance event (see :attr:`index_stats`)."""
        events = self._stat_events
        events.append(event)
        if len(events) >= _MAX_PENDING_STAT_EVENTS:
            self._fold_stat_events()

    def _fold_stat_events(self) -> None:
        events = self._stat_events
        with self._stats_lock:
            drained = len(events)
            totals = self._index_stats
            for name, count in Counter(events[:drained]).items():
                totals[name] += count
            del events[:drained]

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def insert(self, relation: str, row: Mapping[str, object]) -> Row:
        """Insert ``row`` into ``relation`` (bag semantics; duplicates kept)."""
        stored = dict(row)
        self.relations.setdefault(relation, []).append(stored)
        return stored

    def insert_all(
        self, relation: str, rows: Iterable[Mapping[str, object]]
    ) -> None:
        for row in rows:
            self.insert(relation, row)

    def add(self, relation: str, **values: object) -> Row:
        """Keyword-argument convenience for :meth:`insert`."""
        return self.insert(relation, values)

    def insert_object(self, entity_name: str, **values: object) -> Row:
        """Insert an object of entity type ``entity_name`` into the
        extent of its inheritance root, tagging it with ``$type``.

        Requires a schema.  This is how ER/OO instances are built: the
        paper's Persons entity set holds Person, Employee and Customer
        objects side by side.
        """
        if self.schema is None:
            raise SchemaError("insert_object requires a schema-bound instance")
        entity = self.schema.entity(entity_name)
        if entity.is_abstract:
            raise SchemaError(f"entity {entity_name!r} is abstract")
        legal = set(entity.all_attribute_names())
        unknown = set(values) - legal
        if unknown:
            raise SchemaError(
                f"unknown attributes for {entity_name!r}: {sorted(unknown)}"
            )
        row: Row = {TYPE_FIELD: entity_name}
        row.update(values)
        return self.insert(entity.root().name, row)

    def delete(
        self, relation: str, predicate: Callable[[Row], bool]
    ) -> list[Row]:
        """Remove and return rows of ``relation`` satisfying ``predicate``
        (called once per stored row).

        The removal goes through :meth:`remove_rows`, so the relation's
        caches are updated in place and other relations' caches are
        left alone.  The relation key is dropped entirely when the
        deletion empties it, so absent and emptied relations are
        indistinguishable.
        """
        rows = self.relations.get(relation)
        if rows is None:
            return []
        removed = self.remove_rows(
            relation, [row for row in rows if predicate(row)]
        )
        if not rows:
            del self.relations[relation]
        return removed

    def remove_rows(self, relation: str, rows: Iterable[Row]) -> list[Row]:
        """Remove specific stored rows (matched by *identity*; a row
        object stored more than once loses every copy) and return them
        in stored order, updating every cache of the relation **in
        place** instead of invalidating it.

        A delete batch costs work proportional to the batch, not to the
        relation.  The relation's slot map (:class:`_SlotMap`) gives
        each row's position without a scan.  Each cache retracts the
        removed rows it had already absorbed and lowers its ``seen``
        watermark by their number: postings lists drop the dead rows,
        projection multiplicities are decremented, relation statistics
        are retracted (:meth:`RelationStats.retract`) and the column
        batch is compacted into a new batch.  None of this counts as a
        rebuild in :attr:`index_stats`; ``removes`` counts the rows.
        Last, the backing list drops the rows by position, highest
        first (a batch over ``_DEL_LIMIT`` rows rebuilds it in one pass
        instead), keeping its identity and the survivors' order.
        """
        backing = self.relations.get(relation)
        if backing is None:
            return []
        positions = self._slot_map(relation, backing).take(rows)
        if not positions:
            return []
        removed = [backing[p] for p in positions]
        epoch = self._dirty_epoch

        def covered(entry) -> int:
            """How many of the removed rows ``entry`` has absorbed (0
            for an entry the next access rebuilds anyway)."""
            if entry.source is not backing or entry.epoch != epoch:
                return 0
            return bisect_left(positions, entry.seen)

        for (indexed_relation, attribute), entry in self._attr_indexes.items():
            if indexed_relation != relation:
                continue
            absorbed = covered(entry)
            for row in removed[:absorbed]:
                if attribute not in row:
                    continue
                key = hashable_key(row[attribute])
                posting = entry.postings.get(key)
                if posting is not None:
                    posting[:] = [r for r in posting if r is not row]
                    if not posting:
                        del entry.postings[key]
            entry.seen -= absorbed
        for (indexed_relation, attributes), entry in self._projection_sets.items():
            if indexed_relation != relation:
                continue
            absorbed = covered(entry)
            for row in removed[:absorbed]:
                try:
                    projected = tuple(
                        [hashable_key(row[a]) for a in attributes]
                    )
                except KeyError:
                    continue
                count = entry.members.get(projected, 0) - 1
                if count > 0:
                    entry.members[projected] = count
                else:
                    entry.members.pop(projected, None)
            entry.seen -= absorbed
        entry = self._batches.get(relation)
        if entry is not None:
            absorbed = covered(entry)
            if absorbed:
                entry.batch = entry.batch._without(positions[:absorbed])
                entry.seen -= absorbed
        entry = self._relation_stats.get(relation)
        if entry is not None:
            absorbed = covered(entry)
            if absorbed:
                entry.stats.retract(removed[:absorbed])
                entry.seen -= absorbed
        if len(positions) > _DEL_LIMIT:
            backing[:] = drop_positions(backing, positions)
        else:
            for p in reversed(positions):
                del backing[p]
        events = self._stat_events
        events.extend(["removes"] * len(removed))
        if len(events) >= _MAX_PENDING_STAT_EVENTS:
            self._fold_stat_events()
        return removed

    def _slot_map(self, relation: str, rows: list) -> _SlotMap:
        """The relation's :class:`_SlotMap`, covering every stored row."""
        entry = self._slot_maps.get(relation)
        if (
            entry is None
            or entry.source is not rows
            or entry.epoch != self._dirty_epoch
            or entry.seen > len(rows)
        ):
            entry = _SlotMap(rows, self._dirty_epoch)
            self._slot_maps[relation] = entry
        if entry.seen < len(rows):
            entry.absorb()
        return entry

    def clear(self, relation: str) -> None:
        self.relations[relation] = []
        self.mark_dirty()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def rows(self, relation: str) -> RowsView:
        """A read-only live view of ``relation``'s rows (compares equal
        to plain lists).  Copy with ``list(...)`` before storing
        elsewhere; mutate only through the instance's own methods."""
        return RowsView(self.relations.get(relation, _NO_ROWS))

    def objects_of(
        self,
        entity_name: str,
        strict: bool = False,
        schema: Optional[Schema] = None,
    ) -> list[Row]:
        """Rows whose ``$type`` is (a subtype of) ``entity_name``.

        ``strict=True`` restricts to exactly ``entity_name`` (the
        ``IS OF ONLY`` test of Entity SQL).  ``schema`` overrides the
        instance's bound schema for the is-a lookup — query evaluation
        threads its context schema through here rather than copying the
        whole instance just to rebind it.
        """
        schema = schema if schema is not None else self.schema
        if schema is None:
            raise SchemaError("objects_of requires a schema-bound instance")
        entity = schema.entity(entity_name)
        extent = self.rows(entity.root().name)
        if strict:
            return [r for r in extent if r.get(TYPE_FIELD) == entity_name]
        member_names = {entity.name} | {d.name for d in entity.descendants()}
        return [r for r in extent if r.get(TYPE_FIELD, entity.root().name) in member_names]

    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    def cardinality(self, relation: str) -> int:
        return len(self.relations.get(relation, _NO_ROWS))

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.relations.values())

    @property
    def is_empty(self) -> bool:
        return all(not rows for rows in self.relations.values())

    # ------------------------------------------------------------------
    # persistent indexes
    # ------------------------------------------------------------------
    def mark_dirty(self) -> None:
        """Invalidate all persistent indexes.

        Call after mutating stored row dicts in place (the chase's egd
        substitution does); appends via :meth:`insert` and wholesale
        relation-list replacement are detected without it.
        """
        self._dirty_epoch += 1

    def stats_epoch(self) -> tuple:
        """A hashable token identifying the current statistics state.

        The adaptive plan cache keys optimized plans by
        ``(query fingerprint, stats_epoch())``, so a cached join order
        is re-planned whenever the statistics that justified it may
        have moved: any append, delete or relation-list replacement
        changes the token (via row counts), as does :meth:`mark_dirty`
        (via ``_dirty_epoch``).  Same-length in-place row mutation
        without ``mark_dirty`` is invisible here, exactly as it is to
        the persistent-index contract.
        """
        return (
            self._dirty_epoch,
            tuple(sorted(
                (name, len(rows))
                for name, rows in self.relations.items()
            )),
        )

    def column_batch(self, relation: str) -> ColumnBatch:
        """The columnar image of ``relation``'s rows (see
        :mod:`repro.instances.columnar`), cached and incrementally
        maintained under the persistent-index maintenance contract:
        appends are absorbed in place, :meth:`remove_rows` and
        :meth:`delete` compact the cached batch into a new one, while
        list replacement and :meth:`mark_dirty` trigger a rebuild on
        next access.

        The returned batch is shared — callers must treat it as
        immutable (the vectorized executor copies at its output
        boundary, never in place).  A removal never touches a batch
        already handed out; a later append may extend it."""
        rows = self.relations.get(relation)
        if rows is None:
            return _EMPTY_BATCH
        entry = self._batches.get(relation)
        if (
            entry is None
            or entry.source is not rows
            or entry.epoch != self._dirty_epoch
            or entry.seen > len(rows)
        ):
            entry = _BatchEntry(rows, self._dirty_epoch)
            self._batches[relation] = entry
            self._count("rebuilds")
        elif entry.seen < len(rows):
            self._count("extends")
        else:
            self._count("hits")
            return entry.batch
        if entry.seen == 0:
            entry.batch = ColumnBatch.from_rows(rows)
        else:
            entry.batch._extend_from_rows(rows[entry.seen:])
        entry.seen = len(rows)
        return entry.batch

    def relation_stats(self, relation: str):
        """Row-count / per-column statistics for ``relation`` (see
        :class:`repro.observability.stats.RelationStats`), cached and
        incrementally maintained under the persistent-index contract:
        appends since the last read are absorbed in place,
        :meth:`remove_rows` and :meth:`delete` retract the removed rows
        in place, while list replacement and :meth:`mark_dirty` trigger
        a rebuild on next access (``stats_hits`` / ``stats_extends`` /
        ``stats_rebuilds`` in :attr:`index_stats` count which path each
        read took; retractions count as ``removes``).

        The returned object is shared with the cache — treat it as
        read-only; it feeds the cardinality estimator behind EXPLAIN
        and the ``query`` journal events."""
        from repro.observability.stats import RelationStats

        rows = self.relations.get(relation)
        if rows is None:
            return RelationStats(relation)
        entry = self._relation_stats.get(relation)
        if (
            entry is None
            or entry.source is not rows
            or entry.epoch != self._dirty_epoch
            or entry.seen > len(rows)
        ):
            entry = _StatsEntry(
                rows, self._dirty_epoch, RelationStats(relation)
            )
            self._relation_stats[relation] = entry
            self._count("stats_rebuilds")
        elif entry.seen < len(rows):
            self._count("stats_extends")
        else:
            self._count("stats_hits")
            return entry.stats
        entry.stats.absorb(rows[entry.seen:])
        entry.seen = len(rows)
        return entry.stats

    def _attr_entry(self, relation: str, attribute: str) -> Optional[_AttrIndex]:
        rows = self.relations.get(relation)
        if rows is None:
            return None
        key = (relation, attribute)
        entry = self._attr_indexes.get(key)
        if (
            entry is None
            or entry.source is not rows
            or entry.epoch != self._dirty_epoch
            or entry.seen > len(rows)
        ):
            entry = _AttrIndex(rows, self._dirty_epoch)
            self._attr_indexes[key] = entry
            self._count("rebuilds")
        elif entry.seen < len(rows):
            self._count("extends")
        else:
            self._count("hits")
            return entry
        postings = entry.postings
        for row in rows[entry.seen:]:
            if attribute in row:
                postings.setdefault(
                    hashable_key(row[attribute]), []
                ).append(row)
        entry.seen = len(rows)
        return entry

    def index_lookup(
        self, relation: str, attribute: str, value: object
    ) -> Sequence[Row]:
        """Rows of ``relation`` whose ``attribute`` equals ``value``,
        served from the incrementally maintained postings index."""
        entry = self._attr_entry(relation, attribute)
        if entry is None:
            return _NO_ROWS
        return entry.postings.get(hashable_key(value), _NO_ROWS)

    def postings(self, relation: str, attribute: str) -> dict:
        """The up-to-date postings index of ``relation`` on
        ``attribute`` (``hashable_key(value)`` → rows carrying it), or
        an empty dict when the relation is absent.

        This is the bulk form of :meth:`index_lookup`: the chase's
        compiled plans fetch it once per step and probe it per binding.
        Like :meth:`projection_entry` it is a point-in-time view — rows
        appended later show up on the next fetch — and callers must not
        mutate it."""
        entry = self._attr_entry(relation, attribute)
        return entry.postings if entry is not None else {}

    def projection_entry(
        self, relation: str, attributes: tuple[str, ...]
    ) -> Optional[_ProjectionSet]:
        """The up-to-date projection index of ``relation`` onto
        ``attributes``, or ``None`` when the relation is absent.

        This is the bulk form of :meth:`projection_member`: callers
        probing many tuples in a tight loop (the chase's full head
        checks) fetch the entry once and test
        ``values in entry.members`` directly.  The entry is a
        point-in-time view — rows appended after the call are only
        visible on the next fetch — and its ``members`` dict must not
        be mutated by callers.
        """
        rows = self.relations.get(relation)
        if rows is None:
            return None
        key = (relation, attributes)
        entry = self._projection_sets.get(key)
        if (
            entry is None
            or entry.source is not rows
            or entry.epoch != self._dirty_epoch
            or entry.seen > len(rows)
        ):
            entry = _ProjectionSet(rows, self._dirty_epoch)
            self._projection_sets[key] = entry
            self._count("rebuilds")
        elif entry.seen < len(rows):
            self._count("extends")
        else:
            self._count("hits")
            return entry
        members = entry.members
        for row in rows[entry.seen:]:
            try:
                projected = tuple([hashable_key(row[a]) for a in attributes])
            except KeyError:
                continue  # row lacks one of the attributes: no match
            members[projected] = members.get(projected, 0) + 1
        entry.seen = len(rows)
        return entry

    def projection_member(
        self, relation: str, attributes: tuple[str, ...], values: tuple
    ) -> bool:
        """Is there a row of ``relation`` whose projection onto
        ``attributes`` equals ``values`` (already ``hashable_key``-mapped)?

        The one-off form of :meth:`projection_entry`, which the chase
        uses to check full head atoms without a homomorphism search.
        """
        entry = self.projection_entry(relation, attributes)
        if entry is None:
            return False
        return values in entry.members

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def active_domain(self) -> set[object]:
        """All constants appearing in the instance (labeled nulls excluded)."""
        domain: set[object] = set()
        for rows in self.relations.values():
            for row in rows:
                for key, value in row.items():
                    if key != TYPE_FIELD and not isinstance(value, LabeledNull):
                        if value is not None:
                            domain.add(value)
        return domain

    def nulls(self) -> set[LabeledNull]:
        """All labeled nulls appearing in the instance."""
        found: set[LabeledNull] = set()
        for rows in self.relations.values():
            for row in rows:
                for value in row.values():
                    if isinstance(value, LabeledNull):
                        found.add(value)
        return found

    def has_nulls(self) -> bool:
        return bool(self.nulls())

    def substitute(self, mapping: Mapping[LabeledNull, object]) -> "Instance":
        """A new instance with labeled nulls replaced per ``mapping``
        (used when egds equate nulls with constants or other nulls)."""
        result = Instance(self.schema)
        for relation, rows in self.relations.items():
            for row in rows:
                result.insert(
                    relation,
                    {
                        k: mapping.get(v, v) if isinstance(v, LabeledNull) else v
                        for k, v in row.items()
                    },
                )
        return result

    def without_null_rows(self) -> "Instance":
        """Drop rows containing labeled nulls — the 'certain part' used
        when returning answers to users (nulls may not be returned)."""
        result = Instance(self.schema)
        for relation, rows in self.relations.items():
            result.relations[relation] = [
                dict(row)
                for row in rows
                if not any(isinstance(v, LabeledNull) for v in row.values())
            ]
        return result

    # ------------------------------------------------------------------
    # comparison & copies
    # ------------------------------------------------------------------
    def copy(self) -> "Instance":
        result = Instance(self.schema)
        for relation, rows in self.relations.items():
            result.relations[relation] = [dict(row) for row in rows]
        return result

    def as_sets(self) -> dict[str, set[frozenset]]:
        """Set-semantics image: relation name → set of frozen rows."""
        return {
            relation: {freeze_row(row) for row in rows}
            for relation, rows in self.relations.items()
            if rows
        }

    def set_equal(self, other: "Instance") -> bool:
        """Equality under set semantics (duplicates and order ignored)."""
        return self.as_sets() == other.as_sets()

    def contains_instance(self, other: "Instance") -> bool:
        """True if every row of ``other`` appears here (set semantics)."""
        mine = self.as_sets()
        for relation, rows in other.as_sets().items():
            if not rows <= mine.get(relation, set()):
                return False
        return True

    def union(self, other: "Instance") -> "Instance":
        result = self.copy()
        for relation, rows in other.relations.items():
            result.insert_all(relation, rows)
        return result

    def deduplicated(self) -> "Instance":
        """A copy with exact duplicate rows removed per relation."""
        result = Instance(self.schema)
        for relation, rows in self.relations.items():
            seen: set[frozenset] = set()
            for row in rows:
                frozen = freeze_row(row)
                if frozen not in seen:
                    seen.add(frozen)
                    result.insert(relation, row)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.set_equal(other)

    def __hash__(self) -> int:  # pragma: no cover - instances are mutable
        raise TypeError("Instance is unhashable")

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(rows)}" for name, rows in sorted(self.relations.items())
        )
        return f"<Instance {parts or 'empty'}>"

    def __iter__(self) -> Iterator[tuple[str, Row]]:
        for relation in sorted(self.relations):
            for row in self.relations[relation]:
                yield relation, row

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def show(self, relation: Optional[str] = None) -> str:
        """ASCII tables for one or all relations (examples print these)."""
        names = [relation] if relation else self.relation_names()
        blocks = []
        for name in names:
            rows = self.rows(name)
            columns: list[str] = []
            for row in rows:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            header = " | ".join(columns)
            lines = [f"{name} ({len(rows)} rows)", header, "-" * max(len(header), 1)]
            for row in rows:
                lines.append(
                    " | ".join(str(row.get(c, "")) for c in columns)
                )
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)
