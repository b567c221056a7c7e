"""In-memory database instances.

An :class:`Instance` is the concrete representation of a database state
``D`` in the paper's instance-level semantics: a finite set of named
relations, each a bag of rows (``dict`` from attribute name to value).

Entity sets with inheritance (ER/OO schemas) store each object in the
extent of its *root* entity, with the reserved column ``$type`` naming
the object's most specific type — exactly the information the ``IS OF``
predicate of Entity SQL (paper, Figure 2) needs.

Instances also keep **caches derived from each relation's rows**, all
under one protocol (:class:`_Cache`): value postings per attribute and
projection multiplicities per attribute tuple (the homomorphism search
and the semi-naive chase), the column batch (the vectorized executor),
relation statistics (the optimizer's estimates) and the slot map (row
positions for removals).  A relation's caches stand while its backing
list is the one they were built from and no
:meth:`Instance.mark_dirty` came since; each absorbs the rows appended
past its ``seen`` watermark on its next read, and retracts in place
the rows :meth:`Instance.remove_rows` (and :meth:`Instance.delete`)
removes.  So appends through :meth:`Instance.insert` and wholesale list
replacement via ``relations[r] = [...]`` are detected automatically;
code that mutates stored row dicts *in place* must call
:meth:`Instance.mark_dirty` afterwards or the caches go stale.
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
# The statistics module imports this package (for LabeledNull), so bind
# the module: ``RelationStats`` resolves when a cache is first built.
from repro.observability import stats as _statistics

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


class _Cache:
    """One cache an :class:`Instance` derives from a relation's rows.

    A cache holds the first ``seen`` rows of the relation's backing
    list.  :meth:`absorb` folds in rows appended past that watermark,
    and :meth:`retract` takes back rows it had absorbed when
    :meth:`Instance.remove_rows` removes them (with their ascending
    positions).  ``Instance._cache`` is the one place that checks a
    cache's validity, counts the read under the kind's ``HITS`` /
    ``EXTENDS`` / ``REBUILDS`` names in :attr:`Instance.index_stats`
    (``None``: not counted) and absorbs."""

    __slots__ = ("seen",)

    HITS, EXTENDS, REBUILDS = "hits", "extends", "rebuilds"

    def __init__(self) -> None:
        self.seen = 0

    def absorb(self, rows: Sequence[Row]) -> None:
        raise NotImplementedError

    def retract(self, positions: list[int], rows: list[Row]) -> None:
        raise NotImplementedError


class _Postings(_Cache):
    """Value postings of one attribute: ``hashable_key(value)`` → the
    rows carrying it, in stored order (rows lacking the attribute are
    skipped)."""

    __slots__ = ("attribute", "postings")

    def __init__(self, relation: str, attribute: str):
        super().__init__()
        self.attribute = attribute
        self.postings: dict[object, list[Row]] = {}

    def absorb(self, rows: Sequence[Row]) -> None:
        attribute = self.attribute
        postings = self.postings
        for row in rows:
            if attribute in row:
                postings.setdefault(
                    hashable_key(row[attribute]), []
                ).append(row)

    def retract(self, positions: list[int], rows: list[Row]) -> None:
        attribute = self.attribute
        postings = self.postings
        for row in rows:
            if attribute not in row:
                continue
            key = hashable_key(row[attribute])
            posting = postings.get(key)
            if posting is not None:
                posting[:] = [r for r in posting if r is not row]
                if not posting:
                    del postings[key]


class _Projection(_Cache):
    """Membership of one relation's rows projected onto an attribute
    tuple (``hashable_key``-mapped; rows lacking any of the attributes
    are skipped).  ``members`` maps each projected tuple to its
    multiplicity, so a removal retracts one row without losing
    membership for surviving duplicates."""

    __slots__ = ("attributes", "members")

    def __init__(self, relation: str, attributes: tuple[str, ...]):
        super().__init__()
        self.attributes = attributes
        self.members: dict[tuple, int] = {}

    def absorb(self, rows: Sequence[Row]) -> None:
        attributes = self.attributes
        members = self.members
        for row in rows:
            try:
                projected = tuple([hashable_key(row[a]) for a in attributes])
            except KeyError:
                continue  # row lacks one of the attributes: no match
            members[projected] = members.get(projected, 0) + 1

    def retract(self, positions: list[int], rows: list[Row]) -> None:
        attributes = self.attributes
        members = self.members
        for row in rows:
            try:
                projected = tuple([hashable_key(row[a]) for a in attributes])
            except KeyError:
                continue
            count = members.get(projected, 0) - 1
            if count > 0:
                members[projected] = count
            else:
                members.pop(projected, None)


class _Batch(_Cache):
    """The relation's :class:`ColumnBatch` (see
    :meth:`Instance.column_batch`): appends extend it in place, and a
    removal swaps in a compacted batch, so batches already handed out
    keep their contents."""

    __slots__ = ("batch",)

    def __init__(self, relation: str, key: object):
        super().__init__()
        self.batch = ColumnBatch((), {}, 0)

    def absorb(self, rows: Sequence[Row]) -> None:
        if self.seen:
            self.batch._absorb(rows)
        else:
            self.batch = ColumnBatch.from_rows(rows)

    def retract(self, positions: list[int], rows: list[Row]) -> None:
        self.batch = self.batch._without(positions)


class _Stats(_Cache):
    """The relation's :class:`~repro.observability.stats.RelationStats`
    (see :meth:`Instance.relation_stats`), counted under its own
    ``stats_*`` names."""

    __slots__ = ("stats",)

    HITS = "stats_hits"
    EXTENDS = "stats_extends"
    REBUILDS = "stats_rebuilds"

    def __init__(self, relation: str, key: object):
        super().__init__()
        self.stats = _statistics.RelationStats(relation)

    def absorb(self, rows: Sequence[Row]) -> None:
        self.stats.absorb(rows)

    def retract(self, positions: list[int], rows: list[Row]) -> None:
        self.stats.retract(rows)


class _SlotMap(_Cache):
    """Row positions of one relation without a scan, which
    :meth:`Instance.remove_rows` removes by.  Its reads are not
    counted.

    Every row the map has seen holds a *slot*: its position when the
    map last renumbered, or its arrival order since.  ``slots`` maps
    ``id(row)`` to the slot (``shared`` keeps the extra slots of a row
    object stored more than once) and ``removed`` is the sorted list of
    slots vacated since the last renumbering, so a row's current
    position is its slot minus the removed slots below it.  ``taken``
    holds the slots the last :meth:`take` released, which
    :meth:`retract` marks vacated.  Keys are ``id()`` values, which a copy of the
    instance does not share, so a copied map comes back empty and
    absorbs every row on first use."""

    __slots__ = ("slots", "shared", "removed", "taken")

    HITS = EXTENDS = REBUILDS = None

    def __init__(self, relation: object, key: object):
        super().__init__()
        self.slots: dict[int, int] = {}
        self.shared: dict[int, list[int]] = {}
        self.removed: list[int] = []
        self.taken: list[int] = []

    def __reduce__(self):
        return (_SlotMap, (None, None))

    def absorb(self, rows: Sequence[Row]) -> None:
        slots = self.slots
        slot = self.seen + len(self.removed)
        for row in rows:
            key = id(row)
            if key in slots:
                self.shared.setdefault(key, []).append(slot)
            else:
                slots[key] = slot
            slot += 1

    def take(self, rows: Iterable[Row]) -> list[int]:
        """Release the slots of the stored rows among ``rows`` and return
        their current positions, ascending and each once."""
        slots = self.slots
        taken: list[int] = []
        for row in rows:
            slot = slots.pop(id(row), None)
            if slot is None:
                continue  # not stored here, or named twice
            taken.append(slot)
            if self.shared:
                taken.extend(self.shared.pop(id(row), ()))
        taken.sort()
        self.taken = taken
        removed = self.removed
        return [slot - bisect_left(removed, slot) for slot in taken]

    def retract(self, positions: list[int], rows: list[Row]) -> None:
        removed = self.removed
        for slot in self.taken:
            insort(removed, slot)
        if len(removed) > self.seen:
            # Vacated slots outnumber live rows: renumber from scratch
            # (one pass, paid for by the removals since the last one).
            self.slots.clear()
            self.shared.clear()
            removed.clear()
            self.seen = 0


class _RelationCaches(dict):
    """One relation's caches, keyed by attribute (postings), attribute
    tuple (projections) or kind (one per relation), all built from the
    backing list ``source`` under dirty epoch ``epoch``."""

    __slots__ = ("source", "epoch")

    def __init__(self, source: list, epoch: int):
        super().__init__()
        self.source = source
        self.epoch = epoch


class Instance:
    """A database state: named relations of rows.

    The optional ``schema`` enables typed insertion
    (:meth:`insert_object`) and validation; an instance can also live
    schema-free, which the logic layer uses for chase intermediates.
    """

    def __init__(self, schema: Optional[Schema] = None):
        self.schema = schema
        self.relations: dict[str, list[Row]] = {}
        # Caches derived from each relation's rows (see _cache).
        self._caches: dict[str, _RelationCaches] = {}
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
        # a fresh one (counter state itself transfers fine).
        state = self.__dict__.copy()
        del state["_stats_lock"]
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
        relation.  The relation's slot map (:class:`_SlotMap`) releases
        the rows' slots and gives their positions without a scan.  Then
        each of the relation's caches lowers its ``seen`` watermark by
        the removed rows it had absorbed and retracts them: postings
        lists drop the dead rows, projection multiplicities are
        decremented, relation statistics are retracted
        (:meth:`RelationStats.retract`), the column batch is compacted
        into a new batch and the slot map marks their slots vacated.
        None of this counts as a rebuild in :attr:`index_stats`;
        ``removes`` counts the rows.  Last, the backing list drops the
        rows by position, highest first (a batch over ``_DEL_LIMIT``
        rows rebuilds it in one pass instead), keeping its identity and
        the survivors' order.
        """
        slot_map = self._cache(relation, _SlotMap, _SlotMap)
        if slot_map is None:
            return []
        positions = slot_map.take(rows)
        if not positions:
            return []
        backing = self.relations[relation]
        removed = [backing[p] for p in positions]
        for entry in self._caches[relation].values():
            absorbed = bisect_left(positions, entry.seen)
            if absorbed:
                entry.seen -= absorbed
                entry.retract(positions[:absorbed], removed[:absorbed])
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
    # caches (see _Cache)
    # ------------------------------------------------------------------
    def mark_dirty(self) -> None:
        """Invalidate every cache of every relation.

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
        the caches.
        """
        return (
            self._dirty_epoch,
            tuple(sorted(
                (name, len(rows))
                for name, rows in self.relations.items()
            )),
        )

    def _cache(self, relation: str, kind: type, key: object):
        """The up-to-date cache of ``kind`` stored under ``key`` among
        ``relation``'s caches, or ``None`` when the relation is absent.

        The one validity check of the cache protocol (see
        :class:`_Cache`).  A relation's caches stand while its backing
        list is the one they were built from and no :meth:`mark_dirty`
        came since; otherwise they are all dropped.  A cache is rebuilt
        when absent or when its watermark passes the list's length
        (rows removed behind the instance's back), extended when rows
        were appended past it, and a hit otherwise; the read counts
        under the kind's event name before the cache absorbs."""
        rows = self.relations.get(relation)
        if rows is None:
            return None
        caches = self._caches.get(relation)
        if (
            caches is None
            or caches.source is not rows
            or caches.epoch != self._dirty_epoch
        ):
            caches = _RelationCaches(rows, self._dirty_epoch)
            self._caches[relation] = caches
        entry = caches.get(key)
        count = len(rows)
        if entry is None or entry.seen > count:
            entry = caches[key] = kind(relation, key)
            event = kind.REBUILDS
        elif entry.seen < count:
            event = kind.EXTENDS
        else:
            event = kind.HITS
        if event is not None:
            events = self._stat_events
            events.append(event)
            if len(events) >= _MAX_PENDING_STAT_EVENTS:
                self._fold_stat_events()
        seen = entry.seen
        if seen < count:
            entry.absorb(rows[seen:] if seen else rows)
            entry.seen = count
        return entry

    def column_batch(self, relation: str) -> ColumnBatch:
        """The columnar image of ``relation``'s rows (see
        :mod:`repro.instances.columnar`), cached under the cache
        protocol (:meth:`_cache`): appends are absorbed in place,
        :meth:`remove_rows` and :meth:`delete` compact the cached batch
        into a new one, while list replacement and :meth:`mark_dirty`
        trigger a rebuild on next access.

        The returned batch is shared — callers must treat it as
        immutable (the vectorized executor copies at its output
        boundary, never in place).  A removal never touches a batch
        already handed out; a later append may extend it."""
        entry = self._cache(relation, _Batch, _Batch)
        return _EMPTY_BATCH if entry is None else entry.batch

    def relation_stats(self, relation: str):
        """Row-count / per-column statistics for ``relation`` (see
        :class:`repro.observability.stats.RelationStats`), cached under
        the cache protocol (:meth:`_cache`): appends since the last read
        are absorbed in place, :meth:`remove_rows` and :meth:`delete`
        retract the removed rows in place, while list replacement and
        :meth:`mark_dirty` trigger a rebuild on next access
        (``stats_hits`` / ``stats_extends`` / ``stats_rebuilds`` in
        :attr:`index_stats` count which path each read took;
        retractions count as ``removes``).

        The returned object is shared with the cache — treat it as
        read-only; it feeds the cardinality estimator behind EXPLAIN
        and the ``query`` journal events."""
        entry = self._cache(relation, _Stats, _Stats)
        if entry is None:
            return _statistics.RelationStats(relation)
        return entry.stats

    def index_lookup(
        self, relation: str, attribute: str, value: object
    ) -> Sequence[Row]:
        """Rows of ``relation`` whose ``attribute`` equals ``value``,
        served from the incrementally maintained postings index."""
        entry = self._cache(relation, _Postings, attribute)
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
        entry = self._cache(relation, _Postings, attribute)
        return entry.postings if entry is not None else {}

    def projection_entry(
        self, relation: str, attributes: tuple[str, ...]
    ) -> Optional[_Projection]:
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
        return self._cache(relation, _Projection, attributes)

    def projection_member(
        self, relation: str, attributes: tuple[str, ...], values: tuple
    ) -> bool:
        """Is there a row of ``relation`` whose projection onto
        ``attributes`` equals ``values`` (already ``hashable_key``-mapped)?

        The one-off form of :meth:`projection_entry`, whose ``members``
        the chase fetches once per step and probes directly.
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
