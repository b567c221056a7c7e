"""Columnar batch storage for relation extents.

A :class:`ColumnBatch` is the column-oriented image of one relation's
row list: parallel Python-list columns in first-seen column order, a
per-column *presence* mask distinguishing "the row has no such key"
from "the key is present with value ``None``", a lazily computed null
bitmap (SQL ``NULL`` cells), and a lazily computed side table of the
labeled nulls (:class:`~repro.instances.labeled_null.LabeledNull`)
appearing in the column.  Labeled nulls are stored *inline* in the
value list — they are ordinary join-key-able values to the algebra —
while the side table gives bulk operators (and diagnostics) an O(1)
answer to "which cells of this column are labeled nulls?" without a
rescan.

Row dicts remain the source of truth: instances keep storing
``list[Row]`` and the chase / interpreted engine / persistent indexes
never see a batch.  :meth:`Instance.column_batch` materializes the
columnar image on demand and keeps it under the instance's one cache
protocol, like the postings and statistics — appends extend it in
place, removals compact it into a new batch (see ``docs/COLUMNAR.md``
for the layout and the compatibility contract).

Batches handed to the vectorized executor are **immutable by
convention**: operator stages build new value lists (or share existing
ones — sharing is safe precisely because nothing mutates them) and
fresh row dicts are built only once, at the plan boundary
(:meth:`ColumnBatch.to_rows`).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.instances.labeled_null import LabeledNull

Row = dict[str, object]


class Column:
    """One named column of a batch: a parallel value list plus masks.

    ``values[i]`` is the cell value, with ``None`` standing in for both
    SQL ``NULL`` and *absent* (row lacks the key); ``present`` is
    ``None`` when every row carries the key, else a bytearray of 0/1
    flags.  ``null_mask()``, ``labels()``, ``unique()``, ``clean()``
    and ``hashable()`` are derived, cached views.
    """

    __slots__ = (
        "values", "present", "_null_mask", "_labels", "_unique", "_clean",
        "_hashable",
    )

    def __init__(self, values: list, present: Optional[bytearray] = None):
        self.values = values
        self.present = present
        self._null_mask: Optional[bytearray] = None
        self._labels: Optional[dict[int, LabeledNull]] = None
        self._unique: Optional[bool] = None
        self._clean: Optional[bool] = None
        # True/False once known; until then, the Column a take,
        # compress or gather drew this one from (see hashable()).
        self._hashable: Optional[object] = None

    @property
    def full(self) -> bool:
        """True when every row carries this column's key."""
        return self.present is None

    def null_mask(self) -> bytearray:
        """Null bitmap: 1 where the cell is a *present* SQL ``NULL``
        (absent cells are not nulls — they are no cell at all)."""
        mask = self._null_mask
        if mask is None:
            present = self.present
            if present is None:
                mask = bytearray(v is None for v in self.values)
            else:
                mask = bytearray(
                    p and v is None for v, p in zip(self.values, present)
                )
            self._null_mask = mask
        return mask

    def labels(self) -> dict[int, LabeledNull]:
        """Side table of labeled nulls: row position → the null stored
        there.  Labeled nulls also sit inline in ``values`` (they join
        and group by label); this view exists so bulk consumers can
        find them without scanning."""
        table = self._labels
        if table is None:
            table = {
                i: v
                for i, v in enumerate(self.values)
                if isinstance(v, LabeledNull)
            }
            self._labels = table
        return table

    def unique(self) -> bool:
        """True when every row carries the column and its values are
        pairwise distinct under ``==``/``hash`` (so ``1``, ``True`` and
        ``1.0`` collide, and so do two ``None`` cells or two labeled
        nulls of one label).  Any batch holding such a column has no two
        equal rows.  An unhashable cell makes it False."""
        fact = self._unique
        if fact is None:
            fact = False
            if self.present is None:
                values = self.values
                try:
                    fact = len(set(values)) == len(values)
                    self._hashable = True
                except TypeError:
                    self._hashable = False
            self._unique = fact
        return fact

    def clean(self) -> bool:
        """True when no present cell is a SQL ``NULL`` and no cell is a
        labeled null, so the values are their own join keys."""
        fact = self._clean
        if fact is None:
            fact = self._clean = (not self.labels()
                                  and not any(self.null_mask()))
        return fact

    def hashable(self) -> bool:
        """True when every cell hashes (absent cells hold ``None``).

        A column that :meth:`take`, :meth:`compress` or :meth:`gather`
        drew from another one asks that source first: its cells are
        among the source's, and a source column only ever grows by
        appends, so the fact a scanned column caches serves every copy
        drawn from it."""
        fact = self._hashable
        if fact is True or fact is False:
            return fact
        if fact is not None and fact.hashable():
            fact = True
        else:
            try:
                hash(tuple(self.values))
                fact = True
            except TypeError:
                fact = False
        self._hashable = fact
        return fact

    def _invalidate(self) -> None:
        self._null_mask = None
        self._labels = None
        self._unique = None
        self._clean = None
        self._hashable = None

    def _carry(self, out: "Column", distinct: bool = True) -> "Column":
        """``out`` holds cells of this full column: a known-true
        ``clean()`` holds there too, and so does ``unique()`` when the
        cells come from ``distinct`` positions; ``hashable()`` defers to
        this column.  No fact is computed here."""
        out._unique = (self._unique or None) if distinct else None
        out._clean = self._clean or None
        out._hashable = True if self._hashable is True else self
        return out

    def gather(self, indices: Sequence[int]) -> "Column":
        """The cells of this full column at ``indices``, which may
        repeat (a join's gather)."""
        values = self.values
        return self._carry(Column([values[i] for i in indices]),
                           distinct=False)

    def take(self, indices: Sequence[int]) -> "Column":
        """The cells at ``indices``, which must be distinct positions."""
        values = self.values
        present = self.present
        if present is None:
            return self._carry(Column([values[i] for i in indices]))
        picked = bytearray(present[i] for i in indices)
        # Normalize: if every surviving row carries the key, the result
        # is a full column (downstream fast paths key off ``present``).
        if all(picked):
            picked = None
        return Column([values[i] for i in indices], picked)

    def compress(self, mask: Sequence) -> "Column":
        values = self.values
        present = self.present
        if present is None:
            return self._carry(
                Column([v for v, keep in zip(values, mask) if keep])
            )
        kept = [
            (v, p) for v, p, keep in zip(values, present, mask) if keep
        ]
        picked = bytearray(p for _, p in kept)
        if all(picked):
            picked = None
        return Column([v for v, _ in kept], picked)


class ColumnBatch:
    """A columnar snapshot of one row list.

    ``names`` fixes the column order (first-seen across the source
    rows — the same discovery order the interpreter uses), ``cols`` maps
    each name to its :class:`Column`, and ``nrows`` is the row count
    (``len(batch)`` — every column's value list has exactly this
    length).
    """

    __slots__ = ("nrows", "names", "cols")

    def __init__(
        self,
        names: tuple[str, ...],
        cols: dict[str, Column],
        nrows: int,
    ):
        self.names = names
        self.cols = cols
        self.nrows = nrows

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, object]]) -> "ColumnBatch":
        """Build a batch from row dicts (heterogeneous shapes allowed)."""
        if not rows:
            return cls((), {}, 0)
        first = rows[0]
        names = tuple(first)
        # Fast path: homogeneous rows (same key set; order may differ).
        ncols = len(names)
        try:
            cols = {name: [r[name] for r in rows] for name in names}
        except KeyError:
            cols = None
        if cols is not None and all(len(r) == ncols for r in rows):
            return cls(
                names, {name: Column(values) for name, values in cols.items()},
                len(rows),
            )
        batch = cls((), {}, 0)
        batch._absorb(rows)
        return batch

    @classmethod
    def from_homogeneous_rows(
        cls, rows: Sequence[Mapping[str, object]], names: tuple[str, ...]
    ) -> "ColumnBatch":
        """Build from rows known to all carry exactly ``names`` (the
        output of a shaped operator stage) — skips shape detection."""
        return cls(
            names,
            {name: Column([r[name] for r in rows]) for name in names},
            len(rows),
        )

    @classmethod
    def empty(cls, names: tuple[str, ...] = ()) -> "ColumnBatch":
        return cls(names, {name: Column([]) for name in names}, 0)

    # ------------------------------------------------------------------
    # row-view boundary
    # ------------------------------------------------------------------
    def to_rows(self) -> list[Row]:
        """Fresh row dicts (batch column order; absent cells omitted).

        This is the row-view compatibility boundary: the dicts are
        newly built on every call, so callers may mutate them freely
        without aliasing batch storage."""
        names = self.names
        if not names:
            return [{} for _ in range(self.nrows)]
        cols = [self.cols[name] for name in names]
        if all(c.present is None for c in cols):
            value_lists = [c.values for c in cols]
            # Literal dict displays beat dict(zip(...)) by ~2x; narrow
            # batches dominate the workloads, so specialize them.
            if len(names) == 1:
                (n0,), (v0,) = names, value_lists
                return [{n0: a} for a in v0]
            if len(names) == 2:
                n0, n1 = names
                return [{n0: a, n1: b} for a, b in zip(*value_lists)]
            if len(names) == 3:
                n0, n1, n2 = names
                return [
                    {n0: a, n1: b, n2: c} for a, b, c in zip(*value_lists)
                ]
            if len(names) == 4:
                n0, n1, n2, n3 = names
                return [
                    {n0: a, n1: b, n2: c, n3: d}
                    for a, b, c, d in zip(*value_lists)
                ]
            return [
                dict(zip(names, cells)) for cells in zip(*value_lists)
            ]
        out: list[Row] = []
        append = out.append
        columns = [
            (name, c.values, c.present) for name, c in zip(names, cols)
        ]
        for i in range(self.nrows):
            row: Row = {}
            for name, values, present in columns:
                if present is None or present[i]:
                    row[name] = values[i]
            append(row)
        return out

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    @property
    def full(self) -> bool:
        """True when every column is fully present (homogeneous rows)."""
        return all(c.present is None for c in self.cols.values())

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        return ColumnBatch(
            self.names,
            {name: c.take(indices) for name, c in self.cols.items()},
            len(indices),
        )

    def compress(self, mask: Sequence) -> "ColumnBatch":
        cols = {name: c.compress(mask) for name, c in self.cols.items()}
        if cols:
            nrows = len(next(iter(cols.values())).values)
        else:
            nrows = sum(1 for keep in mask if keep)
        return ColumnBatch(self.names, cols, nrows)

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:
        return (
            f"<ColumnBatch rows={self.nrows} "
            f"cols=[{', '.join(self.names)}]>"
        )

    # ------------------------------------------------------------------
    # incremental maintenance (Instance-private contract)
    # ------------------------------------------------------------------
    def _absorb(self, rows: Sequence[Mapping[str, object]]) -> None:
        """Append ``rows`` to this batch **in place**: columns first
        seen in ``rows`` join with no cell in the earlier rows, then
        every column takes one cell (``None`` where the row lacks the
        key) and one presence flag per row.

        Builds a heterogeneous batch in :meth:`from_rows`; otherwise
        only the instance's batch cache calls this (see
        :meth:`Instance.column_batch`).  Operator stages never mutate
        batches."""
        if not rows:
            return
        old = self.nrows
        cols = self.cols
        new_names: dict[str, None] = {}
        for row in rows:
            for key in row:
                if key not in cols and key not in new_names:
                    new_names[key] = None
        for name in new_names:
            cols[name] = Column([None] * old, bytearray(old) if old else None)
        for name, col in cols.items():
            append = col.values.append
            grown = bytearray(len(rows))
            absent = False
            for i, row in enumerate(rows):
                try:
                    append(row[name])
                    grown[i] = 1
                except KeyError:
                    append(None)
                    absent = True
            if col.present is not None:
                col.present.extend(grown)
            elif absent:
                col.present = bytearray([1]) * old + grown
            col._invalidate()
        if new_names:
            self.names = self.names + tuple(new_names)
        self.nrows = old + len(rows)

    def _without(self, positions: Sequence[int]) -> "ColumnBatch":
        """A new batch minus the rows at ``positions`` (ascending).

        Only the instance's batch cache calls this, to retract the rows
        :meth:`Instance.remove_rows` removes.  Every column
        gets new value lists (slices, not copies of the whole batch
        followed by deletes), so batches already handed out keep their
        contents; presence masks normalize as in :meth:`Column.take`,
        and a column no surviving row carries is dropped."""
        nrows = self.nrows - len(positions)
        names: list[str] = []
        cols: dict[str, Column] = {}
        for name in self.names:
            col = self.cols[name]
            present = col.present
            if present is not None:
                present = drop_positions(present, positions)
                if 1 not in present:
                    continue
                if 0 not in present:
                    present = None
            elif not nrows:
                continue
            cols[name] = Column(drop_positions(col.values, positions), present)
            names.append(name)
        return ColumnBatch(tuple(names), cols, nrows)


def drop_positions(seq, positions: Sequence[int]):
    """A new list (or bytearray) of ``seq`` minus the ascending
    ``positions``, assembled from the slices between them."""
    out = seq[:positions[0]]
    start = positions[0] + 1
    for p in positions[1:]:
        out += seq[start:p]
        start = p + 1
    out += seq[start:]
    return out
