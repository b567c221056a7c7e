"""Per-relation statistics: the substrate for cardinality estimation.

The ROADMAP's cost-based-optimization item needs per-relation
cardinalities, per-column distinct counts and value distributions, and
*feedback* (estimate vs. actual divergence).  This module holds the
data model; the instances layer maintains it (see
:meth:`repro.instances.database.Instance.relation_stats`, which caches
a :class:`RelationStats` per relation under the instance's one cache
protocol, like the postings and column batches: appends absorbed in
place, removals retracted in place, epoch bumps and list replacement
rebuilding), and
:mod:`repro.algebra.estimate` consumes it.

A :class:`ColumnStats` keeps an exact value→count map (the engine's
relations are small enough that a full frequency table is cheaper than
maintaining an approximate sketch would be to get right), which yields
distinct counts, null/labeled-null fractions, min/max over ordered
values, and a most-common-values view — everything the classical
selectivity rules need.

The :data:`ESTIMATION` config also lives here: the divergence factor
beyond which an EXPLAIN ANALYZE node is flagged (the hook the
PlanCache evict/refingerprint feedback loop will key on) and the
most-common-values sketch size.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.instances.labeled_null import LabeledNull

#: Number kinds that participate in min/max tracking together
#: (``bool`` is an ``int`` in Python and orders with numbers).
_NUMERIC = (int, float)


class EstimationConfig:
    """Tunables for the estimator and its divergence flagging."""

    __slots__ = ("divergence_factor", "mcv_size")

    DEFAULT_DIVERGENCE_FACTOR = 4.0
    DEFAULT_MCV_SIZE = 8

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.divergence_factor = self.DEFAULT_DIVERGENCE_FACTOR
        self.mcv_size = self.DEFAULT_MCV_SIZE


#: Process-wide estimator configuration (reset by
#: :func:`repro.observability.reset`).
ESTIMATION = EstimationConfig()


def _stat_key(value: object) -> object:
    """A hashable frequency-table key for an arbitrary cell value —
    the same images :func:`repro.instances.database.hashable_key`
    produces, computed here without importing the instances layer
    (which imports us lazily)."""
    try:
        hash(value)
    except TypeError:
        return ("<unhashable>", repr(value))
    return value


def display_key(key: object) -> object:
    """The human-facing form of a frequency-table key."""
    if isinstance(key, tuple) and len(key) == 2 and key[0] == "<unhashable>":
        return key[1]
    return key


class ColumnStats:
    """Frequency statistics for one column of one relation.

    ``counts`` maps value keys (see :func:`_stat_key`) of non-null,
    non-labeled-null cells to their multiplicity; ``present`` counts
    rows carrying the column at all (relations are ragged);
    ``nulls``/``labeled`` count SQL nulls and labeled nulls.  ``lo`` /
    ``hi`` track min/max while every observed value stays within one
    ordered kind (all numbers, or all strings) — a mixed column turns
    ordering off rather than guessing a cross-type order.  ``nums`` /
    ``strs`` count the numeric and string cells (the rest of
    :attr:`non_null` is unordered), which is what lets
    :meth:`settle` turn ordering back on once the last value of the
    odd kind is gone.

    A removal that may move ``kind``, ``lo`` or ``hi`` only marks them
    stale; the first read of one of them (or of :attr:`ordered`,
    ``==`` or :meth:`to_dict`) settles them, so a stream of removals
    between two reads pays one O(distinct) pass, and a stream read
    only through counts pays none.
    """

    __slots__ = ("present", "nulls", "labeled", "counts", "_kind", "_lo",
                 "_hi", "nums", "strs", "_stale")

    def __init__(self) -> None:
        self.present = 0
        self.nulls = 0
        self.labeled = 0
        self.counts: dict[object, int] = {}
        self._kind: Optional[str] = None  # None | "num" | "str" | "off"
        self._lo: object = None
        self._hi: object = None
        self.nums = 0
        self.strs = 0
        self._stale = False

    # ------------------------------------------------------------------
    def observe(self, value: object) -> None:
        self.present += 1
        if value is None:
            self.nulls += 1
            return
        if isinstance(value, LabeledNull):
            self.labeled += 1
            return
        # Numbers and strings are their own keys (always hashable), so
        # only the unordered kinds pay for _stat_key.
        if isinstance(value, _NUMERIC):
            self.nums += 1
            value_kind = "num"
            key = value
        elif isinstance(value, str):
            self.strs += 1
            value_kind = "str"
            key = value
        else:
            value_kind = "off"
            key = _stat_key(value)
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        if self._stale:
            return  # settle() derives kind and extremes from the counts
        kind = self._kind
        if kind == value_kind:
            if kind == "off":
                return
            if value < self._lo:
                self._lo = value
            elif value > self._hi:
                self._hi = value
        elif kind is None:
            self._kind = value_kind
            if value_kind != "off":
                self._lo = self._hi = value
        elif kind != "off":
            self._kind = "off"
            self._lo = self._hi = None

    def retract(self, value: object) -> bool:
        """Undo one earlier :meth:`observe` of ``value``, and say whether
        the column lost its last cell.

        Counts drop in O(1).  When ``kind``, ``lo`` or ``hi`` may have
        moved (an extreme's count reached zero, or a kind's count did),
        they are marked stale for the next read to settle."""
        self.present -= 1
        if value is None:
            self.nulls -= 1
            return not self.present
        if isinstance(value, LabeledNull):
            self.labeled -= 1
            return not self.present
        if isinstance(value, _NUMERIC):
            self.nums -= 1
            moved = not self.nums
            key = value
        elif isinstance(value, str):
            self.strs -= 1
            moved = not self.strs
            key = value
        else:
            moved = True  # an unordered cell left: ordering may return
            key = _stat_key(value)
        counts = self.counts
        left = counts[key] - 1
        if left:
            counts[key] = left
        else:
            del counts[key]
            moved = moved or key == self._lo or key == self._hi
        if moved:
            self._stale = True
        return not self.present

    def settle(self) -> None:
        """Re-derive ``kind`` from the per-kind counts and, for an
        ordered column, ``lo`` / ``hi`` from the surviving keys — one
        O(distinct) pass, run on the first read after :meth:`retract`
        marked them stale."""
        nums, strs = self.nums, self.strs
        if self.non_null - nums - strs or (nums and strs):
            self._kind = "off"
        elif nums:
            self._kind = "num"
        elif strs:
            self._kind = "str"
        else:
            self._kind = None
        if self._kind in ("num", "str"):
            self._lo = min(self.counts)
            self._hi = max(self.counts)
        else:
            self._lo = self._hi = None
        self._stale = False

    @property
    def kind(self) -> Optional[str]:
        """None (no ordered cell yet), "num", "str", or "off" (mixed)."""
        if self._stale:
            self.settle()
        return self._kind

    @property
    def lo(self) -> object:
        if self._stale:
            self.settle()
        return self._lo

    @property
    def hi(self) -> object:
        if self._stale:
            self.settle()
        return self._hi

    # ------------------------------------------------------------------
    @property
    def distinct(self) -> int:
        """Distinct non-null values (labeled nulls counted separately)."""
        return len(self.counts)

    @property
    def non_null(self) -> int:
        return self.present - self.nulls - self.labeled

    def frequency(self, value: object) -> Optional[int]:
        """Exact occurrence count of ``value``, or None when the column
        was never observed (callers fall back to default selectivity)."""
        if not self.present:
            return None
        return self.counts.get(_stat_key(value), 0)

    def most_common(self, k: Optional[int] = None) -> list[tuple[object, int]]:
        """The top-``k`` (value, count) pairs, most frequent first —
        the MCV sketch (ties broken by value repr for determinism)."""
        if k is None:
            k = ESTIMATION.mcv_size
        ranked = sorted(
            self.counts.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        return [(display_key(key), count) for key, count in ranked[:k]]

    @property
    def ordered(self) -> bool:
        return self.kind in ("num", "str") and self.lo is not None

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnStats):
            return NotImplemented
        return (
            self.present == other.present
            and self.nulls == other.nulls
            and self.labeled == other.labeled
            and self.counts == other.counts
            and self.kind == other.kind
            and self.lo == other.lo
            and self.hi == other.hi
            and self.nums == other.nums
            and self.strs == other.strs
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnStats present={self.present} distinct={self.distinct} "
            f"nulls={self.nulls} labeled={self.labeled} kind={self.kind}>"
        )

    def to_dict(self, mcv: Optional[int] = None) -> dict:
        return {
            "present": self.present,
            "distinct": self.distinct,
            "nulls": self.nulls,
            "labeled_nulls": self.labeled,
            "min": self.lo,
            "max": self.hi,
            "most_common": [
                [repr(value), count] for value, count in self.most_common(mcv)
            ],
        }


class RelationStats:
    """Row count plus per-column :class:`ColumnStats` for one relation.

    Built once from the backing rows, then *absorbed* forward on
    appends (:meth:`absorb`) and *retracted* on removals
    (:meth:`retract`), so keeping statistics fresh costs work
    proportional to the rows added or removed since the last read, not
    to the relation.  Either way the result equals :meth:`from_rows`
    over the current rows, field for field.
    """

    __slots__ = ("relation", "rows", "columns")

    def __init__(self, relation: str) -> None:
        self.relation = relation
        self.rows = 0
        self.columns: dict[str, ColumnStats] = {}

    @classmethod
    def from_rows(
        cls, relation: str, rows: Iterable[Mapping[str, object]]
    ) -> "RelationStats":
        stats = cls(relation)
        stats.absorb(rows)
        return stats

    def absorb(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Fold freshly appended rows into the statistics in place."""
        columns = self.columns
        added = 0
        for row in rows:
            added += 1
            for name, value in row.items():
                column = columns.get(name)
                if column is None:
                    column = columns[name] = ColumnStats()
                column.observe(value)
        self.rows += added

    def retract(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Take rows previously absorbed back out, in place.

        Each cell is retracted from its column in O(1), and a column
        that no remaining row carries loses its entry.  A column whose
        kind or extremes may have moved settles them when they are next
        read (see :meth:`ColumnStats.retract`)."""
        columns = self.columns
        emptied: list[str] = []
        removed = 0
        for row in rows:
            removed += 1
            for name, value in row.items():
                if columns[name].retract(value):
                    emptied.append(name)
        self.rows -= removed
        for name in emptied:
            del columns[name]

    # ------------------------------------------------------------------
    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def null_fraction(self, name: str) -> float:
        """Fraction of rows where ``name`` is SQL null, a labeled null,
        or absent altogether (``IS NULL`` treats all three as null)."""
        if not self.rows:
            return 0.0
        column = self.columns.get(name)
        if column is None:
            return 1.0
        missing = self.rows - column.present
        return (column.nulls + column.labeled + missing) / self.rows

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationStats):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.rows == other.rows
            and self.columns == other.columns
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RelationStats {self.relation} rows={self.rows} "
            f"columns={sorted(self.columns)}>"
        )

    def to_dict(self, mcv: Optional[int] = None) -> dict:
        return {
            "relation": self.relation,
            "rows": self.rows,
            "columns": {
                name: self.columns[name].to_dict(mcv)
                for name in sorted(self.columns)
            },
        }

    def render(self) -> str:
        """A compact human-readable table, one line per column."""
        lines = [f"{self.relation}: {self.rows} rows"]
        for name in sorted(self.columns):
            column = self.columns[name]
            parts = [
                f"distinct={column.distinct}",
                f"nulls={column.nulls + column.labeled}"
                f"/{self.rows}",
            ]
            if column.ordered:
                parts.append(f"min={column.lo!r} max={column.hi!r}")
            mcv = column.most_common(3)
            if mcv:
                shown = ", ".join(f"{v!r}×{c}" for v, c in mcv)
                parts.append(f"mcv=[{shown}]")
            lines.append(f"  {name}: " + "  ".join(parts))
        return "\n".join(lines)
