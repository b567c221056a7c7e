"""Batch loading through a mapping (paper, Section 5).

"Since most database systems have a high performance interface for
batch loading, in many scenarios it would be more efficient to load
data directly into S rather than through T.  This requires
transforming the data to be loaded via mapST into the format required
by S's loader."

:class:`BatchLoader` accepts target-format rows in batches, translates
each batch through the mapping's update view, defers integrity
validation to the end of the load (the batch-loading idiom), and
reports a load summary.  A load can also append *through a
materialized exchange* (``flush(materialized=...)``): the translated
batch is forwarded as an :class:`~repro.runtime.updates.UpdateSet` so
a downstream :class:`~repro.runtime.incremental.MaterializedExchange`
maintains its chased target incrementally instead of re-exchanging
the grown source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TransformationError
from repro.instances.database import Instance, freeze_row
from repro.instances.validation import violations
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.operators.transgen import TransformationPair, transgen
from repro.runtime.incremental import MaterializedExchange
from repro.runtime.updates import UpdateSet


@dataclass
class LoadReport:
    """Summary of a completed batch load."""

    batches: int
    target_rows: int
    source_rows: dict[str, int]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


class BatchLoader:
    """Accumulates target-format data and loads it source-side."""

    def __init__(
        self,
        mapping: Mapping,
        validate: bool = True,
        engine: Optional[str] = None,
    ):
        views = transgen(mapping)
        if not isinstance(views, TransformationPair):
            raise TransformationError(
                "batch loading needs a bidirectional equality mapping "
                "(an update view)"
            )
        self.mapping = mapping
        self.views = views
        self.validate = validate
        self.engine = engine
        self._staging = Instance(mapping.target)
        self._batches = 0
        self._target_rows = 0

    # ------------------------------------------------------------------
    @instrumented("runtime.load.stage", attrs=lambda self, entity,
                  rows, *a, **k: {"entity": entity, "rows": len(rows)})
    def stage(self, entity: str, rows: list[dict],
              typed: Optional[bool] = None) -> None:
        """Stage one batch of target-format rows.

        ``typed`` forces (or suppresses) routing through the entity
        hierarchy; by default it is inferred from the schema.
        """
        entity_obj = self.mapping.target.entity(entity)
        is_typed = (
            typed
            if typed is not None
            else entity_obj.parent is not None or bool(entity_obj.children())
        )
        for row in rows:
            if is_typed:
                self._staging.insert_object(entity, **row)
            else:
                self._staging.insert(entity, row)
            self._target_rows += 1
        self._batches += 1

    @instrumented("runtime.load.flush", attrs=lambda self,
                  destination=None, materialized=None: {
                      "mapping.name": self.mapping.name})
    def flush(
        self,
        destination: Optional[Instance] = None,
        materialized: Optional[MaterializedExchange] = None,
    ) -> tuple[Instance, LoadReport]:
        """Translate all staged data into source format in one pass and
        (optionally) append to an existing source instance; integrity
        is validated once, at the end.

        With ``materialized``, the translated batch is appended to the
        materialized exchange's source as an insert-only
        :class:`UpdateSet` — only rows not already present are
        forwarded (matching the plain path's deduplication) — so its
        chased target is maintained incrementally.  The returned
        instance is the exchange's grown source state.
        """
        loaded = self.views.update_view.apply(self._staging, engine=self.engine)
        if materialized is not None:
            update = UpdateSet()
            current = materialized.source_instance(copy=False)
            for relation, rows in loaded.relations.items():
                present = {
                    freeze_row(r) for r in current.rows(relation)
                }
                for row in rows:
                    frozen = freeze_row(row)
                    if frozen in present:
                        continue
                    present.add(frozen)
                    update.inserts.setdefault(relation, []).append(
                        dict(row)
                    )
            if not update.is_empty:
                materialized.apply(update)
            loaded = materialized.source_instance()
        elif destination is not None:
            loaded = destination.union(loaded).deduplicated()
            loaded.schema = self.mapping.source
        problems: list[str] = []
        if self.validate:
            problems = violations(loaded, self.mapping.source)
        report = LoadReport(
            batches=self._batches,
            target_rows=self._target_rows,
            source_rows={
                relation: len(rows)
                for relation, rows in loaded.relations.items()
            },
            violations=problems,
        )
        self._staging = Instance(self.mapping.target)
        self._batches = 0
        self._target_rows = 0
        return loaded, report
