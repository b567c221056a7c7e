"""An ETL pipeline builder on the engine (paper, Section 1.1, first
bullet: "simplify the programming of scripts to extract data from
sources, clean it, reshape it, and load it into a data warehouse").

A pipeline is a list of steps, each owning a mapping; running the
pipeline exchanges data step by step with per-step row cleaning and
collects load statistics.  The warehouse-flavoured extras the paper
mentions in Section 5 ("deduplication or other heuristic operators,
staging of data in mini-batches") appear as the ``deduplicate`` and
``batch_size`` knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.instances.database import Instance, Row
from repro.instances.validation import violations
from repro.mappings.mapping import Mapping
from repro.runtime.executor import exchange

Cleaner = Callable[[str, Row], Optional[Row]]


@dataclass
class EtlStep:
    """One hop of the pipeline: a mapping plus optional row cleaning."""

    mapping: Mapping
    cleaner: Optional[Cleaner] = None
    deduplicate: bool = True
    name: str = ""
    engine: Optional[str] = None

    def run(self, data: Instance) -> tuple[Instance, dict]:
        cleaned = data
        dropped = 0
        if self.cleaner is not None:
            cleaned = Instance(data.schema)
            for relation, rows in data.relations.items():
                for row in rows:
                    kept = self.cleaner(relation, dict(row))
                    if kept is None:
                        dropped += 1
                    else:
                        cleaned.insert(relation, kept)
        result = exchange(self.mapping, cleaned, engine=self.engine)
        if self.deduplicate:
            result = result.deduplicated()
        stats = {
            "step": self.name or self.mapping.name,
            "rows_in": data.total_rows(),
            "rows_dropped_by_cleaner": dropped,
            "rows_out": result.total_rows(),
        }
        return result, stats


class EtlPipeline:
    """Compose steps source → staging → ... → warehouse."""

    def __init__(self, name: str = "etl", engine: Optional[str] = None):
        self.name = name
        #: Algebra engine every step's exchange runs on (None → default).
        self.engine = engine
        self.steps: list[EtlStep] = []

    def add_step(
        self,
        mapping: Mapping,
        cleaner: Optional[Cleaner] = None,
        deduplicate: bool = True,
        name: str = "",
    ) -> "EtlPipeline":
        self.steps.append(
            EtlStep(mapping=mapping, cleaner=cleaner,
                    deduplicate=deduplicate, name=name, engine=self.engine)
        )
        return self

    def run(
        self,
        source: Instance,
        batch_size: Optional[int] = None,
        validate_output: bool = True,
    ) -> tuple[Instance, list[dict]]:
        """Run the pipeline; with ``batch_size``, the source is staged
        through in mini-batches and results unioned (the Section 5
        "staging of data in mini-batches")."""
        stats: list[dict] = []
        if batch_size is None:
            batches = [source]
        else:
            batches = list(_mini_batches(source, batch_size))
        combined: Optional[Instance] = None
        for index, batch in enumerate(batches):
            current = batch
            for step in self.steps:
                current, step_stats = step.run(current)
                step_stats["batch"] = index
                stats.append(step_stats)
            combined = current if combined is None else combined.union(current)
        assert combined is not None
        result = combined.deduplicated()
        if self.steps:
            result.schema = self.steps[-1].mapping.target
        if validate_output and result.schema is not None:
            problems = violations(result)
            stats.append({"step": "validation", "violations": len(problems)})
        return result, stats


def _mini_batches(source: Instance, batch_size: int):
    """Split a source instance into row-count-bounded batches,
    relation by relation (each batch keeps whole relations' slices)."""
    total = source.total_rows()
    if total == 0:
        yield source
        return
    offsets = {relation: 0 for relation in source.relations}
    while any(
        offsets[relation] < len(rows)
        for relation, rows in source.relations.items()
    ):
        batch = Instance(source.schema)
        budget = batch_size
        for relation, rows in source.relations.items():
            if budget <= 0:
                break
            start = offsets[relation]
            take = rows[start : start + budget]
            if take:
                batch.insert_all(relation, take)
                offsets[relation] += len(take)
                budget -= len(take)
        yield batch
