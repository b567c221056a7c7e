"""Query mediation / EII (paper, Section 1.1: "query mediators to
access heterogeneous databases").

A mediator exposes one *global* schema over several sources, each
connected by its own mapping.  Target queries are answered by
unioning the per-source answers (GAV-style mediation); conjunctive
queries get certain-answer semantics per source.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import RelExpr
from repro.errors import MappingError
from repro.instances.database import Instance, Row, freeze_row
from repro.logic.formulas import ConjunctiveQuery
from repro.mappings.mapping import Mapping
from repro.metamodel.schema import Schema
from repro.runtime.query_processor import QueryProcessor


@dataclass
class _Source:
    name: str
    mapping: Mapping
    data: Instance
    processor: QueryProcessor


class QueryMediator:
    """One global schema, many mapped sources."""

    def __init__(self, global_schema: Schema):
        self.global_schema = global_schema
        self._sources: dict[str, _Source] = {}

    def add_source(self, name: str, mapping: Mapping, data: Instance) -> None:
        if mapping.target.name != self.global_schema.name:
            raise MappingError(
                f"source {name!r}: mapping targets {mapping.target.name!r}, "
                f"not the global schema {self.global_schema.name!r}"
            )
        if name in self._sources:
            raise MappingError(f"duplicate source {name!r}")
        self._sources[name] = _Source(
            name=name,
            mapping=mapping,
            data=data,
            processor=QueryProcessor(mapping, data),
        )

    def sources(self) -> list[str]:
        return sorted(self._sources)

    def refresh(self, name: str, data: Instance) -> None:
        source = self._sources[name]
        source.data = data
        source.processor = QueryProcessor(source.mapping, data)

    # ------------------------------------------------------------------
    def answer(self, query: RelExpr, distinct: bool = True) -> list[Row]:
        """Answer an algebra query over the global schema by unioning
        per-source answers.

        Aggregations and sorts are *decomposed*: the inner query runs
        per source, the union is formed, and the aggregate/sort runs
        over the combined rows — otherwise a group spanning two sources
        would be reported once per source.
        """
        from repro.algebra import expressions as E
        from repro.algebra.evaluator import evaluate
        from repro.instances.database import Instance

        outer: list[RelExpr] = []
        inner = query
        while isinstance(inner, (E.Aggregate, E.Sort)):
            outer.append(inner)
            inner = inner.inputs()[0]

        combined: list[Row] = []
        seen: set[frozenset] = set()
        for source in self._sources.values():
            for row in source.processor.answer_algebra(inner):
                frozen = freeze_row(row)
                if distinct and frozen in seen:
                    continue
                seen.add(frozen)
                combined.append(row)
        if not outer:
            return combined
        # Re-apply the aggregate/sort stack over the unioned rows.
        staging = Instance()
        staging.insert_all("$union", combined)
        rebuilt: RelExpr = E.Scan("$union")
        for node in reversed(outer):
            if isinstance(node, E.Aggregate):
                rebuilt = E.Aggregate(rebuilt, node.group_by,
                                      node.aggregations)
            else:
                rebuilt = E.Sort(rebuilt, node.keys)
        return evaluate(rebuilt, staging)

    def answer_cq(self, query: ConjunctiveQuery) -> list[tuple]:
        """Certain answers of a CQ, unioned across sources."""
        combined: list[tuple] = []
        seen: set[tuple] = set()
        for source in self._sources.values():
            for answer in source.processor.answer_cq(query):
                if answer not in seen:
                    seen.add(answer)
                    combined.append(answer)
        return combined

    def explain(self, query: RelExpr) -> dict[str, str]:
        """Per-source query plans (unfolded when possible)."""
        plans = {}
        for source in self._sources.values():
            # Only equality mappings unfold; tgd sources answer over
            # their exchanged data.
            plans[source.name] = (
                repr(source.processor.unfolded(query))
                if source.mapping.equalities
                else "(certain answers over exchanged data)"
            )
        return plans
