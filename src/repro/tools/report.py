"""A report writer over mapped data (paper, Section 1.1: "report
writers that map between structured data sources and a report
format").

A :class:`ReportSpec` declares the report's query — relation, computed
columns, filters, grouping, ordering — against the *target* schema;
the writer answers it through the mapping (so reports run directly
against sources) and renders fixed-width text or CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.instances.database import Instance, Row
from repro.mappings.mapping import Mapping
from repro.runtime.query_processor import QueryProcessor


@dataclass
class ReportSpec:
    """Declarative report definition over a target entity."""

    entity: str
    columns: Sequence[str]
    title: str = ""
    where: Optional[S.Predicate] = None
    group_by: Sequence[str] = ()
    aggregations: Sequence[tuple[str, str, Optional[str]]] = ()
    order_by: Sequence[str] = ()
    typed: bool = False  # scan a hierarchy extent instead of a relation

    def to_query(self) -> E.RelExpr:
        expr: E.RelExpr = (
            E.EntityScan(self.entity) if self.typed else E.Scan(self.entity)
        )
        if self.where is not None:
            expr = E.Select(expr, self.where)
        if self.group_by or self.aggregations:
            expr = E.Aggregate(
                expr,
                list(self.group_by),
                [
                    (name, func, S.Col(column) if column else None)
                    for name, func, column in self.aggregations
                ],
            )
        else:
            expr = E.project_names(expr, list(self.columns))
        if self.order_by:
            expr = E.Sort(expr, list(self.order_by))
        return expr

    def output_columns(self) -> list[str]:
        if self.group_by or self.aggregations:
            return list(self.group_by) + [n for n, _, _ in self.aggregations]
        return list(self.columns)


class ReportWriter:
    """Runs report specs through a mapping and renders them."""

    def __init__(self, mapping: Mapping, source: Instance):
        self.processor = QueryProcessor(mapping, source)

    def rows(self, spec: ReportSpec) -> list[Row]:
        return self.processor.answer_algebra(spec.to_query())

    # ------------------------------------------------------------------
    def render_text(self, spec: ReportSpec) -> str:
        """Fixed-width text rendering."""
        rows = self.rows(spec)
        columns = spec.output_columns()
        widths = {
            column: max(
                len(column), *(len(_cell(r.get(column))) for r in rows)
            ) if rows else len(column)
            for column in columns
        }
        lines = []
        if spec.title:
            lines.append(spec.title)
            lines.append("=" * len(spec.title))
        header = "  ".join(column.ljust(widths[column]) for column in columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            lines.append(
                "  ".join(
                    _cell(row.get(column)).ljust(widths[column])
                    for column in columns
                )
            )
        lines.append(f"({len(rows)} rows)")
        return "\n".join(lines)

    def render_csv(self, spec: ReportSpec) -> str:
        rows = self.rows(spec)
        columns = spec.output_columns()
        lines = [",".join(columns)]
        for row in rows:
            lines.append(
                ",".join(_csv_cell(row.get(column)) for column in columns)
            )
        return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _csv_cell(value: object) -> str:
    text = _cell(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text
