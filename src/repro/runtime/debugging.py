"""Mapping debugging (paper, Section 5).

"Like any program, a mapping needs to be debugged."  The debugger
offers the two facilities the paper describes: rule-by-rule *tracing*
(the single-stepping analogue — watch each constraint/rule fire and
inspect intermediate results) and *routes* (provenance-based
explanation of how target data was generated, as in [30]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.evaluator import evaluate
from repro.instances.database import Instance, Row
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.observability.tracing import tracer
from repro.operators.transgen import TransformationPair, transgen
from repro.runtime.provenance import (
    ProvenanceEntry,
    invert_head,
    lineage,
    route,
)


@dataclass
class TraceStep:
    """One rule's contribution during a traced execution."""

    label: str
    output_relation: str
    row_count: int
    sample: list[Row] = field(default_factory=list)
    #: Id of the tracing span covering this step, when tracing was on.
    span_id: Optional[str] = None

    def describe(self) -> str:
        preview = f", e.g. {self.sample[0]}" if self.sample else ""
        span = f" [span {self.span_id}]" if self.span_id else ""
        return (f"{self.label}: {self.output_relation} ← "
                f"{self.row_count} rows{preview}{span}")


class MappingDebugger:
    """Stepwise inspection of a mapping's execution."""

    def __init__(
        self,
        mapping: Mapping,
        sample_size: int = 3,
        engine: Optional[str] = None,
    ):
        self.mapping = mapping
        self.sample_size = sample_size
        #: Algebra engine traced rules run on (None → vectorized).
        self.engine = engine

    # ------------------------------------------------------------------
    @instrumented("debug.trace", attrs=lambda self, source: {
        "mapping.name": self.mapping.name,
        "mapping.constraints": self.mapping.constraint_count(),
        "source.rows": source.total_rows()})
    def trace(self, source: Instance) -> list[TraceStep]:
        """Execute the mapping rule by rule, recording row counts and
        samples — the single-stepping view.

        With tracing enabled, each step runs inside its own
        ``debug.step`` span and records that span's id, so the textual
        trace cross-references the exported span tree."""
        transformation = transgen(self.mapping)
        steps: list[TraceStep] = []
        if isinstance(transformation, TransformationPair):
            for relation, expr in transformation.query_view.rules:
                with tracer.span("debug.step", rule=f"view:{relation}") as span:
                    rows = evaluate(
                        expr, source, self.mapping.source, engine=self.engine
                    )
                    if span is not None:
                        span.set_attribute("rows", len(rows))
                steps.append(
                    TraceStep(
                        label=f"view:{relation}",
                        output_relation=relation,
                        row_count=len(rows),
                        sample=rows[: self.sample_size],
                        span_id=span.span_id if span is not None else None,
                    )
                )
            return steps
        # tgd path: chase one dependency at a time against a growing
        # instance, so each step shows that rule's marginal effect.
        from repro.logic.chase import chase

        working = source.copy()
        for tgd in self.mapping.tgds:
            label = f"tgd:{tgd.name or tgd}"
            with tracer.span("debug.step", rule=label) as span:
                before = working.total_rows()
                result = chase(working, [tgd], copy=False)
                added = working.total_rows() - before
                if span is not None:
                    span.set_attributes(rows=added, steps=result.steps)
            head_relation = next(iter(tgd.head)).relation if tgd.head else "?"
            rows = working.rows(head_relation)
            steps.append(
                TraceStep(
                    label=label,
                    output_relation=head_relation,
                    row_count=added,
                    sample=rows[: self.sample_size],
                    span_id=span.span_id if span is not None else None,
                )
            )
        return steps

    # ------------------------------------------------------------------
    @instrumented("debug.explain_row", attrs=lambda self, target_row,
                  relation, source: {"relation": relation,
                                     "source.rows": source.total_rows()})
    def explain_row(
        self, target_row: Row, relation: str, source: Instance
    ) -> list[ProvenanceEntry]:
        """Why is this row in the target?  (why-provenance)"""
        return lineage(target_row, relation, source, self.mapping.tgds)

    @instrumented("debug.explain_route", attrs=lambda self, target_row,
                  relation, source: {"relation": relation,
                                     "source.rows": source.total_rows()})
    def explain_route(
        self, target_row: Row, relation: str, source: Instance
    ) -> list[list[ProvenanceEntry]]:
        """Full derivation routes through intermediate relations."""
        return route(target_row, relation, source, self.mapping.tgds)

    @instrumented("debug.explain_missing", attrs=lambda self, expected_row,
                  relation, source: {"relation": relation})
    def explain_missing(
        self, expected_row: Row, relation: str, source: Instance
    ) -> list[str]:
        """Why is an expected row *absent*?  Reports, per dependency
        that could produce the relation, which body atoms found no
        matching source data — the paper's debugging scenario of a
        mapping that silently drops data."""
        from repro.logic.homomorphism import find_homomorphism

        reasons: list[str] = []
        for tgd in self.mapping.tgds:
            heads = [a for a in tgd.head if a.relation == relation]
            if not heads:
                continue
            for head_atom in heads:
                partial = invert_head(head_atom, expected_row, tgd.frontier())
                if partial is None:
                    reasons.append(
                        f"[{tgd.name or tgd}] head cannot produce the row "
                        "(constant mismatch)"
                    )
                    continue
                if find_homomorphism(tgd.body, source, partial=partial):
                    reasons.append(
                        f"[{tgd.name or tgd}] would produce the row — "
                        "it should be present; check execution"
                    )
                    continue
                # Identify the first body atom with no match at all.
                for atom in tgd.body:
                    if find_homomorphism([atom], source, partial=partial) is None:
                        reasons.append(
                            f"[{tgd.name or tgd}] no source row matches "
                            f"{atom} under {_pretty(partial)}"
                        )
                        break
                else:
                    reasons.append(
                        f"[{tgd.name or tgd}] atoms match individually but "
                        "their join is empty"
                    )
        return reasons or [f"no dependency produces relation {relation!r}"]


def _pretty(assignment: dict) -> str:
    return "{" + ", ".join(
        f"{var.name}={value!r}" for var, value in sorted(
            assignment.items(), key=lambda item: item[0].name
        )
    ) + "}"
