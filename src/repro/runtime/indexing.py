"""Keyword indexing through mappings (paper, Section 5, "Indexing").

"It may be desirable to index data that is exposed via T to support
keyword search.  However, … the data physically resides in the data
sources which have schemas S.  For efficiency reasons, it is probably
best to index the data sources and derive a mapping that enables the
index to be accessed via T."

:class:`KeywordIndex` does exactly that: it builds an inverted index
over the *source* rows, and at query time maps each hit into the
*target* context — the entity and rows it contributes to — using a
derivation index precomputed from the mapping (lineage for tgd
mappings; fragment analysis for equality mappings).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.instances.database import TYPE_FIELD, Instance, Row, freeze_row
from repro.mappings.mapping import Mapping
from repro.runtime.executor import exchange
from repro.runtime.provenance import lineage

_TOKEN = re.compile(r"[A-Za-z0-9]+")


def _tokens(value: object) -> set[str]:
    if value is None:
        return set()
    return {t.lower() for t in _TOKEN.findall(str(value))}


@dataclass
class SearchHit:
    """One keyword match, presented in the target schema's context."""

    target_relation: str
    target_row: Row
    source_relation: str
    source_row: Row
    matched: tuple[str, ...]
    score: float

    def describe(self) -> str:
        return (
            f"{self.target_relation}{_strip(self.target_row)} "
            f"(matched {', '.join(self.matched)}; "
            f"stored in {self.source_relation})"
        )


def _strip(row: Row) -> dict:
    return {k: v for k, v in row.items() if k != TYPE_FIELD}


class KeywordIndex:
    """An inverted index over the source, searchable in target terms."""

    def __init__(self, mapping: Mapping, source: Instance):
        self.mapping = mapping
        self.source = source
        # token → list of (relation, row index)
        self._postings: dict[str, set[tuple[str, int]]] = {}
        self._rows: dict[tuple[str, int], Row] = {}
        self._build_postings()
        # Materialize the target once and precompute which target rows
        # each source row derives.
        self.target = exchange(mapping, source)
        self._derived: dict[tuple[str, frozenset], list[tuple[str, Row]]] = {}
        self._build_derivations()

    # ------------------------------------------------------------------
    def _build_postings(self) -> None:
        for relation, rows in self.source.relations.items():
            for index, row in enumerate(rows):
                key = (relation, index)
                self._rows[key] = row
                for value in row.values():
                    for token in _tokens(value):
                        self._postings.setdefault(token, set()).add(key)

    def _build_derivations(self) -> None:
        if self.mapping.tgds:
            for relation, rows in self.target.relations.items():
                for target_row in rows:
                    for entry in lineage(target_row, relation, self.source,
                                         self.mapping.tgds):
                        for source_relation, source_row in entry.source_rows:
                            key = (source_relation, freeze_row(source_row))
                            self._derived.setdefault(key, []).append(
                                (relation, target_row)
                            )
        else:
            # Equality mappings: exact derivations would require the
            # fragment analysis; the heuristic used here links a source
            # row to the target rows it shares values with, weighted
            # toward rows sharing *most* of the source's values.
            for relation, rows in self.target.relations.items():
                for target_row in rows:
                    target_values = {
                        v for k, v in target_row.items()
                        if k != TYPE_FIELD and v is not None
                    }
                    for source_relation, source_rows in (
                        self.source.relations.items()
                    ):
                        for source_row in source_rows:
                            source_values = {
                                v for v in source_row.values()
                                if v is not None
                            }
                            if not source_values:
                                continue
                            overlap = len(source_values & target_values)
                            if overlap >= max(1, len(source_values) // 2):
                                key = (source_relation,
                                       freeze_row(source_row))
                                self._derived.setdefault(key, []).append(
                                    (relation, target_row)
                                )

    # ------------------------------------------------------------------
    def search(self, query: str, limit: Optional[int] = None) -> list[SearchHit]:
        """Keyword search; hits are ranked by the number of matched
        terms and presented in target context."""
        terms = sorted(_tokens(query))
        if not terms:
            return []
        match_counts: dict[tuple[str, int], list[str]] = {}
        for term in terms:
            for key in self._postings.get(term, set()):
                match_counts.setdefault(key, []).append(term)
        hits: list[SearchHit] = []
        for key, matched in match_counts.items():
            relation, _ = key
            source_row = self._rows[key]
            derivations = self._derived.get(
                (relation, freeze_row(source_row)), []
            )
            score = len(matched) / len(terms)
            if derivations:
                for target_relation, target_row in derivations:
                    hits.append(
                        SearchHit(
                            target_relation=target_relation,
                            target_row=target_row,
                            source_relation=relation,
                            source_row=source_row,
                            matched=tuple(matched),
                            score=score,
                        )
                    )
            else:
                hits.append(
                    SearchHit(
                        target_relation="(not exposed)",
                        target_row={},
                        source_relation=relation,
                        source_row=source_row,
                        matched=tuple(matched),
                        score=score * 0.5,
                    )
                )
        hits.sort(key=lambda h: (-h.score, h.target_relation))
        seen: set = set()
        unique: list[SearchHit] = []
        for hit in hits:
            key = (hit.target_relation, freeze_row(hit.target_row))
            if key in seen:
                continue
            seen.add(key)
            unique.append(hit)
        return unique[:limit] if limit is not None else unique

    def vocabulary_size(self) -> int:
        return len(self._postings)
