"""Matcher interface and the similarity matrix they produce."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.metamodel.schema import Schema


class SimilarityMatrix:
    """Sparse similarity scores between element paths of two schemas.

    Scores live in [0, 1]; absent pairs are 0.  Matrices combine by
    weighted sum (:meth:`blend`).  Scores are kept grouped by source
    element (one row each), so the candidates of one source element
    cost one row to rank.
    """

    def __init__(self, source: Schema, target: Schema):
        self.source = source
        self.target = target
        self._rows: dict[str, dict[str, float]] = {}
        self._target_positions: Optional[dict[str, int]] = None

    def set(self, source_path: str, target_path: str, score: float) -> None:
        if score <= 0.0:
            self._rows.get(source_path, {}).pop(target_path, None)
        else:
            self._rows.setdefault(source_path, {})[target_path] = min(1.0, score)

    def get(self, source_path: str, target_path: str) -> float:
        row = self._rows.get(source_path)
        return row.get(target_path, 0.0) if row else 0.0

    def items(self) -> Iterator[tuple[str, str, float]]:
        for source_path, row in self._rows.items():
            for target_path, score in row.items():
                yield source_path, target_path, score

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def blend(self, others: Iterable[tuple["SimilarityMatrix", float]]) -> "SimilarityMatrix":
        """Weighted combination of this matrix (weight folded in by the
        caller) with others; pairs missing from a matrix contribute 0.

        Each pair's total adds this matrix's score, then each other
        matrix's weighted score in the order given, so a pair's sum does
        not depend on which other pairs exist."""
        totals = {source_path: dict(row) for source_path, row in self._rows.items()}
        for matrix, weight in others:
            for source_path, row in matrix._rows.items():
                total_row = totals.setdefault(source_path, {})
                for target_path, score in row.items():
                    total_row[target_path] = (
                        total_row.get(target_path, 0.0) + weight * score
                    )
        result = SimilarityMatrix(self.source, self.target)
        for source_path, total_row in totals.items():
            result._rows[source_path] = {
                target_path: min(1.0, total)
                for target_path, total in total_row.items()
                if total > 0
            }
        return result

    def scale(self, factor: float) -> "SimilarityMatrix":
        result = SimilarityMatrix(self.source, self.target)
        for source_path, row in self._rows.items():
            result._rows[source_path] = {
                target_path: score * factor for target_path, score in row.items()
            }
        return result

    def best_for_source(self, source_path: str, k: int = 1) -> list[tuple[str, float]]:
        """The ``k`` best targets of one source element, best first.

        Equal scores rank by the target element's position in
        ``target.all_element_paths()`` (entities first, then attributes
        in declaration order), so a tie never depends on hash order."""
        row = self._rows.get(source_path)
        if not row:
            return []
        if self._target_positions is None:
            self._target_positions = {
                str(p.path): index
                for index, p in enumerate(self.target.all_element_paths())
            }
        positions = self._target_positions
        unknown = len(positions)
        candidates = sorted(
            row.items(),
            key=lambda item: (-item[1], positions.get(item[0], unknown)),
        )
        return candidates[:k]


class Matcher:
    """Base class: produce a similarity matrix for a schema pair."""

    name: str = "matcher"

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        raise NotImplementedError

    @staticmethod
    def attribute_paths(schema: Schema) -> list[str]:
        return [
            str(p.path)
            for p in schema.all_element_paths()
            if not p.is_entity
        ]

    @staticmethod
    def entity_paths(schema: Schema) -> list[str]:
        return list(schema.entities)
