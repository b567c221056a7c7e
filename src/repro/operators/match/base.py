"""Matcher interface and the similarity matrix they produce."""

from __future__ import annotations

import heapq
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

    def install_row(self, source_path: str, row: dict[str, float]) -> None:
        """Install a whole row of ``target_path -> score`` that already
        keeps :meth:`set`'s rule (see :func:`kept_row`), as setting its
        pairs one by one would: a source element with no row takes
        ``row`` itself, one with a row has it updated, and an empty
        ``row`` installs nothing."""
        if row:
            existing = self._rows.get(source_path)
            if existing is None:
                self._rows[source_path] = row
            else:
                existing.update(row)

    def get(self, source_path: str, target_path: str) -> float:
        row = self._rows.get(source_path)
        return row.get(target_path, 0.0) if row else 0.0

    def items(self) -> Iterator[tuple[str, str, float]]:
        for source_path, row in self._rows.items():
            for target_path, score in row.items():
                yield source_path, target_path, score

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def blend(
        self,
        others: Iterable[tuple["SimilarityMatrix", float]],
        weight: float,
    ) -> "SimilarityMatrix":
        """Weighted combination of this matrix, at ``weight``, with
        others; pairs missing from a matrix contribute 0.

        Each pair's total is this matrix's score times ``weight``, plus
        each other matrix's weighted score in the order given, so a
        pair's sum does not depend on which other pairs exist."""
        totals = {
            source_path: {
                target_path: score * weight
                for target_path, score in row.items()
            }
            for source_path, row in self._rows.items()
        }
        for matrix, other_weight in others:
            for source_path, row in matrix._rows.items():
                total_row = totals.setdefault(source_path, {})
                for target_path, score in row.items():
                    total_row[target_path] = (
                        total_row.get(target_path, 0.0) + other_weight * score
                    )
        result = SimilarityMatrix(self.source, self.target)
        for source_path, total_row in totals.items():
            result._rows[source_path] = {
                target_path: min(1.0, total)
                for target_path, total in total_row.items()
                if total > 0
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
        # nsmallest(k, ...) is specified as sorted(...)[:k], ties included.
        return heapq.nsmallest(
            k,
            row.items(),
            key=lambda item: (-item[1], positions.get(item[0], unknown)),
        )


def kept_row(
    targets: Iterable[str], scores: Iterable[float], floor: float = 0.0
) -> dict[str, float]:
    """The row ``target -> score`` that :meth:`SimilarityMatrix.set`
    leaves after setting each target's score when it exceeds ``floor``:
    scores ≤ 0 are dropped and the rest are clamped at 1."""
    floor = max(floor, 0.0)
    return {
        target: score if score < 1.0 else 1.0
        for target, score in zip(targets, scores)
        if score > floor
    }


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
