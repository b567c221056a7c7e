"""Correspondences: the first refinement level of mapping design.

"Correspondences are pairs of elements from the two schemas that are
believed to be related in some unspecified way … hints that tell which
elements of the two schemas need to be related by a mapping" (paper,
Section 3.1).  The Match operator produces these; the interpretation
module turns them into constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import MappingError
from repro.metamodel.schema import ElementPath, Schema


@dataclass(frozen=True)
class Correspondence:
    """A hint that ``source`` and ``target`` elements are related.

    ``confidence`` is the matcher's score in [0, 1] (1.0 for
    hand-specified correspondences); ``expression`` optionally records a
    value transformation ("value correspondences … may include
    computations over source elements", Section 3.1.2), as a textual
    note carried through to constraint generation.
    """

    source: ElementPath
    target: ElementPath
    confidence: float = 1.0
    expression: Optional[str] = None

    def __str__(self) -> str:
        arrow = f" [{self.expression}]" if self.expression else ""
        return f"{self.source} ≈ {self.target} ({self.confidence:.2f}){arrow}"


class CorrespondenceSet:
    """All correspondences between one schema pair, with top-k access.

    The paper argues (Section 3.1.1) that for engineered mappings a
    matcher should "return all viable candidates for a given element,
    rather than only the best one" — so this container keeps every
    candidate and exposes :meth:`top_k` per source element, as well as
    :meth:`best_one_to_one` for tools that want a classical selection.
    """

    def __init__(
        self,
        source: Schema,
        target: Schema,
        correspondences: Iterable[Correspondence] = (),
    ):
        self.source = source
        self.target = target
        self._items: list[Correspondence] = []
        for correspondence in correspondences:
            self.add(correspondence)

    def add(self, correspondence: Correspondence) -> None:
        if correspondence.source.schema != self.source.name:
            raise MappingError(
                f"correspondence source {correspondence.source} is not in "
                f"schema {self.source.name!r}"
            )
        if correspondence.target.schema != self.target.name:
            raise MappingError(
                f"correspondence target {correspondence.target} is not in "
                f"schema {self.target.name!r}"
            )
        self.source.resolve(correspondence.source.path)
        self.target.resolve(correspondence.target.path)
        self._items.append(correspondence)

    def add_pair(
        self,
        source_path: str,
        target_path: str,
        confidence: float = 1.0,
        expression: Optional[str] = None,
    ) -> Correspondence:
        correspondence = Correspondence(
            ElementPath(self.source.name, source_path),
            ElementPath(self.target.name, target_path),
            confidence,
            expression,
        )
        self.add(correspondence)
        return correspondence

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def for_source(self, path: str) -> list[Correspondence]:
        return sorted(
            (c for c in self._items if c.source.path == path),
            key=lambda c: -c.confidence,
        )

    def for_target(self, path: str) -> list[Correspondence]:
        return sorted(
            (c for c in self._items if c.target.path == path),
            key=lambda c: -c.confidence,
        )

    def top_k(self, k: int) -> "CorrespondenceSet":
        """Keep the k best candidates per source element — the paper's
        recommended deliverable for engineered-mapping design."""
        kept: list[Correspondence] = []
        by_source: dict[str, list[Correspondence]] = {}
        for correspondence in self._items:
            by_source.setdefault(correspondence.source.path, []).append(
                correspondence
            )
        for candidates in by_source.values():
            candidates.sort(key=lambda c: -c.confidence)
            kept.extend(candidates[:k])
        return CorrespondenceSet(self.source, self.target, kept)

    def above(self, threshold: float) -> "CorrespondenceSet":
        return CorrespondenceSet(
            self.source,
            self.target,
            (c for c in self._items if c.confidence >= threshold),
        )

    def best_one_to_one(self) -> "CorrespondenceSet":
        """A stable greedy one-to-one selection by descending confidence
        (the classical matcher output for comparison in benchmarks)."""
        chosen: list[Correspondence] = []
        used_sources: set[str] = set()
        used_targets: set[str] = set()
        for correspondence in sorted(self._items, key=lambda c: -c.confidence):
            if correspondence.source.path in used_sources:
                continue
            if correspondence.target.path in used_targets:
                continue
            chosen.append(correspondence)
            used_sources.add(correspondence.source.path)
            used_targets.add(correspondence.target.path)
        return CorrespondenceSet(self.source, self.target, chosen)

    def entity_pairs(self) -> set[tuple[str, str]]:
        """Entity-level pairs implied by the correspondences (attribute
        correspondences imply their owning entities correspond)."""
        pairs: set[tuple[str, str]] = set()
        for correspondence in self._items:
            pairs.add(
                (correspondence.source.entity, correspondence.target.entity)
            )
        return pairs

    def attribute_pairs(self) -> list[Correspondence]:
        return [
            c
            for c in self._items
            if not c.source.is_entity and not c.target.is_entity
        ]

    def describe(self) -> str:
        return "\n".join(str(c) for c in self._items) or "(no correspondences)"
