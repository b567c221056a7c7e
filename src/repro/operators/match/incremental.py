"""Incremental schema matching (paper reference [18]: Bernstein,
Melnik & Churchill, "Incremental Schema Matching", VLDB 2006).

The interactive loop the paper's §3.1.1 sketches: the data architect
confirms or rejects candidates one at a time, and each decision
re-ranks the remaining candidates —

* a confirmed pair boosts *structurally adjacent* pairs (attributes of
  corresponding entities; entities of corresponding attributes; FK
  neighbours);
* the confirmed elements' other candidates are penalized (one-to-one
  tendency, but never fully removed — the paper warns against hiding
  viable candidates);
* a rejected pair is removed and its relatives mildly penalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mappings.correspondence import Correspondence, CorrespondenceSet
from repro.metamodel.schema import ElementPath, Schema
from repro.operators.match.combiner import MatchConfig, ensemble_similarity


@dataclass
class Decision:
    source_path: str
    target_path: str
    accepted: bool


class IncrementalMatcher:
    """A matching session: propose → decide → re-rank → repeat."""

    BOOST = 0.25
    PENALTY = 0.3

    def __init__(
        self,
        source: Schema,
        target: Schema,
        config: Optional[MatchConfig] = None,
    ):
        self.source = source
        self.target = target
        self.config = config or MatchConfig()
        self.matrix = ensemble_similarity(source, target, self.config)
        self.decisions: list[Decision] = []
        self._confirmed: set[tuple[str, str]] = set()
        self._rejected: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def candidates(self, source_path: str, k: Optional[int] = None) -> list[
        tuple[str, float]
    ]:
        """Current ranked candidates for one source element, decided
        pairs excluded."""
        k = k or self.config.top_k
        ranked = [
            (target_path, score)
            for target_path, score in self.matrix.best_for_source(
                source_path, k + len(self._rejected)
            )
            if (source_path, target_path) not in self._rejected
            and (source_path, target_path) not in self._confirmed
        ]
        return ranked[:k]

    def next_undecided(self) -> Optional[str]:
        """The source element with the most ambiguous candidate list
        (smallest gap between its top two candidates) — where the
        architect's attention is most valuable."""
        best_path, best_gap = None, None
        decided_sources = {s for s, _ in self._confirmed}
        for path_obj in self.source.all_element_paths():
            path = path_obj.path
            if path in decided_sources:
                continue
            ranked = self.candidates(path, k=2)
            if not ranked:
                continue
            gap = (
                ranked[0][1] - ranked[1][1] if len(ranked) > 1
                else ranked[0][1]
            )
            if best_gap is None or gap < best_gap:
                best_path, best_gap = path, gap
        return best_path

    # ------------------------------------------------------------------
    def accept(self, source_path: str, target_path: str) -> None:
        self.decisions.append(Decision(source_path, target_path, True))
        self._confirmed.add((source_path, target_path))
        self._boost_neighbours(source_path, target_path)
        self._penalize_competitors(source_path, target_path)

    def reject(self, source_path: str, target_path: str) -> None:
        self.decisions.append(Decision(source_path, target_path, False))
        self._rejected.add((source_path, target_path))
        self.matrix.set(source_path, target_path, 0.0)

    # ------------------------------------------------------------------
    def _neighbours(self, schema: Schema, path: str) -> set[str]:
        related: set[str] = set()
        if "." in path:
            entity_name, _ = path.split(".", 1)
            related.add(entity_name)
        else:
            entity_name = path
            if entity_name in schema.entities:
                for attribute in schema.entity(entity_name).attributes:
                    related.add(f"{entity_name}.{attribute.name}")
        if entity_name in schema.entities:
            for dep in schema.inclusion_dependencies():
                if dep.source == entity_name:
                    related.add(dep.target)
                if dep.target == entity_name:
                    related.add(dep.source)
        return related

    def _boost_neighbours(self, source_path: str, target_path: str) -> None:
        source_related = self._neighbours(self.source, source_path)
        target_related = self._neighbours(self.target, target_path)
        for s_path in source_related:
            for t_path in target_related:
                if ("." in s_path) != ("." in t_path):
                    continue
                current = self.matrix.get(s_path, t_path)
                if current > 0:
                    self.matrix.set(s_path, t_path,
                                    current + self.BOOST * (1 - current))

    def _penalize_competitors(self, source_path: str, target_path: str) -> None:
        for s_path, t_path, score in list(self.matrix.items()):
            competes = (
                (s_path == source_path and t_path != target_path)
                or (t_path == target_path and s_path != source_path)
            )
            if competes:
                self.matrix.set(s_path, t_path, score * (1 - self.PENALTY))

    # ------------------------------------------------------------------
    def result(self) -> CorrespondenceSet:
        """Confirmed correspondences plus remaining top-k candidates."""
        correspondences = CorrespondenceSet(self.source, self.target)
        for source_path, target_path in sorted(self._confirmed):
            correspondences.add(
                Correspondence(
                    ElementPath(self.source.name, source_path),
                    ElementPath(self.target.name, target_path),
                    confidence=1.0,
                )
            )
        decided_sources = {s for s, _ in self._confirmed}
        for path_obj in self.source.all_element_paths():
            path = path_obj.path
            if path in decided_sources:
                continue
            for target_path, score in self.candidates(path):
                if score < self.config.threshold:
                    continue
                if ("." in path) != ("." in target_path):
                    continue
                correspondences.add(
                    Correspondence(
                        ElementPath(self.source.name, path),
                        ElementPath(self.target.name, target_path),
                        confidence=round(min(score, 0.99), 4),
                    )
                )
        return correspondences
