"""The match ensemble and the Match operator's entry point.

Combines the per-family matchers by weighted average and produces a
:class:`~repro.mappings.correspondence.CorrespondenceSet` retaining the
**top-k candidates per source element** — the deliverable the paper
argues is right for engineered mappings (Section 3.1.1) — rather than
only a one-to-one best guess.  :func:`evaluate_against_truth` computes
precision / recall / top-k hit rate for the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping as TMapping, Optional

from repro.instances.database import Instance
from repro.mappings.correspondence import Correspondence, CorrespondenceSet
from repro.metamodel.schema import ElementPath, Schema
from repro.operators.match.base import Matcher, SimilarityMatrix
from repro.operators.match.datatype import DatatypeMatcher
from repro.operators.match.instance_based import InstanceBasedMatcher
from repro.operators.match.lexical import LexicalMatcher
from repro.operators.match.structural import SimilarityFlooding
from repro.operators.match.thesaurus import ThesaurusMatcher
from repro.observability.instrument import instrumented


@dataclass
class MatchConfig:
    """Knobs for the ensemble.

    ``weights`` are per-matcher; matchers with weight 0 are skipped.
    ``top_k`` controls how many candidates to keep per source element;
    ``threshold`` prunes weak candidates.
    """

    weights: TMapping[str, float] = field(
        default_factory=lambda: {
            "lexical": 0.35,
            "similarity-flooding": 0.25,
            "thesaurus": 0.2,
            "datatype": 0.1,
            "instance-based": 0.1,
        }
    )
    top_k: int = 3
    threshold: float = 0.25
    flooding_iterations: int = 20
    thesaurus: Optional[TMapping[str, str]] = None
    source_instance: Optional[Instance] = None
    target_instance: Optional[Instance] = None


def _build_matchers(config: MatchConfig) -> list[tuple[Matcher, float]]:
    matchers: list[tuple[Matcher, float]] = []
    weights = dict(config.weights)
    if weights.get("lexical", 0) > 0:
        matchers.append((LexicalMatcher(), weights["lexical"]))
    if weights.get("similarity-flooding", 0) > 0:
        matchers.append(
            (
                SimilarityFlooding(iterations=config.flooding_iterations),
                weights["similarity-flooding"],
            )
        )
    if weights.get("thesaurus", 0) > 0:
        matchers.append((ThesaurusMatcher(config.thesaurus), weights["thesaurus"]))
    if weights.get("datatype", 0) > 0:
        matchers.append((DatatypeMatcher(), weights["datatype"]))
    if (
        weights.get("instance-based", 0) > 0
        and config.source_instance is not None
        and config.target_instance is not None
    ):
        matchers.append(
            (
                InstanceBasedMatcher(
                    config.source_instance, config.target_instance
                ),
                weights["instance-based"],
            )
        )
    if not matchers:
        raise ValueError("MatchConfig enables no matcher")
    return matchers


def ensemble_similarity(
    source: Schema, target: Schema, config: Optional[MatchConfig] = None
) -> SimilarityMatrix:
    """The weighted-average similarity matrix of the enabled matchers.

    The lexical matrix is computed once: similarity flooding seeds from
    it when the lexical matcher is enabled, and computes its own seed
    only when it runs without it."""
    config = config or MatchConfig()
    matchers = _build_matchers(config)
    total_weight = sum(weight for _, weight in matchers)
    weighted: list[tuple[SimilarityMatrix, float]] = []
    lexical: Optional[SimilarityMatrix] = None
    for matcher, weight in matchers:
        if isinstance(matcher, SimilarityFlooding) and lexical is not None:
            matrix = matcher.flood(lexical)
        else:
            matrix = matcher.similarity(source, target)
        if isinstance(matcher, LexicalMatcher):
            lexical = matrix
        weighted.append((matrix, weight / total_weight))
    first, first_weight = weighted[0]
    return first.blend(weighted[1:], first_weight)


@instrumented("op.match", attrs=lambda source, target, config=None: {
    "source.elements": len(source.all_element_paths()),
    "target.elements": len(target.all_element_paths()),
})
def match(
    source: Schema,
    target: Schema,
    config: Optional[MatchConfig] = None,
) -> CorrespondenceSet:
    """The Match operator: propose top-k correspondence candidates."""
    config = config or MatchConfig()
    matrix = ensemble_similarity(source, target, config)
    correspondences = CorrespondenceSet(source, target)
    source_paths = [str(p.path) for p in source.all_element_paths()]
    for s_path in source_paths:
        for t_path, score in matrix.best_for_source(s_path, config.top_k):
            if score < config.threshold:
                continue
            # Entity elements only pair with entity elements, attributes
            # with attributes.
            if ("." in s_path) != ("." in t_path):
                continue
            correspondences.add(
                Correspondence(
                    ElementPath(source.name, s_path),
                    ElementPath(target.name, t_path),
                    confidence=round(score, 4),
                )
            )
    return correspondences


@dataclass
class MatchQuality:
    """Precision/recall of a correspondence set against ground truth."""

    precision: float
    recall: float
    f1: float
    top_k_hit_rate: float
    proposed: int
    truth_size: int

    def __str__(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f} "
            f"top-k hit={self.top_k_hit_rate:.3f} "
            f"({self.proposed} proposed / {self.truth_size} true)"
        )


def evaluate_against_truth(
    correspondences: CorrespondenceSet,
    truth: set[tuple[str, str]],
) -> MatchQuality:
    """Score proposals against ground-truth (source_path, target_path)
    pairs.

    * precision / recall / F1 over the full proposal set;
    * top-k hit rate: fraction of true pairs whose source element's
      candidate list contains the right target — the metric the paper's
      argument cares about ("ensure that a matcher returns all viable
      candidates").
    """
    proposed = {
        (c.source.path, c.target.path) for c in correspondences
    }
    true_positives = proposed & truth
    precision = len(true_positives) / len(proposed) if proposed else 0.0
    recall = len(true_positives) / len(truth) if truth else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    hits = 0
    truth_sources = {s for s, _ in truth}
    for source_path in truth_sources:
        wanted = {t for s, t in truth if s == source_path}
        candidates = {
            c.target.path
            for c in correspondences.for_source(source_path)
        }
        if candidates & wanted:
            hits += 1
    hit_rate = hits / len(truth_sources) if truth_sources else 1.0
    return MatchQuality(
        precision=precision,
        recall=recall,
        f1=f1,
        top_k_hit_rate=hit_rate,
        proposed=len(proposed),
        truth_size=len(truth),
    )
