"""Instance-based matching: compare value distributions.

Given sample instances of both schemas, attributes are profiled —
numeric attributes by range/mean/spread, string attributes by length,
character classes and value overlap — and profile similarity feeds the
ensemble.  This is the paper's "value distributions" signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.instances.database import Instance
from repro.instances.labeled_null import is_null
from repro.metamodel.schema import Schema
from repro.operators.match.base import Matcher, SimilarityMatrix


@dataclass
class _Profile:
    kind: str  # "numeric", "string", "other", "empty"
    count: int = 0
    mean: float = 0.0
    spread: float = 0.0
    min_value: float = 0.0
    max_value: float = 0.0
    avg_length: float = 0.0
    digit_ratio: float = 0.0
    sample: frozenset = frozenset()


def _profile(values: list) -> _Profile:
    values = [v for v in values if not is_null(v)]
    if not values:
        return _Profile(kind="empty")
    numeric = [v for v in values if isinstance(v, (int, float))
               and not isinstance(v, bool)]
    if len(numeric) >= 0.9 * len(values):
        mean = sum(numeric) / len(numeric)
        variance = sum((v - mean) ** 2 for v in numeric) / len(numeric)
        return _Profile(
            kind="numeric",
            count=len(numeric),
            mean=mean,
            spread=math.sqrt(variance),
            min_value=min(numeric),
            max_value=max(numeric),
            sample=frozenset(list(map(str, numeric))[:50]),
        )
    strings = [str(v) for v in values]
    total_chars = sum(len(s) for s in strings) or 1
    digits = sum(ch.isdigit() for s in strings for ch in s)
    return _Profile(
        kind="string",
        count=len(strings),
        avg_length=total_chars / len(strings),
        digit_ratio=digits / total_chars,
        sample=frozenset(strings[:50]),
    )


def _profile_similarity(a: _Profile, b: _Profile) -> float:
    if a.kind == "empty" or b.kind == "empty":
        return 0.0
    if a.kind != b.kind:
        return 0.05
    overlap = 0.0
    if a.sample and b.sample:
        overlap = len(a.sample & b.sample) / min(len(a.sample), len(b.sample))
    if a.kind == "numeric":
        span = max(a.max_value, b.max_value) - min(a.min_value, b.min_value)
        if span <= 0:
            range_score = 1.0
        else:
            intersection = min(a.max_value, b.max_value) - max(
                a.min_value, b.min_value
            )
            range_score = max(0.0, intersection / span)
        return min(1.0, 0.4 * range_score + 0.6 * overlap + 0.1)
    length_score = 1.0 - min(
        1.0, abs(a.avg_length - b.avg_length) / max(a.avg_length, b.avg_length, 1.0)
    )
    digit_score = 1.0 - abs(a.digit_ratio - b.digit_ratio)
    return min(1.0, 0.3 * length_score + 0.2 * digit_score + 0.5 * overlap)


class InstanceBasedMatcher(Matcher):
    name = "instance-based"

    def __init__(self, source_instance: Instance, target_instance: Instance):
        self.source_instance = source_instance
        self.target_instance = target_instance

    def _profiles(self, schema: Schema, instance: Instance) -> dict[str, _Profile]:
        profiles: dict[str, _Profile] = {}
        for entity in schema.entities.values():
            if entity.parent is not None or entity.children():
                rows = instance.objects_of(entity.name) if instance.schema else []
            else:
                rows = instance.rows(entity.name)
            for attribute in entity.attributes:
                values = [row.get(attribute.name) for row in rows]
                profiles[f"{entity.name}.{attribute.name}"] = _profile(values)
        return profiles

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        matrix = SimilarityMatrix(source, target)
        source_profiles = self._profiles(source, self.source_instance)
        target_profiles = self._profiles(target, self.target_instance)
        for s_path, s_profile in source_profiles.items():
            for t_path, t_profile in target_profiles.items():
                score = _profile_similarity(s_profile, t_profile)
                if score > 0.05:
                    matrix.set(s_path, t_path, score)
        return matrix
