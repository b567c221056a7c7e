"""Thesaurus matching: synonym-aware token comparison.

The built-in thesaurus covers the enterprise-data vocabulary the
paper's scenarios use; domain thesauri can be merged in — the paper
lists thesauri among the signals engineered-mapping matchers exploit.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.metamodel.schema import Schema
from repro.operators.match.base import Matcher, SimilarityMatrix
from repro.operators.match.lexical import tokenize

#: symmetric synonym groups; each token maps to its canonical form.
DEFAULT_THESAURUS: dict[str, str] = {}


def _register(*group: str) -> None:
    canonical = group[0]
    for word in group:
        DEFAULT_THESAURUS[word] = canonical


_register("customer", "client", "buyer", "purchaser")
_register("employee", "staff", "worker", "personnel", "empl")
_register("department", "dept", "division", "unit")
_register("salary", "pay", "wage", "compensation")
_register("address", "addr", "location")
_register("telephone", "phone", "tel")
_register("identifier", "id", "key", "code")
_register("name", "title", "label")
_register("order", "purchase")
_register("item", "article", "product", "goods")
_register("price", "cost", "amount")
_register("quantity", "qty", "count")
_register("city", "town", "municipality")
_register("country", "nation")
_register("date", "day", "when")
_register("created", "inserted", "added")
_register("updated", "modified", "changed")
_register("vendor", "supplier", "provider")
_register("invoice", "bill")
_register("manager", "supervisor", "boss")
_register("birth", "born", "birthdate")
_register("score", "rating", "grade")
_register("student", "pupil")


class ThesaurusMatcher(Matcher):
    name = "thesaurus"

    def __init__(self, thesaurus: Optional[Mapping[str, str]] = None):
        merged = dict(DEFAULT_THESAURUS)
        if thesaurus:
            merged.update(thesaurus)
        self.thesaurus = merged

    def _canonical(self, identifier: str) -> set[str]:
        return {
            self.thesaurus.get(token, token) for token in tokenize(identifier)
        }

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        matrix = SimilarityMatrix(source, target)
        # Each name's canonical set, and each distinct name pair's
        # score, is worked out once per call.
        canonical: dict[str, set[str]] = {}
        scores: dict[tuple[str, str], float] = {}

        def score(a: str, b: str) -> float:
            key = (a, b)
            value = scores.get(key)
            if value is None:
                for name in key:
                    if name not in canonical:
                        canonical[name] = self._canonical(name)
                value = scores[key] = _overlap(canonical[a], canonical[b])
            return value

        for s_entity in source.entities:
            for t_entity in target.entities:
                matrix.set(s_entity, t_entity, score(s_entity, t_entity))
        targets = [
            (t_path, t_path.split(".", 1)[1])
            for t_path in self.attribute_paths(target)
        ]
        for s_path in self.attribute_paths(source):
            s_attr = s_path.split(".", 1)[1]
            for t_path, t_attr in targets:
                matrix.set(s_path, t_path, score(s_attr, t_attr))
        return matrix


def _overlap(canon_a: set[str], canon_b: set[str]) -> float:
    if not canon_a or not canon_b:
        return 0.0
    return len(canon_a & canon_b) / max(len(canon_a), len(canon_b))
