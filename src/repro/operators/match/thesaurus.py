"""Thesaurus matching: synonym-aware token comparison.

The built-in thesaurus covers the enterprise-data vocabulary the
paper's scenarios use; domain thesauri can be merged in — the paper
lists thesauri among the signals engineered-mapping matchers exploit.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.metamodel.schema import Schema
from repro.operators.match.base import Matcher, SimilarityMatrix, kept_row
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
        # Each name's canonical set is worked out once per call.
        canonical: dict[str, set[str]] = {}

        def canonical_set(name: str) -> set[str]:
            if name not in canonical:
                canonical[name] = self._canonical(name)
            return canonical[name]

        t_entities = list(target.entities)
        t_entity_sets = [canonical_set(t_entity) for t_entity in t_entities]
        for s_entity in source.entities:
            s_set = canonical_set(s_entity)
            matrix.install_row(s_entity, kept_row(t_entities, [
                _overlap(s_set, t_set) for t_set in t_entity_sets
            ]))
        t_paths = self.attribute_paths(target)
        t_sets = [canonical_set(t_path.split(".", 1)[1]) for t_path in t_paths]
        # One row per distinct source attribute name; each source
        # element installs its own copy.
        rows: dict[str, dict[str, float]] = {}
        for s_path in self.attribute_paths(source):
            s_attr = s_path.split(".", 1)[1]
            row = rows.get(s_attr)
            if row is None:
                s_set = canonical_set(s_attr)
                row = rows[s_attr] = kept_row(t_paths, [
                    _overlap(s_set, t_set) for t_set in t_sets
                ])
            matrix.install_row(s_path, dict(row))
        return matrix


def _overlap(canon_a: set[str], canon_b: set[str]) -> float:
    if not canon_a or not canon_b:
        return 0.0
    size_a, size_b = len(canon_a), len(canon_b)
    return len(canon_a & canon_b) / (size_a if size_a >= size_b else size_b)
