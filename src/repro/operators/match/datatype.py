"""Datatype matching: attribute pairs scored by type compatibility.

On its own this is a weak signal (many attributes share a type), so the
ensemble gives it a small weight; it mainly *vetoes* lexically similar
pairs with irreconcilable types.
"""

from __future__ import annotations

from repro.metamodel.schema import Schema
from repro.metamodel.types import DataType, type_compatibility
from repro.operators.match.base import Matcher, SimilarityMatrix, kept_row


class DatatypeMatcher(Matcher):
    name = "datatype"

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        matrix = SimilarityMatrix(source, target)
        source_attrs = [
            (f"{e.name}.{a.name}", a.data_type)
            for e in source.entities.values()
            for a in e.attributes
        ]
        target_attrs = [
            (f"{e.name}.{a.name}", a.data_type)
            for e in target.entities.values()
            for a in e.attributes
        ]
        t_paths = [t_path for t_path, _ in target_attrs]
        # Few distinct types: one row per distinct source type; each
        # source element installs its own copy.
        rows: dict[DataType, dict[str, float]] = {}
        for s_path, s_type in source_attrs:
            row = rows.get(s_type)
            if row is None:
                row = rows[s_type] = kept_row(t_paths, [
                    type_compatibility(s_type, t_type) for _, t_type in target_attrs
                ])
            matrix.install_row(s_path, dict(row))
        return matrix
