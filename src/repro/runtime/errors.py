"""Error translation (paper, Section 5).

"If a data access via T is translated into an access on S that
generates an error, then the error needs to be passed back through
mapST in a form that is understandable in the context of T.  For
example, in an object-to-relational mapping, an object access may
cause an erroneous access to a table that the user of T doesn't
recognize."

The translator inverts the mapping's element-level vocabulary — table
and column names back to entity and attribute names — and rewrites
error messages and structured context accordingly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.errors import ModelManagementError
from repro.mappings.mapping import Mapping


@dataclass
class TranslatedError(ModelManagementError, Exception):
    """An error re-expressed in the target schema's vocabulary."""

    original: Exception = None
    message: str = ""
    source_context: str = ""
    target_context: str = ""

    def __str__(self) -> str:
        return self.message


class ErrorTranslator:
    """Maps source-side element names to target-side names using the
    mapping's constraints, then rewrites exception messages."""

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        self._element_map = self._build_element_map()

    def _build_element_map(self) -> dict[str, str]:
        """source element name → target element description."""
        element_map: dict[str, str] = {}
        for constraint in self.mapping.equalities:
            source_relations = constraint.source_expr.relations()
            target_relations = constraint.target_expr.relations()
            for source_relation in source_relations:
                if len(target_relations) == 1:
                    element_map.setdefault(
                        source_relation, next(iter(target_relations))
                    )
            for src_col, tgt_col in self._column_pairs(constraint):
                element_map.setdefault(src_col, tgt_col)
        for tgd in self.mapping.tgds:
            body_relations = {a.relation for a in tgd.body}
            head_relations = {a.relation for a in tgd.head}
            for body_relation in body_relations:
                if len(head_relations) == 1:
                    element_map.setdefault(
                        body_relation, next(iter(head_relations))
                    )
            # Column-level: shared variables link source and target
            # attribute names.
            for body_atom in tgd.body:
                for body_attr, body_term in body_atom.args:
                    for head_atom in tgd.head:
                        for head_attr, head_term in head_atom.args:
                            if body_term == head_term and body_attr != head_attr:
                                element_map.setdefault(
                                    f"{body_atom.relation}.{body_attr}",
                                    f"{head_atom.relation}.{head_attr}",
                                )
        return element_map

    def _column_pairs(self, constraint):
        """(source column path, target column path) pairs read from the
        two sides' projections, aligned by output name."""
        source_proj = _projection_of(constraint.source_expr)
        target_proj = _projection_of(constraint.target_expr)
        if source_proj is None or target_proj is None:
            return []
        source_relation = _single_relation(constraint.source_expr)
        target_relation = _single_relation(constraint.target_expr)
        pairs = []
        for output, src_col in source_proj.items():
            tgt_col = target_proj.get(output)
            if tgt_col is None:
                continue
            src_path = (
                f"{source_relation}.{src_col}" if source_relation else src_col
            )
            tgt_path = (
                f"{target_relation}.{tgt_col}" if target_relation else tgt_col
            )
            if src_path != tgt_path:
                pairs.append((src_path, tgt_path))
        return pairs

    # ------------------------------------------------------------------
    def translate(self, error: Exception, operation: str = "") -> TranslatedError:
        """Rewrite an exception for the target schema's user."""
        message = str(error)
        rewritten = message
        mentioned_source = []
        mentioned_target = []
        # Longest names first so "Empl.Id" rewrites before "Empl".
        for source_name in sorted(self._element_map, key=len, reverse=True):
            target_name = self._element_map[source_name]
            if re.search(rf"\b{re.escape(source_name)}\b", rewritten):
                rewritten = re.sub(
                    rf"\b{re.escape(source_name)}\b", target_name, rewritten
                )
                mentioned_source.append(source_name)
                mentioned_target.append(target_name)
        prefix = f"{operation}: " if operation else ""
        return TranslatedError(
            original=error,
            message=f"{prefix}{rewritten}",
            source_context=(
                f"underlying {type(error).__name__} mentioned "
                f"{', '.join(mentioned_source)}" if mentioned_source else str(error)
            ),
            target_context=", ".join(mentioned_target),
        )

    def element_map(self) -> dict[str, str]:
        return dict(self._element_map)


def _projection_of(expr) -> Optional[dict[str, str]]:
    current = expr
    if isinstance(current, E.Distinct):
        current = current.input
    if isinstance(current, E.Project):
        result = {}
        for name, scalar in current.outputs:
            if isinstance(scalar, S.Col):
                result[name] = scalar.name
        return result
    return None


def _single_relation(expr) -> Optional[str]:
    relations = expr.relations()
    if len(relations) == 1:
        return next(iter(relations))
    return None
