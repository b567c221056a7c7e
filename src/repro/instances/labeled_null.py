"""Labeled nulls for universal instances.

Data exchange with non-full tgds produces target instances containing
*labeled nulls*: placeholders that "are needed to compute the answers
to queries but are not allowed to be returned as part of the answer"
(paper, Section 4).  Two labeled nulls are equal iff they carry the
same label; the chase may later *equate* nulls (via egds), which is
implemented by substitution rather than mutation.
"""

from __future__ import annotations

import itertools


class LabeledNull:
    """A distinct unknown value, optionally annotated with provenance.

    ``label`` is globally unique per :class:`NullFactory`; ``hint``
    records which Skolem function / tgd produced the null, which the
    provenance service surfaces during debugging.
    """

    __slots__ = ("label", "hint")

    def __init__(self, label: int, hint: str = ""):
        self.label = label
        self.hint = hint

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledNull) and other.label == self.label

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("⊥", self.label))

    def __repr__(self) -> str:
        suffix = f":{self.hint}" if self.hint else ""
        return f"⊥{self.label}{suffix}"

    def __lt__(self, other: object) -> bool:
        # Labeled nulls sort after all concrete values and among
        # themselves by label, so relations have a deterministic order.
        if isinstance(other, LabeledNull):
            return self.label < other.label
        return False

    def __gt__(self, other: object) -> bool:
        if isinstance(other, LabeledNull):
            return self.label > other.label
        return True


class NullFactory:
    """Mints fresh labeled nulls with unique labels."""

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def fresh(self, hint: str = "") -> LabeledNull:
        return LabeledNull(next(self._counter), hint)


def is_null(value: object) -> bool:
    """True for SQL ``NULL`` (Python ``None``) and labeled nulls alike."""
    return value is None or isinstance(value, LabeledNull)
