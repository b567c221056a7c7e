"""Message mapping (paper, Section 1.1: "simplify the programming of
message translation between different formats", the EAI scenario).

Messages are nested documents; the mapper flattens them per the source
message schema, exchanges through a mapping, and re-nests per the
target message schema — the composition of three engine facilities the
paper's message-oriented middleware scenario needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mappings.mapping import Mapping
from repro.metamodel.schema import Schema
from repro.metamodels.nested import flatten_documents, nest_instance
from repro.runtime.executor import exchange


@dataclass
class MessageMapper:
    """Translate messages of one nested format into another.

    ``source_root`` / ``target_root`` name the message's root entity in
    each schema; ``mapping`` relates the *flattened* forms.
    """

    source_schema: Schema
    source_root: str
    target_schema: Schema
    target_root: str
    mapping: Mapping

    def __post_init__(self):
        if self.mapping.source.name != self.source_schema.name and (
            self.mapping.source.name
            != f"{self.source_schema.name}_relational"
        ):
            # The mapping may be phrased over the flattened schema.
            pass
        self.source_schema.entity(self.source_root)
        self.target_schema.entity(self.target_root)

    def translate(self, messages: list[dict]) -> list[dict]:
        """Nested source messages → nested target messages."""
        flat = flatten_documents(self.source_schema, self.source_root, messages)
        exchanged = exchange(self.mapping, flat)
        exchanged.schema = self.target_schema
        return nest_instance(self.target_schema, self.target_root, exchanged)

    def translate_one(self, message: dict) -> Optional[dict]:
        results = self.translate([message])
        return results[0] if results else None
