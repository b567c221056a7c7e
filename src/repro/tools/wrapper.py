"""Wrapper generation (paper, Section 1.1: "produce an object-oriented
wrapper for a relational database … wrappers often need to support
incremental updates").

The generator runs the full engine pipeline:

1. ModelGen the relational schema into an OO/ER view (or accept a
   hand-written inheritance mapping);
2. TransGen the query and update views;
3. emit Python dataclass source for the object model;
4. return a :class:`GeneratedWrapper` whose object-level API —
   ``all()``, ``get()``, ``insert()``, ``delete()`` — reads through the
   query view and writes through update propagation, with error
   translation back into object vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ModelManagementError
from repro.instances.database import Instance, Row
from repro.mappings.mapping import Mapping
from repro.metamodel.schema import Schema
from repro.metamodels.objects import emit_classes
from repro.operators.modelgen import InheritanceStrategy, modelgen
from repro.operators.transgen import TransformationPair, transgen
from repro.runtime.errors import ErrorTranslator
from repro.runtime.updates import UpdatePropagator, UpdateSet


class GeneratedWrapper:
    """An object-oriented facade over a relational database."""

    def __init__(
        self,
        mapping: Mapping,
        database: Instance,
        engine: Optional[str] = None,
    ):
        self.mapping = mapping
        self.database = database
        self.engine = engine
        views = transgen(mapping)
        if not isinstance(views, TransformationPair):
            raise ModelManagementError(
                "wrapper generation needs a bidirectional mapping"
            )
        self.views = views
        self.propagator = UpdatePropagator(mapping, engine=engine)
        self.errors = ErrorTranslator(mapping)
        self._objects: Optional[Instance] = None

    # ------------------------------------------------------------------
    @property
    def object_schema(self) -> Schema:
        return self.mapping.target

    def _materialized(self) -> Instance:
        if self._objects is None:
            self._objects = self.views.query_view.apply(
                self.database, engine=self.engine
            )
            self._objects.schema = self.object_schema
        return self._objects

    def refresh(self) -> None:
        self._objects = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def all(self, entity: str, strict: bool = False) -> list[Row]:
        """All objects of (sub)type ``entity``."""
        try:
            return self._materialized().objects_of(entity, strict=strict)
        except Exception as error:  # noqa: BLE001 - translated for the user
            raise self.errors.translate(error, operation=f"read {entity}")

    def get(self, entity: str, **key: object) -> Optional[Row]:
        for row in self.all(entity):
            if all(row.get(k) == v for k, v in key.items()):
                return row
        return None

    # ------------------------------------------------------------------
    # writes (incremental updates, translated to the source)
    # ------------------------------------------------------------------
    def insert(self, entity: str, **values: object) -> Row:
        update = UpdateSet().insert_object(entity, **values)
        return self._write(update, f"insert {entity}")

    def delete(self, entity: str, **key: object) -> None:
        root = self.object_schema.entity(entity).root()
        pattern = dict(key)
        update = UpdateSet().delete(root.name, **pattern)
        self._write(update, f"delete {entity}")

    def _write(self, update: UpdateSet, operation: str):
        try:
            _, new_source, new_target = self.propagator.propagate(
                self._materialized(), update, source_instance=self.database
            )
        except Exception as error:  # noqa: BLE001
            raise self.errors.translate(error, operation=operation)
        self.database.relations = new_source.relations
        self._objects = new_target
        return None


@dataclass
class WrapperGenerator:
    """End-to-end wrapper generation from a relational schema."""

    strategy: InheritanceStrategy = InheritanceStrategy.TPT

    def generate_from_mapping(
        self, mapping: Mapping, database: Instance
    ) -> tuple[GeneratedWrapper, str]:
        """Wrap an existing inheritance mapping; returns the wrapper and
        the generated dataclass source code."""
        source_code = emit_classes(mapping.target)
        return GeneratedWrapper(mapping, database), source_code

    def generate(
        self, relational_schema: Schema, database: Instance
    ) -> tuple[GeneratedWrapper, str]:
        """Derive an object model from a flat relational schema via
        ModelGen, then wrap it."""
        result = modelgen(relational_schema, "er", self.strategy)
        # ModelGen's mapping is derived → original; the wrapper wants
        # tables as source and objects as target, which is the inverse.
        mapping = result.mapping.invert()
        source_code = emit_classes(result.schema)
        return GeneratedWrapper(mapping, database), source_code
