"""Deterministic synthetic data generation for benchmark workloads.

The paper's scenarios run over enterprise data we do not have; the
generator produces schema-conforming instances (keys unique, foreign
keys resolvable, types respected) from a seed, so every benchmark run
sees the same data.
"""

from __future__ import annotations

import datetime
import random
from typing import Optional

from repro.errors import SchemaError
from repro.instances.database import Instance
from repro.metamodel.elements import Attribute, Entity
from repro.metamodel.schema import Schema
from repro.metamodel.types import ParametricType, base_primitive

_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform "
    "victor whiskey xray yankee zulu"
).split()


class InstanceGenerator:
    """Generates instances of a schema with a fixed random seed."""

    def __init__(self, schema: Schema, seed: int = 0):
        self.schema = schema
        self._rng = random.Random(seed)
        self._sequence = 0
        # For FKs that cover key attributes we must sample target rows
        # without replacement or the generated keys would collide.
        self._used_fk_targets: dict[tuple, set[int]] = {}

    # ------------------------------------------------------------------
    def generate(
        self,
        rows_per_entity: int = 100,
        per_entity: Optional[dict[str, int]] = None,
    ) -> Instance:
        """A fresh instance with ``rows_per_entity`` rows per concrete
        entity (override per entity via ``per_entity``).

        Entities are filled in foreign-key dependency order so that FK
        values can always point at existing target rows.  Entities with
        inheritance get a mix of the concrete types in the hierarchy.
        """
        per_entity = per_entity or {}
        instance = Instance(self.schema)
        for entity in self._fk_order():
            if entity.parent is not None:
                continue  # subtypes are emitted via their root's extent
            count = per_entity.get(entity.name, rows_per_entity)
            concrete = [entity] if not entity.is_abstract else []
            concrete += [d for d in entity.descendants() if not d.is_abstract]
            if not concrete:
                raise SchemaError(f"no concrete type under {entity.name!r}")
            has_hierarchy = bool(entity.children())
            for _ in range(count):
                chosen = self._rng.choice(concrete) if has_hierarchy else entity
                row = self._make_row(chosen, instance)
                if has_hierarchy:
                    instance.insert_object(chosen.name, **row)
                else:
                    instance.insert(entity.name, row)
        return instance

    # ------------------------------------------------------------------
    def _fk_order(self) -> list[Entity]:
        """Entities sorted so FK targets come before FK sources."""
        names = list(self.schema.entities)
        depends: dict[str, set[str]] = {n: set() for n in names}
        for dep in self.schema.inclusion_dependencies():
            if dep.source in depends and dep.target in depends:
                if dep.source != dep.target:
                    depends[dep.source].add(dep.target)
        ordered: list[str] = []
        visiting: set[str] = set()

        def visit(name: str) -> None:
            if name in ordered:
                return
            if name in visiting:
                return  # cyclic FKs: fall back to insertion order
            visiting.add(name)
            for target in sorted(depends[name]):
                visit(target)
            visiting.discard(name)
            ordered.append(name)

        for name in names:
            visit(name)
        return [self.schema.entity(n) for n in ordered]

    def _make_row(self, entity: Entity, instance: Instance) -> dict[str, object]:
        row: dict[str, object] = {}
        key_attrs = set(entity.root().key)
        fk_values = self._fk_choices(entity, instance)
        for attr in entity.all_attributes():
            if attr.name in fk_values:
                row[attr.name] = fk_values[attr.name]
            elif attr.name in key_attrs:
                self._sequence += 1
                row[attr.name] = self._key_value(attr, self._sequence)
            elif attr.nullable and self._rng.random() < 0.1:
                row[attr.name] = None
            else:
                row[attr.name] = self._value(attr)
        return row

    def _fk_choices(
        self, entity: Entity, instance: Instance
    ) -> dict[str, object]:
        """Pick existing target values for this entity's FK columns."""
        choices: dict[str, object] = {}
        key_attrs = set(entity.root().key)
        for dep in self.schema.foreign_keys_of(entity.name):
            target_rows = instance.rows(dep.target)
            if dep.target in self.schema.entities:
                target_entity = self.schema.entity(dep.target)
                if target_entity.parent is not None or target_entity.children():
                    target_rows = instance.objects_of(dep.target)
            if not target_rows:
                continue
            covers_key = bool(key_attrs & set(dep.source_attributes))
            if covers_key:
                used = self._used_fk_targets.setdefault(
                    (entity.name, dep.source_attributes), set()
                )
                available = [
                    i for i in range(len(target_rows)) if i not in used
                ]
                if not available:
                    continue  # target exhausted; key falls back to sequence
                index = self._rng.choice(available)
                used.add(index)
                picked = target_rows[index]
            else:
                picked = self._rng.choice(target_rows)
            for src, tgt in zip(dep.source_attributes, dep.target_attributes):
                choices[src] = picked.get(tgt)
        return choices

    def _key_value(self, attr: Attribute, sequence: int) -> object:
        base = base_primitive(attr.data_type).name
        if base in ("int", "bigint", "decimal", "float"):
            return sequence
        return f"k{sequence:06d}"

    def _value(self, attr: Attribute) -> object:
        data_type = attr.data_type
        base = base_primitive(data_type).name
        if base == "bool":
            return self._rng.random() < 0.5
        if base in ("int", "bigint"):
            return self._rng.randrange(0, 100000)
        if base in ("decimal", "float"):
            return round(self._rng.uniform(0, 10000), 2)
        if base in ("string", "text"):
            word = self._rng.choice(_WORDS) + "-" + self._rng.choice(_WORDS)
            if isinstance(data_type, ParametricType):
                return word[: data_type.params[0]]
            return word
        if base == "date":
            return datetime.date(2000, 1, 1) + datetime.timedelta(
                days=self._rng.randrange(0, 9000)
            )
        if base == "datetime":
            return datetime.datetime(2000, 1, 1) + datetime.timedelta(
                seconds=self._rng.randrange(0, 10**9)
            )
        if base == "binary":
            return bytes(self._rng.randrange(0, 256) for _ in range(8))
        return f"v{self._rng.randrange(0, 10**6)}"
