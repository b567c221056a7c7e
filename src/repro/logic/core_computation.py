"""Core of a universal solution.

The core is the smallest universal solution — unique up to isomorphism
("Data Exchange: Getting to the Core", the paper's reference [39]).  It
is computed by repeatedly finding an endomorphism whose image avoids
some row, and shrinking the instance to that image, until no row can be
dropped.  Each attempt is one call of the instance homomorphism search
(:func:`~repro.logic.homomorphism.instance_homomorphism`) into the
instance minus one row with nulls; the search settles most rows through
the target's value indexes without branching, so an attempt costs about
the instance's size.  Exponential in the worst case (the problem is
intractable in general) but fast on chase outputs of practical size,
which is exactly the paper's "best effort on an intractable problem"
stance (Section 2).
"""

from __future__ import annotations

from repro.instances.database import Instance, freeze_row
from repro.instances.labeled_null import LabeledNull
from repro.logic.homomorphism import instance_homomorphism


def core_of(instance: Instance, max_rounds: int = 10_000) -> Instance:
    """The core of ``instance``; constants are fixed, labeled nulls may
    collapse."""
    current = instance.deduplicated()
    for _ in range(max_rounds):
        shrunk = _shrink_once(current)
        if shrunk is None:
            return current
        current = shrunk
    return current


def _shrink_once(instance: Instance) -> Instance | None:
    """Find an endomorphism avoiding some row; return its image, or
    ``None`` if the instance is already a core."""
    for relation in sorted(instance.relations):
        rows = instance.relations[relation]
        for index, row in enumerate(rows):
            if not any(isinstance(v, LabeledNull) for v in row.values()):
                continue  # rows without nulls are in every core
            target = Instance(instance.schema)
            for other_relation, other_rows in instance.relations.items():
                for other_index, other_row in enumerate(other_rows):
                    if other_relation == relation and other_index == index:
                        continue
                    target.insert(other_relation, other_row)
            mapping = instance_homomorphism(instance, target)
            if mapping is not None:
                return _image(instance, mapping)
    return None


def _image(instance: Instance, mapping: dict) -> Instance:
    result = Instance(instance.schema)
    seen: dict[str, set] = {}
    for relation, rows in instance.relations.items():
        bucket = seen.setdefault(relation, set())
        for row in rows:
            image_row = {
                key: mapping.get(value, value)
                if isinstance(value, LabeledNull)
                else value
                for key, value in row.items()
            }
            frozen = freeze_row(image_row)
            if frozen not in bucket:
                bucket.add(frozen)
                result.insert(relation, image_row)
    return result
