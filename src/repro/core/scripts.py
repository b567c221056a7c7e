"""Model-management scripts: canned operator sequences.

The paper's Section 6 describes schema-evolution procedures as
"sequences of model management operations".  This module packages the
two it walks through:

* :func:`migrate_script` — Figure 5's simple path: given mapV-S and
  mapS-S′, migrate the database and re-target the view by composition
  (Section 6.1);
* :func:`evolve_view_script` — the richer path of Sections 6.2–6.3:
  after S evolves to S′, Diff finds the new parts of S′, and Merge
  folds them into the view so users see the new information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.instances.database import Instance
from repro.mappings.correspondence import CorrespondenceSet
from repro.mappings.mapping import Mapping
from repro.metamodel.schema import Schema
from repro.observability.instrument import instrumented
from repro.operators.compose import compose
from repro.operators.diff import SchemaSlice, diff
from repro.operators.merge import MergeResult, merge
from repro.runtime.executor import exchange


@dataclass
class ScriptResult:
    """Outcome of a script run: every produced artifact, plus a log."""

    artifacts: dict[str, object] = field(default_factory=dict)
    log: list[str] = field(default_factory=list)

    def record(self, name: str, artifact: object, message: str) -> None:
        self.artifacts[name] = artifact
        self.log.append(message)

    def describe(self) -> str:
        return "\n".join(self.log)


@instrumented("script.migrate")
def migrate_script(
    map_v_s: Mapping,
    map_s_sprime: Mapping,
    database: Optional[Instance] = None,
) -> ScriptResult:
    """Figure 5 / Section 6.1: cope with S evolving to S′.

    1. (optional) migrate the database D to D′ through mapS-S′;
    2. compose mapV-S with mapS-S′ to re-target the view:
       mapV-S′ = mapV-S ∘ mapS-S′.
    """
    result = ScriptResult()
    if database is not None:
        migrated = exchange(map_s_sprime, database)
        result.record(
            "database",
            migrated,
            f"migrated D ({database.total_rows()} rows) to D′ "
            f"({migrated.total_rows()} rows) via {map_s_sprime.name}",
        )
    composed = compose(map_v_s, map_s_sprime)
    result.record(
        "mapping",
        composed,
        f"composed {map_v_s.name} ∘ {map_s_sprime.name} → {composed.name} "
        f"[{composed.language.value}]",
    )
    return result


@instrumented("script.evolve_view")
def evolve_view_script(
    view_schema: Schema,
    map_v_s: Mapping,
    map_s_sprime: Mapping,
    correspondences: Optional[CorrespondenceSet] = None,
) -> ScriptResult:
    """Sections 6.2–6.3: update the view V to include the *new* parts
    of S′.

    1. Invert mapS-S′ (so it reads from S′);
    2. Diff(S′, Invert(mapS-S′)) — the parts of S′ absent from S;
    3. Compose mapV-S ∘ mapS-S′ (the re-targeted view mapping);
    4. Merge V with the Diff schema, using the provided correspondences
       (or none: the new parts simply extend the view).
    """
    result = ScriptResult()
    s_prime = map_s_sprime.target
    inverted = map_s_sprime.invert()
    result.record("inverted", inverted,
                  f"inverted {map_s_sprime.name} → {inverted.name}")
    new_parts: SchemaSlice = diff(s_prime, inverted)
    result.record(
        "diff",
        new_parts,
        f"Diff({s_prime.name}) found "
        f"{sorted(new_parts.participating) or 'nothing new'}",
    )
    composed = compose(map_v_s, map_s_sprime)
    result.record(
        "composed",
        composed,
        f"composed view mapping {composed.name}",
    )
    if correspondences is None:
        correspondences = CorrespondenceSet(view_schema, new_parts.schema)
    merged: MergeResult = merge(view_schema, new_parts.schema, correspondences)
    result.record(
        "merged",
        merged,
        f"merged view with new parts → {merged.schema.name} "
        f"({len(merged.schema.entities)} entities)",
    )
    return result
