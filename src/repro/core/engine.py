"""The model management engine facade — the paper's Figure 1 box.

One object exposing every design-time operator (Match, ModelGen,
TransGen, Compose, Invert/Inverse, Extract, Diff, Merge), the mapping
runtime services, and the metadata repository, so that tools (the ETL
builder, wrapper generator, query mediator, ... in :mod:`repro.tools`)
embed a single component "with relatively modest customization"
(Section 2).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.repository import MetadataRepository
from repro.instances.database import Instance
from repro.mappings.correspondence import CorrespondenceSet
from repro.mappings.interpretation import interpret_as_tgds, interpret_snowflake
from repro.mappings.mapping import Mapping
from repro.metamodel.schema import Schema
from repro.observability.instrument import instrumented
from repro.operators.compose import compose as _compose
from repro.operators.diff import SchemaSlice, diff as _diff, extract as _extract
from repro.operators.inverse import (
    inverse as _inverse,
    invert as _invert,
    quasi_inverse as _quasi_inverse,
)
from repro.operators.match import MatchConfig, match as _match
from repro.operators.merge import MergeResult, merge as _merge
from repro.operators.modelgen import (
    InheritanceStrategy,
    ModelGenResult,
    modelgen as _modelgen,
)
from repro.operators.transgen import transgen as _transgen
from repro.runtime.access_control import AccessController
from repro.runtime.debugging import MappingDebugger
from repro.runtime.errors import ErrorTranslator
from repro.runtime.executor import exchange as _exchange
from repro.runtime.integrity import (
    check_constraint_propagation,
    inexpressible_constraints,
)
from repro.runtime.loader import BatchLoader
from repro.runtime.notifications import MaterializedTarget
from repro.runtime.p2p import PeerNetwork
from repro.runtime.query_processor import QueryProcessor
from repro.runtime.updates import UpdatePropagator


def _schema_attrs(schema: Schema, prefix: str = "schema") -> dict:
    """Input-size attributes for a schema argument."""
    return {
        f"{prefix}.entities": len(schema.entities),
        f"{prefix}.constraints": len(schema.constraints),
    }


def _mapping_attrs(mapping: Mapping, prefix: str = "mapping") -> dict:
    return {
        f"{prefix}.name": mapping.name,
        f"{prefix}.constraints": mapping.constraint_count(),
    }


class ModelManagementEngine:
    """The generic schema-and-mapping manipulation engine.

    >>> engine = ModelManagementEngine()
    >>> correspondences = engine.match(source_schema, target_schema)
    >>> mapping = engine.interpret(correspondences)
    >>> views = engine.transgen(mapping)
    """

    def __init__(self, repository_dir: Optional[Union[str, Path]] = None):
        self.repository = MetadataRepository(repository_dir)

    # ------------------------------------------------------------------
    # design-time operators (Sections 3, 4, 6)
    # ------------------------------------------------------------------
    @instrumented("engine.match", attrs=lambda self, source, target,
                  config=None: {**_schema_attrs(source, "source"),
                                **_schema_attrs(target, "target")})
    def match(
        self,
        source: Schema,
        target: Schema,
        config: Optional[MatchConfig] = None,
    ) -> CorrespondenceSet:
        """Match: propose top-k correspondence candidates (§3.1.1)."""
        return _match(source, target, config)

    @instrumented("engine.interpret", attrs=lambda self, correspondences,
                  style="tgd", *a, **k: {
                      "correspondences": len(correspondences),
                      "style": style})
    def interpret(
        self,
        correspondences: CorrespondenceSet,
        style: str = "tgd",
        source_root: Optional[str] = None,
        target_root: Optional[str] = None,
    ) -> Mapping:
        """Turn correspondences into mapping constraints (§3.1.2):
        ``style="tgd"`` for the Clio-style st-tgds, ``style="snowflake"``
        for the Figure 4 equality interpretation."""
        if style == "snowflake":
            return interpret_snowflake(correspondences, source_root, target_root)
        return interpret_as_tgds(correspondences)

    @instrumented("engine.modelgen", attrs=lambda self, schema,
                  target_metamodel, *a, **k: {
                      **_schema_attrs(schema),
                      "target.metamodel": target_metamodel})
    def modelgen(
        self,
        schema: Schema,
        target_metamodel: str,
        strategy: InheritanceStrategy = InheritanceStrategy.TPT,
    ) -> ModelGenResult:
        """ModelGen: translate to another metamodel, with instance-level
        mapping constraints (§3.2)."""
        return _modelgen(schema, target_metamodel, strategy)

    @instrumented("engine.transgen", attrs=lambda self, mapping,
                  compute_core=False: _mapping_attrs(mapping))
    def transgen(self, mapping: Mapping, compute_core: bool = False):
        """TransGen: compile constraints into executable
        transformations (§4)."""
        return _transgen(mapping, compute_core=compute_core)

    @instrumented("engine.compose", attrs=lambda self, first, second,
                  *a, **k: {**_mapping_attrs(first, "first"),
                            **_mapping_attrs(second, "second")})
    def compose(self, first: Mapping, second: Mapping,
                prefer_first_order: bool = True) -> Mapping:
        """Compose (§6.1)."""
        return _compose(first, second, prefer_first_order)

    @instrumented("engine.invert",
                  attrs=lambda self, mapping: _mapping_attrs(mapping))
    def invert(self, mapping: Mapping) -> Mapping:
        """Syntactic Invert (§6.2)."""
        return _invert(mapping)

    @instrumented("engine.inverse", attrs=lambda self, mapping,
                  samples=None: _mapping_attrs(mapping))
    def inverse(self, mapping: Mapping,
                samples: Optional[Sequence[Instance]] = None) -> Mapping:
        """Exact inverse, when one exists (§6.4)."""
        return _inverse(mapping, samples)

    @instrumented("engine.quasi_inverse",
                  attrs=lambda self, mapping: _mapping_attrs(mapping))
    def quasi_inverse(self, mapping: Mapping) -> Mapping:
        """Quasi-inverse (§6.4)."""
        return _quasi_inverse(mapping)

    @instrumented("engine.extract", attrs=lambda self, schema, mapping: {
        **_schema_attrs(schema), **_mapping_attrs(mapping)})
    def extract(self, schema: Schema, mapping: Mapping) -> SchemaSlice:
        """Extract (§6.2)."""
        return _extract(schema, mapping)

    @instrumented("engine.diff", attrs=lambda self, schema, mapping: {
        **_schema_attrs(schema), **_mapping_attrs(mapping)})
    def diff(self, schema: Schema, mapping: Mapping) -> SchemaSlice:
        """Diff (§6.2)."""
        return _diff(schema, mapping)

    @instrumented("engine.merge", attrs=lambda self, first, second,
                  correspondences: {**_schema_attrs(first, "first"),
                                    **_schema_attrs(second, "second"),
                                    "correspondences": len(correspondences)})
    def merge(self, first: Schema, second: Schema,
              correspondences: CorrespondenceSet) -> MergeResult:
        """Merge (§6.3)."""
        return _merge(first, second, correspondences)

    # ------------------------------------------------------------------
    # runtime services (Section 5)
    # ------------------------------------------------------------------
    @instrumented("engine.exchange", attrs=lambda self, mapping, source,
                  compute_core=False: {**_mapping_attrs(mapping),
                                       "source.rows": source.total_rows()})
    def exchange(self, mapping: Mapping, source: Instance,
                 compute_core: bool = False) -> Instance:
        """Data exchange: materialize the target."""
        return _exchange(mapping, source, compute_core)

    def query_processor(
        self,
        mapping: Mapping,
        source: Instance,
        engine: Optional[str] = None,
    ) -> QueryProcessor:
        return QueryProcessor(mapping, source, engine=engine)

    def update_propagator(
        self, mapping: Mapping, engine: Optional[str] = None
    ) -> UpdatePropagator:
        return UpdatePropagator(mapping, engine=engine)

    def debugger(self, mapping: Mapping) -> MappingDebugger:
        return MappingDebugger(mapping)

    def error_translator(self, mapping: Mapping) -> ErrorTranslator:
        return ErrorTranslator(mapping)

    def materialized_target(self, mapping: Mapping,
                            source: Instance) -> MaterializedTarget:
        return MaterializedTarget(mapping, source)

    def access_controller(self, mapping: Mapping) -> AccessController:
        return AccessController(mapping)

    def batch_loader(self, mapping: Mapping, validate: bool = True) -> BatchLoader:
        return BatchLoader(mapping, validate)

    def peer_network(self) -> PeerNetwork:
        return PeerNetwork()

    def check_integrity_propagation(self, mapping: Mapping,
                                    source: Instance):
        return check_constraint_propagation(mapping, source)

    def runtime_enforced_constraints(self, mapping: Mapping):
        """Target constraints the source layer cannot express (§5)."""
        return inexpressible_constraints(mapping)

    def keyword_index(self, mapping: Mapping, source: Instance):
        """Index the source, search in target context (§5 'Indexing')."""
        from repro.runtime.indexing import KeywordIndex

        return KeywordIndex(mapping, source)

    def pushdown_triggers(self, triggers, mapping: Mapping):
        """Translate target-level triggers to the source (§5 'Business
        logic')."""
        from repro.runtime.business_logic import pushdown

        return pushdown(triggers, mapping)

    def synchronizer(self, primary, replica):
        """Object-level replication executed at the source level (§5
        'Synchronization logic')."""
        from repro.runtime.synchronization import Synchronizer

        return Synchronizer(primary, replica)

    def incremental_matcher(self, source: Schema, target: Schema,
                            config: Optional[MatchConfig] = None):
        """An interactive matching session with decision-driven
        re-ranking (§3.1.1 / the incremental matching of [18])."""
        from repro.operators.match.incremental import IncrementalMatcher

        return IncrementalMatcher(source, target, config)

    def validate_schema(self, schema: Schema) -> list[str]:
        """Well-formedness report for a schema."""
        from repro.metamodel.validation import schema_violations

        return schema_violations(schema)

    @instrumented("engine.evolve", attrs=lambda self, schema, changes,
                  name=None: {**_schema_attrs(schema),
                              "changes": len(changes)})
    def evolve(self, schema: Schema, changes, name: Optional[str] = None):
        """Apply a structured change script, deriving the evolved
        schema *and* the evolution mapping mapS-S′ (§6.1's first step,
        automated)."""
        from repro.operators.evolution import evolve

        return evolve(schema, changes, name)
