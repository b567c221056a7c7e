"""Failure injection and cross-layer integration tests.

The paper's theme is that design-time and runtime are interdependent;
these tests exercise the seams: chase failures surfacing through the
runtime, egds as target constraints during exchange, lossy-view
detection, repository robustness, and end-to-end flows crossing four
or more subsystems.
"""

import json

import pytest

from repro.errors import (
    ChaseFailure,
    ChaseNonTermination,
    ExpressivenessError,
    RepositoryError,
    RoundTripError,
    TransformationError,
)
from repro.instances import Instance, LabeledNull
from repro.logic import parse_egd, parse_tgd
from repro.logic.dependencies import key_egd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.operators import transgen
from repro.runtime import exchange
from repro.workloads import paper


def _pair(tag: str):
    source = (
        SchemaBuilder(f"FS{tag}").entity("R", key=["k"])
        .attribute("k", INT).attribute("v", INT).build()
    )
    target = (
        SchemaBuilder(f"FT{tag}").entity("T", key=["k"])
        .attribute("k", INT).attribute("v", INT, nullable=True).build()
    )
    return source, target


class TestExchangeWithTargetConstraints:
    def test_target_key_egd_merges_invented_values(self):
        """§4: target egds participate in the exchange — the chase
        merges the nulls two firings invent for the same key."""
        source, target = _pair("a")
        mapping = Mapping(source, target, [
            parse_tgd("R(k=x, v=y) -> T(k=x, v=z)"),
            key_egd("T", ["k"], ["k", "v"]),
        ])
        db = Instance()
        db.add("R", k=1, v=10)
        db.add("R", k=1, v=20)  # same key, two triggers
        result = exchange(mapping, db)
        assert result.deduplicated().cardinality("T") == 1

    def test_target_key_conflict_fails_exchange(self):
        """Two source rows forcing distinct constants for one key: no
        solution exists, and the runtime surfaces ChaseFailure."""
        source, target = _pair("b")
        mapping = Mapping(source, target, [
            parse_tgd("R(k=x, v=y) -> T(k=x, v=y)"),
            key_egd("T", ["k"], ["k", "v"]),
        ])
        db = Instance()
        db.add("R", k=1, v=10)
        db.add("R", k=1, v=20)
        with pytest.raises(ChaseFailure):
            exchange(mapping, db)

    def test_non_terminating_mapping_detected(self):
        schema = (
            SchemaBuilder("Loop").entity("N", key=["a"])
            .attribute("a", INT).attribute("b", INT).build()
        )
        mapping = Mapping(schema, schema,
                          [parse_tgd("N(a=x, b=y) -> N(a=y, b=z)")])
        db = Instance()
        db.add("N", a=1, b=2)
        transformation = transgen(mapping)
        with pytest.raises(ChaseNonTermination):
            # Bound the chase tightly through the logic layer directly.
            from repro.logic import chase

            chase(db, mapping.tgds, max_steps=100)


class TestLossyViewDetection:
    def test_missing_fragment_fails_roundtrip(self):
        """Drop one of Figure 2's constraints: customers become
        unrepresentable, and verification catches it."""
        full = paper.figure2_mapping()
        lossy = Mapping(
            full.source, full.target,
            [c for c in full.equalities if c.name != "Client=Customer"],
            name="lossy",
        )
        views = transgen(lossy)
        with pytest.raises(RoundTripError):
            views.verify_roundtrip(paper.figure2_er_instance())

    def test_update_outside_mapping_rejected(self):
        """An update creating a state the mapping cannot represent is
        rejected *before* any state changes (§5 update propagation)."""
        from repro.runtime import UpdatePropagator, UpdateSet

        full = paper.figure2_mapping()
        lossy = Mapping(
            full.source, full.target,
            [c for c in full.equalities if c.name != "Client=Customer"],
            name="lossy2",
        )
        propagator = UpdatePropagator(lossy)
        er = Instance(lossy.target)
        er.insert_object("Person", Id=1, Name="Ann")
        update = UpdateSet().insert_object(
            "Customer", Id=2, Name="B", CreditScore=1, BillingAddr="x"
        )
        with pytest.raises(TransformationError):
            propagator.propagate(er, update)


class TestRepositoryRobustness:
    def test_ignores_foreign_files(self, tmp_path):
        from repro.core.repository import MetadataRepository

        (tmp_path / "README.txt").write_text("not json")
        (tmp_path / "schema__broken.json").write_text("{}")  # bad stem
        repo = MetadataRepository(tmp_path)
        assert repo.list_schemas() == []

    def test_versions_survive_reopen_in_order(self, tmp_path):
        from repro.core.repository import MetadataRepository
        from tests.test_metamodel_schema import person_hierarchy

        repo = MetadataRepository(tmp_path)
        for comment in ("v1", "v2", "v3"):
            repo.save_schema(person_hierarchy(), comment=comment)
        reopened = MetadataRepository(tmp_path)
        assert reopened.versions_of("schema", "ERS") == [1, 2, 3]
        assert reopened.history("schema", "ERS")[1].comment == "v2"

    def test_payloads_are_plain_json(self, tmp_path):
        from repro.core.repository import MetadataRepository

        repo = MetadataRepository(tmp_path)
        repo.save_mapping(paper.figure2_mapping())
        files = list(tmp_path.glob("mapping__*.json"))
        assert files
        parsed = json.loads(files[0].read_text())
        assert parsed["payload"]["name"] == "figure2"


class TestCrossLayerFlows:
    def test_modelgen_transgen_repository_wrapper_flow(self, tmp_path):
        """ModelGen → repository persist → reload → TransGen → wrapper:
        the reloaded mapping drives the same views as the original."""
        from repro import ModelManagementEngine
        from repro.operators import InheritanceStrategy
        from tests.test_metamodel_schema import person_hierarchy

        engine = ModelManagementEngine(tmp_path)
        result = engine.modelgen(person_hierarchy(), "relational",
                                 InheritanceStrategy.TPH)
        engine.repository.save_mapping(result.mapping, name="tph")
        reloaded = engine.repository.load_mapping("tph")
        views = engine.transgen(reloaded)
        db = Instance(reloaded.target)
        db.insert_object("Employee", Id=1, Name="A", Dept="X")
        views.verify_roundtrip(db)

    def test_match_interpret_exchange_integrity_flow(self):
        """Match → interpret → exchange → constraint-propagation check,
        all through the facade."""
        from repro import ModelManagementEngine

        engine = ModelManagementEngine()
        mapping = engine.interpret(paper.figure4_correspondences())
        report = engine.check_integrity_propagation(
            mapping, paper.figure4_source_instance()
        )
        assert report.source_satisfied
        # Target key SID is unique because EIDs are; BirthDate nulls
        # are tolerated (nullable).
        assert report.propagates

    def test_composed_mapping_through_query_processor(self):
        """Compose (Figure 6) then answer view queries through the
        composed mapping against the migrated database."""
        from repro.algebra import Scan, project_names
        from repro.operators import compose
        from repro.runtime import QueryProcessor

        composed = compose(paper.figure6_map_v_s(),
                           paper.figure6_map_s_sprime())
        # Orient the mapping S′ → V so the view is the *target*, then
        # ask the processor view-side questions against S′ data.
        processor = QueryProcessor(composed.invert(),
                                   paper.figure6_s_prime_instance())
        rows = processor.answer_algebra(
            project_names(Scan("Students"), ["Name", "Country"])
        )
        assert {(r["Name"], r["Country"]) for r in rows} == {
            ("Ann", "US"), ("Bob", "US"), ("Chen", "FR"),
        }

    def test_merge_then_migrate_both_sides(self):
        """Merge two schemas, then migrate both inputs' data into the
        merged schema and validate it."""
        from repro.instances import violations
        from repro.mappings import CorrespondenceSet
        from repro.operators import merge

        first = (
            SchemaBuilder("Ma").entity("P", key=["id"])
            .attribute("id", INT).attribute("name", STRING).build()
        )
        second = (
            SchemaBuilder("Mb").entity("Q", key=["pid"])
            .attribute("pid", INT).attribute("label", STRING).build()
        )
        cs = CorrespondenceSet(first, second)
        cs.add_pair("P", "Q")
        cs.add_pair("P.id", "Q.pid")
        cs.add_pair("P.name", "Q.label")
        result = merge(first, second, cs)
        d1, d2 = Instance(), Instance()
        d1.add("P", id=1, name="x")
        d2.add("Q", pid=2, label="y")
        migrated = exchange(result.mapping_first, d1).union(
            exchange(result.mapping_second, d2)
        )
        migrated.schema = result.schema
        assert {r["id"] for r in migrated.rows("P")} == {1, 2}
        assert violations(migrated) == []

    def test_error_translation_in_wrapper_path(self):
        """An invalid wrapper write fails with an error phrased for the
        object layer (§5 'Errors'): inserting an Employee whose Id
        collides with an existing plain Person makes the new state
        unrepresentable (the two objects merge in the tables), and the
        wrapper rejects it with a translated error — no state changes."""
        from repro.runtime.errors import TranslatedError
        from repro.tools import WrapperGenerator

        wrapper, _ = WrapperGenerator().generate_from_mapping(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        with pytest.raises(TranslatedError) as excinfo:
            wrapper.insert("Employee", Id=1, Name="Dup", Dept="X")
        assert "insert Employee" in str(excinfo.value)
        # State untouched: still exactly one HR row with Id=1.
        assert sum(
            1 for r in wrapper.database.rows("HR") if r["Id"] == 1
        ) == 1

    @pytest.mark.parametrize("operation, call", [
        ("read Nope", lambda wrapper: wrapper.all("Nope")),
        ("insert Employee",
         lambda wrapper: wrapper.insert("Employee", Bogus=1)),
        ("delete Nope", lambda wrapper: wrapper.delete("Nope", Id=1)),
    ])
    def test_wrapper_translates_every_engine_error(self, operation, call):
        """An unknown entity or attribute fails every wrapper call with
        a translated error that keeps the engine's SchemaError — also
        on delete, which resolves its entity before it writes."""
        from repro.errors import SchemaError
        from repro.runtime.errors import TranslatedError
        from repro.tools import WrapperGenerator

        wrapper, _ = WrapperGenerator().generate_from_mapping(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        with pytest.raises(TranslatedError) as excinfo:
            call(wrapper)
        assert str(excinfo.value).startswith(f"{operation}: ")
        assert isinstance(excinfo.value.original, SchemaError)

    def test_wrapper_lets_a_non_engine_error_through(self, monkeypatch):
        """Only engine errors are translated: a bug elsewhere (here a
        propagator that raises KeyError) reaches the caller as itself,
        and the wrapper's state is untouched."""
        from repro.tools import WrapperGenerator

        wrapper, _ = WrapperGenerator().generate_from_mapping(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        before = wrapper.all("Person")

        def broken(*args, **kwargs):
            raise KeyError("propagator bug")

        monkeypatch.setattr(wrapper.propagator, "propagate", broken)
        with pytest.raises(KeyError, match="propagator bug"):
            wrapper.insert("Employee", Id=10, Name="Frank", Dept="Support")
        assert wrapper.all("Person") == before
