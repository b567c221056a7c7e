"""Tests for the engine facade, metadata repository, evolution scripts
and the tool layer."""

import pytest

from repro import ModelManagementEngine
from repro.algebra import Col, Scan, Select, eq, gt, project_names
from repro.errors import RepositoryError
from repro.instances import Instance
from repro.logic import parse_tgd
from repro.mappings import CorrespondenceSet, Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.core.repository import MetadataRepository
from repro.core.scripts import evolve_view_script, migrate_script
from repro.operators import InheritanceStrategy
from repro.tools import (
    EtlPipeline,
    MessageMapper,
    QueryMediator,
    ReportSpec,
    ReportWriter,
    WrapperGenerator,
)
from repro.workloads import paper
from tests.test_metamodel_schema import person_hierarchy


class TestEngineFacade:
    def test_match_interpret_transgen_pipeline(self):
        engine = ModelManagementEngine()
        correspondences = engine.match(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        assert len(correspondences) > 0
        mapping = engine.interpret(paper.figure4_correspondences())
        transformation = engine.transgen(mapping)
        result = transformation.apply(paper.figure4_source_instance())
        assert result.cardinality("Staff") == 2

    def test_snowflake_interpretation_via_engine(self):
        engine = ModelManagementEngine()
        mapping = engine.interpret(paper.figure4_correspondences(),
                                   style="snowflake")
        assert len(mapping.equalities) == 4

    def test_modelgen_and_roundtrip(self):
        engine = ModelManagementEngine()
        result = engine.modelgen(person_hierarchy(), "relational",
                                 InheritanceStrategy.TPH)
        views = engine.transgen(result.mapping)
        db = Instance(person_hierarchy())
        db.insert_object("Employee", Id=1, Name="A", Dept="X")
        views.verify_roundtrip(db)

    def test_compose_and_scripts(self):
        engine = ModelManagementEngine()
        composed = engine.compose(paper.figure6_map_v_s(),
                                  paper.figure6_map_s_sprime())
        assert composed.target.name == "Sprime"

    def test_exchange(self):
        engine = ModelManagementEngine()
        result = engine.exchange(paper.figure2_mapping(),
                                 paper.figure2_sql_instance())
        assert result.set_equal(paper.figure2_er_instance())

    def test_runtime_accessors(self):
        engine = ModelManagementEngine()
        mapping = paper.figure2_mapping()
        db = paper.figure2_sql_instance()
        assert engine.query_processor(mapping, db) is not None
        assert engine.debugger(mapping) is not None
        assert engine.error_translator(mapping) is not None
        assert engine.access_controller(mapping) is not None
        report = engine.check_integrity_propagation(mapping, db)
        assert report.propagates

    def test_update_propagator_accessor(self):
        from repro.runtime import UpdatePropagator, UpdateSet
        from tests.test_runtime import _mapping_er_instance

        engine = ModelManagementEngine()
        mapping = paper.figure2_mapping()
        propagator = engine.update_propagator(mapping)
        assert isinstance(propagator, UpdatePropagator)
        update = UpdateSet().insert_object(
            "Employee", Id=9, Name="New", Dept="Ops"
        )
        source_update, new_source, new_target = propagator.propagate(
            _mapping_er_instance(mapping), update
        )
        assert any(
            row.get("Id") == 9 for row in source_update.inserts.get("Empl", [])
        )
        assert {r["Id"] for r in new_target.objects_of("Employee")} >= {9}


class TestRepository:
    def test_save_load_schema(self):
        repo = MetadataRepository()
        repo.save_schema(person_hierarchy())
        loaded = repo.load_schema("ERS")
        assert set(loaded.entities) == {"Person", "Employee", "Customer"}

    def test_versioning(self):
        repo = MetadataRepository()
        repo.save_schema(person_hierarchy(), comment="v1")
        evolved = person_hierarchy()
        from repro.metamodel import Attribute

        evolved.entity("Person").add_attribute(
            Attribute("Email", STRING, nullable=True)
        )
        repo.save_schema(evolved, comment="added email")
        assert repo.versions_of("schema", "ERS") == [1, 2]
        v1 = repo.load_schema("ERS", version=1)
        v2 = repo.load_schema("ERS", version=2)
        assert not v1.entity("Person").has_attribute("Email")
        assert v2.entity("Person").has_attribute("Email")
        assert repo.load_schema("ERS").entity("Person").has_attribute("Email")

    def test_unknown_name(self):
        with pytest.raises(RepositoryError):
            MetadataRepository().load_schema("nope")

    def test_unknown_version(self):
        repo = MetadataRepository()
        repo.save_schema(person_hierarchy())
        with pytest.raises(RepositoryError):
            repo.load_schema("ERS", version=9)

    def test_mapping_storage(self):
        repo = MetadataRepository()
        repo.save_mapping(paper.figure2_mapping())
        loaded = repo.load_mapping("figure2")
        assert loaded.holds_for(
            paper.figure2_sql_instance(), paper.figure2_er_instance()
        )
        assert repo.list_mappings() == ["figure2"]

    def test_disk_persistence(self, tmp_path):
        repo = MetadataRepository(tmp_path)
        repo.save_schema(person_hierarchy())
        repo.save_mapping(paper.figure2_mapping())
        reopened = MetadataRepository(tmp_path)
        assert reopened.list_schemas() == ["ERS"]
        assert reopened.list_mappings() == ["figure2"]
        assert reopened.load_schema("ERS").entity("Employee").parent.name == (
            "Person"
        )


class TestScripts:
    def test_migrate_script(self):
        result = migrate_script(
            paper.figure6_map_v_s(),
            paper.figure6_map_s_sprime(),
            database=paper.figure6_s_instance(),
        )
        migrated = result.artifacts["database"]
        assert migrated.cardinality("NamesP") == 3
        assert migrated.cardinality("Local") == 2
        assert migrated.cardinality("Foreign") == 1
        composed = result.artifacts["mapping"]
        assert composed.target.name == "Sprime"
        assert "composed" in result.describe()

    def test_evolve_view_script_finds_new_parts(self):
        # Evolve S′ further: Foreign gains a Visa column.
        s_prime = paper.figure6_s_prime_schema()
        from repro.metamodel import Attribute

        s_prime.entity("Foreign").add_attribute(
            Attribute("Visa", STRING, nullable=True)
        )
        map_s_sprime = Mapping(
            paper.figure6_s_schema(), s_prime,
            paper.figure6_map_s_sprime().constraints, name="mapS-Sprime",
        )
        result = evolve_view_script(
            paper.figure6_view_schema(), paper.figure6_map_v_s(), map_s_sprime
        )
        assert "Foreign.Visa" in result.artifacts["diff"].participating
        merged = result.artifacts["merged"].schema
        assert "Students" in merged.entities
        assert "Foreign" in merged.entities  # the new part joined the view


class TestEtl:
    def test_pipeline_with_cleaning_and_batches(self):
        source_schema = (
            SchemaBuilder("Raw").entity("Sales", key=["sid"])
            .attribute("sid", INT).attribute("amount", INT)
            .attribute("region", STRING)
            .build()
        )
        warehouse = (
            SchemaBuilder("Wh").entity("Facts", key=["sid"])
            .attribute("sid", INT).attribute("amount", INT)
            .attribute("region", STRING)
            .build()
        )
        mapping = Mapping(source_schema, warehouse, [
            parse_tgd("Sales(sid=s, amount=a, region=r) -> "
                      "Facts(sid=s, amount=a, region=r)")
        ])

        def drop_negative(relation, row):
            return None if row.get("amount", 0) < 0 else row

        pipeline = EtlPipeline("sales").add_step(mapping, cleaner=drop_negative)
        source = Instance(source_schema)
        for i in range(10):
            source.add("Sales", sid=i, amount=(i - 2) * 10, region="EU")
        result, stats = pipeline.run(source, batch_size=4)
        assert result.cardinality("Facts") == 8  # two negatives dropped
        batch_stats = [s for s in stats if "rows_in" in s]
        assert len(batch_stats) == 3  # 10 rows in batches of 4
        assert stats[-1]["violations"] == 0

    def test_two_step_pipeline(self):
        a = SchemaBuilder("A").entity("R", key=["k"]).attribute("k", INT).build()
        b = SchemaBuilder("B").entity("S", key=["k"]).attribute("k", INT).build()
        c = SchemaBuilder("C").entity("T", key=["k"]).attribute("k", INT).build()
        pipeline = (
            EtlPipeline()
            .add_step(Mapping(a, b, [parse_tgd("R(k=x) -> S(k=x)")]))
            .add_step(Mapping(b, c, [parse_tgd("S(k=x) -> T(k=x)")]))
        )
        source = Instance(a)
        source.add("R", k=1)
        result, _ = pipeline.run(source)
        assert result.rows("T") == [{"k": 1}]


class TestWrapper:
    def test_generate_from_inheritance_mapping(self):
        generator = WrapperGenerator()
        wrapper, source_code = generator.generate_from_mapping(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        assert "class Customer(Person):" in source_code
        assert len(wrapper.all("Person")) == 5
        assert len(wrapper.all("Employee")) == 2
        bob = wrapper.get("Employee", Id=2)
        assert bob["Dept"] == "Sales"

    def test_wrapper_insert_propagates_to_tables(self):
        generator = WrapperGenerator()
        wrapper, _ = generator.generate_from_mapping(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        wrapper.insert("Employee", Id=9, Name="New", Dept="Ops")
        assert any(r["Id"] == 9 for r in wrapper.database.rows("Empl"))
        assert any(r["Id"] == 9 for r in wrapper.database.rows("HR"))
        assert wrapper.get("Employee", Id=9) is not None

    def test_wrapper_delete(self):
        generator = WrapperGenerator()
        wrapper, _ = generator.generate_from_mapping(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        wrapper.delete("Employee", Id=2)
        assert all(r["Id"] != 2 for r in wrapper.database.rows("Empl"))
        assert all(r["Id"] != 2 for r in wrapper.database.rows("HR"))

    def test_generate_from_flat_schema(self):
        schema = paper.figure4_source_schema()
        db = paper.figure4_source_instance()
        wrapper, source_code = WrapperGenerator().generate(schema, db)
        assert "class Empl:" in source_code
        assert len(wrapper.all("Empl")) == 2


class TestMediator:
    def test_union_across_sources(self):
        global_schema = (
            SchemaBuilder("Global").entity("People", key=["id"])
            .attribute("id", INT).attribute("name", STRING).build()
        )
        s1 = SchemaBuilder("S1").entity("Emp", key=["id"]).attribute("id", INT) \
            .attribute("name", STRING).build()
        s2 = SchemaBuilder("S2").entity("Cust", key=["id"]) \
            .attribute("id", INT).attribute("name", STRING).build()
        m1 = Mapping(s1, global_schema,
                     [parse_tgd("Emp(id=i, name=n) -> People(id=i, name=n)")])
        m2 = Mapping(s2, global_schema,
                     [parse_tgd("Cust(id=i, name=n) -> People(id=i, name=n)")])
        d1 = Instance()
        d1.add("Emp", id=1, name="Ann")
        d2 = Instance()
        d2.add("Cust", id=2, name="Bob")
        d2.add("Cust", id=1, name="Ann")  # overlap
        mediator = QueryMediator(global_schema)
        mediator.add_source("hr", m1, d1)
        mediator.add_source("crm", m2, d2)
        rows = mediator.answer(project_names(Scan("People"), ["id", "name"]))
        assert {(r["id"], r["name"]) for r in rows} == {(1, "Ann"), (2, "Bob")}

    def test_selection_pushes_through(self):
        global_schema = (
            SchemaBuilder("G2").entity("People", key=["id"])
            .attribute("id", INT).attribute("name", STRING).build()
        )
        s1 = SchemaBuilder("S1b").entity("Emp", key=["id"]).attribute("id", INT) \
            .attribute("name", STRING).build()
        mapping = Mapping(
            s1, global_schema,
            [parse_tgd("Emp(id=i, name=n) -> People(id=i, name=n)")],
        )
        data = Instance()
        data.add("Emp", id=1, name="Ann")
        data.add("Emp", id=5, name="Eve")
        mediator = QueryMediator(global_schema)
        mediator.add_source("hr", mapping, data)
        rows = mediator.answer(
            Select(Scan("People"), gt(Col("id"), 3))
        )
        assert [r["id"] for r in rows] == [5]


class TestMessageMapper:
    def test_translate_nested_messages(self):
        source_schema = (
            SchemaBuilder("PO", metamodel="nested")
            .entity("PurchaseOrder", key=["po"]).attribute("po", INT)
            .attribute("buyer", STRING)
            .entity("Item", key=["sku"]).attribute("sku", STRING)
            .attribute("qty", INT)
            .containment("PurchaseOrder", "Item", name="items")
            .build()
        )
        target_schema = (
            SchemaBuilder("Inv", metamodel="nested")
            .entity("Invoice", key=["inv"]).attribute("inv", INT)
            .attribute("customer", STRING)
            .entity("Line", key=["code"]).attribute("code", STRING)
            .attribute("count", INT)
            .containment("Invoice", "Line", name="lines")
            .build()
        )
        mapping = Mapping(source_schema, target_schema, [
            parse_tgd("PurchaseOrder(po=p, buyer=b) -> "
                      "Invoice(inv=p, customer=b)"),
            parse_tgd(
                "Item(sku=s, qty=q, PurchaseOrder_po=p) -> "
                "Line(code=s, count=q, Invoice_inv=p)"
            ),
        ])
        # The flattened Item carries PurchaseOrder_po; Line must carry
        # Invoice_inv for re-nesting — declare it.
        from repro.metamodel import Attribute

        source_schema.entity("Item").add_attribute(
            Attribute("PurchaseOrder_po", INT)
        )
        target_schema.entity("Line").add_attribute(
            Attribute("Invoice_inv", INT)
        )
        mapper = MessageMapper(
            source_schema, "PurchaseOrder", target_schema, "Invoice", mapping
        )
        messages = [
            {"po": 7, "buyer": "ACME",
             "items": [{"sku": "a1", "qty": 3}, {"sku": "b2", "qty": 1}]},
        ]
        translated = mapper.translate(messages)
        assert translated[0]["inv"] == 7
        assert translated[0]["customer"] == "ACME"
        lines = {(l["code"], l["count"]) for l in translated[0]["lines"]}
        assert lines == {("a1", 3), ("b2", 1)}


class TestReportWriter:
    def test_text_report_through_mapping(self):
        writer = ReportWriter(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        spec = ReportSpec(
            entity="Employee",
            columns=["Id", "Name", "Dept"],
            title="Employees",
            typed=True,
            order_by=["Id"],
        )
        text = writer.render_text(spec)
        assert "Employees" in text
        assert "Bob" in text and "Sales" in text
        assert "(2 rows)" in text

    def test_aggregated_report(self):
        writer = ReportWriter(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        spec = ReportSpec(
            entity="Customer",
            columns=[],
            typed=True,
            aggregations=[("customers", "count", None),
                          ("avg_score", "avg", "CreditScore")],
        )
        rows = writer.rows(spec)
        assert rows[0]["customers"] == 2
        assert rows[0]["avg_score"] == 675.0

    def test_csv(self):
        writer = ReportWriter(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        spec = ReportSpec(entity="Person", columns=["Id", "Name"], typed=True,
                          order_by=["Id"])
        csv = writer.render_csv(spec)
        assert csv.splitlines()[0] == "Id,Name"
        assert len(csv.splitlines()) == 6
