"""Tests for ModelGen (metamodel translation + inheritance strategies)
and TransGen (query/update views, Figure 3, roundtripping)."""

import pytest

from repro.errors import RoundTripError
from repro.instances import Instance, InstanceGenerator, violations
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, Cardinality, SchemaBuilder
from repro.operators import InheritanceStrategy, modelgen, transgen
from repro.operators.transgen import (
    AlgebraTransformation,
    ExchangeTransformation,
    TransformationPair,
)
from repro.workloads import paper, synthetic
from tests.test_metamodel_schema import person_hierarchy


class TestModelGenInheritance:
    def test_tpt_tables(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPT)
        assert set(result.schema.entities) == {"Person", "Employee", "Customer"}
        employee = result.schema.entity("Employee")
        assert set(employee.own_attribute_names()) == {"Id", "Dept"}
        assert result.schema.metamodel == "relational"
        result.schema.check_metamodel()

    def test_tpt_foreign_keys(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPT)
        fks = result.schema.inclusion_dependencies()
        assert any(f.source == "Employee" and f.target == "Person" for f in fks)

    def test_tph_single_table(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPH)
        assert set(result.schema.entities) == {"Person_all"}
        table = result.schema.entity("Person_all")
        assert table.has_attribute("Person_type")
        assert table.has_attribute("Dept") and table.has_attribute("CreditScore")
        assert table.attribute("Dept").nullable  # subtype attrs nullable

    def test_tpc_concrete_tables(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPC)
        assert set(result.schema.entities) == {
            "Person_c", "Employee_c", "Customer_c",
        }
        employee = result.schema.entity("Employee_c")
        # TPC tables carry inherited attributes too.
        assert set(employee.own_attribute_names()) == {"Id", "Name", "Dept"}

    def test_constraint_counts(self):
        for strategy, expected in [
            (InheritanceStrategy.TPT, 3),
            (InheritanceStrategy.TPH, 3),
            (InheritanceStrategy.TPC, 3),
        ]:
            result = modelgen(person_hierarchy(), "relational", strategy)
            assert len(result.mapping.equalities) == expected

    def test_mapping_orientation(self):
        result = modelgen(person_hierarchy(), "relational")
        assert result.mapping.source.name == result.schema.name
        assert result.mapping.target.name == "ERS"


class TestModelGenOtherConstructs:
    def test_association_to_join_table(self):
        schema = (
            SchemaBuilder("Uni", metamodel="er")
            .entity("Student", key=["sid"]).attribute("sid", INT)
            .entity("Course", key=["cid"]).attribute("cid", INT)
            .association("Enrolled", "Student", "Course")
            .build()
        )
        result = modelgen(schema, "relational")
        table = result.schema.entity("Enrolled")
        assert set(table.own_attribute_names()) == {"Student_sid", "Course_cid"}
        fks = result.schema.inclusion_dependencies()
        assert any(f.source == "Enrolled" and f.target == "Student" for f in fks)
        result.schema.check_metamodel()

    def test_containment_flattened(self):
        schema = (
            SchemaBuilder("Orders", metamodel="nested")
            .entity("Order", key=["oid"]).attribute("oid", INT)
            .entity("Line", key=["lid"]).attribute("lid", INT)
            .attribute("qty", INT)
            .containment("Order", "Line")
            .build()
        )
        result = modelgen(schema, "relational")
        line = result.schema.entity("Line")
        assert line.has_attribute("Order_oid")
        fks = result.schema.inclusion_dependencies()
        assert any(f.source == "Line" and f.target == "Order" for f in fks)

    def test_reference_to_fk(self):
        schema = (
            SchemaBuilder("App", metamodel="oo")
            .entity("User", key=["uid"]).attribute("uid", INT)
            .entity("Post", key=["pid"]).attribute("pid", INT)
            .reference("Post", "author", "User")
            .build()
        )
        result = modelgen(schema, "relational")
        post = result.schema.entity("Post")
        assert post.has_attribute("author_uid")

    def test_relational_to_oo_enrichment(self):
        schema = paper.figure4_source_schema()
        result = modelgen(schema, "oo")
        assert result.schema.metamodel == "oo"
        assert any(
            r.target.name == "Addr" for r in result.schema.references.values()
        )

    def test_relational_to_er_enrichment(self):
        result = modelgen(paper.figure4_source_schema(), "er")
        assert result.schema.associations
        result.schema.check_metamodel()

    def test_relational_to_nested(self):
        result = modelgen(paper.figure4_source_schema(), "nested")
        assert result.schema.containments
        result.schema.check_metamodel()


def _er_sample() -> Instance:
    db = Instance(person_hierarchy())
    db.insert_object("Person", Id=1, Name="Ann")
    db.insert_object("Employee", Id=2, Name="Bob", Dept="Sales")
    db.insert_object("Customer", Id=3, Name="Cat", CreditScore=700,
                     BillingAddr="x")
    return db


class TestTransGenViews:
    @pytest.mark.parametrize("strategy", list(InheritanceStrategy))
    def test_roundtrip_all_strategies(self, strategy):
        result = modelgen(person_hierarchy(), "relational", strategy)
        views = transgen(result.mapping)
        assert isinstance(views, TransformationPair)
        views.verify_roundtrip(_er_sample())

    @pytest.mark.parametrize("strategy", list(InheritanceStrategy))
    def test_generated_tables_satisfy_mapping(self, strategy):
        result = modelgen(person_hierarchy(), "relational", strategy)
        views = transgen(result.mapping)
        assert views.verify_constraints(_er_sample())

    def test_tpt_table_contents(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPT)
        views = transgen(result.mapping)
        tables = views.update_view.apply(_er_sample())
        # Person table holds everyone (TPT root), Employee only Bob.
        assert {r["Id"] for r in tables.rows("Person")} == {1, 2, 3}
        assert {r["Id"] for r in tables.rows("Employee")} == {2}
        assert {r["Id"] for r in tables.rows("Customer")} == {3}

    def test_tph_table_contents(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPH)
        views = transgen(result.mapping)
        tables = views.update_view.apply(_er_sample())
        rows = {r["Id"]: r for r in tables.rows("Person_all")}
        assert rows[2]["Person_type"] == "Employee"
        assert rows[2]["Dept"] == "Sales"
        assert rows[1]["Dept"] is None

    def test_query_view_reconstructs_types(self):
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPT)
        views = transgen(result.mapping)
        tables = views.update_view.apply(_er_sample())
        entities = views.query_view.apply(tables)
        by_id = {r["Id"]: r["$type"] for r in entities.rows("Person")}
        assert by_id == {1: "Person", 2: "Employee", 3: "Customer"}

    def test_figure2_paper_mapping_roundtrips(self):
        """The paper's own Figure 2 constraints → Figure 3-equivalent
        query view: evaluating it on the paper's table data must yield
        the paper's entity data."""
        mapping = paper.figure2_mapping()
        views = transgen(mapping)
        produced = views.query_view.apply(paper.figure2_sql_instance())
        assert produced.set_equal(paper.figure2_er_instance())

    def test_figure2_update_view(self):
        mapping = paper.figure2_mapping()
        views = transgen(mapping)
        tables = views.update_view.apply(paper.figure2_er_instance())
        assert tables.set_equal(paper.figure2_sql_instance())

    def test_figure2_roundtrip(self):
        views = transgen(paper.figure2_mapping())
        views.verify_roundtrip(paper.figure2_er_instance())

    def test_roundtrip_failure_detected(self):
        """Deliberately lossy views must be flagged."""
        mapping = paper.figure2_mapping()
        views = transgen(mapping)
        from repro.algebra import Scan, project_names

        broken = TransformationPair(
            query_view=views.query_view,
            update_view=AlgebraTransformation(
                [("HR", project_names(Scan("HR"), ["Id", "Name"]))],
                input_schema=mapping.target,
                output_schema=mapping.source,
            ),
            mapping=mapping,
        )
        with pytest.raises(RoundTripError):
            broken.verify_roundtrip(paper.figure2_er_instance())

    def test_roundtrip_scales_with_hierarchy(self):
        for depth in (2, 3):
            schema = synthetic.inheritance_schema("Deep", depth=depth,
                                                  branching=2)
            for strategy in InheritanceStrategy:
                result = modelgen(schema, "relational", strategy)
                views = transgen(result.mapping)
                db = InstanceGenerator(schema, seed=5).generate(30)
                views.verify_roundtrip(db)

    def test_query_view_sql_rendering(self):
        """The generated view renders to SQL (the Figure 3 deliverable)."""
        from repro.algebra import to_sql

        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPT)
        views = transgen(result.mapping)
        _, expr = views.query_view.rules[0]
        sql = to_sql(expr)
        assert "UNION ALL" in sql and "JOIN" in sql


class TestTransGenExchange:
    def test_st_tgd_exchange(self):
        source, target, tgds = synthetic.exchange_tgds(relations=2,
                                                       existential_fraction=0.5,
                                                       seed=1)
        mapping = Mapping(source, target, tgds)
        transformation = transgen(mapping)
        assert isinstance(transformation, ExchangeTransformation)
        db = InstanceGenerator(source, seed=2).generate(10)
        result = transformation.apply(db)
        assert result.cardinality("T0") == 10
        assert result.cardinality("T1") == 10

    def test_exchange_core_minimization(self):
        from repro.logic import parse_tgd

        source = (
            SchemaBuilder("S2").entity("S", key=["a"]).attribute("a", INT)
            .build()
        )
        target = (
            SchemaBuilder("T2").entity("T", key=["a"])
            .attribute("a", INT).attribute("b", INT, nullable=True).build()
        )
        mapping = Mapping(source, target, [
            parse_tgd("S(a=x) -> T(a=x, b=y)"),
            parse_tgd("S(a=x) -> T(a=x, b=0)"),
        ])
        db = Instance()
        db.add("S", a=1)
        plain = transgen(mapping).apply(db)
        minimal = transgen(mapping, compute_core=True).apply(db)
        assert minimal.cardinality("T") < plain.cardinality("T")
        assert not minimal.nulls()
