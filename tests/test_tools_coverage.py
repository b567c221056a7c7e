"""Additional tool-layer coverage: mediator CQ answering and plans,
report filters, ETL edge cases."""

import pytest

from repro.algebra import Col, EntityScan, Scan, gt, project_names
from repro.errors import MappingError
from repro.instances import Instance
from repro.logic import parse_query, parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.tools import EtlPipeline, QueryMediator, ReportSpec, ReportWriter
from repro.workloads import paper


def _global_and_sources():
    global_schema = (
        SchemaBuilder("Gl").entity("People", key=["id"])
        .attribute("id", INT).attribute("name", STRING).build()
    )
    s1 = (
        SchemaBuilder("Sa").entity("Emp", key=["id"])
        .attribute("id", INT).attribute("name", STRING).build()
    )
    m1 = Mapping(s1, global_schema,
                 [parse_tgd("Emp(id=i, name=n) -> People(id=i, name=n)")])
    d1 = Instance()
    d1.add("Emp", id=1, name="Ann")
    return global_schema, s1, m1, d1


class TestMediatorExtras:
    def test_answer_cq(self):
        global_schema, _, m1, d1 = _global_and_sources()
        mediator = QueryMediator(global_schema)
        mediator.add_source("hr", m1, d1)
        answers = mediator.answer_cq(
            parse_query("q(n) :- People(id=i, name=n)")
        )
        assert answers == [("Ann",)]

    def test_explain_reports_plans(self):
        global_schema, _, m1, d1 = _global_and_sources()
        mediator = QueryMediator(global_schema)
        mediator.add_source("hr", m1, d1)
        plans = mediator.explain(project_names(Scan("People"), ["id"]))
        assert "hr" in plans

    def test_explain_unfolds_equality_sources_only(self):
        """An equality source shows its unfolded plan, a tgd source the
        certain-answers text."""
        er = paper.figure2_er_schema()
        side = (SchemaBuilder("Side").entity("Src", key=["Id"])
                .attribute("Id", INT).attribute("Name", STRING).build())
        tgds = Mapping(side, er, [
            parse_tgd("Src(Id=i, Name=n) -> Person(Id=i, Name=n)")
        ])
        mediator = QueryMediator(er)
        mediator.add_source("sql", paper.figure2_mapping(),
                            paper.figure2_sql_instance())
        mediator.add_source("side", tgds, Instance())
        query = project_names(EntityScan("Person"), ["Id"])
        plans = mediator.explain(query)
        assert plans["sql"] == repr(
            mediator._sources["sql"].processor.unfolded(query)
        )
        assert "HR" in plans["sql"]
        assert plans["side"] == "(certain answers over exchanged data)"

    def test_explain_propagates_unfolding_errors(self, monkeypatch):
        mediator = QueryMediator(paper.figure2_er_schema())
        mediator.add_source("sql", paper.figure2_mapping(),
                            paper.figure2_sql_instance())

        def broken(query):
            raise RuntimeError("unfolding failed")

        monkeypatch.setattr(mediator._sources["sql"].processor, "unfolded",
                            broken)
        with pytest.raises(RuntimeError, match="unfolding failed"):
            mediator.explain(project_names(EntityScan("Person"), ["Id"]))

    def test_refresh_replaces_data(self):
        global_schema, _, m1, d1 = _global_and_sources()
        mediator = QueryMediator(global_schema)
        mediator.add_source("hr", m1, d1)
        fresh = Instance()
        fresh.add("Emp", id=9, name="New")
        mediator.refresh("hr", fresh)
        rows = mediator.answer(project_names(Scan("People"), ["id"]))
        assert [r["id"] for r in rows] == [9]

    def test_wrong_target_schema_rejected(self):
        global_schema, s1, m1, d1 = _global_and_sources()
        other = (
            SchemaBuilder("Other").entity("X", key=["id"])
            .attribute("id", INT).build()
        )
        mediator = QueryMediator(other)
        with pytest.raises(MappingError):
            mediator.add_source("hr", m1, d1)

    def test_duplicate_source_rejected(self):
        global_schema, _, m1, d1 = _global_and_sources()
        mediator = QueryMediator(global_schema)
        mediator.add_source("hr", m1, d1)
        with pytest.raises(MappingError):
            mediator.add_source("hr", m1, d1)


class TestReportExtras:
    def test_where_filter(self):
        writer = ReportWriter(paper.figure2_mapping(),
                              paper.figure2_sql_instance())
        spec = ReportSpec(
            entity="Customer", columns=["Id", "Name"], typed=True,
            where=gt(Col("CreditScore"), 650),
        )
        rows = writer.rows(spec)
        assert [r["Name"] for r in rows] == ["Dave"]

    def test_group_by_with_order(self):
        writer = ReportWriter(paper.figure2_mapping(),
                              paper.figure2_sql_instance())
        spec = ReportSpec(
            entity="Employee", columns=[], typed=True,
            group_by=["Dept"],
            aggregations=[("n", "count", None)],
            order_by=["Dept"],
        )
        rows = writer.rows(spec)
        assert [r["Dept"] for r in rows] == ["Engineering", "Sales"]

    def test_csv_escaping(self):
        writer = ReportWriter(paper.figure2_mapping(),
                              paper.figure2_sql_instance())
        db = paper.figure2_sql_instance()
        # Route through a raw writer to exercise the escaping helper.
        from repro.tools.report import _csv_cell

        assert _csv_cell('say "hi", ok') == '"say ""hi"", ok"'
        assert _csv_cell(None) == ""
        assert _csv_cell(1.5) == "1.50"


class TestEtlExtras:
    def test_empty_source(self):
        s = SchemaBuilder("Ea").entity("R", key=["k"]).attribute("k", INT).build()
        t = SchemaBuilder("Eb").entity("T", key=["k"]).attribute("k", INT).build()
        pipeline = EtlPipeline().add_step(
            Mapping(s, t, [parse_tgd("R(k=x) -> T(k=x)")])
        )
        result, stats = pipeline.run(Instance(s))
        assert result.total_rows() == 0

    def test_batching_covers_all_rows(self):
        s = SchemaBuilder("Ec").entity("R", key=["k"]).attribute("k", INT).build()
        t = SchemaBuilder("Ed").entity("T", key=["k"]).attribute("k", INT).build()
        pipeline = EtlPipeline().add_step(
            Mapping(s, t, [parse_tgd("R(k=x) -> T(k=x)")])
        )
        source = Instance(s)
        for i in range(23):
            source.add("R", k=i)
        for batch_size in (1, 7, 23, 100):
            result, _ = pipeline.run(source, batch_size=batch_size)
            assert result.cardinality("T") == 23, batch_size

    def test_deduplicate_flag(self):
        s = SchemaBuilder("Ee").entity("R", key=["k"]).attribute("k", INT).build()
        t = SchemaBuilder("Ef").entity("T", key=["k"]).attribute("k", INT).build()
        mapping = Mapping(s, t, [parse_tgd("R(k=x) -> T(k=x)")])
        source = Instance(s)
        source.add("R", k=1)
        source.add("R", k=1)
        result, _ = EtlPipeline().add_step(mapping).run(source)
        assert result.cardinality("T") == 1
