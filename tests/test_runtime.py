"""Tests for the mapping runtime: all Section 5 services."""

import pytest

from repro.algebra import (
    Col, EntityScan, IsOf, Project, Scan, Select, eq, project_names,
)
from repro.errors import AccessDenied, ExpressivenessError, TransformationError
from repro.instances import Instance, LabeledNull
from repro.logic import parse_query, parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.operators import modelgen, transgen, InheritanceStrategy
from repro.runtime import (
    AccessController,
    BatchLoader,
    ErrorTranslator,
    MappingDebugger,
    MaterializedTarget,
    PeerNetwork,
    Permission,
    QueryProcessor,
    UpdatePropagator,
    UpdateSet,
    check_constraint_propagation,
    exchange,
    inexpressible_constraints,
    lineage,
)
from repro.runtime.updates import apply_update, instance_delta
from repro.workloads import paper
from tests.test_metamodel_schema import person_hierarchy


def _figure2_views_mapping():
    return paper.figure2_mapping()


def _er_sample():
    db = Instance(person_hierarchy())
    db.insert_object("Person", Id=1, Name="Ann")
    db.insert_object("Employee", Id=2, Name="Bob", Dept="Sales")
    db.insert_object("Customer", Id=3, Name="Cat", CreditScore=700,
                     BillingAddr="x")
    return db


class TestExecutor:
    def test_exchange_equality_mapping(self):
        result = exchange(paper.figure2_mapping(), paper.figure2_sql_instance())
        assert result.set_equal(paper.figure2_er_instance())

    def test_exchange_tgd_mapping(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)")],
        )
        result = exchange(mapping, paper.figure6_s_instance())
        assert result.cardinality("NamesP") == 3


class TestQueryProcessor:
    def test_view_unfolding(self):
        processor = QueryProcessor(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        query = Project(
            Select(EntityScan("Person"), IsOf("Employee")),
            [("Id", Col("Id")), ("Dept", Col("Dept"))],
        )
        rows = processor.answer_algebra(query)
        assert {(r["Id"], r["Dept"]) for r in rows} == {
            (2, "Sales"), (3, "Engineering"),
        }

    def test_unfolded_reads_source_relations(self):
        processor = QueryProcessor(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        query = project_names(EntityScan("Person"), ["Id"])
        unfolded = processor.unfolded(query)
        assert unfolded.relations() <= {"HR", "Empl", "Client"}

    def test_certain_answers_tgd(self):
        source = (
            SchemaBuilder("S3").entity("S", key=["a"]).attribute("a", INT)
            .build()
        )
        target = (
            SchemaBuilder("T3").entity("T", key=["a"]).attribute("a", INT)
            .attribute("b", INT, nullable=True).build()
        )
        mapping = Mapping(source, target, [parse_tgd("S(a=x) -> T(a=x, b=y)")])
        db = Instance()
        db.add("S", a=1)
        processor = QueryProcessor(mapping, db)
        assert processor.answer_cq(parse_query("q(x) :- T(a=x, b=y)")) == [(1,)]
        assert processor.answer_cq(parse_query("q(y) :- T(a=x, b=y)")) == []

    def test_algebra_over_universal_solution_drops_nulls(self):
        source = (
            SchemaBuilder("S4").entity("S", key=["a"]).attribute("a", INT)
            .build()
        )
        target = (
            SchemaBuilder("T4").entity("T", key=["a"]).attribute("a", INT)
            .attribute("b", INT, nullable=True).build()
        )
        mapping = Mapping(source, target, [parse_tgd("S(a=x) -> T(a=x, b=y)")])
        db = Instance()
        db.add("S", a=1)
        processor = QueryProcessor(mapping, db)
        rows = processor.answer_algebra(project_names(Scan("T"), ["a", "b"]))
        assert rows == []  # the b-null row is not a certain answer
        rows = processor.answer_algebra(project_names(Scan("T"), ["a"]))
        assert rows == [{"a": 1}]


class TestUpdatePropagation:
    def test_insert_propagates(self):
        mapping = paper.figure2_mapping()
        propagator = UpdatePropagator(mapping)
        er = _mapping_er_instance(mapping)
        update = UpdateSet().insert_object(
            "Employee", Id=9, Name="New", Dept="Ops"
        )
        source_update, new_source, new_target = propagator.propagate(er, update)
        assert {r["Id"] for r in new_source.rows("Empl")} >= {9}
        assert any(
            row.get("Id") == 9 for row in source_update.inserts.get("HR", [])
        )
        assert any(
            row.get("Id") == 9 for row in source_update.inserts.get("Empl", [])
        )

    def test_delete_propagates(self):
        mapping = paper.figure2_mapping()
        propagator = UpdatePropagator(mapping)
        er = _mapping_er_instance(mapping)
        update = UpdateSet().delete("Person", Id=2)
        source_update, new_source, _ = propagator.propagate(er, update)
        assert all(r["Id"] != 2 for r in new_source.rows("Empl"))
        deleted = source_update.deletes
        assert any(row.get("Id") == 2 for row in deleted.get("HR", []))

    def test_tgd_mapping_rejected(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)")],
        )
        with pytest.raises(ExpressivenessError):
            UpdatePropagator(mapping)

    def test_instance_delta(self):
        before, after = Instance(), Instance()
        before.add("R", x=1)
        before.add("R", x=2)
        after.add("R", x=2)
        after.add("R", x=3)
        delta = instance_delta(before, after)
        assert delta.inserts["R"] == [{"x": 3}]
        assert delta.deletes["R"] == [{"x": 1}]

    def test_apply_update_typed(self):
        db = _er_sample()
        update = UpdateSet().insert_object("Person", Id=10, Name="Zoe")
        new = apply_update(db, update)
        assert len(new.objects_of("Person", strict=True)) == 2


def _mapping_er_instance(mapping):
    """figure2 ER data bound to the mapping's own target schema object."""
    db = Instance(mapping.target)
    db.insert_object("Person", Id=1, Name="Ann")
    db.insert_object("Employee", Id=2, Name="Bob", Dept="Sales")
    db.insert_object("Employee", Id=3, Name="Carol", Dept="Engineering")
    db.insert_object("Customer", Id=4, Name="Dave", CreditScore=710,
                     BillingAddr="12 Elm St")
    db.insert_object("Customer", Id=5, Name="Eve", CreditScore=640,
                     BillingAddr="9 Oak Ave")
    return db


class TestProvenance:
    def _setup(self):
        source = Instance()
        source.insert_all("Empl", [
            {"EID": 1, "AID": 10}, {"EID": 2, "AID": 20},
        ])
        source.insert_all("Addr", [
            {"AID": 10, "City": "Rome"}, {"AID": 20, "City": "Oslo"},
        ])
        tgd = parse_tgd(
            "Empl(EID=e, AID=a) & Addr(AID=a, City=c) -> Staff(SID=e, City=c)",
            name="to_staff",
        )
        return source, [tgd]

    def test_lineage_finds_witnesses(self):
        source, tgds = self._setup()
        entries = lineage({"SID": 1, "City": "Rome"}, "Staff", source, tgds)
        assert len(entries) == 1
        witnessed = {rel for rel, _ in entries[0].source_rows}
        assert witnessed == {"Empl", "Addr"}
        assert {"EID": 1, "AID": 10} in [r for _, r in entries[0].source_rows]

    def test_lineage_absent_row(self):
        source, tgds = self._setup()
        assert lineage({"SID": 9, "City": "Rome"}, "Staff", source, tgds) == []

    def test_lineage_with_invented_null(self):
        source = Instance()
        source.add("P", name="Ann")
        tgd = parse_tgd("P(name=n) -> Q(name=n, code=c)", name="invent")
        null = LabeledNull(0)
        entries = lineage({"name": "Ann", "code": null}, "Q", source, [tgd])
        assert len(entries) == 1  # null matches the existential


class TestDebugging:
    def test_trace_equality_mapping(self):
        debugger = MappingDebugger(paper.figure2_mapping())
        steps = debugger.trace(paper.figure2_sql_instance())
        assert any(s.output_relation == "Person" for s in steps)
        assert all(s.row_count >= 0 for s in steps)

    def test_trace_tgd_mapping(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)",
                       name="names")],
        )
        steps = MappingDebugger(mapping).trace(paper.figure6_s_instance())
        assert steps[0].row_count == 3

    def test_explain_missing_no_source_match(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)",
                       name="names")],
        )
        debugger = MappingDebugger(mapping)
        reasons = debugger.explain_missing(
            {"SID": 99, "Name": "Ghost"}, "NamesP", paper.figure6_s_instance()
        )
        assert any("no source row matches" in r for r in reasons)

    def test_explain_missing_unproduced_relation(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)")],
        )
        reasons = MappingDebugger(mapping).explain_missing(
            {"SID": 1}, "Local", paper.figure6_s_instance()
        )
        assert "no dependency produces" in reasons[0]


class TestErrorTranslation:
    def test_message_rewritten(self):
        mapping = paper.figure2_mapping()
        translator = ErrorTranslator(mapping)
        error = KeyError("constraint violated on table Empl")
        translated = translator.translate(error, operation="save Employee")
        assert "Empl" not in translated.message.replace("Employee", "")
        assert "Employee" in translated.message

    def test_column_level_translation(self):
        mapping = paper.figure2_mapping()
        element_map = ErrorTranslator(mapping).element_map()
        assert element_map.get("Client") == "Person"
        # Column mapping: Client.Score ↔ CreditScore
        assert any("Score" in k for k in element_map)

    def test_tgd_mapping_translation(self):
        source = (
            SchemaBuilder("Sx").entity("T1", key=["k"]).attribute("k", INT)
            .attribute("v", INT).build()
        )
        target = (
            SchemaBuilder("Tx").entity("T2", key=["k"]).attribute("k", INT)
            .attribute("w", INT).build()
        )
        mapping = Mapping(source, target,
                          [parse_tgd("T1(k=x, v=y) -> T2(k=x, w=y)")])
        translated = ErrorTranslator(mapping).translate(
            ValueError("bad value in T1.v")
        )
        assert "T2.w" in translated.message


class TestNotifications:
    def _mapping(self):
        source = (
            SchemaBuilder("Sn").entity("Ord", key=["oid"])
            .attribute("oid", INT).attribute("cust", INT).build()
        )
        target = (
            SchemaBuilder("Tn").entity("BigOrders", key=["oid"])
            .attribute("oid", INT).attribute("cust", INT).build()
        )
        return Mapping(source, target, [
            parse_tgd("Ord(oid=o, cust=c) -> BigOrders(oid=o, cust=c)")
        ])

    def test_incremental_insert(self):
        mapping = self._mapping()
        db = Instance()
        db.add("Ord", oid=1, cust=10)
        materialized = MaterializedTarget(mapping, db)
        received = []
        materialized.subscribe(received.append)
        delta = materialized.on_source_change(
            UpdateSet().insert("Ord", oid=2, cust=20)
        )
        assert not delta.recomputed
        assert delta.inserted["BigOrders"] == [{"oid": 2, "cust": 20}]
        assert received and received[0] is delta
        assert materialized.target.cardinality("BigOrders") == 2
        assert materialized.maintenance_stats["incremental"] == 1

    def test_delete_maintained_incrementally(self):
        mapping = self._mapping()
        db = Instance()
        db.add("Ord", oid=1, cust=10)
        db.add("Ord", oid=2, cust=20)
        materialized = MaterializedTarget(mapping, db)
        delta = materialized.on_source_change(
            UpdateSet().delete("Ord", oid=1)
        )
        assert not delta.recomputed
        assert delta.deleted["BigOrders"] == [{"oid": 1, "cust": 10}]
        assert materialized.target.cardinality("BigOrders") == 1
        assert materialized.maintenance_stats["incremental"] == 1

    def test_forced_recompute_lane(self):
        mapping = self._mapping()
        db = Instance()
        db.add("Ord", oid=1, cust=10)
        materialized = MaterializedTarget(mapping, db, incremental=False)
        delta = materialized.on_source_change(
            UpdateSet().insert("Ord", oid=2, cust=20)
        )
        assert delta.recomputed
        assert materialized.target.cardinality("BigOrders") == 2
        assert materialized.maintenance_stats["recomputed"] == 1

    def test_incremental_matches_recompute(self):
        """Incremental maintenance must agree with full recomputation."""
        mapping = self._mapping()
        db = Instance()
        for i in range(5):
            db.add("Ord", oid=i, cust=i * 10)
        incremental = MaterializedTarget(mapping, db)
        for i in range(5, 10):
            incremental.on_source_change(
                UpdateSet().insert("Ord", oid=i, cust=i * 10)
            )
        full = exchange(mapping, incremental.source)
        assert incremental.target.set_equal(full)

    def test_join_tgd_incremental(self):
        source = (
            SchemaBuilder("Sj")
            .entity("E", key=["eid"]).attribute("eid", INT).attribute("aid", INT)
            .entity("A", key=["aid"]).attribute("aid", INT).attribute("city", STRING)
            .build()
        )
        target = (
            SchemaBuilder("Tj").entity("Stf", key=["eid"])
            .attribute("eid", INT).attribute("city", STRING).build()
        )
        mapping = Mapping(source, target, [
            parse_tgd("E(eid=e, aid=a) & A(aid=a, city=c) -> Stf(eid=e, city=c)")
        ])
        db = Instance()
        db.add("A", aid=1, city="Rome")
        materialized = MaterializedTarget(mapping, db)
        assert materialized.target.cardinality("Stf") == 0
        delta = materialized.on_source_change(
            UpdateSet().insert("E", eid=7, aid=1)
        )
        assert delta.inserted["Stf"] == [{"eid": 7, "city": "Rome"}]


class TestAccessControl:
    def test_check_denies_unauthorized(self):
        mapping = paper.figure2_mapping()
        controller = AccessController(mapping)
        controller.grant("alice", "HR")
        controller.grant("alice", "Empl")
        query = project_names(
            Select(EntityScan("Person"), IsOf("Customer")), ["Id"]
        )
        with pytest.raises(AccessDenied):
            controller.check("alice", query)  # needs Client

    def test_check_allows_authorized(self):
        mapping = paper.figure2_mapping()
        controller = AccessController(mapping)
        for relation in ("HR", "Empl", "Client"):
            controller.grant("root", relation)
        controller.check("root", project_names(EntityScan("Person"), ["Id"]))

    def test_row_filter_pushdown(self):
        from repro.algebra import evaluate, gt

        mapping = paper.figure2_mapping()
        controller = AccessController(mapping)
        for relation in ("HR", "Empl", "Client"):
            row_filter = gt(Col("Id"), 4) if relation == "Client" else None
            controller.grant("bob", relation, row_filter=row_filter)
        query = project_names(
            Select(EntityScan("Person"), IsOf("Customer")), ["Id"]
        )
        restricted = controller.restricted_query("bob", query)
        rows = evaluate(restricted, paper.figure2_sql_instance())
        assert {r["Id"] for r in rows} == {5}  # Id=4 filtered out

    def test_tgd_footprint(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)")],
        )
        controller = AccessController(mapping)
        footprint = controller.source_footprint(
            project_names(Scan("NamesP"), ["SID"])
        )
        assert footprint == {"Names"}


class TestIntegrity:
    def test_propagation_ok(self):
        report = check_constraint_propagation(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        assert report.source_satisfied
        assert report.propagates

    def test_propagation_vacuous_when_source_invalid(self):
        db = paper.figure2_sql_instance()
        db.add("Empl", Id=999, Dept="Ghost")  # FK violation
        report = check_constraint_propagation(paper.figure2_mapping(), db)
        assert not report.source_satisfied
        assert report.propagates  # vacuously

    def test_disjointness_inexpressible_under_tpt(self):
        """The paper's Section 5 example, verbatim: disjoint subclasses
        mapped to distinct tables."""
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPT)
        flagged = inexpressible_constraints(result.mapping)
        assert any(
            "Employee" in str(f.constraint.entities) for f in flagged
        ), flagged

    def test_disjointness_expressible_under_tph(self):
        """With a single table (TPH), disjointness is enforceable via
        the discriminator — nothing should be flagged."""
        result = modelgen(person_hierarchy(), "relational",
                          InheritanceStrategy.TPH)
        assert inexpressible_constraints(result.mapping) == []


class TestP2P:
    def _network(self):
        network = PeerNetwork()
        a = SchemaBuilder("PA").entity("R", key=["k"]).attribute("k", INT) \
            .attribute("v", INT).build()
        b = SchemaBuilder("PB").entity("S", key=["k"]).attribute("k", INT) \
            .attribute("v", INT).build()
        c = SchemaBuilder("PC").entity("T", key=["k"]).attribute("k", INT) \
            .attribute("v", INT).build()
        data = Instance()
        data.add("R", k=1, v=10)
        data.add("R", k=2, v=20)
        network.add_peer("a", a, data)
        network.add_peer("b", b)
        network.add_peer("c", c)
        network.add_mapping("a", "b", Mapping(a, b, [
            parse_tgd("R(k=x, v=y) -> S(k=x, v=y)")
        ]))
        network.add_mapping("b", "c", Mapping(b, c, [
            parse_tgd("S(k=x, v=y) -> T(k=x, v=y)")
        ]))
        return network

    def test_chain_discovery(self):
        network = self._network()
        assert len(network.find_chain("a", "c")) == 2

    def test_propagation(self):
        network = self._network()
        result = network.propagate("a", "c")
        assert {r["k"] for r in result.rows("T")} == {1, 2}

    def test_collapsed_equals_propagated(self):
        network = self._network()
        hop_by_hop = network.propagate("a", "c")
        collapsed = network.propagate_collapsed("a", "c")
        restricted = Instance()
        restricted.relations["T"] = hop_by_hop.rows("T")
        assert collapsed.set_equal(restricted)

    def test_missing_chain(self):
        from repro.errors import MappingError

        network = self._network()
        with pytest.raises(MappingError):
            network.find_chain("c", "a")


class TestBatchLoader:
    def test_load_through_update_view(self):
        mapping = paper.figure2_mapping()
        loader = BatchLoader(mapping)
        loader.stage("Employee", [
            {"Id": 21, "Name": "Nia", "Dept": "QA"},
            {"Id": 22, "Name": "Oz", "Dept": "QA"},
        ])
        loader.stage("Customer", [
            {"Id": 23, "Name": "Pia", "CreditScore": 700, "BillingAddr": "a"},
        ])
        loaded, report = loader.flush()
        assert report.ok
        assert report.batches == 2 and report.target_rows == 3
        assert {r["Id"] for r in loaded.rows("Empl")} == {21, 22}
        assert {r["Id"] for r in loaded.rows("HR")} == {21, 22}
        assert {r["Id"] for r in loaded.rows("Client")} == {23}

    def test_validation_reports_duplicates(self):
        mapping = paper.figure2_mapping()
        loader = BatchLoader(mapping)
        loader.stage("Employee", [
            {"Id": 1, "Name": "A", "Dept": "X"},
            {"Id": 1, "Name": "B", "Dept": "Y"},
        ])
        _, report = loader.flush()
        assert not report.ok
        assert any("key violation" in v for v in report.violations)

    def test_append_to_existing(self):
        mapping = paper.figure2_mapping()
        loader = BatchLoader(mapping)
        loader.stage("Person", [{"Id": 30, "Name": "Quin"}])
        loaded, report = loader.flush(destination=paper.figure2_sql_instance())
        assert report.ok
        assert {r["Id"] for r in loaded.rows("HR")} == {1, 2, 3, 30}

    def test_tgd_mapping_rejected(self):
        mapping = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            [parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)")],
        )
        with pytest.raises(TransformationError):
            BatchLoader(mapping)
