"""Tests for the remaining §5 runtime services: keyword indexing,
business-logic pushdown, and synchronization/replication."""

import pytest

from repro.algebra import Col, eq, ge, gt
from repro.errors import ExpressivenessError
from repro.instances import Instance
from repro.logic import parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.runtime import (
    Endpoint,
    KeywordIndex,
    Synchronizer,
    TriggerSet,
    UpdateSet,
    pushdown,
)
from repro.workloads import paper


class TestKeywordIndex:
    def _tgd_setup(self):
        source_schema = (
            SchemaBuilder("Docs").entity("Article", key=["aid"])
            .attribute("aid", INT).attribute("title", STRING)
            .attribute("body", STRING)
            .build()
        )
        target_schema = (
            SchemaBuilder("Portal").entity("Page", key=["pid"])
            .attribute("pid", INT).attribute("headline", STRING)
            .build()
        )
        mapping = Mapping(source_schema, target_schema, [
            parse_tgd("Article(aid=a, title=t, body=b) -> "
                      "Page(pid=a, headline=t)")
        ])
        db = Instance(source_schema)
        db.add("Article", aid=1, title="Model Management",
               body="mappings between schemas")
        db.add("Article", aid=2, title="Data Exchange",
               body="chase and certain answers")
        return mapping, db

    def test_search_maps_hits_to_target(self):
        mapping, db = self._tgd_setup()
        index = KeywordIndex(mapping, db)
        hits = index.search("chase")
        assert hits
        assert hits[0].target_relation == "Page"
        assert hits[0].target_row["pid"] == 2
        assert hits[0].source_relation == "Article"

    def test_multi_term_ranking(self):
        mapping, db = self._tgd_setup()
        index = KeywordIndex(mapping, db)
        hits = index.search("model management chase")
        assert hits[0].target_row["pid"] == 1  # matches 2 terms
        assert hits[0].score > hits[-1].score

    def test_no_hits(self):
        mapping, db = self._tgd_setup()
        index = KeywordIndex(mapping, db)
        assert index.search("zeppelin") == []
        assert index.search("") == []

    def test_limit(self):
        mapping, db = self._tgd_setup()
        index = KeywordIndex(mapping, db)
        assert len(index.search("and schemas between", limit=1)) == 1

    def test_equality_mapping_index(self):
        mapping = paper.figure2_mapping()
        index = KeywordIndex(mapping, paper.figure2_sql_instance())
        hits = index.search("Engineering")
        assert hits
        assert hits[0].target_relation == "Person"
        assert hits[0].target_row["Id"] == 3

    def test_vocabulary(self):
        mapping, db = self._tgd_setup()
        assert KeywordIndex(mapping, db).vocabulary_size() > 5


class TestBusinessLogic:
    def test_target_triggers_fire(self):
        triggers = TriggerSet("ER")
        fired = []
        triggers.on_insert(
            "Customer",
            lambda rel, row: fired.append(row["Id"]),
            condition=ge(Col("CreditScore"), 700),
            name="vip",
        )
        update = (
            UpdateSet()
            .insert_object("Customer", Id=1, CreditScore=720, Name="A",
                           BillingAddr="x")
            .insert_object("Customer", Id=2, CreditScore=500, Name="B",
                           BillingAddr="y")
        )
        assert triggers.fire(update) == 1
        assert fired == [1]

    def test_delete_triggers(self):
        triggers = TriggerSet("ER")
        fired = []
        triggers.on_delete("HR", lambda rel, row: fired.append(row))
        update = UpdateSet().delete("HR", Id=1)
        assert triggers.fire(update) == 1

    def test_pushdown_translates_entity_and_columns(self):
        mapping = paper.figure2_mapping()
        triggers = TriggerSet("PersonsER")
        fired = []
        triggers.on_insert(
            "Customer",
            lambda rel, row: fired.append((rel, row)),
            condition=ge(Col("CreditScore"), 700),
            name="vip",
        )
        source_triggers = pushdown(triggers, mapping)
        translated = source_triggers.triggers[0]
        assert translated.entity == "Client"
        # Condition now references the table column name.
        assert "Score" in repr(translated.condition)
        assert "CreditScore" not in repr(translated.condition)

    def test_pushdown_equivalence(self):
        """Firing on the source delta matches firing on the target delta."""
        mapping = paper.figure2_mapping()
        target_fired, source_fired = [], []
        target_triggers = TriggerSet("PersonsER")
        target_triggers.on_insert(
            "Customer", lambda rel, row: target_fired.append(row["Id"]),
            condition=ge(Col("CreditScore"), 700),
        )
        source_triggers = pushdown(target_triggers, mapping)
        source_triggers.triggers[0].action = (
            lambda rel, row: source_fired.append(row["Id"])
        )
        # Object-level insert on the target...
        target_update = UpdateSet().insert_object(
            "Customer", Id=30, Name="Rich", CreditScore=800, BillingAddr="z"
        )
        target_triggers.fire(target_update)
        # ...and its translation to the source (via update propagation).
        from repro.runtime import UpdatePropagator

        propagator = UpdatePropagator(mapping)
        er = Instance(mapping.target)
        source_update, _, _ = propagator.propagate(er, target_update)
        source_triggers.fire(source_update)
        assert target_fired == source_fired == [30]

    def test_pushdown_rejects_unanchored_column(self):
        """A condition over an attribute stored outside the anchor
        relation cannot be pushed down."""
        mapping = paper.figure2_mapping()
        triggers = TriggerSet("PersonsER")
        # Employee anchors on Empl (most specific fragment), but Name
        # is stored in HR.
        triggers.on_insert(
            "Employee", lambda rel, row: None,
            condition=eq(Col("Name"), "Bob"),
        )
        with pytest.raises(ExpressivenessError):
            pushdown(triggers, mapping)

    def test_pushdown_tgd_mapping(self):
        source = (
            SchemaBuilder("Sx").entity("Raw", key=["k"]).attribute("k", INT)
            .attribute("v", INT).build()
        )
        target = (
            SchemaBuilder("Tx").entity("Fact", key=["k"]).attribute("k", INT)
            .attribute("w", INT).build()
        )
        mapping = Mapping(source, target,
                          [parse_tgd("Raw(k=x, v=y) -> Fact(k=x, w=y)")])
        triggers = TriggerSet("Tx")
        triggers.on_insert("Fact", lambda rel, row: None,
                           condition=gt(Col("w"), 10))
        translated = pushdown(triggers, mapping).triggers[0]
        assert translated.entity == "Raw"
        assert "v" in repr(translated.condition)


class TestSynchronization:
    def _endpoints(self):
        mapping = paper.figure2_mapping()
        primary = Endpoint(mapping, paper.figure2_sql_instance(),
                           name="primary")
        # The replica starts empty (fresh tables).
        replica_mapping = paper.figure2_mapping()
        empty = Instance(replica_mapping.source)
        replica = Endpoint(replica_mapping, empty, name="replica")
        return primary, replica

    def test_replicate_all_customers(self):
        primary, replica = self._endpoints()
        synchronizer = Synchronizer(primary, replica)
        synchronizer.add_rule("Customer")
        delta = synchronizer.synchronize()
        assert delta.size() > 0
        assert {r["Id"] for r in replica.source.rows("Client")} == {4, 5}
        assert replica.source.rows("HR") == []  # employees not replicated
        assert synchronizer.verify_converged()

    def test_filtered_replication(self):
        primary, replica = self._endpoints()
        synchronizer = Synchronizer(primary, replica)
        synchronizer.add_rule("Customer", condition=ge(Col("CreditScore"),
                                                       700))
        synchronizer.synchronize()
        assert {r["Id"] for r in replica.source.rows("Client")} == {4}

    def test_idempotent(self):
        primary, replica = self._endpoints()
        synchronizer = Synchronizer(primary, replica)
        synchronizer.add_rule("Customer")
        first = synchronizer.synchronize()
        second = synchronizer.synchronize()
        assert first.size() > 0
        assert second.is_empty

    def test_rule_removes_stale_replica_objects(self):
        primary, replica = self._endpoints()
        # Replica has a customer the primary does not (stale copy).
        replica.source.add("Client", Id=99, Name="Ghost", Score=1, Addr="?")
        synchronizer = Synchronizer(primary, replica)
        synchronizer.add_rule("Customer")
        synchronizer.synchronize()
        ids = {r["Id"] for r in replica.source.rows("Client")}
        assert 99 not in ids and ids == {4, 5}

    def test_uncovered_replica_objects_preserved(self):
        primary, replica = self._endpoints()
        replica.source.add("HR", Id=77, Name="LocalOnly")
        synchronizer = Synchronizer(primary, replica)
        synchronizer.add_rule("Customer")
        synchronizer.synchronize()
        assert any(r["Id"] == 77 for r in replica.source.rows("HR"))

    def test_mismatched_targets_rejected(self):
        from repro.errors import MappingError

        mapping = paper.figure2_mapping()
        primary = Endpoint(mapping, paper.figure2_sql_instance())
        other = Mapping(
            paper.figure6_s_schema(), paper.figure6_s_prime_schema(),
            paper.figure6_map_s_sprime().constraints,
        )
        replica = Endpoint(other, paper.figure6_s_instance())
        with pytest.raises(MappingError):
            Synchronizer(primary, replica)
