"""Incremental materialized exchange (docs/RUNTIME_SERVICES.md).

Covers the maintenance engine itself (insert seeding, counting/DRed
deletion, egd-merge rollback, the full re-exchange fallback), the
equivalence checker it is judged by, and the runtime services that
consume it (propagator delta path, synchronizer forward_update, p2p
materialized chains, batch loading)."""

import random

import pytest

from repro.errors import ExpressivenessError
from repro.instances import Instance
from repro.instances.labeled_null import NullFactory
from repro.logic import parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.runtime import (
    BatchLoader,
    Endpoint,
    MaterializedExchange,
    PeerNetwork,
    Synchronizer,
    UpdatePropagator,
    UpdateSet,
    exchange,
    set_equal_modulo_nulls,
)
from repro.runtime.updates import apply_update, instance_delta
from repro.workloads import paper


def _dept_mapping():
    source = (
        SchemaBuilder("S").entity("Emp")
        .attribute("eid", INT).attribute("dept", STRING).build()
    )
    target = (
        SchemaBuilder("T").entity("InDept").attribute("dept", STRING)
        .entity("Badge").attribute("eid", INT).attribute("code", INT,
                                                         nullable=True)
        .build()
    )
    return Mapping(source, target, [
        parse_tgd("Emp(eid=e, dept=d) -> InDept(dept=d)"),
        parse_tgd("Emp(eid=e, dept=d) -> Badge(eid=e, code=c)"),
    ])


def _assert_matches_full(materialized, expected_source):
    mapping = materialized.mapping
    full = exchange(mapping, expected_source)
    assert set_equal_modulo_nulls(materialized.target_instance(), full)
    assert materialized.source_instance().set_equal(expected_source)


class TestMaterializedExchange:
    def test_insert_equivalent_to_full(self):
        mapping = _dept_mapping()
        source = Instance()
        for i in range(6):
            source.insert("Emp", {"eid": i, "dept": f"d{i % 2}"})
        materialized = MaterializedExchange(mapping, source)
        update = (UpdateSet()
                  .insert("Emp", eid=10, dept="d0")
                  .insert("Emp", eid=11, dept="d9"))
        delta = materialized.apply(update)
        # d0 exists already: only the fresh dept appears in the delta.
        assert [r["dept"] for r in delta.inserts.get("InDept", [])] == ["d9"]
        assert len(delta.inserts["Badge"]) == 2
        assert not delta.deletes
        _assert_matches_full(materialized, apply_update(source, update))
        assert materialized.stats["full_reexchange"] == 0
        assert materialized.stats["reused_rows"] > 0

    def test_delete_cascade_and_rederivation(self):
        mapping = _dept_mapping()
        source = Instance()
        source.insert("Emp", {"eid": 1, "dept": "sales"})
        source.insert("Emp", {"eid": 2, "dept": "sales"})
        materialized = MaterializedExchange(mapping, source)
        update = UpdateSet().delete("Emp", eid=1, dept="sales")
        delta = materialized.apply(update)
        # InDept(sales) loses its deriving trigger but is rederived from
        # the surviving employee — it must not show up in the delta.
        assert "InDept" not in delta.deletes
        assert [r["eid"] for r in delta.deletes["Badge"]] == [1]
        _assert_matches_full(materialized, apply_update(source, update))
        assert materialized.stats["overdeleted"] >= 1
        assert materialized.stats["rederived"] >= 1
        assert materialized.stats["full_reexchange"] == 0

    def test_delete_with_no_alternative_witness_cascades(self):
        mapping = _dept_mapping()
        source = Instance()
        source.insert("Emp", {"eid": 1, "dept": "sales"})
        materialized = MaterializedExchange(mapping, source)
        update = UpdateSet().delete("Emp", eid=1, dept="sales")
        delta = materialized.apply(update)
        assert [r["dept"] for r in delta.deletes["InDept"]] == ["sales"]
        assert materialized.target_instance().total_rows() == 0
        _assert_matches_full(materialized, apply_update(source, update))

    def test_duplicate_source_rows_bag_semantics(self):
        """Deleting one of two identical source rows keeps the derived
        row alive (the survivor is an alternative witness)."""
        mapping = _dept_mapping()
        source = Instance()
        source.insert("Emp", {"eid": 1, "dept": "sales"})
        source.insert("Emp", {"eid": 1, "dept": "sales"})
        materialized = MaterializedExchange(mapping, source)
        update = UpdateSet().delete("Emp", eid=1, dept="sales")
        materialized.apply(update)
        expected = apply_update(source, update)
        assert expected.cardinality("Emp") == 1
        _assert_matches_full(materialized, expected)
        # Deleting the last copy takes the derived rows with it.
        materialized.apply(update)
        assert materialized.target_instance().total_rows() == 0

    def test_egd_merge_and_rollback(self):
        source_schema = (
            SchemaBuilder("Se").entity("A").attribute("eid", INT)
            .entity("B").attribute("eid", INT)
            .attribute("office", STRING).build()
        )
        target_schema = (
            SchemaBuilder("Te").entity("Assign", key=("eid",))
            .attribute("eid", INT)
            .attribute("office", STRING, nullable=True).build()
        )
        mapping = Mapping(source_schema, target_schema, [
            parse_tgd("A(eid=e) -> Assign(eid=e, office=o)"),
            parse_tgd("B(eid=e, office=f) -> Assign(eid=e, office=f)"),
        ])
        source = Instance()
        source.insert("A", {"eid": 1})
        materialized = MaterializedExchange(mapping, source,
                                            enforce_target_keys=True)
        # Merge: the B row's constant office replaces the null.
        insert = UpdateSet().insert("B", eid=1, office="hq")
        materialized.apply(insert)
        current = apply_update(source, insert)
        # The chase may keep duplicate copies (the equivalence notion
        # is set-based); every copy must carry the merged constant.
        assert materialized.target_instance().as_sets()["Assign"] == {
            frozenset({("eid", 1), ("office", "hq")})
        }
        _assert_matches_full(materialized, current)
        # Rollback: deleting the B row must un-merge the office back to
        # a labeled null, exactly as a fresh exchange would produce.
        delete = UpdateSet().delete("B", eid=1, office="hq")
        materialized.apply(delete)
        current = apply_update(current, delete)
        _assert_matches_full(materialized, current)
        assert materialized.stats["merge_rollbacks"] >= 1
        assert materialized.stats["full_reexchange"] == 0

    def test_fallback_when_merged_value_flows_forward(self):
        """A later firing that carries the merged value in its frontier
        and *survives* the delete cascade makes rollback unsafe —
        maintenance detects it and falls back to a full re-exchange,
        still leaving an equivalent materialization."""
        source_schema = (
            SchemaBuilder("Sf").entity("A").attribute("eid", INT)
            .entity("B").attribute("eid", INT)
            .attribute("office", STRING)
            .entity("C").attribute("office", STRING).build()
        )
        target_schema = (
            SchemaBuilder("Tf").entity("Assign", key=("eid",))
            .attribute("eid", INT)
            .attribute("office", STRING, nullable=True)
            .entity("Log").attribute("eid", INT)
            .attribute("office", STRING).build()
        )
        mapping = Mapping(source_schema, target_schema, [
            parse_tgd("A(eid=e) -> Assign(eid=e, office=o)"),
            parse_tgd("B(eid=e, office=f) -> Assign(eid=e, office=f)"),
            parse_tgd("C(office=f) & Assign(eid=e, office=f) "
                      "-> Log(eid=e, office=f)"),
        ])
        source = Instance()
        source.insert("A", {"eid": 1})
        # The second office-"hq" assignment keeps a Log derivation with
        # the merged constant alive through the delete cascade.
        source.insert("B", {"eid": 2, "office": "hq"})
        materialized = MaterializedExchange(mapping, source,
                                            enforce_target_keys=True)
        current = source
        for update in (
            UpdateSet().insert("B", eid=1, office="hq"),   # merge
            UpdateSet().insert("C", office="hq"),          # flows forward
            UpdateSet().delete("B", eid=1, office="hq"),   # fallback
        ):
            materialized.apply(update)
            current = apply_update(current, update)
            _assert_matches_full(materialized, current)
        assert materialized.stats["full_reexchange"] == 1
        # The materialization keeps working after the rebuild.
        update = UpdateSet().insert("A", eid=2)
        materialized.apply(update)
        current = apply_update(current, update)
        _assert_matches_full(materialized, current)

    def test_long_egd_stream_prunes_dead_provenance(self):
        """Hundreds of merge/rollback batches: after every apply the
        null index lists only live derivations and edges and the merge
        log only live merges, so bookkeeping tracks the instance, not
        the stream's history; the target stays a universal solution."""
        source_schema = (
            SchemaBuilder("Sp").entity("A").attribute("eid", INT)
            .entity("B").attribute("eid", INT)
            .attribute("office", STRING).build()
        )
        target_schema = (
            SchemaBuilder("Tp").entity("Assign", key=("eid",))
            .attribute("eid", INT)
            .attribute("office", STRING, nullable=True)
            .entity("Desk").attribute("eid", INT)
            .attribute("office", STRING, nullable=True).build()
        )
        mapping = Mapping(source_schema, target_schema, [
            parse_tgd("A(eid=e) -> Assign(eid=e, office=o)"),
            parse_tgd("B(eid=e, office=f) -> Assign(eid=e, office=f)"),
            # Fires on null offices too, so derivations enter the index.
            parse_tgd("A(eid=e) & Assign(eid=e, office=f) "
                      "-> Desk(eid=e, office=f)"),
        ])
        source = Instance()
        for eid in range(30):
            source.insert("A", {"eid": eid})
            if eid % 3 == 0:
                source.insert("B", {"eid": eid, "office": f"o{eid % 4}"})
        materialized = MaterializedExchange(mapping, source,
                                            enforce_target_keys=True)
        current = source
        rng = random.Random(5)
        indexed_derivations = 0
        for batch in range(1, 251):
            update = UpdateSet()
            for _ in range(4):
                eid = rng.randrange(40)
                if rng.random() < 0.5:
                    update.insert("A", eid=eid)
                else:
                    update.insert("B", eid=eid, office=f"o{eid % 4}")
            for relation in ("A", "B"):
                rows = list(current.rows(relation))
                for row in rng.sample(rows, min(2, len(rows))):
                    update.deletes.setdefault(relation, []).append(dict(row))
            materialized.apply(update)
            current = apply_update(current, update)
            for key, entries in materialized._null_index.items():
                assert entries
                for kind, record in entries:
                    assert record.alive and key in record.null_keys
                    if kind == "edge":
                        bucket = materialized._edges[
                            (record.egd_index, record.body_key)
                        ]
                        assert any(edge is record for edge in bucket)
                    else:
                        indexed_derivations += 1
            assert all(record.alive for record in materialized._merges)
            if batch % 50 == 0:
                _assert_matches_full(materialized, current)
        stats = materialized.stats
        assert stats["merge_rollbacks"] > 100
        assert stats["full_reexchange"] < stats["applies"] // 2
        assert indexed_derivations > 0

    def test_rejects_non_tgd_mappings(self):
        with pytest.raises(ExpressivenessError):
            MaterializedExchange(paper.figure2_mapping(),
                                 paper.figure2_sql_instance())


class TestSetEqualModuloNulls:
    def test_renamed_nulls_are_equal(self):
        factory = NullFactory(0)
        a, b = factory.fresh(), factory.fresh()
        left, right = Instance(), Instance()
        left.insert("R", {"x": 1, "y": a})
        left.insert("R", {"x": 2, "y": a})
        right.insert("R", {"x": 1, "y": b})
        right.insert("R", {"x": 2, "y": b})
        assert set_equal_modulo_nulls(left, right)

    def test_shared_null_vs_distinct_nulls_differ(self):
        factory = NullFactory(0)
        a, b, c = factory.fresh(), factory.fresh(), factory.fresh()
        left, right = Instance(), Instance()
        left.insert("R", {"x": 1, "y": a})
        left.insert("S", {"y": a})
        right.insert("R", {"x": 1, "y": b})
        right.insert("S", {"y": c})
        assert not set_equal_modulo_nulls(left, right)

    def test_different_constants_differ(self):
        factory = NullFactory(0)
        left, right = Instance(), Instance()
        left.insert("R", {"x": 1, "y": factory.fresh()})
        right.insert("R", {"x": 2, "y": factory.fresh()})
        assert not set_equal_modulo_nulls(left, right)

    def test_hom_equivalent_universal_solutions(self):
        # Different shapes but homomorphically equivalent both ways —
        # the data-exchange notion of "the same universal solution".
        factory = NullFactory(0)
        left, right = Instance(), Instance()
        left.insert("R", {"y": factory.fresh()})
        left.insert("R", {"y": 5})
        right.insert("R", {"y": 5})
        assert set_equal_modulo_nulls(left, right)

    def test_interchangeable_all_null_rows_terminate(self):
        # Many mutually interchangeable all-null rows used to blow up a
        # fixed-order backtracking search; unit propagation + MRV must
        # answer instantly.
        factory = NullFactory(0)
        left, right = Instance(), Instance()
        for _ in range(60):
            left.insert("Room", {"office": factory.fresh()})
            right.insert("Room", {"office": factory.fresh()})
        left.insert("Assign", {"eid": 1, "office": "hq"})
        right.insert("Assign", {"eid": 1, "office": "hq"})
        assert set_equal_modulo_nulls(left, right)


class TestInstanceDeltaCounts:
    def test_duplicate_collapse_is_counted(self):
        before, after = Instance(), Instance()
        before.insert("R", {"x": 1})
        before.insert("R", {"x": 1})
        after.insert("R", {"x": 1})
        delta = instance_delta(before, after)
        assert delta.deletes == {"R": [{"x": 1}]}
        assert not delta.inserts

    def test_duplicate_growth_is_counted(self):
        before, after = Instance(), Instance()
        before.insert("R", {"x": 1})
        after.insert("R", {"x": 1})
        after.insert("R", {"x": 1})
        delta = instance_delta(before, after)
        assert delta.inserts == {"R": [{"x": 1}]}
        assert not delta.deletes

    def test_relation_scope_narrows_diff(self):
        before, after = Instance(), Instance()
        before.insert("R", {"x": 1})
        after.insert("S", {"x": 2})
        delta = instance_delta(before, after, relations={"S"})
        assert delta.inserts == {"S": [{"x": 2}]}
        assert not delta.deletes


class TestPropagatorDeltaPath:
    def test_chained_propagation_matches_fresh(self):
        mapping = paper.figure2_mapping()
        chained = UpdatePropagator(mapping)
        er = Instance(mapping.target)
        for i in range(8):
            er.insert_object("Employee", Id=i, Name=f"E{i}", Dept="D")
        updates = [
            UpdateSet().insert_object("Employee", Id=100 + i, Name="N",
                                      Dept="D")
            for i in range(3)
        ]
        target = er
        chained_results = []
        for update in updates:
            source_update, _, target = chained.propagate(target, update)
            chained_results.append(source_update)
        # Replay the same sequence without chaining (cache never hits).
        target = er
        for update, cached in zip(updates, chained_results):
            fresh = UpdatePropagator(mapping)
            source_update, _, target = fresh.propagate(target, update)
            assert source_update.describe() == cached.describe()


class TestSynchronizerForwardUpdate:
    def _synced(self):
        mapping = paper.figure2_mapping()
        primary = Endpoint(mapping, paper.figure2_sql_instance(),
                           name="primary")
        replica = Endpoint(paper.figure2_mapping(),
                           Instance(mapping.source), name="replica")
        synchronizer = Synchronizer(primary, replica)
        synchronizer.add_rule("Customer")
        synchronizer.synchronize()
        return synchronizer, primary, replica

    def test_forward_insert(self):
        synchronizer, primary, replica = self._synced()
        template = dict(primary.source.rows("Client")[0])
        template["Id"] = 99
        delta = synchronizer.forward_update(
            UpdateSet().insert("Client", **template)
        )
        assert not delta.is_empty
        assert 99 in {r["Id"] for r in replica.source.rows("Client")}
        assert synchronizer.verify_converged()

    def test_delete_heavy_rounds_stay_converged(self):
        synchronizer, primary, replica = self._synced()
        replicated = sorted(
            r["Id"] for r in replica.source.rows("Client")
        )
        assert replicated  # the rule replicated something to delete
        for client_id in replicated:
            delta = synchronizer.forward_update(
                UpdateSet().delete("Client", Id=client_id)
            )
            assert client_id not in {
                r["Id"] for r in replica.source.rows("Client")
            }
            assert synchronizer.verify_converged(), (
                f"diverged after deleting Client {client_id}: "
                f"{delta.describe()}"
            )
        assert replica.source.rows("Client") == []

    def test_mixed_rounds_match_full_synchronize(self):
        synchronizer, primary, replica = self._synced()
        template = dict(primary.source.rows("Client")[0])
        first_id = template["Id"]
        template["Id"] = 41
        synchronizer.forward_update(
            UpdateSet().insert("Client", **template)
            .delete("Client", Id=first_id)
        )
        assert synchronizer.verify_converged()
        # A fresh synchronize over the updated primary finds nothing
        # left to do.
        assert synchronizer.synchronize().is_empty


class TestPeerChainMaintenance:
    def _network(self, peers=4, rows=30):
        network = PeerNetwork()
        schemas = []
        for i in range(peers):
            schemas.append(
                SchemaBuilder(f"P{i}").entity(f"R{i}", key=["k"])
                .attribute("k", INT).attribute("v", INT).build()
            )
            data = None
            if i == 0:
                data = Instance()
                for r in range(rows):
                    data.add("R0", k=r, v=r * 2)
            network.add_peer(f"p{i}", schemas[i], data)
        for i in range(peers - 1):
            network.add_mapping(
                f"p{i}", f"p{i+1}",
                Mapping(schemas[i], schemas[i + 1], [
                    parse_tgd(f"R{i}(k=x, v=y) -> R{i+1}(k=x, v=y)")
                ]),
            )
        return network

    def test_propagate_update_matches_full_propagation(self):
        network = self._network()
        insert = network.propagate_update(
            "p0", "p3", UpdateSet().insert("R0", k=100, v=200)
        )
        assert insert.inserts == {"R3": [{"k": 100, "v": 200}]}
        delete = network.propagate_update(
            "p0", "p3", UpdateSet().delete("R0", k=3)
        )
        assert delete.deletes == {"R3": [{"k": 3, "v": 6}]}
        maintained = network.materialized_target("p0", "p3")
        assert set_equal_modulo_nulls(maintained,
                                      network.propagate("p0", "p3"))

    def test_empty_delta_short_circuits(self):
        network = self._network()
        delta = network.propagate_update(
            "p0", "p3", UpdateSet().delete("R0", k=10 ** 9)
        )
        assert delta.is_empty


class TestLoaderMaterializedFlush:
    def _setup(self):
        mapping = paper.figure2_mapping()
        db = paper.figure2_sql_instance()
        downstream = Mapping(
            mapping.source,
            SchemaBuilder("W").entity("Names", key=["Id"])
            .attribute("Id", INT).attribute("Name", STRING).build(),
            [parse_tgd("HR(Id=i, Name=n) -> Names(Id=i, Name=n)")],
        )
        return mapping, MaterializedExchange(downstream, db)

    def test_flush_appends_through_materialization(self):
        mapping, materialized = self._setup()
        before = materialized.target_instance().cardinality("Names")
        loader = BatchLoader(mapping)
        loader.stage("Employee", [{"Id": 500, "Name": "Zed",
                                   "Dept": "Ops"}])
        loaded, report = loader.flush(materialized=materialized)
        assert report.ok
        assert materialized.target_instance().cardinality("Names") == \
            before + 1
        full = exchange(materialized.mapping,
                        materialized.source_instance())
        assert set_equal_modulo_nulls(materialized.target_instance(),
                                      full)
        assert loaded.set_equal(materialized.source_instance())

    def test_reflush_is_idempotent(self):
        mapping, materialized = self._setup()
        loader = BatchLoader(mapping)
        loader.stage("Employee", [{"Id": 500, "Name": "Zed",
                                   "Dept": "Ops"}])
        loader.flush(materialized=materialized)
        after_first = materialized.target_instance()
        loader.stage("Employee", [{"Id": 500, "Name": "Zed",
                                   "Dept": "Ops"}])
        loader.flush(materialized=materialized)
        assert materialized.target_instance().set_equal(after_first)
