"""Long-running maintenance of materialized exchanges: provenance stays
bounded by the live rows, and the hops of a p2p chain never reuse each
other's labeled nulls."""

import copy
from collections import deque

from repro.instances import Instance
from repro.logic import parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, STRING, SchemaBuilder
from repro.runtime.executor import exchange
from repro.logic.homomorphism import set_equal_modulo_nulls
from repro.runtime.incremental import MaterializedExchange
from repro.runtime.p2p import PeerNetwork
from repro.runtime.updates import UpdateSet, apply_update_in_place


def _schema(name, entities):
    shape = SchemaBuilder(name)
    for entity, attributes in entities.items():
        shape.entity(entity)
        for attribute in attributes:
            shape.attribute(*attribute)
    return shape.build()


def _orders_schema(name):
    return _schema(name, {
        "Ord": [("oid", INT), ("cust", INT), ("amount", INT)],
        "Cust": [("cid", INT), ("name", STRING)],
    })


def _sales_schema(name):
    return _schema(name, {
        "Sale": [("oid", INT), ("name", STRING)],
        "Client": [("cid", INT), ("name", STRING), ("tier", INT, True)],
        "Audit": [("oid", INT)],
    })


def _sales_mapping(source, target, name):
    """A join, an existential (``tier``) and a target tgd."""
    return Mapping(source, target, [
        parse_tgd("Ord(oid=o, cust=c, amount=a) & Cust(cid=c, name=n) "
                  "-> Sale(oid=o, name=n)"),
        parse_tgd("Cust(cid=c, name=n) -> Client(cid=c, name=n, tier=t)"),
        parse_tgd("Sale(oid=o, name=n) -> Audit(oid=o)"),
    ], name=name)


class TestProvenanceStaysBounded:
    def test_fifo_stream_keeps_provenance_to_live_rows(self):
        mapping = _sales_mapping(_orders_schema("S"), _sales_schema("T"),
                                 "sales")
        source = Instance(mapping.source)
        for cid in range(30):
            source.insert("Cust", {"cid": cid, "name": f"c{cid % 7}"})
        for oid in range(60):
            source.insert("Ord", {"oid": oid, "cust": oid % 20,
                                  "amount": oid})
        maintained = MaterializedExchange(mapping, copy.deepcopy(source))
        orders = deque(dict(row) for row in source.rows("Ord"))
        # Customers 20.. never receive orders: they churn FIFO.
        churn = deque(dict(row) for row in source.rows("Cust")
                      if row["cid"] >= 20)
        next_oid, next_cid = 60, 30
        for _ in range(200):
            update = UpdateSet()
            order = {"oid": next_oid, "cust": next_oid % 20,
                     "amount": next_oid}
            update.insert("Ord", **order)
            orders.append(order)
            update.delete("Ord", **orders.popleft())
            customer = {"cid": next_cid, "name": f"c{next_cid % 7}"}
            update.insert("Cust", **customer)
            churn.append(customer)
            update.delete("Cust", **churn.popleft())
            next_oid += 1
            next_cid += 1
            apply_update_in_place(source, copy.deepcopy(update))
            maintained.apply(update)
        live = maintained.target_instance(copy=False).total_rows()
        assert live == 60 + 30 + 60  # Sale + Client + Audit
        assert len(maintained._deriver) == live
        assert len(maintained._support) == live
        fresh = MaterializedExchange(mapping, source)
        assert set_equal_modulo_nulls(maintained.target_instance(),
                                      fresh.target_instance())


class TestChainLabeledNulls:
    def test_hops_share_one_null_factory(self):
        # Hop 2 copies hop 1's ``tier`` nulls into Contact and mints
        # its own ``region`` nulls.  A customer inserted after the
        # chain is materialized makes hop 1 mint a fresh tier null; it
        # must not reuse a label hop 2 already gave a Ledger region.
        source = _orders_schema("Shop")
        middle = _sales_schema("Sales")
        target = _schema("Ledger", {
            "Ledger": [("oid", INT), ("name", STRING),
                       ("region", INT, True)],
            "Contact": [("cid", INT), ("name", STRING), ("tier", INT, True)],
        })
        hop1 = _sales_mapping(source, middle, "hop1")
        hop2 = Mapping(middle, target, [
            parse_tgd("Client(cid=c, name=n, tier=t) "
                      "-> Contact(cid=c, name=n, tier=t)"),
            parse_tgd("Sale(oid=o, name=n) -> Ledger(oid=o, name=n, region=r)"),
        ], name="hop2")
        data = Instance(source)
        for cid in range(5):
            data.insert("Cust", {"cid": cid, "name": f"c{cid}"})
        for oid in range(5):
            data.insert("Ord", {"oid": oid, "cust": oid, "amount": 10 * oid})
        network = PeerNetwork()
        network.add_peer("shop", source, data)
        network.add_peer("sales", middle)
        network.add_peer("ledger", target)
        network.add_mapping("shop", "sales", hop1)
        network.add_mapping("sales", "ledger", hop2)
        network.materialize_chain("shop", "ledger")

        network.propagate_update(
            "shop", "ledger", UpdateSet().insert("Cust", cid=9, name="new")
        )
        maintained = network.materialized_target("shop", "ledger")
        fresh = exchange(hop2, exchange(hop1, network.peers["shop"].data))
        assert set_equal_modulo_nulls(maintained, fresh)
        labels = [row["region"].label for row in maintained.rows("Ledger")]
        labels += [row["tier"].label for row in maintained.rows("Contact")]
        assert len(labels) == len(set(labels))
