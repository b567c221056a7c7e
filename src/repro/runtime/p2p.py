"""Peer-to-peer mapping chains (paper, Section 5).

"There is a chain of mappings from the schema to be queried, T, to a
source S1, which is mapped to a source S2, etc.  The mapping design
tool might optimize a query on T to collapse the chain into direct
mappings … the runtime needs to be able to process a query on T by
propagating it through the chain."

:class:`PeerNetwork` supports both execution styles the paper
describes: *propagation* (exchange hop by hop along the chain) and
*collapsed* (compose the chain's mappings into one and exchange once)
— and the benchmark compares them.  For tgd chains the network can
also *materialize* a chain (:meth:`~PeerNetwork.materialize_chain`)
and then push :class:`~repro.runtime.updates.UpdateSet` s hop-to-hop
(:meth:`~PeerNetwork.propagate_update`): each hop maintains its
materialized target incrementally and emits the target-side delta as
the next hop's input, so steady-state cost tracks the delta, not the
chain's data volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MappingError
from repro.instances.database import Instance
from repro.instances.labeled_null import NullFactory
from repro.mappings.mapping import Mapping
from repro.metamodel.schema import Schema
from repro.observability.instrument import instrumented
from repro.operators.compose import compose
from repro.runtime.executor import exchange
from repro.runtime.incremental import MaterializedExchange
from repro.runtime.updates import UpdateSet, apply_update_in_place


@dataclass
class Peer:
    name: str
    schema: Schema
    data: Optional[Instance] = None


class PeerNetwork:
    """Peers connected by mappings, queried through chains.

    ``engine`` selects the algebra execution engine for every exchange
    in the network (None → vectorized)."""

    def __init__(self, engine: Optional[str] = None):
        self.peers: dict[str, Peer] = {}
        self.mappings: dict[tuple[str, str], Mapping] = {}
        self.engine = engine
        # (source, target) → materialized hops, built lazily by
        # materialize_chain and maintained by propagate_update.
        self._materialized: dict[
            tuple[str, str], list[MaterializedExchange]
        ] = {}

    def add_peer(self, name: str, schema: Schema,
                 data: Optional[Instance] = None) -> Peer:
        if name in self.peers:
            raise MappingError(f"duplicate peer {name!r}")
        peer = Peer(name=name, schema=schema, data=data)
        self.peers[name] = peer
        return peer

    def add_mapping(self, source_peer: str, target_peer: str,
                    mapping: Mapping) -> None:
        if source_peer not in self.peers or target_peer not in self.peers:
            raise MappingError("both peers must exist before mapping them")
        self.mappings[(source_peer, target_peer)] = mapping

    # ------------------------------------------------------------------
    def find_chain(self, source_peer: str, target_peer: str) -> list[Mapping]:
        """Shortest mapping chain from source to target (BFS)."""
        frontier: list[tuple[str, list[Mapping]]] = [(source_peer, [])]
        seen = {source_peer}
        while frontier:
            current, path = frontier.pop(0)
            if current == target_peer:
                return path
            for (from_peer, to_peer), mapping in self.mappings.items():
                if from_peer == current and to_peer not in seen:
                    seen.add(to_peer)
                    frontier.append((to_peer, path + [mapping]))
        raise MappingError(
            f"no mapping chain from {source_peer!r} to {target_peer!r}"
        )

    @instrumented("runtime.p2p.collapse", attrs=lambda self, source_peer,
                  target_peer: {"source": source_peer,
                                "target": target_peer})
    def collapse_chain(self, source_peer: str, target_peer: str) -> Mapping:
        """Compose the chain into one direct mapping (the design-time
        optimization the paper mentions)."""
        chain = self.find_chain(source_peer, target_peer)
        if not chain:
            raise MappingError("peers coincide; nothing to collapse")
        collapsed = chain[0]
        for mapping in chain[1:]:
            collapsed = compose(collapsed, mapping)
        return collapsed

    # ------------------------------------------------------------------
    @instrumented("runtime.p2p.propagate", attrs=lambda self, source_peer,
                  target_peer: {"source": source_peer,
                                "target": target_peer})
    def propagate(self, source_peer: str, target_peer: str) -> Instance:
        """Exchange the source peer's data hop by hop to the target."""
        peer = self.peers[source_peer]
        if peer.data is None:
            raise MappingError(f"peer {source_peer!r} holds no data")
        current = peer.data
        for mapping in self.find_chain(source_peer, target_peer):
            current = exchange(mapping, current, engine=self.engine)
        return current

    @instrumented("runtime.p2p.materialize_chain",
                  attrs=lambda self, source_peer, target_peer: {
                      "source": source_peer, "target": target_peer})
    def materialize_chain(
        self, source_peer: str, target_peer: str
    ) -> list[MaterializedExchange]:
        """Materialize every hop of the chain (tgd mappings only): hop
        *i*'s chased target feeds hop *i+1* as its source.  The chain
        is cached; :meth:`propagate_update` maintains it in place."""
        key = (source_peer, target_peer)
        cached = self._materialized.get(key)
        if cached is not None:
            return cached
        peer = self.peers[source_peer]
        if peer.data is None:
            raise MappingError(f"peer {source_peer!r} holds no data")
        hops: list[MaterializedExchange] = []
        current = peer.data
        # One factory for the whole chain: a hop's labels flow into the
        # next hop's target, so per-hop factories would collide as soon
        # as an upstream hop mints a label a downstream hop already used.
        factory = NullFactory(
            max((n.label for n in current.nulls()), default=-1) + 1
        )
        for mapping in self.find_chain(source_peer, target_peer):
            hop = MaterializedExchange(mapping, current,
                                       null_factory=factory)
            hops.append(hop)
            current = hop.target_instance(copy=False)
        self._materialized[key] = hops
        return hops

    @instrumented("runtime.p2p.propagate_update",
                  attrs=lambda self, source_peer, target_peer, update: {
                      "source": source_peer, "target": target_peer,
                      "update.size": update.size()})
    def propagate_update(self, source_peer: str, target_peer: str,
                         update: UpdateSet) -> UpdateSet:
        """Push a source-peer update along the materialized chain:
        each hop applies the incoming delta to its materialized state
        and the resulting target-side delta becomes the next hop's
        input.  Returns the final (target-peer) delta.  The source
        peer's own data is updated in place; read the target peer's
        maintained state via :meth:`materialized_target`."""
        hops = self.materialize_chain(source_peer, target_peer)
        peer = self.peers[source_peer]
        if peer.data is not None:
            apply_update_in_place(peer.data, update)
        delta = update
        for hop in hops:
            if delta.is_empty:
                break
            delta = hop.apply(delta)
        return delta

    def materialized_target(self, source_peer: str,
                            target_peer: str) -> Instance:
        """The maintained target-peer instance of a materialized
        chain (a copy; the chain keeps the live state)."""
        hops = self.materialize_chain(source_peer, target_peer)
        return hops[-1].target_instance()

    @instrumented("runtime.p2p.propagate_collapsed",
                  attrs=lambda self, source_peer, target_peer: {
                      "source": source_peer, "target": target_peer})
    def propagate_collapsed(self, source_peer: str, target_peer: str) -> Instance:
        """Exchange once through the composed chain."""
        peer = self.peers[source_peer]
        if peer.data is None:
            raise MappingError(f"peer {source_peer!r} holds no data")
        return exchange(
            self.collapse_chain(source_peer, target_peer),
            peer.data,
            engine=self.engine,
        )
