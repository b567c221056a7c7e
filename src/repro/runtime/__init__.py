"""The mapping runtime (paper, Section 5).

The revised model-management vision's second pillar: "the runtime
system does not simply execute queries over mappings.  It must also
propagate updates, notifications, exceptions, and access rights, and
provide other services, such as debugging, synchronization, and
provenance."  One module per service the paper enumerates:

* :mod:`~repro.runtime.executor` — execute transformations / exchange;
* :mod:`~repro.runtime.query_processor` — answer target queries
  through the mapping (view unfolding; certain answers for tgds);
* :mod:`~repro.runtime.updates` — update propagation T → S;
* :mod:`~repro.runtime.provenance` — lineage of target data;
* :mod:`~repro.runtime.debugging` — routes and rule-by-rule traces;
* :mod:`~repro.runtime.errors` — error translation S → T;
* :mod:`~repro.runtime.notifications` — materialized-target
  maintenance with incremental deltas and subscriber notification;
* :mod:`~repro.runtime.incremental` — materialized exchange with
  delta-driven maintenance (counting/DRed deletes, delta-chase
  inserts, egd-merge rollback);
* :mod:`~repro.runtime.access_control` — access checks and pushdown;
* :mod:`~repro.runtime.integrity` — cross-schema constraint checking;
* :mod:`~repro.runtime.p2p` — peer-to-peer mapping chains;
* :mod:`~repro.runtime.loader` — batch loading through the mapping.
"""

from repro.runtime.executor import exchange, exchange_with_stats, execute
from repro.runtime.query_processor import QueryProcessor
from repro.runtime.updates import UpdatePropagator, UpdateSet
from repro.runtime.provenance import lineage, route, ProvenanceEntry
from repro.runtime.debugging import MappingDebugger
from repro.runtime.errors import ErrorTranslator, TranslatedError
from repro.runtime.notifications import MaterializedTarget, Delta
from repro.runtime.incremental import (
    MaterializedExchange,
    set_equal_modulo_nulls,
)
from repro.runtime.access_control import AccessController, Permission
from repro.runtime.integrity import (
    check_constraint_propagation,
    inexpressible_constraints,
)
from repro.runtime.p2p import PeerNetwork
from repro.runtime.loader import BatchLoader
from repro.runtime.indexing import KeywordIndex, SearchHit
from repro.runtime.business_logic import Trigger, TriggerSet, pushdown
from repro.runtime.synchronization import (
    Endpoint,
    ReplicationRule,
    Synchronizer,
)

__all__ = [
    "exchange", "exchange_with_stats", "execute",
    "QueryProcessor",
    "UpdatePropagator", "UpdateSet",
    "lineage", "route", "ProvenanceEntry",
    "MappingDebugger",
    "ErrorTranslator", "TranslatedError",
    "MaterializedTarget", "Delta",
    "MaterializedExchange", "set_equal_modulo_nulls",
    "AccessController", "Permission",
    "check_constraint_propagation", "inexpressible_constraints",
    "PeerNetwork",
    "BatchLoader",
    "KeywordIndex", "SearchHit",
    "Trigger", "TriggerSet", "pushdown",
    "Endpoint", "ReplicationRule", "Synchronizer",
]
