"""Access control over mappings (paper, Section 5).

"Access control constraints on the target might be enforced by a
combination of constraints enforced on the server and those enforced
by the client runtime."  Two services:

* **checking** — a target-side query is authorized only if the
  principal may read every *source* relation it ultimately touches
  (computed by unfolding the query through the mapping);
* **pushdown** — row-level restrictions are compiled into the view
  definitions (selections injected above the protected scans), so the
  restricted view can be handed to a less-trusted layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.algebra import expressions as E
from repro.algebra.scalars import Predicate
from repro.errors import AccessDenied
from repro.mappings.mapping import Mapping
from repro.operators.compose import unfold_scans
from repro.operators.transgen import TransformationPair, transgen


class Permission(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class _Grant:
    principal: str
    relation: str
    permission: Permission
    row_filter: Optional[Predicate] = None


class AccessController:
    """Grants over *source* relations, enforced on *target* queries."""

    def __init__(self, mapping: Mapping):
        self.mapping = mapping
        self._grants: list[_Grant] = []
        self._views: Optional[dict[str, E.RelExpr]] = None

    # ------------------------------------------------------------------
    def grant(
        self,
        principal: str,
        relation: str,
        permission: Permission = Permission.READ,
        row_filter: Optional[Predicate] = None,
    ) -> None:
        self._grants.append(_Grant(principal, relation, permission, row_filter))

    def _allowed(self, principal: str, relation: str,
                 permission: Permission) -> bool:
        return any(
            g.principal == principal
            and g.relation == relation
            and g.permission == permission
            for g in self._grants
        )

    def _view_definitions(self) -> dict[str, E.RelExpr]:
        if self._views is None:
            if self.mapping.equalities:
                transformation = transgen(self.mapping)
                assert isinstance(transformation, TransformationPair)
                self._views = dict(transformation.query_view.rules)
            else:
                self._views = {}
        return self._views

    def source_footprint(self, query: E.RelExpr) -> set[str]:
        """The source relations a target query ultimately reads —
        after optimization, so statically-pruned branches (e.g. the
        Customer branch of an employees-only query) do not inflate the
        required permissions."""
        from repro.algebra.optimizer import optimize
        from repro.runtime.query_processor import _localize_type_predicates

        views = self._view_definitions()
        if views:
            localized = _localize_type_predicates(query, self.mapping.target)
            query = optimize(unfold_scans(localized, views))
        relations = query.relations()
        if not views:
            # tgd mapping: a target relation is reachable from the body
            # relations of every tgd producing it.
            source_relations: set[str] = set()
            for relation in relations:
                for tgd in self.mapping.tgds:
                    if any(a.relation == relation for a in tgd.head):
                        source_relations |= tgd.body_relations()
            return source_relations or relations
        return relations

    # ------------------------------------------------------------------
    def check(self, principal: str, query: E.RelExpr) -> None:
        """Raise :class:`AccessDenied` naming the first source relation
        the principal may not read."""
        for relation in sorted(self.source_footprint(query)):
            if not self._allowed(principal, relation, Permission.READ):
                raise AccessDenied(
                    f"principal {principal!r} may not read source relation "
                    f"{relation!r} (required by the target query)"
                )

    def restricted_query(self, principal: str, query: E.RelExpr) -> E.RelExpr:
        """Unfold the query and push the principal's row filters down
        onto the protected scans; raises if some relation has no grant."""
        self.check(principal, query)
        views = self._view_definitions()
        unfolded = unfold_scans(query, views) if views else query
        filters = {
            g.relation: g.row_filter
            for g in self._grants
            if g.principal == principal
            and g.permission is Permission.READ
            and g.row_filter is not None
        }
        if not filters:
            return unfolded
        replacements = {
            relation: E.Select(E.Scan(relation), predicate)
            for relation, predicate in filters.items()
        }
        return unfold_scans(unfolded, replacements)
