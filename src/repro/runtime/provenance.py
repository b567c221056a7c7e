"""Provenance: where did a target row come from? (paper, Section 5).

"After moving data from source to target, a user wants to know the
source data that contributed to a particular target data item."

For tgd mappings, *why-provenance* of a target row is the set of
(dependency, source rows) derivations whose head instantiates to the
row.  :func:`route` chains derivations through intermediate relations
— the routes of Chiticariu & Tan [30] that the paper cites for mapping
debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.instances.database import Instance, Row, freeze_row
from repro.instances.labeled_null import LabeledNull
from repro.logic.chase import bindings, compile_dependency
from repro.logic.dependencies import TGD
from repro.logic.formulas import Atom
from repro.logic.terms import Const
from repro.observability.instrument import instrumented


@dataclass
class ProvenanceEntry:
    """One derivation of a target row."""

    dependency: TGD
    assignment: dict
    source_rows: list[tuple[str, Row]]

    def describe(self) -> str:
        rows = ", ".join(f"{rel}{row}" for rel, row in self.source_rows)
        return f"via [{self.dependency.name or self.dependency}] from {rows}"


def invert_head(atom: Atom, row: Row, frontier) -> Optional[dict]:
    """The ``frontier`` bindings under which head ``atom`` instantiates
    to ``row``, or None when it cannot: every attribute present, the
    constants equal, and each repeated term meeting one value.  Labeled
    nulls in the row may stand for existential variables."""
    seen: dict = {}
    for name, term in atom.args:
        if name not in row:
            return None
        value = row[name]
        if isinstance(term, Const):
            if value != term.value:
                return None
        elif term in seen:
            if seen[term] != value:
                return None
        else:
            seen[term] = value
    return {var: value for var, value in seen.items() if var in frontier}


@instrumented("provenance.lineage", attrs=lambda target_row, relation,
              source_instance, dependencies: {
                  "relation": relation,
                  "dependencies": len(dependencies),
                  "source.rows": source_instance.total_rows()})
def lineage(
    target_row: Row,
    relation: str,
    source_instance: Instance,
    dependencies: Sequence[TGD],
) -> list[ProvenanceEntry]:
    """All derivations of ``target_row`` in ``relation`` from the source
    via the given tgds (why-provenance)."""
    entries: list[ProvenanceEntry] = []
    for tgd in dependencies:
        plan = compile_dependency(tgd)
        for head_atom in tgd.head:
            if head_atom.relation != relation:
                continue
            # Existential variables bound to labeled nulls do not
            # constrain the body; keep only frontier bindings.
            partial = invert_head(head_atom, target_row, plan.frontier_set)
            if partial is None or any(
                isinstance(v, LabeledNull) for v in partial.values()
            ):
                continue  # null in a frontier position: not derivable here
            for binding in bindings(plan, source_instance, partial=partial):
                assignment = dict(zip(plan.variables, binding))
                source_rows = _witness_rows(tgd.body, assignment,
                                            source_instance)
                entries.append(
                    ProvenanceEntry(
                        dependency=tgd,
                        assignment=assignment,
                        source_rows=source_rows,
                    )
                )
    return entries


def _witness_rows(
    body: Sequence[Atom], assignment: dict, instance: Instance
) -> list[tuple[str, Row]]:
    witnesses: list[tuple[str, Row]] = []
    for atom in body:
        for row in instance.rows(atom.relation):
            if all(
                name in row and row[name] == (
                    term.value if isinstance(term, Const)
                    else assignment[term]
                )
                for name, term in atom.args
            ):
                witnesses.append((atom.relation, row))
                break
    return witnesses


@instrumented("provenance.route", attrs=lambda target_row, relation,
              source_instance, dependencies, max_depth=10: {
                  "relation": relation,
                  "dependencies": len(dependencies),
                  "source.rows": source_instance.total_rows()})
def route(
    target_row: Row,
    relation: str,
    source_instance: Instance,
    dependencies: Sequence[TGD],
    max_depth: int = 10,
) -> list[list[ProvenanceEntry]]:
    """Full derivation routes: chains of provenance entries ending at
    base source data, following intermediate relations produced by
    earlier dependencies (Chiticariu–Tan routes)."""
    routes: list[list[ProvenanceEntry]] = []

    base_relations = {
        relation
        for relation in source_instance.relations
        if source_instance.rows(relation)
    }
    derived_relations = {
        atom.relation for tgd in dependencies for atom in tgd.head
    }

    # Materialize the full derivation space once.
    from repro.logic.chase import chase

    full = chase(source_instance, dependencies).instance

    def explain(row: Row, rel: str, depth: int) -> list[list[ProvenanceEntry]]:
        if depth > max_depth:
            return []
        entries = lineage(row, rel, full, dependencies)
        if not entries:
            return []
        results: list[list[ProvenanceEntry]] = []
        for entry in entries:
            chain = [entry]
            complete = True
            for witness_relation, witness_row in entry.source_rows:
                if (
                    witness_relation in derived_relations
                    and witness_relation not in base_relations
                ):
                    sub_routes = explain(witness_row, witness_relation,
                                         depth + 1)
                    if sub_routes:
                        chain.extend(sub_routes[0])
                    else:
                        complete = False
            if complete:
                results.append(chain)
        return results

    return explain(target_row, relation, 0)
