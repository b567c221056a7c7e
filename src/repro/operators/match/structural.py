"""Similarity flooding (Melnik, Garcia-Molina & Rahm, ICDE 2002).

The structural matcher the paper's second author invented: build a
*pairwise connectivity graph* whose nodes are pairs of elements, one
from each schema, and whose edges connect pairs that are linked by the
same edge label in both schemas; then iteratively propagate similarity
along those edges until a fixpoint.

Schema graph edge labels used here:

* ``attr`` — entity → its attribute;
* ``isa`` — entity → its parent entity;
* ``fk`` — FK source entity → target entity;
* ``type`` — attribute → its (base) primitive type node;
* ``assoc`` / ``contains`` — association and containment ends.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, itemgetter, le, mul, sub, truediv

from repro.metamodel.schema import Schema
from repro.metamodel.types import base_primitive
from repro.operators.match.base import Matcher, SimilarityMatrix
from repro.operators.match.lexical import LexicalMatcher


def _schema_graph(schema: Schema) -> list[tuple[str, str, str]]:
    """(from_node, label, to_node) edges; type nodes are shared across
    schemas by name (``type:int``)."""
    edges: list[tuple[str, str, str]] = []
    for entity in schema.entities.values():
        for attribute in entity.attributes:
            path = f"{entity.name}.{attribute.name}"
            edges.append((entity.name, "attr", path))
            edges.append(
                (path, "type", f"type:{base_primitive(attribute.data_type).name}")
            )
        if entity.parent is not None:
            edges.append((entity.name, "isa", entity.parent.name))
    for dep in schema.inclusion_dependencies():
        edges.append((dep.source, "fk", dep.target))
    for association in schema.associations.values():
        edges.append(
            (association.source.entity.name, "assoc",
             association.target.entity.name)
        )
    for containment in schema.containments.values():
        edges.append((containment.parent.name, "contains",
                      containment.child.name))
    return edges


def _connectivity_graph(
    source_edges: list[tuple[str, str, str]],
    target_edges: list[tuple[str, str, str]],
) -> tuple[list[tuple[str, str]], list[list[int]]]:
    """The pairwise connectivity graph: for same-labelled edges
    (a --L--> b) and (a' --L--> b'), pair (a, a') feeds (b, b') and
    vice versa.

    Returns the node pairs, numbered in the order the edges first
    reach them, and each node's neighbour ids in edge order (an edge
    found twice is listed twice)."""
    pairs: list[tuple[str, str]] = []
    adjacency: list[list[int]] = []
    # source node -> target node -> id of the pair node
    ids: dict[str, dict[str, int]] = {}
    by_label_target: dict[str, list[tuple[str, str]]] = {}
    for from_node, label, to_node in target_edges:
        by_label_target.setdefault(label, []).append((from_node, to_node))
    for s_from, label, s_to in source_edges:
        from_ids = ids.setdefault(s_from, {})
        to_ids = ids.setdefault(s_to, {})
        for t_from, t_to in by_label_target.get(label, ()):
            from_id = from_ids.get(t_from)
            if from_id is None:
                from_id = from_ids[t_from] = len(pairs)
                pairs.append((s_from, t_from))
                adjacency.append([])
            to_id = to_ids.get(t_to)
            if to_id is None:
                to_id = to_ids[t_to] = len(pairs)
                pairs.append((s_to, t_to))
                adjacency.append([])
            adjacency[from_id].append(to_id)
            adjacency[to_id].append(from_id)
    return pairs, adjacency


class SimilarityFlooding(Matcher):
    """Fixpoint similarity propagation over the pairwise connectivity
    graph, seeded by the lexical matcher."""

    name = "similarity-flooding"

    def __init__(self, iterations: int = 20, epsilon: float = 1e-4):
        self.iterations = iterations
        self.epsilon = epsilon

    def similarity(self, source: Schema, target: Schema) -> SimilarityMatrix:
        return self.flood(LexicalMatcher().similarity(source, target))

    def flood(self, seed: SimilarityMatrix) -> SimilarityMatrix:
        """Propagate a lexical ``seed`` matrix (of ``seed.source`` ×
        ``seed.target``) to its fixpoint; the ensemble passes the
        lexical matrix it has already computed."""
        source, target = seed.source, seed.target
        pairs, adjacency = _connectivity_graph(
            _schema_graph(source), _schema_graph(target)
        )

        # Nodes grouped by degree.  A class with at least as many nodes
        # as its degree (and at least two, so that a gather returns a
        # tuple) sums by columns: column j holds each node's j-th
        # neighbour, so one gather per column and one ``map(add, …)``
        # per column add up a whole class, left to right in edge order.
        # The other nodes keep a per-node loop.  The iteration runs on
        # the nodes renumbered class by class, column classes first, so
        # each class is one slice of σ.
        classes: dict[int, list[int]] = {}
        for node, neighbours in enumerate(adjacency):
            classes.setdefault(len(neighbours), []).append(node)
        columnar = [
            nodes for degree, nodes in classes.items()
            if len(nodes) >= max(degree, 2)
        ]
        looped = [
            node for degree, nodes in classes.items()
            if len(nodes) < max(degree, 2) for node in nodes
        ]
        order = [node for nodes in columnar for node in nodes] + looped
        position = [0] * len(order)
        for new_id, node in enumerate(order):
            position[node] = new_id
        renumber = position.__getitem__
        column_sums = []
        stop = 0
        for nodes in columnar:
            start, stop = stop, stop + len(nodes)
            columns = zip(*map(adjacency.__getitem__, nodes))
            column_sums.append((start, stop, [
                itemgetter(*map(renumber, column)) for column in columns
            ]))
        loop_start = stop
        loop_adjacency = [
            list(map(renumber, adjacency[node])) for node in looped
        ]

        # Fanout-weighted coefficients: every edge a node sends along
        # weighs 1/outdegree of that node.
        weights = [1.0 / len(adjacency[node]) for node in order]

        # Initial σ⁰: seed scores for element pairs, 1.0 for shared type
        # nodes (they are identical constants).
        is_type = [
            s_node.startswith("type:") or t_node.startswith("type:")
            for s_node, t_node in pairs
        ]
        seed_rows = seed._rows
        initial = [
            (1.0 if s_node == t_node else 0.0)
            if type_pair
            else seed_rows.get(s_node, {}).get(t_node, 0.0)
            for (s_node, t_node), type_pair in zip(pairs, is_type)
        ]
        sigma = [initial[node] for node in order]

        epsilon = self.epsilon
        for _ in range(self.iterations):
            # What each node sends: σ times its weight, once per node.
            sent = list(map(mul, sigma, weights))
            updated = []
            for start, stop, gathers in column_sums:
                # The first column stands for 0.0 plus its value, which
                # is the same float: every sent value is ≥ 0.
                incoming = gathers[0](sent)
                for gather in gathers[1:]:
                    incoming = map(add, incoming, gather(sent))
                updated += map(add, sigma[start:stop], incoming)
            append = updated.append
            for value, neighbours in zip(sigma[loop_start:], loop_adjacency):
                # A plain loop: the sum runs left to right in edge
                # order (``sum`` compensates float sums from 3.12 on).
                incoming = 0.0
                for neighbour in neighbours:
                    incoming += sent[neighbour]
                append(value + incoming)
            best = max(updated, default=1.0)
            if best > 0:
                updated = list(map(truediv, updated, repeat(best)))
            # ``max |u − σ| < ε``, decided at the first node that moved
            # by ε or more (σ is never NaN).
            moved = any(map(le, repeat(epsilon),
                            map(abs, map(sub, updated, sigma))))
            sigma = updated
            if not moved:
                break

        # σ lies in [0, 1] (the seed's scores, then each iteration
        # divides by the largest), so no score needs clamping.
        rows: dict[str, dict[str, float]] = {}
        for (s_node, t_node), new_id, type_pair in zip(pairs, position, is_type):
            score = sigma[new_id]
            if score > 0.01 and not type_pair:
                rows.setdefault(s_node, {})[t_node] = score
        # Elements disconnected in the PCG keep half their seed score
        # (unless it underflows to 0, which ``set`` would drop).
        for s_path, seed_row in seed_rows.items():
            row = rows.setdefault(s_path, {})
            for t_path, score in seed_row.items():
                if t_path not in row and score * 0.5 > 0.0:
                    row[t_path] = score * 0.5
        # ``install_row`` skips the rows that stayed empty.
        matrix = SimilarityMatrix(source, target)
        for s_path, row in rows.items():
            matrix.install_row(s_path, row)
        return matrix
