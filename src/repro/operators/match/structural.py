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
from operator import mul, sub, truediv

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

        # Fanout-weighted coefficients: every edge a node sends along
        # weighs 1/outdegree of that node.
        weights = [1.0 / len(neighbours) for neighbours in adjacency]

        # Initial σ⁰: seed scores for element pairs, 1.0 for shared type
        # nodes (they are identical constants).
        is_type = [
            s_node.startswith("type:") or t_node.startswith("type:")
            for s_node, t_node in pairs
        ]
        sigma = [
            (1.0 if s_node == t_node else 0.0)
            if type_pair
            else seed.get(s_node, t_node)
            for (s_node, t_node), type_pair in zip(pairs, is_type)
        ]

        for _ in range(self.iterations):
            # What each node sends: σ times its weight, once per node.
            sent = list(map(mul, sigma, weights))
            updated = []
            append = updated.append
            for value, neighbours in zip(sigma, adjacency):
                # A plain loop: the sum runs left to right in edge
                # order (``sum`` compensates float sums from 3.12 on).
                incoming = 0.0
                for neighbour in neighbours:
                    incoming += sent[neighbour]
                append(value + incoming)
            best = max(updated, default=1.0)
            if best > 0:
                updated = list(map(truediv, updated, repeat(best)))
            delta = max(map(abs, map(sub, updated, sigma)), default=0.0)
            sigma = updated
            if delta < self.epsilon:
                break

        matrix = SimilarityMatrix(source, target)
        for (s_node, t_node), score, type_pair in zip(pairs, sigma, is_type):
            if type_pair:
                continue
            if score > 0.01:
                matrix.set(s_node, t_node, score)
        # Elements disconnected in the PCG keep their seed score.
        for s_path, t_path, score in seed.items():
            if matrix.get(s_path, t_path) == 0.0:
                matrix.set(s_path, t_path, score * 0.5)
        return matrix
