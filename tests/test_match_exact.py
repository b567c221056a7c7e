"""Exactness of the Match operator against a reference implementation.

The lexical matcher scores each name pair and token pair once per
process, the matchers number the pairwise connectivity graph's nodes,
seed similarity flooding from the ensemble's own lexical matrix and keep
the matrix in rows.  None of that may move a score.  The oracle below
is the straightforward formulation: a lexical loop that scores every
element pair from scratch, a dynamic-programming edit distance, a
flooding fixpoint over tuple-keyed dicts seeded by that lexical loop,
and a blend over the union of pair keys.  ``ensemble_similarity`` must
equal it exactly (``==`` on the pair → score dict) on seeded schema
pairs of every shape the matchers read: FK snowflakes, is-a
hierarchies, schemas with associations and containments, and Figure 4.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.instances import InstanceGenerator
from repro.metamodel import DATE, FLOAT, INT, STRING, SchemaBuilder
from repro.metamodel.types import type_compatibility
from repro.operators.match import (
    DEFAULT_THESAURUS,
    InstanceBasedMatcher,
    MatchConfig,
    tokenize,
)
from repro.operators.match.combiner import ensemble_similarity
from repro.operators.match.lexical import (
    _is_abbreviation,
    _levenshtein,
    _token_pair_score,
    _trigrams,
    name_similarity,
)
from repro.operators.match.base import SimilarityMatrix
from repro.operators.match.structural import _schema_graph
from repro.operators.match import (
    DatatypeMatcher,
    LexicalMatcher,
    SimilarityFlooding,
    ThesaurusMatcher,
)
from repro.workloads import paper, synthetic

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the oracle: every score computed from scratch, pair by pair
# ----------------------------------------------------------------------
def _put(scores: dict, s_path: str, t_path: str, score: float) -> None:
    """``SimilarityMatrix.set``: clamp to 1, drop scores ≤ 0."""
    if score <= 0.0:
        scores.pop((s_path, t_path), None)
    else:
        scores[(s_path, t_path)] = min(1.0, score)


def _dp_levenshtein(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def _oracle_trigrams(text: str) -> set[str]:
    padded = f"  {text.lower()} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def _oracle_dice(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return 2 * len(a & b) / (len(a) + len(b))


def _oracle_token_similarity(a: tuple, b: tuple) -> float:
    if not a or not b:
        return 0.0
    total = 0.0
    used: set[int] = set()
    for token_a in a:
        best, best_index = 0.0, -1
        for index, token_b in enumerate(b):
            if index in used:
                continue
            if token_a == token_b:
                score = 1.0
            elif token_a.startswith(token_b) or token_b.startswith(token_a):
                score = 0.85
            elif _is_abbreviation(token_a, token_b) or _is_abbreviation(
                token_b, token_a
            ):
                score = 0.75
            else:
                distance = _dp_levenshtein(token_a, token_b)
                longest = max(len(token_a), len(token_b))
                score = max(0.0, 1.0 - distance / longest) * 0.7
            if score > best:
                best, best_index = score, index
        if best_index >= 0 and best > 0.3:
            used.add(best_index)
            total += best
    return total / max(len(a), len(b))


def _oracle_name_similarity(a: str, b: str) -> float:
    key = (a, b)
    if key not in _NAME_SCORES:
        _NAME_SCORES[key] = _name_similarity_from_scratch(a, b)
    return _NAME_SCORES[key]


#: Memo of the oracle's name scores: the pairs reuse names, and the
#: from-scratch score of a name pair is the same every time.
_NAME_SCORES: dict[tuple[str, str], float] = {}


def _name_similarity_from_scratch(a: str, b: str) -> float:
    if a == b:
        return 1.0
    if a.lower() == b.lower():
        return 0.98
    tokens = _oracle_token_similarity(tokenize(a), tokenize(b))
    trigram = _oracle_dice(_oracle_trigrams(a), _oracle_trigrams(b))
    distance = _dp_levenshtein(a.lower(), b.lower())
    edit = max(0.0, 1.0 - distance / max(len(a), len(b)))
    return max(tokens, 0.5 * trigram + 0.5 * edit)


def _attribute_paths(schema) -> list[str]:
    return [str(p.path) for p in schema.all_element_paths() if not p.is_entity]


def _oracle_lexical(source, target, floor: float = 0.05) -> dict:
    scores: dict = {}
    entity_scores: dict = {}
    for s_entity in source.entities:
        for t_entity in target.entities:
            score = _oracle_name_similarity(s_entity, t_entity)
            entity_scores[(s_entity, t_entity)] = score
            if score > floor:
                _put(scores, s_entity, t_entity, score)
    for s_path in _attribute_paths(source):
        s_entity, s_attr = s_path.split(".", 1)
        for t_path in _attribute_paths(target):
            t_entity, t_attr = t_path.split(".", 1)
            score = _oracle_name_similarity(s_attr, t_attr)
            owner = entity_scores.get((s_entity, t_entity), 0.0)
            blended = 0.85 * score + 0.15 * owner
            if blended > floor:
                _put(scores, s_path, t_path, blended)
    return scores


def _oracle_thesaurus(source, target) -> dict:
    def canonical(identifier: str) -> set[str]:
        return {DEFAULT_THESAURUS.get(t, t) for t in tokenize(identifier)}

    def score(a: str, b: str) -> float:
        canon_a, canon_b = canonical(a), canonical(b)
        if not canon_a or not canon_b:
            return 0.0
        return len(canon_a & canon_b) / max(len(canon_a), len(canon_b))

    scores: dict = {}
    for s_entity in source.entities:
        for t_entity in target.entities:
            _put(scores, s_entity, t_entity, score(s_entity, t_entity))
    for s_path in _attribute_paths(source):
        for t_path in _attribute_paths(target):
            _put(scores, s_path, t_path,
                 score(s_path.split(".", 1)[1], t_path.split(".", 1)[1]))
    return scores


def _oracle_datatype(source, target) -> dict:
    def attributes(schema):
        return [(f"{e.name}.{a.name}", a.data_type)
                for e in schema.entities.values() for a in e.attributes]

    scores: dict = {}
    for s_path, s_type in attributes(source):
        for t_path, t_type in attributes(target):
            _put(scores, s_path, t_path, type_compatibility(s_type, t_type))
    return scores


def _oracle_flooding(source, target, seed: dict,
                     iterations: tuple[int, ...],
                     epsilon: float = 1e-4) -> dict[int, dict]:
    """The dict-based fixpoint from a lexical ``seed``; the matrix after
    each iteration count in ``iterations`` (a run capped at k
    iterations is the first k iterations of a longer one)."""
    propagation: dict = {}

    def add_edge(from_pair, to_pair) -> None:
        propagation.setdefault(from_pair, []).append(to_pair)

    by_label_target: dict = {}
    for from_node, label, to_node in _schema_graph(target):
        by_label_target.setdefault(label, []).append((from_node, to_node))
    for s_from, label, s_to in _schema_graph(source):
        for t_from, t_to in by_label_target.get(label, []):
            add_edge((s_from, t_from), (s_to, t_to))
            add_edge((s_to, t_to), (s_from, t_from))

    weights: dict = {}
    for from_pair, neighbours in propagation.items():
        coefficient = 1.0 / len(neighbours)
        for to_pair in neighbours:
            weights[(from_pair, to_pair)] = coefficient

    sigma: dict = {}
    pairs = set(propagation)
    for neighbours in propagation.values():
        pairs.update(neighbours)
    for pair in pairs:
        s_node, t_node = pair
        if s_node.startswith("type:") or t_node.startswith("type:"):
            sigma[pair] = 1.0 if s_node == t_node else 0.0
        else:
            sigma[pair] = seed.get(pair, 0.0)

    snapshots = {}
    converged = False
    for iteration in range(1, max(iterations) + 1):
        if not converged:
            updated: dict = {}
            for pair in pairs:
                incoming = 0.0
                for neighbour in propagation.get(pair, []):
                    incoming += sigma.get(neighbour, 0.0) * weights[
                        (neighbour, pair)
                    ]
                updated[pair] = sigma[pair] + incoming
            best = max(updated.values(), default=1.0)
            if best > 0:
                for pair in updated:
                    updated[pair] /= best
            delta = max(
                abs(updated[pair] - sigma[pair]) for pair in pairs
            ) if pairs else 0.0
            sigma = updated
            converged = delta < epsilon
        if iteration in iterations:
            snapshots[iteration] = _flooding_output(sigma, seed)
    return snapshots


def _flooding_output(sigma: dict, seed: dict) -> dict:
    scores: dict = {}
    for (s_node, t_node), score in sigma.items():
        if s_node.startswith("type:") or t_node.startswith("type:"):
            continue
        if score > 0.01:
            _put(scores, s_node, t_node, score)
    for (s_path, t_path), score in seed.items():
        if scores.get((s_path, t_path), 0.0) == 0.0:
            _put(scores, s_path, t_path, score * 0.5)
    return scores


_ITERATIONS = (1, 5, 20)


def _oracle_matrices(source, target) -> dict:
    """Each matcher's oracle matrix; flooding at every iteration count
    of :data:`_ITERATIONS`."""
    lexical = _oracle_lexical(source, target)
    matrices = {
        "lexical": lexical,
        "thesaurus": _oracle_thesaurus(source, target),
        "datatype": _oracle_datatype(source, target),
    }
    flooded = _oracle_flooding(source, target, lexical, _ITERATIONS)
    for iterations, matrix in flooded.items():
        matrices[f"similarity-flooding/{iterations}"] = matrix
    return matrices


def _oracle_ensemble(matrices: dict, config: MatchConfig) -> dict:
    """The weighted average over the union of pair keys, summing the
    first matrix, then each other one in matcher order."""
    weights = dict(config.weights)
    weighted = []
    for name in ("lexical", "similarity-flooding", "thesaurus", "datatype",
                 "instance-based"):
        if weights.get(name, 0) <= 0:
            continue
        if name == "similarity-flooding":
            name_key = f"{name}/{config.flooding_iterations}"
        else:
            name_key = name
        if name_key in matrices:
            weighted.append((matrices[name_key], weights[name]))
    total_weight = sum(weight for _, weight in weighted)
    first, first_weight = weighted[0]
    combined = {key: score * (first_weight / total_weight)
                for key, score in first.items()}
    rest = [(m, w / total_weight) for m, w in weighted[1:]]
    keys = set(combined)
    for matrix, _ in rest:
        keys |= set(matrix)
    result = {}
    for key in keys:
        total = combined.get(key, 0.0)
        for matrix, weight in rest:
            total += weight * matrix.get(key, 0.0)
        if total > 0:
            result[key] = min(1.0, total)
    return result


# ----------------------------------------------------------------------
# seeded schema pairs
# ----------------------------------------------------------------------
_NAMES = (
    "id name Name customerId customer_id billingAddr billing_address "
    "Dept department qty quantity price cost Città straße naïve "
    "HTTPResponse zip2 addr2 EID SID BirthDate phone tel"
).split()
_TYPES = (INT, STRING, FLOAT, DATE)


def _object_schema(name: str, seed: int):
    """Entities with is-a, FK, association and containment edges over a
    name pool with camelCase, snake_case, digits and non-ASCII names."""
    rng = random.Random(seed)
    builder = SchemaBuilder(name)
    entities = [f"{rng.choice(_NAMES)}E{i}" for i in range(rng.randint(2, 4))]
    for index, entity in enumerate(entities):
        parent = (rng.choice(entities[:index])
                  if index and rng.random() < 0.3 else None)
        builder.entity(entity, key=[] if parent else [f"k{index}"],
                       parent=parent)
        if parent is None:
            builder.attribute(f"k{index}", INT)
        for attribute in rng.sample(_NAMES, rng.randint(1, 3)):
            builder.attribute(attribute, rng.choice(_TYPES))
    for index in range(rng.randint(1, 2)):
        builder.association(f"assoc{index}", rng.choice(entities),
                            rng.choice(entities))
    parent, child = rng.sample(entities, 2)
    builder.containment(parent, child)
    return builder.build()


def _schema_pairs():
    pairs = []
    # Snowflakes of depth 1-3: wide and shallow, or narrow and deep.
    shapes = [(1, 3, 2), (1, 2, 3), (2, 2, 0), (2, 1, 3), (3, 1, 2), (3, 1, 1)]
    for seed in range(36):
        depth, branching, attributes = shapes[seed % len(shapes)]
        schema = synthetic.snowflake_schema(
            f"Snow{seed}", depth=depth, branching=branching,
            attributes_per_entity=attributes, seed=seed,
        )
        copy, _ = synthetic.perturbed_copy(
            schema, rename_probability=0.3 + 0.2 * (seed % 4), seed=seed + 1,
            distinct_entity_names=bool(seed % 2),
        )
        pairs.append((f"snowflake-{seed}", schema, copy))
    for seed in range(12):
        hierarchy = synthetic.inheritance_schema(
            f"Isa{seed}", depth=1 + seed % 2, branching=2,
            attributes_per_entity=1,
        )
        copy, _ = synthetic.perturbed_copy(hierarchy, 0.5, seed=seed)
        pairs.append((f"inheritance-{seed}", hierarchy, copy))
    for seed in range(52):
        pairs.append((f"object-{seed}", _object_schema("A", 2 * seed),
                      _object_schema("B", 2 * seed + 1)))
    pairs.append(("figure4", paper.figure4_source_schema(),
                  paper.figure4_target_schema()))
    pairs.append(("figure4-reversed", paper.figure4_target_schema(),
                  paper.figure4_source_schema()))
    return pairs


_PAIRS = _schema_pairs()

_CONFIGS = {
    "default": MatchConfig(),
    "default-iterations-1": MatchConfig(flooding_iterations=1),
    "default-iterations-5": MatchConfig(flooding_iterations=5),
    "lexical": MatchConfig(weights={"lexical": 1.0}),
    "similarity-flooding": MatchConfig(weights={"similarity-flooding": 1.0}),
    "thesaurus": MatchConfig(weights={"thesaurus": 1.0}),
    "datatype": MatchConfig(weights={"datatype": 1.0}),
}


def _as_dict(matrix) -> dict:
    return {(s, t): score for s, t, score in matrix.items()}


def test_enough_pairs_of_every_shape():
    assert len(_PAIRS) >= 100
    shapes = {label.split("-")[0] for label, _, _ in _PAIRS}
    assert shapes == {"snowflake", "inheritance", "object", "figure4"}
    edge_labels = {
        label for _, source, _ in _PAIRS for _, label, _ in _schema_graph(source)
    }
    assert {"attr", "type", "fk", "isa", "assoc", "contains"} <= edge_labels


@pytest.fixture(scope="module")
def oracle_matrices():
    return [_oracle_matrices(source, target) for _, source, target in _PAIRS]


@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
def test_ensemble_equals_oracle(config_name, oracle_matrices):
    config = _CONFIGS[config_name]
    for (label, source, target), matrices in zip(_PAIRS, oracle_matrices):
        expected = _oracle_ensemble(matrices, config)
        actual = _as_dict(ensemble_similarity(source, target, config))
        assert actual == expected, f"{label}: scores moved under {config_name}"


def test_ensemble_with_instances_equals_oracle():
    source = paper.figure4_source_schema()
    target = paper.figure4_target_schema()
    config = MatchConfig(
        source_instance=InstanceGenerator(source, seed=1).generate(30),
        target_instance=InstanceGenerator(target, seed=2).generate(30),
    )
    matrices = _oracle_matrices(source, target)
    matrices["instance-based"] = _as_dict(InstanceBasedMatcher(
        config.source_instance, config.target_instance,
    ).similarity(source, target))
    assert _as_dict(ensemble_similarity(source, target, config)) == \
        _oracle_ensemble(matrices, config)


def test_bit_parallel_levenshtein_equals_dynamic_programming():
    rng = random.Random(20)
    alphabets = ("ab", "abcd_", "aäé漢😀", "".join(map(chr, range(32, 127))))
    pairs = [("", ""), ("", "abc"), ("abc", ""), ("a" * 70, "ab" * 40),
             ("straße", "strasse"), ("naïve", "naive")]
    while len(pairs) < 10_000:
        alphabet = rng.choice(alphabets)
        pairs.append(tuple(
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
            for _ in range(2)
        ))
    distance = _levenshtein  # the bit-parallel algorithm, uncached
    for a, b in pairs:
        assert distance(a, b) == _dp_levenshtein(a, b), (a, b)


def test_warm_memo_gives_the_cold_scores():
    """``name_similarity``, ``_token_pair_score`` and ``_trigrams`` are
    memoized per process.  A pass over the pairs in reverse order, which
    finds every name pair already scored, must give the matrices of a
    pass that started from an empty memo."""
    name_similarity.cache_clear()
    _token_pair_score.cache_clear()
    _trigrams.cache_clear()
    config = _CONFIGS["default"]
    cold = [_as_dict(ensemble_similarity(source, target, config))
            for _, source, target in _PAIRS]
    misses = name_similarity.cache_info().misses
    warm = [_as_dict(ensemble_similarity(source, target, config))
            for _, source, target in reversed(_PAIRS)]
    assert name_similarity.cache_info().misses == misses
    for (label, _, _), expected, actual in zip(_PAIRS, cold, warm[::-1]):
        assert actual == expected, f"{label}: a warm memo moved a score"


def test_memos_share_one_bound():
    for memo in (tokenize, name_similarity, _token_pair_score, _trigrams):
        assert memo.cache_info().maxsize == 65_536


#: A perfbench ``design`` pair whose best target for ``fact.fact_d0_ref``
#: is an exact tie between ``fact_5.fact_d1_ref`` and
#: ``fact_5.fact_d2_ref``.
_TIE_SCRIPT = """
from repro.operators.match import MatchConfig, match
from repro.workloads import synthetic
seed = 1031279582
schema = synthetic.snowflake_schema("Snow51", depth=1, branching=3,
                                    attributes_per_entity=3, seed=seed)
copy, _ = synthetic.perturbed_copy(schema, rename_probability=0.5,
                                   seed=seed + 1, distinct_entity_names=True)
for c in match(schema, copy, MatchConfig(top_k=1, threshold=0.1)):
    print(c.source.path, c.target.path, c.confidence)
"""


def test_ties_do_not_depend_on_hash_seed():
    processes = []
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=str(REPO_ROOT / "src"))
        processes.append(subprocess.Popen(
            [sys.executable, "-c", _TIE_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        outputs.append(stdout)
    assert len(set(outputs)) == 1
    # The tie goes to the target declared first.
    assert "fact.fact_d0_ref fact_5.fact_d1_ref 0.5997" in outputs[0]


def _schema_fingerprint(schema) -> str:
    parts = [schema.name, schema.metamodel]
    for entity in schema.entities.values():
        parts.append((entity.name, tuple(entity.key), tuple(
            (a.name, str(a.data_type), a.nullable) for a in entity.attributes
        )))
    for dep in schema.inclusion_dependencies():
        parts.append((dep.source, tuple(dep.source_attributes), dep.target,
                      tuple(dep.target_attributes)))
    return repr(parts)


def test_seeded_snowflakes_do_not_move():
    """``snowflake_schema`` draws one type per naming attempt, taken
    names included, so the perfbench ``design`` pool and the E1 inputs
    stay the schemas they have always been.  The digest was recorded
    when a duplicate name was still detected by catching the builder's
    error."""
    digest = hashlib.sha256()
    for seed in range(40):
        for depth, branching, attributes in ((1, 3, 3), (1, 3, 4),
                                             (2, 2, 5), (3, 2, 8)):
            schema = synthetic.snowflake_schema(
                "S", depth=depth, branching=branching,
                attributes_per_entity=attributes, seed=seed,
            )
            digest.update(_schema_fingerprint(schema).encode())
    assert digest.hexdigest() == (
        "7d6b57506f7b612c6c4afe0f0336944cea2aea8aea2c36a753714866869e4949"
    )


# ----------------------------------------------------------------------
# the flooding fixpoint's convergence test, custom thesauri and the rows
# the matchers install
# ----------------------------------------------------------------------
#: Convergence bounds: 0 (an int) never stops a run early, 0.5 stops
#: most runs after the first iteration.
_EPSILONS = (0, 1e-4, 1e-2, 0.5)


def test_flooding_stops_where_the_oracle_stops():
    """``flood`` at every iteration cap of :data:`_ITERATIONS` and every
    ε of :data:`_EPSILONS` equals the oracle's fixpoint, which takes the
    largest move of any node and stops when it is below ε.  A run that
    stopped before its cap differs from the run that never stops."""
    stopped_early = 0
    for label, source, target in _PAIRS:
        seed = LexicalMatcher().similarity(source, target)
        never_stops = _oracle_flooding(source, target, _as_dict(seed),
                                       _ITERATIONS, epsilon=0)
        for epsilon in _EPSILONS:
            expected = _oracle_flooding(source, target, _as_dict(seed),
                                        _ITERATIONS, epsilon=epsilon)
            for iterations in _ITERATIONS:
                actual = _as_dict(SimilarityFlooding(
                    iterations=iterations, epsilon=epsilon).flood(seed))
                assert actual == expected[iterations], (
                    f"{label}: flooding moved at {iterations} iterations, "
                    f"epsilon {epsilon}"
                )
                stopped_early += actual != never_stops[iterations]
    assert stopped_early >= 1


def _oracle_thesaurus_with(source, target, thesaurus) -> dict:
    """:func:`_oracle_thesaurus` over ``DEFAULT_THESAURUS`` merged with
    ``thesaurus``."""
    merged = dict(DEFAULT_THESAURUS)
    merged.update(thesaurus)

    def score(a: str, b: str) -> float:
        canon_a = {merged.get(t, t) for t in tokenize(a)}
        canon_b = {merged.get(t, t) for t in tokenize(b)}
        if not canon_a or not canon_b:
            return 0.0
        return len(canon_a & canon_b) / max(len(canon_a), len(canon_b))

    scores: dict = {}
    for s_entity in source.entities:
        for t_entity in target.entities:
            _put(scores, s_entity, t_entity, score(s_entity, t_entity))
    for s_path in _attribute_paths(source):
        for t_path in _attribute_paths(target):
            _put(scores, s_path, t_path,
                 score(s_path.split(".", 1)[1], t_path.split(".", 1)[1]))
    return scores


#: Synonyms that join names of the schema pairs the default thesaurus
#: keeps apart, and move "cost" out of the price group.
_CUSTOM_THESAURUS = {"billing": "address", "qty": "price", "cost": "cost",
                     "zip": "city", "tel": "name", "eid": "identifier"}


def test_custom_thesaurus_equals_the_merged_oracle(oracle_matrices):
    """``MatchConfig(thesaurus=...)`` scores by the default thesaurus
    merged with the custom one; a default Match run after it scores by
    the default thesaurus again."""
    moved = 0
    for (label, source, target), matrices in zip(_PAIRS, oracle_matrices):
        for config in (
            MatchConfig(thesaurus=_CUSTOM_THESAURUS),
            MatchConfig(weights={"thesaurus": 1.0},
                        thesaurus=_CUSTOM_THESAURUS),
        ):
            custom = dict(matrices)
            custom["thesaurus"] = _oracle_thesaurus_with(
                source, target, _CUSTOM_THESAURUS)
            moved += custom["thesaurus"] != matrices["thesaurus"]
            actual = _as_dict(ensemble_similarity(source, target, config))
            assert actual == _oracle_ensemble(custom, config), label
        for config_name in ("default", "thesaurus"):
            config = _CONFIGS[config_name]
            actual = _as_dict(ensemble_similarity(source, target, config))
            assert actual == _oracle_ensemble(matrices, config), (
                f"{label}: a custom thesaurus leaked into {config_name}"
            )
    # The custom synonyms must move some scores.
    assert moved >= 10


def test_installed_rows_hold_scores_in_the_unit_interval():
    """Every matcher, and the ensemble, installs rows the way
    ``SimilarityMatrix.set`` leaves them: no empty row, and only scores
    in (0, 1]."""
    for label, source, target in _PAIRS:
        lexical = LexicalMatcher().similarity(source, target)
        matrices = {
            "lexical": lexical,
            "flooding": SimilarityFlooding().flood(lexical),
            "flooding/0": SimilarityFlooding(iterations=0).flood(lexical),
            "thesaurus": ThesaurusMatcher().similarity(source, target),
            "datatype": DatatypeMatcher().similarity(source, target),
            "ensemble": ensemble_similarity(source, target, MatchConfig()),
        }
        for name, matrix in matrices.items():
            for source_path, row in matrix._rows.items():
                assert row, f"{label}: {name} installed an empty row"
                for target_path, score in row.items():
                    assert 0.0 < score <= 1.0, (
                        f"{label}: {name} holds {score} for "
                        f"{source_path} -> {target_path}"
                    )


def test_best_for_source_equals_a_full_sort():
    """``best_for_source`` ranks with ``heapq.nsmallest``; it must return
    exactly ``sorted(row)[:k]`` under the same key, ties included, on
    random rows whose scores tie often and that name targets outside the
    target schema (which all rank after the schema's own elements)."""
    rng = random.Random(11)
    for label, source, target in _PAIRS[:4]:
        paths = [str(p.path) for p in target.all_element_paths()]
        positions = {path: index for index, path in enumerate(paths)}

        def key(item):
            return -item[1], positions.get(item[0], len(positions))

        for _ in range(50):
            matrix = SimilarityMatrix(source, target)
            named = paths + ["Outside.a", "Outside.b", "Outside"]
            for name in rng.sample(named, rng.randrange(1, len(named) + 1)):
                matrix.set("S", name, rng.choice((0.25, 0.5, 0.5, 1.0)))
            row = matrix._rows["S"]
            ranked = sorted(row.items(), key=key)
            for k in (1, 3, len(row)):
                assert matrix.best_for_source("S", k) == ranked[:k], label
