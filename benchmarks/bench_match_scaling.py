"""E1 — §3.1.1: matcher quality and the top-k claim.

The paper argues that for engineered mappings "a better goal … is to
ensure that a matcher returns all viable candidates for a given
element, rather than only the best one".  The experiment matches
schemas against renamed copies with increasing noise and reports, per
matcher and for the ensemble, precision / recall / F1 of the proposal
set and the *top-k hit rate* — the fraction of elements whose candidate
list contains the right answer.  Expected shape: top-3 hit rate stays
high as best-1 precision degrades with noise, and the ensemble beats
every single matcher.

Run standalone (``python benchmarks/bench_match_scaling.py``) to emit
``BENCH_match.json`` through the harness (``benchmarks/harness.py``):
the E1 quality table, pinned to its recorded values so that the run
fails if a candidate moves, and one Match per perturbed snowflake at
23, 77, 239 and 509 elements, with the pairwise connectivity graph's
size and the lexical, flooding and total time, each as wall and CPU
time (``make bench-match``).  ``--smoke`` runs the quality table and the
two smallest sizes and rewrites no JSON unless ``--out`` is given
(``make match-smoke``).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.operators.match import (
    LexicalMatcher,
    MatchConfig,
    SimilarityFlooding,
    evaluate_against_truth,
    match,
)
from repro.operators.match.lexical import (
    _token_pair_score,
    _trigrams,
    name_similarity,
)
from repro.operators.match.structural import _connectivity_graph, _schema_graph
from repro.workloads import synthetic

from conftest import print_table


def _workload(noise: float, seed: int = 11):
    schema = synthetic.snowflake_schema("M", depth=1, branching=3,
                                        attributes_per_entity=4, seed=seed)
    copy, truth = synthetic.perturbed_copy(schema, rename_probability=noise,
                                           seed=seed + 1)
    return schema, copy, truth


_SINGLE_MATCHER_WEIGHTS = {
    "lexical": {"lexical": 1.0},
    "thesaurus": {"thesaurus": 1.0},
    "flooding": {"similarity-flooding": 1.0},
    "datatype": {"datatype": 1.0},
}


@pytest.mark.parametrize("noise", [0.3, 0.6, 0.9])
def test_ensemble_matching(benchmark, noise):
    schema, copy, truth = _workload(noise)
    config = MatchConfig(top_k=3, threshold=0.1)

    correspondences = benchmark(match, schema, copy, config)
    quality = evaluate_against_truth(correspondences, truth)
    assert quality.top_k_hit_rate > 0.5


@pytest.mark.parametrize("matcher", sorted(_SINGLE_MATCHER_WEIGHTS))
def test_single_matcher(benchmark, matcher):
    schema, copy, truth = _workload(0.6)
    config = MatchConfig(weights=_SINGLE_MATCHER_WEIGHTS[matcher],
                         top_k=3, threshold=0.05)

    correspondences = benchmark(match, schema, copy, config)
    assert len(correspondences) > 0


@pytest.mark.parametrize("size", [2, 3, 4])
def test_match_time_scaling(benchmark, size):
    schema = synthetic.snowflake_schema("Big", depth=1, branching=size,
                                        attributes_per_entity=4, seed=3)
    copy, _ = synthetic.perturbed_copy(schema, 0.5, seed=4)

    benchmark(match, schema, copy, MatchConfig(top_k=3))


#: The E1 table as recorded: (noise, matcher) -> (precision, recall,
#: top-k hit rate, proposals), rounded to 4 places.  Equal scores rank
#: by target position, so every row is the same under any hash seed.
_E1_PINNED = {
    (0.3, "datatype"): (0.1449, 0.3704, 0.3704, 69),
    (0.3, "flooding"): (0.3333, 0.1481, 0.1481, 12),
    (0.3, "lexical"): (0.3333, 1.0, 1.0, 81),
    (0.3, "thesaurus"): (0.431, 0.9259, 0.9259, 58),
    (0.3, "ENSEMBLE top-3"): (0.3333, 1.0, 1.0, 81),
    (0.3, "ENSEMBLE best-1"): (1.0, 1.0, 1.0, 27),
    (0.6, "datatype"): (0.1449, 0.3704, 0.3704, 69),
    (0.6, "flooding"): (0.3333, 0.1481, 0.1481, 12),
    (0.6, "lexical"): (0.3333, 1.0, 1.0, 81),
    (0.6, "thesaurus"): (0.4545, 0.9259, 0.9259, 55),
    (0.6, "ENSEMBLE top-3"): (0.3333, 1.0, 1.0, 81),
    (0.6, "ENSEMBLE best-1"): (1.0, 1.0, 1.0, 27),
    (0.9, "datatype"): (0.1449, 0.3704, 0.3704, 69),
    (0.9, "flooding"): (0.3333, 0.1481, 0.1481, 12),
    (0.9, "lexical"): (0.321, 0.963, 0.963, 81),
    (0.9, "thesaurus"): (0.4038, 0.7778, 0.7778, 52),
    (0.9, "ENSEMBLE top-3"): (0.321, 0.963, 0.963, 81),
    (0.9, "ENSEMBLE best-1"): (1.0, 0.963, 0.963, 26),
}


def test_match_quality_report(benchmark):
    """The E1 table: quality per matcher per noise level, checked
    against :data:`_E1_PINNED`."""
    rows, moved = [], []

    def add_row(noise, label, quality):
        rows.append([noise, label, quality.precision, quality.recall,
                     quality.f1, quality.top_k_hit_rate])
        measured = (round(quality.precision, 4), round(quality.recall, 4),
                    round(quality.top_k_hit_rate, 4), quality.proposed)
        if measured != _E1_PINNED[(noise, label)]:
            moved.append(f"{label} at noise {noise}: {measured} != "
                         f"{_E1_PINNED[(noise, label)]}")

    for noise in (0.3, 0.6, 0.9):
        schema, copy, truth = _workload(noise)
        for label, weights in sorted(_SINGLE_MATCHER_WEIGHTS.items()):
            add_row(noise, label, evaluate_against_truth(
                match(schema, copy,
                      MatchConfig(weights=weights, top_k=3, threshold=0.05)),
                truth,
            ))
        ensemble_all = match(schema, copy, MatchConfig(top_k=3,
                                                       threshold=0.1))
        add_row(noise, "ENSEMBLE top-3",
                evaluate_against_truth(ensemble_all, truth))
        add_row(noise, "ENSEMBLE best-1",
                evaluate_against_truth(ensemble_all.best_one_to_one(), truth))
    schema, copy, _ = _workload(0.6)
    benchmark(match, schema, copy, MatchConfig(top_k=3))
    print_table(
        "E1: matcher quality vs rename noise "
        "(paper's claim: keep top-k candidates, not best-1)",
        ["noise", "matcher", "precision", "recall", "F1", "top-k hit"],
        rows,
    )
    assert not moved, "E1 candidates moved: " + "; ".join(moved)


# ----------------------------------------------------------------------
# standalone scaling run -> BENCH_match.json (harness-v1)
# ----------------------------------------------------------------------
#: (depth, branching) of the perturbed snowflakes, three attributes per
#: entity: 23, 77, 239 and 509 elements.
_SIZES = ((1, 3), (2, 3), (3, 3), (3, 4))


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms"


def _clear_name_memo() -> None:
    """Empty the lexical matcher's process-wide name-pair, token-pair
    and trigram memos, so that the next Match scores every name pair
    from scratch."""
    name_similarity.cache_clear()
    _token_pair_score.cache_clear()
    _trigrams.cache_clear()


def scaling_report(benchmark):
    """One Match per size: the pairwise connectivity graph's nodes and
    edges (same-label edge pairs), the lexical matrix and the flooding
    fixpoint on their own, and the whole ensemble with top-k.  The
    whole Match and the lexical matrix each start from an empty name
    memo; flooding reads the lexical matrix only."""
    rows = []
    for depth, branching in _SIZES:
        schema = synthetic.snowflake_schema(
            "Big", depth=depth, branching=branching,
            attributes_per_entity=3, seed=3,
        )
        copy, _ = synthetic.perturbed_copy(schema, 0.5, seed=4)
        _clear_name_memo()
        wall, cpu = time.perf_counter(), time.process_time()
        match(schema, copy, MatchConfig(top_k=3))
        total_wall = time.perf_counter() - wall
        total_cpu = time.process_time() - cpu
        _clear_name_memo()
        wall, cpu = time.perf_counter(), time.process_time()
        lexical = LexicalMatcher().similarity(schema, copy)
        lexical_wall = time.perf_counter() - wall
        lexical_cpu = time.process_time() - cpu
        wall, cpu = time.perf_counter(), time.process_time()
        SimilarityFlooding().flood(lexical)
        flooding_wall = time.perf_counter() - wall
        flooding_cpu = time.process_time() - cpu
        nodes, adjacency = _connectivity_graph(_schema_graph(schema),
                                               _schema_graph(copy))
        elements = len(schema.all_element_paths())
        rows.append([
            f"snowflake(depth={depth}, branching={branching})", elements,
            len(nodes), sum(map(len, adjacency)) // 2,
            _ms(lexical_wall), _ms(lexical_cpu), _ms(flooding_wall),
            _ms(flooding_cpu), _ms(total_wall), _ms(total_cpu),
        ])
        print(f"{elements:>4} elements  match={total_wall:.3f}s")
    schema = synthetic.snowflake_schema("Big", depth=1, branching=3,
                                        attributes_per_entity=3, seed=3)
    copy, _ = synthetic.perturbed_copy(schema, 0.5, seed=4)
    benchmark(match, schema, copy, MatchConfig(top_k=3))
    print_table(
        "E1b: Match time vs schema size (perturbed snowflakes, one "
        "Match each, then lexical and flooding re-timed on their own; "
        "Match and lexical start from an empty name-pair memo)",
        ["schema", "elements", "graph nodes", "graph edges",
         "lexical (empty memo)", "lexical cpu", "flooding", "flooding cpu",
         "total", "total cpu"],
        rows,
    )


def main(argv=None) -> int:
    from harness import run_standalone

    if argv is None:
        argv = sys.argv[1:]
    if "--smoke" in argv:
        global _SIZES
        _SIZES = _SIZES[:2]
    return run_standalone("match", [test_match_quality_report,
                                    scaling_report], argv, observe=False)


if __name__ == "__main__":
    raise SystemExit(main())
