"""TransGen update-view branches built as one projection.

A fragment's entity-side expression is usually ``π(σ[IS OF](EntityScan))``.
The update view used to wrap it in a second ``π`` that assembles the
table's columns, and left ``optimize`` to fuse the two.  TransGen now
composes the outer outputs through the inner projection itself, so the
raw rules are already what ``optimize`` returns.

``wrapped_update_view_rules`` keeps the old construction as the oracle:
its optimized rules are the same trees (equal fingerprints) as the ones
TransGen's views hold.
"""

import pytest

from repro.algebra import optimize
from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.operators import InheritanceStrategy, modelgen, transgen
from repro.operators.transgen import _analyze, _update_view_rules
from repro.workloads import paper, synthetic
from tests.test_transgen_deep_hierarchy import deep_mapping


def wrapped_update_view_rules(fragments, table_schema):
    """The old construction: each branch projects the fragment's
    entity-side expression, projection and all."""
    by_table = {}
    for fragment in fragments:
        by_table.setdefault(fragment.table, []).append(fragment)
    rules = []
    for table_name, table_fragments in sorted(by_table.items()):
        table_columns = list(
            table_schema.entity(table_name).all_attribute_names()
        )
        branches = []
        for fragment in table_fragments:
            covered = {
                fragment.output_to_table[column]: column
                for column in fragment.output_to_table
            }
            outputs = []
            for table_column in table_columns:
                if table_column in covered:
                    outputs.append(
                        (table_column, S.Col(covered[table_column]))
                    )
                elif table_column in fragment.table_selection:
                    outputs.append((table_column, S.Lit(
                        fragment.table_selection[table_column])))
                else:
                    outputs.append((table_column, S.Lit(None)))
            branches.append(
                E.Project(fragment.constraint.target_expr, outputs)
            )
        union = branches[0]
        for branch in branches[1:]:
            union = E.UnionAll(union, branch)
        rules.append((table_name, E.Distinct(union)))
    return rules


def _by_root(mapping):
    fragments = [_analyze(c, mapping.target) for c in mapping.equalities]
    grouped = {}
    for fragment in fragments:
        if fragment is not None:
            grouped.setdefault(fragment.root, []).append(fragment)
    return sorted(grouped.items())


def _mappings():
    for depth in (1, 2, 3):
        schema = synthetic.inheritance_schema(
            f"H{depth}x2", depth=depth, branching=2
        )
        for strategy in InheritanceStrategy:
            yield (f"{strategy.name}-depth{depth}",
                   modelgen(schema, "relational", strategy).mapping)
    yield "figure2", paper.figure2_mapping()
    yield "deep", deep_mapping()


MAPPINGS = list(_mappings())


@pytest.mark.parametrize("mapping", [m for _, m in MAPPINGS],
                         ids=[name for name, _ in MAPPINGS])
def test_raw_update_rules_are_already_optimized(mapping):
    for root_name, fragments in _by_root(mapping):
        root = mapping.target.entity(root_name)
        for _, rule in _update_view_rules(root, fragments, mapping.source):
            assert optimize(rule) is rule


@pytest.mark.parametrize("mapping", [m for _, m in MAPPINGS],
                         ids=[name for name, _ in MAPPINGS])
def test_optimized_update_rules_match_the_wrapped_oracle(mapping):
    expected = []
    for root_name, fragments in _by_root(mapping):
        root = mapping.target.entity(root_name)
        built = _update_view_rules(root, fragments, mapping.source)
        oracle = wrapped_update_view_rules(fragments, mapping.source)
        assert [name for name, _ in built] == [name for name, _ in oracle]
        for (name, rule), (_, wrapped) in zip(built, oracle):
            assert rule.fingerprint() == optimize(wrapped).fingerprint()
            expected.append((name, optimize(wrapped).fingerprint()))
    view = transgen(mapping).update_view
    produced = [(name, rule.fingerprint()) for name, rule in view.rules]
    assert produced[: len(expected)] == expected
