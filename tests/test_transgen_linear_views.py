"""TPT query views linear in the hierarchy.

A concrete type's rows are the key-join of its fragments minus the keys
of every type whose fragment pattern strictly extends its own.  Each
such type is told apart by its first fragment outside the pattern, and
the types of one subtree all share their subtree root's fragment, so
TransGen anti-joins each type once, against the union of its *distinct*
excluders.  The construction it replaced anti-joined once per richer
type; every anti-join reads its input twice, so that view doubled per
anti-join (141,123 nodes for a 15-type TPT hierarchy).

``per_type_query_view`` keeps that construction as the oracle: the
views TransGen builds now return the same rows, in the same order.  To
stay linear at 40 types, the oracle evaluates each anti-join of its
chain into ``Values`` before the next one reads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algebra import (
    Col,
    Difference,
    Distinct,
    Lit,
    Project,
    Rename,
    UnionAll,
    Values,
    eq_join,
    evaluate,
    optimize,
    project_names,
)
from repro.instances import InstanceGenerator
from repro.instances.database import TYPE_FIELD
from repro.operators import InheritanceStrategy, modelgen, transgen
from repro.operators.transgen import (
    AlgebraTransformation,
    _analyze,
    _join_fragments,
)
from repro.workloads import paper, synthetic
from tests.test_transgen_deep_hierarchy import deep_mapping, er_sample

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the oracle: one anti-join per richer type
# ----------------------------------------------------------------------
def _anti_join_one(expr, excluder, key_cols, root_key):
    excluder_keys = excluder.key_columns(root_key)
    excluded = project_names(excluder.constraint.source_expr, excluder_keys)
    if excluder_keys != key_cols:
        excluded = Rename(excluded, dict(zip(excluder_keys, key_cols)))
    surviving = Difference(
        Distinct(project_names(expr, key_cols)), Distinct(excluded)
    )
    return eq_join(expr, surviving, [(k, k) for k in key_cols])


def per_type_query_view(root, fragments, tables=None):
    """``root``'s polymorphic extent, anti-joining each type once per
    richer type it could hold; with ``tables``, every step of the chain
    is evaluated into ``Values``."""
    concrete = [e for e in [root] + root.descendants() if not e.is_abstract]
    root_key = list(root.key)
    patterns = {
        entity.name: frozenset(
            i for i, f in enumerate(fragments) if entity.name in f.types
        )
        for entity in concrete
    }
    branches = []
    for entity in concrete:
        pattern = patterns[entity.name]
        if not pattern:
            continue
        own = [fragments[i] for i in sorted(pattern)]
        expr = _join_fragments(own, root_key)
        key_cols = own[0].key_columns(root_key)
        intersection_types = set(own[0].types)
        for fragment in own[1:]:
            intersection_types &= fragment.types
        for other in intersection_types - {entity.name}:
            extra = patterns.get(other, frozenset()) - pattern
            excluder = fragments[min(extra)]
            expr = _anti_join_one(expr, excluder, key_cols, root_key)
            if tables is not None:
                expr = Values(evaluate(expr, tables))
        renames = {}
        for fragment in own:
            for column, attr in fragment.output_to_attr.items():
                if column != attr:
                    renames[column] = attr
        if renames:
            expr = Rename(expr, renames)
        available = set()
        for fragment in own:
            available.update(fragment.output_to_attr.values())
        outputs = [(TYPE_FIELD, Lit(entity.name))] + [
            (attr, Col(attr) if attr in available else Lit(None))
            for attr in entity.all_attribute_names()
        ]
        branches.append(Distinct(Project(expr, outputs)))
    union = branches[0]
    for branch in branches[1:]:
        union = UnionAll(union, branch)
    return union


def oracle_query_view(mapping, tables=None):
    fragments = [_analyze(c, mapping.target) for c in mapping.equalities]
    assert all(f is not None for f in fragments)
    by_root = {}
    for fragment in fragments:
        by_root.setdefault(fragment.root, []).append(fragment)
    rules = [
        (name, optimize(per_type_query_view(
            mapping.target.entity(name), root_fragments, tables)))
        for name, root_fragments in sorted(by_root.items())
    ]
    return AlgebraTransformation(
        rules, input_schema=mapping.source, output_schema=mapping.target
    )


def _rows(instance):
    return {name: instance.rows(name) for name in sorted(instance.relations)}


def _hierarchy(depth, branching):
    return synthetic.inheritance_schema(
        f"H{depth}x{branching}", depth=depth, branching=branching,
        attributes_per_entity=2,
    )


# ----------------------------------------------------------------------
# same rows, same order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", list(InheritanceStrategy),
                         ids=lambda s: s.name)
@pytest.mark.parametrize("branching", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_query_view_rows_match_the_per_type_oracle(depth, branching,
                                                   strategy):
    schema = _hierarchy(depth, branching)
    mapping = modelgen(schema, "relational", strategy).mapping
    views = transgen(mapping)
    db = InstanceGenerator(schema, seed=depth * 10 + branching).generate(60)
    tables = views.update_view.apply(db)
    produced = _rows(views.query_view.apply(tables))
    assert produced == _rows(oracle_query_view(mapping, tables).apply(tables))
    if len(schema.entities) <= 7:
        # Small enough for the oracle's own doubling expression.
        assert produced == _rows(oracle_query_view(mapping).apply(tables))
    views.verify_roundtrip(db)


def test_deep_mapping_rows_match_the_per_type_oracle():
    mapping = deep_mapping()
    views = transgen(mapping)
    db = er_sample()
    for i in range(5, 65):
        kind = ("Person", "Employee", "Manager", "Customer")[i % 4]
        attrs = {"Person": {}, "Employee": {"Dept": f"D{i % 3}"},
                 "Manager": {"Dept": f"D{i % 3}", "Reports": i % 5},
                 "Customer": {"Score": 500 + i}}[kind]
        db.insert_object(kind, Id=i, Name=f"{kind[0]}{i}", **attrs)
    tables = views.update_view.apply(db)
    produced = _rows(views.query_view.apply(tables))
    assert produced == _rows(oracle_query_view(mapping).apply(tables))
    assert produced == _rows(oracle_query_view(mapping, tables).apply(tables))


def test_figure2_view_is_the_per_type_view():
    """Every Figure 2 type has at most one excluder, so its query view
    (the Figure 3 shape that view unfolding serves) is unchanged."""
    mapping = paper.figure2_mapping()
    produced = transgen(mapping).query_view.rules
    expected = oracle_query_view(mapping).rules
    assert [(n, e.fingerprint()) for n, e in produced] == [
        (n, e.fingerprint()) for n, e in expected
    ]


# ----------------------------------------------------------------------
# size
# ----------------------------------------------------------------------
def test_fifteen_type_tpt_view_is_linear():
    schema = _hierarchy(3, 2)
    assert len(schema.entities) == 15
    views = transgen(modelgen(schema, "relational",
                              InheritanceStrategy.TPT).mapping)
    # 141,123 nodes with one anti-join per richer type.
    assert views.query_view.size() <= 400


def test_each_type_anti_joins_once():
    """The root of a TPT hierarchy reads each child table once in its
    excluder union, and no branch nests a second anti-join."""
    schema = _hierarchy(2, 3)
    views = transgen(modelgen(schema, "relational",
                              InheritanceStrategy.TPT).mapping)
    (_, expr), = views.query_view.rules
    differences = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Difference):
            differences.append(node)
        stack.extend(node.inputs())
    # Root and its three children have excluders; the nine leaves none.
    assert len(differences) == 4
    for node in differences:
        assert not any(isinstance(inner, Difference)
                       for inner in _descendants(node.left))


def _descendants(expr):
    stack = list(expr.inputs())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.inputs())


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
_FINGERPRINT_SCRIPT = """
from repro.operators import InheritanceStrategy, modelgen, transgen
from repro.workloads import synthetic
from tests.test_transgen_deep_hierarchy import deep_mapping

schema = synthetic.inheritance_schema("Hier", depth=2, branching=2)
for mapping in (
    modelgen(schema, "relational", InheritanceStrategy.TPT).mapping,
    deep_mapping(),
):
    views = transgen(mapping)
    print(" ".join(e.fingerprint() for _, e in views.query_view.rules))
"""


def test_query_view_fingerprint_does_not_depend_on_hash_seed():
    """The fingerprint keys the view's cached plan and its EXPLAIN
    text; an excluder order taken from a ``set`` made it differ per
    ``PYTHONHASHSEED``."""
    processes = []
    for hash_seed in range(4):
        env = dict(
            os.environ, PYTHONHASHSEED=str(hash_seed),
            PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"),
                                        str(REPO_ROOT)]),
        )
        processes.append(subprocess.Popen(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT], env=env,
            cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ))
    outputs = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        outputs.append(stdout.split("\n")[:2])
    tpt, deep = zip(*outputs)
    assert len(set(tpt)) == 1
    assert len(set(deep)) == 1
