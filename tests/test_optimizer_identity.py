"""The heuristic pass keeps every subtree no rule changes.

``oracle_optimize`` below is the heuristic fixpoint as it stood when a
pass rebuilt every node it visited and the fixpoint compared whole
trees structurally.  The identity-keeping pass must return a tree
``==`` to it on the random plans of ``tests/test_point_lookups.py``
(raw and parameterized) and on every expression TransGen optimizes; a
tree it already settled must come back as the same object, and a
shared subtree no rule touches must stay shared.
"""

import importlib
import random

import pytest

from repro.algebra import (
    Col,
    Comparison,
    Distinct,
    Lit,
    Project,
    Rename,
    Scan,
    Select,
    TRUE,
    UnionAll,
    Values,
    eq,
    eq_join,
    optimize,
    project_names,
)
from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.compiler import _static_cols, union_branches
from repro.algebra.optimizer import (
    _carries,
    _is_empty,
    _partial_eval,
    _push_select_into_join,
    _recognize_equi_join,
    _rewrite,
    _substitute_columns,
    simplify_predicate,
)
from repro.algebra.plan_cache import parameterize
from repro.operators import InheritanceStrategy, modelgen, transgen
from repro.workloads import paper, synthetic
from tests.test_point_lookups import _plan
from tests.test_transgen_deep_hierarchy import deep_mapping


# ----------------------------------------------------------------------
# the oracle: rebuild every node, compare whole trees
# ----------------------------------------------------------------------
def oracle_optimize(expr, max_passes=10):
    current = expr
    for _ in range(max_passes):
        rewritten = _rebuild(current)
        if rewritten == current:
            return current
        current = rewritten
    return current


def _rebuild(expr):
    expr = _rebuild_children(expr)

    if isinstance(expr, E.Select):
        predicate = simplify_predicate(expr.predicate)
        if predicate is S.TRUE:
            return expr.input
        if predicate is S.FALSE:
            return E.Values([])
        if isinstance(expr.input, E.Select):
            return _rebuild(
                E.Select(
                    expr.input.input,
                    S.conjunction([expr.input.predicate, predicate]),
                )
            )
        if isinstance(expr.input, E.Distinct):
            return _rebuild(
                E.Distinct(E.Select(expr.input.input, predicate))
            )
        source = expr.input
        if (
            isinstance(source, E.UnionAll) and all(
                _carries(b, predicate) for b in union_branches(source)
            )
            or isinstance(source, E.Difference) and all(
                _carries(b, predicate) for b in source.inputs()
            )
        ):
            return _rebuild(type(source)(
                *(E.Select(side, predicate) for side in source.inputs())
            ))
        if (
            isinstance(source, E.Rename)
            and _static_cols(source) is not None
            and _carries(source.input, predicate)
            and all(source.mapping.get(c, c) == c
                    for c in predicate.columns())
        ):
            return _rebuild(
                E.Rename(E.Select(source.input, predicate), source.mapping)
            )
        if isinstance(source, E.Join):
            pushed = _push_select_into_join(source, predicate)
            if pushed is not None:
                return _rebuild(pushed)
        if isinstance(expr.input, E.Project):
            literal_bindings = {
                name: scalar
                for name, scalar in expr.input.outputs
                if isinstance(scalar, S.Lit)
            }
            if literal_bindings and (
                predicate.columns() & set(literal_bindings)
            ):
                predicate = simplify_predicate(
                    _partial_eval(
                        _substitute_columns(predicate, literal_bindings)
                    )
                )
                if predicate is S.TRUE:
                    return expr.input
                if predicate is S.FALSE:
                    return E.Values([])
            passthrough = {
                name
                for name, scalar in expr.input.outputs
                if isinstance(scalar, S.Col) and scalar.name == name
            }
            if predicate.columns() <= passthrough:
                return _rebuild(
                    E.Project(
                        E.Select(expr.input.input, predicate),
                        expr.input.outputs,
                    )
                )
        return E.Select(expr.input, predicate)

    if isinstance(expr, E.Project):
        if all(
            isinstance(s, S.Col) and s.name == name for name, s in expr.outputs
        ):
            inner_names = _static_cols(expr.input)
            if inner_names is not None and list(expr.output_names) == list(
                inner_names
            ):
                return expr.input
        if isinstance(expr.input, E.Project):
            inner = dict(expr.input.outputs)
            composed = []
            for name, scalar in expr.outputs:
                composed.append((name, _substitute_columns(scalar, inner)))
            return E.Project(expr.input.input, composed)
        return expr

    if isinstance(expr, E.Rename):
        mapping = {o: n for o, n in expr.mapping.items() if o != n}
        if not mapping:
            return expr.input
        return E.Rename(expr.input, mapping)

    if isinstance(expr, E.Join):
        return _recognize_equi_join(expr)

    if isinstance(expr, E.UnionAll):
        if _is_empty(expr.left):
            return expr.right
        if _is_empty(expr.right):
            return expr.left
        return expr

    if isinstance(expr, E.Distinct):
        if isinstance(expr.input, E.Distinct):
            return expr.input
        if _is_empty(expr.input):
            return E.Values([])
        return expr

    return expr


def _rebuild_children(expr):
    if isinstance(expr, E.Select):
        return E.Select(_rebuild(expr.input), expr.predicate)
    if isinstance(expr, E.Project):
        return E.Project(_rebuild(expr.input), expr.outputs)
    if isinstance(expr, E.Extend):
        return E.Extend(_rebuild(expr.input), expr.name, expr.scalar)
    if isinstance(expr, E.Join):
        return E.Join(
            _rebuild(expr.left),
            _rebuild(expr.right),
            expr.predicate,
            expr.kind,
            expr.right_prefix,
        )
    if isinstance(expr, E.UnionAll):
        return E.UnionAll(_rebuild(expr.left), _rebuild(expr.right))
    if isinstance(expr, E.Difference):
        return E.Difference(_rebuild(expr.left), _rebuild(expr.right))
    if isinstance(expr, E.Distinct):
        return E.Distinct(_rebuild(expr.input))
    if isinstance(expr, E.Rename):
        return E.Rename(_rebuild(expr.input), expr.mapping)
    if isinstance(expr, E.Aggregate):
        return E.Aggregate(_rebuild(expr.input), expr.group_by,
                           expr.aggregations)
    if isinstance(expr, E.Sort):
        return E.Sort(_rebuild(expr.input), expr.keys)
    return expr


# ----------------------------------------------------------------------
# the trees
# ----------------------------------------------------------------------
def _random_plans():
    """The random plans of ``tests/test_point_lookups.py``, each raw and
    with its literals hoisted into ``Param`` slots."""
    for seed in range(240):
        rng = random.Random(seed)
        expr, _ = _plan(rng, rng.randint(1, 3), "t")
        yield expr
        yield parameterize(expr)[0]


def _transgen_inputs(monkeypatch):
    """Every expression TransGen hands to ``optimize``: the query and
    update views of TPH/TPT/TPC hierarchies at depth 1–3, the deep
    hand-written mapping and Figure 2."""
    module = importlib.import_module("repro.operators.transgen")
    captured = []

    def capture(expr, *args, **kwargs):
        captured.append(expr)
        return optimize(expr, *args, **kwargs)

    monkeypatch.setattr(module, "optimize", capture)
    for depth in (1, 2, 3):
        schema = synthetic.inheritance_schema(
            f"H{depth}", depth=depth, branching=2, attributes_per_entity=2
        )
        for strategy in InheritanceStrategy:
            transgen(modelgen(schema, "relational", strategy).mapping)
    transgen(deep_mapping())
    transgen(paper.figure2_mapping())
    monkeypatch.undo()
    return captured


def _check(expr):
    once = optimize(expr)
    assert once == oracle_optimize(expr)
    assert optimize(once) is once
    # The pass itself, not only the fixpoint, returns a settled tree.
    assert _rewrite(once) is once


def test_random_plans_match_the_rebuilding_oracle():
    for expr in _random_plans():
        _check(expr)


def test_transgen_views_match_the_rebuilding_oracle(monkeypatch):
    inputs = _transgen_inputs(monkeypatch)
    assert len(inputs) > 40
    for expr in inputs:
        _check(expr)


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
def test_settled_tree_comes_back_as_itself():
    expr = Distinct(UnionAll(
        project_names(Select(Scan("R"), eq(Col("a"), 1)), ["a", "b"]),
        project_names(Rename(Scan("S"), {"c": "b"}), ["a", "b"]),
    ))
    assert optimize(expr) is expr
    assert _rewrite(expr) is expr
    # Folding against π's literal outputs rebuilds the conjunction
    # around an IS OF it cannot fold; the rebuilt copy is equal.
    typed = Select(
        Project(Scan("A"), [("$type", Lit("A")), ("v", Col("v"))]),
        S.And(S.IsOf("A"), eq(Col("v"), 1)),
    )
    assert optimize(typed) is typed
    assert _rewrite(typed) is typed


def test_shared_subtree_keeps_one_id_under_both_parents():
    """The rules rewrite both parents (a π∘π fusion, an identity entry
    of a ρ) but not the join they share, so both results read the
    caller's join object: the compiler can still run it once."""
    shared = Distinct(eq_join(
        project_names(Scan("R"), ["a", "b"]),
        project_names(Scan("S"), ["c", "d"]),
        [("a", "c")],
    ))
    left = project_names(project_names(shared, ["a", "b", "c"]), ["a", "b"])
    right = project_names(Rename(shared, {"a": "a", "d": "e"}), ["a", "e"])
    result = optimize(UnionAll(left, right))
    assert result == oracle_optimize(UnionAll(left, right))
    assert result.left.input is shared
    assert result.right.input.input is shared
    # The rebuilding pass left two equal copies behind.
    rebuilt = oracle_optimize(UnionAll(left, right))
    assert rebuilt.left.input is not rebuilt.right.input.input


def test_unfolded_view_stays_shared():
    """A view spliced in at two scan sites stays one object after the
    rules rewrite the query above it."""
    view = Distinct(project_names(Scan("HR"), ["Id", "Name"]))
    query = eq_join(
        project_names(Select(view, TRUE), ["Id"]),
        Rename(view, {"Id": "Id2", "Name": "Name"}),
        [("Id", "Id2")],
    )
    result = optimize(query)
    assert result.left.input is view
    assert result.right.input is view


# ----------------------------------------------------------------------
# partial evaluation folds literals only
# ----------------------------------------------------------------------
def _over_literal(predicate):
    """σ[predicate] over a projection pinning ``x`` to a literal, so
    the optimizer partially evaluates ``predicate`` with x bound."""
    return Select(Project(Scan("R"), [("x", Lit(None)), ("y", Col("y"))]),
                  predicate)


def test_param_comparison_stays_unfolded():
    predicate = Comparison("=", Lit(None), S.Param(0))
    assert _partial_eval(predicate) is predicate
    # Through the rules: x := NULL turns x = $0 into NULL = $0, which
    # reads no column and sinks below the projection unfolded.
    rewritten = optimize(_over_literal(Comparison("=", Col("x"),
                                                  S.Param(0))))
    assert rewritten.input.predicate == predicate


def test_function_call_stays_unfolded():
    calls = []

    def shout(value):
        calls.append(value)
        return value

    predicate = Comparison("=", S.Func("shout", [Lit(1)], shout), Lit(1))
    assert _partial_eval(predicate) is predicate
    assert calls == []


def test_literal_division_by_zero_stays_unfolded():
    predicate = Comparison("=", S.Arith("/", Lit(1), Lit(0)), Lit(1))
    assert _partial_eval(predicate) is predicate
    rewritten = optimize(_over_literal(
        Comparison("=", S.Arith("/", Lit(1), Lit(0)), Col("x"))
    ))
    assert rewritten.input.predicate == Comparison(
        "=", S.Arith("/", Lit(1), Lit(0)), Lit(None)
    )


def test_literal_comparison_folds():
    assert _partial_eval(eq(Lit(1), Lit(1))) is TRUE
    assert _partial_eval(eq(Lit(1), Lit(2))) is S.FALSE
    assert optimize(_over_literal(eq(Col("x"), Lit(None)))) == Values([])


@pytest.mark.parametrize("predicate", [
    S.And(eq(Lit(1), Lit(1)), Comparison("=", Lit(None), S.Param(0))),
    S.Or(eq(Lit(1), Lit(2)), Comparison("=", Lit(None), S.Param(0))),
])
def test_literal_operands_fold_beside_a_param(predicate):
    folded = simplify_predicate(_partial_eval(predicate))
    assert folded == Comparison("=", Lit(None), S.Param(0))
