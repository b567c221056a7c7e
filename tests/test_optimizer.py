"""Tests for the algebra optimizer: each rewrite rule, plus a
hypothesis property that optimization never changes query results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Col,
    Distinct,
    FALSE,
    Join,
    Lit,
    Not,
    Or,
    Project,
    Rename,
    Scan,
    Select,
    TRUE,
    UnionAll,
    Values,
    And,
    eq,
    eq_join,
    evaluate,
    gt,
    lt,
    optimize,
    project_names,
)
from repro.algebra.optimizer import simplify_predicate
from repro.instances import Instance


class TestPredicateSimplification:
    def test_true_absorption(self):
        assert simplify_predicate(And(TRUE, TRUE)) is TRUE
        assert simplify_predicate(Or(FALSE, FALSE)) is FALSE

    def test_false_short_circuit(self):
        p = eq(Col("x"), 1)
        assert simplify_predicate(And(p, FALSE)) is FALSE
        assert simplify_predicate(Or(p, TRUE)) is TRUE

    def test_single_operand_unwrapped(self):
        p = eq(Col("x"), 1)
        assert simplify_predicate(And(p, TRUE)) == p
        assert simplify_predicate(Or(p, FALSE)) == p

    def test_double_negation(self):
        p = eq(Col("x"), 1)
        assert simplify_predicate(Not(Not(p))) == p

    def test_constant_comparison_folded(self):
        assert simplify_predicate(eq(Lit(1), Lit(1))) is TRUE
        assert simplify_predicate(eq(Lit(1), Lit(2))) is FALSE

    def test_nested_and_flattened(self):
        p, q, r = eq(Col("x"), 1), eq(Col("y"), 2), eq(Col("z"), 3)
        flat = simplify_predicate(And(And(p, q), r))
        assert isinstance(flat, And) and len(flat.operands) == 3


class TestRewrites:
    def test_select_true_removed(self):
        assert optimize(Select(Scan("R"), TRUE)) == Scan("R")

    def test_select_false_becomes_empty(self):
        assert optimize(Select(Scan("R"), FALSE)) == Values([])

    def test_select_cascade_fused(self):
        p, q = eq(Col("x"), 1), gt(Col("y"), 2)
        fused = optimize(Select(Select(Scan("R"), p), q))
        assert isinstance(fused, Select)
        assert not isinstance(fused.input, Select)

    def test_select_pushed_into_union(self):
        p = eq(Col("x"), 1)
        branches = [project_names(Scan(r), ["x", "y"]) for r in "AB"]
        pushed = optimize(Select(UnionAll(*branches), p))
        assert isinstance(pushed, UnionAll)
        assert isinstance(pushed.left, Project)
        assert isinstance(pushed.left.input, Select)
        # A branch that may lack x keeps σ above the union: ∪ pads the
        # branch's x with None, which σ below it would not see.
        for union in (UnionAll(Scan("A"), Scan("B")),
                      UnionAll(branches[0], project_names(Scan("B"), ["y"]))):
            assert optimize(Select(union, p)) == Select(union, p)

    def test_select_through_passthrough_project(self):
        p = eq(Col("x"), 1)
        expr = Select(project_names(Scan("R"), ["x", "y"]), p)
        rewritten = optimize(expr)
        assert isinstance(rewritten, Project)
        assert isinstance(rewritten.input, Select)

    def test_select_over_literal_column_partially_evaluates(self):
        """σ[x=5] over a projection pinning x:=5 is a tautology and
        folds away; σ[x=6] is a contradiction and prunes the branch."""
        tautology = Select(
            Project(Scan("R"), [("x", Lit(5))]), eq(Col("x"), 5)
        )
        assert optimize(tautology) == Project(Scan("R"), [("x", Lit(5))])
        contradiction = Select(
            Project(Scan("R"), [("x", Lit(5))]), eq(Col("x"), 6)
        )
        assert optimize(contradiction) == Values([])

    def test_type_branch_pruning(self):
        """The access-control/query-view scenario: a union of typed
        branches filtered by a $type membership test keeps only the
        matching branches."""
        from repro.algebra import Distinct, In

        branch_a = Distinct(Project(Scan("A"), [("$type", Lit("A")),
                                                ("v", Col("v"))]))
        branch_b = Distinct(Project(Scan("B"), [("$type", Lit("B")),
                                                ("v", Col("v"))]))
        query = Select(UnionAll(branch_a, branch_b),
                       In(Col("$type"), {"B"}))
        pruned = optimize(query)
        assert pruned.relations() == {"B"}

    def test_select_pushes_through_distinct(self):
        expr = Select(Distinct(Scan("R")), eq(Col("x"), 1))
        rewritten = optimize(expr)
        assert isinstance(rewritten, Distinct)
        assert isinstance(rewritten.input, Select)

    def test_project_fusion(self):
        inner = Project(Scan("R"), [("a", Col("x")), ("b", Col("y"))])
        outer = Project(inner, [("c", Col("a"))])
        fused = optimize(outer)
        assert isinstance(fused, Project)
        assert fused.input == Scan("R")
        assert fused.outputs == (("c", Col("x")),)

    def test_identity_rename_removed(self):
        assert optimize(Rename(Scan("R"), {"x": "x"})) == Scan("R")

    def test_union_with_empty_removed(self):
        assert optimize(UnionAll(Scan("R"), Values([]))) == Scan("R")
        assert optimize(UnionAll(Values([]), Scan("R"))) == Scan("R")

    def test_double_distinct_collapsed(self):
        assert optimize(Distinct(Distinct(Scan("R")))) == Distinct(Scan("R"))

    def test_fixpoint_terminates(self):
        expr = Scan("R")
        for _ in range(5):
            expr = Select(expr, TRUE)
        assert optimize(expr) == Scan("R")


# ----------------------------------------------------------------------
# semantics preservation (property-based)
# ----------------------------------------------------------------------
_row = st.fixed_dictionaries({
    "x": st.integers(-3, 3),
    "y": st.integers(-3, 3),
})


def _instances(draw):
    db = Instance()
    db.insert_all("R", draw(st.lists(_row, max_size=12)))
    db.insert_all("S", draw(st.lists(_row, max_size=12)))
    return db


@st.composite
def _expression(draw, depth=0):
    """Random algebra expressions over R(x, y) and S(x, y) that keep
    both columns visible (so nesting stays well-typed)."""
    if depth >= 3:
        return Scan(draw(st.sampled_from(["R", "S"])))
    kind = draw(st.sampled_from(
        ["scan", "select", "select", "project", "union", "join",
         "distinct", "rename_noop"]
    ))
    if kind == "scan":
        return Scan(draw(st.sampled_from(["R", "S"])))
    if kind == "select":
        inner = draw(_expression(depth=depth + 1))
        column = draw(st.sampled_from(["x", "y"]))
        comparison = draw(st.sampled_from(["=", "<", ">"]))
        value = draw(st.integers(-3, 3))
        predicate = {"=": eq, "<": lt, ">": gt}[comparison](Col(column), value)
        if draw(st.booleans()):
            predicate = And(predicate, draw(st.sampled_from([TRUE, predicate])))
        return Select(inner, predicate)
    if kind == "project":
        inner = draw(_expression(depth=depth + 1))
        return project_names(inner, ["x", "y"])
    if kind == "union":
        return UnionAll(
            draw(_expression(depth=depth + 1)),
            draw(_expression(depth=depth + 1)),
        )
    if kind == "join":
        return eq_join(
            draw(_expression(depth=depth + 1)),
            draw(_expression(depth=depth + 1)),
            [("x", "x")],
        )
    if kind == "distinct":
        return Distinct(draw(_expression(depth=depth + 1)))
    return Rename(draw(_expression(depth=depth + 1)), {"x": "x"})


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_optimize_preserves_semantics(data):
    db = _instances(data.draw)
    expr = data.draw(_expression())
    original = evaluate(expr, db)
    optimized = evaluate(optimize(expr), db)
    bag = lambda rows: sorted(
        tuple(sorted(r.items())) for r in rows
    )
    assert bag(original) == bag(optimized)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_optimize_is_idempotent(data):
    """A second pass finds nothing left to rewrite.  (Note: size may
    legitimately *grow* — pushing a selection into a union duplicates
    it — so idempotence, not shrinkage, is the invariant.)"""
    expr = data.draw(_expression())
    once = optimize(expr)
    assert optimize(once) == once
