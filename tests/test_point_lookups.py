"""Point lookups: selections pushed through joins, differences, renames
and unions, index probes, and plans keyed on the query's shape.

Two oracles hold the rewrites, the probe stage and the parameter slots
to the reference interpreter:

(a) the vectorized engine equals the interpreter run on the tree the
    plan cache compiled (errors included);
(b) the interpreter on that tree equals the interpreter on the raw tree
    whenever the raw tree returns rows, up to the None padding of
    unions.  Two latitudes of the rewrites (docs/OPTIMIZER.md): a
    pushed σ may drop a row on which the raw tree raises, so (b) is not
    checked when the raw tree raises; and ∪ pads only the columns it
    observes in rows, so a σ that empties the branch contributing a
    column also drops that column's None padding.
"""

import random

import pytest

from repro.algebra import (
    Aggregate,
    And,
    Col,
    Comparison,
    Difference,
    Distinct,
    EntityScan,
    GLOBAL_VECTOR_PLAN_CACHE,
    Join,
    Lit,
    Or,
    Rename,
    Scan,
    Select,
    UnionAll,
    clear_plan_cache,
    eq,
    eq_join,
    evaluate,
    evaluate_interpreted,
    optimize,
    project_names,
    vector_plan_cache_stats,
)
from repro.algebra.estimate import estimate_expr
from repro.algebra.expressions import _JoinEq
from repro.algebra.plan_cache import parameterize
from repro.errors import EvaluationError
from repro.instances import Instance, LabeledNull
from repro.observability import disable, enable, reset
from repro.observability.journal import JOURNAL
from repro.operators.compose import unfold_scans
from repro.runtime.query_processor import (
    QueryProcessor,
    _localize_type_predicates,
)
from repro.workloads import paper


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def canon(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


def outcome(run):
    try:
        return canon(run())
    except EvaluationError as exc:
        return ("error", str(exc))


def unpadded(result):
    """A canonical result with None cells left out (∪ padding)."""
    return [tuple(cell for cell in row if cell[1] != "None")
            for row in result]


def check_b(raw, compiled):
    if isinstance(raw, list):
        assert isinstance(compiled, list), "(b) compiled tree raises"
        assert sorted(unpadded(compiled)) == sorted(unpadded(raw)), (
            "(b) compiled tree ≠ raw tree"
        )


def check_oracles(expr, instance):
    """Properties (a) and (b) for one query; returns the result."""
    raw = outcome(lambda: evaluate_interpreted(expr, instance))
    vectorized = outcome(lambda: evaluate(expr, instance))
    shape, params = parameterize(expr)
    plan, _ = GLOBAL_VECTOR_PLAN_CACHE.adaptive_lookup(
        shape, instance, None, params
    )
    compiled = outcome(
        lambda: evaluate_interpreted(plan.expr, instance, params=params)
    )
    assert vectorized == compiled, "(a) vectorized ≠ interpreter"
    check_b(raw, compiled)
    return vectorized


def people(n=4000):
    """Figure 2's SQL side, the shape perfbench's query workload uses."""
    sql = Instance(paper.figure2_sql_schema())
    for i in range(n):
        kind = i % 3
        if kind == 0:
            sql.add("HR", Id=i, Name=f"P{i}")
        elif kind == 1:
            sql.add("HR", Id=i, Name=f"E{i}")
            sql.add("Empl", Id=i, Dept=f"D{i % 5}")
        else:
            sql.add("Client", Id=i, Name=f"C{i}", Score=600 + i % 200,
                    Addr=f"{i} Main St")
    return sql


# ----------------------------------------------------------------------
# regressions
# ----------------------------------------------------------------------
def test_select_on_a_column_some_union_branch_lacks():
    """σ[Dept = 'D1'] over Person: the Person and Customer branches
    carry no Dept, which the union pads with None."""
    sql = people()
    mapping = paper.figure2_mapping()
    query = Select(EntityScan("Person"), eq(Col("Dept"), "D1"))
    processor = QueryProcessor(mapping, sql)
    unoptimized = unfold_scans(
        _localize_type_predicates(query, mapping.target),
        processor._view_definitions(),
    )
    expected = evaluate_interpreted(unoptimized, sql, mapping.source)
    assert len(expected) == 267
    assert canon(processor.answer_algebra(query)) == canon(expected)


def test_select_over_padded_union():
    db = Instance()
    db.insert("R", {"a": 1, "b": 3})
    db.insert("S", {"a": 2, "c": None})
    expr = Select(UnionAll(Scan("R"), Scan("S")), eq(Col("b"), 3))
    expected = [{"a": 1, "b": 3, "c": None}]
    assert evaluate_interpreted(expr, db) == expected
    assert evaluate(expr, db) == expected


@pytest.mark.parametrize("group_by, aggregations", [
    (["g"], [("g", "count", None)]),
    (["g", "v"], [("g", "sum", Col("v"))]),
    ([], [("n", "count", None), ("n", "sum", Col("v"))]),
])
def test_aggregate_rejects_repeated_output_names(group_by, aggregations):
    with pytest.raises(EvaluationError, match="duplicate output columns"):
        Aggregate(Scan("T"), group_by, aggregations)


# ----------------------------------------------------------------------
# rewrites
# ----------------------------------------------------------------------
def test_point_lookup_reaches_every_figure2_scan():
    """σ[Id = k] crosses the join keys, the anti-join's difference and
    the Customer branch's rename down to every base scan."""
    processor = QueryProcessor(paper.figure2_mapping(), people(30))
    query = Select(project_names(EntityScan("Person"), ["Id", "Name"]),
                   eq(Col("Id"), 5))
    unfolded, params = processor._unfold(query)
    assert params == (5,)
    stack, scans = [unfolded], []
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            scans.append(node)
        stack.extend(node.inputs())
        if isinstance(node, Select) and isinstance(node.input, Scan):
            stack.remove(node.input)  # a pushed selection's scan
            assert node.predicate.columns() == {"Id"}
    assert scans == []


def test_select_crosses_equi_join_key_to_both_sides():
    join = eq_join(project_names(Scan("L"), ["k", "x"]),
                   project_names(Scan("R"), ["j", "y"]), [("k", "j")])
    pushed = optimize(Select(join, And(eq(Col("k"), 3), eq(Col("y"), 4))))
    assert isinstance(pushed, Join)
    assert pushed.left.input == Select(Scan("L"), eq(Col("k"), 3))
    assert pushed.right.input == Select(
        Scan("R"), And(eq(Col("j"), 3), eq(Col("y"), 4))
    )


def test_select_spanning_both_join_sides_stays_above():
    join = eq_join(project_names(Scan("L"), ["k", "x"]),
                   project_names(Scan("R"), ["j", "y"]), [("k", "j")])
    spanning = Select(join, Comparison("<", Col("x"), Col("y")))
    assert optimize(spanning) == spanning


def test_select_stays_above_outer_join_and_unknown_shapes():
    for join in (
        eq_join(project_names(Scan("L"), ["k"]),
                project_names(Scan("R"), ["j"]), [("k", "j")], kind="left"),
        eq_join(Scan("L"), Scan("R"), [("k", "j")]),
    ):
        assert optimize(Select(join, eq(Col("k"), 1))) == Select(
            join, eq(Col("k"), 1)
        )


def test_select_pushed_through_difference_and_rename():
    a = project_names(Scan("A"), ["x"])
    b = project_names(Scan("B"), ["x"])
    pushed = optimize(Select(Difference(a, b), eq(Col("x"), 1)))
    assert isinstance(pushed, Difference)
    assert isinstance(pushed.right.input, Select)
    renamed = Rename(project_names(Scan("A"), ["x", "y"]), {"y": "z"})
    assert isinstance(optimize(Select(renamed, eq(Col("x"), 1))), Rename)
    # A predicate on a renamed column stays above the rename.
    assert isinstance(optimize(Select(renamed, eq(Col("z"), 1))), Select)


# ----------------------------------------------------------------------
# shapes, probes, EXPLAIN and the query events
# ----------------------------------------------------------------------
def test_literals_become_slots_but_type_literals_stay():
    query = Select(Scan("T"), And(eq(Col("a"), 1), eq(Lit(2), Col("b")),
                                  eq(Col("$type"), "P")))
    shape, params = parameterize(query)
    assert params == (1, 2)
    other, other_params = parameterize(
        Select(Scan("T"), And(eq(Col("a"), 7), eq(Lit(8), Col("b")),
                              eq(Col("$type"), "P")))
    )
    assert other == shape and other_params == (7, 8)
    assert "'P'" in repr(shape) and "$0" in repr(shape)


def test_distinct_keys_compile_one_plan():
    sql = people(300)
    processor = QueryProcessor(paper.figure2_mapping(), sql)
    for key in range(64):
        query = Select(project_names(EntityScan("Person"), ["Id", "Name"]),
                       eq(Col("Id"), key))
        assert processor.answer_algebra(query) == [
            {"Id": key, "Name": "PEC"[key % 3] + str(key)}
        ]
    stats = vector_plan_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 63


def test_explain_shows_bound_values_and_the_probe():
    processor = QueryProcessor(paper.figure2_mapping(), people(300))
    query = Select(project_names(EntityScan("Person"), ["Id", "Name"]),
                   eq(Col("Id"), 7))
    result = processor.explain_analyze(query)
    text = result.render()
    assert "σ[Id = 7]" in text and "$0" not in text
    assert "$0" not in str(result.to_dict())
    assert "(vec_probe)" in text
    assert result.rows == [{"Id": 7, "Name": "E7"}]
    for node in result.plan.nodes:
        assert result.profile.rows_out(node.node_id) == len(
            evaluate_interpreted(node.expr, processor.source)
        ) * result.profile.calls(node.node_id)


def test_logged_estimate_binds_the_slots():
    """Correlated columns make σ the worst-estimated node; its logged
    estimate is the literal query's (a slot would score 1/3)."""
    db = Instance()
    db.insert_all("t", [{"b": i % 10, "c": i % 10} for i in range(100)])
    query = Select(Scan("t"), And(eq(Col("b"), 3), eq(Col("c"), 3)))
    enable()
    try:
        evaluate(query, db)
        (event,) = [e for e in JOURNAL.events() if e.kind == "query"]
    finally:
        disable()
        reset()
    worst = event.attrs["worst_divergent"]
    assert event.attrs["fingerprint"] == query.fingerprint()
    assert worst["label"] == "σ[(b = $0 AND c = $1)]"
    assert worst["est_rows"] == estimate_expr(query, db)
    assert worst["est_rows"] == pytest.approx(1.0)
    assert worst["actual_rows"] == 10


@pytest.mark.parametrize("value", [1, True, 1.0])
def test_probe_matches_equal_values_of_other_types(value):
    db = Instance()
    db.insert_all("T", [{"Id": v, "n": i}
                        for i, v in enumerate([True, 1.0, 1, 2, "1"] * 20)])
    db.insert_all("T", [{"Id": i, "n": -i} for i in range(3, 200)])
    rows = check_oracles(Select(Scan("T"), eq(Col("Id"), value)), db)
    assert len(rows) == 60


def test_probe_with_labeled_nulls_and_a_none_literal():
    db = Instance()
    db.insert_all("T", [{"k": LabeledNull(i % 4), "v": i} for i in range(40)])
    db.insert_all("T", [{"k": i, "v": i} for i in range(200)])
    db.insert_all("T", [{"k": None, "v": -1}])
    for literal in (LabeledNull(2), 5, None, "5"):
        check_oracles(Select(Scan("T"), eq(Col("k"), literal)), db)
    assert len(evaluate(Select(Scan("T"), eq(Col("k"), LabeledNull(2))),
                        db)) == 10


def test_probe_declines_a_ragged_relation():
    db = Instance()
    db.insert_all("T", [{"k": i} for i in range(100)] + [{"v": 1}])
    result = check_oracles(Select(Scan("T"), eq(Col("k"), 5)), db)
    assert result[0] == "error"


def test_probe_declines_a_low_cardinality_column():
    db = Instance()
    db.insert_all("T", [{"flag": i % 2, "v": i} for i in range(1000)])
    evaluate(Select(Scan("T"), eq(Col("flag"), 1)), db)
    assert "flag" not in db._caches["T"]  # no postings built on flag
    evaluate(Select(Scan("T"), eq(Col("v"), 1)), db)
    assert "v" in db._caches["T"]


# ----------------------------------------------------------------------
# randomized two-oracle suite
# ----------------------------------------------------------------------
RELATIONS = ("R0", "R1", "R2")
COLUMNS = ("k", "a", "s")


def _value(rng):
    return rng.choice([
        rng.randint(0, 3), rng.randint(0, 3), rng.random() < 0.5,
        float(rng.randint(0, 3)), rng.choice(["x", "1"]), None,
        LabeledNull(rng.randint(0, 2)),
    ])


def _key(rng):
    """A mostly distinct key, so the probe's statistics admit it."""
    return rng.randint(0, 24) if rng.random() < 0.7 else _value(rng)


def _rows(rng, name, count, ragged):
    for _ in range(count):
        row = {f"{name}{c}": _value(rng) for c in COLUMNS}
        row[f"{name}k"] = _key(rng)
        if ragged and rng.random() < 0.2:
            del row[rng.choice(list(row))]
        yield row


def _instance(rng, ragged):
    db = Instance()
    for name in RELATIONS:
        db.insert_all(name, list(_rows(rng, name, rng.randint(3, 30), ragged)))
    return db


def _predicate(rng, cols):
    def leaf():
        column = rng.choice(cols)
        if rng.random() < 0.8:
            value = _key(rng) if column[2] == "k" else _value(rng)
            if rng.random() < 0.2:
                return eq(Lit(value), Col(column))
            return eq(Col(column), value)
        return Comparison(rng.choice(["<", "!="]), Col(column),
                          Lit(rng.randint(0, 3)))

    roll = rng.random()
    if roll < 0.15:
        return And(leaf(), leaf())
    if roll < 0.25:
        return Or(leaf(), leaf())
    return leaf()


def _plan(rng, depth, tag):
    """``(expr, columns)``: σ placed on 60% of subplans over joins,
    differences, renames and padded unions."""
    expr, cols = _subplan(rng, depth, tag)
    if rng.random() < 0.6:
        expr = Select(expr, _predicate(rng, cols))
    return expr, cols


def _subplan(rng, depth, tag):
    name = rng.choice(RELATIONS)
    base = [f"{name}{c}" for c in COLUMNS]
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Scan(name), base
        cols = rng.sample(base, rng.randint(1, 3))
        return project_names(Scan(name), cols), cols
    op = rng.choice(["join", "join", "difference", "rename", "union",
                     "distinct"])
    left, lcols = _plan(rng, depth - 1, tag + "l")
    if op == "join":
        right, rcols = _plan(rng, depth - 1, tag + "r")
        suffix = f"_{tag}"
        right = Rename(right, {c: c + suffix for c in rcols})
        rcols = [c + suffix for c in rcols]
        pair = (rng.choice(lcols), rng.choice(rcols))
        kind = "inner" if rng.random() < 0.8 else "left"
        if rng.random() < 0.7:
            return eq_join(left, right, [pair], kind=kind), lcols + rcols
        # The pair plus a residual between the sides' first columns.
        residual = Comparison("<=", Col(lcols[0]), Col(rcols[0]))
        return Join(left, right, And(_JoinEq(*pair), residual),
                    kind=kind), lcols + rcols
    if op == "difference":
        right, rcols = _plan(rng, depth - 1, tag + "r")
        shared = [c for c in lcols if c in rcols] or lcols[:1]
        if rng.random() < 0.7:
            left = project_names(left, shared)
            right = project_names(
                right if set(shared) <= set(rcols)
                else Rename(right, dict(zip(rcols, shared))), shared)
            return Difference(left, right), shared
        return Difference(left, right), lcols
    if op == "rename":
        victim = rng.choice(lcols)
        return Rename(left, {victim: victim + "_r"}), [
            victim + "_r" if c == victim else c for c in lcols
        ]
    if op == "union":
        right, rcols = _plan(rng, depth - 1, tag + "r")
        return UnionAll(left, right), lcols + [c for c in rcols
                                               if c not in lcols]
    return Distinct(left), lcols


def _mutate(rng, db):
    """Deletes through remove_rows plus appends, between two runs."""
    for name in RELATIONS:
        rows = list(db.rows(name))
        doomed = rng.sample(rows, min(len(rows), rng.randint(0, 3)))
        db.remove_rows(name, doomed)
        db.insert_all(name, list(_rows(rng, name, rng.randint(0, 4), False)))


def _relit(rng, expr):
    """The same shape with fresh literals in its hoisted slots."""
    shape, params = parameterize(expr)
    return shape, tuple(_key(rng) for _ in params)


@pytest.mark.parametrize("ragged", [False, True], ids=["full", "ragged"])
@pytest.mark.parametrize("block", range(4))
def test_two_oracles_on_random_selections(ragged, block):
    for seed in range(block * 60, block * 60 + 60):
        rng = random.Random(seed + (10_000 if ragged else 0))
        db = _instance(rng, ragged)
        expr, _ = _plan(rng, rng.randint(1, 3), "t")
        check_oracles(expr, db)
        # One cached shape, run again after deletes and appends with
        # other values in its slots.
        _mutate(rng, db)
        shape, params = _relit(rng, expr)
        raw = outcome(lambda: evaluate_interpreted(shape, db, params=params))
        vectorized = outcome(lambda: evaluate(shape, db, params=params))
        plan, _ = GLOBAL_VECTOR_PLAN_CACHE.adaptive_lookup(
            shape, db, None, params
        )
        compiled = outcome(
            lambda: evaluate_interpreted(plan.expr, db, params=params)
        )
        assert vectorized == compiled, seed
        check_b(raw, compiled)
