"""Differential tests: the vectorized plan executor against the
reference interpreter, plus plan-cache / engine-flag behavior.

The executor (:mod:`repro.algebra.vectorized`) must be observationally
identical to the tree-walking interpreter on every operator, including
the awkward corners: labeled-null join keys, left-join padding,
empty-group aggregates, equi-joins with a residual predicate, and
heterogeneous unions.  Random plans over synthetic-style relations
exercise operator compositions no hand-written case would."""

import random

import pytest

from repro.algebra import (
    Aggregate,
    And,
    Arith,
    Case,
    Col,
    Comparison,
    Difference,
    Distinct,
    EntityScan,
    Extend,
    GLOBAL_VECTOR_PLAN_CACHE,
    In,
    IsNull,
    Join,
    Lit,
    Or,
    PlanCache,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    TRUE,
    UnionAll,
    Values,
    clear_plan_cache,
    compile_vector_plan,
    eq,
    eq_join,
    evaluate,
    evaluate_interpreted,
    vector_plan_cache_stats,
)
from repro.algebra.expressions import _JoinEq
from repro.algebra.optimizer import optimize
from repro.errors import EvaluationError
from repro.instances import Instance, LabeledNull
from repro.logic.certain_answers import certain_answers, naive_evaluate
from repro.logic.formulas import Atom, ConjunctiveQuery, Equality
from repro.logic.terms import Const, Var
from repro.observability import JOURNAL, disable, enable, registry, reset
from tests.test_metamodel_schema import person_hierarchy
from tests.test_naive_evaluation import search_answers, typed


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def canon(rows):
    """Order-insensitive canonical form of a row multiset."""
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


def assert_engines_agree(expr, instance, schema=None):
    """The oracle: vectorized against the reference interpreter."""
    interpreted = evaluate(expr, instance, schema, engine="interpreted")
    vectorized = evaluate(expr, instance, schema, engine="vectorized")
    assert canon(vectorized) == canon(interpreted)
    return vectorized


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


# ----------------------------------------------------------------------
# random plan generation (differential property testing)
# ----------------------------------------------------------------------
RELATIONS = ("R0", "R1", "R2")


def _columns(name):
    return [f"{name}_k", f"{name}_a", f"{name}_s"]


def _int_value(rng):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.30:
        return LabeledNull(rng.randint(0, 4))
    return rng.randint(0, 5)


def _random_instance(rng):
    """About half the relations get a pairwise-distinct key column, so
    δ and − meet inputs with a unique column (their shortcut) as well
    as inputs with none."""
    instance = Instance()
    for name in RELATIONS:
        key_col, attr_col, str_col = _columns(name)
        count = rng.randint(3, 10)
        if rng.random() < 0.5:
            keys = rng.sample(range(20), count)
        else:
            keys = [_int_value(rng) for _ in range(count)]
        for key in keys:
            instance.insert(
                name,
                {
                    key_col: key,
                    attr_col: _int_value(rng),
                    str_col: rng.choice(["x", "y", "z", None]),
                },
            )
    return instance


def _random_predicate(rng, int_cols, cols):
    def leaf():
        roll = rng.random()
        if roll < 0.25 and cols:
            return IsNull(Col(rng.choice(cols)))
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        column = rng.choice(int_cols or cols)
        return Comparison(op, Col(column), Lit(rng.randint(0, 5)))

    roll = rng.random()
    if roll < 0.2:
        return And(leaf(), leaf())
    if roll < 0.4:
        return Or(leaf(), leaf())
    return leaf()


def _random_plan(rng, depth):
    """Returns (expr, ordered column list, int-valued column subset)."""
    if depth <= 0 or rng.random() < 0.2:
        name = rng.choice(RELATIONS)
        cols = _columns(name)
        return Scan(name), cols, cols[:2]

    op = rng.choice(
        ["select", "project", "extend", "rename", "distinct",
         "union", "difference", "join", "residual_join", "aggregate",
         "sort"]
    )
    expr, cols, int_cols = _random_plan(rng, depth - 1)

    if op == "select":
        return Select(expr, _random_predicate(rng, int_cols, cols)), cols, int_cols
    if op == "project":
        kept = rng.sample(cols, rng.randint(1, len(cols)))
        if rng.random() < 0.5 or not int_cols:
            outputs = [(c, Col(c)) for c in kept]
            return Project(expr, outputs), kept, [c for c in kept if c in int_cols]
        # computed projection — exercises the scalar-closure path
        source = rng.choice(int_cols)
        computed = f"computed{depth}"
        outputs = [(c, Col(c)) for c in kept if c not in (source, computed)]
        outputs.append((computed, Arith("+", Col(source), Lit(1))))
        names = [n for n, _ in outputs]
        return Project(expr, outputs), names, [computed] + [
            c for c in names if c in int_cols
        ]
    if op == "extend":
        name = f"x{depth}"
        if rng.random() < 0.5 and int_cols:
            scalar = Arith("*", Col(rng.choice(int_cols)), Lit(2))
        else:
            scalar = Case(
                [(Comparison(">", Col(rng.choice(int_cols or cols)), Lit(2)),
                  Lit("big"))],
                Lit("small"),
            )
        return Extend(expr, name, scalar), cols + [name], int_cols
    if op == "rename":
        victim = rng.choice(cols)
        renamed = f"{victim}_r"
        mapping = {victim: renamed}
        new_cols = [renamed if c == victim else c for c in cols]
        new_ints = [renamed if c == victim else c for c in int_cols]
        return Rename(expr, mapping), new_cols, new_ints
    if op == "distinct":
        return Distinct(expr), cols, int_cols
    if op == "union":
        other, other_cols, other_ints = _random_plan(rng, depth - 1)
        merged = cols + [c for c in other_cols if c not in cols]
        ints = int_cols + [c for c in other_ints if c not in int_cols]
        return UnionAll(expr, other), merged, ints
    if op == "difference":
        other, _, _ = _random_plan(rng, depth - 1)
        return Difference(expr, other), cols, int_cols
    if op in ("join", "residual_join"):
        name = rng.choice(RELATIONS)
        suffix = f"_j{depth}"
        mapping = {c: c + suffix for c in _columns(name)}
        right = Rename(Scan(name), mapping)
        right_cols = [c + suffix for c in _columns(name)]
        left_key = rng.choice(int_cols or cols)
        right_key = right_cols[rng.randint(0, 1)]
        kind = rng.choice(["inner", "left"])
        if op == "join":
            joined = eq_join(expr, right, [(left_key, right_key)], kind=kind)
        else:
            # The pair plus a residual over the other int column of the
            # right side: no draw beyond the plain join's.
            other = right_cols[1 if right_key == right_cols[0] else 0]
            residual = Comparison("<=", Col(other), Col(left_key))
            joined = Join(
                expr, right, And(_JoinEq(left_key, right_key), residual),
                kind=kind,
            )
        overlap = [c for c in right_cols if c in cols]
        assert not overlap
        return joined, cols + right_cols, int_cols + right_cols[:2]
    if op == "aggregate":
        group = rng.sample(cols, rng.randint(0, min(2, len(cols))))
        # Names unique per depth: a nested aggregate's outputs may be
        # grouped on here, and output names must not repeat.
        aggregations = [(f"cnt{depth}", "count", None)]
        if int_cols:
            aggregations.append(
                (f"sm{depth}", "sum", Col(rng.choice(int_cols))))
            aggregations.append(
                (f"mn{depth}", "min", Col(rng.choice(int_cols))))
        names = [n for n, _, _ in aggregations]
        out_cols = list(group) + names
        ints = [c for c in group if c in int_cols] + names
        return Aggregate(expr, group, aggregations), out_cols, ints
    # sort
    keys = [
        rng.choice(["", "-"]) + c
        for c in rng.sample(int_cols or cols, 1)
    ]
    return Sort(expr, keys), cols, int_cols


def _random_ragged_instance(rng):
    """Rows that randomly omit keys: partial columns in the batch image
    (presence masks, vectorized row-closure fallbacks)."""
    instance = _random_instance(rng)
    for name in RELATIONS:
        key_col, attr_col, str_col = _columns(name)
        for _ in range(rng.randint(1, 5)):
            row = {}
            if rng.random() < 0.7:
                row[key_col] = _int_value(rng)
            if rng.random() < 0.5:
                row[attr_col] = _int_value(rng)
            if rng.random() < 0.3:
                row[str_col] = rng.choice(["x", "y", None])
            instance.insert(name, row)
    if rng.random() < 0.3:
        instance.clear("R2")  # an empty relation in the mix
    return instance


@pytest.mark.parametrize("seed", range(60))
def test_differential_random_plans(seed):
    rng = random.Random(seed)
    instance = _random_instance(rng)
    expr, _, _ = _random_plan(rng, rng.randint(1, 4))
    assert_engines_agree(expr, instance)


@pytest.mark.parametrize("seed", range(40))
def test_differential_random_plans_heterogeneous(seed):
    """Ragged rows force the columnar presence machinery (and, where an
    operator declines a partial batch, the row-closure fallback) — the
    executor must still agree with the interpreter.  A random plan may legitimately
    project a column some ragged row lacks; then every engine must
    raise the same ``EvaluationError``."""
    rng = random.Random(5000 + seed)
    instance = _random_ragged_instance(rng)
    expr, _, _ = _random_plan(rng, rng.randint(1, 4))

    def outcome(engine):
        try:
            return canon(evaluate(expr, instance, engine=engine))
        except EvaluationError as exc:
            return ("error", str(exc))

    interpreted = outcome("interpreted")
    assert outcome("vectorized") == interpreted


@pytest.mark.parametrize("seed", range(20))
def test_differential_optimized_random_plans(seed):
    """The optimizer's output (including recognized equi-joins) stays
    equivalent under all engines."""
    rng = random.Random(1000 + seed)
    instance = _random_instance(rng)
    expr, _, _ = _random_plan(rng, rng.randint(1, 3))
    baseline = canon(evaluate_interpreted(expr, instance))
    optimized = optimize(expr)
    assert canon(evaluate(optimized, instance, engine="vectorized")) == baseline
    assert canon(evaluate(optimized, instance, engine="interpreted")) == baseline


# ----------------------------------------------------------------------
# targeted corners
# ----------------------------------------------------------------------
def test_labeled_null_join_keys():
    """_JoinEq matches labeled nulls by label and never matches None."""
    instance = Instance()
    n1, n2 = LabeledNull(1), LabeledNull(2)
    instance.insert_all(
        "L", [{"a": n1}, {"a": n2}, {"a": None}, {"a": 7}]
    )
    instance.insert_all(
        "R", [{"b": LabeledNull(1)}, {"b": None}, {"b": 7}]
    )
    expr = eq_join(Scan("L"), Scan("R"), [("a", "b")])
    rows = assert_engines_agree(expr, instance)
    assert canon(rows) == canon([{"a": n1, "b": n1}, {"a": 7, "b": 7}])


def _exact(rows):
    """Rows in order, each cell with its type: ``==`` alone equates 1,
    True and 1.0."""
    return [{k: (type(v), v) for k, v in row.items()} for row in rows]


def _outcome(expr, instance, engine):
    try:
        return _exact(evaluate(expr, instance, engine=engine))
    except TypeError as exc:
        return ("TypeError", str(exc))


_L1, _L2 = LabeledNull(1), LabeledNull(2)


@pytest.mark.parametrize("rows, fast", [
    # k is unique: δ returns its input, − filters in stored order.
    ([{"k": 3, "v": "a"}, {"k": 1, "v": "a"}, {"k": 2, "v": "b"},
      {"k": 5, "v": "a"}], True),
    # One None among distinct values is a distinct value.
    ([{"k": None, "v": 1}, {"k": 4, "v": 1}, {"k": 2, "v": 1}], True),
    # 1, True and 1.0 are one value: no unique column, rows 0 and 1 equal.
    ([{"k": 1, "v": "a"}, {"k": True, "v": "a"}, {"k": 1.0, "v": "b"},
      {"k": 2, "v": "a"}], False),
    # Repeated None.
    ([{"k": None, "v": 1}, {"k": None, "v": 2}, {"k": None, "v": 1}], False),
    # A repeated labeled null.
    ([{"k": _L1, "v": 1}, {"k": _L1, "v": 1}, {"k": _L2, "v": 1}], False),
    # Unhashable list cells: every engine raises TypeError, even beside
    # a unique column.
    ([{"k": [1], "v": 1}, {"k": [1], "v": 1}, {"k": [2], "v": 2}], False),
    ([{"k": 1, "v": [1]}, {"k": 2, "v": [1]}], False),
    # A partially present column is never unique.
    ([{"k": 1, "v": 1}, {"v": 2}, {"k": 3, "v": 1}, {"k": 1, "v": 1}], False),
])
def test_distinct_and_difference_match_the_interpreter_in_order(rows, fast):
    instance = Instance()
    instance.insert_all("R", rows)
    instance.insert_all("S", [dict(rows[-1])])
    for expr in (Distinct(Scan("R")), Difference(Scan("R"), Scan("S"))):
        assert _outcome(expr, instance, "vectorized") == _outcome(
            expr, instance, "interpreted"
        )
    try:
        batch = compile_vector_plan(Distinct(Scan("R"))).batch(instance)
    except TypeError:
        batch = None
    assert (batch is instance.column_batch("R")) == fast


def test_left_join_padding():
    instance = Instance()
    instance.insert_all("L", [{"a": 1}, {"a": 2}, {"a": None}])
    instance.insert_all("R", [{"b": 1, "c": "hit"}])
    expr = eq_join(Scan("L"), Scan("R"), [("a", "b")], kind="left")
    rows = assert_engines_agree(expr, instance)
    assert canon(rows) == canon(
        [{"a": 1, "b": 1, "c": "hit"},
         {"a": 2, "b": None, "c": None},
         {"a": None, "b": None, "c": None}]
    )


def test_left_join_empty_right_pads_all():
    instance = Instance()
    instance.insert_all("L", [{"a": 1}])
    expr = Join(Scan("L"), Scan("R"), eq(Col("a"), Lit(1)), kind="left")
    rows = assert_engines_agree(expr, instance)
    assert rows == [{"a": 1}]


def test_empty_input_aggregate():
    expr = Aggregate(Scan("Nothing"), [], [("cnt", "count", None),
                                           ("sm", "sum", Col("v"))])
    rows = assert_engines_agree(expr, Instance())
    assert rows == [{"cnt": 0, "sm": None}]


def test_aggregate_missing_group_column_regression():
    """Rows lacking the group-by column group under None instead of
    raising KeyError (the ``members[0][column]`` crash)."""
    expr = Aggregate(
        Values([{"g": 1, "v": 10}, {"v": 20}, {"g": 1, "v": 5}]),
        ["g"],
        [("cnt", "count", None), ("sm", "sum", Col("v"))],
    )
    rows = assert_engines_agree(expr, Instance())
    assert canon(rows) == canon(
        [{"g": 1, "cnt": 2, "sm": 15}, {"g": None, "cnt": 1, "sm": 20}]
    )


def test_aggregate_labeled_null_groups():
    instance = Instance()
    instance.insert_all(
        "T",
        [{"g": LabeledNull(1), "v": 1},
         {"g": LabeledNull(1), "v": 2},
         {"g": LabeledNull(2), "v": 4},
         {"g": None, "v": 8}],
    )
    expr = Aggregate(Scan("T"), ["g"], [("sm", "sum", Col("v"))])
    rows = assert_engines_agree(expr, instance)
    assert sorted(r["sm"] for r in rows) == [3, 4, 8]


def test_pad_union_column_order():
    """Padded unions expose left columns first, then new right columns,
    in first-seen order — on both engines."""
    expr = UnionAll(
        Values([{"a": 1, "b": 2}]),
        Values([{"c": 3, "a": 4}]),
    )
    for engine in ("vectorized", "interpreted"):
        rows = evaluate(expr, Instance(), engine=engine)
        assert [list(r) for r in rows] == [["a", "b", "c"], ["a", "b", "c"]]
    assert_engines_agree(expr, Instance())


def test_entity_scan_schema_override():
    schema = person_hierarchy()
    instance = Instance()
    instance.insert("Person", {"$type": "Employee", "Id": 1, "Name": "a",
                               "Dept": "d"})
    instance.insert("Person", {"$type": "Person", "Id": 2, "Name": "b"})
    expr = EntityScan("Employee")
    vectorized = evaluate(expr, instance, schema, engine="vectorized")
    interpreted = evaluate(expr, instance, schema, engine="interpreted")
    assert canon(vectorized) == canon(interpreted)
    assert [r["Id"] for r in vectorized] == [1]


def test_colliding_rename_over_ragged_rows():
    """A rename that maps two columns onto one name runs on the
    interpreter: per row the later key wins, and a row lacking one
    keeps the other."""
    instance = Instance()
    instance.insert_all("T", [{"a": 1, "b": 2}, {"a": 3}, {"b": 4, "c": 5}])
    rows = assert_engines_agree(Rename(Scan("T"), {"a": "b"}), instance)
    assert canon(rows) == canon([{"b": 2}, {"b": 3}, {"b": 4, "c": 5}])


_RAGGED = Values([{"a": 1, "b": 0}, {"b": 2}])
_LEFT = Values([{"a": 1}, {"a": 3}])
_RIGHT = Values([{"b": 2}])


@pytest.mark.parametrize("stage, expr", [
    ("rename", Rename(_RAGGED, {"a": "b"})),
    ("distinct", Distinct(_RAGGED)),
    ("difference", Difference(_RAGGED, _RIGHT)),
    ("select", Select(_LEFT, Comparison(">", Arith("+", Col("a"), Lit(1)),
                                        Lit(2)))),
    ("select", Select(_RAGGED, Or(eq(Col("b"), Lit(2)),
                                  eq(Col("a"), Lit(1))))),
    ("project", Project(_LEFT, [("x", Arith("+", Col("a"), Lit(1)))])),
    ("join", Join(_RAGGED, _RIGHT, TRUE)),
    ("join", Join(_LEFT, _RIGHT, Comparison("<", Col("a"), Col("b")))),
    ("join", eq_join(_RAGGED, _RIGHT, [("b", "b")])),
    ("extend", Extend(_LEFT, "x", Arith("+", Col("a"), Lit(1)))),
    ("aggregate", Aggregate(_LEFT, [], [
        ("s", "sum", Arith("+", Col("a"), Lit(1)))])),
], ids=["rename", "distinct", "difference", "select-predicate",
        "select-partial-column", "project-computed", "cross-join",
        "nested-loop-join", "ragged-hash-join", "extend-computed",
        "aggregate-computed"])
def test_every_row_path_is_counted(stage, expr):
    """Each plan that leaves the columnar dialect, while lowering or
    while running, runs on the interpreter whole: it bumps the one
    interpreter counter once, journals one event naming the node kind,
    and agrees with the interpreter."""
    reset()
    enable()
    try:
        assert_engines_agree(expr, Instance())
        assert registry.counter("query.vectorized.interpreted").value == 1
        events = JOURNAL.events("vectorized.interpreted")
        assert [e.attrs["node"] for e in events] == [stage]
    finally:
        disable()
        reset()


def test_ragged_difference_keeps_the_interpreters_key_order():
    """A run redone on the interpreter returns the interpreter's rows
    unchanged, key order included."""
    instance = Instance()
    instance.insert_all("R", [{"k": 1, "v": 1}, {"v": 2}, {"k": 3, "v": 1},
                              {"k": 1, "v": 1}])
    instance.insert_all("S", [{"k": 1, "v": 1}])
    expr = Difference(Scan("R"), Scan("S"))
    interpreted = evaluate(expr, instance, engine="interpreted")
    vectorized = evaluate(expr, instance, engine="vectorized")
    assert [list(row) for row in vectorized] == [["v"], ["k", "v"]]
    assert [list(row) for row in vectorized] == [
        list(row) for row in interpreted
    ]


def test_projection_over_a_reordered_union_keeps_its_key_order():
    """∪ takes its right side's column order when the left side is
    empty, so π[a, b] over π[a, b](R) ∪ π[b, a](S) is no identity
    projection: the optimizer must keep it."""
    instance = Instance()
    instance.insert_all("S", [{"a": 1, "b": 2}])
    expr = Project(
        UnionAll(Project(Scan("R"), [("a", Col("a")), ("b", Col("b"))]),
                 Project(Scan("S"), [("b", Col("b")), ("a", Col("a"))])),
        [("a", Col("a")), ("b", Col("b"))],
    )
    rows = assert_engines_agree(expr, instance)
    assert [list(row) for row in rows] == [["a", "b"]]


def test_profiled_ragged_run_reports_the_root_only():
    """A profiled run redone on the interpreter knows the root's rows
    alone: no other node is compared with its estimate, so none is
    flagged and no re-optimization is scheduled."""
    instance = Instance()
    instance.insert_all("L", [{"k": i, "a": i} for i in range(200)]
                        + [{"a": -1}])
    instance.insert_all("R", [{"k": i, "b": i} for i in range(200)])
    expr = eq_join(Scan("L"), Scan("R"), [("k", "k")])
    reset()
    enable()
    try:
        rows = assert_engines_agree(expr, instance)
        assert len(rows) == 200
        assert registry.counter("query.vectorized.interpreted").value == 1
        plan, _ = GLOBAL_VECTOR_PLAN_CACHE.adaptive_lookup(expr, instance)
        assert len(plan.nodes) == 3
        [event] = [e for e in JOURNAL.events()
                   if e.kind == "query" and e.attrs["engine"] == "vectorized"]
        worst = event.attrs["worst_divergent"]
        assert worst["node_id"] == plan.root_id
        assert worst["actual_rows"] == 200 and not worst["flagged"]
        assert not event.attrs["reopt"]
        assert GLOBAL_VECTOR_PLAN_CACHE.stats()["reopts"] == 0
    finally:
        disable()
        reset()


def test_results_do_not_alias_stored_rows():
    """Scans borrow stored dicts internally, but plan output must be
    fresh copies — mutating a result row never corrupts the instance."""
    instance = Instance()
    instance.insert("T", {"a": 1})
    for expr in (Scan("T"), Select(Scan("T"), eq(Col("a"), Lit(1)))):
        rows = evaluate(expr, instance, engine="vectorized")
        rows[0]["a"] = 999
        assert instance.rows("T")[0]["a"] == 1


def test_extend_does_not_mutate_stored_rows():
    instance = Instance()
    instance.insert("T", {"a": 1})
    rows = evaluate(Extend(Scan("T"), "b", Lit(2)), instance,
                    engine="vectorized")
    assert rows == [{"a": 1, "b": 2}]
    assert instance.rows("T") == [{"a": 1}]


def test_compiled_missing_column_raises_evaluation_error():
    instance = Instance()
    instance.insert("T", {"a": 1})
    expr = Project(Scan("T"), [("missing", Col("missing"))])
    with pytest.raises(EvaluationError):
        evaluate(expr, instance, engine="vectorized")
    with pytest.raises(EvaluationError):
        evaluate(expr, instance, engine="interpreted")


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------
def test_fingerprint_structural_equality():
    a = Select(Scan("T"), eq(Col("a"), Lit(1)))
    b = Select(Scan("T"), eq(Col("a"), Lit(1)))
    c = Select(Scan("T"), eq(Col("a"), Lit(2)))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.fingerprint() != Scan("T").fingerprint()


_LITERALS = (0, 1, True, False, 1.0, "1", None)


def _literal_tree(rng):
    """A random tree holding literals from ``_LITERALS`` in a selection,
    an IN list, a projection or a ``Values`` row."""
    value = rng.choice(_LITERALS)
    shape = rng.randrange(4)
    if shape == 0:
        return Select(Scan("R"), eq(Col("x"), Lit(value)))
    if shape == 1:
        values = [value] + rng.sample(_LITERALS, rng.randint(0, 2))
        return Select(Scan("R"), In(Col("x"), values))
    if shape == 2:
        return Project(Scan("R"), [("x", Lit(value))])
    return Values([{"a": value, "b": rng.choice(_LITERALS)}])


def test_equality_agrees_with_fingerprint_over_typed_literals():
    """``a == b`` exactly when the fingerprints agree (and equal trees
    hash alike): ``1 == True == 1.0`` must not make two trees equal
    whose fingerprints, and results, tell those literals apart."""
    rng = random.Random(0)
    trees = [_literal_tree(rng) for _ in range(300)]
    for a in trees:
        for b in rng.sample(trees, 30) + [_literal_tree(rng)]:
            same = a.fingerprint() == b.fingerprint()
            assert (a == b) == same, (a, b)
            if same:
                assert hash(a) == hash(b)


def test_warm_cache_skips_compilation():
    """The second evaluation of a structurally equal plan must be a
    cache hit: no new ``query.compile`` span is recorded."""
    instance = Instance()
    instance.insert("T", {"a": 1})
    first = Select(Scan("T"), eq(Col("a"), Lit(1)))
    second = Select(Scan("T"), eq(Col("a"), Lit(1)))  # equal, distinct object
    reset()
    enable()
    try:
        evaluate(first, instance, engine="vectorized")
        evaluate(second, instance, engine="vectorized")
        assert registry.counter("span.query.compile.calls").value == 1
        assert registry.counter("span.query.execute.calls").value == 2
        assert registry.counter("query.plan_cache.hits").value == 1
        assert registry.counter("query.plan_cache.misses").value == 1
    finally:
        disable()
        reset()


def test_global_cache_stats():
    instance = Instance()
    instance.insert("T", {"a": 1})
    expr = Scan("T")
    evaluate(expr, instance, engine="vectorized")
    evaluate(expr, instance, engine="vectorized")
    stats = vector_plan_cache_stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["size"] == 1
    assert expr in GLOBAL_VECTOR_PLAN_CACHE


def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    exprs = [Scan("A"), Scan("B"), Scan("C")]
    for expr in exprs:
        cache.get(expr)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert exprs[0] not in cache  # least recently used fell out
    assert exprs[2] in cache
    # touching B keeps it warm; inserting A evicts C
    cache.get(exprs[1])
    cache.get(exprs[0])
    assert exprs[1] in cache and exprs[0] in cache
    assert exprs[2] not in cache


def test_compile_vector_plan_direct_execution():
    instance = Instance()
    instance.insert_all("T", [{"a": 1}, {"a": 2}])
    plan = compile_vector_plan(
        Select(Scan("T"), Comparison(">", Col("a"), Lit(1)))
    )
    assert plan.execute(instance) == [{"a": 2}]
    assert plan.size >= 2
    assert len(plan.fingerprint) == 32  # blake2b-16 hex


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def test_interpreted_default_bypasses_plan_cache():
    """The oracle never touches the executor's plan cache: a run
    through it is no hit, no miss, and caches no plan."""
    instance = Instance()
    instance.insert("T", {"a": 1})
    expr = Scan("T")
    before = vector_plan_cache_stats()
    assert evaluate(expr, instance, engine="interpreted") == [{"a": 1}]
    after = vector_plan_cache_stats()
    assert (after["hits"], after["misses"]) == (before["hits"],
                                               before["misses"])
    assert expr not in GLOBAL_VECTOR_PLAN_CACHE


def test_evaluate_rejects_unknown_engine():
    # "compiled" named the retired row engine; it is unknown now.
    for engine in ("bogus", "compiled"):
        with pytest.raises(EvaluationError):
            evaluate(Scan("T"), Instance(), engine=engine)


# ----------------------------------------------------------------------
# optimizer equi-join recognition
# ----------------------------------------------------------------------
def test_optimizer_recognizes_comparison_equi_join():
    from repro.algebra.expressions import _JoinEq

    left = Project(Scan("L"), [("a", Col("a"))])
    right = Project(Scan("R"), [("b", Col("b"))])
    expr = Join(left, right, Comparison("=", Col("a"), Col("b")))
    rewritten = optimize(expr)
    assert isinstance(rewritten, Join)
    assert isinstance(rewritten.predicate, _JoinEq)
    assert (rewritten.predicate.left_col, rewritten.predicate.right_col) == (
        "a", "b",
    )

    instance = Instance()
    instance.insert_all("L", [{"a": 1}, {"a": 2}, {"a": None}])
    instance.insert_all("R", [{"b": 2}, {"b": 3}, {"b": None}])
    assert canon(evaluate(rewritten, instance, engine="vectorized")) == canon(
        evaluate(expr, instance, engine="interpreted")
    )


def test_optimizer_flips_reversed_equi_join():
    from repro.algebra.expressions import _JoinEq

    left = Project(Scan("L"), [("a", Col("a"))])
    right = Project(Scan("R"), [("b", Col("b"))])
    expr = Join(left, right, Comparison("=", Col("b"), Col("a")))
    rewritten = optimize(expr)
    assert isinstance(rewritten.predicate, _JoinEq)
    assert (rewritten.predicate.left_col, rewritten.predicate.right_col) == (
        "a", "b",
    )


def test_optimizer_leaves_same_named_columns_alone():
    from repro.algebra.expressions import _JoinEq

    left = Project(Scan("L"), [("a", Col("a"))])
    right = Project(Scan("R"), [("a", Col("a"))])
    expr = Join(left, right, Comparison("=", Col("a"), Col("a")))
    rewritten = optimize(expr)
    assert not isinstance(rewritten.predicate, _JoinEq)


# ----------------------------------------------------------------------
# naive evaluation on the chase's plans against the homomorphism search
# ----------------------------------------------------------------------
def _answer_set(answers):
    return {
        tuple(("⊥", v.label) if isinstance(v, LabeledNull) else ("c", v)
              for v in answer)
        for answer in answers
    }


def _cq_instance():
    instance = Instance()
    instance.insert_all(
        "Emp",
        [{"eid": 1, "dept": "a"},
         {"eid": 2, "dept": "b"},
         {"eid": 3, "dept": LabeledNull(9)},
         {"eid": 4, "dept": None}],
    )
    instance.insert_all(
        "Dept",
        [{"dname": "a", "mgr": 1},
         {"dname": LabeledNull(9), "mgr": 2},
         {"dname": None, "mgr": 3}],
    )
    return instance


def test_cq_join_parity_with_nulls():
    x, d, m = Var("x"), Var("d"), Var("m")
    query = ConjunctiveQuery(
        head=(x, m),
        body=(Atom.of("Emp", eid=x, dept=d), Atom.of("Dept", dname=d, mgr=m)),
    )
    instance = _cq_instance()
    planned = naive_evaluate(query, instance)
    assert typed(planned) == typed(search_answers(query, instance))
    # the None dept binds too: homomorphism equality is value equality
    assert (("c", 4), ("c", 3)) in _answer_set(planned)


def test_cq_condition_and_constant_parity():
    x, d = Var("x"), Var("d")
    query = ConjunctiveQuery(
        head=(x,),
        body=(Atom.of("Emp", eid=x, dept=d),),
        conditions=(Equality(d, Const("a")),),
    )
    instance = _cq_instance()
    planned = naive_evaluate(query, instance)
    assert typed(planned) == typed(search_answers(query, instance))
    assert _answer_set(planned) == {(("c", 1),)}


def test_cq_repeated_variable_parity():
    x = Var("x")
    query = ConjunctiveQuery(
        head=(x,),
        body=(Atom.of("Same", a=x, b=x),),
    )
    instance = Instance()
    instance.insert_all(
        "Same",
        [{"a": 1, "b": 1}, {"a": 1, "b": 2},
         {"a": LabeledNull(5), "b": LabeledNull(5)},
         {"a": None, "b": None}],
    )
    planned = naive_evaluate(query, instance)
    assert typed(planned) == typed(search_answers(query, instance))


def test_certain_answers_drop_nulls_both_engines():
    x, d = Var("x"), Var("d")
    query = ConjunctiveQuery(
        head=(x, d), body=(Atom.of("Emp", eid=x, dept=d),)
    )
    instance = _cq_instance()
    planned = certain_answers(query, instance)
    reference = [
        answer for answer in search_answers(query, instance)
        if not any(isinstance(v, LabeledNull) for v in answer)
    ]
    assert typed(planned) == typed(reference)
    assert (3, LabeledNull(9)) not in planned


@pytest.mark.parametrize("seed", range(10))
def test_cq_random_parity(seed):
    """Random two-atom CQs with a shared variable agree with the search."""
    rng = random.Random(seed)
    instance = Instance()
    for name, cols in (("P", ("u", "v")), ("Q", ("v", "w"))):
        for _ in range(rng.randint(2, 8)):
            instance.insert(
                name, {c: _int_value(rng) for c in cols}
            )
    u, v, w = Var("u"), Var("v"), Var("w")
    query = ConjunctiveQuery(
        head=(u, w),
        body=(Atom.of("P", u=u, v=v), Atom.of("Q", v=v, w=w)),
    )
    planned = naive_evaluate(query, instance)
    assert typed(planned) == typed(search_answers(query, instance))
