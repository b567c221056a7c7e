"""Query-executor benchmark: the vectorized columnar executor vs the
reference tree-walking interpreter.

The workload is the paper's central runtime pattern — *view
unfolding*: target queries over the Figure 2 object views rewritten to
the SQL tables and executed directly.  Each plan runs on both engines
at 250 → 4000 persons, with the vectorized executor measured both
*cold* (first call, plan compilation included) and *warm* (plan-cache
hit).  The report asserts the engines agree row-for-row, that the warm
path never recompiles, and that on the 4k-row unfolding the vectorized
executor clears the ≥10× acceptance bar over the interpreter.  EXPLAIN
ANALYZE acceptance additionally pins that every node of the profiled
plan reports exactly the rows the interpreter computes for the subtree
it lowered from.

The point-lookup lane sends 64 distinct keys through one
``QueryProcessor``, the way perfbench's ``query`` workload does, and
reports the mean time per key after the first and how many plans the
keys compiled; every answer is checked against the interpreter, and
the keys must share one plan.

The join-shape lane runs three joins of two 300-row relations (60 in
smoke) that no hash on a pure equi-join covers: a cross join, a theta
join ``a < b``, and an equi-join with a residual ``a < b``.  Each runs
through ``evaluate`` and through the interpreter, reporting the best
wall and CPU ms of three runs; ``evaluate`` must return the
interpreter's rows, and each row count its closed form.

The dedup lane runs δ and − over 4,000 rows (400 in smoke), once over a
relation with a unique column, where δ returns its input and − only
filters, and once over one where every value repeats, where both still
dedup.  It reports like the join-shape lane, and ``evaluate`` must
return the interpreter's rows in the interpreter's order.
"""

import gc
import random
import time
from typing import Callable

import pytest

from repro.algebra import (
    TRUE,
    And,
    Col,
    Comparison,
    Difference,
    Distinct,
    EntityScan,
    Join,
    Scan,
    Select,
    clear_plan_cache,
    eq,
    evaluate,
    evaluate_interpreted,
    optimize,
    project_names,
    vector_plan_cache_stats,
)
from repro.algebra.expressions import _JoinEq
from repro.instances import Instance
from repro.operators.compose import unfold_scans
from repro.operators.transgen import transgen
from repro.runtime.query_processor import QueryProcessor
from repro.workloads import paper

from conftest import print_table

SIZES = (250, 1000, 4000)
POINT_KEYS = 64
#: Rows per side of the join-shape lane.
JOIN_SIDE = 300
#: Rows per relation of the dedup lane.
DEDUP_ROWS = 4000
# vectorized engine vs interpreter, at 4k
VEC_VS_INTERPRETED = 10.0

ENGINES = ("interpreted", "vectorized")


def _scaled_sql(people: int) -> Instance:
    """Figure 2 SQL-side data scaled to ``people`` persons."""
    sql = Instance(paper.figure2_sql_schema())
    for i in range(people):
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


def _unfolded_queries():
    """Target queries rewritten against the source tables."""
    views = transgen(paper.figure2_mapping())
    definitions = dict(views.query_view.rules)
    extent = unfold_scans(project_names(Scan("Person"), ["Id", "Name"]),
                          definitions)
    selective = optimize(unfold_scans(
        Select(project_names(Scan("Person"), ["Id", "Name"]),
               eq(Col("Id"), 7)),
        definitions,
    ))
    return [("unfold-extent", extent), ("unfold-selective", selective)]


def _point_lookups(sql: Instance, people: int) -> tuple[float, float, float, int]:
    """``POINT_KEYS`` distinct point lookups through one processor:
    ``(interpreted ms per key, first key ms, vectorized ms per key
    after the first, plans compiled)``."""
    mapping = paper.figure2_mapping()
    processor = QueryProcessor(mapping, sql)
    oracle = QueryProcessor(mapping, sql, engine="interpreted")
    keys = random.Random(people).sample(range(people), POINT_KEYS)
    clear_plan_cache()
    gc.collect()
    misses = vector_plan_cache_stats()["misses"]
    vectorized, interpreted = [], []
    for key in keys:
        query = Select(project_names(EntityScan("Person"), ["Id", "Name"]),
                       eq(Col("Id"), key))
        start = time.perf_counter()
        rows = processor.answer_algebra(query)
        vectorized.append(time.perf_counter() - start)
        start = time.perf_counter()
        expected = oracle.answer_algebra(query)
        interpreted.append(time.perf_counter() - start)
        assert rows == expected, f"point lookup of {key}: {rows}"
    compiled = vector_plan_cache_stats()["misses"] - misses
    return (sum(interpreted) / len(keys) * 1000.0,
            vectorized[0] * 1000.0,
            sum(vectorized[1:]) / (len(keys) - 1) * 1000.0,
            compiled)


def _join_shapes() -> list[tuple[str, Join, Callable[[int], int]]]:
    """``(label, join over L and R, its row count as a function of the
    side)``.  ``L.a`` and ``R.b`` run over ``0..side-1``; ``k`` groups
    them in threes, so the equi-join with a residual keeps three pairs
    per complete group."""
    less = Comparison("<", Col("a"), Col("b"))
    return [
        ("cross", Join(Scan("L"), Scan("R"), TRUE), lambda n: n * n),
        ("theta a<b", Join(Scan("L"), Scan("R"), less),
         lambda n: n * (n - 1) // 2),
        ("equi+residual", Join(Scan("L"), Scan("R"),
                               And(_JoinEq("k", "k"), less)),
         lambda n: 3 * (n // 3) + (n % 3) * (n % 3 - 1) // 2),
    ]


def _join_instance(side: int) -> Instance:
    db = Instance()
    db.insert_all("L", [{"a": i, "k": i // 3} for i in range(side)])
    db.insert_all("R", [{"b": j, "k": j // 3} for j in range(side)])
    return db


def _join_shape_rows(side: int) -> list[list]:
    """One table row per join shape; raises unless ``evaluate`` returns
    the interpreter's rows and the closed-form count."""
    db = _join_instance(side)
    table = []
    for label, join, closed_form in _join_shapes():
        expected = evaluate_interpreted(join, db)
        rows = evaluate(join, db)
        if len(expected) != closed_form(side) or _canon(rows) != _canon(
            expected
        ):
            raise AssertionError(
                f"{label} at {side}x{side}: evaluate returned "
                f"{len(rows)} rows, the interpreter {len(expected)}, "
                f"the closed form {closed_form(side)}"
            )
        eval_wall, eval_cpu = _best_of(lambda: evaluate(join, db))
        interp_wall, interp_cpu = _best_of(
            lambda: evaluate_interpreted(join, db)
        )
        table.append([
            label, f"{side}x{side}", len(rows), f"{eval_wall:.2f} ms",
            f"{eval_cpu:.2f} ms", f"{interp_wall:.2f} ms",
            f"{interp_cpu:.2f} ms",
        ])
    return table


def _dedup_shapes() -> list[tuple[str, object, Callable[[int], int]]]:
    """``(label, plan, its row count as a function of the rows)``.  In
    ``U`` the column ``k`` is unique; in ``D`` every value, and so every
    row, occurs twice; ``X`` holds every third ``U`` row."""
    return [
        ("δ, unique column", Distinct(Scan("U")), lambda n: n),
        ("δ, no unique column", Distinct(Scan("D")), lambda n: n // 2),
        ("−, unique column", Difference(Scan("U"), Scan("X")),
         lambda n: n - len(range(0, n, 3))),
        ("−, no unique column", Difference(Scan("D"), Scan("X")),
         lambda n: n // 2 - len(range(0, n // 2, 3))),
    ]


def _dedup_instance(n: int) -> Instance:
    db = Instance()
    db.insert_all("U", [{"k": i, "v": i % 7} for i in range(n)])
    db.insert_all("D", [{"k": i // 2, "v": i // 2 % 7} for i in range(n)])
    db.insert_all("X", [{"k": i, "v": i % 7} for i in range(0, n, 3)])
    return db


def _dedup_rows(n: int) -> list[list]:
    """One table row per dedup shape; raises unless ``evaluate`` returns
    the interpreter's rows in its order and the closed-form count."""
    db = _dedup_instance(n)
    table = []
    for label, plan, closed_form in _dedup_shapes():
        expected = evaluate_interpreted(plan, db)
        rows = evaluate(plan, db)
        if len(expected) != closed_form(n) or rows != expected:
            raise AssertionError(
                f"{label} over {n} rows: evaluate returned {len(rows)} "
                f"rows, the interpreter {len(expected)}, the closed form "
                f"{closed_form(n)}"
            )
        eval_wall, eval_cpu = _best_of(lambda: evaluate(plan, db))
        interp_wall, interp_cpu = _best_of(
            lambda: evaluate_interpreted(plan, db)
        )
        table.append([
            label, n, len(rows), f"{eval_wall:.2f} ms", f"{eval_cpu:.2f} ms",
            f"{interp_wall:.2f} ms", f"{interp_cpu:.2f} ms",
        ])
    return table


def _best_of(fn, repeats: int = 3) -> tuple[float, float]:
    """Best wall-clock and best CPU milliseconds over ``repeats``
    runs."""
    wall = cpu = float("inf")
    for _ in range(repeats):
        start, start_cpu = time.perf_counter(), time.process_time()
        fn()
        cpu = min(cpu, time.process_time() - start_cpu)
        wall = min(wall, time.perf_counter() - start)
    return wall * 1000.0, cpu * 1000.0


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", list(ENGINES))
def test_unfolded_extent(benchmark, engine):
    _, extent = _unfolded_queries()[0]
    sql = _scaled_sql(1000)
    evaluate(extent, sql, engine=engine)  # warm the plan cache
    rows = benchmark(evaluate, extent, sql, engine=engine)
    assert len(rows) == 1000


@pytest.mark.parametrize("engine", list(ENGINES))
def test_unfolded_selective(benchmark, engine):
    _, selective = _unfolded_queries()[1]
    sql = _scaled_sql(1000)
    evaluate(selective, sql, engine=engine)
    rows = benchmark(evaluate, selective, sql, engine=engine)
    assert len(rows) == 1


# ----------------------------------------------------------------------
# harness report -> BENCH_query.json
# ----------------------------------------------------------------------
def test_query_executor_report(benchmark):
    from repro.observability import is_enabled, registry

    queries = _unfolded_queries()
    rows = []
    lookups = []
    acceptance = {}
    for people in SIZES:
        sql = _scaled_sql(people)
        interpreted_ms, first_ms, per_key_ms, compiled = _point_lookups(
            sql, people
        )
        assert compiled <= 1, (
            f"{POINT_KEYS} point lookups compiled {compiled} plans"
        )
        lookups.append([
            people, compiled, f"{interpreted_ms:.3f} ms",
            f"{first_ms:.3f} ms", f"{per_key_ms:.3f} ms",
            f"{interpreted_ms / per_key_ms:.1f}x",
        ])
        for label, plan in queries:
            interpreted_ms, _ = _best_of(
                lambda: evaluate(plan, sql, engine="interpreted")
            )
            clear_plan_cache()
            # The cold lane is single-shot: collect first so ambient
            # allocation debt from earlier lanes doesn't land a GC
            # pause inside the one timed call.
            gc.collect()
            compiles_before = (
                registry.counter("span.query.compile.calls").value
                if is_enabled() else None
            )
            vec_cold_ms, _ = _best_of(
                lambda: evaluate(plan, sql, engine="vectorized"), repeats=1
            )
            vec_warm_ms, _ = _best_of(
                lambda: evaluate(plan, sql, engine="vectorized")
            )
            if is_enabled():
                compiled_count = (
                    registry.counter("span.query.compile.calls").value
                    - compiles_before
                )
                # one lowering; the warm runs hit the plan cache
                assert compiled_count == 1, (
                    f"warm cache recompiled: {compiled_count} compilations"
                )
            vec_stats = vector_plan_cache_stats()
            assert vec_stats["hits"] >= 3, vec_stats
            baseline = _canon(evaluate(plan, sql, engine="interpreted"))
            assert _canon(
                evaluate(plan, sql, engine="vectorized")
            ) == baseline, f"vectorized disagrees on {label} at {people}"
            vec_vs_interp = (
                interpreted_ms / vec_warm_ms if vec_warm_ms else float("inf")
            )
            if label == "unfold-extent" and people == max(SIZES):
                acceptance = {"vec_vs_interpreted": vec_vs_interp}
            rows.append([
                people, label, f"{interpreted_ms:.2f} ms",
                f"{vec_cold_ms:.2f} ms", f"{vec_warm_ms:.2f} ms",
                f"{vec_vs_interp:.1f}x",
            ])
    _, extent = queries[0]
    sql = _scaled_sql(SIZES[0])
    benchmark(evaluate, extent, sql, engine="vectorized")
    print_table(
        "Query executor: view unfolding, vectorized vs interpreted "
        f"({SIZES[0]}-{SIZES[-1]} persons)",
        ["persons", "query", "interpreted", "vectorized cold",
         "vectorized warm", "vec/interp"],
        rows,
    )
    print_table(
        f"Point lookups: {POINT_KEYS} distinct keys through one "
        "QueryProcessor",
        ["persons", "plans compiled", "interpreted", "first key",
         "per key after first", "vec/interp"],
        lookups,
    )
    print_table(
        "Join shapes: evaluate vs interpreted (best of 3)",
        ["shape", "sides", "rows", "evaluate wall", "evaluate cpu",
         "interpreted wall", "interpreted cpu"],
        _join_shape_rows(JOIN_SIDE),
    )
    print_table(
        "Dedup: δ and − with and without a unique column, evaluate vs "
        "interpreted (best of 3)",
        ["plan", "rows in", "rows out", "evaluate wall", "evaluate cpu",
         "interpreted wall", "interpreted cpu"],
        _dedup_rows(DEDUP_ROWS),
    )
    if acceptance and max(SIZES) >= 4000:
        assert acceptance["vec_vs_interpreted"] >= VEC_VS_INTERPRETED, (
            f"vectorized/interpreted speedup "
            f"{acceptance['vec_vs_interpreted']:.1f}x below the "
            f"{VEC_VS_INTERPRETED}x acceptance bar"
        )
    _check_explain_analyze()


def _check_explain_analyze() -> None:
    """EXPLAIN ANALYZE acceptance on both view-unfolding queries at the
    largest size: the per-node profile reports the result rows at the
    root, charge-once self times telescope exactly to the root's
    inclusive time, the total nests inside the measured
    ``query.execute`` span, every node carries a cardinality estimate,
    and every node's rows equal its calls times the interpreter's row
    count for the subtree it lowered from (CSE-shared nodes count once
    per reference)."""
    from repro.algebra import explain_analyze
    from repro.observability import is_enabled, tracer

    people = max(SIZES)
    sql = _scaled_sql(people)
    for label, plan in _unfolded_queries():
        result = explain_analyze(plan, sql)
        profile = result.profile
        if is_enabled():
            execute_spans = [
                s for s in tracer.iter_spans()
                if s.name == "query.execute" and s.wall_ms is not None
            ]
            assert execute_spans, (
                "explain_analyze emitted no query.execute span"
            )
            wall = execute_spans[-1].wall_ms
            assert profile.total_ms <= wall + 0.1, (
                f"profile total {profile.total_ms:.3f}ms exceeds the "
                f"query.execute span {wall:.3f}ms"
            )
        assert profile.result_rows == len(result.rows)
        assert profile.rows_out(profile.root_id) == len(result.rows)
        if label == "unfold-extent":
            assert len(result.rows) == people
        assert abs(sum(profile.self_time_ms())
                   - profile.time_ms(profile.root_id)) < 1e-6
        for node in result.plan.nodes:
            expected = len(evaluate_interpreted(node.expr, sql))
            assert profile.rows_out(node.node_id) == (
                profile.calls(node.node_id) * expected
            ), (
                f"{label} node #{node.node_id} ({node.label}): "
                f"{profile.rows_out(node.node_id)} rows over "
                f"{profile.calls(node.node_id)} calls, interpreter "
                f"{expected} per call"
            )
        # estimate↔actual telemetry: every node carries a cardinality
        # estimate and the render pairs est= with div=×.
        assert result.estimates is not None
        assert all(est is not None for est in result.estimates)
        assert result.worst is not None
        text = result.render()
        assert "est=" in text and "div=×" in text
        assert "worst divergence:" in text


# ----------------------------------------------------------------------
# standalone run -> BENCH_query.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import sys

    from harness import run_standalone

    if argv is None:
        argv = sys.argv[1:]
    if "--smoke" in argv:
        # CI sanity: smallest size only, parity asserts still run.
        global SIZES, JOIN_SIDE, DEDUP_ROWS
        SIZES = (250,)
        JOIN_SIDE = 60
        DEDUP_ROWS = 400
    return run_standalone("query", [test_query_executor_report], argv)


if __name__ == "__main__":
    raise SystemExit(main())
