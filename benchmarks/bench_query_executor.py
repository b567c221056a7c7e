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
"""

import gc
import time

import pytest

from repro.algebra import (
    Col,
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
from repro.instances import Instance
from repro.operators.compose import unfold_scans
from repro.operators.transgen import transgen
from repro.workloads import paper

from conftest import print_table

SIZES = (250, 1000, 4000)
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


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock milliseconds over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


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
    acceptance = {}
    for people in SIZES:
        sql = _scaled_sql(people)
        for label, plan in queries:
            interpreted_ms = _best_of(
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
            vec_cold_ms = _best_of(
                lambda: evaluate(plan, sql, engine="vectorized"), repeats=1
            )
            vec_warm_ms = _best_of(
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
        global SIZES
        SIZES = (250,)
    return run_standalone("query", [test_query_executor_report], argv)


if __name__ == "__main__":
    raise SystemExit(main())
