"""EXPLAIN / EXPLAIN ANALYZE: plan trees, per-node profiles, CSE memo
accounting, and the chase's per-dependency profile.

The per-node profile must agree with the plan's actual execution: rows
at the root equal the result, CSE-shared nodes count every reference
(memo hits = calls − 1), and the charge-once self times telescope
exactly to the root's inclusive time.  ``explain_analyze`` runs the
same pipeline as ``evaluate`` with a profile attached, so these tests
also pin that profiling leaves the result unchanged (parity with
``evaluate``), and that every node's row count matches the reference
interpreter on the subtree it lowered from.
"""

import pytest

import repro.observability as obs
from repro.algebra import (
    TRUE,
    And,
    Col,
    Comparison,
    Distinct,
    EntityScan,
    IsOf,
    Join,
    Project,
    Scan,
    Select,
    UnionAll,
    clear_plan_cache,
    eq_join,
    evaluate,
    evaluate_interpreted,
    explain,
    explain_analyze,
    node_label,
    project_names,
    render_plan,
)
from repro.instances import Instance
from repro.logic import chase, parse_egd, parse_tgd
from repro.runtime import QueryProcessor
from repro.workloads import paper


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def people() -> Instance:
    db = Instance()
    for i in range(20):
        db.add("People", pid=i, dept="Sales" if i % 2 else "Eng")
    for d in ("Sales", "Eng", "Legal"):
        db.add("Depts", dept=d)
    return db


def shared_plan():
    """A DAG: the same Select object referenced from both union arms,
    which is exactly how view unfolding produces sharing."""
    base = Select(Scan("People"), Comparison("=", Col("dept"), Col("dept")))
    left = project_names(base, ["pid"])
    right = project_names(base, ["dept"])
    return base, UnionAll(left, right)


class TestExplain:
    def test_explain_renders_every_node(self):
        _, expr = shared_plan()
        result = explain(expr)
        text = result.render()
        assert "cache=miss" in text
        assert "∪" in text and "π" in text and "σ" in text
        assert "(vec_union)" in text and "(vec_scan)" in text
        # the shared Select renders once (⊛) plus one back-reference
        assert text.count("⊛") == 1
        assert "↻ see #" in text
        # second explain hits the plan cache
        assert explain(expr).cache_hit

    def test_explain_vectorized_same_tree_shape(self):
        """Every node produces, per call, exactly the rows the
        interpreter computes for the subtree it lowered from — the
        CSE-shared node (one node, two calls) included."""
        db = people()
        _, expr = shared_plan()
        profile = explain_analyze(expr, db).profile
        assert [n.shared for n in profile.nodes].count(True) == 1
        for node in profile.nodes:
            expected = len(evaluate_interpreted(node.expr, db))
            assert profile.rows_out(node.node_id) == (
                profile.calls(node.node_id) * expected
            ), f"node #{node.node_id} ({node.label})"

    def test_pushed_projection_names_the_union_stage(self):
        """π over ∪ lowers to the pushed-down union's stage, and its
        node reports that stage's strategy, not the profiling hook's."""
        branches = [project_names(Scan(r), ["dept"])
                    for r in ("People", "Depts")]
        expr = project_names(UnionAll(*branches), ["dept"])
        plan = explain(expr).plan
        assert plan.nodes[plan.root_id].strategy == "vec_union"
        assert all(n.strategy.startswith("vec_") for n in plan.nodes)

    def test_join_strategies_are_named_by_predicate(self):
        """A cross join runs in the hash-join stage on the empty key yet
        keeps its own name; a residual makes the plan the interpreter's."""
        less = Comparison("<", Col("a"), Col("b"))
        pair = eq_join(Scan("L"), Scan("R"), [("k", "k")]).predicate
        cases = [
            (pair, "vec_hash_join"),
            (TRUE, "vec_cross_join"),
            (less, "interpreted"),
            (And(pair, less), "interpreted"),
        ]
        for predicate, strategy in cases:
            plan = explain(Join(Scan("L"), Scan("R"), predicate)).plan
            assert plan.nodes[plan.root_id].strategy == strategy

    def test_to_dict_round_trips_node_tree(self):
        _, expr = shared_plan()
        data = explain(expr).to_dict()
        assert data["cache_hit"] is False
        assert data["root_id"] in {n["node_id"] for n in data["nodes"]}
        shared = [n for n in data["nodes"] if n["shared"]]
        assert len(shared) == 1

    def test_node_label_truncates(self):
        expr = Scan("SomeVeryLongRelationNameThatGoesOnAndOnForever" * 3)
        label = node_label(expr, max_width=20)
        assert len(label) <= 20 and label.endswith("…")


class TestExplainAnalyze:
    def test_root_rows_match_result_and_parity_with_evaluate(self):
        db = people()
        expr = Distinct(project_names(Scan("People"), ["dept"]))
        result = explain_analyze(expr, db)
        assert sorted(r["dept"] for r in result.rows) == ["Eng", "Sales"]
        assert result.profile.result_rows == 2
        assert result.profile.rows_out(result.plan.root_id) == 2
        # the profiled pipeline did not perturb the ordinary one
        assert evaluate(expr, db) == result.rows

    def test_cse_memo_hits_counted_per_reference(self):
        db = people()
        base, expr = shared_plan()
        result = explain_analyze(expr, db)
        profile = result.profile
        shared_ids = [n.node_id for n in result.plan.nodes if n.shared]
        assert len(shared_ids) == 1
        (node_id,) = shared_ids
        assert profile.calls(node_id) == 2
        assert profile.memo_hits(node_id) == 1
        # the memoized stage produced its rows once, but both parents
        # consumed them — rows_out counts per reference
        assert profile.rows_out(node_id) == 2 * db.cardinality("People")

    def test_self_times_telescope_to_root_inclusive(self):
        db = people()
        _, expr = shared_plan()
        profile = explain_analyze(expr, db).profile
        self_times = profile.self_time_ms()
        assert len(self_times) == len(profile.nodes)
        root_inclusive = profile.time_ms(profile.root_id)
        assert sum(self_times) == pytest.approx(root_inclusive, abs=1e-9)

    def test_render_includes_annotations(self):
        db = people()
        expr = eq_join(Scan("People"), Scan("Depts"), [("dept", "dept")])
        text = explain_analyze(expr, db).render()
        assert "rows=" in text and "time=" in text and "self=" in text
        assert "total=" in text

    def test_profile_total_nests_inside_execute_span(self):
        db = people()
        expr = Distinct(project_names(Scan("People"), ["dept"]))
        obs.enable()
        try:
            result = explain_analyze(expr, db)
            spans = [
                s for s in obs.tracer.iter_spans()
                if s.name == "query.execute"
            ]
        finally:
            obs.disable()
        assert len(spans) == 1
        assert result.profile.total_ms <= spans[0].wall_ms + 1e-6

    def test_render_plan_accepts_profile_none(self):
        _, expr = shared_plan()
        plan = explain(expr).plan
        assert "rows=" not in render_plan(plan.nodes, plan.root_id)


class TestEstimates:
    def test_explain_without_instance_shows_no_estimates(self):
        _, expr = shared_plan()
        result = explain(expr)
        assert result.estimates is None
        assert "est=" not in result.render()
        assert all(n["est_rows"] is None for n in result.to_dict()["nodes"])

    def test_explain_with_instance_annotates_every_node(self):
        db = people()
        _, expr = shared_plan()
        result = explain(expr, instance=db)
        assert result.estimates is not None
        assert all(est is not None for est in result.estimates)
        assert "est=" in result.render()
        # a warm explain reads the same estimates from the memo
        assert explain(expr, instance=db).estimates == result.estimates

    def test_stale_estimates_not_reported_without_instance(self):
        db = people()
        _, expr = shared_plan()
        explain(expr, instance=db)  # estimates against db
        bare = explain(expr)
        assert bare.estimates is None
        assert all(
            n["est_rows"] is None for n in bare.to_dict()["nodes"]
        )

    def test_explain_analyze_reports_divergence(self):
        db = people()
        expr = eq_join(Scan("People"), Scan("Depts"), [("dept", "dept")])
        result = explain_analyze(expr, db)
        text = result.render()
        assert "est=" in text and "div=×" in text
        assert "worst divergence:" in text
        assert result.worst is not None
        assert result.worst["ratio"] >= 1.0
        data = result.to_dict()
        assert data["worst_divergent"] == result.worst
        assert all(
            n["est_rows"] is not None for n in data["profile"]["nodes"]
        )

    def test_exact_stats_make_exact_scan_estimates(self):
        db = people()
        result = explain_analyze(Scan("People"), db)
        (estimate,) = result.estimates
        assert estimate == db.cardinality("People")
        assert result.worst["ratio"] == pytest.approx(1.0)

    def test_processor_explain_carries_source_estimates(self):
        processor = QueryProcessor(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        query = Project(
            Select(EntityScan("Person"), IsOf("Employee")),
            [("Id", Col("Id")), ("Dept", Col("Dept"))],
        )
        assert "est=" in processor.explain(query).render()


class TestQueryProcessorExplain:
    def test_equality_mapping_explains_unfolded_plan(self):
        processor = QueryProcessor(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        query = Project(
            Select(EntityScan("Person"), IsOf("Employee")),
            [("Id", Col("Id")), ("Dept", Col("Dept"))],
        )
        text = processor.explain(query).render()
        # the unfolded plan reads source relations, not the target view
        assert "HR" in text or "Empl" in text

    def test_explain_analyze_rows_match_answer_algebra(self):
        processor = QueryProcessor(
            paper.figure2_mapping(), paper.figure2_sql_instance()
        )
        query = Project(
            Select(EntityScan("Person"), IsOf("Employee")),
            [("Id", Col("Id")), ("Dept", Col("Dept"))],
        )
        result = processor.explain_analyze(query)
        assert {(r["Id"], r["Dept"]) for r in result.rows} == {
            (2, "Sales"), (3, "Engineering"),
        }
        assert result.profile.result_rows == len(result.rows)


class TestChaseProfile:
    def deps(self):
        return [
            parse_tgd("Emp(eid=e, dept=d) -> Dept(dept=d)"),
            parse_tgd("Dept(dept=d) -> Mgr(dept=d, boss=b)"),
            parse_egd("Mgr(dept=d, boss=b1) & Mgr(dept=d, boss=b2) "
                      "-> b1 = b2"),
        ]

    def instance(self):
        db = Instance()
        for i in range(40):
            db.add("Emp", eid=i, dept=f"d{i % 4}")
        return db

    def test_profile_kinds_and_counts(self):
        result = chase(self.instance(), self.deps())
        profile = result.profile()
        assert profile is not None
        by_name = {e.name: e for e in profile.entries}
        kinds = {e.kind for e in profile.entries}
        assert kinds == {"tgd", "tgd∃", "egd"}
        for entry in profile.entries:
            assert entry.fired <= entry.examined
            assert entry.suppressed == entry.examined - entry.fired
            assert entry.wall_ms >= 0.0
        # the full tgd examined every Emp row at least once
        full = next(e for e in by_name.values() if e.kind == "tgd")
        assert full.examined >= 40
        assert full.fired == 4  # one Dept row per distinct dept

    def test_render_is_a_table_sorted_by_wall(self):
        profile = chase(self.instance(), self.deps()).profile()
        text = profile.render()
        assert "dependency" in text and "examined" in text
        walls = [e.wall_ms for e in profile.entries]
        assert walls == sorted(walls, reverse=True)

    def test_to_dict_shape(self):
        data = chase(self.instance(), self.deps()).profile().to_dict()
        assert {"name", "kind", "triggers_examined", "fired",
                "suppressed", "wall_ms"} <= set(data["dependencies"][0])
