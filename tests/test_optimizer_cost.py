"""Cost-based join ordering, the adaptive plan cache, and the
estimator gaps they lean on (ISSUE 8).

Covers the cost model and DP/greedy enumeration, the commute-safety
bails, randomized star/chain/cycle join graphs cross-checked against
the heuristic plans on both engines, the stats-epoch and
divergence re-optimization lifecycle, and the BENCH floor judging used
by the optimizer benchmark.
"""

import importlib
import random

import pytest

import repro.observability as obs
from repro.algebra import (
    Scan,
    Select,
    clear_plan_cache,
    eq,
    evaluate,
    explain,
    gt,
    optimize,
    project_names,
    Col,
    Distinct,
    GLOBAL_VECTOR_PLAN_CACHE,
)
from repro.algebra import expressions as E
from repro.algebra import optimizer
from repro.algebra.estimate import Estimator, estimate_expr
from repro.algebra.optimizer import (
    COST,
    mirror_join_fingerprint,
    optimize_with_report,
    plan_cost,
)
from repro.algebra.plan_cache import PlanCache
from repro.instances import Instance
from repro.observability import JOURNAL, registry
from repro.observability.benchdiff import diff_payloads


@pytest.fixture(autouse=True)
def _reset_cost_config():
    """Tests toggle ``COST.enabled``; never leak it across tests."""
    saved = {name: getattr(COST, name) for name in COST.__slots__}
    clear_plan_cache()
    yield
    for name, value in saved.items():
        setattr(COST, name, value)
    clear_plan_cache()


def _canon(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


def _skewed_chain(n=600):
    """A ⋈j B fat (many-many), A ⋈k C selective; written fat-first."""
    keys = max(n // 30, 1)
    db = Instance()
    db.insert_all("A", [{"j": i % keys, "k": i, "va": i} for i in range(n)])
    db.insert_all("B", [{"j": i % keys, "vb": i} for i in range(n)])
    db.insert_all("C", [{"k": i * 7, "vc": i} for i in range(max(n // 60, 2))])
    query = E.Join(
        E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j")),
        Scan("C"),
        E._JoinEq("k", "k"),
    )
    return db, query


class TestCostModel:
    def test_fat_join_costs_more(self):
        db, query = _skewed_chain()
        est = Estimator(db)
        fat_first = plan_cost(query, est)
        good = E.Join(
            E.Join(Scan("A"), Scan("C"), E._JoinEq("k", "k")),
            Scan("B"),
            E._JoinEq("j", "j"),
        )
        assert plan_cost(good, est) < fat_first

    def test_semi_join_shape_cheaper_than_widening_join(self):
        db, _ = _skewed_chain()
        est = Estimator(db)
        semi = E.Join(
            Scan("A"),
            Distinct(project_names(Scan("B"), ["j"])),
            E._JoinEq("j", "j"),
        )
        widening = E.Join(
            Scan("A"),
            project_names(Scan("B"), ["j"]),
            E._JoinEq("j", "j"),
        )
        assert plan_cost(semi, est) < plan_cost(widening, est)

    def test_cross_join_priced_worse_than_keyed(self):
        db, _ = _skewed_chain()
        est = Estimator(db)
        keyed = E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j"))
        cross = E.Join(Scan("A"), Scan("B"))
        assert plan_cost(keyed, est) < plan_cost(cross, est)


class TestReorder:
    def test_skewed_chain_reordered_and_equivalent(self):
        db, query = _skewed_chain()
        report = optimize_with_report(query, db)
        assert report.reordered
        assert report.chosen_cost < report.heuristic_cost
        assert _canon(evaluate(report.chosen, db)) == _canon(
            evaluate(query, db)
        )

    def test_chosen_tree_joins_selective_leaf_first(self):
        db, query = _skewed_chain()
        chosen = optimize_with_report(query, db).chosen

        def leaf_sets(node):
            if isinstance(node, E.Scan):
                return {node.relation}
            found = set()
            for child in node.inputs():
                found |= leaf_sets(child)
            if isinstance(node, E.Join):
                joins.append(found)
            return found

        joins: list[set] = []
        leaf_sets(chosen)
        # The selective C leaf joins before the fat B leaf: some join
        # covers exactly {A, C}.
        assert {"A", "C"} in joins

    def test_disabled_keeps_heuristic(self):
        db, query = _skewed_chain()
        COST.enabled = False
        assert optimize(query, instance=db) == optimize(query)

    def test_outer_join_bails(self):
        db, query = _skewed_chain()
        outer = E.Join(
            E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j"), "left"),
            Scan("C"),
            E._JoinEq("k", "k"),
        )
        report = optimize_with_report(outer, db)
        assert not report.reordered

    def test_prefixed_join_bails(self):
        db, query = _skewed_chain()
        prefixed = E.Join(
            E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j"), "inner", "b."),
            Scan("C"),
            E._JoinEq("k", "k"),
        )
        assert not optimize_with_report(prefixed, db).reordered

    def test_theta_join_region_not_flattened(self):
        db, _ = _skewed_chain()
        theta = E.Join(
            E.Join(Scan("A"), Scan("B"), gt(Col("va"), Col("vb"))),
            Scan("C"),
            E._JoinEq("k", "k"),
        )
        assert not optimize_with_report(theta, db).reordered

    def test_unconstrained_shared_column_bails(self):
        """A and B both carry ``x`` but only ``j`` is joined: reordering
        could flip which ``x`` the left-wins merge keeps, so the region
        must stay in its written order."""
        db = Instance()
        db.insert_all("X1", [{"j": i % 3, "x": i} for i in range(30)])
        db.insert_all("X2", [{"j": i % 3, "x": -i} for i in range(30)])
        db.insert_all("X3", [{"j": i % 3, "y": i} for i in range(4)])
        query = E.Join(
            E.Join(Scan("X1"), Scan("X2"), E._JoinEq("j", "j")),
            Scan("X3"),
            E._JoinEq("j", "j"),
        )
        assert not optimize_with_report(query, db).reordered


class TestMirrorFingerprint:
    def test_mirror_matches_flipped_join(self):
        join = E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "k"))
        flipped = E.Join(Scan("B"), Scan("A"), E._JoinEq("k", "j"))
        assert mirror_join_fingerprint(join) == flipped.fingerprint()

    def test_no_mirror_for_outer_or_theta(self):
        assert (
            mirror_join_fingerprint(
                E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j"), "left")
            )
            is None
        )
        assert (
            mirror_join_fingerprint(
                E.Join(Scan("A"), Scan("B"), gt(Col("a"), Col("b")))
            )
            is None
        )
        assert mirror_join_fingerprint(Scan("A")) is None


class TestEstimatorGaps:
    def test_sort_is_cardinality_passthrough(self):
        db, _ = _skewed_chain(200)
        scan = Scan("A")
        assert estimate_expr(E.Sort(scan, ["k"]), db) == estimate_expr(
            scan, db
        )

    def test_aggregate_capped_by_group_key_distincts(self):
        db = Instance()
        db.insert_all("G", [{"g": i % 5, "v": i} for i in range(400)])
        agg = E.Aggregate(Scan("G"), ["g"], [("n", "count", None)])
        est = estimate_expr(agg, db)
        assert est <= 5

    def test_ungrouped_aggregate_is_one_row(self):
        db = Instance()
        db.insert_all("G", [{"g": i} for i in range(50)])
        agg = E.Aggregate(Scan("G"), [], [("n", "count", None)])
        assert estimate_expr(agg, db) == 1.0

    def test_corrections_override_and_propagate(self):
        db, _ = _skewed_chain(200)
        join = E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j"))
        plain = Estimator(db)
        base = plain.rows(join)
        corrected = Estimator(
            db, corrections={join.fingerprint(): base * 10}
        )
        assert corrected.rows(join) == base * 10
        # ...and a parent above the corrected subtree sees the actuals.
        parent = Select(join, eq(Col("va"), 1))
        assert Estimator(
            db, corrections={join.fingerprint(): base * 10}
        ).rows(parent) > plain.rows(parent)


def _random_graph(shape: str, n: int, skewed: bool, rng: random.Random):
    """Build ``n`` relations joined as a chain/star/cycle with shared
    column names, plus the written left-deep query over them."""
    db = Instance()

    def value(dom):
        if skewed:
            return int((rng.random() ** 3) * dom)
        return rng.randrange(dom)

    if shape == "star":
        # Sized so skewed fan-out stays bounded: expected join
        # multiplier per dimension is rows_dim x sum(p_v^2) ~ 2.
        rows = [
            {f"k{d}": value(6) for d in range(1, n)} | {"f": i}
            for i in range(30)
        ]
        db.insert_all("F", rows)
        query: E.RelExpr = Scan("F")
        for d in range(1, n):
            db.insert_all(
                f"D{d}",
                [{f"k{d}": value(6), f"p{d}": i} for i in range(6)],
            )
            query = E.Join(
                query, Scan(f"D{d}"), E._JoinEq(f"k{d}", f"k{d}")
            )
        return db, query

    # chain / cycle: R_i carries k_i and k_{i+1}; the cycle closes the
    # loop with a second atom on the final join.
    for i in range(n):
        cols = [f"k{i}", f"k{(i + 1) % n}" if shape == "cycle" or i + 1 < n
                else f"k{i + 1}"]
        db.insert_all(
            f"R{i}",
            [{cols[0]: value(6), cols[1]: value(6), f"v{i}": r}
             for r in range(10)],
        )
    query = Scan("R0")
    for i in range(1, n):
        key = f"k{i}"
        atoms = [E._JoinEq(key, key)]
        if shape == "cycle" and i == n - 1:
            atoms.append(E._JoinEq("k0", "k0"))
        predicate = atoms[0] if len(atoms) == 1 else __import__(
            "repro.algebra.scalars", fromlist=["And"]
        ).And(*atoms)
        query = E.Join(query, Scan(f"R{i}"), predicate)
    return db, query


class TestRandomizedJoinGraphs:
    @pytest.mark.parametrize("shape", ["chain", "star", "cycle"])
    @pytest.mark.parametrize("skewed", [False, True],
                             ids=["uniform", "skewed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_based_equals_heuristic_on_all_engines(
        self, shape, skewed, seed
    ):
        rng = random.Random(seed * 31 + hash(shape) % 97)
        n = rng.randrange(5, 8) if shape != "star" else rng.randrange(6, 10)
        db, query = _random_graph(shape, n, skewed, rng)
        report = optimize_with_report(query, db)
        reference = _canon(evaluate(query, db, engine="interpreted"))
        for engine in ("interpreted", "vectorized"):
            assert _canon(
                evaluate(report.chosen, db, engine=engine)
            ) == reference, f"{shape}/{engine} diverged"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dp_and_greedy_agree_on_small_graphs(self, seed, monkeypatch):
        rng = random.Random(seed)
        shape = rng.choice(["chain", "star", "cycle"])
        db, query = _random_graph(shape, 4, True, rng)
        dp_chosen = optimize_with_report(query, db).chosen
        monkeypatch.setattr(optimizer, "DP_MAX_LEAVES", 0)  # greedy path
        greedy_chosen = optimize_with_report(query, db).chosen
        reference = _canon(evaluate(query, db, engine="interpreted"))
        assert _canon(evaluate(dp_chosen, db)) == reference
        assert _canon(evaluate(greedy_chosen, db)) == reference


class TestAdaptivePlanCache:
    def test_stats_epoch_changes_on_insert(self):
        db, _ = _skewed_chain(60)
        before = db.stats_epoch()
        db.insert("C", {"k": -1, "vc": -1})
        assert db.stats_epoch() != before

    def test_epoch_change_replans_and_counts_eviction(self):
        obs.enable()
        db, query = _skewed_chain(120)
        cache = GLOBAL_VECTOR_PLAN_CACHE
        evaluate(query, db, engine="vectorized")
        baseline = cache.stats()
        evaluate(query, db, engine="vectorized")
        assert cache.stats()["adaptive_hits"] == (
            baseline["adaptive_hits"] + 1
        )
        db.insert("C", {"k": -1, "vc": -1})
        evaluate(query, db, engine="vectorized")
        stats = cache.stats()
        assert stats["adaptive_misses"] == baseline["adaptive_misses"] + 1
        assert stats["evictions_by_reason"]["epoch"] >= 1

    def test_divergence_triggers_reopt_and_querylog_flag(self):
        obs.enable()
        db = Instance()
        n, half = 240, 120
        rows_a = []
        for i in range(n):
            if i < half:
                rows_a.append({"j": 0, "k": 1 + i % 9, "va": i})
            else:
                rows_a.append(
                    {"j": i, "k": 0 if i < half + 24 else 1 + i % 9,
                     "va": i}
                )
        db.insert_all("A", rows_a)
        db.insert_all(
            "B", [{"j": 0 if i < half else i, "vb": i} for i in range(n)]
        )
        db.insert_all(
            "C",
            [{"k": 0 if i < 2 else 1001 + i % 7, "vc": i}
             for i in range(48)],
        )
        query = E.Join(
            E.Join(Scan("A"), Scan("B"), E._JoinEq("j", "j")),
            Scan("C"),
            E._JoinEq("k", "k"),
        )
        first = evaluate(query, db, engine="vectorized")
        second = evaluate(query, db, engine="vectorized")
        assert _canon(first) == _canon(second)
        stats = GLOBAL_VECTOR_PLAN_CACHE.stats()
        assert stats["reopts"] >= 1
        assert stats["evictions_by_reason"]["reopt"] >= 1
        assert any(e.attrs["reopt"] for e in JOURNAL.events()
                   if e.kind == "query")
        snapshot = registry.snapshot()
        assert snapshot["query.reopt.scheduled"]["value"] >= 1
        assert snapshot["query.reopt.applied"]["value"] >= 1
        assert (
            snapshot["query.plan_cache.evictions.reopt"]["value"] >= 1
        )

    def test_reopts_bounded(self):
        obs.enable()
        db, query = _skewed_chain(120)
        cache = GLOBAL_VECTOR_PLAN_CACHE
        plan, _ = cache.adaptive_lookup(query, db)

        class _FakeProfile:
            def __init__(self, factor):
                self.factor = factor

            def calls(self, node_id):
                return 1

            def rows_out(self, node_id):
                return node_id * self.factor + 1

        fired = sum(
            bool(cache.note_divergence(query, plan, _FakeProfile(f)))
            for f in range(2, 12)
        )
        assert fired == optimizer.MAX_REOPTS

    def test_lru_eviction_reason_counted(self):
        small = PlanCache(capacity=1)
        small.lookup(Scan("A"))
        small.lookup(Scan("B"))
        assert small.stats()["evictions_by_reason"]["lru"] == 1


class TestExplainCost:
    def test_explain_reports_costs_and_reorder(self):
        db, query = _skewed_chain(120)
        result = explain(query, instance=db)
        assert result.cost is not None
        assert result.heuristic_cost is not None
        assert result.optimized
        assert result.cost < result.heuristic_cost
        rendered = result.render()
        assert "cost=" in rendered and "reordered" in rendered
        assert result.to_dict()["optimized"] is True

    def test_no_opt_shows_heuristic_plan(self):
        db, query = _skewed_chain(120)
        result = explain(query, instance=db, no_opt=True)
        assert not result.optimized
        assert result.cost == result.heuristic_cost
        cost_based = explain(query, instance=db)
        assert result.cost > cost_based.cost


class TestSwallowedFailuresAreJournaled:
    """Each site that keeps a query running past an estimator or cost
    walk failure counts it and journals it with the exception type."""

    @staticmethod
    def _boom(*args, **kwargs):
        raise ZeroDivisionError("injected")

    def test_optimizer_falls_back_to_the_heuristic_tree(self, monkeypatch):
        import repro.algebra.optimizer as optimizer

        monkeypatch.setattr(optimizer, "_cost_walk", self._boom)
        obs.enable()
        db, query = _skewed_chain(60)
        report = optimize_with_report(query, db)
        assert report.chosen is report.heuristic
        assert registry.counter("query.optimizer.errors").value == 1
        (event,) = JOURNAL.events(kind="query.optimizer.fallback")
        assert event.attrs == {"error": "ZeroDivisionError"}

    def test_explain_estimates(self, monkeypatch):
        # The package re-exports explain(), which shadows the module.
        explain_module = importlib.import_module("repro.algebra.explain")
        monkeypatch.setattr(explain_module, "annotate_plan", self._boom)
        obs.enable()
        db, query = _skewed_chain(60)
        assert explain(query, instance=db).estimates is None
        assert registry.counter("query.estimate.errors").value == 1
        (event,) = JOURNAL.events(kind="query.estimate.error")
        assert event.attrs == {"site": "explain", "error": "ZeroDivisionError"}

    def test_explain_no_opt_cost(self, monkeypatch):
        import repro.algebra.optimizer as optimizer

        monkeypatch.setattr(optimizer, "plan_cost", self._boom)
        obs.enable()
        db, query = _skewed_chain(60)
        assert explain(query, instance=db, no_opt=True).cost is None
        assert registry.counter("query.estimate.errors").value == 1
        (event,) = JOURNAL.events(kind="query.estimate.error")
        assert event.attrs == {
            "site": "explain.cost", "error": "ZeroDivisionError"
        }


class TestBenchFloorJudging:
    def _payload(self, speedup):
        return {
            "benchmark": "optimizer",
            "format": "harness-v1",
            "results": {},
            "tables": [
                {
                    "title": "t",
                    "headers": ["workload", "speedup"],
                    "rows": [["skewed-chain", f"{speedup:.1f}x"]],
                }
            ],
            "timings_seconds": {},
            "floors": {"skewed-chain/speedup": 2.0},
        }

    def test_below_floor_is_regression(self):
        report = diff_payloads(
            "BENCH_optimizer.json", self._payload(30.0), self._payload(1.4)
        )
        assert len(report.regressions) == 1
        assert "floor" in report.regressions[0].detail

    def test_above_floor_passes_even_when_slower(self):
        report = diff_payloads(
            "BENCH_optimizer.json", self._payload(30.0), self._payload(3.0)
        )
        assert not report.regressions
