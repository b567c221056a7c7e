"""Tests for the engine-wide tracing/metrics layer
(:mod:`repro.observability`)."""

import copy
import json
import threading

import pytest

import repro.observability as obs
from repro.core import ModelManagementEngine
from repro.instances import Instance
from repro.instances.database import _MAX_PENDING_STAT_EVENTS
from repro.logic import chase, parse_tgd
from repro.observability import (
    COUNT_BUCKETS,
    Histogram,
    instrumented,
    registry,
    tracer,
)
from repro.observability.metrics import Counter, Gauge
from repro.workloads import paper


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts disabled with empty tracer/registry, and
    leaves the process in that state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_yields_none_and_records_nothing(self):
        with obs.span("work", size=3) as span:
            pass
        assert span is None
        assert tracer.span_count() == 0
        assert len(registry) == 0

    def test_nesting_builds_a_tree(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert [s.name for s in tracer.iter_spans()] == ["outer", "inner"]
        assert inner.parent_id == outer.span_id
        assert tracer.roots == [outer]
        assert outer.children == [inner]

    def test_attributes_and_timing(self):
        obs.enable()
        with obs.span("op", rows=7) as span:
            span.set_attribute("extra", "x")
            span.set_attributes(more=1)
        assert span.attributes == {"rows": 7, "extra": "x", "more": 1}
        assert span.wall_ms is not None and span.wall_ms >= 0
        assert span.cpu_ms is not None

    def test_finish_feeds_registry(self):
        obs.enable()
        with obs.span("op.widget"):
            pass
        assert registry.counter("span.op.widget.calls").value == 1
        assert registry.histogram("span.op.widget.wall_ms").count == 1

    def test_exception_still_finishes_span(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        (span,) = tracer.iter_spans()
        assert span.wall_ms is not None

    def test_jsonl_roundtrip(self, tmp_path):
        obs.enable()
        with obs.span("a", k=1):
            with obs.span("b"):
                pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert [entry["name"] for entry in lines] == ["a", "b"]
        by_id = {entry["span_id"]: entry for entry in lines}
        child = next(e for e in lines if e["name"] == "b")
        assert by_id[child["parent_id"]]["name"] == "a"
        assert next(e for e in lines if e["name"] == "a")[
            "attributes"] == {"k": 1}

    def test_render_tree(self):
        obs.enable()
        with obs.span("root", rows=2):
            with obs.span("leaf"):
                pass
        text = tracer.render()
        assert "root" in text and "leaf" in text
        assert "ms" in text and "rows=2" in text
        assert tracer.render(attributes=False).count("rows=2") == 0

    def test_render_empty(self):
        assert "no spans" in tracer.render()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        assert registry.counter("c").value == 5
        assert registry.gauge("g").value == 2.5

    def test_kind_mismatch(self):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_summary_and_percentiles(self):
        h = Histogram("h", buckets=COUNT_BUCKETS)
        for value in range(1, 101):
            h.observe(value)
        s = h.summary()
        assert s["count"] == 100 and s["min"] == 1 and s["max"] == 100
        assert s["mean"] == pytest.approx(50.5)
        # fixed-bucket estimation: exact at boundaries, interpolated
        # inside — stay within one bucket width.
        assert s["p50"] == pytest.approx(50, abs=13)
        assert s["p99"] == pytest.approx(99, abs=26)

    def test_histogram_empty(self):
        h = Histogram("h")
        assert h.percentile(50) is None
        assert h.summary()["count"] == 0

    def test_snapshot_and_export(self, tmp_path):
        registry.counter("runs").inc(2)
        registry.histogram("ms").observe(1.5)
        snap = registry.snapshot()
        assert snap["runs"] == {"type": "counter", "value": 2}
        assert snap["ms"]["count"] == 1
        path = registry.export_json(tmp_path / "metrics.json")
        assert json.loads(path.read_text())["runs"]["value"] == 2

    def test_render(self):
        registry.counter("n").inc()
        registry.histogram("ms").observe(3.0)
        text = registry.render()
        assert "n = 1" in text and "p50" in text


# ----------------------------------------------------------------------
# @instrumented
# ----------------------------------------------------------------------
class TestInstrumented:
    def test_disabled_is_transparent(self):
        @instrumented("t.f", attrs=lambda x: 1 / 0)  # must never run
        def f(x):
            return x + 1

        assert f(1) == 2
        assert tracer.span_count() == 0

    def test_enabled_records_span_with_attrs(self):
        @instrumented("t.f", attrs=lambda x: {"x": x})
        def f(x):
            return x + 1

        obs.enable()
        assert f(41) == 42
        (span,) = tracer.iter_spans()
        assert span.name == "t.f" and span.attributes == {"x": 41}

    def test_bare_decorator_uses_qualname(self):
        @instrumented
        def plain():
            return 7

        obs.enable()
        assert plain() == 7
        (span,) = tracer.iter_spans()
        assert span.name.endswith("plain")

    def test_exception_propagates_and_span_closes(self):
        @instrumented("t.err")
        def bad():
            raise RuntimeError("nope")

        obs.enable()
        with pytest.raises(RuntimeError):
            bad()
        (span,) = tracer.iter_spans()
        assert span.wall_ms is not None


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------
class TestEngineInstrumentation:
    def test_facade_call_nests_operator_span(self):
        engine = ModelManagementEngine()
        obs.enable()
        engine.compose(paper.figure6_map_v_s(), paper.figure6_map_s_sprime())
        names = [s.name for s in tracer.iter_spans()]
        assert names[0] == "engine.compose"
        assert "op.compose" in names
        compose_root = tracer.roots[0]
        assert compose_root.attributes["first.constraints"] >= 1

    def test_exchange_reports_chase_metrics(self):
        from repro.mappings import Mapping
        from repro.metamodel import INT, SchemaBuilder

        engine = ModelManagementEngine()
        db = Instance()
        db.add("S", a=1)
        source = (SchemaBuilder("S").entity("S", key=["a"])
                  .attribute("a", INT).build())
        target = (SchemaBuilder("T").entity("T", key=["a"])
                  .attribute("a", INT).build())
        mapping = Mapping(source, target, [parse_tgd("S(a=x) -> T(a=x)")])
        obs.enable()
        engine.exchange(mapping, db)
        assert registry.counter("chase.runs").value == 1
        assert registry.counter("chase.steps").value == 1
        names = [s.name for s in tracer.iter_spans()]
        assert names[0] == "engine.exchange"
        assert "runtime.exchange" in names and "logic.chase" in names

    def test_chase_metrics_disabled_by_default(self):
        db = Instance()
        db.add("S", a=1)
        chase(db, [parse_tgd("S(a=x) -> T(a=x)")])
        assert "chase.runs" not in registry
        assert tracer.span_count() == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "script.py"
        script.write_text(
            "from repro.core import ModelManagementEngine\n"
            "from repro.workloads import paper\n"
            "engine = ModelManagementEngine()\n"
            "engine.compose(paper.figure6_map_v_s(),\n"
            "               paper.figure6_map_s_sprime())\n"
        )
        out = tmp_path / "trace.jsonl"
        code = main(["trace", str(script), "--quiet", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "engine.compose" in captured
        assert out.exists() and "op.compose" in out.read_text()

    def test_metrics_command(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "script.py"
        script.write_text(
            "from repro.instances import Instance\n"
            "from repro.logic import chase, parse_tgd\n"
            "db = Instance(); db.add('S', a=1)\n"
            "chase(db, [parse_tgd('S(a=x) -> T(a=x)')])\n"
        )
        code = main(["metrics", str(script), "--quiet", "--json"])
        captured = capsys.readouterr().out
        assert code == 0
        assert json.loads(captured)["chase.runs"]["value"] == 1


# ----------------------------------------------------------------------
# thread-safe observability (counters under contention)
# ----------------------------------------------------------------------
def _hammer(fn, threads=8, iterations=2000):
    barrier = threading.Barrier(threads)

    def work():
        barrier.wait()
        for _ in range(iterations):
            fn()

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return threads * iterations


class TestThreadSafeObservability:
    def test_counter_loses_no_increments(self):
        counter = Counter("t.counter")
        total = _hammer(counter.inc)
        assert counter.value == total

    def test_histogram_counts_every_observation(self):
        histogram = Histogram("t.hist")
        total = _hammer(lambda: histogram.observe(1.0))
        assert histogram.count == total
        assert histogram.summary()["count"] == total

    def test_gauge_last_write_wins_without_tearing(self):
        gauge = Gauge("t.gauge")
        _hammer(lambda: gauge.set(42.0))
        assert gauge.value == 42.0

    def test_index_stats_under_concurrent_lookups(self):
        db = Instance()
        db.insert_all("R", [{"a": i, "b": i % 5} for i in range(100)])
        # Prime the projection index so every hammer call is a hit.
        db.projection_member("R", ("b",), (0,))
        baseline = dict(db.index_stats)
        total = _hammer(
            lambda: db.projection_member("R", ("b",), (1,)),
            threads=8, iterations=1000,
        )
        stats = db.index_stats
        assert stats["hits"] == baseline["hits"] + total
        # A second read is stable (events were drained exactly once).
        assert db.index_stats["hits"] == stats["hits"]

    def test_index_stats_backlog_stays_bounded(self):
        db = Instance()
        db.insert_all("R", [{"a": 1}])
        db.column_batch("R")  # the one rebuild
        for _ in range(10_000):
            db.column_batch("R")
        assert len(db._stat_events) <= _MAX_PENDING_STAT_EVENTS
        assert db.index_stats["hits"] == 10_000
        assert db.index_stats["rebuilds"] == 1

    def test_index_stats_concurrent_readers_and_writers(self):
        db = Instance()
        db.insert_all("R", [{"a": i} for i in range(50)])
        db.projection_member("R", ("a",), (0,))
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append(db.index_stats["hits"])

        t = threading.Thread(target=reader)
        t.start()
        try:
            total = _hammer(
                lambda: db.projection_member("R", ("a",), (1,)),
                threads=4, iterations=1000,
            )
        finally:
            stop.set()
            t.join()
        assert db.index_stats["hits"] >= total
        assert seen == sorted(seen), "hit counter went backwards"

    def test_instance_stays_deepcopyable_and_picklable(self):
        import pickle

        db = Instance()
        db.insert_all("R", [{"a": 1}])
        db.projection_member("R", ("a",), (1,))
        clone = copy.deepcopy(db)
        assert clone.index_stats["hits"] == db.index_stats["hits"]
        revived = pickle.loads(pickle.dumps(db))
        assert revived.rows("R") == db.rows("R")
