"""The ``query`` journal events every observed ``evaluate()`` records,
the ``repro querylog`` view over them, and the Prometheus metrics
exposition round trip."""

import json

import pytest

import repro.observability as obs
from repro.algebra import clear_plan_cache
from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.evaluator import SLOW_QUERY_MS, evaluate
from repro.cli import main
from repro.instances.database import Instance
from repro.instances.serialization import dump_instance
from repro.observability import registry
from repro.observability.journal import JOURNAL


@pytest.fixture
def instance() -> Instance:
    inst = Instance()
    for i in range(50):
        inst.insert("t", {"a": i, "b": i % 5})
    return inst


QUERY = E.Select(E.Scan("t"), S.Comparison("=", S.Col("b"), S.Lit(3)))


def queries() -> list:
    return [e for e in JOURNAL.events() if e.kind == "query"]


# ----------------------------------------------------------------------
# query events in the journal's ring
# ----------------------------------------------------------------------
def test_ring_buffer_rotates_and_sequences(instance):
    """Events rotate out of the ring; the counters keep every query."""
    obs.enable()
    JOURNAL.configure(capacity=3)
    for _ in range(5):
        evaluate(QUERY, instance)
    assert [e.seq for e in queries()] == [3, 4, 5]
    assert registry.counter("query.log.entries").value == 5


def test_slow_threshold_marks_entries(instance, monkeypatch):
    """A query at or over ``SLOW_QUERY_MS`` bumps ``query.log.slow``."""
    import repro.algebra.evaluator as evaluator

    obs.enable()
    evaluate(QUERY, instance)
    assert registry.counter("query.log.slow").value == 0
    monkeypatch.setattr(evaluator, "SLOW_QUERY_MS", 0.0)
    evaluate(QUERY, instance)
    assert registry.counter("query.log.slow").value == 1
    assert SLOW_QUERY_MS == 100.0


def test_configure_capacity_keeps_newest(instance):
    obs.enable()
    for _ in range(6):
        evaluate(QUERY, instance)
    JOURNAL.configure(capacity=2)
    assert [e.seq for e in queries()] == [5, 6]


def test_export_jsonl_round_trips(tmp_path, instance):
    obs.enable()
    clear_plan_cache()
    evaluate(QUERY, instance)
    path = JOURNAL.export_jsonl(tmp_path / "events.jsonl")
    (event,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert event["kind"] == "query"
    assert event["fingerprint"] == QUERY.fingerprint()
    assert event["cache_hit"] is False
    assert event["rows_out"] == 10
    assert event["worst_divergent"]["actual_rows"] >= 10


# ----------------------------------------------------------------------
# evaluate() wiring
# ----------------------------------------------------------------------
def test_disabled_evaluate_records_nothing(instance):
    obs.disable()
    for engine in ("vectorized", "interpreted"):
        evaluate(QUERY, instance, engine=engine)
    assert len(JOURNAL) == 0


def test_enabled_evaluate_records_all_engines(instance):
    obs.enable()
    for engine in ("vectorized", "interpreted"):
        rows = evaluate(QUERY, instance, engine=engine)
        assert len(rows) == 10
    events = queries()
    assert [e.attrs["engine"] for e in events] == [
        "vectorized", "interpreted"
    ]
    # One structural fingerprint across engines.
    assert len({e.attrs["fingerprint"] for e in events}) == 1
    assert all(e.attrs["rows_out"] == 10 for e in events)
    # The planned engine carries estimate↔actual divergence.
    assert events[0].attrs["worst_divergent"] is not None
    # The interpreter has no plan nodes.
    assert events[1].attrs["worst_divergent"] is None
    assert registry.counter("query.log.entries").value == 2


def test_cache_hit_miss_recorded(instance):
    obs.enable()
    # A query no other test compiles: the plan caches are process-wide,
    # so a shared expression could arrive already warm.
    query = E.Select(
        E.Scan("t"), S.Comparison("=", S.Col("a"), S.Lit(-12345))
    )
    evaluate(query, instance, engine="vectorized")
    evaluate(query, instance, engine="vectorized")
    first, second = queries()
    assert not first.attrs["cache_hit"]
    assert second.attrs["cache_hit"]


def test_reset_clears_query_log(instance):
    obs.enable()
    evaluate(QUERY, instance, engine="vectorized")
    assert len(queries()) == 1
    obs.reset()
    assert queries() == []
    assert "query.log.entries" not in registry


def test_estimator_failure_never_fails_the_query(instance, monkeypatch):
    import repro.algebra.estimate as estimate

    def boom(*args, **kwargs):
        raise RuntimeError("estimator bug")

    monkeypatch.setattr(estimate, "annotate_plan", boom)
    obs.enable()
    rows = evaluate(QUERY, instance, engine="vectorized")
    assert len(rows) == 10
    assert registry.counter("query.estimate.errors").value == 1
    (error,) = JOURNAL.events(kind="query.estimate.error")
    assert error.attrs == {"site": "evaluate", "error": "RuntimeError"}
    assert queries()[-1].attrs["worst_divergent"] is None


def test_interleaved_run_never_leaks_into_the_log(monkeypatch):
    """Another run of the same cached plan, over a larger instance,
    landing between this query's execute and its annotate — the
    interleaving a caller's second thread can produce, since the plan
    cache is shared process-wide — must not leak its row counts into this query's divergence or
    schedule a re-optimization from them."""
    import repro.algebra.estimate as estimate

    small, big = Instance(), Instance()
    small.insert_all("t", [{"a": i} for i in range(10)])
    big.insert_all("t", [{"a": i} for i in range(1000)])
    query = E.Select(E.Scan("t"), S.Comparison(">=", S.Col("a"), S.Lit(0)))
    annotate = estimate.annotate_plan

    def annotate_after_other_run(plan, inst, schema=None):
        if inst is small:
            plan.execute(big)
        return annotate(plan, inst, schema)

    monkeypatch.setattr(estimate, "annotate_plan", annotate_after_other_run)
    obs.enable()
    assert len(evaluate(query, small)) == 10
    (event,) = queries()
    assert event.attrs["worst_divergent"]["actual_rows"] == 10
    assert not event.attrs["worst_divergent"]["flagged"]
    assert not event.attrs["reopt"]
    assert registry.counter("query.reopt.scheduled").value == 0
    assert registry.counter("query.estimate.divergent").value == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _workload_script(tmp_path, instance) -> str:
    data = tmp_path / "data.json"
    data.write_text(dump_instance(instance))
    script = tmp_path / "workload.py"
    script.write_text(
        "from repro.instances.serialization import load_instance\n"
        "from repro.algebra import expressions as E\n"
        "from repro.algebra import scalars as S\n"
        "from repro.algebra.evaluator import evaluate\n"
        "from repro.instances import Instance\n"
        "from repro.logic import chase, parse_tgd\n"
        f"inst = load_instance(open({str(data)!r}).read())\n"
        "q = E.Select(E.Scan('t'), S.Comparison('=', S.Col('b'), S.Lit(3)))\n"
        "for engine in ('vectorized', 'interpreted'):\n"
        "    evaluate(q, inst, engine=engine)\n"
        "db = Instance()\n"
        "db.insert_all('R0', [{'a': i} for i in range(10)])\n"
        "chase(db, [parse_tgd('R0(a=x) -> R1(a=x)')])\n"
    )
    return str(script)


def test_cli_querylog_renders_and_exports(tmp_path, capsys, instance):
    script = _workload_script(tmp_path, instance)
    out = tmp_path / "log.jsonl"
    code = main(["querylog", script, "--quiet", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "engine=vectorized" in printed and "engine=interpreted" in printed
    assert "chase.round" not in printed
    assert "plan cache:" in printed
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["kind"] for line in lines] == ["query", "query"]
    assert {line["engine"] for line in lines} == {
        "vectorized", "interpreted"
    }


def test_cli_querylog_slow_filters_on_wall_ms(tmp_path, capsys, instance):
    script = _workload_script(tmp_path, instance)
    assert main(["querylog", script, "--quiet", "--json",
                 "--slow-ms", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    # Nothing in this workload takes 100 ms.
    assert main(["querylog", script, "--quiet", "--json", "--slow"]) == 0
    assert capsys.readouterr().out.strip() == ""
    assert main(["querylog", script, "--quiet", "--slow-ms", "1e9"]) == 0
    assert "(no events)" in capsys.readouterr().out


def test_cli_stats_renders_relation_statistics(tmp_path, capsys, instance):
    data = tmp_path / "data.json"
    data.write_text(dump_instance(instance))
    assert main(["stats", str(data)]) == 0
    out = capsys.readouterr().out
    assert "t: 50 rows" in out
    assert "distinct=5" in out  # column b

    assert main(["stats", str(data), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["t"]["rows"] == 50
    assert parsed["t"]["columns"]["b"]["distinct"] == 5


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict:
    """Minimal parser for the exposition subset we emit: returns
    {name: {"type": kind, "help": str, "samples": {...}}}."""
    metrics: dict = {}
    helps: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, help_text = line[len("# HELP "):].split(" ", 1)
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            current = metrics[name] = {
                "type": kind, "help": helps.get(name), "samples": {}
            }
        elif line:
            sample, value = line.rsplit(" ", 1)
            current["samples"][sample] = float(value)
    return metrics


def test_prometheus_round_trip():
    registry.counter("demo.requests").inc(7)
    registry.gauge("demo.depth").set(3.5)
    registry.gauge("demo.unset")  # never set: must be skipped
    hist = registry.histogram("demo.lat", buckets=(1.0, 10.0))
    for value in (0.5, 2.0, 5.0, 99.0):
        hist.observe(value)

    parsed = _parse_prometheus(registry.render_prometheus())

    assert parsed["demo_requests"]["type"] == "counter"
    assert parsed["demo_requests"]["samples"]["demo_requests"] == 7
    # Every emitted family carries a HELP line.
    assert parsed["demo_requests"]["help"]
    assert parsed["demo_lat"]["help"]

    assert parsed["demo_depth"]["samples"]["demo_depth"] == 3.5
    assert "demo_unset" not in parsed

    lat = parsed["demo_lat"]
    assert lat["type"] == "histogram"
    assert lat["samples"]['demo_lat_bucket{le="1"}'] == 1
    assert lat["samples"]['demo_lat_bucket{le="10"}'] == 3
    assert lat["samples"]['demo_lat_bucket{le="+Inf"}'] == 4
    assert lat["samples"]["demo_lat_count"] == 4
    assert lat["samples"]["demo_lat_sum"] == pytest.approx(106.5)

    # Round trip: the parsed exposition agrees with the registry's own
    # snapshot for every metric it contains.
    snapshot = registry.snapshot()
    assert snapshot["demo.requests"]["value"] == 7
    assert snapshot["demo.lat"]["count"] == 4


def test_prometheus_known_family_help_text():
    registry.counter("query.plan_cache.hits").inc()
    parsed = _parse_prometheus(registry.render_prometheus())
    assert parsed["query_plan_cache_hits"]["help"] == (
        "Compiled-plan cache activity"
    )


def test_prometheus_label_value_escaping():
    from repro.observability.metrics import _escape_label_value

    assert _escape_label_value('a"b') == 'a\\"b'
    assert _escape_label_value("a\\b") == "a\\\\b"
    assert _escape_label_value("a\nb") == "a\\nb"
    assert _escape_label_value("plain") == "plain"


def test_cli_metrics_prom_format(tmp_path, capsys, instance):
    data = tmp_path / "data.json"
    data.write_text(dump_instance(instance))
    script = tmp_path / "workload.py"
    script.write_text(
        "from repro.instances.serialization import load_instance\n"
        "from repro.algebra import expressions as E\n"
        "from repro.algebra.evaluator import evaluate\n"
        f"inst = load_instance(open({str(data)!r}).read())\n"
        "evaluate(E.Scan('t'), inst)\n"
    )
    assert main(["metrics", str(script), "--quiet", "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE query_log_entries counter" in out
    assert "query_log_entries 1" in out
