"""Query log: ring buffer semantics, evaluate() wiring, CLI surface,
and the Prometheus metrics exposition round trip."""

import json

import pytest

import repro.observability as obs
from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.evaluator import evaluate
from repro.cli import main
from repro.instances.database import Instance
from repro.instances.serialization import dump_instance
from repro.observability import registry
from repro.observability.querylog import QueryLog, QUERY_LOG


@pytest.fixture
def instance() -> Instance:
    inst = Instance()
    for i in range(50):
        inst.insert("t", {"a": i, "b": i % 5})
    return inst


QUERY = E.Select(E.Scan("t"), S.Comparison("=", S.Col("b"), S.Lit(3)))


# ----------------------------------------------------------------------
# ring buffer semantics
# ----------------------------------------------------------------------
def test_ring_buffer_rotates_and_sequences():
    log = QueryLog(capacity=3)
    for i in range(5):
        log.record(f"fp{i}", "compiled", False, 1.0, i)
    entries = log.entries()
    assert len(entries) == 3
    assert [e.seq for e in entries] == [3, 4, 5]
    assert [e.fingerprint for e in entries] == ["fp2", "fp3", "fp4"]
    assert log.recorded == 5
    log.clear()
    assert len(log) == 0 and log.recorded == 0


def test_slow_threshold_marks_entries():
    log = QueryLog(slow_ms=5.0)
    fast = log.record("fp", "compiled", False, 1.0, 0)
    slow = log.record("fp", "compiled", False, 9.0, 0)
    assert not fast.slow and slow.slow
    assert [e.seq for e in log.slow_entries()] == [2]
    assert "SLOW" in slow.render()
    log.configure(slow_ms=0.5)
    assert log.record("fp", "compiled", False, 1.0, 0).slow


def test_configure_capacity_keeps_newest():
    log = QueryLog(capacity=10)
    for i in range(6):
        log.record(f"fp{i}", "compiled", False, 1.0, 0)
    log.configure(capacity=2)
    assert [e.fingerprint for e in log.entries()] == ["fp4", "fp5"]


def test_export_jsonl_round_trips():
    log = QueryLog()
    log.record("fp", "vectorized", True, 2.5, 7,
               worst={"node_id": 1, "label": "σ", "est_rows": 3.0,
                      "actual_rows": 7, "ratio": 2.0, "flagged": False})
    lines = log.export_jsonl().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["fingerprint"] == "fp"
    assert entry["cache_hit"] is True
    assert entry["rows_out"] == 7
    assert entry["worst_divergent"]["ratio"] == 2.0


# ----------------------------------------------------------------------
# evaluate() wiring
# ----------------------------------------------------------------------
def test_disabled_evaluate_records_nothing(instance):
    obs.disable()
    for engine in ("vectorized", "interpreted"):
        evaluate(QUERY, instance, engine=engine)
    assert len(QUERY_LOG) == 0


def test_enabled_evaluate_records_all_engines(instance):
    obs.enable()
    for engine in ("vectorized", "interpreted"):
        rows = evaluate(QUERY, instance, engine=engine)
        assert len(rows) == 10
    entries = QUERY_LOG.entries()
    assert [e.engine for e in entries] == ["vectorized", "interpreted"]
    # One structural fingerprint across engines.
    assert len({e.fingerprint for e in entries}) == 1
    assert all(e.rows_out == 10 for e in entries)
    # The planned engine carries estimate↔actual divergence.
    assert entries[0].worst is not None
    assert entries[1].worst is None  # interpreter has no plan nodes
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
    first, second = QUERY_LOG.entries()
    assert not first.cache_hit
    assert second.cache_hit


def test_reset_clears_query_log(instance):
    obs.enable()
    evaluate(QUERY, instance, engine="vectorized")
    assert len(QUERY_LOG) == 1
    obs.reset()
    assert len(QUERY_LOG) == 0


def test_estimator_failure_never_fails_the_query(instance, monkeypatch):
    import repro.algebra.estimate as estimate

    def boom(*args, **kwargs):
        raise RuntimeError("estimator bug")

    monkeypatch.setattr(estimate, "annotate_plan", boom)
    obs.enable()
    rows = evaluate(QUERY, instance, engine="vectorized")
    assert len(rows) == 10
    assert registry.counter("query.estimate.errors").value == 1
    entry = QUERY_LOG.entries()[-1]
    assert entry.worst is None


def test_interleaved_run_never_leaks_into_the_log(monkeypatch):
    """Another run of the same cached plan, over a larger instance,
    landing between this query's execute and its annotate — the
    interleaving a p2p hop thread or the queued synchronizer produces —
    must not leak its row counts into this query's divergence or
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
    (entry,) = QUERY_LOG.entries()
    assert entry.worst["actual_rows"] == 10
    assert not entry.worst["flagged"]
    assert not entry.reopt
    assert registry.counter("query.reopt.scheduled").value == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_querylog_renders_and_exports(tmp_path, capsys, instance):
    data = tmp_path / "data.json"
    data.write_text(dump_instance(instance))
    script = tmp_path / "workload.py"
    script.write_text(
        "import json, sys\n"
        "from repro.instances.serialization import load_instance\n"
        "from repro.algebra import expressions as E\n"
        "from repro.algebra import scalars as S\n"
        "from repro.algebra.evaluator import evaluate\n"
        f"inst = load_instance(open({str(data)!r}).read())\n"
        "q = E.Select(E.Scan('t'), S.Comparison('=', S.Col('b'), S.Lit(3)))\n"
        "for engine in ('vectorized', 'interpreted'):\n"
        "    evaluate(q, inst, engine=engine)\n"
    )
    out = tmp_path / "log.jsonl"
    code = main(["querylog", str(script), "--quiet", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "vectorized" in printed and "interpreted" in printed
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2
    assert {line["engine"] for line in lines} == {
        "vectorized", "interpreted"
    }


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
