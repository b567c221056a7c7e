"""Event journal, health monitor, and their CLI surfaces
(`repro journal`, `repro querylog`, `repro health`, `repro top`)."""

import json

import pytest

import repro.observability as obs
from repro.cli import main
from repro.instances import Instance
from repro.instances.serialization import dump_instance
from repro.logic import chase, parse_tgd
from repro.observability import registry
from repro.observability.health import MONITOR, HealthConfig
from repro.observability.journal import JOURNAL, EventJournal


# ----------------------------------------------------------------------
# journal ring semantics
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_ring_bound_keeps_newest(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.record("demo.event", i=i)
        events = journal.events()
        assert len(events) == 3
        assert [e.attrs["i"] for e in events] == [2, 3, 4]
        assert [e.seq for e in events] == [3, 4, 5]

    def test_record_once_dedupes_until_clear(self):
        journal = EventJournal()
        assert journal.record_once("k", "demo.fallback") is not None
        assert journal.record_once("k", "demo.fallback") is None
        assert len(journal) == 1
        journal.clear()
        assert journal.record_once("k", "demo.fallback") is not None

    def test_kind_filter_exact_and_prefix(self):
        journal = EventJournal()
        journal.record("chase.round")
        journal.record("chase.egd.reconcile")
        journal.record("health.alert")
        assert len(journal.events(kind="chase")) == 2
        assert len(journal.events(kind="chase.round")) == 1
        assert len(journal.events(kind="chase.rou")) == 0

    def test_trace_id_defaults_from_active_span(self):
        obs.enable()
        with obs.span("request") as root:
            event = JOURNAL.record("demo.event")
        assert event.trace_id == root.trace_id
        outside = JOURNAL.record("demo.event")
        assert outside.trace_id == ""

    def test_jsonl_sink_mirrors_events(self, tmp_path):
        journal = EventJournal()
        sink = tmp_path / "journal.jsonl"
        journal.configure(sink=sink)
        journal.record("demo.event", n=1)
        journal.record("demo.other", n=2)
        journal.clear()  # closes the sink
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["demo.event", "demo.other"]
        assert lines[1]["n"] == 2

    def test_render_and_export(self, tmp_path):
        journal = EventJournal()
        journal.record("demo.event", detail="x")
        text = journal.render()
        assert "demo.event" in text and "detail=x" in text
        path = journal.export_jsonl(tmp_path / "out.jsonl")
        assert json.loads(path.read_text())["kind"] == "demo.event"

    def test_clear_resets_sequence(self):
        journal = EventJournal()
        journal.record("demo.event")
        journal.clear()
        assert journal.record("demo.event").seq == 1

    def test_reset_restores_default_capacity(self):
        JOURNAL.configure(capacity=4)
        obs.reset()
        assert JOURNAL.capacity == EventJournal.DEFAULT_CAPACITY


# ----------------------------------------------------------------------
# engine events land in the journal
# ----------------------------------------------------------------------
class TestEngineJournaling:
    def _chase_db(self):
        db = Instance()
        db.insert_all("R0", [{"a": i} for i in range(20)])
        return db, [parse_tgd("R0(a=x) -> R1(a=x)")]

    def test_sequential_chase_journals_rounds(self):
        obs.enable()
        db, deps = self._chase_db()
        chase(db, deps)
        rounds = JOURNAL.events(kind="chase.round")
        assert rounds
        assert all("delta_rows" in e.attrs for e in rounds)

    def test_disabled_chase_journals_nothing(self):
        obs.disable()
        db, deps = self._chase_db()
        chase(db, deps)
        assert len(JOURNAL) == 0


# ----------------------------------------------------------------------
# health signal derivation
# ----------------------------------------------------------------------
class TestHealthSignals:
    def test_empty_state_is_healthy_with_no_data(self):
        report = MONITOR.evaluate()
        assert report.ok
        assert {s.name: s.status for s in report.signals} == {
            "cache_eviction_rate": "no-data",
            "divergence_rate": "no-data",
            "slow_query_rate": "no-data",
        }

    def test_cache_eviction_rate(self):
        registry.counter("query.plan_cache.hits").inc(10)
        registry.counter("query.plan_cache.misses").inc(10)
        registry.counter("query.plan_cache.evictions").inc(15)
        signal = {s.name: s for s in MONITOR.evaluate().signals}[
            "cache_eviction_rate"
        ]
        assert signal.status == "alert"
        assert signal.value == pytest.approx(0.75)

    def test_query_rates_from_log(self):
        registry.counter("query.log.entries").inc(20)
        registry.counter("query.log.slow").inc(12)
        config = HealthConfig(min_query_samples=20)
        by_name = {s.name: s for s in MONITOR.evaluate(config).signals}
        assert by_name["slow_query_rate"].value == pytest.approx(0.6)
        assert by_name["slow_query_rate"].status == "alert"
        assert by_name["divergence_rate"].value == 0.0

    def test_divergence_rate_counts_flagged(self):
        registry.counter("query.log.entries").inc(20)
        registry.counter("query.estimate.divergent").inc(15)
        signal = {s.name: s for s in MONITOR.evaluate().signals}[
            "divergence_rate"
        ]
        assert signal.status == "alert"
        assert signal.value == pytest.approx(0.75)

    def test_every_signal_reads_counters_alone(self):
        """No journal event, span or plan behind them: the registry's
        counters drive all three signals."""
        registry.counter("query.plan_cache.hits").inc(15)
        registry.counter("query.plan_cache.misses").inc(5)
        registry.counter("query.plan_cache.evictions").inc(12)
        registry.counter("query.log.entries").inc(40)
        registry.counter("query.estimate.divergent").inc(30)
        registry.counter("query.log.slow").inc(20)
        assert len(JOURNAL) == 0
        by_name = {s.name: s for s in MONITOR.evaluate().signals}
        assert {name: signal.value for name, signal in by_name.items()} \
            == pytest.approx({
                "cache_eviction_rate": 0.6,
                "divergence_rate": 0.75,
                "slow_query_rate": 0.5,
            })
        assert all(s.status == "alert" for s in by_name.values())

    def test_evictions_by_reason_count_once(self):
        registry.counter("query.plan_cache.hits").inc(10)
        registry.counter("query.plan_cache.misses").inc(10)
        registry.counter("query.plan_cache.evictions").inc(8)
        registry.counter("query.plan_cache.evictions.lru").inc(8)
        signal = {s.name: s for s in MONITOR.evaluate().signals}[
            "cache_eviction_rate"
        ]
        assert signal.value == pytest.approx(0.4)

    def test_rotated_out_query_still_counts_as_slow(self, monkeypatch):
        import repro.algebra.evaluator as evaluator
        from repro.algebra import expressions as E
        from repro.algebra.evaluator import evaluate

        db = Instance()
        db.insert_all("t", [{"a": i} for i in range(5)])
        obs.enable()
        JOURNAL.configure(capacity=2)
        monkeypatch.setattr(evaluator, "SLOW_QUERY_MS", 0.0)
        evaluate(E.Scan("t"), db)  # counted slow at a 0 ms threshold
        monkeypatch.undo()
        for _ in range(3):
            evaluate(E.Scan("t"), db)
        assert all(e.seq > 1 for e in JOURNAL.events())
        config = HealthConfig(min_query_samples=4)
        signal = {s.name: s for s in MONITOR.evaluate(config).signals}[
            "slow_query_rate"
        ]
        assert signal.value == pytest.approx(0.25)
        assert signal.detail == "slow=1/4"

    def test_with_overrides_rejects_unknown_key(self):
        with pytest.raises(KeyError):
            HealthConfig().with_overrides({"typo_max": 1.0})
        config = HealthConfig().with_overrides(
            {"slow_query_rate_max": 0.1, "min_query_samples": 5.0}
        )
        assert config.slow_query_rate_max == 0.1
        assert config.min_query_samples == 5  # coerced to int

    @staticmethod
    def _thrash_plan_cache():
        registry.counter("query.plan_cache.hits").inc(10)
        registry.counter("query.plan_cache.misses").inc(10)
        registry.counter("query.plan_cache.evictions").inc(15)

    def test_check_journals_alerts_when_enabled(self):
        obs.enable()
        self._thrash_plan_cache()
        report = MONITOR.check()
        assert not report.ok
        assert MONITOR.last_report is report
        alerts = JOURNAL.events(kind="health.alert")
        assert [e.attrs["signal"] for e in alerts] == ["cache_eviction_rate"]
        assert registry.counter("health.alerts").value == 1

    def test_report_renders_markers(self):
        obs.enable()
        self._thrash_plan_cache()
        text = MONITOR.evaluate().render()
        assert "ALERT" in text
        assert "✗ cache_eviction_rate" in text
        assert "·" in text  # no-data markers for the rest


# ----------------------------------------------------------------------
# CLI: repro journal / health / top
# ----------------------------------------------------------------------
@pytest.fixture
def workload(tmp_path):
    inst = Instance()
    for i in range(30):
        inst.insert("t", {"a": i, "b": i % 5})
    data = tmp_path / "data.json"
    data.write_text(dump_instance(inst))
    script = tmp_path / "workload.py"
    script.write_text(
        "from repro.instances.serialization import load_instance\n"
        "from repro.algebra import expressions as E\n"
        "from repro.algebra.evaluator import evaluate\n"
        "from repro.instances import Instance\n"
        "from repro.logic import chase, parse_tgd\n"
        f"inst = load_instance(open({str(data)!r}).read())\n"
        "evaluate(E.Scan('t'), inst)\n"
        "db = Instance()\n"
        "db.insert_all('R0', [{'a': i} for i in range(10)])\n"
        "chase(db, [parse_tgd('R0(a=x) -> R1(a=x)')])\n"
    )
    return script


def test_cli_journal_prints_and_exports(tmp_path, capsys, workload):
    out = tmp_path / "events.jsonl"
    code = main([
        "journal", str(workload), "--quiet",
        "--kind", "chase", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "chase.round" in printed
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert any(l["kind"] == "chase.round" for l in lines)


def test_cli_journal_out_writes_the_kind_filtered_events(tmp_path,
                                                         workload):
    out = tmp_path / "events.jsonl"
    assert main(["journal", str(workload), "--quiet", "--kind", "query",
                 "--out", str(out)]) == 0
    kinds = {json.loads(l)["kind"] for l in out.read_text().splitlines()}
    assert kinds == {"query"}


@pytest.mark.parametrize("command", ["journal", "querylog"])
@pytest.mark.parametrize("option, value", [
    ("--capacity", "-1"),
    ("--capacity", "0"),
    ("--limit", "0"),
    ("--limit", "-1"),
    ("--limit", "many"),
])
def test_cli_event_views_reject_non_positive_counts(capsys, workload,
                                                    command, option, value):
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(workload), "--quiet", option, value])
    assert exit_info.value.code == 2
    assert option in capsys.readouterr().err


def test_cli_capacity_applies_after_the_reset(capsys, workload):
    assert main(["journal", str(workload), "--quiet", "--json",
                 "--capacity", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert JOURNAL.capacity == 2


def test_cli_journal_json(capsys, workload):
    assert main(["journal", str(workload), "--quiet", "--json"]) == 0
    lines = [
        json.loads(l) for l in capsys.readouterr().out.splitlines() if l
    ]
    assert all("kind" in l and "trace_id" in l for l in lines)


def test_cli_health_healthy_exits_zero(capsys, workload):
    assert main(["health", str(workload), "--quiet"]) == 0
    assert "health: OK" in capsys.readouterr().out


def test_cli_health_breach_exits_one(capsys, workload):
    code = main([
        "health", str(workload), "--quiet",
        "--threshold", "slow_query_rate_max=-1",
        "--threshold", "min_query_samples=1",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "ALERT" in out and "slow_query_rate" in out


def test_cli_health_bad_threshold_exits_two(capsys):
    assert main(["health", "--threshold", "nonsense=1"]) == 2
    assert main(["health", "--threshold", "slow_query_rate_max"]) == 2


def test_cli_health_json(capsys, workload):
    assert main(["health", str(workload), "--quiet", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["ok"] is True
    assert {s["name"] for s in parsed["signals"]} == {
        "cache_eviction_rate", "divergence_rate", "slow_query_rate",
    }


def test_cli_top_once(capsys, workload):
    assert main(["top", str(workload), "--once"]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "health:" in out
    assert "query.execute" in out or "chase" in out


def test_top_journal_tail_skips_query_events():
    from repro.observability.top import render_top

    JOURNAL.record("chase.round", round=1, delta_rows=3)
    for _ in range(10):
        JOURNAL.record("query", fingerprint="fp", wall_ms=1.0)
    frame = render_top(journal_limit=8)
    assert "chase.round" in frame
    assert "fingerprint=fp" not in frame
    assert "journal (last 8 of 1 non-query events)" in frame


def test_cli_top_script_failure_exits_one(tmp_path, capsys):
    script = tmp_path / "boom.py"
    script.write_text("raise RuntimeError('kaput')\n")
    assert main(["top", str(script), "--once"]) == 1
    assert "kaput" in capsys.readouterr().err
