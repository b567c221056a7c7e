"""Request-scoped traces and adaptive sampling.

One request yields one trace — one trace_id, one connected span tree,
recorded on the caller's thread (the runtime starts no threads) — with
head sampling deterministic per root kind and tail-keep promoting
slow/error traces.
"""

import pytest

import repro.observability as obs
from repro.instances import Instance
from repro.logic import parse_tgd
from repro.mappings import Mapping
from repro.metamodel import INT, SchemaBuilder
from repro.observability import SAMPLER, tracer
from repro.observability.sampling import Sampler
from repro.runtime.p2p import PeerNetwork
from repro.runtime.updates import UpdateSet


def _all_spans():
    return list(tracer.iter_spans())


def _assert_connected_single_trace(spans):
    """Every span shares one trace_id and every parent_id resolves —
    the tree has no orphans."""
    assert spans
    trace_ids = {s.trace_id for s in spans}
    assert len(trace_ids) == 1, f"expected one trace, got {trace_ids}"
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in by_id, (
                f"{span.name} ({span.span_id}) orphaned: parent "
                f"{span.parent_id} not in tree"
            )
    return trace_ids.pop()


# ----------------------------------------------------------------------
# trace ids per root
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_nested_roots_get_distinct_trace_ids(self):
        obs.enable()
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        assert len(tracer.trace_ids()) == 2

    def test_error_stamps_attribute(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        assert tracer.roots[0].attributes["error"] == "ValueError"


# ----------------------------------------------------------------------
# adaptive sampling
# ----------------------------------------------------------------------
class TestSampler:
    def test_inactive_until_configured(self):
        sampler = Sampler()
        sampler.reset()
        if not sampler.active:  # env may force it on in the CI lane
            assert all(sampler.decide("query.execute") for _ in range(20))
            assert sampler.kept == 0  # inactive: no counters recorded

    def test_head_sampling_is_deterministic(self):
        sampler = Sampler()
        sampler.configure(default_rate=0.25)
        decisions = [sampler.decide("query.execute") for _ in range(8)]
        assert decisions == [True, False, False, False] * 2
        assert sampler.kept == 2 and sampler.dropped == 6

    def test_per_kind_rates_with_prefix_match(self):
        sampler = Sampler()
        sampler.configure(
            default_rate=1.0, rates={"query": 0.5, "query.execute": 0.0}
        )
        assert sampler.rate_for("query.execute") == 0.0    # exact
        assert sampler.rate_for("query.plan") == 0.5       # prefix
        assert sampler.rate_for("logic.chase") == 1.0      # default
        assert not sampler.decide("query.execute")
        assert sampler.decide("logic.chase")

    def test_env_parsing(self):
        from repro.observability.sampling import _parse_env

        assert _parse_env("") is None
        assert _parse_env("nonsense=x") is None
        assert _parse_env("0.25")["default"] == 0.25
        parsed = _parse_env("query.execute=0.1,default=0.5,tail_ms=99")
        assert parsed["rates"] == {"query.execute": 0.1}
        assert parsed["default"] == 0.5 and parsed["tail_ms"] == 99.0

    def test_head_dropped_root_not_kept(self):
        obs.enable()
        SAMPLER.configure(default_rate=0.5, tail_keep_ms=10_000.0)
        with obs.span("req"):
            pass
        with obs.span("req"):  # second of kind: dropped, fast, no error
            pass
        assert len(tracer.roots) == 1
        assert SAMPLER.snapshot()["dropped"] == 1

    def test_tail_keep_promotes_slow_trace(self):
        obs.enable()
        SAMPLER.configure(default_rate=0.5, tail_keep_ms=0.0)
        with obs.span("req"):
            pass
        with obs.span("req") as second:  # head-dropped, tail-promoted
            with obs.span("child"):
                pass
        assert len(tracer.roots) == 2
        assert second.sampled and second.children[0].sampled
        assert SAMPLER.snapshot()["tail_promoted"] == 1

    def test_tail_keep_promotes_error_trace(self):
        obs.enable()
        SAMPLER.configure(default_rate=0.5, tail_keep_ms=10_000.0)
        with obs.span("req"):
            pass
        with pytest.raises(RuntimeError):
            with obs.span("req"):
                raise RuntimeError("fail")
        assert len(tracer.roots) == 2
        assert tracer.roots[1].attributes["error"] == "RuntimeError"

    def test_children_inherit_drop_decision(self):
        obs.enable()
        SAMPLER.configure(default_rate=0.5, tail_keep_ms=10_000.0)
        with obs.span("req"):
            pass
        with obs.span("req") as root:
            with obs.span("child") as child:
                assert child.sampled is False
                assert child.trace_id == root.trace_id
        assert len(tracer.roots) == 1


# ----------------------------------------------------------------------
# one request through the engine (the class keeps the name it had when
# p2p hops ran on threads of their own)
# ----------------------------------------------------------------------
def _peer_network(peers=4, rows=30):
    network = PeerNetwork()
    schemas = []
    for i in range(peers):
        schemas.append(
            SchemaBuilder(f"P{i}").entity(f"R{i}", key=["k"])
            .attribute("k", INT).attribute("v", INT).build()
        )
        data = None
        if i == 0:
            data = Instance()
            for r in range(rows):
                data.add("R0", k=r, v=r * 2)
        network.add_peer(f"p{i}", schemas[i], data)
    for i in range(peers - 1):
        network.add_mapping(
            f"p{i}", f"p{i + 1}",
            Mapping(schemas[i], schemas[i + 1], [
                parse_tgd(f"R{i}(k=x, v=y) -> R{i + 1}(k=x, v=y)")
            ]),
        )
    return network


class TestCrossThreadJoins:
    @pytest.mark.parametrize("hops", [2, 4])
    def test_end_to_end_exchange_feeding_p2p(self, hops):
        """The acceptance scenario: exchanges feeding p2p propagation,
        one ``propagate_update`` per batch inside one request, yield
        ONE trace, recorded wholly on the caller's thread, with every
        chase-round journal event carrying that trace_id."""
        obs.enable()
        SAMPLER.configure(default_rate=1.0)
        from repro.observability.journal import JOURNAL

        network = _peer_network(peers=hops + 1, rows=40)
        batches = [
            UpdateSet().insert("R0", k=200 + i, v=i) for i in range(8)
        ]
        with obs.span("request") as request:
            for batch in batches:
                network.propagate_update("p0", f"p{hops}", batch)
        spans = _all_spans()
        trace_id = _assert_connected_single_trace(spans)
        assert trace_id == request.trace_id
        assert len([s for s in spans
                    if s.name == "runtime.p2p.propagate_update"]) == 8
        assert {s.thread for s in spans} == {request.thread}

        round_events = JOURNAL.events(kind="chase.round")
        assert round_events
        assert all(e.trace_id == trace_id for e in round_events)


# ----------------------------------------------------------------------
# trace_id plumbing into exports and the query events
# ----------------------------------------------------------------------
class TestTraceIdPlumbing:
    def test_span_export_includes_trace_id(self, tmp_path):
        import json

        obs.enable()
        with obs.span("request"):
            with obs.span("inner"):
                pass
        path = tracer.export_jsonl(tmp_path / "spans.jsonl")
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len({r["trace_id"] for r in records}) == 1
        assert all(len(r["trace_id"]) == 32 for r in records)

    def test_query_log_entries_carry_trace_id(self):
        from repro.algebra import expressions as E
        from repro.algebra.evaluator import evaluate
        from repro.observability.journal import JOURNAL

        inst = Instance()
        for i in range(10):
            inst.insert("t", {"a": i})
        obs.enable()
        with obs.span("request") as root:
            evaluate(E.Scan("t"), inst)
        events = [e for e in JOURNAL.events() if e.kind == "query"]
        assert events
        assert events[-1].trace_id == root.trace_id
        assert events[-1].to_dict()["trace_id"] == root.trace_id
