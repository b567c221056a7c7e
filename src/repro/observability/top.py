"""`repro top`: a live terminal dashboard over the telemetry state.

One render frame combines, top to bottom:

* the health line — latest :class:`HealthReport` signal statuses;
* the busiest span kinds — ``span.*.wall_ms`` histograms ranked by
  total wall time, with call counts and p50/p99;
* key engine counters and gauges (chase, plan cache, queries,
  sampler);
* the journal tail — the most recent engine events other than
  ``query`` (``repro querylog`` lists those).

Rendering is pure read (registry snapshot + journal snapshot + one
health evaluation), so a frame can be taken while the engine is mid
request.  The CLI loop clears the screen between frames; ``--once``
prints a single frame for scripting.
"""

from __future__ import annotations

import time
from typing import Optional

#: Counter/gauge names (exact or dotted prefix) surfaced in the
#: dashboard's "engine counters" block, in display order.
KEY_COUNTERS: tuple[str, ...] = (
    "query.execute.count",
    "query.plan_cache.hits",
    "query.plan_cache.misses",
    "query.plan_cache.evictions",
    "query.reopt.scheduled",
    "query.reopt.applied",
    "query.log.slow",
    "chase.runs",
    "chase.steps",
    "trace.sampler",
    "health.alerts",
)


def _matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(
        name == p or name.startswith(p + ".") for p in patterns
    )


def render_top(
    span_limit: int = 8,
    journal_limit: int = 8,
    now: Optional[float] = None,
) -> str:
    """One dashboard frame as plain text."""
    from repro.observability.health import MONITOR
    from repro.observability.journal import JOURNAL
    from repro.observability.metrics import registry
    from repro.observability.sampling import SAMPLER
    from repro.observability.tracing import tracer

    lines: list[str] = []
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(now if now is not None else time.time())
    )
    sampler = SAMPLER.snapshot()
    sampler_note = (
        f"sampler kept={sampler['kept']} dropped={sampler['dropped']} "
        f"tail+={sampler['tail_promoted']}"
        if sampler["active"] else "sampler off"
    )
    lines.append(
        f"repro top · {stamp} · traces={len(tracer.trace_ids())} "
        f"spans={tracer.span_count()} · {sampler_note}"
    )
    lines.append("")

    # health
    report = MONITOR.evaluate()
    lines.append(report.render())
    lines.append("")

    # busiest span kinds by total wall time
    snapshot = registry.snapshot()
    span_rows = []
    for name, data in snapshot.items():
        if not (name.startswith("span.") and name.endswith(".wall_ms")):
            continue
        if data["type"] != "histogram" or not data["count"]:
            continue
        kind = name[len("span."):-len(".wall_ms")]
        span_rows.append((data["sum"], kind, data))
    span_rows.sort(reverse=True)
    lines.append(f"busiest spans (top {span_limit} by total wall time)")
    if not span_rows:
        lines.append("  (no spans recorded)")
    for total, kind, data in span_rows[:span_limit]:
        p50 = data["p50"] if data["p50"] is not None else 0.0
        p99 = data["p99"] if data["p99"] is not None else 0.0
        lines.append(
            f"  {kind:<34s} {total:>10.1f}ms total  "
            f"×{data['count']:<6d} p50={p50:.2f}ms p99={p99:.2f}ms"
        )
    lines.append("")

    # key engine counters/gauges
    lines.append("engine counters")
    shown = 0
    for name in sorted(snapshot):
        data = snapshot[name]
        if data["type"] == "histogram" or not _matches(name, KEY_COUNTERS):
            continue
        value = data["value"]
        if value is None:
            continue
        lines.append(f"  {name:<40s} {value}")
        shown += 1
    if not shown:
        lines.append("  (none recorded)")
    lines.append("")

    # journal tail; `query` events would crowd out the rare kinds, and
    # `repro querylog` is their view
    others = [e for e in JOURNAL.events() if e.kind != "query"]
    events = others[-journal_limit:]
    lines.append(
        f"journal (last {journal_limit} of {len(others)} non-query events)"
    )
    if not events:
        lines.append("  (journal empty)")
    for event in events:
        lines.append("  " + event.render())
    return "\n".join(lines)
