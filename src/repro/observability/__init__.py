"""Engine-wide tracing and metrics (dependency-free).

The paper's runtime is a *services* layer — mapping debugging, data
provenance, inspection of executable transformations (§5) — and every
known complexity cliff (SO-tgd composition's exponential lower bound,
quasi-inverse search) makes per-operator telemetry the prerequisite
for perf work.  This package provides:

* a hierarchical **span tracer** (:mod:`repro.observability.tracing`)
  — context-manager API, thread-local active-span stack, wall/CPU time
  via ``perf_counter``/``process_time``, structured attributes, JSONL
  export, tree rendering;
* a **metrics registry** (:mod:`repro.observability.metrics`) —
  counters, gauges, fixed-bucket histograms with percentile summaries;
* an :func:`instrumented` decorator wiring both through any callable;
* adaptive head+tail trace **sampling**
  (:mod:`repro.observability.sampling`);
* a bounded, trace-correlated **event journal**
  (:mod:`repro.observability.journal`) of engine lifecycle events —
  observed queries, chase rounds, re-optimizations, evictions, and
  every silent fallback;
* a **health monitor** (:mod:`repro.observability.health`) judging
  metric-derived signals against SLO thresholds, behind
  ``repro health`` and the live ``repro top`` dashboard
  (:mod:`repro.observability.top`).

**Disabled by default.**  Every instrumented site guards on one shared
flag; :func:`enable` flips it for a session, :func:`disable` restores
the near-zero-overhead state.  ``repro trace <script>`` and
``repro metrics <script>`` expose the collected data on the CLI;
``benchmarks/harness.py`` routes benchmark runs through the registry.
"""

from __future__ import annotations

from repro.observability.health import (
    MONITOR,
    HealthConfig,
    HealthMonitor,
    HealthReport,
    HealthSignal,
)
from repro.observability.instrument import instrumented
from repro.observability.journal import (
    JOURNAL,
    EventJournal,
    JournalEvent,
    journal,
)
from repro.observability.metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.observability.sampling import SAMPLER, Sampler
from repro.observability.profile import (
    RollupEntry,
    chrome_trace_events,
    critical_path,
    export_chrome_trace,
    render_critical_path,
    render_rollup,
    rollup,
    span_self_ms,
)
from repro.observability.state import STATE
from repro.observability.top import render_top
from repro.observability.tracing import (
    Span,
    Tracer,
    current_span,
    current_trace_id,
    tracer,
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "EventJournal",
    "Gauge",
    "HealthConfig",
    "HealthMonitor",
    "HealthReport",
    "HealthSignal",
    "Histogram",
    "JOURNAL",
    "JournalEvent",
    "MONITOR",
    "MetricsRegistry",
    "RollupEntry",
    "SAMPLER",
    "STATE",
    "Sampler",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "critical_path",
    "current_span",
    "current_trace_id",
    "disable",
    "enable",
    "export_chrome_trace",
    "instrumented",
    "is_enabled",
    "journal",
    "registry",
    "render_critical_path",
    "render_rollup",
    "render_top",
    "reset",
    "rollup",
    "span",
    "span_self_ms",
    "tracer",
]


def enable() -> None:
    """Turn tracing + metric collection on, process-wide."""
    STATE.enabled = True


def disable() -> None:
    """Return to the near-zero-overhead disabled state (recorded spans
    and metrics are kept until :func:`reset`)."""
    STATE.enabled = False


def is_enabled() -> bool:
    return STATE.enabled


def reset() -> None:
    """Drop all recorded telemetry — spans, metrics and journal events
    (``query`` events included) — reset the health monitor, restore the
    journal's default capacity and the estimator tunables, and re-read
    the sampler's environment config."""
    from repro.observability.stats import ESTIMATION

    MONITOR.reset()
    tracer.reset()
    registry.reset()
    JOURNAL.clear()
    JOURNAL.configure(capacity=EventJournal.DEFAULT_CAPACITY)
    SAMPLER.reset()
    ESTIMATION.reset()


def span(name: str, **attributes: object):
    """Module-level shorthand for ``tracer.span(...)``."""
    return tracer.span(name, **attributes)
