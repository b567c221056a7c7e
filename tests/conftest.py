"""Shared test fixtures.

Observability state (the span tracer, the metrics registry, the event
journal with its ``query`` events, the trace sampler, the health
monitor, the estimator config, and the process-wide enabled flag) is a
process singleton, so a test that enables tracing and fails mid-way
would otherwise leak spans, metrics, journal events, sampler counters
or the health monitor's last report into every later test's
assertions.  The
autouse fixture below restores a clean state around *every* test;
``obs.reset()`` covers the tracer, the registry, the journal
(including its JSONL sink and its capacity, restored to the default),
the sampler (re-reading ``REPRO_TRACE_SAMPLE``), the health monitor
(default thresholds, no last report), and the estimator tunables.

Setting ``REPRO_OBSERVABILITY=1`` runs the whole suite with
observability *enabled* instead (the CI lane that catches state-leak
and guard-ordering bugs the disabled-default runs can't see), and
``REPRO_TRACE_SAMPLE=1`` additionally activates the trace sampler in
keep-all mode; tests that assert on the disabled default manage the
flag themselves via their own fixtures, which run after this one.
"""

import os

import pytest

import repro.observability as obs

_FORCED = os.environ.get("REPRO_OBSERVABILITY", "").strip() not in ("", "0")


@pytest.fixture(autouse=True)
def _reset_observability():
    """Guarantee each test starts and ends with empty observability
    state (disabled by default; enabled under REPRO_OBSERVABILITY=1),
    so span/metric/journal/sampler/health assertions cannot leak
    across tests."""
    obs.reset()
    if _FORCED:
        obs.enable()
    else:
        obs.disable()
    yield
    obs.disable()
    obs.reset()
