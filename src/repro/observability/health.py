"""Health monitor: SLO-threshold evaluation over engine metrics.

The monitor turns metrics-registry counters into a handful of
*signals* a human (or CI) can act on, each compared against a
configurable threshold:

* ``cache_eviction_rate`` — plan-cache evictions per lookup
  (``query.plan_cache.*``): thrash, i.e. the working set of plans no
  longer fits;
* ``divergence_rate`` — fraction of observed queries whose worst
  estimate↔actual divergence was flagged
  (``query.estimate.divergent / query.log.entries``): the statistics
  are stale;
* ``slow_query_rate`` — fraction of observed queries at or over
  ``SLOW_QUERY_MS`` (``query.log.slow / query.log.entries``).

Every signal reads the registry only, so all three cover the same
period — everything since the last :func:`repro.observability.reset`
— and none depends on what the journal's ring has already discarded.
Signals with too few samples report ``no-data`` rather than guessing.
Each breach journals a ``health.alert`` event and bumps the
``health.alerts`` counter, so alerts correlate with traces like any
other engine event.  Evaluation is one-shot on the caller's thread:
``repro health`` evaluates once and maps the report to CI-friendly
exit codes, and ``repro top`` calls :meth:`HealthMonitor.check` before
each frame it draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional


@dataclass(frozen=True)
class HealthConfig:
    """SLO thresholds and minimum-sample guards.

    Threshold fields end in ``_max``; a signal alerts when its value
    exceeds the threshold.  ``min_*`` fields guard against judging
    from too few samples (below them the signal is ``no-data``).
    """

    cache_eviction_rate_max: float = 0.5
    divergence_rate_max: float = 0.5
    slow_query_rate_max: float = 0.25
    min_cache_lookups: int = 20
    min_query_samples: int = 20

    def with_overrides(self, overrides: dict[str, float]) -> "HealthConfig":
        """A copy with ``key=value`` overrides applied; unknown keys
        raise ``KeyError`` (the CLI turns that into exit code 2)."""
        known = {f.name for f in fields(self)}
        for key in overrides:
            if key not in known:
                raise KeyError(key)
        ints = {"min_cache_lookups", "min_query_samples"}
        coerced = {
            k: int(v) if k in ints else float(v)
            for k, v in overrides.items()
        }
        return replace(self, **coerced)


@dataclass
class HealthSignal:
    """One evaluated signal: value vs threshold plus a status."""

    name: str
    value: Optional[float]
    threshold: float
    status: str                      # "ok" | "alert" | "no-data"
    detail: str = ""

    def render(self) -> str:
        marker = {"ok": "✓", "alert": "✗", "no-data": "·"}[self.status]
        value = "n/a" if self.value is None else f"{self.value:.3f}"
        line = (f"{marker} {self.name:<20s} {value:>10s}  "
                f"(max {self.threshold:g})")
        if self.detail:
            line += f"  {self.detail}"
        return line

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass
class HealthReport:
    """The full signal set from one evaluation."""

    signals: list[HealthSignal] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.alerts

    @property
    def alerts(self) -> list[HealthSignal]:
        return [s for s in self.signals if s.status == "alert"]

    def render(self) -> str:
        if not self.signals:
            return "(no health signals)"
        header = "health: OK" if self.ok else \
            f"health: {len(self.alerts)} ALERT(S)"
        return "\n".join([header] + [
            "  " + signal.render() for signal in self.signals
        ])

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "signals": [signal.to_dict() for signal in self.signals],
        }


class HealthMonitor:
    """Evaluates health signals on demand."""

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config or HealthConfig()
        self.last_report: Optional[HealthReport] = None

    # ------------------------------------------------------------------
    # signal derivation
    # ------------------------------------------------------------------
    def evaluate(self, config: Optional[HealthConfig] = None) -> HealthReport:
        """Derive every signal from the metrics registry.  Pure read —
        no journal events, no counters."""
        from repro.observability.metrics import registry

        cfg = config or self.config
        snapshot = registry.snapshot()

        def count(name: str) -> int:
            metric = snapshot.get(name)
            if metric is None or metric["type"] != "counter":
                return 0
            return metric["value"]

        signals: list[HealthSignal] = []

        # plan-cache thrash: evictions per lookup (the total counter;
        # the per-reason ones split the same evictions)
        lookups = (count("query.plan_cache.hits")
                   + count("query.plan_cache.misses"))
        evictions = count("query.plan_cache.evictions")
        value = None
        detail = f"lookups={lookups}<{cfg.min_cache_lookups}"
        if lookups >= cfg.min_cache_lookups:
            value = evictions / lookups
            detail = f"evictions={evictions} lookups={lookups}"
        signals.append(self._judge(
            "cache_eviction_rate", value, cfg.cache_eviction_rate_max,
            detail,
        ))

        # divergent and slow shares of the observed queries
        samples = count("query.log.entries")
        for name, counter, label, threshold in (
            ("divergence_rate", "query.estimate.divergent", "flagged",
             cfg.divergence_rate_max),
            ("slow_query_rate", "query.log.slow", "slow",
             cfg.slow_query_rate_max),
        ):
            value = None
            detail = f"queries={samples}<{cfg.min_query_samples}"
            if samples >= cfg.min_query_samples:
                hits = count(counter)
                value, detail = hits / samples, f"{label}={hits}/{samples}"
            signals.append(self._judge(name, value, threshold, detail))

        return HealthReport(signals=signals)

    @staticmethod
    def _judge(
        name: str,
        value: Optional[float],
        threshold: float,
        detail: str,
    ) -> HealthSignal:
        if value is None:
            status = "no-data"
        elif value > threshold:
            status = "alert"
        else:
            status = "ok"
        return HealthSignal(
            name=name, value=value, threshold=threshold,
            status=status, detail=detail,
        )

    # ------------------------------------------------------------------
    def check(self, config: Optional[HealthConfig] = None) -> HealthReport:
        """Evaluate and *act*: journal a ``health.alert`` event per
        breached signal and bump the ``health.alerts`` counter."""
        from repro.observability.journal import JOURNAL
        from repro.observability.metrics import registry
        from repro.observability.state import STATE

        report = self.evaluate(config)
        self.last_report = report
        if STATE.enabled:
            for signal in report.alerts:
                registry.counter("health.alerts").inc()
                JOURNAL.record(
                    "health.alert",
                    signal=signal.name,
                    value=round(signal.value, 4)
                    if signal.value is not None else None,
                    threshold=signal.threshold,
                    detail=signal.detail,
                )
        return report

    def reset(self) -> None:
        """Restore default thresholds and forget the last report."""
        self.config = HealthConfig()
        self.last_report = None


#: Process-wide monitor behind ``repro health`` / ``repro top``.
MONITOR = HealthMonitor()
