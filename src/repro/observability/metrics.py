"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry (:data:`registry`) is a process-wide name → metric map.
Recording sites in the engine guard every update with
``STATE.enabled`` so a disabled registry costs one attribute check.
Each metric's update path (``inc`` / ``set`` / ``observe``) is
serialized on a per-metric lock, so threads a caller runs beside the
engine (``repro top``'s script thread) never lose increments; the
enable/disable switch itself stays unguarded for code (the benchmark
harness, tests) that manages it explicitly.

Histograms use *fixed* bucket bounds so percentile summaries need no
stored samples: a percentile is located in its bucket by cumulative
count and linearly interpolated inside it — the classical Prometheus
estimation, exact at bucket boundaries and bounded by the bucket width
in between.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from pathlib import Path
from typing import Optional, Sequence, Union

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``)."""
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prometheus_value(value: float) -> str:
    """Render a sample value: integral floats without the trailing
    ``.0`` noise (bucket bounds read as ``le="10"``, not ``le="10.0"``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and line feed."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text (backslash and line feed only — quotes
    are legal in help text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


#: Dotted-prefix → ``# HELP`` text for well-known metric families;
#: anything unmatched gets a generic line naming the source metric.
HELP_TEXTS: tuple[tuple[str, str], ...] = (
    ("span.", "Span timing recorded by the repro tracer"),
    ("chase.", "Chase engine activity"),
    ("query.plan_cache.", "Compiled-plan cache activity"),
    ("query.reopt.", "Adaptive re-optimization activity"),
    ("query.vectorized.", "Vectorized executor activity"),
    ("query.", "Query execution activity"),
    ("trace.sampler.", "Trace sampler decisions"),
    ("health.", "Health monitor activity"),
    ("runtime.", "Runtime service activity"),
)


def _help_for(name: str) -> str:
    for prefix, text in HELP_TEXTS:
        if name.startswith(prefix):
            return text
    return f"repro metric {name}"

#: Default bounds, tuned for millisecond latencies (spans) but serving
#: row/trigger counts acceptably; pass explicit bounds for counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0,
)

#: Bounds for size-like observations (delta sizes, row counts).
COUNT_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 50_000, 100_000,
)


class Counter:
    """A monotonically increasing count.

    Updates are serialized on a lock (the registry hands every metric
    its own lock): ``value += amount`` is a read-modify-write, so
    unguarded concurrent writers could lose increments."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None):
        self.name = name
        self.value = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins, atomically)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None):
        self.name = name
        self.value: Optional[float] = None
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self._lock = lock if lock is not None else threading.Lock()
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last: +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Estimated q-th percentile (q in [0, 100]) by cumulative
        bucket counts with linear interpolation inside the bucket.

        Edge semantics are exact rather than interpolated: ``None`` on
        an empty histogram, the observed ``min`` for ``q=0``, the
        observed ``max`` for ``q=100`` (``q`` outside [0, 100] is
        clamped), and the single observed value when all observations
        are equal — including overflow-bucket observations beyond the
        last bound, which interpolate between the last bound and
        ``max`` instead of against an unbounded bucket."""
        return self._estimate(
            self.bounds, list(self.bucket_counts), self.min, self.max, q
        )

    @staticmethod
    def _estimate(
        bounds: Sequence[float],
        bucket_counts: Sequence[int],
        minimum: Optional[float],
        maximum: Optional[float],
        q: float,
    ) -> Optional[float]:
        count = sum(bucket_counts)
        if not count or minimum is None or maximum is None:
            return None
        if minimum == maximum:
            return minimum          # one observation / one distinct value
        if q <= 0:
            return minimum
        if q >= 100:
            return maximum
        rank = q / 100.0 * count
        cumulative = 0
        for index, bucket_count in enumerate(bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = bounds[index - 1] if index > 0 else minimum
                upper = bounds[index] if index < len(bounds) else maximum
                lower = max(lower, minimum)
                upper = min(upper, maximum)
                if upper <= lower:
                    return upper    # zero-width after clamping
                fraction = (rank - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return maximum

    def summary(self) -> dict:
        # Copy-on-read: one consistent snapshot of the bucket counts
        # serves all three percentiles, and the count is derived from
        # that same copy, so a concurrent observe() can neither raise
        # nor tear the summary (it is at worst one observation stale).
        bucket_counts = list(self.bucket_counts)
        minimum, maximum, total = self.min, self.max, self.total
        count = sum(bucket_counts)
        return {
            "count": count,
            "sum": round(total, 6),
            "min": minimum,
            "max": maximum,
            "mean": round(total / count, 6) if count else None,
            "p50": self._estimate(self.bounds, bucket_counts,
                                  minimum, maximum, 50),
            "p90": self._estimate(self.bounds, bucket_counts,
                                  minimum, maximum, 90),
            "p99": self._estimate(self.bounds, bucket_counts,
                                  minimum, maximum, 99),
        }

    def to_dict(self) -> dict:
        return {"type": "histogram", **self.summary()}


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name → metric, with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()
        #: Bumped on every :meth:`reset`; callers that cache metric
        #: objects (the tracer's per-span-name fast path) compare this
        #: to invalidate their caches.
        self.generation = 0

    def _get_or_create(self, name: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = factory()
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name, lock=threading.Lock()))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is a {type(metric).__name__}, "
                            "not a Counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name, lock=threading.Lock()))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is a {type(metric).__name__}, "
                            "not a Gauge")
        return metric

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, buckets or DEFAULT_BUCKETS,
                              lock=threading.Lock())
        )
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a {type(metric).__name__}, "
                            "not a Histogram")
        return metric

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._view())

    def reset(self) -> None:
        with self._lock:
            self._metrics = {}
            self.generation += 1

    def _view(self) -> dict[str, Metric]:
        """Copy-on-read: a stable map for iteration while writer
        threads may still be registering metrics (a live dict would
        raise ``RuntimeError: dictionary changed size``)."""
        with self._lock:
            return dict(self._metrics)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """JSON-ready {name: {type, ...values}} of every metric.

        Safe to call while other threads record: the name map is
        copied under the lock and each histogram summary reads one
        consistent copy of its bucket counts."""
        view = self._view()
        return {name: view[name].to_dict() for name in sorted(view)}

    def export_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.snapshot(), indent=2,
                                   default=str) + "\n")
        return path

    def render_prometheus(self) -> str:
        """Prometheus text-exposition rendering of every metric.

        Counters and gauges emit one sample each (unset gauges are
        skipped — Prometheus has no ``null``); histograms emit the
        standard cumulative ``_bucket{le="..."}`` series ending at
        ``le="+Inf"`` plus ``_sum`` and ``_count``.  Every family gets
        ``# HELP`` and ``# TYPE`` lines; metric names are sanitized to
        the Prometheus grammar (``.`` → ``_``) and label values are
        escaped per the exposition format."""
        view = self._view()
        lines: list[str] = []
        for name in sorted(view):
            metric = view[name]
            prom = _prometheus_name(name)
            help_line = f"# HELP {prom} {_escape_help(_help_for(name))}"
            if isinstance(metric, Counter):
                lines.append(help_line)
                lines.append(f"# TYPE {prom} counter")
                lines.append(f"{prom} {metric.value}")
            elif isinstance(metric, Gauge):
                if metric.value is None:
                    continue
                lines.append(help_line)
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom} {_prometheus_value(metric.value)}")
            else:
                # One consistent copy: writers may observe concurrently.
                bucket_counts = list(metric.bucket_counts)
                lines.append(help_line)
                lines.append(f"# TYPE {prom} histogram")
                cumulative = 0
                for bound, count in zip(metric.bounds, bucket_counts):
                    cumulative += count
                    bound_label = _escape_label_value(
                        _prometheus_value(bound)
                    )
                    lines.append(
                        f'{prom}_bucket{{le="{bound_label}"}}'
                        f" {cumulative}"
                    )
                cumulative += bucket_counts[-1]
                lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{prom}_sum {_prometheus_value(metric.total)}")
                lines.append(f"{prom}_count {cumulative}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable metric summaries, one line per metric."""
        view = self._view()
        if not view:
            return "(no metrics recorded)"
        lines = [f"metrics: {len(view)} recorded"]
        for name in sorted(view):
            metric = view[name]
            if isinstance(metric, Counter):
                lines.append(f"  {name} = {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"  {name} = {metric.value}")
            else:
                s = metric.summary()

                def fmt(v):
                    return f"{v:.3f}" if isinstance(v, float) else str(v)

                lines.append(
                    f"  {name}: count={s['count']} mean={fmt(s['mean'])} "
                    f"p50={fmt(s['p50'])} p90={fmt(s['p90'])} "
                    f"p99={fmt(s['p99'])} max={fmt(s['max'])}"
                )
        return "\n".join(lines)


#: Process-wide registry used by all engine instrumentation.
registry = MetricsRegistry()
