"""Plan-fingerprinted query log.

A bounded in-memory ring buffer of recent query executions, recorded
by :func:`repro.algebra.evaluator.evaluate` (both engines) while
observability is enabled.  Each entry carries the plan's structural
fingerprint (the plan-cache key, so log entries correlate with cached
plans and with ``query.execute`` spans), the engine, whether the plan
cache hit, wall time, output rows, and — when the cardinality
estimator could score the plan — the worst estimate↔actual divergent
node.  Entries over the slow-query threshold are marked ``slow``;
entries whose flagged divergence scheduled an adaptive re-optimization
(see :meth:`repro.algebra.plan_cache.PlanCache.note_divergence`) are
marked ``reopt``.

Like the tracer and the metrics registry, the log is process-wide
(:data:`QUERY_LOG`), disabled-by-default via the same ``STATE.enabled``
guard (callers check it; the log itself just stores), and cleared by
:func:`repro.observability.reset`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Optional

DEFAULT_CAPACITY = 256
DEFAULT_SLOW_MS = 100.0


class QueryLogEntry:
    """One recorded query execution."""

    __slots__ = (
        "seq",
        "when",
        "fingerprint",
        "engine",
        "cache_hit",
        "wall_ms",
        "rows_out",
        "worst",
        "slow",
        "reopt",
        "trace_id",
    )

    def __init__(
        self,
        seq: int,
        when: float,
        fingerprint: str,
        engine: str,
        cache_hit: bool,
        wall_ms: float,
        rows_out: int,
        worst: Optional[dict],
        slow: bool,
        reopt: bool = False,
        trace_id: str = "",
    ) -> None:
        self.seq = seq
        self.when = when
        self.fingerprint = fingerprint
        self.engine = engine
        self.cache_hit = cache_hit
        self.wall_ms = wall_ms
        self.rows_out = rows_out
        self.worst = worst
        self.slow = slow
        self.reopt = reopt
        self.trace_id = trace_id

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "when": self.when,
            "fingerprint": self.fingerprint,
            "engine": self.engine,
            "cache_hit": self.cache_hit,
            "wall_ms": self.wall_ms,
            "rows_out": self.rows_out,
            "worst_divergent": self.worst,
            "slow": self.slow,
            "reopt": self.reopt,
            "trace_id": self.trace_id,
        }

    def render(self) -> str:
        parts = [
            f"#{self.seq}",
            self.fingerprint[:12],
            self.engine,
            "hit" if self.cache_hit else "miss",
            f"{self.wall_ms:.2f}ms",
            f"rows={self.rows_out}",
        ]
        if self.worst is not None:
            flag = " ⚠" if self.worst.get("flagged") else ""
            parts.append(
                f"div=×{self.worst['ratio']:.1f}"
                f"@#{self.worst['node_id']}{flag}"
            )
        if self.reopt:
            parts.append("REOPT")
        if self.slow:
            parts.append("SLOW")
        return "  ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryLogEntry {self.render()}>"


class QueryLog:
    """Thread-safe bounded ring buffer of :class:`QueryLogEntry`.

    ``capacity`` bounds memory (oldest entries fall off); ``slow_ms``
    is the slow-query threshold applied at record time.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_ms: float = DEFAULT_SLOW_MS,
    ) -> None:
        self._lock = threading.Lock()
        self._entries: deque[QueryLogEntry] = deque(maxlen=capacity)
        self.slow_ms = slow_ms
        self._seq = 0

    # ------------------------------------------------------------------
    def configure(
        self,
        capacity: Optional[int] = None,
        slow_ms: Optional[float] = None,
    ) -> None:
        """Adjust bounds in place (existing entries kept, oldest
        dropped if the new capacity is smaller)."""
        with self._lock:
            if capacity is not None and capacity != self._entries.maxlen:
                self._entries = deque(self._entries, maxlen=capacity)
            if slow_ms is not None:
                self.slow_ms = slow_ms

    @property
    def capacity(self) -> int:
        return self._entries.maxlen

    # ------------------------------------------------------------------
    def record(
        self,
        fingerprint: str,
        engine: str,
        cache_hit: bool,
        wall_ms: float,
        rows_out: int,
        worst: Optional[dict] = None,
        reopt: bool = False,
    ) -> QueryLogEntry:
        # Stamp the recording thread's trace id so log entries line up
        # with the span tree of the request that ran the query.
        from repro.observability.tracing import current_trace_id

        entry = QueryLogEntry(
            seq=0,
            when=time.time(),
            fingerprint=fingerprint,
            engine=engine,
            cache_hit=cache_hit,
            wall_ms=wall_ms,
            rows_out=rows_out,
            worst=worst,
            slow=wall_ms >= self.slow_ms,
            reopt=reopt,
            trace_id=current_trace_id(),
        )
        with self._lock:
            self._seq += 1
            entry.seq = self._seq
            self._entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    def entries(self) -> list[QueryLogEntry]:
        """A stable copy, oldest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def recorded(self) -> int:
        """Total entries ever recorded (including rotated-out ones)."""
        with self._lock:
            return self._seq

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seq = 0

    # ------------------------------------------------------------------
    def slow_entries(self) -> list[QueryLogEntry]:
        return [entry for entry in self.entries() if entry.slow]

    def render(self, limit: int = 20, slow_only: bool = False) -> str:
        """The newest ``limit`` entries, oldest first, one per line."""
        entries = self.slow_entries() if slow_only else self.entries()
        if not entries:
            return "(query log empty)"
        shown = entries[-limit:]
        lines = [entry.render() for entry in shown]
        hidden = len(entries) - len(shown)
        if hidden:
            lines.insert(0, f"… {hidden} older entries")
        return "\n".join(lines)

    def export_jsonl(self) -> str:
        """All entries as JSON Lines, oldest first."""
        return "\n".join(
            json.dumps(entry.to_dict(), sort_keys=True, default=repr)
            for entry in self.entries()
        )


#: Process-wide query log (see module docstring).
QUERY_LOG = QueryLog()
