"""Bounded, thread-safe engine event journal.

Metrics say *how much*; traces say *how long*; the journal says *what
happened* — a structured, trace-correlated record of engine lifecycle
events that would otherwise be invisible: every observed query
execution (``query``: plan fingerprint, engine, cache hit, wall ms,
rows out, worst divergent node, re-optimization mark), chase rounds,
re-optimizations and plan-cache evictions, and every silent fallback
the engine takes (vectorized stage → row closures, incremental
maintenance → full re-exchange, a failed estimate or cost-based
plan), plus the health monitor's alerts.

Events live in a bounded ring (:class:`EventJournal`, default 512
entries) so an event flood costs one deque append per event and a
fixed amount of memory.  Whatever the health monitor judges is
counted in the metrics registry as well, so an event that rotates out
of the ring is never lost to a signal.  Each event carries the
recording thread's trace id (from its active span), which is what
lets ``repro top`` and post-mortems line journal entries up against
the span tree of one request.  An optional JSONL sink mirrors every
event to a file as it is recorded.

Recording is guarded by ``STATE.enabled`` at the call sites via the
:func:`journal` helper, preserving the disabled-overhead contract; the
``record_once`` variant dedupes hot-path events (e.g. a vectorized
stage falling back on every batch) to one entry per key per clear.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO, Optional, Union


class JournalEvent:
    """One structured engine event."""

    __slots__ = ("seq", "when", "kind", "trace_id", "attrs")

    def __init__(
        self,
        seq: int,
        when: float,
        kind: str,
        trace_id: str,
        attrs: dict,
    ) -> None:
        self.seq = seq
        self.when = when
        self.kind = kind
        self.trace_id = trace_id
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "when": self.when,
            "kind": self.kind,
            "trace_id": self.trace_id,
            **self.attrs,
        }

    def render(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        trace = self.trace_id[-8:] if self.trace_id else "-"
        return f"#{self.seq:<5d} {self.kind:<36s} trace={trace:<9s} {attrs}"


class EventJournal:
    """Bounded ring of :class:`JournalEvent` with an optional JSONL
    sink.  All operations take one lock, so threads a caller starts
    may record concurrently."""

    DEFAULT_CAPACITY = 512

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._events: deque[JournalEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._once: set[str] = set()
        self._sink: Optional[IO[str]] = None
        self._sink_path: Optional[Path] = None

    # ------------------------------------------------------------------
    def configure(
        self,
        capacity: Optional[int] = None,
        sink: Union[str, Path, None] = None,
    ) -> None:
        """Resize the ring and/or (re)open a JSONL sink.  ``sink=None``
        leaves the current sink alone; pass ``sink=""`` to close it."""
        with self._lock:
            if capacity is not None and capacity != self._events.maxlen:
                self._events = deque(self._events, maxlen=capacity)
            if sink is not None:
                self._close_sink_locked()
                if sink != "":
                    self._sink_path = Path(sink)
                    self._sink = open(self._sink_path, "a")

    def _close_sink_locked(self) -> None:
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None
        self._sink_path = None

    # ------------------------------------------------------------------
    def record(
        self, kind: str, trace_id: Optional[str] = None, **attrs: object
    ) -> JournalEvent:
        """Append one event.  The trace id defaults to the recording
        thread's active span."""
        if trace_id is None:
            from repro.observability.tracing import current_trace_id

            trace_id = current_trace_id()
        with self._lock:
            self._seq += 1
            event = JournalEvent(
                seq=self._seq,
                when=time.time(),
                kind=kind,
                trace_id=trace_id,
                attrs=attrs,
            )
            self._events.append(event)
            if self._sink is not None:
                try:
                    self._sink.write(
                        json.dumps(event.to_dict(), default=str) + "\n"
                    )
                    self._sink.flush()
                except OSError:
                    self._close_sink_locked()
        return event

    def record_once(
        self,
        key: str,
        kind: str,
        trace_id: Optional[str] = None,
        **attrs: object,
    ) -> Optional[JournalEvent]:
        """Record an event at most once per ``key`` until the next
        :meth:`clear` — the hot-path dedupe for per-batch fallbacks."""
        with self._lock:
            if key in self._once:
                return None
            self._once.add(key)
        return self.record(kind, trace_id=trace_id, **attrs)

    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> list[JournalEvent]:
        """A snapshot of the ring, oldest first, optionally filtered by
        kind (exact match or dotted prefix)."""
        with self._lock:
            events = list(self._events)
        if kind is None:
            return events
        return [
            e for e in events
            if e.kind == kind or e.kind.startswith(kind + ".")
        ]

    def tail(self, count: int = 10) -> list[JournalEvent]:
        with self._lock:
            events = list(self._events)
        return events[-count:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def capacity(self) -> int:
        return self._events.maxlen

    def render(self, count: Optional[int] = None) -> str:
        events = self.events()
        if count is not None:
            events = events[-count:]
        if not events:
            return "(journal empty)"
        return "\n".join(event.render() for event in events)

    def export_jsonl(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        events = self.events()
        lines = [json.dumps(e.to_dict(), default=str) for e in events]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def clear(self) -> None:
        """Drop all events, reset the sequence and the once-keys, and
        close any sink (tests must not leak file handles)."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._once.clear()
            self._close_sink_locked()


#: Process-wide journal used by all engine instrumentation.
JOURNAL = EventJournal()


def journal(kind: str, **attrs: object) -> None:
    """Record an engine event iff observability is enabled — the
    one-liner used at engine call sites."""
    from repro.observability.state import STATE

    if STATE.enabled:
        JOURNAL.record(kind, **attrs)
