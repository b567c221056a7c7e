"""Hierarchical span tracer with request-scoped trace context.

A *span* is one timed region of engine work — an operator invocation, a
runtime-service call, a chase run.  Spans nest: each thread keeps a
stack of active spans, and a span started while another is active
becomes its child.  Every span carries the **trace id** of its root
(W3C-style 32-hex lowercase), so one request yields one correlatable
tree.  The runtime starts no threads, so a request's spans all open on
the caller's thread; a span started on some other thread has no
parent there and roots a trace of its own.

Root spans pass through the head sampler
(:data:`repro.observability.sampling.SAMPLER`): a head-dropped trace is
still built and timed, but is only attached to the tracer's root list
if, at finish time, it turns out slow or errored (tail-keep).  The
span context manager stamps an ``error`` attribute on exceptions, which
is what makes error traces tail-keepable.

The tracer is a process-wide singleton (:data:`tracer`) guarded by
:data:`repro.observability.state.STATE`: while disabled,
:meth:`Tracer.span` is a no-op context manager that yields ``None`` and
touches no shared state.

Exports: :meth:`Tracer.render` prints the tree with per-span wall time
and attributes; :meth:`Tracer.export_jsonl` writes one JSON object per
span (see docs/OBSERVABILITY.md for the schema).  Finishing a span also
feeds the metrics registry — a ``span.<name>.calls`` counter and a
``span.<name>.wall_ms`` histogram — which is what makes operator
latency summaries exportable without any extra wiring.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.observability.sampling import SAMPLER
from repro.observability.state import STATE


class Span:
    """One timed, attributed region of work.

    A hand-rolled ``__slots__`` class rather than a dataclass: one
    ``Span`` is allocated per instrumented call on the enabled hot
    path, and the slim constructor is a measurable part of the
    enabled-overhead contract.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "started_at", "trace_id",
        "attributes", "children", "wall_ms", "cpu_ms", "thread",
        "sampled", "_wall0", "_cpu0",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        started_at: float,                 # epoch seconds
        trace_id: str = "",
        attributes: Optional[dict] = None,
        children: Optional[list] = None,
        wall_ms: Optional[float] = None,   # set when the span finishes
        cpu_ms: Optional[float] = None,
        thread: str = "",
        sampled: bool = True,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = started_at
        self.trace_id = trace_id
        self.attributes = attributes if attributes is not None else {}
        self.children = children if children is not None else []
        self.wall_ms = wall_ms
        self.cpu_ms = cpu_ms
        self.thread = thread
        self.sampled = sampled
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __repr__(self) -> str:
        return (f"Span(name={self.name!r}, span_id={self.span_id!r}, "
                f"parent_id={self.parent_id!r}, "
                f"trace_id={self.trace_id!r}, wall_ms={self.wall_ms!r})")

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: object) -> None:
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": self.started_at,
            "wall_ms": self.wall_ms,
            "cpu_ms": self.cpu_ms,
            "thread": self.thread,
            "attributes": self.attributes,
        }


class Tracer:
    """Thread-safe hierarchical tracer with a per-thread active stack."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self.roots: list[Span] = []
        # Per-span-name (calls counter, wall_ms histogram) pairs so
        # finish() skips the f-string + registry lookup per span;
        # invalidated when the registry generation moves (reset).
        self._metric_cache: dict[str, tuple] = {}
        self._metric_gen = -1

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost active span of this thread (None when idle or
        tracing is disabled)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def start(self, name: str, **attributes: object) -> Span:
        """Begin a span unconditionally (callers must have checked
        ``STATE.enabled``; prefer :meth:`span`).

        Parentage: the innermost active span of this thread, else a
        new root.  Roots mint a fresh trace id and pass through the
        head sampler; children inherit both the trace id and the
        sampling decision."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            with self._lock:
                span_id = f"s{next(self._ids):04d}"
            trace_id = parent.trace_id
            sampled = parent.sampled
        else:
            with self._lock:
                span_id = f"s{next(self._ids):04d}"
                trace_id = f"{next(self._trace_ids):032x}"
            sampled = SAMPLER.decide(name)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            started_at=time.time(),
            trace_id=trace_id,
            # **attributes is already a per-call dict: no copy needed.
            attributes=attributes,
            thread=threading.current_thread().name,
            sampled=sampled,
        )
        if parent is not None:
            parent.children.append(span)
        elif sampled:
            with self._lock:
                self.roots.append(span)
        # A head-dropped root is kept off the root list for now; it is
        # promoted at finish time if slow or errored (tail-keep).
        stack.append(span)
        span._wall0 = time.perf_counter()
        span._cpu0 = time.process_time()
        return span

    def finish(self, span: Span) -> None:
        span.wall_ms = (time.perf_counter() - span._wall0) * 1000.0
        span.cpu_ms = (time.process_time() - span._cpu0) * 1000.0
        stack = self._stack()
        if span in stack:            # tolerate mismatched finish order
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        from repro.observability.metrics import registry

        if not span.sampled and span.parent_id is None:
            # Tail-keep: promote slow/error traces after the fact.
            if (
                span.wall_ms >= SAMPLER.tail_keep_ms
                or "error" in span.attributes
            ):
                span.sampled = True
                self._promote(span)
                SAMPLER.note_tail_promoted()
                registry.counter("trace.sampler.tail_promoted").inc()
            else:
                registry.counter("trace.sampler.dropped").inc()
        if self._metric_gen != registry.generation:
            self._metric_cache = {}
            self._metric_gen = registry.generation
        pair = self._metric_cache.get(span.name)
        if pair is None:
            pair = (
                registry.counter(f"span.{span.name}.calls"),
                registry.histogram(f"span.{span.name}.wall_ms"),
            )
            self._metric_cache[span.name] = pair
        pair[0].inc()
        pair[1].observe(span.wall_ms)

    def _promote(self, root: Span) -> None:
        """Attach a tail-kept root (and its whole tree) to the kept
        set, marking every reachable span sampled."""
        stack = [root]
        while stack:
            node = stack.pop()
            node.sampled = True
            stack.extend(node.children)
        with self._lock:
            self.roots.append(root)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Optional[Span]]:
        """Context manager for one span; yields ``None`` (and does no
        work at all) while tracing is disabled.  Exceptions stamp an
        ``error`` attribute (the tail-keep trigger) and propagate."""
        if not STATE.enabled:
            yield None
            return
        span = self.start(name, **attributes)
        try:
            yield span
        except BaseException as exc:
            span.set_attribute("error", type(exc).__name__)
            raise
        finally:
            self.finish(span)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.roots = []
            self._ids = itertools.count(1)
            self._trace_ids = itertools.count(1)
        self._local = threading.local()

    def iter_spans(self) -> Iterator[Span]:
        """All recorded spans, depth-first.

        Copy-on-read: the root list and each child list are copied
        before traversal, so exporting or rendering while another
        thread is still recording spans never raises ``list changed
        size during iteration`` (late spans may simply be absent)."""
        with self._lock:
            stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(list(span.children)))

    def span_count(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def trace_ids(self) -> list[str]:
        """Distinct trace ids across the kept roots, in root order."""
        seen: dict[str, None] = {}
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            seen.setdefault(root.trace_id)
        return list(seen)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """One JSON object per span, parents before children."""
        path = Path(path)
        lines = [
            json.dumps(span.to_dict(), default=str)
            for span in self.iter_spans()
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def render(self, attributes: bool = True) -> str:
        """The span tree as indented text with per-span wall time.
        Copy-on-read like :meth:`iter_spans` — safe against concurrent
        recording."""
        with self._lock:
            roots = list(self.roots)
        if not roots:
            return "(no spans recorded)"
        lines = [f"trace: {self.span_count()} spans, "
                 f"{len(roots)} root(s)"]

        def emit(span: Span, prefix: str, is_last: bool) -> None:
            connector = "└─ " if is_last else "├─ "
            wall = f"{span.wall_ms:.2f}ms" if span.wall_ms is not None \
                else "(open)"
            attrs = ""
            if attributes and span.attributes:
                rendered = " ".join(
                    f"{k}={v}" for k, v in sorted(span.attributes.items())
                )
                attrs = f"  [{rendered}]"
            lines.append(
                f"{prefix}{connector}{span.name}  {wall}"
                f"  ({span.span_id}){attrs}"
            )
            child_prefix = prefix + ("   " if is_last else "│  ")
            children = list(span.children)
            for index, child in enumerate(children):
                emit(child, child_prefix, index == len(children) - 1)

        for index, root in enumerate(roots):
            emit(root, "", index == len(roots) - 1)
        return "\n".join(lines)


#: Process-wide tracer used by all engine instrumentation.
tracer = Tracer()


def current_span() -> Optional[Span]:
    """The innermost active span of the calling thread."""
    return tracer.current()


def current_trace_id() -> str:
    """The calling thread's trace id — from its innermost active span;
    empty when none is open."""
    span = tracer.current()
    return span.trace_id if span is not None else ""
