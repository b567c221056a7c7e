"""Trace-context capture and cross-thread propagation.

A :class:`TraceContext` is a portable handle on "the request this work
belongs to": the W3C-style trace id plus the span the work should nest
under.  The engine's fan-out points — p2p hop threads in
:mod:`repro.runtime.p2p`, the :class:`QueuedSynchronizer` worker in
:mod:`repro.runtime.synchronization` — capture the context on the
caller's thread and restore it on the worker thread, so spans started
over there automatically join the caller's trace instead of becoming
orphan roots.  This replaces the old manual ``span(parent=...)``
re-parenting.

Three usage shapes:

* ``ctx = capture()`` then ``with activate(ctx): ...`` on the worker —
  explicit capture/restore around a block;
* ``fn = propagating(fn)`` — wrap a callable *at submit time*; every
  invocation runs under the context that was current when the wrapper
  was built.  Safe for reused pool threads: the context is attached
  per call and always detached;
* ``ctx.traceparent()`` — the W3C ``traceparent`` rendering, for
  logging or future wire protocols.

All helpers are no-ops when tracing is disabled (``capture()`` returns
``None`` and ``activate(None)`` / ``propagating`` pass through), so the
wrappers can sit unconditionally on the thread-spawn paths.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

from repro.observability.tracing import Span, tracer

_F = TypeVar("_F", bound=Callable)


@dataclass(frozen=True)
class TraceContext:
    """An immutable handle on a trace position: the trace id plus the
    span new work should nest under."""

    trace_id: str
    span: Optional[Span]

    @property
    def span_id(self) -> str:
        return self.span.span_id if self.span is not None else ""

    def traceparent(self) -> str:
        """W3C ``traceparent`` header value
        (``00-<trace_id>-<span_id16>-<flags>``); the sampled flag
        mirrors the head-sampling decision."""
        span_id = (self.span_id or "0").replace("s", "")
        flags = "01"
        if self.span is not None and not self.span.sampled:
            flags = "00"
        return f"00-{self.trace_id:0>32}-{span_id:0>16}-{flags}"


def current_context() -> Optional[TraceContext]:
    """The calling thread's trace position — from its innermost active
    span, or an attached remote context; ``None`` when idle."""
    span = tracer.current_parent()
    if span is None:
        return None
    return TraceContext(trace_id=span.trace_id, span=span)


def capture() -> Optional[TraceContext]:
    """Capture the calling thread's trace context for hand-off to a
    worker thread.  ``None`` when there is nothing to propagate (no
    active span — including the tracing-disabled case)."""
    return current_context()


@contextmanager
def activate(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Restore a captured context on this thread for the duration of
    the block: spans started inside nest under ``ctx.span`` and carry
    its trace id.  ``activate(None)`` is a no-op pass-through."""
    if ctx is None:
        yield None
        return
    token = tracer.attach(ctx)
    try:
        yield ctx
    finally:
        tracer.detach(token)


def propagating(fn: _F, ctx: Optional[TraceContext] = None) -> _F:
    """Wrap ``fn`` so every call runs under the trace context current
    at *wrap* time (or an explicitly supplied one).

    This is the executor-submit adapter: build the wrapper on the
    coordinator thread while its span is open, hand it to a pool /
    ``Thread`` target, and the worker's spans join the coordinator's
    trace.  When there is no context to carry, ``fn`` is returned
    unwrapped (zero overhead on the disabled path)."""
    if ctx is None:
        ctx = capture()
    if ctx is None:
        return fn

    @functools.wraps(fn)
    def runner(*args, **kwargs):
        with activate(ctx):
            return fn(*args, **kwargs)

    return runner  # type: ignore[return-value]
