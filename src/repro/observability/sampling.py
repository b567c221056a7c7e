"""Adaptive trace sampling: head decisions per root-span kind, with
tail-keep for slow or failed traces.

Always-on tracing in a high-traffic runtime cannot afford to *keep*
every trace, but it must still *time* every request — tail latency and
errors are exactly the traces worth keeping.  The sampler therefore
splits the decision:

* **head sampling** — when a *root* span starts, :meth:`Sampler.decide`
  answers "record this trace?" from a per-root-kind rate (longest
  dotted-prefix match, so ``query.execute`` can sample at 10% while
  ``logic.chase`` keeps everything).  Decisions are deterministic —
  a per-kind counter keeps every ``round(1/rate)``-th trace, starting
  with the first — so tests and replays see the same traces every run;
* **tail-keep** — a head-dropped trace is still built (its spans nest
  normally) but is not attached to the tracer's root list.  When the
  root finishes, the trace is *promoted* after the fact if it was slow
  (``tail_keep_ms``) or errored (the span context manager stamps an
  ``error`` attribute on exceptions).  Otherwise the whole tree is
  simply dropped and garbage-collected.

The sampler is configured from ``REPRO_TRACE_SAMPLE`` (re-read on
every :func:`repro.observability.reset`):

* ``REPRO_TRACE_SAMPLE=1`` — sampling active, keep-all rate (the CI
  lane's "always-on" setting);
* ``REPRO_TRACE_SAMPLE=0.25`` — keep every 4th trace of each kind;
* ``REPRO_TRACE_SAMPLE=query.execute=0.1,default=0.5,tail_ms=250`` —
  per-kind rates, a default, and the tail-keep threshold.

While unconfigured (no env var, no :meth:`Sampler.configure` call) the
sampler is *inactive*: every root is kept and no sampler counters are
recorded, which keeps the pre-sampling behaviour byte-identical.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

#: Environment knob, re-read by :meth:`Sampler.reset`.
ENV_VAR = "REPRO_TRACE_SAMPLE"

#: Default tail-keep threshold (ms): head-dropped traces slower than
#: this are promoted into the kept set when their root finishes.
DEFAULT_TAIL_KEEP_MS = 250.0


def _parse_env(raw: str) -> Optional[dict]:
    """Parse ``REPRO_TRACE_SAMPLE`` into ``{"default": float,
    "rates": {...}, "tail_ms": float}``; ``None`` when unset/invalid."""
    raw = raw.strip()
    if not raw:
        return None
    out = {"default": 1.0, "rates": {}, "tail_ms": DEFAULT_TAIL_KEEP_MS}
    try:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                out["default"] = float(part)
                continue
            key, value = part.split("=", 1)
            key = key.strip()
            if key == "default":
                out["default"] = float(value)
            elif key == "tail_ms":
                out["tail_ms"] = float(value)
            else:
                out["rates"][key] = float(value)
    except ValueError:
        return None
    return out


class Sampler:
    """Deterministic head sampler with per-root-kind rates.

    Thread-safe: decisions mutate per-kind counters under a lock (root
    spans can start on any thread).  Inactive until configured — see
    the module docstring.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.active = False
        self.default_rate = 1.0
        self.rates: dict[str, float] = {}
        self.tail_keep_ms = DEFAULT_TAIL_KEEP_MS
        self._counts: dict[str, int] = {}
        self.kept = 0
        self.dropped = 0
        self.tail_promoted = 0
        self.reset()

    # ------------------------------------------------------------------
    def configure(
        self,
        default_rate: Optional[float] = None,
        rates: Optional[dict[str, float]] = None,
        tail_keep_ms: Optional[float] = None,
    ) -> None:
        """Activate the sampler and set rates/thresholds in place."""
        with self._lock:
            self.active = True
            if default_rate is not None:
                self.default_rate = float(default_rate)
            if rates is not None:
                self.rates = dict(rates)
            if tail_keep_ms is not None:
                self.tail_keep_ms = float(tail_keep_ms)

    def reset(self) -> None:
        """Clear decision counters and re-apply ``REPRO_TRACE_SAMPLE``
        (inactive when the variable is unset)."""
        parsed = _parse_env(os.environ.get(ENV_VAR, ""))
        with self._lock:
            self._counts = {}
            self.kept = 0
            self.dropped = 0
            self.tail_promoted = 0
            if parsed is None:
                self.active = False
                self.default_rate = 1.0
                self.rates = {}
                self.tail_keep_ms = DEFAULT_TAIL_KEEP_MS
            else:
                self.active = True
                self.default_rate = parsed["default"]
                self.rates = parsed["rates"]
                self.tail_keep_ms = parsed["tail_ms"]

    # ------------------------------------------------------------------
    def rate_for(self, kind: str) -> float:
        """The sampling rate for a root-span kind: exact name, then
        longest dotted prefix, then the default."""
        rates = self.rates
        if kind in rates:
            return rates[kind]
        probe = kind
        while "." in probe:
            probe = probe.rsplit(".", 1)[0]
            if probe in rates:
                return rates[probe]
        return self.default_rate

    def decide(self, kind: str) -> bool:
        """Head decision for a new root span of ``kind``.  Always True
        while inactive.  Deterministic: the first trace of each kind is
        always kept, then every ``round(1/rate)``-th."""
        if not self.active:
            return True
        rate = self.rate_for(kind)
        with self._lock:
            n = self._counts.get(kind, 0)
            self._counts[kind] = n + 1
            if rate <= 0.0:
                keep = False
            elif rate >= 1.0:
                keep = True
            else:
                keep = n % max(1, round(1.0 / rate)) == 0
            if keep:
                self.kept += 1
            else:
                self.dropped += 1
        return keep

    def note_tail_promoted(self) -> None:
        with self._lock:
            self.tail_promoted += 1
            self.dropped -= 1
            self.kept += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "active": self.active,
                "default_rate": self.default_rate,
                "rates": dict(self.rates),
                "tail_keep_ms": self.tail_keep_ms,
                "kept": self.kept,
                "dropped": self.dropped,
                "tail_promoted": self.tail_promoted,
            }


#: Process-wide sampler consulted by the tracer at root-span creation.
SAMPLER = Sampler()
