"""Benchmark harness: uniform machine-readable BENCH_*.json emission.

Every ``bench_*.py`` suite keeps its pytest-benchmark tests, but its
``main()`` now routes through this harness, which

* runs the suite's report function(s) with a stub ``benchmark``
  callable (timing is recorded into the metrics registry instead of
  pytest-benchmark's calibrated loops),
* captures every ``print_table`` call as structured rows,
* enables the engine's observability layer for the duration, so the
  emitted JSON carries the span/metric telemetry of the run,
* writes ``BENCH_<name>.json`` with the tables plus a registry
  snapshot and a ``machine`` block (cores, Python, numpy and scipy
  versions, platform) — one uniform format across all benchmarks.

Standalone usage (every bench file)::

    python benchmarks/bench_fig5_evolution.py [--smoke] [--out PATH]

``--smoke`` runs the suite but skips the JSON rewrite unless ``--out``
is given — the CI sanity mode.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Optional, Sequence


def machine() -> dict:
    """Where a run happened: logical cores, the Python version, the
    numpy and scipy versions (``None`` when not importable) and the
    platform string."""
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = importlib.import_module(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
    }


class _StubBenchmark:
    """pytest-benchmark-compatible callable: one timed invocation,
    recorded into the harness instead of calibrated rounds."""

    def __init__(self, harness: "Harness", label: str):
        self._harness = harness
        self._label = label

    def __call__(self, fn, *args, **kwargs):
        return self._harness.timed(self._label, fn, *args, **kwargs)


class Harness:
    """Collects tables, timings and engine telemetry for one suite."""

    def __init__(self, name: str, observe: bool = True):
        self.name = name
        self.observe = observe
        self.tables: list[dict] = []
        self.results: list[dict] = []
        self.timings: dict[str, float] = {}
        self.floors: dict[str, float] = {}
        self.ceilings: dict[str, float] = {}

    # ------------------------------------------------------------------
    def timed(self, label: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` once, record wall seconds under ``label`` (and in
        the metrics registry when observing)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.timings[label] = round(seconds, 6)
        if self.observe:
            from repro.observability import registry

            registry.histogram(f"bench.{self.name}.{label}.ms").observe(
                seconds * 1000.0
            )
        return result

    def record(self, **row) -> None:
        """Append one machine-readable result row."""
        self.results.append(row)

    def floor(self, key: str, minimum: float) -> None:
        """Declare an absolute floor for one extracted metric key
        (``"<row label>/<header>"`` of a table cell).  The regression
        watchdog judges floored metrics against ``minimum`` regardless
        of the baseline — e.g. the optimizer suite's ≥2× skewed-join
        speedup contract."""
        self.floors[key] = float(minimum)

    def ceiling(self, key: str, maximum: float) -> None:
        """Declare an absolute ceiling for one extracted metric key,
        judged like :meth:`floor` from the other side — e.g. the
        observability suite's overhead limits."""
        self.ceilings[key] = float(maximum)

    def capture_table(self, title: str, headers: list[str],
                      rows: list[list]) -> None:
        self.tables.append(
            {"title": title, "headers": headers,
             "rows": [list(r) for r in rows]}
        )

    # ------------------------------------------------------------------
    def run_report(self, report_fn: Callable) -> None:
        """Run a ``test_*_report(benchmark)`` function standalone:
        stub the benchmark fixture, intercept its ``print_table``."""
        module_globals = report_fn.__globals__
        original = module_globals.get("print_table")

        def capturing_print_table(title, headers, rows):
            self.capture_table(title, headers, rows)
            if original is not None:
                original(title, headers, rows)

        module_globals["print_table"] = capturing_print_table
        try:
            report_fn(_StubBenchmark(self, report_fn.__name__))
        finally:
            if original is not None:
                module_globals["print_table"] = original

    # ------------------------------------------------------------------
    def payload(self) -> dict:
        data = {
            "benchmark": self.name,
            "format": "harness-v1",
            "machine": machine(),
            "results": self.results,
            "tables": self.tables,
            "timings_seconds": self.timings,
        }
        if self.floors:
            data["floors"] = dict(self.floors)
        if self.ceilings:
            data["ceilings"] = dict(self.ceilings)
        if self.observe:
            from repro.observability import registry

            data["metrics"] = registry.snapshot()
        return data

    def emit(self, out: Optional[Path] = None) -> Path:
        if out is None:
            out = Path(__file__).resolve().parent.parent / (
                f"BENCH_{self.name}.json"
            )
        out = Path(out)
        out.write_text(json.dumps(self.payload(), indent=2,
                                  default=str) + "\n")
        print(f"wrote {out}")
        return out


def run_standalone(
    name: str,
    report_fns: Sequence[Callable],
    argv: Optional[Sequence[str]] = None,
    observe: bool = True,
) -> int:
    """The shared ``main()`` body of every bench file."""
    parser = argparse.ArgumentParser(
        description=f"{name} benchmark → BENCH_{name}.json"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the suite but skip the JSON rewrite unless --out is "
             "given (CI sanity)",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help=f"output path (default: BENCH_{name}.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    harness = Harness(name, observe=observe)
    if observe:
        import repro.observability as obs

        obs.reset()
        obs.enable()
    try:
        for report_fn in report_fns:
            harness.run_report(report_fn)
    finally:
        if observe:
            obs.disable()

    if args.out is not None or not args.smoke:
        harness.emit(args.out)
    return 0
