"""Benchmark regression diffing: fresh ``BENCH_*.json`` vs baselines.

The repo commits one harness-v1 baseline JSON per benchmark suite
(``benchmarks/harness.py``).  This module extracts comparable numeric
metrics from their table cells and timings, classifies every metric by
its cell's unit, and diffs a fresh run against the committed baseline
with *generous* relative thresholds — timing on shared CI hardware is
noisy, so the watchdog is tuned to catch step-change regressions (an
accidental O(n²), a dropped fast path), not 10% jitter:

* **lower-better** (``... ms`` / ``... s`` cells, timing entries) —
  regressed when fresh > 2× baseline;
* **higher-better** (``...x`` speedup cells) — regressed when fresh
  < 0.5× baseline;
* **floor** / **ceiling** — a payload may declare an absolute bound
  for one key (``"floors": {"skewed-chain/speedup": 2.0}`` by
  ``Harness.floor``, ``"ceilings": {"disabled chase vs
  bare/overhead": 5.0}`` by ``Harness.ceiling``); the metric regresses
  when fresh falls below its floor or rises above its ceiling,
  whatever the baseline — this is how the optimizer suite's ≥2×
  skewed-join win and the observability overhead limits are enforced
  as contracts rather than relative drift checks;
* **info** (signed ``...%`` cells without a declared bound) — never
  regress; drift is reported as ``changed``.

Keys present on only one side (a new size, a renamed workload) are
reported as ``new`` / ``missing`` and never fail the check — smoke
runs diff cleanly against full baselines because only the key
intersection is judged.

``benchmarks/regression.py`` wraps this as a CLI (``diff`` over
existing files, ``check`` to re-run suites and diff), surfaced as
``repro bench diff`` and ``make bench-check``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

#: Relative slowdown tolerated on lower-better metrics (1.0 ⇒ 2×).
LOWER_REL_THRESHOLD = 1.0
#: Relative drop tolerated on higher-better metrics (0.5 ⇒ half).
HIGHER_REL_THRESHOLD = 0.5
#: Relative drift below which info metrics count as unchanged.
INFO_TOLERANCE = 0.01

_MS_CELL = re.compile(r"^([0-9]+(?:\.[0-9]+)?)\s*ms$")
_S_CELL = re.compile(r"^([0-9]+(?:\.[0-9]+)?)\s*s$")
_X_CELL = re.compile(r"^([0-9]+(?:\.[0-9]+)?)x$")
_PCT_CELL = re.compile(r"^([+-]?[0-9]+(?:\.[0-9]+)?)\s*%$")


@dataclass(frozen=True)
class Metric:
    """One extracted numeric observation."""

    key: str
    value: float
    kind: str  # "lower" | "higher" | "floor" | "ceiling" | "info"
    bound: Optional[float] = None  # set when kind is floor or ceiling


@dataclass
class Finding:
    """The comparison verdict for one metric key."""

    key: str
    kind: str
    status: str  # "ok" | "improved" | "regressed" | "changed" | "new" | "missing"
    baseline: Optional[float]
    fresh: Optional[float]
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "status": self.status,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "detail": self.detail,
        }


@dataclass
class DiffReport:
    """All findings for one baseline/fresh file pair."""

    name: str
    findings: list[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "regressed"]

    @property
    def compared(self) -> int:
        return sum(
            1 for f in self.findings if f.status not in ("new", "missing")
        )

    def render(self, verbose: bool = False) -> str:
        order = {"regressed": 0, "changed": 1, "improved": 2,
                 "missing": 3, "new": 4, "ok": 5}
        shown = [
            f for f in sorted(self.findings,
                              key=lambda f: (order[f.status], f.key))
            if verbose or f.status != "ok"
        ]
        lines = [
            f"{self.name}: {self.compared} metric(s) compared, "
            f"{len(self.regressions)} regression(s)"
        ]
        for f in shown:
            base = "-" if f.baseline is None else f"{f.baseline:g}"
            fresh = "-" if f.fresh is None else f"{f.fresh:g}"
            marker = "!!" if f.status == "regressed" else "  "
            lines.append(
                f" {marker} [{f.status:<9}] {f.key}: {base} -> {fresh}"
                + (f"  ({f.detail})" if f.detail else "")
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "compared": self.compared,
            "regressions": len(self.regressions),
            "findings": [f.to_dict() for f in self.findings],
        }


# ----------------------------------------------------------------------
# metric extraction
# ----------------------------------------------------------------------
def _cell_metric(cell: object) -> Optional[tuple[float, str]]:
    """(value, kind) when a table cell is a recognizable measurement."""
    if not isinstance(cell, str):
        return None
    text = cell.strip()
    match = _MS_CELL.match(text)
    if match:
        return float(match.group(1)), "lower"
    match = _S_CELL.match(text)
    if match:
        return float(match.group(1)) * 1000.0, "lower"
    match = _X_CELL.match(text)
    if match:
        return float(match.group(1)), "higher"
    match = _PCT_CELL.match(text)
    if match:
        return float(match.group(1)), "info"
    return None


def extract_metrics(payload: dict) -> list[Metric]:
    """Comparable metrics of a harness-v1 payload (none otherwise)."""
    if payload.get("format") != "harness-v1":
        return []
    bounds = {}
    for kind in ("floor", "ceiling"):
        for key, bound in payload.get(kind + "s", {}).items():
            bounds[key] = (kind, float(bound))
    metrics: list[Metric] = []
    for table in payload.get("tables", []):
        headers = table.get("headers", [])
        for row in table.get("rows", []):
            label_cells = []
            measured: list[tuple[str, float, str]] = []
            for header, cell in zip(headers, row):
                parsed = _cell_metric(cell)
                if parsed is None:
                    label_cells.append(str(cell))
                else:
                    measured.append((header, parsed[0], parsed[1]))
            label = "/".join(label_cells)
            for header, value, kind in measured:
                key = f"{label}/{header}"
                kind, bound = bounds.get(key, (kind, None))
                metrics.append(Metric(key, value, kind, bound))
    for name, seconds in payload.get("timings_seconds", {}).items():
        metrics.append(Metric(f"timing/{name}", float(seconds), "lower"))
    return metrics


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def _judge(
    kind: str, baseline: float, fresh: float,
    bound: Optional[float] = None,
) -> tuple[str, str]:
    if kind == "floor":
        if fresh < bound:
            return "regressed", f"below the {bound:g} floor"
        return "ok", ""
    if kind == "ceiling":
        if fresh > bound:
            return "regressed", f"exceeds the {bound:g} ceiling"
        return "ok", ""
    if kind == "lower":
        if baseline > 0 and fresh > baseline * (1.0 + LOWER_REL_THRESHOLD):
            return (
                "regressed",
                f"{fresh / baseline:.1f}x slower than baseline "
                f"(limit {1.0 + LOWER_REL_THRESHOLD:g}x)",
            )
        if baseline > 0 and fresh < baseline * HIGHER_REL_THRESHOLD:
            return "improved", f"{baseline / max(fresh, 1e-12):.1f}x faster"
        return "ok", ""
    if kind == "higher":
        if baseline > 0 and fresh < baseline * HIGHER_REL_THRESHOLD:
            return (
                "regressed",
                f"dropped to {fresh / baseline:.0%} of baseline "
                f"(limit {HIGHER_REL_THRESHOLD:.0%})",
            )
        if baseline > 0 and fresh > baseline * (1.0 + LOWER_REL_THRESHOLD):
            return "improved", f"{fresh / baseline:.1f}x higher"
        return "ok", ""
    # info
    reference = max(abs(baseline), abs(fresh), 1e-12)
    if abs(fresh - baseline) / reference > INFO_TOLERANCE:
        return "changed", "informational only"
    return "ok", ""


def diff_payloads(
    name: str, baseline: dict, fresh: dict
) -> DiffReport:
    """Compare two parsed BENCH payloads; only the key intersection is
    judged (see module docstring)."""
    base_metrics = {m.key: m for m in extract_metrics(baseline)}
    fresh_metrics = {m.key: m for m in extract_metrics(fresh)}
    report = DiffReport(name)
    for key in sorted(base_metrics.keys() | fresh_metrics.keys()):
        base = base_metrics.get(key)
        new = fresh_metrics.get(key)
        if base is None:
            report.findings.append(
                Finding(key, new.kind, "new", None, new.value)
            )
            continue
        if new is None:
            report.findings.append(
                Finding(key, base.kind, "missing", base.value, None)
            )
            continue
        # A bound declared on either side applies (the fresh payload's
        # declaration wins, so a suite can tighten its own contract).
        declared = new if new.bound is not None else base
        status, detail = _judge(
            declared.kind, base.value, new.value, declared.bound
        )
        report.findings.append(Finding(
            key, declared.kind, status, base.value, new.value, detail
        ))
    return report


def diff_files(
    baseline: Union[str, Path], fresh: Union[str, Path]
) -> DiffReport:
    baseline = Path(baseline)
    fresh = Path(fresh)
    return diff_payloads(
        baseline.name,
        json.loads(baseline.read_text()),
        json.loads(fresh.read_text()),
    )


def diff_dirs(
    baseline_dir: Union[str, Path],
    fresh_dir: Union[str, Path],
    names: Optional[Sequence[str]] = None,
) -> list[DiffReport]:
    """Diff every ``BENCH_*.json`` present in *both* directories
    (optionally restricted to ``names``)."""
    baseline_dir = Path(baseline_dir)
    fresh_dir = Path(fresh_dir)
    reports = []
    for fresh_path in sorted(fresh_dir.glob("BENCH_*.json")):
        if names and fresh_path.name not in names:
            continue
        baseline_path = baseline_dir / fresh_path.name
        if not baseline_path.exists():
            reports.append(
                DiffReport(
                    fresh_path.name,
                    [Finding("(file)", "info", "new", None, None,
                             "no committed baseline")],
                )
            )
            continue
        reports.append(diff_files(baseline_path, fresh_path))
    return reports
