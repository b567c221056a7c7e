"""The benchmark regression watchdog: metric extraction from every
committed BENCH format, threshold judgments, and the acceptance
contract — an unchanged tree diffs clean, a baseline perturbed beyond
threshold demonstrably fails.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.observability.benchdiff import (
    HIGHER_REL_THRESHOLD,
    LOWER_REL_THRESHOLD,
    OVERHEAD_CEILING,
    STATS_OVERHEAD_CEILING,
    diff_dirs,
    diff_files,
    diff_payloads,
    extract_metrics,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def harness_payload(warm_ms=0.7, speedup="3.1x", timing=0.5):
    return {
        "benchmark": "query_executor",
        "format": "harness-v1",
        "tables": [
            {
                "headers": ["persons", "query", "interpreted",
                            "compiled warm", "speedup (warm)"],
                "rows": [
                    [4000, "unfold-extent", "33.0 ms",
                     f"{warm_ms:g} ms", speedup],
                ],
            }
        ],
        "timings_seconds": {"report": timing},
    }


def contract_payload(overhead=0.4, stats_overhead=3.0):
    return {
        "benchmark": "observability",
        "contract": {"max_overhead_percent": 5.0},
        "chase": {
            "disabled_overhead_percent": overhead,
            "enabled_seconds": 0.02,
            "spans": 12,
        },
        "stats": {
            "stats_overhead_percent": stats_overhead,
            "stats_extend_ns_per_row": 700.0,
        },
    }


class TestExtraction:
    def test_harness_cells_and_timings(self):
        metrics = {m.key: m for m in extract_metrics(harness_payload())}
        warm = metrics["4000/unfold-extent/compiled warm"]
        assert warm.kind == "lower" and warm.value == 0.7
        speed = metrics["4000/unfold-extent/speedup (warm)"]
        assert speed.kind == "higher" and speed.value == 3.1
        timing = metrics["timing/report"]
        assert timing.kind == "lower" and timing.value == 0.5

    def test_harness_seconds_cells_normalize_to_ms(self):
        payload = harness_payload()
        payload["tables"][0]["rows"][0][2] = "1.5 s"
        metrics = {m.key: m for m in extract_metrics(payload)}
        assert metrics["4000/unfold-extent/interpreted"].value == 1500.0

    def test_contract_fields(self):
        metrics = {m.key: m for m in extract_metrics(contract_payload())}
        assert metrics["chase.disabled_overhead_percent"].kind == "ceiling"
        assert metrics["chase.enabled_seconds"].kind == "lower"
        assert metrics["chase.spans"].kind == "info"
        assert (
            metrics["stats.stats_overhead_percent"].kind == "stats_ceiling"
        )
        assert metrics["stats.stats_extend_ns_per_row"].kind == "info"

    def test_every_committed_baseline_yields_metrics(self):
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            payload = json.loads(path.read_text())
            assert extract_metrics(payload), f"{path.name} extracted nothing"


class TestJudgment:
    def test_identical_payloads_diff_clean(self):
        report = diff_payloads("q", harness_payload(), harness_payload())
        assert report.regressions == []
        assert report.compared > 0

    def test_lower_better_fails_beyond_2x(self):
        baseline = harness_payload(warm_ms=0.7)
        limit = 0.7 * (1.0 + LOWER_REL_THRESHOLD)
        ok = diff_payloads("q", baseline, harness_payload(warm_ms=limit))
        assert ok.regressions == []
        bad = diff_payloads(
            "q", baseline, harness_payload(warm_ms=limit * 1.1)
        )
        assert [f.key for f in bad.regressions] == [
            "4000/unfold-extent/compiled warm"
        ]

    def test_higher_better_fails_below_half(self):
        baseline = harness_payload(speedup="3.1x")
        floor = 3.1 * HIGHER_REL_THRESHOLD
        ok = diff_payloads("q", baseline, harness_payload(
            speedup=f"{floor:g}x"))
        assert ok.regressions == []
        bad = diff_payloads("q", baseline, harness_payload(
            speedup=f"{floor * 0.9:g}x"))
        assert [f.key for f in bad.regressions] == [
            "4000/unfold-extent/speedup (warm)"
        ]

    def test_overhead_ceiling_is_absolute(self):
        # a big relative jump below the ceiling is fine...
        ok = diff_payloads(
            "o", contract_payload(overhead=0.1),
            contract_payload(overhead=OVERHEAD_CEILING),
        )
        assert all(
            f.status != "regressed"
            for f in ok.findings
            if f.key == "chase.disabled_overhead_percent"
        )
        # ...but exceeding the contract fails even from a high baseline
        bad = diff_payloads(
            "o", contract_payload(overhead=4.9),
            contract_payload(overhead=OVERHEAD_CEILING + 0.1),
        )
        assert [f.key for f in bad.regressions] == [
            "chase.disabled_overhead_percent"
        ]

    def test_stats_overhead_ceiling_is_absolute(self):
        ok = diff_payloads(
            "o", contract_payload(stats_overhead=0.5),
            contract_payload(stats_overhead=STATS_OVERHEAD_CEILING),
        )
        assert ok.regressions == []
        bad = diff_payloads(
            "o", contract_payload(stats_overhead=9.9),
            contract_payload(stats_overhead=STATS_OVERHEAD_CEILING + 0.1),
        )
        assert [f.key for f in bad.regressions] == [
            "stats.stats_overhead_percent"
        ]

    def test_info_metrics_never_fail(self):
        baseline = contract_payload()
        fresh = contract_payload()
        fresh["chase"]["spans"] = 999_999
        report = diff_payloads("o", baseline, fresh)
        assert report.regressions == []
        finding = next(
            f for f in report.findings if f.key == "chase.spans"
        )
        assert finding.status == "changed"

    def test_improvements_reported_not_failed(self):
        report = diff_payloads(
            "q", harness_payload(warm_ms=2.0), harness_payload(warm_ms=0.2)
        )
        assert report.regressions == []
        assert any(f.status == "improved" for f in report.findings)

    def test_key_intersection_smoke_vs_full(self):
        """A smoke run (one size) against a full baseline (two sizes)
        judges only the shared keys; full-only keys are non-failing
        'missing' findings."""
        full = harness_payload()
        full["tables"][0]["rows"].append(
            [250, "unfold-extent", "2.0 ms", "0.6 ms", "3.3x"]
        )
        smoke = harness_payload()
        report = diff_payloads("q", full, smoke)
        assert report.regressions == []
        missing = [f for f in report.findings if f.status == "missing"]
        assert missing and all(f.key.startswith("250/") for f in missing)


class TestDirsAndCli:
    def write(self, directory, name, payload):
        (directory / name).write_text(json.dumps(payload))

    def test_diff_dirs_pairs_by_name(self, tmp_path):
        base = tmp_path / "base"
        fresh = tmp_path / "fresh"
        base.mkdir(), fresh.mkdir()
        self.write(base, "BENCH_query.json", harness_payload())
        self.write(fresh, "BENCH_query.json", harness_payload(warm_ms=9.0))
        self.write(fresh, "BENCH_new.json", harness_payload())
        reports = {r.name: r for r in diff_dirs(base, fresh)}
        assert reports["BENCH_query.json"].regressions
        # fresh-only file is reported, never failed
        assert reports["BENCH_new.json"].regressions == []

    def test_unchanged_tree_diffs_clean_and_perturbed_fails(self, tmp_path):
        """The acceptance contract, end to end through the CLI: the
        committed baseline vs itself exits 0; the same baseline with
        one timing perturbed beyond threshold exits 1."""
        baseline = REPO_ROOT / "BENCH_query.json"
        clean = diff_files(baseline, baseline)
        assert clean.regressions == [] and clean.compared > 0

        payload = json.loads(baseline.read_text())
        cell = payload["tables"][0]["rows"][0][2]  # e.g. "2.06 ms"
        value = float(cell.split()[0])
        payload["tables"][0]["rows"][0][2] = (
            f"{value * (1.0 + LOWER_REL_THRESHOLD) * 1.5:.2f} ms"
        )
        self.write(tmp_path, "BENCH_query.json", payload)

        script = str(REPO_ROOT / "benchmarks" / "regression.py")
        ok = subprocess.run(
            [sys.executable, script, "diff",
             "--baseline-dir", str(REPO_ROOT), "--fresh-dir", str(REPO_ROOT)],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        bad = subprocess.run(
            [sys.executable, script, "diff",
             "--baseline-dir", str(REPO_ROOT),
             "--fresh-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert bad.returncode == 1, bad.stdout + bad.stderr
        assert "regressed" in bad.stdout

    def test_repro_bench_diff_cli(self, tmp_path):
        self.write(tmp_path, "BENCH_query.json", harness_payload())
        result = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "diff",
             "--baseline-dir", str(tmp_path),
             "--fresh-dir", str(tmp_path), "--json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload[0]["regressions"] == 0
