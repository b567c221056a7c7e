"""The benchmark regression watchdog: metric extraction from the
harness-v1 BENCH format, threshold judgments, declared floors and
ceilings, and the acceptance contract — an unchanged tree diffs clean,
a baseline perturbed beyond threshold demonstrably fails.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.observability.benchdiff import (
    HIGHER_REL_THRESHOLD,
    LOWER_REL_THRESHOLD,
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


def overhead_payload(disabled="+0.40%", query="+3.00%",
                     enabled="+3.67%"):
    """The shape BENCH_observability.json takes: signed percent cells,
    two of them under declared ceilings."""
    return {
        "benchmark": "observability",
        "format": "harness-v1",
        "tables": [
            {
                "headers": ["path", "baseline", "measured", "overhead"],
                "rows": [
                    ["disabled chase vs bare", "7.42 ms", "7.44 ms",
                     disabled],
                    ["enabled chase vs bare", "7.42 ms", "7.70 ms",
                     enabled],
                    ["enabled query vs disabled", "1.57 ms", "1.62 ms",
                     query],
                ],
            }
        ],
        "timings_seconds": {},
        "ceilings": {
            "disabled chase vs bare/overhead": 5.0,
            "enabled query vs disabled/overhead": 10.0,
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

    def test_declared_ceilings_and_signed_percent_cells(self):
        metrics = {
            m.key: m for m in extract_metrics(
                overhead_payload(disabled="-2.47%")
            )
        }
        disabled = metrics["disabled chase vs bare/overhead"]
        assert (disabled.kind, disabled.bound) == ("ceiling", 5.0)
        assert disabled.value == -2.47
        assert metrics["enabled chase vs bare/overhead"].kind == "info"
        assert metrics["enabled chase vs bare/overhead"].value == 3.67
        assert metrics["enabled chase vs bare/measured"].kind == "lower"

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
        key = "disabled chase vs bare/overhead"
        # a big relative jump up to the ceiling is fine...
        ok = diff_payloads(
            "o", overhead_payload(disabled="-9.00%"),
            overhead_payload(disabled="+5.00%"),
        )
        assert next(f for f in ok.findings if f.key == key).status == "ok"
        # ...but exceeding it fails from any baseline, even one above it
        for baseline in ("-9.00%", "+4.90%", "+8.00%"):
            bad = diff_payloads(
                "o", overhead_payload(disabled=baseline),
                overhead_payload(disabled="+5.10%"),
            )
            assert [f.key for f in bad.regressions] == [key]
            assert "5 ceiling" in bad.regressions[0].detail

    def test_stats_overhead_ceiling_is_absolute(self):
        ok = diff_payloads(
            "o", overhead_payload(query="+0.50%"),
            overhead_payload(query="+10.00%"),
        )
        assert ok.regressions == []
        bad = diff_payloads(
            "o", overhead_payload(query="+9.90%"),
            overhead_payload(query="+10.10%"),
        )
        assert [f.key for f in bad.regressions] == [
            "enabled query vs disabled/overhead"
        ]

    def test_ceiling_declared_on_either_side_applies(self):
        undeclared = overhead_payload(disabled="+7.00%")
        del undeclared["ceilings"]
        declared = overhead_payload(disabled="+7.00%")
        for baseline, fresh in ((undeclared, declared),
                                (declared, undeclared)):
            report = diff_payloads("o", baseline, fresh)
            assert [f.key for f in report.regressions] == [
                "disabled chase vs bare/overhead"
            ]

    def test_info_metrics_never_fail(self):
        report = diff_payloads(
            "o", overhead_payload(enabled="+3.67%"),
            overhead_payload(enabled="+999.00%"),
        )
        assert report.regressions == []
        finding = next(
            f for f in report.findings
            if f.key == "enabled chase vs bare/overhead"
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
