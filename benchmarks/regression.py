"""Benchmark regression watchdog: diff fresh BENCH_*.json runs against
the committed baselines.

Two modes::

    python benchmarks/regression.py diff --fresh-dir DIR [--json] [-v]
    python benchmarks/regression.py check [--suites query,updates,...]
                                          [--smoke] [--report-only]

``diff`` compares already-emitted files in ``--fresh-dir`` against the
committed baselines at the repo root.  ``check`` re-runs the selected
benchmark suites into a temporary directory first, then diffs — this
is what ``make bench-check`` (and CI, in ``--report-only`` mode) runs.

Thresholds and format handling live in
:mod:`repro.observability.benchdiff` — generous relative bounds tuned
to catch step-change regressions, not machine jitter; smoke runs diff
cleanly against full baselines because only the key intersection is
judged.  Exit status is 1 when any regression is found (0 always with
``--report-only``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.observability.benchdiff import diff_dirs  # noqa: E402

#: suite name → (bench script, emitted file name)
SUITES = {
    "query": ("bench_query_executor.py", "BENCH_query.json"),
    "updates": ("bench_incremental_exchange.py", "BENCH_updates.json"),
    "observability": ("bench_observability.py", "BENCH_observability.json"),
    "chase": ("bench_chase_scaling.py", "BENCH_chase.json"),
    "optimizer": ("bench_optimizer.py", "BENCH_optimizer.json"),
    "match": ("bench_match_scaling.py", "BENCH_match.json"),
    "compose": ("bench_compose_scaling.py", "BENCH_compose.json"),
}

#: ``check``'s default suites; ``chase`` is opt-in (it re-runs the
#: naive baseline engine at every size, which dominates the runtime),
#: and so are ``match`` (its 509-element Match takes seconds) and
#: ``compose`` (its timings are single compositions of a few ms).
DEFAULT_SUITES = ("query", "updates", "observability", "optimizer")


def _report(reports, as_json: bool, verbose: bool) -> int:
    regressions = sum(len(r.regressions) for r in reports)
    if as_json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        if not reports:
            print("no BENCH_*.json pairs to compare")
        for report in reports:
            print(report.render(verbose=verbose))
        print(
            f"bench-diff: {sum(r.compared for r in reports)} metric(s) "
            f"across {len(reports)} file(s), {regressions} regression(s)"
        )
    return 1 if regressions else 0


def cmd_diff(args) -> int:
    names = None
    if args.suites:
        names = [SUITES[s][1] for s in args.suites.split(",")]
    reports = diff_dirs(args.baseline_dir, args.fresh_dir, names=names)
    return _report(reports, args.json, args.verbose)


def cmd_check(args) -> int:
    suites = (
        args.suites.split(",") if args.suites else list(DEFAULT_SUITES)
    )
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)} "
              f"(known: {', '.join(SUITES)})", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bench-check-") as tmp:
        fresh_dir = Path(tmp)
        for suite in suites:
            script, out_name = SUITES[suite]
            command = [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / script),
                "--out", str(fresh_dir / out_name),
            ]
            if args.smoke:
                command.append("--smoke")
            print(f"== running {suite}: {script}"
                  + (" --smoke" if args.smoke else ""))
            proc = subprocess.run(command, cwd=REPO_ROOT)
            if proc.returncode != 0:
                print(f"suite {suite} failed (exit {proc.returncode})",
                      file=sys.stderr)
                if not args.report_only:
                    return proc.returncode
                # report-only surfaces the failure and diffs whatever
                # the suite managed to write (possibly nothing)
        names = [SUITES[s][1] for s in suites]
        reports = diff_dirs(args.baseline_dir, fresh_dir, names=names)
        status = _report(reports, args.json, args.verbose)
    if args.report_only and status == 1:
        print("bench-check: regressions reported only (--report-only)")
        return 0
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="benchmark regression watchdog"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="diff emitted files against baselines")
    p.add_argument("--fresh-dir", required=True,
                   help="directory holding freshly emitted BENCH_*.json")
    p.add_argument("--baseline-dir", default=str(REPO_ROOT),
                   help="committed baselines (default: repo root)")
    p.add_argument("--suites", help="comma-separated suite subset "
                   f"(known: {', '.join(SUITES)})")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list unchanged metrics")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("check",
                       help="re-run suites into a temp dir, then diff")
    p.add_argument("--suites", help="comma-separated suites "
                   f"(default: {','.join(DEFAULT_SUITES)})")
    p.add_argument("--baseline-dir", default=str(REPO_ROOT))
    p.add_argument("--smoke", action="store_true",
                   help="run suites in smoke mode (smallest size only)")
    p.add_argument("--report-only", action="store_true",
                   help="print regressions but exit 0 (CI advisory mode)")
    p.add_argument("--json", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
