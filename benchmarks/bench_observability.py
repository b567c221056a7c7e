"""Observability overhead: the disabled-by-default contract, measured.

The tracing/metrics layer (``repro.observability``) instruments every
operator entry point, the chase, and the runtime services.  Its
contract is that a *disabled* instrumented call costs one guard check.
This suite verifies the contract two ways:

* **chase micro-benchmark** — ``chase()`` (instrumented entry) vs the
  bare ``_SemiNaiveChase`` engine it delegates to, tracing off,
  interleaved with the collector paused.  The acceptance bound is < 5%
  overhead;
* **no-op call micro-benchmark** — a trivial function plain vs
  ``@instrumented``-wrapped with tracing off, in ns/call;
* **enabled overhead** — the same chase workload with tracing on, for
  reference (this one is allowed to cost something);
* **stats / query-path overhead** — a warm-cache query workload with
  observability on (statistics service + cardinality estimator +
  query log + per-node profiling) vs off.  The acceptance bound is
  < 10% overhead, plus an informational ns/row figure for absorbing
  appended rows into a warm ``RelationStats`` cache;
* **sampled query-path overhead** — the same workload with the trace
  sampler active at a 10% keep rate (the recommended production
  setting): head-dropped traces still pay span construction for
  tail-keep, and the bound is the same < 10% contract.

Standalone (``python benchmarks/bench_observability.py``) emits
``BENCH_observability.json`` and exits nonzero if the disabled bound
is violated.  The pytest entries assert the same bound, with slack for
noisy CI machines.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

import repro.observability as obs
from repro.instances import Instance
from repro.logic import parse_tgd
from repro.logic.chase import _SemiNaiveChase, _fresh_factory, chase
from repro.observability.instrument import instrumented

from conftest import print_table


def _chain_workload(rows: int = 200, stages: int = 8):
    db = Instance()
    for i in range(rows):
        db.add("R0", a=i, b=i % 7)
    tgds = [
        parse_tgd(f"R{k}(a=x, b=y) -> R{k + 1}(a=x, b=y)")
        for k in range(stages)
    ][::-1]
    return db, tgds


def _bare_chase(db, tgds):
    """Exactly :func:`chase` minus the instrumentation wrapper."""
    working = db.copy()
    return _SemiNaiveChase(working, tgds, _fresh_factory(working),
                           100_000).run()


def _best_of(fn, repeat: int = 5) -> float:
    fn()  # warmup: exclude allocator/cache cold-start from the best
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _ab_best(*configs, repeat: int = 5, inner: int = 4) -> tuple:
    """Interleaved best-of over ``(setup, fn)`` configurations:
    alternate them every iteration so slow machine drift (thermal,
    background load) hits all sides equally instead of landing on
    whichever was measured last.  Each timed sample runs ``inner``
    calls of ``fn`` (a sub-ms workload alone is scheduler-tick noise),
    the collector is paused during the timed windows (and run between
    them), and ``setup`` runs outside the timed window.  Returns the
    per-call best of each configuration, in order."""
    import gc

    for setup, fn in configs:
        setup()
        fn()  # warmup every configuration
    best = [float("inf")] * len(configs)
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeat):
            for index, (setup, fn) in enumerate(configs):
                setup()
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                for _ in range(inner):
                    fn()
                best[index] = min(best[index], time.perf_counter() - start)
                if gc_was_enabled:
                    gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    return tuple(seconds / inner for seconds in best)


def measure_chase_overhead(rows: int = 200, repeat: int = 5) -> dict:
    """Disabled + enabled chase overhead vs the bare engine, the three
    interleaved with the collector paused (see :func:`_ab_best`), so
    that drift and collections land on every side alike: bare and
    disabled do identical work, and the gate is 5%."""
    db, tgds = _chain_workload(rows)
    obs.reset()
    bare, disabled, enabled = _ab_best(
        (obs.disable, lambda: _bare_chase(db, tgds)),
        (obs.disable, lambda: chase(db, tgds)),
        (obs.enable, lambda: chase(db, tgds)),
        repeat=repeat,
    )
    obs.disable()
    return {
        "workload": f"chain(rows={rows}, stages=8)",
        "bare_seconds": round(bare, 6),
        "disabled_seconds": round(disabled, 6),
        "enabled_seconds": round(enabled, 6),
        "disabled_overhead_percent": round((disabled - bare) / bare * 100, 2),
        "enabled_overhead_percent": round((enabled - bare) / bare * 100, 2),
    }


def measure_noop_overhead(calls: int = 200_000) -> dict:
    """ns/call of a disabled instrumented wrapper vs a plain call."""

    def plain(x):
        return x

    @instrumented("bench.noop")
    def wrapped(x):
        return x

    obs.disable()

    def loop(fn):
        def run():
            for i in range(calls):
                fn(i)
        return run

    plain_seconds = _best_of(loop(plain), repeat=5)
    wrapped_seconds = _best_of(loop(wrapped), repeat=5)
    return {
        "calls": calls,
        "plain_ns_per_call": round(plain_seconds / calls * 1e9, 1),
        "disabled_ns_per_call": round(wrapped_seconds / calls * 1e9, 1),
        "added_ns_per_call": round(
            (wrapped_seconds - plain_seconds) / calls * 1e9, 1
        ),
    }


def measure_stats_overhead(rows: int = 4000, repeat: int = 7) -> dict:
    """Enabled query-path overhead: statistics + estimator + query log.

    A warm-plan-cache select+join workload, best-of-``repeat``, with
    observability off vs on.  The enabled run pays for the per-node
    profiled pipeline, the cardinality estimator (statistics served
    from the validated cache), and the query-log append — the whole
    estimate↔actual telemetry path.  Separately reports the absolute
    cost of absorbing appended rows into a warm stats cache.
    """
    from repro.algebra import expressions as E
    from repro.algebra import scalars as S
    from repro.algebra.evaluator import evaluate

    db = Instance()
    for i in range(rows):
        db.insert("emp", {"id": i, "dept": i % 40, "salary": 1000 + i})
    for d in range(40):
        db.insert("dept", {"dept": d, "dname": f"d{d}"})
    query = E.Join(
        E.Select(E.Scan("emp"),
                 S.Comparison("<", S.Col("salary"), S.Lit(rows))),
        E.Scan("dept"),
        E._JoinEq("dept", "dept"),
    )

    obs.reset()

    def run():
        evaluate(query, db)

    disabled, enabled = _ab_best(
        (obs.disable, run), (obs.enable, run), repeat=repeat
    )
    obs.disable()
    obs.reset()

    # Absolute maintenance cost: extend a warm RelationStats in place
    # over a batch of appended rows (the validation contract's
    # stats_extends path).
    db.relation_stats("emp")
    batch_rows = 1000
    db.insert_all(
        "emp",
        [{"id": i, "dept": i % 40, "salary": i} for i in range(batch_rows)],
    )
    start = time.perf_counter()
    db.relation_stats("emp")
    extend_seconds = time.perf_counter() - start

    return {
        "workload": f"select+join over {rows} rows, warm plan cache",
        "disabled_seconds": round(disabled, 6),
        "enabled_seconds": round(enabled, 6),
        "stats_overhead_percent": round(
            (enabled - disabled) / disabled * 100, 2
        ),
        "stats_extend_ns_per_row": round(
            extend_seconds / batch_rows * 1e9, 1
        ),
    }


def measure_sampled_overhead(rows: int = 4000, repeat: int = 7) -> dict:
    """Enabled + head-sampled query-path overhead.

    The same warm-cache workload as :func:`measure_stats_overhead`,
    but with the trace sampler active at a 10% keep rate — the
    recommended production configuration.  Head-dropped traces still
    pay span construction (tail-keep needs their timings) but stay off
    the retained-roots list; the acceptance bound is the same < 10%
    contract as the unsampled enabled path.
    """
    from repro.algebra import expressions as E
    from repro.algebra import scalars as S
    from repro.algebra.evaluator import evaluate
    from repro.observability.sampling import SAMPLER

    db = Instance()
    for i in range(rows):
        db.insert("emp", {"id": i, "dept": i % 40, "salary": 1000 + i})
    for d in range(40):
        db.insert("dept", {"dept": d, "dname": f"d{d}"})
    query = E.Join(
        E.Select(E.Scan("emp"),
                 S.Comparison("<", S.Col("salary"), S.Lit(rows))),
        E.Scan("dept"),
        E._JoinEq("dept", "dept"),
    )

    obs.reset()
    SAMPLER.configure(default_rate=0.1)

    def run():
        evaluate(query, db)
        # Keep the retained-roots list bounded so the measurement
        # doesn't degrade into list-append pressure across repeats.
        if len(obs.tracer.roots) > 64:
            obs.tracer.roots.clear()

    disabled, sampled = _ab_best(
        (obs.disable, run), (obs.enable, run), repeat=repeat
    )
    snapshot = SAMPLER.snapshot()
    obs.disable()
    obs.reset()
    return {
        "workload": f"select+join over {rows} rows, sampler rate=0.1",
        "disabled_seconds": round(disabled, 6),
        "sampled_seconds": round(sampled, 6),
        "sampled_overhead_percent": round(
            (sampled - disabled) / disabled * 100, 2
        ),
        "sampler_kept": snapshot["kept"],
        "sampler_dropped": snapshot["dropped"],
    }


# ----------------------------------------------------------------------
# pytest suite
# ----------------------------------------------------------------------
def test_disabled_chase_overhead_bound(benchmark):
    entry = measure_chase_overhead(rows=100, repeat=3)
    benchmark(lambda: chase(*_chain_workload(100)))
    # CI slack: the acceptance bound is 5% best-of-5 (standalone run);
    # under pytest-benchmark's machine load allow 15%.
    assert entry["disabled_overhead_percent"] < 15.0, entry


def test_enabled_tracing_records_chase(benchmark):
    db, tgds = _chain_workload(50)
    obs.reset()
    obs.enable()
    try:
        benchmark(chase, db, tgds)
    finally:
        obs.disable()
    assert "chase.runs" in obs.registry
    assert any(s.name == "logic.chase" for s in obs.tracer.iter_spans())
    obs.reset()


def test_stats_query_overhead_bound(benchmark):
    # Full-size workload: the overhead is a fixed per-query cost, so a
    # smaller query would inflate the percentage into meaninglessness.
    entry = measure_stats_overhead(rows=4000, repeat=3)
    benchmark(lambda: chase(*_chain_workload(50)))
    # CI slack: the acceptance bound is 10% best-of-7 (standalone
    # run); under pytest-benchmark's machine load allow 30%.
    assert entry["stats_overhead_percent"] < 30.0, entry


def test_sampled_query_overhead_bound(benchmark):
    entry = measure_sampled_overhead(rows=4000, repeat=3)
    benchmark(lambda: chase(*_chain_workload(50)))
    # Sampling drops 9/10 traces, so the sampled path must not cost
    # more than the unsampled enabled path's CI bound.
    assert entry["sampled_overhead_percent"] < 30.0, entry
    assert entry["sampler_dropped"] > entry["sampler_kept"]


def test_observability_report(benchmark):
    chase_entry = measure_chase_overhead(rows=100, repeat=3)
    noop_entry = measure_noop_overhead(calls=50_000)
    benchmark(lambda: chase(*_chain_workload(50)))
    print_table(
        "Observability overhead (tracing off unless noted)",
        ["quantity", "value"],
        [
            ["bare chase (s)", chase_entry["bare_seconds"]],
            ["instrumented, disabled (s)", chase_entry["disabled_seconds"]],
            ["instrumented, enabled (s)", chase_entry["enabled_seconds"]],
            ["disabled overhead (%)",
             chase_entry["disabled_overhead_percent"]],
            ["enabled overhead (%)",
             chase_entry["enabled_overhead_percent"]],
            ["no-op plain (ns/call)", noop_entry["plain_ns_per_call"]],
            ["no-op disabled (ns/call)",
             noop_entry["disabled_ns_per_call"]],
        ],
    )


# ----------------------------------------------------------------------
# standalone run -> BENCH_observability.json
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Observability overhead → BENCH_observability.json"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workload, no JSON rewrite unless "
                             "--out is given")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    rows = 100 if args.smoke else 400
    # Bare and disabled do identical work, so the 5% gate judges pure
    # noise: on a shared 2-vCPU VM, 5 interleaved rounds spread the
    # pair by up to ±30% and 20 rounds by about ±7%.
    chase_entry = measure_chase_overhead(
        rows=rows, repeat=5 if args.smoke else 20
    )
    noop_entry = measure_noop_overhead(
        calls=50_000 if args.smoke else 500_000
    )
    # Always full-size rows: the overhead is a fixed per-query cost,
    # so a smaller query would inflate the percentage.
    stats_entry = measure_stats_overhead(
        rows=4000, repeat=3 if args.smoke else 7
    )
    sampled_entry = measure_sampled_overhead(
        rows=4000, repeat=3 if args.smoke else 7
    )
    print(
        f"chase rows={rows}: bare={chase_entry['bare_seconds']:.4f}s  "
        f"disabled={chase_entry['disabled_seconds']:.4f}s "
        f"({chase_entry['disabled_overhead_percent']:+.2f}%)  "
        f"enabled={chase_entry['enabled_seconds']:.4f}s "
        f"({chase_entry['enabled_overhead_percent']:+.2f}%)"
    )
    print(
        f"no-op: plain={noop_entry['plain_ns_per_call']}ns/call  "
        f"disabled wrapper={noop_entry['disabled_ns_per_call']}ns/call"
    )
    print(
        f"stats query path: disabled={stats_entry['disabled_seconds']:.4f}s  "
        f"enabled={stats_entry['enabled_seconds']:.4f}s "
        f"({stats_entry['stats_overhead_percent']:+.2f}%)  "
        f"extend={stats_entry['stats_extend_ns_per_row']}ns/row"
    )
    print(
        f"sampled query path (rate=0.1): "
        f"disabled={sampled_entry['disabled_seconds']:.4f}s  "
        f"sampled={sampled_entry['sampled_seconds']:.4f}s "
        f"({sampled_entry['sampled_overhead_percent']:+.2f}%)  "
        f"kept={sampled_entry['sampler_kept']} "
        f"dropped={sampled_entry['sampler_dropped']}"
    )

    out = args.out
    if out is None and not args.smoke:
        out = Path(__file__).resolve().parent.parent / (
            "BENCH_observability.json"
        )
    if out is not None:
        payload = {
            "benchmark": "observability",
            "contract": "disabled instrumented call < 5% over bare; "
                        "enabled stats/query path < 10% over disabled; "
                        "sampled (rate=0.1) query path < 10% over "
                        "disabled",
            "chase": chase_entry,
            "noop_call": noop_entry,
            "stats": stats_entry,
            "sampled": sampled_entry,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    # The 5% contract is judged on the full 400-row measurement; the
    # 100-row smoke run is noise-dominated (a ~7ms denominator), so it
    # gets the same relaxed bound the pytest check uses.
    limit = 15.0 if args.smoke else 5.0
    if chase_entry["disabled_overhead_percent"] >= limit:
        print(f"ERROR: disabled overhead exceeds the {limit:g}% contract")
        return 1
    stats_limit = 25.0 if args.smoke else 10.0
    if stats_entry["stats_overhead_percent"] >= stats_limit:
        print(f"ERROR: enabled stats/query-path overhead exceeds the "
              f"{stats_limit:g}% contract")
        return 1
    if sampled_entry["sampled_overhead_percent"] >= stats_limit:
        print(f"ERROR: sampled query-path overhead exceeds the "
              f"{stats_limit:g}% contract")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
