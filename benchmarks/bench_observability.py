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
  ``query`` journal event + per-node profiling) vs off.  The
  acceptance bound is < 10% overhead, plus an informational ns/row
  figure for absorbing appended rows into a warm ``RelationStats``
  cache;
* **sampled query-path overhead** — the same workload with the trace
  sampler active at a 10% keep rate (the recommended production
  setting): head-dropped traces still pay span construction for
  tail-keep, and the bound is the same < 10% contract.

Standalone (``python benchmarks/bench_observability.py [--smoke]
[--out PATH]``) emits harness-v1 ``BENCH_observability.json`` through
``benchmarks/harness.py``, with each bound declared as a ceiling that
the regression watchdog enforces, and exits nonzero if a bound is
violated.  The pytest entries assert the same bounds, with slack for
noisy CI machines.
"""

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
    """Enabled query-path overhead: statistics + estimator + journal.

    A warm-plan-cache select+join workload, best-of-``repeat``, with
    observability off vs on.  The enabled run pays for the per-node
    profiled pipeline, the cardinality estimator (statistics served
    from the validated cache), and the ``query`` journal event — the
    whole estimate↔actual telemetry path.  Separately reports the absolute
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


# ----------------------------------------------------------------------
# standalone run -> BENCH_observability.json (harness-v1)
# ----------------------------------------------------------------------
#: ``--smoke``: a smaller chase and fewer rounds, for CI sanity.
_SMOKE = False

#: Overhead rows with a bound: the ceiling declared in the payload (and
#: the full run's exit-code limit), then the smoke run's exit-code
#: limit, in percent.  A 100-row smoke chase is noise-dominated, so
#: the smoke run gets relaxed limits.
_LIMITS = {
    "disabled chase vs bare": (5.0, 15.0),
    "enabled query vs disabled": (10.0, 25.0),
    "sampled query vs disabled": (10.0, 25.0),
}

#: Limits the last report run exceeded; :func:`main` exits 1 on any.
_BREACHES: list[str] = []


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f} ms"


def test_observability_report(benchmark):
    """Every overhead measurement as one table.  Run standalone, the
    bounded rows declare their ceilings on the harness and the raw
    measurements go into the payload's ``results``.  Under pytest
    there is no harness: the report runs the smoke sizes and only
    prints, as the ``test_*_bound`` entries assert the bounds."""
    harness = getattr(benchmark, "_harness", None)
    smoke = _SMOKE or harness is None
    rows = 100 if smoke else 400
    # Bare and disabled do identical work, so the 5% gate judges pure
    # noise: on a shared 2-vCPU VM, 5 interleaved rounds spread the
    # pair by up to ±30% and 20 rounds by about ±7%.
    chase_entry = measure_chase_overhead(
        rows=rows, repeat=5 if smoke else 20
    )
    noop_entry = measure_noop_overhead(
        calls=50_000 if smoke else 500_000
    )
    # Always full-size rows: the overhead is a fixed per-query cost,
    # so a smaller query would inflate the percentage.
    stats_entry = measure_stats_overhead(rows=4000, repeat=3 if smoke else 7)
    sampled_entry = measure_sampled_overhead(
        rows=4000, repeat=3 if smoke else 7
    )
    table = [
        [path, _ms(entry[base]), _ms(entry[measured]),
         f"{entry[overhead]:+.2f}%"]
        for path, entry, base, measured, overhead in (
            ("disabled chase vs bare", chase_entry, "bare_seconds",
             "disabled_seconds", "disabled_overhead_percent"),
            ("enabled chase vs bare", chase_entry, "bare_seconds",
             "enabled_seconds", "enabled_overhead_percent"),
            ("enabled query vs disabled", stats_entry, "disabled_seconds",
             "enabled_seconds", "stats_overhead_percent"),
            ("sampled query vs disabled", sampled_entry,
             "disabled_seconds", "sampled_seconds",
             "sampled_overhead_percent"),
        )
    ]
    print_table(
        f"Observability overhead (best of interleaved rounds; chase: "
        f"{chase_entry['workload']}; query: {stats_entry['workload']}, "
        f"sampled at rate 0.1)",
        ["path", "baseline", "measured", "overhead"],
        table,
    )
    print(
        f"no-op: plain={noop_entry['plain_ns_per_call']}ns/call  "
        f"disabled wrapper={noop_entry['disabled_ns_per_call']}ns/call  "
        f"stats extend={stats_entry['stats_extend_ns_per_row']}ns/row  "
        f"sampler kept={sampled_entry['sampler_kept']} "
        f"dropped={sampled_entry['sampler_dropped']}"
    )
    if harness is None:
        benchmark(lambda: chase(*_chain_workload(50)))
        return
    for path, _, _, overhead in table:
        if path not in _LIMITS:
            continue
        ceiling, smoke_limit = _LIMITS[path]
        harness.ceiling(f"{path}/overhead", ceiling)
        limit = smoke_limit if _SMOKE else ceiling
        if float(overhead.rstrip("%")) >= limit:
            _BREACHES.append(f"{path} overhead {overhead} exceeds the "
                             f"{limit:g}% limit")
    for section, entry in (("chase", chase_entry), ("noop_call", noop_entry),
                           ("stats", stats_entry),
                           ("sampled", sampled_entry)):
        harness.record(section=section, **entry)


def main(argv=None) -> int:
    from harness import run_standalone

    global _SMOKE
    args = list(sys.argv[1:] if argv is None else argv)
    _SMOKE = "--smoke" in args
    _BREACHES.clear()
    status = run_standalone("observability", [test_observability_report],
                            args, observe=False)
    for breach in _BREACHES:
        print(f"ERROR: {breach}")
    return status or (1 if _BREACHES else 0)


if __name__ == "__main__":
    raise SystemExit(main())
