"""Cost-based join ordering + adaptive re-optimization (ISSUE 8).

Two suites, both over mapping-runtime-shaped join pipelines:

* **join-order** — skewed and uniform chain/star workloads executed
  with the heuristic plans (``COST.enabled = False``, the written join
  order) and with the cost-based optimizer.  On the skewed workloads
  the written order materializes a fat many-many intermediate that the
  statistics clearly predict, so the cost-based order must win ≥2×
  (enforced as an absolute *floor* in BENCH_optimizer.json — see
  ``Harness.floor``); on the uniform workloads every order is fine and
  the cost-based plan must stay within noise.
* **reopt** — a workload whose *value* skew hides from the
  distinct-count estimator: the optimizer's first plan builds a
  360k-row intermediate it estimated at ~2.4k.  The first execution is
  flagged by the estimate↔actual divergence telemetry, the adaptive
  plan cache re-optimizes with actuals-corrected cardinalities, and
  the second execution must be measurably faster (floored at 2×).

Every workload is also run through the differential oracle: the
heuristic and cost-based trees must produce identical row multisets on
both engines (interpreted is the semantic reference).
"""

import time

from repro.algebra import clear_plan_cache, evaluate
from repro.algebra import expressions as E
from repro.algebra.optimizer import COST
from repro.algebra.plan_cache import GLOBAL_VECTOR_PLAN_CACHE
from repro.instances import Instance

from conftest import print_table

#: Divisor applied to workload sizes in --smoke mode (and always for
#: the interpreted-engine oracle, which walks every row).
SMOKE_DIVISOR = 8
_SMOKE = False

# Acceptance bars (BENCH floors / in-run asserts).
SKEWED_MIN_SPEEDUP = 2.0
REOPT_MIN_SPEEDUP = 2.0
#: Uniform workloads must not regress beyond noise.
UNIFORM_NOISE_FLOOR = 0.5

ENGINES = ("interpreted", "vectorized")


def _scale(n: int) -> int:
    return max(8, n // SMOKE_DIVISOR) if _SMOKE else n


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _skewed_chain(divisor: int = 1) -> tuple[Instance, E.RelExpr]:
    """A ⋈j B is many-many (60×60 per key); A ⋈k C is selective.
    Written order joins the fat pair first."""
    n = _scale(3000) // divisor
    keys = max(n // 60, 1)
    db = Instance()
    db.insert_all("A", [{"j": i % keys, "k": i, "va": i} for i in range(n)])
    db.insert_all("B", [{"j": i % keys, "vb": i} for i in range(n)])
    db.insert_all("C", [{"k": i * 97 % n, "vc": i} for i in range(max(n // 100, 3))])
    query = E.Join(
        E.Join(E.Scan("A"), E.Scan("B"), E._JoinEq("j", "j")),
        E.Scan("C"),
        E._JoinEq("k", "k"),
    )
    return db, query


def _uniform_chain(divisor: int = 1) -> tuple[Instance, E.RelExpr]:
    """Same shape, unique join keys everywhere: any order is fine."""
    n = _scale(3000) // divisor
    db = Instance()
    db.insert_all("A", [{"j": i, "k": i, "va": i} for i in range(n)])
    db.insert_all("B", [{"j": i, "vb": i} for i in range(n)])
    db.insert_all("C", [{"k": i * 97 % n, "vc": i} for i in range(max(n // 100, 3))])
    query = E.Join(
        E.Join(E.Scan("A"), E.Scan("B"), E._JoinEq("j", "j")),
        E.Scan("C"),
        E._JoinEq("k", "k"),
    )
    return db, query


def _skewed_star(divisor: int = 1) -> tuple[Instance, E.RelExpr]:
    """Fact ⋈ fat dimension first (written order) vs the selective
    dimension first (what the estimates prefer)."""
    n = _scale(3000) // divisor
    keys = max(n // 60, 1)
    db = Instance()
    db.insert_all(
        "F", [{"k1": i % keys, "k2": i, "k3": i, "vf": i} for i in range(n)]
    )
    db.insert_all("D1", [{"k1": i % keys, "p1": i} for i in range(n)])
    db.insert_all("D2", [{"k2": i, "p2": i} for i in range(n)])
    db.insert_all(
        "DS", [{"k3": i * 113 % n, "p3": i} for i in range(max(n // 120, 3))]
    )
    query = E.Join(
        E.Join(
            E.Join(E.Scan("F"), E.Scan("D1"), E._JoinEq("k1", "k1")),
            E.Scan("D2"),
            E._JoinEq("k2", "k2"),
        ),
        E.Scan("DS"),
        E._JoinEq("k3", "k3"),
    )
    return db, query


def _uniform_star(divisor: int = 1) -> tuple[Instance, E.RelExpr]:
    n = _scale(3000) // divisor
    db = Instance()
    db.insert_all(
        "F", [{"k1": i, "k2": i, "k3": i, "vf": i} for i in range(n)]
    )
    db.insert_all("D1", [{"k1": i, "p1": i} for i in range(n)])
    db.insert_all("D2", [{"k2": i, "p2": i} for i in range(n)])
    db.insert_all(
        "DS", [{"k3": i * 113 % n, "p3": i} for i in range(max(n // 120, 3))]
    )
    query = E.Join(
        E.Join(
            E.Join(E.Scan("F"), E.Scan("D1"), E._JoinEq("k1", "k1")),
            E.Scan("D2"),
            E._JoinEq("k2", "k2"),
        ),
        E.Scan("DS"),
        E._JoinEq("k3", "k3"),
    )
    return db, query


WORKLOADS = [
    ("skewed-chain", _skewed_chain, True),
    ("skewed-star", _skewed_star, True),
    ("uniform-chain", _uniform_chain, False),
    ("uniform-star", _uniform_star, False),
]


def _reopt_workload() -> tuple[Instance, E.RelExpr]:
    """Value skew the distinct-count estimator cannot see: A ⋈j B has
    one value on half the rows (est ~2.4k, actual ~360k), while A ⋈k C
    *looks* expensive (few distincts on both sides) but is selective.
    The optimizer's first plan is the trap; only runtime actuals fix
    the order."""
    n = _scale(1200)
    half = n // 2
    db = Instance()
    rows_a = []
    for i in range(n):
        if i < half:
            rows_a.append({"j": 0, "k": 1 + i % 9, "va": i})
        else:
            # unique j; a tenth of these rows carry the overlap key 0
            k = 0 if i < half + max(n // 10, 1) else 1 + i % 9
            rows_a.append({"j": i, "k": k, "va": i})
    db.insert_all("A", rows_a)
    db.insert_all(
        "B", [{"j": 0 if i < half else i, "vb": i} for i in range(n)]
    )
    nc = max(n // 5, 8)
    db.insert_all(
        "C",
        [{"k": 0 if i < max(nc // 40, 2) else 1001 + i % 7, "vc": i}
         for i in range(nc)],
    )
    query = E.Join(
        E.Join(E.Scan("A"), E.Scan("B"), E._JoinEq("j", "j")),
        E.Scan("C"),
        E._JoinEq("k", "k"),
    )
    return db, query


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _canon(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


def _timed_eval(expr, db, enabled: bool, repeats: int = 3) -> float:
    """Best-of warm wall ms on the vectorized engine with the
    cost-based phase toggled."""
    COST.enabled = enabled
    clear_plan_cache()
    evaluate(expr, db, engine="vectorized")  # warm: optimize + compile
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        evaluate(expr, db, engine="vectorized")
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _floor(benchmark, key: str, value: float) -> None:
    harness = getattr(benchmark, "_harness", None)
    if harness is not None and hasattr(harness, "floor"):
        harness.floor(key, value)


# ----------------------------------------------------------------------
# report: heuristic vs cost-based join order
# ----------------------------------------------------------------------
def test_join_order_report(benchmark):
    rows = []
    try:
        for name, build, skewed in WORKLOADS:
            db, query = build()
            heuristic_ms = _timed_eval(query, db, enabled=False)
            cost_ms = _timed_eval(query, db, enabled=True)
            speedup = heuristic_ms / max(cost_ms, 1e-9)
            rows.append([
                name,
                f"{heuristic_ms:.1f} ms",
                f"{cost_ms:.1f} ms",
                f"{speedup:.1f}x",
            ])
            # Smoke sizes are planning-dominated; the timing bars only
            # mean something at full scale.
            if skewed:
                assert _SMOKE or speedup >= SKEWED_MIN_SPEEDUP, (
                    f"{name}: cost-based plan only {speedup:.2f}x over "
                    f"the written order (bar {SKEWED_MIN_SPEEDUP}x)"
                )
                _floor(benchmark, f"{name}/speedup", SKEWED_MIN_SPEEDUP)
            else:
                assert _SMOKE or speedup >= UNIFORM_NOISE_FLOOR, (
                    f"{name}: cost-based planning regressed the uniform "
                    f"workload to {speedup:.2f}x"
                )
    finally:
        COST.enabled = True
        clear_plan_cache()
    print_table(
        "join order: written (heuristic) vs cost-based plans "
        "(vectorized, warm)",
        ["workload", "heuristic", "cost-based", "speedup"],
        rows,
    )


# ----------------------------------------------------------------------
# report: differential oracle
# ----------------------------------------------------------------------
def test_differential_oracle_report(benchmark):
    """Heuristic and cost-based trees produce identical row multisets
    on both engines (reduced sizes — the interpreter is the
    bottleneck, and plan *choice* is size-independent here)."""
    rows = []
    try:
        for name, build, _skewed in WORKLOADS:
            db, query = build(divisor=SMOKE_DIVISOR)
            results = {}
            for enabled in (False, True):
                COST.enabled = enabled
                clear_plan_cache()
                for engine in ENGINES:
                    results[(enabled, engine)] = _canon(
                        evaluate(query, db, engine=engine)
                    )
            reference = results[(False, "interpreted")]
            assert all(
                result == reference for result in results.values()
            ), f"{name}: engine/optimizer results diverge"
            rows.append([name, str(len(reference)), "ok"])
    finally:
        COST.enabled = True
        clear_plan_cache()
    print_table(
        "differential oracle: heuristic ≡ cost-based × 2 engines",
        ["workload", "rows", "verdict"],
        rows,
    )


# ----------------------------------------------------------------------
# report: adaptive re-optimization
# ----------------------------------------------------------------------
def test_reopt_report(benchmark):
    """The feedback loop end to end: mis-planned first execution →
    divergence flagged → cached plan evicted (reason=reopt) →
    re-planned with actuals → second execution measurably faster."""
    db, query = _reopt_workload()
    COST.enabled = True
    clear_plan_cache()
    walls = []
    canons = []
    for _ in range(4):
        start = time.perf_counter()
        result = evaluate(query, db, engine="vectorized")
        walls.append((time.perf_counter() - start) * 1000.0)
        canons.append(_canon(result))
    assert all(c == canons[0] for c in canons), (
        "re-optimized plan changed the result"
    )
    stats = GLOBAL_VECTOR_PLAN_CACHE.stats()
    assert stats["reopts"] >= 1, "divergence never scheduled a re-opt"
    assert stats["evictions_by_reason"]["reopt"] >= 1
    speedup = walls[0] / max(walls[1], 1e-9)
    assert _SMOKE or speedup >= REOPT_MIN_SPEEDUP, (
        f"re-optimized execution only {speedup:.2f}x faster "
        f"(bar {REOPT_MIN_SPEEDUP}x)"
    )
    _floor(benchmark, "second (re-planned)/speedup", REOPT_MIN_SPEEDUP)
    rows = [
        ["first (mis-planned)", f"{walls[0]:.1f} ms", ""],
        ["second (re-planned)", f"{walls[1]:.1f} ms", f"{speedup:.1f}x"],
        ["third (converged)", f"{walls[2]:.1f} ms", ""],
        ["fourth (cache hit)", f"{walls[3]:.1f} ms", ""],
    ]
    print_table(
        f"adaptive re-optimization ({stats['reopts']} re-opt(s), "
        f"rows={len(canons[0])})",
        ["execution", "wall", "speedup"],
        rows,
    )
    clear_plan_cache()


# ----------------------------------------------------------------------
# standalone run -> BENCH_optimizer.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import sys

    from harness import run_standalone

    global _SMOKE
    args = list(sys.argv[1:] if argv is None else argv)
    _SMOKE = "--smoke" in args
    return run_standalone(
        "optimizer",
        [
            test_join_order_report,
            test_differential_oracle_report,
            test_reopt_report,
        ],
        args,
    )


if __name__ == "__main__":
    raise SystemExit(main())
