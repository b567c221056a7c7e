"""E3 — §4 / Fagin et al. [38][39]: chase-based exchange, universal
solutions, cores, certain answers.

Measures, as the source grows:

* chase time and universal-solution size;
* semi-naive (delta-driven) engine vs the naive Gauss–Seidel baseline;
* how many labeled nulls a mapping with existential density e invents;
* core computation — how much smaller the core is than the raw chase
  result when redundant derivations exist;
* certain-answer evaluation over the universal solution.

Expected shape: chase time grows with source size and with existential
density; the semi-naive engine's advantage grows with the number of
dependency "stages" (its per-round cost tracks the delta, the naive
engine's the whole instance); the core shrinks the redundant workload's
output but never the irredundant one's.

Run standalone (``python benchmarks/bench_chase_scaling.py``) to emit
``BENCH_chase.json`` through the harness (``benchmarks/harness.py``):
wall and process CPU time of both engines (the semi-naive engine's is
the median of three runs taken before the naive run), steps, rounds,
triggers examined and speedup for four workloads at three instance
sizes, so successive PRs leave a perf trajectory.  At the smallest
size every workload's result must be hom-equivalent to
``naive_chase``'s and take the same steps, and at every size no
one-atom-body dependency may examine more triggers than its body
relation has rows (a count gate: each row is read once per
dependency); the run exits non-zero otherwise.  ``--smoke`` runs only
the smallest size and rewrites no JSON unless ``--out`` is given
(``make chase-smoke``, which ``make test`` and the CI "Chase bench
smoke" step run).
"""

import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.instances import Instance, InstanceGenerator
from repro.logic import (
    certain_answers,
    chase,
    core_of,
    naive_chase,
    parse_query,
    parse_tgd,
)
from repro.logic.homomorphism import are_hom_equivalent, set_equal_modulo_nulls
from repro.workloads import synthetic

from conftest import print_table


def _exchange_workload(rows: int, existential_fraction: float, seed: int = 5):
    source, target, tgds = synthetic.exchange_tgds(
        relations=3, existential_fraction=existential_fraction, seed=seed
    )
    db = InstanceGenerator(source, seed=seed).generate(rows)
    return db, tgds


def _chain_workload(rows: int, stages: int = 8, forward: bool = False):
    """A copy chain R0 → R1 → … with the dependencies listed in
    *reverse* order — the naive engine needs ``stages`` full sweeps
    (each re-enumerating every trigger of every tgd), the semi-naive
    engine does delta-sized work per round.  ``forward`` lists them in
    chain order instead: one round does all the work, each stage
    reading the rows the one before it wrote."""
    db = Instance()
    for i in range(rows):
        db.add("R0", a=i, b=i % 7)
    tgds = [
        parse_tgd(f"R{k}(a=x, b=y) -> R{k + 1}(a=x, b=y)")
        for k in range(stages)
    ]
    return db, tgds if forward else tgds[::-1]


# ----------------------------------------------------------------------
# pytest-benchmark suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", [50, 100, 200])
def test_chase_time_scaling(benchmark, rows):
    db, tgds = _exchange_workload(rows, existential_fraction=0.5)

    result = benchmark(chase, db, tgds)
    assert result.instance.cardinality("T0") == rows


@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
def test_existential_density(benchmark, density):
    db, tgds = _exchange_workload(100, existential_fraction=density, seed=9)

    result = benchmark(chase, db, tgds)
    if density == 0.0:
        assert result.nulls_created == 0


def test_seminaive_vs_naive_chain(benchmark):
    db, tgds = _chain_workload(200)

    result = benchmark(chase, db, tgds)
    assert result.instance.cardinality("R8") == 200
    assert are_hom_equivalent(
        result.instance, naive_chase(db, tgds).instance
    )


def _redundant_workload(rows: int):
    """Two tgds derive overlapping target rows: one with a null, one
    with a constant — cores collapse the null rows."""
    db = Instance()
    for i in range(rows):
        db.add("S", a=i)
    tgds = [
        parse_tgd("S(a=x) -> T(a=x, b=y)"),
        parse_tgd("S(a=x) -> T(a=x, b=0)"),
    ]
    return db, tgds


@pytest.mark.parametrize("rows", [10, 20, 40])
def test_core_computation(benchmark, rows):
    db, tgds = _redundant_workload(rows)
    chased = chase(db, tgds).instance
    target = Instance()
    target.relations["T"] = chased.relations["T"]

    core = benchmark(core_of, target)
    assert core.cardinality("T") == rows  # nulls collapsed away
    assert not core.nulls()


def test_certain_answers(benchmark):
    db, tgds = _exchange_workload(100, existential_fraction=0.5)
    universal = chase(db, tgds).instance
    query = parse_query("q(k) :- T0(T0_k=k, T0_a0=a)")

    answers = benchmark(certain_answers, query, universal)
    assert len(answers) == 100


def test_chase_report(benchmark):
    rows_table = []
    for rows in (50, 100, 200):
        for density in (0.0, 0.5, 1.0):
            db, tgds = _exchange_workload(rows, density, seed=9)
            result = chase(db, tgds)
            rows_table.append([
                rows, density, result.steps,
                result.instance.total_rows() - db.total_rows(),
                result.nulls_created,
            ])
    db, tgds = _redundant_workload(20)
    chased = chase(db, tgds).instance
    target = Instance()
    target.relations["T"] = chased.relations["T"]
    core = core_of(target)
    benchmark(chase, db, tgds)
    print_table(
        "E3: chase-based exchange (universal solutions)",
        ["source rows", "∃-density", "chase steps", "target rows",
         "labeled nulls"],
        rows_table,
    )
    print_table(
        "E3b: core of a redundant universal solution",
        ["quantity", "value"],
        [
            ["chase output rows", target.cardinality("T")],
            ["core rows", core.cardinality("T")],
            ["nulls before/after",
             f"{len(target.nulls())} → {len(core.nulls())}"],
        ],
    )


# ----------------------------------------------------------------------
# standalone trajectory run → BENCH_chase.json (harness-v1)
# ----------------------------------------------------------------------
_SIZES = (250, 1000, 4000)


#: workload label → builder of (source, dependencies) at a size.  The
#: chain's gap between engines scales with its stages (naive sweeps cost
#: O(stages² · rows), delta rounds O(stages · rows)); 12 stages is the
#: depth of the composition-chain workloads.  Listed forward, the chain
#: costs the naive engine two sweeps, and each stage reads each row once.
_WORKLOADS = {
    "chain(stages=12)": lambda rows: _chain_workload(rows, stages=12),
    "chain(stages=12, forward)": lambda rows: _chain_workload(
        rows, stages=12, forward=True),
    "exchange(∃=0.5)": lambda rows: _exchange_workload(rows, 0.5, seed=9),
    "keyed": synthetic.keyed_exchange,
}


def _overreads(dependencies, result) -> list[str]:
    """The one-atom-body dependencies that examined more triggers than
    their body relation has rows, when no merge rewrote a row (a merge
    makes each plan read the rewritten rows again): each row is read
    once per plan, so a larger count means a row was read twice."""
    if result.stats.merges:
        return []
    found = []
    for dependency in dependencies:
        if len(dependency.body) != 1:
            continue
        label = dependency.name or str(dependency)[:60]
        examined = result.stats.triggers_examined.get(label, 0)
        rows = result.instance.cardinality(dependency.body[0].relation)
        if examined > rows:
            found.append(f"{label} examined {examined} triggers "
                         f"over {rows} rows")
    return found


def _timed(engine, db, dependencies):
    # Collect the previous runs' garbage first, so that a full
    # collection they leave due does not land inside this measurement.
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    result = engine(db, dependencies)
    return (result, time.perf_counter() - wall, time.process_time() - cpu)


def _median_timed(engine, db, dependencies, runs: int = 3):
    """The last of ``runs`` runs' results, with the median wall and the
    median CPU time of the runs."""
    timings = [_timed(engine, db, dependencies) for _ in range(runs)]
    return (timings[-1][0], statistics.median(t[1] for t in timings),
            statistics.median(t[2] for t in timings))


def trajectory_report(benchmark):
    """Both engines on every workload and size, with the semi-naive
    engine's trigger count.  The semi-naive engine is timed as the
    median of three runs taken before the naive run of the same size,
    so that one slow run after the previous size's naive run does not
    set its row.  The smallest size also checks the semi-naive result
    against the naive one (hom-equivalent, equal steps), and every size
    checks that no one-atom-body dependency examined more triggers than
    it has rows to read (see :func:`_overreads`); either failure fails
    the run."""
    rows_table, mismatches = [], []
    for workload, build in _WORKLOADS.items():
        for index, rows in enumerate(_SIZES):
            db, dependencies = build(rows)
            semi, semi_wall, semi_cpu = _median_timed(chase, db,
                                                      dependencies)
            naive, naive_wall, naive_cpu = _timed(naive_chase, db,
                                                  dependencies)
            checked = "—"
            if index == 0:
                # Equal up to null renaming, else homomorphic both ways.
                equivalent = set_equal_modulo_nulls(semi.instance,
                                                    naive.instance)
                checked = ("ok" if equivalent and semi.steps == naive.steps
                           else f"MISMATCH (steps {semi.steps} vs "
                                f"{naive.steps}, hom-equivalent "
                                f"{equivalent})")
                if checked != "ok":
                    mismatches.append(f"{workload} at {rows} rows: {checked}")
            mismatches.extend(f"{workload} at {rows} rows: {overread}"
                              for overread in _overreads(dependencies, semi))
            rows_table.append([
                workload, rows, semi.steps, semi.stats.rounds,
                sum(semi.stats.triggers_examined.values()),
                f"{semi_wall * 1000:.2f} ms", f"{semi_cpu * 1000:.2f} ms",
                f"{naive_wall * 1000:.2f} ms", f"{naive_cpu * 1000:.2f} ms",
                f"{naive_wall / semi_wall:.2f}x", checked,
            ])
            print(f"{workload:<25} rows={rows:>5}  "
                  f"semi={semi_wall:.4f}s  naive={naive_wall:.4f}s")
    db, dependencies = _chain_workload(_SIZES[0], stages=12)
    benchmark(chase, db, dependencies)
    print_table(
        "E3c: semi-naive (median of 3 runs) vs naive chase (one run), "
        "wall and process CPU time; smallest size checked against the "
        "naive result",
        ["workload", "source rows", "steps", "rounds", "examined",
         "semi-naive", "semi-naive cpu", "naive", "naive cpu", "speedup",
         "naive check"],
        rows_table,
    )
    assert not mismatches, "semi-naive chase failed a check: " \
        + "; ".join(mismatches)


def main(argv=None) -> int:
    from harness import run_standalone

    if argv is None:
        argv = sys.argv[1:]
    if "--smoke" in argv:
        global _SIZES
        _SIZES = _SIZES[:1]
    return run_standalone("chase", [trajectory_report], argv,
                          observe=False)


if __name__ == "__main__":
    raise SystemExit(main())
