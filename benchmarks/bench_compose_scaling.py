"""E2 — §6.1 / Fagin et al. [40]: composition blow-up.

The cited result: SO-tgd composition has an exponential lower bound —
"the size of the output may be exponential".  Two workload families
make the dichotomy visible:

* **linear** — chains of k copy mappings: composed size stays constant
  per step, time grows linearly in k;
* **exponential** — the alternatives construction (each middle
  relation has 2 origins; one target rule joins n of them): the
  composition must enumerate 2ⁿ origin combinations.

Expected shape: implication count exactly 2ⁿ in the second family, and
near-flat constraint counts in the first.

Run standalone (``python benchmarks/bench_compose_scaling.py``) to emit
``BENCH_compose.json`` through the harness (``benchmarks/harness.py``):
the E2 table with the median wall and CPU time of each composition, at
chains of 2, 4 and 8 steps and widths 2 to 10.  The run fails if a
clause count leaves E2's values (3 per chain, 2ⁿ per width).
``--smoke`` runs the chains of 2 and 4 steps and the widths up to 6,
and rewrites no JSON unless ``--out`` is given (``make compose-smoke``).
"""

import statistics
import sys
import time

import pytest

from repro.operators import compose
from repro.workloads import synthetic

from conftest import print_table


def _compose_chain(mappings):
    current = mappings[0]
    for mapping in mappings[1:]:
        current = compose(current, mapping)
    return current


@pytest.mark.parametrize("steps", [2, 4, 8])
def test_linear_chain(benchmark, steps):
    mappings = synthetic.composition_chain_linear(steps, relations=3)

    composed = benchmark(_compose_chain, mappings)
    assert composed.constraint_count() == 3  # one per relation, flat


@pytest.mark.parametrize("width", [2, 4, 6, 8])
def test_exponential_family(benchmark, width):
    m12, m23 = synthetic.composition_pair_exponential(width)

    composed = benchmark(compose, m12, m23, False)
    assert len(composed.so_tgd.implications) == 2 ** width


def test_deskolemization_cost(benchmark):
    """First-order recovery is an extra pass over every implication."""
    m12, m23 = synthetic.composition_pair_exponential(6)

    composed = benchmark(compose, m12, m23, True)
    # These compositions de-Skolemize (origins are full tgds).
    assert composed.so_tgd is None


#: The E2 rows: chain steps k and alternatives widths n.
_CHAINS = (2, 4, 8)
_WIDTHS = (2, 4, 6, 8, 10)


def _timed(fn, repeats: int):
    """``fn()``'s result, with the median wall and CPU ms of ``repeats``
    runs."""
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return (result, f"{statistics.median(walls) * 1000:.2f} ms",
            f"{statistics.median(cpus) * 1000:.2f} ms")


def test_compose_report(benchmark):
    """The E2 table, timed: each row is one composition's output size
    and its median wall and CPU time; a size that leaves E2's values
    (3 for a chain, 2ⁿ for width n) fails the run."""
    rows, moved = [], []
    for steps in _CHAINS:
        mappings = synthetic.composition_chain_linear(steps, relations=3)
        composed, wall, cpu = _timed(lambda: _compose_chain(mappings), 5)
        if composed.constraint_count() != 3:
            moved.append(f"chain of {steps}: {composed.constraint_count()} != 3")
        rows.append(["linear", steps, composed.constraint_count(),
                     composed.language.value, wall, cpu])
    for width in _WIDTHS:
        m12, m23 = synthetic.composition_pair_exponential(width)
        composed, wall, cpu = _timed(
            lambda: compose(m12, m23, prefer_first_order=False),
            3 if width >= 10 else 5,
        )
        clauses = len(composed.so_tgd.implications)
        if clauses != 2 ** width:
            moved.append(f"width {width}: {clauses} != {2 ** width}")
        rows.append(["exponential", width, clauses, "so-tgd", wall, cpu])
    m12, m23 = synthetic.composition_pair_exponential(4)
    benchmark(compose, m12, m23, False)
    print_table(
        "E2: composition output size (linear chains vs the 2ⁿ "
        "alternatives family — Fagin et al.'s lower bound), with the "
        "median wall and CPU time of one composition",
        ["family", "k / n", "output constraints", "language", "wall", "cpu"],
        rows,
    )
    assert not moved, "E2 clause counts moved: " + "; ".join(moved)


# ----------------------------------------------------------------------
# standalone run -> BENCH_compose.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    from harness import run_standalone

    if argv is None:
        argv = sys.argv[1:]
    if "--smoke" in argv:
        global _CHAINS, _WIDTHS
        _CHAINS, _WIDTHS = _CHAINS[:2], _WIDTHS[:3]
    return run_standalone("compose", [test_compose_report], argv,
                          observe=False)


if __name__ == "__main__":
    raise SystemExit(main())
