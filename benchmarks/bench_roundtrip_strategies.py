"""E4 — §4 / ADO.NET: inheritance-mapping strategies and
roundtripping.

For hierarchies of growing size, each strategy (TPH, TPT, TPC) is run
through ModelGen → TransGen → roundtrip verification, measuring the
generated view's size and the cost of the losslessness check.  This is
the ablation DESIGN.md calls out: the strategy is a design choice with
measurable consequences — TPT's views grow with hierarchy depth (one
join per level, one anti-join per type), TPH's stay flat but its table
gets wide, TPC duplicates inherited columns.

Run standalone (``python benchmarks/bench_roundtrip_strategies.py``)
to emit ``BENCH_roundtrip.json`` through the harness
(``benchmarks/harness.py``): the E4 table at depths 1–3, every row
roundtrip-verified.  The run fails if a query view's node count leaves
its pinned value (``_E4_NODES``).  ``--smoke`` builds the same table
and rewrites no JSON unless ``--out`` is given
(``make transgen-smoke``).
"""

import pytest

from repro.instances import InstanceGenerator
from repro.operators import InheritanceStrategy, modelgen, transgen
from repro.workloads import synthetic

from conftest import print_table


def _hierarchy(depth: int, branching: int = 2):
    return synthetic.inheritance_schema(
        f"H{depth}x{branching}", depth=depth, branching=branching,
        attributes_per_entity=2,
    )


@pytest.mark.parametrize("strategy", list(InheritanceStrategy))
def test_modelgen_per_strategy(benchmark, strategy):
    schema = _hierarchy(2)

    result = benchmark(modelgen, schema, "relational", strategy)
    assert result.mapping.equalities


@pytest.mark.parametrize("strategy", list(InheritanceStrategy))
def test_roundtrip_per_strategy(benchmark, strategy):
    schema = _hierarchy(2)
    views = transgen(modelgen(schema, "relational", strategy).mapping)
    db = InstanceGenerator(schema, seed=7).generate(40)

    benchmark(views.verify_roundtrip, db)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_depth_scaling_tpt(benchmark, depth):
    schema = _hierarchy(depth)
    mapping = modelgen(schema, "relational", InheritanceStrategy.TPT).mapping

    views = benchmark(transgen, mapping)
    views.verify_roundtrip(
        InstanceGenerator(schema, seed=2).generate(20)
    )


#: E4's query-view node counts, by (depth, strategy).
_E4_NODES = {
    (1, "TPH"): 14, (1, "TPT"): 31, (1, "TPC"): 11,
    (2, "TPH"): 34, (2, "TPT"): 105, (2, "TPC"): 27,
    (3, "TPH"): 74, (3, "TPT"): 289, (3, "TPC"): 59,
}


def test_strategy_report(benchmark):
    """The E4 table; a query-view node count that leaves ``_E4_NODES``
    fails the run."""
    rows, moved = [], []
    for depth in (1, 2, 3):
        schema = _hierarchy(depth)
        for strategy in InheritanceStrategy:
            result = modelgen(schema, "relational", strategy)
            views = transgen(result.mapping)
            tables = len(result.schema.entities)
            columns = sum(
                len(e.attributes) for e in result.schema.entities.values()
            )
            nodes = views.query_view.size()
            pinned = _E4_NODES[depth, strategy.name]
            if nodes != pinned:
                moved.append(f"depth {depth} {strategy.name}: "
                             f"{nodes} != {pinned}")
            rows.append([
                depth,
                strategy.name,
                tables,
                columns,
                nodes,
                "yes",
            ])
            views.verify_roundtrip(
                InstanceGenerator(schema, seed=3).generate(15)
            )
    schema = _hierarchy(2)
    mapping = modelgen(schema, "relational", InheritanceStrategy.TPT).mapping
    benchmark(transgen, mapping)
    print_table(
        "E4: inheritance strategies — schema shape, view size, "
        "roundtrip (TPT: many narrow tables + joins; TPH: one wide "
        "table; TPC: duplicated columns)",
        ["depth", "strategy", "tables", "total columns",
         "query-view nodes", "roundtrips"],
        rows,
    )
    assert not moved, "E4 view sizes moved: " + "; ".join(moved)


# ----------------------------------------------------------------------
# standalone run -> BENCH_roundtrip.json (see benchmarks/harness.py)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    from harness import run_standalone

    return run_standalone("roundtrip", [test_strategy_report], argv)


if __name__ == "__main__":
    raise SystemExit(main())
