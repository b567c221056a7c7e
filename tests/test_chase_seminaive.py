"""Semi-naive chase: equivalence with the naive engine, budget
semantics, stats, weak-acyclicity edge cases, and the instance-layer
index/view contracts the engine relies on."""

import pytest

from repro.errors import ChaseFailure, ChaseNonTermination
from repro.instances import Instance, InstanceGenerator
from repro.instances.database import RowsView, hashable_key
from repro.instances.labeled_null import LabeledNull
from repro.logic import (
    EGD,
    TGD,
    ChaseStats,
    Var,
    are_hom_equivalent,
    chase,
    is_weakly_acyclic,
    naive_chase,
    parse_egd,
    parse_tgd,
)
from repro.logic.formulas import Atom
from repro.mappings import interpret_as_tgds
from repro.workloads import paper, synthetic


# ----------------------------------------------------------------------
# equivalence with the naive reference engine
# ----------------------------------------------------------------------
class TestHomEquivalence:
    def assert_equivalent(self, instance, dependencies):
        semi = chase(instance, dependencies)
        naive = naive_chase(instance, dependencies)
        assert are_hom_equivalent(semi.instance, naive.instance)
        return semi, naive

    def test_figure4_workload(self):
        mapping = interpret_as_tgds(paper.figure4_correspondences())
        semi, _ = self.assert_equivalent(
            paper.figure4_source_instance(), mapping.tgds
        )
        staff = semi.instance.rows("Staff")
        assert {(r["SID"], r["Name"], r["City"]) for r in staff} == {
            (1, "Ann", "Rome"),
            (2, "Bob", "Oslo"),
        }

    def test_figure2_key_enforced_exchange(self):
        # Figure 2's mapping itself is bidirectional-equality, so the
        # chase sees it through its tgd reading plus target keys.
        db = paper.figure2_sql_instance()
        tgds = [
            parse_tgd(
                "HR_Employees(id=i, name=n) -> Person(Id=i, Name=n)"
            ),
            parse_egd(
                "Person(Id=i, Name=a) & Person(Id=i, Name=b) -> a = b"
            ),
        ]
        self.assert_equivalent(db, tgds)

    def test_figure6_composition_workload(self):
        db = paper.figure6_s_instance()
        self.assert_equivalent(db, paper.figure6_map_s_sprime().tgds)

    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_synthetic_exchange(self, density):
        source, _, tgds = synthetic.exchange_tgds(
            relations=3, existential_fraction=density, seed=9
        )
        db = InstanceGenerator(source, seed=9).generate(40)
        semi, naive = self.assert_equivalent(db, tgds)
        assert semi.instance.cardinality("T0") == 40
        if density == 0.0:
            assert semi.nulls_created == 0

    def test_tgd_egd_interaction(self):
        db = Instance()
        db.add("Emp", name="ann", dept="sales")
        db.add("Emp", name="bob", dept="sales")
        deps = [
            parse_tgd("Emp(name=n, dept=d) -> Dept(did=e, name=d)"),
            parse_egd(
                "Dept(did=a, name=n) & Dept(did=b, name=n) -> a = b"
            ),
        ]
        semi, naive = self.assert_equivalent(db, deps)
        assert semi.instance.cardinality("Dept") == naive.instance.cardinality(
            "Dept"
        )

    def test_chain_workload(self):
        # R0 → R1 → … → R5, dependencies listed in reverse order: the
        # worst case for Gauss–Seidel sweeps, a plain cascade for the
        # delta engine.
        db = Instance()
        for i in range(20):
            db.add("R0", a=i)
        tgds = [
            parse_tgd(f"R{k}(a=x) -> R{k + 1}(a=x)") for k in range(5)
        ][::-1]
        semi, naive = self.assert_equivalent(db, tgds)
        assert semi.instance.cardinality("R5") == 20

    def test_rechase_is_idempotent(self):
        mapping = interpret_as_tgds(paper.figure4_correspondences())
        once = chase(paper.figure4_source_instance(), mapping.tgds)
        again = chase(once.instance, mapping.tgds)
        assert again.steps == 0


# ----------------------------------------------------------------------
# max_steps budget is exact
# ----------------------------------------------------------------------
class TestMaxSteps:
    def _workload(self, rows=5):
        db = Instance()
        for i in range(rows):
            db.add("A", x=i)
        return db, [parse_tgd("A(x=v) -> B(x=v)")]

    def test_budget_never_overshoots(self):
        db, tgds = self._workload(5)
        with pytest.raises(ChaseNonTermination):
            chase(db, tgds, max_steps=1, copy=False)
        # The old engine applied the whole round (5 rows) before
        # noticing; the budget must now be exact.
        assert db.cardinality("B") <= 1

    def test_budget_exactly_sufficient(self):
        db, tgds = self._workload(5)
        result = chase(db, tgds, max_steps=5)
        assert result.steps == 5

    def test_zero_budget(self):
        db, tgds = self._workload(1)
        with pytest.raises(ChaseNonTermination):
            chase(db, tgds, max_steps=0)

    def test_egd_budget(self):
        db = Instance()
        null_a, null_b = LabeledNull(0), LabeledNull(1)
        db.add("R", k=1, v=null_a)
        db.add("R", k=1, v=null_b)
        egd = parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")
        with pytest.raises(ChaseNonTermination):
            chase(db, [egd], max_steps=0)


# ----------------------------------------------------------------------
# fired-key collisions
# ----------------------------------------------------------------------
def test_fired_keys_distinct_for_same_prefix():
    # Two unnamed tgds whose str() agrees beyond 60 characters: their
    # firing counts must not be merged under one key.
    long_attr = "attribute_with_a_very_long_name_that_pads_the_prefix"
    db = Instance()
    db.add("SomeVeryLongRelationName", **{long_attr: 1})
    tgd_a = parse_tgd(
        f"SomeVeryLongRelationName({long_attr}=x) -> OutA({long_attr}=x)"
    )
    tgd_b = parse_tgd(
        f"SomeVeryLongRelationName({long_attr}=x) -> OutB({long_attr}=x)"
    )
    assert str(tgd_a)[:60] == str(tgd_b)[:60]
    result = chase(db, [tgd_a, tgd_b])
    assert len(result.fired) == 2
    assert all(count == 1 for count in result.fired.values())


# ----------------------------------------------------------------------
# ChaseStats
# ----------------------------------------------------------------------
def test_chase_stats_populated():
    db = Instance()
    for i in range(10):
        db.add("S", a=i)
    result = chase(db, [parse_tgd("S(a=x) -> T(a=x, b=y)")])
    stats = result.stats
    assert isinstance(stats, ChaseStats)
    assert stats.rounds >= 2  # work round + fixpoint round
    assert stats.delta_sizes[-1] == 0
    assert sum(stats.delta_sizes) == 10
    assert sum(stats.triggers_examined.values()) >= 10
    assert stats.wall_time > 0
    assert "rounds" in stats.describe()


def test_chase_stats_counts_egd_merges():
    db = Instance()
    db.add("R", k=1, v=LabeledNull(0))
    db.add("R", k=1, v=LabeledNull(1))
    result = chase(db, [parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")])
    assert result.stats.merges == 1


# ----------------------------------------------------------------------
# each row read once per plan
# ----------------------------------------------------------------------
class TestReadOncePerPlan:
    def test_forward_chain(self):
        # Listed in forward order, each stage reads the rows the one
        # before it wrote in the same round, and never again.
        db = Instance()
        for i in range(40):
            db.add("R0", a=i)
        tgds = [parse_tgd(f"R{k}(a=x) -> R{k + 1}(a=x)") for k in range(3)]
        result = chase(db, tgds)
        assert result.stats.triggers_examined == {
            str(tgd): 40 for tgd in tgds
        }
        assert result.stats.rounds == 2
        assert result.stats.delta_sizes == [120, 0]

    def test_initial_delta_row_rewritten_in_place(self):
        # A chase-consistent instance whose first R row is then
        # rewritten in place, as maintenance restores a row: the initial
        # delta names a row at the head of R, not at its tail, and every
        # plan reading R pins it.
        db = Instance()
        for i in range(3):
            db.add("R", a=i)
        tgds = [parse_tgd("R(a=x) -> S(a=x)"), parse_tgd("R(a=x) -> T(a=x)")]
        working = chase(db, tgds).instance
        row = working.relations["R"][0]
        row["a"] = 99
        working.mark_dirty()
        result = chase(working, tgds, copy=False, initial_delta={"R": [row]})
        assert result.stats.triggers_examined == {str(t): 1 for t in tgds}
        assert result.steps == 2
        assert {r["a"] for r in result.instance.rows("S")} == {0, 1, 2, 99}
        assert {r["a"] for r in result.instance.rows("T")} == {0, 1, 2, 99}

    def test_first_run_after_round_zero_reads_rewritten_rows(self):
        # The join reads nothing in the initial delta, so its first run
        # comes in round 1, after round 0's merge rewrote U(⊥) — a row
        # that was there before the chase — into U('c').  It must read
        # that row, which then meets C('c').
        null = LabeledNull(0)
        db = Instance()
        db.insert("S", {"k": 1, "v": null})
        db.insert("T", {"k": 1, "v": null})
        db.insert("U", {"v": null})
        db.insert("C", {"v": "c"})
        deps = [
            parse_tgd("S(k=x, v=y) -> T(k=x, v=y)"),
            parse_egd("T(k=x, v=a) & T(k=x, v=b) -> a = b"),
            parse_tgd("U(v=y) & C(v=y) -> Hit(v=y)"),
        ]
        fresh = {"k": 1, "v": "c"}
        db.insert("S", fresh)
        naive = naive_chase(db, deps)
        seed = {"S": [db.relations["S"][-1]]}
        result = chase(db, deps, copy=False, initial_delta=seed)
        assert are_hom_equivalent(result.instance, naive.instance)
        assert result.instance.rows("Hit") == [{"v": "c"}]
        assert result.steps == naive.steps == 3


# ----------------------------------------------------------------------
# weak acyclicity edge cases
# ----------------------------------------------------------------------
class TestWeaklyAcyclicEdgeCases:
    def test_special_edge_self_loop(self):
        # R.b ⇒∃ R.a with R.a feeding back: the special edge closes a
        # cycle on a single position pair (src == dst case included).
        tgd = TGD(
            body=(Atom("R", (("a", Var("x")), ("b", Var("u")))),),
            head=(Atom("R", (("a", Var("z")), ("b", Var("x")))),),
        )
        assert not is_weakly_acyclic([tgd])

    def test_special_edge_same_position(self):
        # src == dst exactly: frontier variable x at body position R.a,
        # existential y at head position R.a — the self-loop special
        # edge must be reported without needing a multi-edge cycle.
        tgd = parse_tgd("R(a=x) -> R(a=y) & S(b=x)")
        assert not is_weakly_acyclic([tgd])

    def test_non_frontier_existential_is_acyclic(self):
        # x never reaches the head, so no edges exist at all: the
        # restricted chase never fires this tgd (its head is satisfied
        # by any witness row) and the set is weakly acyclic.
        tgd = parse_tgd("R(a=x) -> R(a=y)")
        assert is_weakly_acyclic([tgd])
        db = Instance()
        db.add("R", a=1)
        assert chase(db, [tgd]).steps == 0

    def test_constants_only_tgd(self):
        tgd = parse_tgd("Trigger(on=x) -> Out(flag=1)")
        assert is_weakly_acyclic([tgd])
        db = Instance()
        db.add("Trigger", on="yes")
        result = chase(db, [tgd])
        assert result.instance.rows("Out") == [{"flag": 1}]

    def test_acyclic_set_terminates_within_budget(self):
        # A 12-stage copy chain over 30 rows is weakly acyclic; the
        # naive engine needed up to rows × stages × sweeps trigger
        # enumerations, the delta engine exactly rows × stages firings.
        tgds = [
            parse_tgd(f"L{k}(a=x) -> L{k + 1}(a=x)") for k in range(12)
        ][::-1]
        assert is_weakly_acyclic(tgds)
        db = Instance()
        for i in range(30):
            db.add("L0", a=i)
        result = chase(db, tgds, max_steps=12 * 30)
        assert result.steps == 12 * 30
        assert result.instance.cardinality("L12") == 30


# ----------------------------------------------------------------------
# instance-layer contracts the engine relies on
# ----------------------------------------------------------------------
class TestRowsView:
    def test_compares_equal_to_lists(self):
        db = Instance()
        db.add("R", a=1)
        assert db.rows("R") == [{"a": 1}]
        assert db.rows("absent") == []

    def test_is_read_only(self):
        db = Instance()
        db.add("R", a=1)
        view = db.rows("R")
        assert isinstance(view, RowsView)
        with pytest.raises(AttributeError):
            view.append({"a": 2})
        with pytest.raises(TypeError):
            view[0] = {"a": 2}

    def test_is_live(self):
        db = Instance()
        view = db.rows("R")
        assert len(view) == 0
        db.add("R", a=1)
        assert db.rows("R") == [{"a": 1}]

    def test_slicing_returns_copies(self):
        db = Instance()
        db.add("R", a=1)
        db.add("R", a=2)
        assert db.rows("R")[:1] == [{"a": 1}]
        assert isinstance(db.rows("R")[:], list)


class TestDeleteDropsEmptyRelation:
    def test_emptied_relation_key_removed(self):
        db = Instance()
        db.add("R", a=1)
        removed = db.delete("R", lambda r: True)
        assert removed == [{"a": 1}]
        assert "R" not in db.relations
        assert db.rows("R") == []

    def test_partial_delete_keeps_key(self):
        db = Instance()
        db.add("R", a=1)
        db.add("R", a=2)
        db.delete("R", lambda r: r["a"] == 1)
        assert "R" in db.relations
        assert db.rows("R") == [{"a": 2}]


class TestHashableKeySentinels:
    def test_tuple_value_does_not_collide_with_null(self):
        assert hashable_key(("⊥", 3)) != hashable_key(LabeledNull(3))

    def test_index_keeps_them_separate(self):
        db = Instance()
        db.add("R", v=("⊥", 3))
        db.add("R", v=LabeledNull(3))
        assert db.index_lookup("R", "v", ("⊥", 3)) == [{"v": ("⊥", 3)}]
        assert db.index_lookup("R", "v", LabeledNull(3)) == [
            {"v": LabeledNull(3)}
        ]

    def test_null_keys_stable(self):
        assert hashable_key(LabeledNull(3)) == hashable_key(LabeledNull(3))


class TestIndexMaintenance:
    def test_incremental_extension(self):
        db = Instance()
        db.add("R", a=1)
        assert len(db.index_lookup("R", "a", 1)) == 1
        db.add("R", a=1)
        assert len(db.index_lookup("R", "a", 1)) == 2
        assert db.index_stats["extends"] >= 1

    def test_repeat_lookup_hits_cache(self):
        db = Instance()
        db.add("R", a=1)
        db.index_lookup("R", "a", 1)
        before = db.index_stats["hits"]
        db.index_lookup("R", "a", 1)
        assert db.index_stats["hits"] == before + 1

    def test_mark_dirty_forces_rebuild(self):
        db = Instance()
        row = db.add("R", a=1)
        assert len(db.index_lookup("R", "a", 1)) == 1
        row["a"] = 2  # in-place mutation: caller must declare it
        db.mark_dirty()
        assert db.index_lookup("R", "a", 1) == []
        assert len(db.index_lookup("R", "a", 2)) == 1

    def test_delete_invalidates(self):
        db = Instance()
        db.add("R", a=1)
        db.add("R", a=2)
        assert len(db.index_lookup("R", "a", 1)) == 1
        db.delete("R", lambda r: r["a"] == 1)
        assert db.index_lookup("R", "a", 1) == []

    def test_projection_member(self):
        db = Instance()
        db.add("R", a=1, b=2, c=3)
        assert db.projection_member("R", ("a", "b"), (1, 2))
        assert not db.projection_member("R", ("a", "b"), (1, 9))
        assert not db.projection_member("R", ("a", "zz"), (1, 2))
        assert not db.projection_member("absent", ("a",), (1,))


# ----------------------------------------------------------------------
# egd batching keeps the naive failure semantics
# ----------------------------------------------------------------------
class TestEgdBatching:
    def test_transitive_constant_conflict_fails(self):
        # x = 1 via one row pair, x = 2 via another: the union-find must
        # surface the conflict even though no single trigger equates the
        # two constants directly.
        null = LabeledNull(0)
        db = Instance()
        db.add("R", k=1, v=null)
        db.add("R", k=1, v="left")
        db.add("R", k=1, v="right")
        egd = parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")
        with pytest.raises(ChaseFailure):
            chase(db, [egd])

    def test_null_chain_collapses_to_constant(self):
        nulls = [LabeledNull(i) for i in range(4)]
        db = Instance()
        for left, right in zip(nulls, nulls[1:]):
            db.add("Link", a=left, b=right)
        db.add("Link", a=nulls[3], b="anchor")
        egd = parse_egd("Link(a=x, b=y) -> x = y")
        result = chase(db, [egd])
        assert not result.instance.nulls()
        for row in result.instance.rows("Link"):
            assert row == {"a": "anchor", "b": "anchor"}

    def test_matches_naive_on_merge_cascade(self):
        nulls = [LabeledNull(i) for i in range(6)]
        db = Instance()
        for i, null in enumerate(nulls):
            db.add("R", k=i % 2, v=null)
        egd = parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")
        semi = chase(db, [egd])
        naive = naive_chase(db, [egd])
        assert are_hom_equivalent(semi.instance, naive.instance)
        assert len(semi.instance.nulls()) == len(naive.instance.nulls()) == 2
