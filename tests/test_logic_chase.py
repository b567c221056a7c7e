"""Tests for the chase, core computation, certain answers, containment
and second-order tgds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChaseFailure, ChaseNonTermination, ExpressivenessError
from repro.instances import Instance, LabeledNull
from repro.logic import (
    ConjunctiveQuery,
    SecondOrderTGD,
    Var,
    are_equivalent,
    certain_answers,
    chase,
    core_of,
    deskolemize,
    is_contained_in,
    is_weakly_acyclic,
    naive_evaluate,
    parse_egd,
    parse_query,
    parse_tgd,
    skolemize,
)
from repro.logic.dependencies import key_egd
from repro.logic.homomorphism import are_hom_equivalent, instance_homomorphism
from repro.logic.second_order import skolemize_all


class TestChaseFullTgds:
    def test_copy_tgd(self):
        db = Instance()
        db.add("A", x=1)
        db.add("A", x=2)
        result = chase(db, [parse_tgd("A(x=v) -> B(x=v)")])
        assert {r["x"] for r in result.instance.rows("B")} == {1, 2}

    def test_join_tgd(self):
        db = Instance()
        db.insert_all("E", [{"a": 1, "b": 2}, {"a": 2, "b": 3}])
        result = chase(db, [parse_tgd("E(a=x, b=y) & E(a=y, b=z) -> P(a=x, b=z)")])
        assert result.instance.rows("P") == [{"a": 1, "b": 3}]

    def test_idempotent_on_satisfied(self):
        db = Instance()
        db.add("A", x=1)
        db.add("B", x=1)
        result = chase(db, [parse_tgd("A(x=v) -> B(x=v)")])
        assert result.steps == 0

    def test_does_not_mutate_input_by_default(self):
        db = Instance()
        db.add("A", x=1)
        chase(db, [parse_tgd("A(x=v) -> B(x=v)")])
        assert db.rows("B") == []


class TestChaseExistentials:
    def test_fresh_nulls(self):
        db = Instance()
        db.add("Person", name="Ann")
        result = chase(db, [parse_tgd("Person(name=n) -> Badge(name=n, code=c)")])
        badge = result.instance.rows("Badge")[0]
        assert badge["name"] == "Ann"
        assert isinstance(badge["code"], LabeledNull)

    def test_standard_chase_does_not_refire(self):
        db = Instance()
        db.add("Person", name="Ann")
        tgd = parse_tgd("Person(name=n) -> Badge(name=n, code=c)")
        result = chase(db, [tgd])
        again = chase(result.instance, [tgd])
        assert again.steps == 0
        assert again.instance.cardinality("Badge") == 1

    def test_shared_existential_across_head_atoms(self):
        db = Instance()
        db.add("Emp", id=1)
        tgd = parse_tgd("Emp(id=i) -> Dept(did=d, head=i) & Member(did=d, emp=i)")
        result = chase(db, [tgd])
        dept = result.instance.rows("Dept")[0]
        member = result.instance.rows("Member")[0]
        assert dept["did"] == member["did"]
        assert isinstance(dept["did"], LabeledNull)

    def test_universal_solution_property(self):
        """The chase result maps homomorphically into any other solution."""
        db = Instance()
        db.add("S", a=1)
        tgd = parse_tgd("S(a=x) -> T(a=x, b=y)")
        universal = chase(db, [tgd]).instance
        solution = Instance()
        solution.add("S", a=1)
        solution.add("T", a=1, b=42)
        solution.add("T", a=1, b=43)
        target_only = Instance()
        target_only.relations = {
            "T": solution.relations["T"], "S": solution.relations["S"],
        }
        assert instance_homomorphism(universal, target_only) is not None


class TestChaseEgds:
    def test_key_merges_nulls(self):
        db = Instance()
        n1, n2 = LabeledNull(100), LabeledNull(101)
        db.add("R", k=1, v=n1)
        db.add("R", k=1, v=n2)
        result = chase(db, [parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")])
        values = {r["v"] for r in result.instance.rows("R")}
        assert len(values) == 1

    def test_null_takes_constant(self):
        db = Instance()
        n = LabeledNull(100)
        db.add("R", k=1, v=n)
        db.add("R", k=1, v="x")
        result = chase(db, [parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")])
        assert all(r["v"] == "x" for r in result.instance.rows("R"))

    def test_constant_conflict_fails(self):
        db = Instance()
        db.add("R", k=1, v="x")
        db.add("R", k=1, v="y")
        with pytest.raises(ChaseFailure):
            chase(db, [parse_egd("R(k=x, v=a) & R(k=x, v=b) -> a = b")])

    def test_key_egd_helper(self):
        egd = key_egd("R", ["k"], ["k", "v", "w"])
        db = Instance()
        n1, n2 = LabeledNull(0), LabeledNull(1)
        db.add("R", k=1, v=n1, w="c")
        db.add("R", k=1, v="seen", w=n2)
        result = chase(db, [egd])
        rows = result.instance.deduplicated().rows("R")
        assert rows == [{"k": 1, "v": "seen", "w": "c"}]

    def test_tgd_egd_interaction(self):
        """FK-style tgd invents a null; key egd then merges it with the
        existing constant row."""
        db = Instance()
        db.add("Empl", id=1, dept=5)
        db.add("Dept", did=5, name="QA")
        deps = [
            parse_tgd("Empl(id=i, dept=d) -> Dept(did=d, name=n)"),
            parse_egd("Dept(did=d, name=a) & Dept(did=d, name=b) -> a = b"),
        ]
        result = chase(db, deps)
        assert result.instance.deduplicated().rows("Dept") == [
            {"did": 5, "name": "QA"}
        ]


class TestChaseTermination:
    def test_non_terminating_raises(self):
        db = Instance()
        db.add("N", a=1, b=2)
        looping = parse_tgd("N(a=x, b=y) -> N(a=y, b=z)")
        with pytest.raises(ChaseNonTermination):
            chase(db, [looping], max_steps=200)

    def test_weak_acyclicity_positive(self):
        tgds = [
            parse_tgd("S(a=x) -> T(a=x, b=y)"),
            parse_tgd("T(a=x, b=y) -> U(c=y)"),
        ]
        assert is_weakly_acyclic(tgds)

    def test_weak_acyclicity_negative(self):
        looping = parse_tgd("N(a=x, b=y) -> N(a=y, b=z)")
        assert not is_weakly_acyclic([looping])

    def test_full_tgds_always_weakly_acyclic(self):
        tgds = [
            parse_tgd("A(x=v) -> B(x=v)"),
            parse_tgd("B(x=v) -> A(x=v)"),
        ]
        assert is_weakly_acyclic(tgds)


class TestCore:
    def test_collapses_redundant_null_row(self):
        db = Instance()
        db.add("T", a=1, b=2)
        db.add("T", a=1, b=LabeledNull(0))
        core = core_of(db)
        assert core.rows("T") == [{"a": 1, "b": 2}]

    def test_keeps_necessary_nulls(self):
        db = Instance()
        db.add("T", a=1, b=LabeledNull(0))
        core = core_of(db)
        assert core.cardinality("T") == 1

    def test_core_is_hom_equivalent(self):
        db = Instance()
        db.add("T", a=1, b=LabeledNull(0))
        db.add("T", a=1, b=LabeledNull(1))
        db.add("T", a=1, b=7)
        core = core_of(db)
        assert are_hom_equivalent(db, core)
        assert core.total_rows() == 1

    def test_core_of_chase_smaller_than_chase(self):
        db = Instance()
        db.insert_all("S", [{"a": i} for i in range(4)])
        tgds = [
            parse_tgd("S(a=x) -> T(a=x, b=y)"),
            parse_tgd("S(a=x) -> T(a=x, b=0)"),
        ]
        chased = chase(db, tgds).instance
        core = core_of(chased)
        assert core.cardinality("T") <= chased.cardinality("T")
        assert not core.nulls()  # b=0 rows subsume the null rows


class TestCertainAnswers:
    def test_nulls_filtered(self):
        db = Instance()
        db.add("S", a=1)
        universal = chase(db, [parse_tgd("S(a=x) -> T(a=x, b=y)")]).instance
        q_a = parse_query("q(x) :- T(a=x, b=y)")
        q_b = parse_query("q(y) :- T(a=x, b=y)")
        assert certain_answers(q_a, universal) == [(1,)]
        assert certain_answers(q_b, universal) == []

    def test_naive_evaluation_keeps_nulls(self):
        db = Instance()
        db.add("T", a=1, b=LabeledNull(0))
        q = parse_query("q(y) :- T(a=x, b=y)")
        assert len(naive_evaluate(q, db)) == 1

    def test_union_of_queries(self):
        db = Instance()
        db.add("A", x=1)
        db.add("B", x=2)
        qs = [parse_query("q(v) :- A(x=v)"), parse_query("q(v) :- B(x=v)")]
        assert set(certain_answers(qs, db)) == {(1,), (2,)}


class TestContainment:
    def test_projection_containment(self):
        specific = parse_query("q(x) :- R(a=x, b=x)")
        general = parse_query("q(x) :- R(a=x, b=y)")
        assert is_contained_in(specific, general)
        assert not is_contained_in(general, specific)

    def test_join_containment(self):
        two_hop = parse_query("q(x, z) :- E(a=x, b=y) & E(a=y, b=z)")
        anything = parse_query("q(x, z) :- E(a=x, b=u) & E(a=v, b=z)")
        assert is_contained_in(two_hop, anything)
        assert not is_contained_in(anything, two_hop)

    def test_equivalence_modulo_redundancy(self):
        minimal = parse_query("q(x) :- R(a=x, b=y)")
        redundant = parse_query("q(x) :- R(a=x, b=y) & R(a=x, b=z)")
        assert are_equivalent(minimal, redundant)

    def test_constants_matter(self):
        with_const = parse_query("q(x) :- R(a=x, b=5)")
        without = parse_query("q(x) :- R(a=x, b=y)")
        assert is_contained_in(with_const, without)
        assert not is_contained_in(without, with_const)


class TestSecondOrder:
    def test_skolemize_introduces_functions(self):
        tgd = parse_tgd("S(a=x) -> T(a=x, b=y)", name="m")
        implication = skolemize(tgd)
        head_term = implication.head[0].term("b")
        assert head_term.function == "f_m_y"
        assert head_term.args == (Var("x"),)

    def test_skolemize_full_tgd_unchanged(self):
        tgd = parse_tgd("S(a=x) -> T(a=x)")
        implication = skolemize(tgd)
        assert not implication.functions()

    def test_deskolemize_roundtrip(self):
        tgds = [
            parse_tgd("S(a=x) -> T(a=x, b=y)", name="m1"),
            parse_tgd("S(a=x) & S(a=x) -> U(u=x)", name="m2"),
        ]
        so = skolemize_all(tgds)
        back = deskolemize(so)
        assert len(back) == 2
        assert back[0].existentials() == {Var("e0_0")}

    def test_deskolemize_rejects_nested(self):
        from repro.logic.formulas import Atom
        from repro.logic.second_order import Implication
        from repro.logic.terms import FuncTerm, Var

        nested = FuncTerm("f", (FuncTerm("g", (Var("x"),)),))
        so = SecondOrderTGD(
            implications=(
                Implication(
                    body=(Atom.of("S", a=Var("x")),),
                    head=(Atom.of("T", b=nested),),
                ),
            )
        )
        with pytest.raises(ExpressivenessError):
            deskolemize(so)

    def test_execute_so_tgd_memoizes_skolems(self):
        tgds = [
            parse_tgd("S(a=x) -> T(a=x, b=y)", name="m1"),
            parse_tgd("S(a=x) -> U(a=x, b=y)", name="m1"),  # same name → same f?
        ]
        # Distinct existentials get distinct functions even with the same
        # tgd name, because skolemize includes the variable name.
        so = skolemize_all(tgds)
        db = Instance()
        db.add("S", a=1)
        db.add("S", a=2)
        out = chase(db, so.runnable()).instance
        assert out.cardinality("T") == 2
        assert out.cardinality("U") == 2

    def test_execute_matches_chase_up_to_homomorphism(self):
        tgd = parse_tgd("S(a=x) -> T(a=x, b=y)", name="m")
        db = Instance()
        db.insert_all("S", [{"a": i} for i in range(3)])
        chased = chase(db, [tgd]).instance
        target_chase = Instance()
        target_chase.relations["T"] = chased.relations["T"]
        executed = Instance()
        executed.relations["T"] = chase(
            db, skolemize_all([tgd]).runnable()
        ).instance.relations["T"]
        assert are_hom_equivalent(target_chase, executed)

    def test_so_tgd_size_metric(self):
        so = skolemize_all([parse_tgd("S(a=x) -> T(a=x, b=y)")])
        assert so.size() == 2
        assert not so.is_first_order


@given(st.lists(st.integers(0, 5), min_size=0, max_size=8))
@settings(max_examples=30, deadline=None)
def test_chase_is_a_solution(values):
    """After chasing, every dependency is satisfied."""
    db = Instance()
    for v in values:
        db.add("S", a=v)
    tgds = [
        parse_tgd("S(a=x) -> T(a=x, b=y)"),
        parse_tgd("T(a=x, b=y) -> U(u=y)"),
    ]
    result = chase(db, tgds)
    again = chase(result.instance, tgds)
    assert again.steps == 0
