"""Tests for the Compose operator — both algorithms, and the paper's
Figure 6 scenario end-to-end."""

import pytest

import repro.observability as obs
from repro.algebra import evaluate
from repro.errors import CompositionError, ExpressivenessError
from repro.instances import Instance
from repro.logic import chase, parse_tgd
from repro.logic.formulas import Atom
from repro.logic.homomorphism import are_hom_equivalent
from repro.logic.second_order import (
    Implication, SecondOrderTGD, deskolemize, skolemize_all,
)
from repro.logic.terms import FuncTerm, Var
from repro.mappings import Mapping, MappingLanguage
from repro.observability import JOURNAL, registry
from repro.operators import compose
from repro.operators.compose import (
    _rename_functions_apart, unfold_scans, view_definitions,
)
from repro.runtime import exchange
from repro.workloads import paper, synthetic
from repro.metamodel import INT, SchemaBuilder


def _simple_schemas():
    a = SchemaBuilder("A").entity("R", key=["k"]).attribute("k", INT) \
        .attribute("v", INT).build()
    b = SchemaBuilder("B").entity("S", key=["k"]).attribute("k", INT) \
        .attribute("v", INT).build()
    c = SchemaBuilder("C").entity("T", key=["k"]).attribute("k", INT) \
        .attribute("v", INT).build()
    return a, b, c


def _mgr_pair():
    a = SchemaBuilder("A").entity("Emp", key=["e"]).attribute("e", INT).build()
    b = SchemaBuilder("B").entity("Mgr", key=["e"]).attribute("e", INT) \
        .attribute("m", INT).build()
    c = SchemaBuilder("C").entity("SelfMgr", key=["e"]).attribute("e", INT) \
        .build()
    m12 = Mapping(a, b, [parse_tgd("Emp(e=x) -> Mgr(e=x, m=y)")], name="m12")
    m23 = Mapping(b, c, [parse_tgd("Mgr(e=x, m=x) -> SelfMgr(e=x)")], name="m23")
    return m12, m23


class TestTgdComposition:
    def test_copy_chain(self):
        a, b, c = _simple_schemas()
        m12 = Mapping(a, b, [parse_tgd("R(k=x, v=y) -> S(k=x, v=y)")])
        m23 = Mapping(b, c, [parse_tgd("S(k=x, v=y) -> T(k=x, v=y)")])
        composed = compose(m12, m23)
        assert composed.source.name == "A" and composed.target.name == "C"
        assert composed.language == MappingLanguage.ST_TGD
        assert len(composed.tgds) == 1
        tgd = composed.tgds[0]
        assert tgd.body[0].relation == "R" and tgd.head[0].relation == "T"
        assert tgd.is_full

    def test_composition_semantics_on_instances(self):
        """⟨D1, D3⟩ satisfies the composition iff the exchange through
        the middle produces it."""
        a, b, c = _simple_schemas()
        m12 = Mapping(a, b, [parse_tgd("R(k=x, v=y) -> S(k=x, v=y)")])
        m23 = Mapping(b, c, [parse_tgd("S(k=x, v=y) -> T(k=x, v=y)")])
        composed = compose(m12, m23)
        d1 = Instance()
        d1.add("R", k=1, v=2)
        d3 = Instance()
        d3.add("T", k=1, v=2)
        assert composed.holds_for(d1, d3)
        assert not composed.holds_for(d1, Instance())

    def test_projection_then_use(self):
        a, b, c = _simple_schemas()
        m12 = Mapping(a, b, [parse_tgd("R(k=x, v=y) -> S(k=x, v=y)")])
        m23 = Mapping(b, c, [parse_tgd("S(k=x, v=y) -> T(k=y, v=x)")])
        composed = compose(m12, m23)
        tgd = composed.tgds[0]
        assert tgd.head[0].term("k") == tgd.body[0].term("v")

    def test_existential_in_first_mapping(self):
        """m12 invents a value; m23 copies it: the composition keeps it
        existential (de-Skolemizable)."""
        a, b, c = _simple_schemas()
        m12 = Mapping(a, b, [parse_tgd("R(k=x, v=y) -> S(k=x, v=e)")])
        m23 = Mapping(b, c, [parse_tgd("S(k=x, v=y) -> T(k=x, v=y)")])
        composed = compose(m12, m23)
        assert composed.language == MappingLanguage.ST_TGD
        tgd = composed.tgds[0]
        assert tgd.existentials()  # the invented v survives as ∃

    def test_second_order_needed(self):
        """The classic non-FO case: m23 joins on the invented value
        twice — the composition needs a Skolem function shared across
        atoms and stays second-order."""
        m12, m23 = _mgr_pair()
        composed = compose(m12, m23)
        assert composed.language == MappingLanguage.SO_TGD
        assert composed.so_tgd is not None
        assert composed.so_tgd.functions  # genuine Skolem functions

    def test_multi_atom_body_case_product(self):
        m12, m23 = synthetic.composition_pair_exponential(width=3)
        composed = compose(m12, m23, prefer_first_order=False)
        # 2 origin choices per of 3 atoms → 8 implications.
        assert len(composed.so_tgd.implications) == 8

    def test_exponential_growth(self):
        sizes = []
        for width in (1, 2, 3, 4, 5):
            m12, m23 = synthetic.composition_pair_exponential(width)
            composed = compose(m12, m23, prefer_first_order=False)
            sizes.append(len(composed.so_tgd.implications))
        assert sizes == [2, 4, 8, 16, 32]

    def test_unproducible_middle_relation_vacuous(self):
        a, b, c = _simple_schemas()
        m12 = Mapping(a, b, [])  # produces nothing in B
        m23 = Mapping(b, c, [parse_tgd("S(k=x, v=y) -> T(k=x, v=y)")])
        composed = compose(m12, m23)
        assert composed.constraint_count() == 0

    def test_schema_mismatch_rejected(self):
        a, b, c = _simple_schemas()
        m12 = Mapping(a, b, [parse_tgd("R(k=x, v=y) -> S(k=x, v=y)")])
        m_ca = Mapping(c, a, [parse_tgd("T(k=x, v=y) -> R(k=x, v=y)")])
        with pytest.raises(CompositionError):
            compose(m12, m_ca)

    def test_composed_exchange_equals_two_step_exchange(self):
        """Chasing with the composed mapping gives the same target (up
        to homomorphic equivalence) as chasing twice."""
        mappings = synthetic.composition_chain_linear(2, relations=2)
        composed = compose(mappings[0], mappings[1])
        source = Instance()
        source.add("L0R0", L0R0_k=1, L0R0_a0=10, L0R0_a1=11)
        source.add("L0R1", L0R1_k=2, L0R1_a0=20, L0R1_a1=21)

        step1 = chase(source, mappings[0].tgds).instance
        step2 = chase(step1, mappings[1].tgds).instance
        direct = chase(source, composed.tgds).instance
        final_relations = set(mappings[1].target.entities)
        two_step = Instance()
        one_step = Instance()
        for relation in final_relations:
            two_step.relations[relation] = step2.rows(relation)
            one_step.relations[relation] = direct.rows(relation)
        assert are_hom_equivalent(two_step, one_step)


def _schema(name, relations):
    builder = SchemaBuilder(name)
    for relation, attributes in relations.items():
        builder.entity(relation, key=[attributes[0]])
        for attribute in attributes:
            builder.attribute(attribute, INT)
    return builder.build()


def _mapping(source, target, texts, name):
    return Mapping(source, target, [parse_tgd(t) for t in texts], name=name)


def _target_rows(instance, mapping):
    part = Instance()
    for relation in mapping.target.entities:
        if instance.rows(relation):
            part.relations[relation] = list(instance.rows(relation))
    return part


class TestCompositionSoundness:
    def test_right_associated_compose_renames_apart(self):
        """The inner composition names its variables ``x~k``; renaming
        the outer σ12 must not reuse those names, or the cross product
        R3 × R4 turns into a join."""
        s1 = _schema("S1", {r: ["k"] for r in ("R1", "R2", "R3", "R4")})
        s2 = _schema("S2", {r: ["k"] for r in ("S", "P", "Q")})
        s3 = _schema("S3", {r: ["k"] for r in ("T", "T2", "T3")})
        s4 = _schema("S4", {"U1": ["k"], "U2": ["a", "b"]})
        m1 = _mapping(s1, s2, ["R1(k=x) -> S(k=x)", "R2(k=x) -> S(k=x)",
                               "R3(k=x) -> P(k=x)", "R4(k=x) -> Q(k=x)"], "m1")
        m2 = _mapping(s2, s3, ["S(k=x) -> T(k=x)", "P(k=x) -> T2(k=x)",
                               "Q(k=x) -> T3(k=x)"], "m2")
        m3 = _mapping(s3, s4, ["T(k=u) -> U1(k=u)",
                               "T2(k=u) & T3(k=w) -> U2(a=u, b=w)"], "m3")
        source = Instance()
        source.add("R3", k=1)
        source.add("R4", k=2)
        three_steps = source
        for mapping in (m1, m2, m3):
            three_steps = chase(three_steps, mapping.tgds).instance
        expected = [{"a": 1, "b": 2}]
        assert list(three_steps.rows("U2")) == expected
        for composed in (compose(m1, compose(m2, m3)),
                         compose(compose(m1, m2), m3)):
            assert list(chase(source, composed.tgds).instance.rows("U2")) == expected

    def _shared_skolem_pair(self):
        a = _schema("A", {"R": ["k"]})
        b = _schema("B", {"S": ["k", "v"], "T": ["k", "v"]})
        c = _schema("C", {"U": ["k", "v"], "V": ["k", "v"]})
        m12 = _mapping(a, b, ["R(k=x) -> S(k=x, v=e) & T(k=x, v=e)"], "m12")
        m23 = _mapping(b, c, ["S(k=x, v=y) -> U(k=x, v=y)",
                              "T(k=x, v=y) -> V(k=x, v=y)"], "m23")
        return m12, m23

    def test_shared_skolem_function_stays_second_order(self):
        """U and V must share the invented value; two st-tgds with one
        existential each would let them differ."""
        m12, m23 = self._shared_skolem_pair()
        first_order = compose(m12, m23)
        second_order = compose(m12, m23, prefer_first_order=False)
        assert first_order.language == MappingLanguage.SO_TGD
        d1 = Instance()
        d1.add("R", k=1)
        split = Instance()
        split.add("U", k=1, v=5)
        split.add("V", k=1, v=6)
        shared = Instance()
        shared.add("U", k=1, v=5)
        shared.add("V", k=1, v=5)
        for d3, expected in ((split, False), (shared, True)):
            assert first_order.holds_for(d1, d3) is expected
            assert second_order.holds_for(d1, d3) is expected
        two_step = chase(chase(d1, m12.tgds).instance, m23.tgds).instance
        one_step = exchange(first_order, d1)
        assert are_hom_equivalent(_target_rows(two_step, m23),
                                  _target_rows(one_step, m23))
        (u_row,), (v_row,) = one_step.rows("U"), one_step.rows("V")
        assert u_row["v"] == v_row["v"]

    @staticmethod
    def _unnamed_pair():
        """m12 and m23 both hold an unnamed tgd ``d0`` inventing ``e``,
        so both Skolemize it as ``f_d0_e``."""
        a = _schema("A", {"R": ["k"]})
        b = _schema("B", {"S": ["k", "v"]})
        c = _schema("C", {"T": ["k", "v"], "V": ["k", "v"]})
        m12 = _mapping(a, b, ["R(k=x) -> S(k=x, v=e)"], "m12")
        m23 = _mapping(b, c, ["S(k=x, v=y) -> T(k=x, v=e)",
                              "S(k=x, v=y) -> V(k=x, v=y)"], "m23")
        return (m12, m23), (m12, m23)

    @staticmethod
    def _nested_pair():
        """Two earlier compositions both name a tgd ``d0`` with the
        existential ``e0_0``."""
        a = _schema("A", {"R": ["k"]})
        b = _schema("B", {"S": ["k", "v"]})
        c = _schema("C", {"S2": ["k", "v"]})
        d = _schema("D", {"W": ["k", "v"]})
        e = _schema("E", {"T": ["k", "v"], "V": ["k", "v"]})
        m1 = _mapping(a, b, ["R(k=x) -> S(k=x, v=e)"], "m1")
        m2 = _mapping(b, c, ["S(k=x, v=y) -> S2(k=x, v=y)"], "m2")
        m3 = _mapping(c, d, ["S2(k=x, v=y) -> W(k=x, v=y)"], "m3")
        m4 = _mapping(d, e, ["W(k=x, v=y) -> T(k=x, v=e)",
                             "W(k=x, v=y) -> V(k=x, v=y)"], "m4")
        return (compose(m1, m2), compose(m3, m4)), (m1, m2, m3, m4)

    @pytest.mark.parametrize("case", ["_unnamed_pair", "_nested_pair"])
    def test_skolem_functions_of_different_mappings_stay_apart(self, case):
        """σ12 and σ23 functions with the same name are different
        functions: T's invented value need not equal V's copied one."""
        (m12, m23), steps = getattr(self, case)()
        assert skolemize_all(m12.tgds).functions & skolemize_all(m23.tgds).functions
        composed = compose(m12, m23)
        assert composed.language == MappingLanguage.ST_TGD
        assert all(len(tgd.existentials()) == 1 for tgd in composed.tgds)
        d1 = Instance()
        d1.add("R", k=1)
        split = Instance()
        split.add("T", k=1, v=5)
        split.add("V", k=1, v=6)
        assert composed.holds_for(d1, split)
        assert compose(m12, m23, prefer_first_order=False).holds_for(d1, split)
        chased = d1
        for mapping in steps:
            chased = chase(chased, mapping.tgds).instance
        assert are_hom_equivalent(_target_rows(chased, m23),
                                  _target_rows(exchange(composed, d1), m23))

    def test_renamed_functions_avoid_every_taken_name(self):
        x = Var("x")

        def so_tgd(*functions):
            return SecondOrderTGD(tuple(
                Implication((Atom("R", (("k", x),)),),
                            (Atom("S", (("k", FuncTerm(f, (x,))),)),))
                for f in functions
            ))

        renamed = _rename_functions_apart(so_tgd("f", "f$1", "g", "f"),
                                          so_tgd("f", "f$1").functions)
        assert [i.head[0].term("k").function for i in renamed.implications] \
            == ["f$2", "f$1$1", "g", "f$2"]

    def test_deskolemize_rejects_a_function_with_two_argument_tuples(self):
        x, y = Var("x"), Var("y")
        implication = Implication(
            body=(Atom("R", (("a", x), ("b", y))),),
            head=(Atom("S", (("a", FuncTerm("f", (x,))),
                             ("b", FuncTerm("f", (y,))))),),
        )
        with pytest.raises(ExpressivenessError, match="shared"):
            deskolemize(SecondOrderTGD((implication,)))

    def test_second_order_fallback_is_counted_and_journaled(self):
        m12, m23 = _mgr_pair()
        obs.enable()
        counter = registry.counter("compose.second_order")
        before = counter.value, len(JOURNAL.events(kind="compose.second_order"))
        assert compose(m12, m23).language == MappingLanguage.SO_TGD
        assert counter.value == before[0] + 1
        events = JOURNAL.events(kind="compose.second_order")
        assert len(events) == before[1] + 1
        assert events[-1].attrs["mapping"] == "m12∘m23"
        assert "not first-order" in events[-1].attrs["reason"]
        compose(m12, m23, prefer_first_order=False)  # asked for: no fallback
        assert counter.value == before[0] + 1


class TestEqualityComposition:
    def test_view_definitions_direct(self):
        definitions = view_definitions(paper.figure6_map_s_sprime())
        assert set(definitions) == {"Names", "Addresses"}

    def test_complementary_split_reconstructed(self):
        definitions = view_definitions(paper.figure6_map_s_sprime())
        # Addresses = (Local × {'US'}) ∪ Foreign — evaluate to check.
        expr = definitions["Addresses"]
        result = evaluate(expr, paper.figure6_s_prime_instance())
        expected = paper.figure6_s_instance().rows("Addresses")
        assert {frozenset(r.items()) for r in result} == {
            frozenset(r.items()) for r in expected
        }

    def test_figure6_composition(self):
        """The composed mapping must behave exactly like the paper's
        stated result: Students = π(Names′ ⋈ (Local×{'US'} ∪ Foreign))."""
        composed = compose(paper.figure6_map_v_s(), paper.figure6_map_s_sprime())
        assert composed.source.name == "V"
        assert composed.target.name == "Sprime"
        constraint = composed.equalities[0]
        s_prime = paper.figure6_s_prime_instance()
        ours = evaluate(constraint.target_expr, s_prime)
        stated = evaluate(paper.figure6_composed_view_expr(), s_prime)
        assert {frozenset(r.items()) for r in ours} == {
            frozenset(r.items()) for r in stated
        }

    def test_figure6_composed_mapping_holds(self):
        composed = compose(paper.figure6_map_v_s(), paper.figure6_map_s_sprime())
        students = Instance(paper.figure6_view_schema())
        students.insert_all("Students", [
            {"Name": "Ann", "Address": "12 Elm St", "Country": "US"},
            {"Name": "Bob", "Address": "9 Oak Ave", "Country": "US"},
            {"Name": "Chen", "Address": "5 Rue Neuve", "Country": "FR"},
        ])
        assert composed.holds_for(students, paper.figure6_s_prime_instance())
        students.add("Students", Name="Zed", Address="x", Country="ZZ")
        assert not composed.holds_for(students, paper.figure6_s_prime_instance())

    def test_unfold_scans_leaves_other_relations(self):
        from repro.algebra import Scan, project_names

        expr = project_names(Scan("Keep"), ["a"])
        assert unfold_scans(expr, {"Other": Scan("X")}) == expr
