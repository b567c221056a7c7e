"""Regression tests for SO-tgd mapping semantics, including the
inverted-mapping case that once executed the SO-tgd against the wrong
side, and SO-tgd exchange through the chase: target keys, roundtrips
and chase statistics, as for first-order mappings."""

import pytest

from repro.errors import ChaseFailure
from repro.instances import Instance
from repro.logic import chase, parse_tgd
from repro.logic.second_order import skolemize_all
from repro.mappings import Mapping, MappingLanguage
from repro.metamodel import INT, SchemaBuilder
from repro.operators import compose
from repro.operators.inverse import roundtrips
from repro.operators.transgen import ExchangeTransformation
from repro.runtime import exchange
from repro.runtime.executor import exchange_with_stats
from repro.logic.homomorphism import set_equal_modulo_nulls
from tests.test_compose_exact import execute_so_tgd
from tests.test_operator_compose import _mgr_pair


def _so_mapping():
    a = SchemaBuilder("SA").entity("R", key=["k"]).attribute("k", INT).build()
    b = (
        SchemaBuilder("SB").entity("T", key=["k"])
        .attribute("k", INT).attribute("v", INT, nullable=True).build()
    )
    so = skolemize_all([parse_tgd("R(k=x) -> T(k=x, v=y)", name="m")])
    return Mapping(a, b, so, name="so_map")


class TestSoTgdHoldsFor:
    def test_holds_on_consistent_pair(self):
        mapping = _so_mapping()
        d1, d2 = Instance(), Instance()
        d1.add("R", k=1)
        d2.add("T", k=1, v=42)
        assert mapping.holds_for(d1, d2)

    def test_fails_when_target_missing(self):
        mapping = _so_mapping()
        d1 = Instance()
        d1.add("R", k=1)
        assert not mapping.holds_for(d1, Instance())

    def test_function_consistency_enforced(self):
        """Two body matches for the same arguments must map to the SAME
        target value (Skolem semantics): T rows with distinct v for one
        k satisfy it (hom picks one), but an empty slot does not."""
        mapping = _so_mapping()
        d1, d2 = Instance(), Instance()
        d1.add("R", k=1)
        d1.add("R", k=2)
        d2.add("T", k=1, v=10)
        assert not mapping.holds_for(d1, d2)  # k=2 unaccounted
        d2.add("T", k=2, v=20)
        assert mapping.holds_for(d1, d2)

    def test_inverted_so_mapping(self):
        """invert() transposes the relation: ⟨D2, D1⟩ ∈ invert(m) iff
        ⟨D1, D2⟩ ∈ m — including for SO-tgd mappings."""
        mapping = _so_mapping()
        inverted = mapping.invert()
        d1, d2 = Instance(), Instance()
        d1.add("R", k=1)
        d2.add("T", k=1, v=42)
        assert inverted.holds_for(d2, d1)
        # And the failing pair still fails after inversion.
        assert not inverted.holds_for(Instance(), d1)

    def test_language_reported(self):
        assert _so_mapping().language == MappingLanguage.SO_TGD

    def test_mapping_into_its_own_schema_runs_once(self):
        """The heads write R, which the body reads: the check must not
        chase its own output (R(f(x), x) would feed f(f(x)) forever)."""
        schema = (SchemaBuilder("SS").entity("R", key=["a"])
                  .attribute("a", INT).attribute("b", INT).build())
        mapping = Mapping(schema, schema, skolemize_all(
            [parse_tgd("R(a=x, b=z) -> R(a=y, b=x)")]))
        cycle, chain = Instance(), Instance()
        cycle.insert_all("R", [{"a": 1, "b": 2}, {"a": 2, "b": 1}])
        chain.add("R", a=1, b=2)
        assert mapping.holds_for(cycle, Instance())
        assert not mapping.holds_for(chain, Instance())


class TestExchangeThroughComposition:
    """Compositions that stay second-order must run: exchanging through
    them equals the two-step exchange."""

    @staticmethod
    def _pair(m12_text, m23_text):
        a = SchemaBuilder("CA").entity("R", key=["k"]).attribute("k", INT).build()
        b = (
            SchemaBuilder("CB").entity("S", key=["k"]).attribute("k", INT)
            .attribute("v", INT).entity("P", key=["k"]).attribute("k", INT)
            .attribute("v", INT).build()
        )
        c = SchemaBuilder("CC").entity("T", key=["k"]).attribute("k", INT).build()
        return (Mapping(a, b, [parse_tgd(m12_text)], name="m12"),
                Mapping(b, c, [parse_tgd(m23_text)], name="m23"))

    def _check(self, m12, m23):
        composed = compose(m12, m23, prefer_first_order=False)
        source = Instance()
        source.add("R", k=1)
        source.add("R", k=2)
        middle = chase(source, m12.tgds).instance
        two_step = chase(middle, m23.tgds).instance.rows("T")
        assert list(exchange(composed, source).rows("T")) == list(two_step) == []
        return composed.so_tgd.implications

    def test_function_term_left_in_a_body(self):
        """S's key is invented, P's value is copied: joining them leaves
        R(k=f(x)) in the composed body, which matches no source row."""
        (implication,) = self._check(*self._pair(
            "R(k=x) -> S(k=e, v=x) & P(k=e, v=x)",
            "S(k=y, v=z) & P(k=w, v=y) -> T(k=y)",
        ))
        assert any(atom.functions() for atom in implication.body)

    def test_condition_on_a_variable_no_body_atom_binds(self):
        """Two different Skolem functions equated: the implication keeps
        its conditions on y, which only the head reads."""
        (implication,) = self._check(*self._pair(
            "R(k=x) -> S(k=e, v=u)", "S(k=y, v=y) -> T(k=y)",
        ))
        assert implication.conditions

    def test_second_order_needed_pair_equals_the_executor(self):
        m12, m23 = _mgr_pair()
        composed = compose(m12, m23)
        assert composed.so_tgd is not None and composed.so_tgd.functions
        source = Instance()
        source.insert_all("Emp", [{"e": i} for i in range(4)])
        assert set_equal_modulo_nulls(
            exchange(composed, source),
            execute_so_tgd(composed.so_tgd, source),
        )


def _copy_chain():
    """``R -> S -> T`` copies with T keyed on k, composed first-order and
    second-order, and the way back from T to R."""
    def schema(name, relation):
        return (SchemaBuilder(name).entity(relation, key=["k"])
                .attribute("k", INT).attribute("v", INT).build())

    a, b, c = schema("KA", "R"), schema("KB", "S"), schema("KC", "T")
    m12 = Mapping(a, b, [parse_tgd("R(k=x, v=y) -> S(k=x, v=y)")], name="m12")
    m23 = Mapping(b, c, [parse_tgd("S(k=x, v=y) -> T(k=x, v=y)")], name="m23")
    back = Mapping(c, a, [parse_tgd("T(k=x, v=y) -> R(k=x, v=y)")],
                   name="back")
    return (compose(m12, m23), compose(m12, m23, prefer_first_order=False),
            back)


class TestSoTgdInTheChase:
    def test_exchange_enforces_target_keys(self):
        first_order, second_order, _ = _copy_chain()
        assert first_order.so_tgd is None and second_order.so_tgd is not None
        source = Instance()
        source.insert_all("R", [{"k": 1, "v": 10}, {"k": 1, "v": 11}])
        for mapping in (first_order, second_order):
            keyed = ExchangeTransformation(mapping, enforce_target_keys=True)
            with pytest.raises(ChaseFailure,
                               match="distinct constants 10 and 11"):
                keyed.apply(source)

    def test_roundtrips_like_the_first_order_form(self):
        first_order, second_order, back = _copy_chain()
        source = Instance()
        source.add("R", k=1, v=10)
        assert roundtrips(first_order, back, source)
        assert roundtrips(second_order, back, source)

    def test_exchange_reports_chase_stats(self):
        _, second_order, _ = _copy_chain()
        source = Instance()
        source.insert_all("R", [{"k": i, "v": i} for i in range(3)])
        produced, stats = exchange_with_stats(second_order, source)
        assert produced.cardinality("T") == 3
        assert stats is not None and sum(stats.dep_fired.values()) == 3
