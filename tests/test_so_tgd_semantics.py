"""Regression tests for SO-tgd mapping semantics, including the
inverted-mapping case that once executed the SO-tgd against the wrong
side."""

import pytest

from repro.instances import Instance
from repro.logic import chase, parse_tgd
from repro.logic.second_order import skolemize_all
from repro.mappings import Mapping, MappingLanguage
from repro.metamodel import INT, SchemaBuilder
from repro.operators import compose
from repro.runtime import exchange


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
