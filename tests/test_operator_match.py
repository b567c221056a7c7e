"""Tests for the Match operator: individual matchers, the ensemble,
top-k behaviour and quality evaluation."""

import pytest

from repro.instances import InstanceGenerator
from repro.metamodel import INT, STRING, DATE, SchemaBuilder
from repro.operators.match import (
    DatatypeMatcher,
    InstanceBasedMatcher,
    LexicalMatcher,
    MatchConfig,
    SimilarityFlooding,
    ThesaurusMatcher,
    evaluate_against_truth,
    match,
    name_similarity,
    tokenize,
)
from repro.operators.match.base import SimilarityMatrix
from repro.workloads import paper, synthetic


class TestTokenize:
    def test_camel_case(self):
        assert tokenize("billingAddr") == ("billing", "addr")

    def test_snake_case(self):
        assert tokenize("billing_addr") == ("billing", "addr")

    def test_acronym_boundary(self):
        assert tokenize("HTTPResponse") == ("http", "response")

    def test_digits(self):
        assert tokenize("addr2") == ("addr", "2")


class TestNameSimilarity:
    def test_identity(self):
        assert name_similarity("Name", "Name") == 1.0

    def test_case_insensitive(self):
        assert name_similarity("NAME", "name") > 0.9

    def test_abbreviation(self):
        assert name_similarity("Department", "Dept") > 0.5

    def test_token_reorder(self):
        assert name_similarity("customer_name", "NameOfCustomer") > 0.5

    def test_unrelated_low(self):
        assert name_similarity("Zip", "Quantity") < 0.35

    def test_similar_beats_dissimilar(self):
        assert name_similarity("EID", "SID") > name_similarity("EID", "BirthDate")


class TestIndividualMatchers:
    def test_lexical_figure4(self):
        matrix = LexicalMatcher().similarity(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        assert matrix.get("Empl.Name", "Staff.Name") > 0.8
        assert matrix.get("Addr.City", "Staff.City") > 0.6
        assert matrix.get("Empl.Name", "Staff.Name") > matrix.get(
            "Empl.Tel", "Staff.Name"
        )

    def test_datatype(self):
        matrix = DatatypeMatcher().similarity(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        assert matrix.get("Empl.EID", "Staff.SID") == 1.0  # both int
        assert matrix.get("Empl.Name", "Staff.SID") < 0.5  # string vs int

    def test_thesaurus(self):
        first = (
            SchemaBuilder("A").entity("Customer", key=["id"])
            .attribute("id", INT).attribute("phone", STRING).build()
        )
        second = (
            SchemaBuilder("B").entity("Client", key=["key"])
            .attribute("key", INT).attribute("telephone", STRING).build()
        )
        matrix = ThesaurusMatcher().similarity(first, second)
        assert matrix.get("Customer", "Client") == 1.0
        assert matrix.get("Customer.phone", "Client.telephone") == 1.0
        assert matrix.get("Customer.id", "Client.key") == 1.0  # synonyms

    def test_instance_based(self):
        schema = paper.figure4_source_schema()
        source_db = InstanceGenerator(schema, seed=1).generate(80)
        # A copy with identical data distribution.
        target_db = InstanceGenerator(schema, seed=1).generate(80)
        matcher = InstanceBasedMatcher(source_db, target_db)
        matrix = matcher.similarity(schema, schema)
        assert matrix.get("Empl.Name", "Empl.Name") > 0.8
        assert matrix.get("Empl.Name", "Empl.Name") > matrix.get(
            "Empl.Name", "Addr.Zip"
        )

    def test_similarity_flooding_uses_structure(self):
        """Two attributes with identical names on different entities:
        flooding should prefer the one whose entity also matches."""
        first = (
            SchemaBuilder("A")
            .entity("Order", key=["oid"]).attribute("oid", INT)
            .attribute("total", INT)
            .entity("Invoice", key=["iid"]).attribute("iid", INT)
            .attribute("total", INT)
            .build()
        )
        second = (
            SchemaBuilder("B")
            .entity("Order2", key=["oid"]).attribute("oid", INT)
            .attribute("total", INT)
            .build()
        )
        matrix = SimilarityFlooding(iterations=25).similarity(first, second)
        assert matrix.get("Order.total", "Order2.total") > matrix.get(
            "Invoice.total", "Order2.total"
        )


class TestEnsemble:
    def test_match_figure4(self):
        correspondences = match(
            paper.figure4_source_schema(), paper.figure4_target_schema(),
            MatchConfig(top_k=2),
        )
        pairs = {(c.source.path, c.target.path) for c in correspondences}
        assert ("Empl.Name", "Staff.Name") in pairs
        assert ("Empl", "Staff") in pairs

    def test_entities_only_match_entities(self):
        correspondences = match(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        for c in correspondences:
            assert c.source.is_entity == c.target.is_entity

    def test_top_k_keeps_candidates(self):
        k1 = match(paper.figure4_source_schema(), paper.figure4_target_schema(),
                   MatchConfig(top_k=1, threshold=0.1))
        k3 = match(paper.figure4_source_schema(), paper.figure4_target_schema(),
                   MatchConfig(top_k=3, threshold=0.1))
        assert len(k3) >= len(k1)

    def test_no_matcher_rejected(self):
        with pytest.raises(ValueError):
            match(
                paper.figure4_source_schema(),
                paper.figure4_target_schema(),
                MatchConfig(weights={}),
            )

    def test_perturbed_copy_recovery(self):
        """On a renamed copy, top-3 candidates should contain the true
        target for most elements — the paper's target metric."""
        schema = synthetic.snowflake_schema("Base", depth=1, branching=2,
                                            attributes_per_entity=3, seed=3)
        copy, truth = synthetic.perturbed_copy(schema, rename_probability=0.6,
                                               seed=4)
        correspondences = match(schema, copy, MatchConfig(top_k=3,
                                                          threshold=0.1))
        quality = evaluate_against_truth(correspondences, truth)
        assert quality.top_k_hit_rate > 0.8
        assert quality.recall > 0.6

    def test_top_k_beats_best_one(self):
        """Top-k candidate lists hit at least as often as best-1 —
        the quantified version of the paper's Section 3.1.1 claim."""
        schema = synthetic.snowflake_schema("Base2", depth=1, branching=2,
                                            seed=7)
        copy, truth = synthetic.perturbed_copy(schema, rename_probability=0.7,
                                               seed=8)
        all_candidates = match(schema, copy, MatchConfig(top_k=3,
                                                         threshold=0.1))
        best_one = all_candidates.best_one_to_one()
        top_quality = evaluate_against_truth(all_candidates, truth)
        one_quality = evaluate_against_truth(best_one, truth)
        assert top_quality.top_k_hit_rate >= one_quality.top_k_hit_rate


class TestSimilarityMatrix:
    def test_blend(self):
        s = paper.figure4_source_schema()
        t = paper.figure4_target_schema()
        a = SimilarityMatrix(s, t)
        a.set("Empl", "Staff", 0.6)
        b = SimilarityMatrix(s, t)
        b.set("Empl", "Staff", 0.2)
        b.set("Addr", "Staff", 1.0)
        combined = a.blend([(b, 0.5)], 0.5)
        assert combined.get("Empl", "Staff") == pytest.approx(0.4)
        assert combined.get("Addr", "Staff") == pytest.approx(0.5)

    def test_set_clamps_and_prunes(self):
        s = paper.figure4_source_schema()
        t = paper.figure4_target_schema()
        m = SimilarityMatrix(s, t)
        m.set("Empl", "Staff", 1.7)
        assert m.get("Empl", "Staff") == 1.0
        m.set("Empl", "Staff", 0.0)
        assert len(m) == 0

    def test_best_for_source(self):
        s = paper.figure4_source_schema()
        t = paper.figure4_target_schema()
        m = SimilarityMatrix(s, t)
        m.set("Empl", "Staff", 0.9)
        m.set("Empl", "Staff.SID", 0.3)
        best = m.best_for_source("Empl", k=1)
        assert best == [("Staff", 0.9)]
        # Equal scores rank by the target's position in
        # all_element_paths(), not by insertion (or hash) order.
        m.set("Empl.Name", "Staff.City", 0.5)
        m.set("Empl.Name", "Staff.Name", 0.5)
        m.set("Empl.Name", "Staff.SID", 0.5)
        m.set("Empl.Name", "Staff.BirthDate", 0.7)
        assert m.best_for_source("Empl.Name", k=3) == [
            ("Staff.BirthDate", 0.7), ("Staff.SID", 0.5), ("Staff.Name", 0.5),
        ]
