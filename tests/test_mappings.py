"""Tests for mappings: correspondences, constraint semantics,
interpretation, and the paper's figure workloads."""

import pytest

from repro.errors import MappingError
from repro.instances import Instance
from repro.logic import parse_tgd
from repro.mappings import (
    Correspondence,
    CorrespondenceSet,
    EqualityConstraint,
    Mapping,
    MappingLanguage,
    interpret_as_tgds,
    interpret_snowflake,
)
from repro.workloads import paper


class TestCorrespondences:
    def test_add_pair_resolves_paths(self):
        cs = paper.figure4_correspondences()
        assert len(cs) == 4

    def test_reject_dangling(self):
        cs = CorrespondenceSet(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        with pytest.raises(Exception):
            cs.add_pair("Empl.Bogus", "Staff.SID")

    def test_reject_wrong_schema(self):
        source = paper.figure4_source_schema()
        target = paper.figure4_target_schema()
        cs = CorrespondenceSet(source, target)
        from repro.metamodel import ElementPath

        with pytest.raises(MappingError):
            cs.add(Correspondence(ElementPath("Nope", "Empl"),
                                  ElementPath(target.name, "Staff")))

    def test_top_k(self):
        source = paper.figure4_source_schema()
        target = paper.figure4_target_schema()
        cs = CorrespondenceSet(source, target)
        cs.add_pair("Empl.Name", "Staff.Name", 0.9)
        cs.add_pair("Empl.Name", "Staff.City", 0.5)
        cs.add_pair("Empl.Name", "Staff.SID", 0.2)
        top2 = cs.top_k(2)
        assert len(top2) == 2
        assert {c.target.path for c in top2} == {"Staff.Name", "Staff.City"}

    def test_best_one_to_one(self):
        source = paper.figure4_source_schema()
        target = paper.figure4_target_schema()
        cs = CorrespondenceSet(source, target)
        cs.add_pair("Empl.Name", "Staff.Name", 0.9)
        cs.add_pair("Empl.Tel", "Staff.Name", 0.8)
        cs.add_pair("Empl.Tel", "Staff.City", 0.3)
        selected = cs.best_one_to_one()
        assert len(selected) == 2
        pairs = {(c.source.path, c.target.path) for c in selected}
        assert ("Empl.Name", "Staff.Name") in pairs
        assert ("Empl.Tel", "Staff.City") in pairs

    def test_above_threshold(self):
        cs = paper.figure4_correspondences()
        assert len(cs.above(0.5)) == 4
        assert len(cs.above(1.1)) == 0


class TestMappingSemantics:
    def test_tgd_mapping_holds(self):
        source = paper.figure6_s_schema()
        target = paper.figure6_s_prime_schema()
        tgd = parse_tgd("Names(SID=s, Name=n) -> NamesP(SID=s, Name=n)")
        mapping = Mapping(source, target, [tgd])
        s = paper.figure6_s_instance()
        sp = paper.figure6_s_prime_instance()
        assert mapping.holds_for(s, sp)
        sp.delete("NamesP", lambda r: r["SID"] == 1)
        assert not mapping.holds_for(s, sp)

    def test_language_classification(self):
        source = paper.figure6_s_schema()
        target = paper.figure6_s_prime_schema()
        st = Mapping(source, target,
                     [parse_tgd("Names(SID=s) -> NamesP(SID=s)")])
        assert st.language == MappingLanguage.ST_TGD
        general = Mapping(source, target,
                          [parse_tgd("NamesP(SID=s) -> Names(SID=s)")])
        assert general.language == MappingLanguage.TGD

    def test_constraint_referencing_unknown_relation_rejected(self):
        source = paper.figure6_s_schema()
        target = paper.figure6_s_prime_schema()
        with pytest.raises(MappingError):
            Mapping(source, target, [parse_tgd("Ghost(a=x) -> NamesP(SID=x)")])

    def test_equality_mapping_holds(self):
        mapping = paper.figure6_map_s_sprime()
        assert mapping.holds_for(
            paper.figure6_s_instance(), paper.figure6_s_prime_instance()
        )

    def test_equality_mapping_detects_mismatch(self):
        mapping = paper.figure6_map_s_sprime()
        broken = paper.figure6_s_prime_instance()
        broken.add("Local", SID=9, Address="extra")
        assert not mapping.holds_for(paper.figure6_s_instance(), broken)

    def test_invert_swaps_roles(self):
        mapping = paper.figure6_map_s_sprime()
        inverted = mapping.invert()
        assert inverted.source.name == "Sprime"
        assert inverted.holds_for(
            paper.figure6_s_prime_instance(), paper.figure6_s_instance()
        )

    def test_figure2_mapping_holds_on_paper_instances(self):
        mapping = paper.figure2_mapping()
        assert mapping.holds_for(
            paper.figure2_sql_instance(), paper.figure2_er_instance()
        )

    def test_figure2_mapping_rejects_wrong_er_side(self):
        mapping = paper.figure2_mapping()
        er = paper.figure2_er_instance()
        er.insert_object("Person", Id=99, Name="Ghost")
        assert not mapping.holds_for(paper.figure2_sql_instance(), er)


class TestSnowflakeInterpretation:
    def test_figure4_constraint_count(self):
        mapping = interpret_snowflake(paper.figure4_correspondences())
        # root-key + 3 attribute correspondences
        assert len(mapping.equalities) == 4

    def test_figure4_shapes(self):
        """Constraint 3 must be π[EID, City](Empl ⋈ Addr) = π[SID, City](Staff)."""
        mapping = interpret_snowflake(paper.figure4_correspondences())
        city = next(c for c in mapping.equalities if "City" in c.name)
        assert city.source_expr.relations() == {"Empl", "Addr"}
        assert city.target_expr.relations() == {"Staff"}

    def test_figure4_holds_on_consistent_instances(self):
        mapping = interpret_snowflake(paper.figure4_correspondences())
        source = paper.figure4_source_instance()
        target = Instance(paper.figure4_target_schema())
        target.insert_all("Staff", [
            {"SID": 1, "Name": "Ann", "BirthDate": None, "City": "Rome"},
            {"SID": 2, "Name": "Bob", "BirthDate": None, "City": "Oslo"},
        ])
        assert mapping.holds_for(source, target)
        target.add("Staff", SID=3, Name="Zed", BirthDate=None, City="Lima")
        assert not mapping.holds_for(source, target)

    def test_needs_root(self):
        cs = CorrespondenceSet(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        cs.add_pair("Empl.Name", "Staff.Name")
        with pytest.raises(MappingError):
            interpret_snowflake(cs)

    def test_explicit_roots(self):
        cs = CorrespondenceSet(
            paper.figure4_source_schema(), paper.figure4_target_schema()
        )
        cs.add_pair("Empl.Name", "Staff.Name")
        mapping = interpret_snowflake(cs, source_root="Empl", target_root="Staff")
        assert len(mapping.equalities) == 2


class TestTgdInterpretation:
    def test_one_tgd_per_target_entity(self):
        mapping = interpret_as_tgds(paper.figure4_correspondences())
        assert len(mapping.tgds) == 1
        tgd = mapping.tgds[0]
        assert tgd.head[0].relation == "Staff"
        assert {a.relation for a in tgd.body} == {"Empl", "Addr"}

    def test_fk_join_in_body(self):
        mapping = interpret_as_tgds(paper.figure4_correspondences())
        tgd = mapping.tgds[0]
        empl = next(a for a in tgd.body if a.relation == "Empl")
        addr = next(a for a in tgd.body if a.relation == "Addr")
        assert empl.term("AID") == addr.term("AID")

    def test_uncorresponded_attributes_existential(self):
        mapping = interpret_as_tgds(paper.figure4_correspondences())
        tgd = mapping.tgds[0]
        birth = tgd.head[0].term("BirthDate")
        assert birth in tgd.existentials()

    def test_executes_correctly_via_chase(self):
        from repro.logic import chase

        mapping = interpret_as_tgds(paper.figure4_correspondences())
        result = chase(paper.figure4_source_instance(), mapping.tgds)
        staff = result.instance.rows("Staff")
        assert {(r["SID"], r["Name"], r["City"]) for r in staff} == {
            (1, "Ann", "Rome"), (2, "Bob", "Oslo"),
        }
