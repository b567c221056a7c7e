"""Cross-cutting property-based tests on the engine's core invariants.

Each property is a theorem the implementation must satisfy; hypothesis
searches for counterexamples:

* chase confluence — the order of dependencies does not change the
  result up to homomorphic equivalence (universal solutions are unique
  up to homomorphism);
* core idempotence and hom-equivalence;
* composition semantics — exchanging through the composed mapping
  equals the two-step exchange, up to homomorphic equivalence;
* composition associativity on copy-style chains;
* invert is an involution; quasi-inverse recovers the certain part;
* roundtripping of ModelGen+TransGen views on random hierarchy data;
* serialization is lossless for random schemas.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.instances import Instance, InstanceGenerator
from repro.logic import chase, core_of, parse_tgd
from repro.logic.homomorphism import are_hom_equivalent, instance_homomorphism
from repro.mappings import Mapping
from repro.metamodel import INT, SchemaBuilder
from repro.metamodels import schema_from_dict, schema_to_dict
from repro.operators import (
    InheritanceStrategy,
    compose,
    modelgen,
    quasi_inverse,
    transgen,
)
from repro.runtime import exchange
from repro.workloads import synthetic

# ----------------------------------------------------------------------
# chase properties
# ----------------------------------------------------------------------
_TGD_POOL = [
    parse_tgd("A(x=v) -> B(x=v)", name="t1"),
    parse_tgd("B(x=v) -> C(x=v, y=w)", name="t2"),
    parse_tgd("A(x=v) & B(x=v) -> D(x=v)", name="t3"),
    parse_tgd("C(x=v, y=w) -> E(y=w)", name="t4"),
    parse_tgd("D(x=v) -> C(x=v, y=0)", name="t5"),
]


@given(
    st.permutations(_TGD_POOL),
    st.lists(st.integers(0, 4), min_size=0, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_chase_confluence(order, values):
    """Universal solutions are unique up to homomorphic equivalence,
    whatever the firing order."""
    db = Instance()
    for value in values:
        db.add("A", x=value)
    first = chase(db, list(order)).instance
    second = chase(db, _TGD_POOL).instance
    assert are_hom_equivalent(first, second)


@given(st.lists(st.integers(0, 3), min_size=0, max_size=5))
@settings(max_examples=30, deadline=None)
def test_core_is_idempotent_and_equivalent(values):
    db = Instance()
    for value in values:
        db.add("S", a=value)
    chased = chase(db, [
        parse_tgd("S(a=x) -> T(a=x, b=y)"),
        parse_tgd("S(a=x) -> T(a=x, b=1)"),
    ]).instance
    target = Instance()
    target.relations["T"] = chased.relations.get("T", [])
    core = core_of(target)
    assert are_hom_equivalent(core, target)
    again = core_of(core)
    assert again.total_rows() == core.total_rows()


# ----------------------------------------------------------------------
# composition properties
# ----------------------------------------------------------------------
def _chain_schemas():
    def flat(name, rel):
        return (
            SchemaBuilder(name).entity(rel, key=[f"{rel}_k"])
            .attribute(f"{rel}_k", INT).attribute(f"{rel}_v", INT).build()
        )

    return flat("CA", "R"), flat("CB", "S"), flat("CC", "T"), flat("CD", "U")


_M12_VARIANTS = [
    "R(R_k=x, R_v=y) -> S(S_k=x, S_v=y)",       # copy
    "R(R_k=x, R_v=y) -> S(S_k=x, S_v=e)",       # invent v
    "R(R_k=x, R_v=y) -> S(S_k=y, S_v=x)",       # swap
]
_M23_VARIANTS = [
    "S(S_k=x, S_v=y) -> T(T_k=x, T_v=y)",
    "S(S_k=x, S_v=y) -> T(T_k=x, T_v=x)",
]


@given(
    st.sampled_from(_M12_VARIANTS),
    st.sampled_from(_M23_VARIANTS),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=0, max_size=5,
    ),
)
@settings(max_examples=40, deadline=None)
def test_composition_equals_two_step_exchange(m12_text, m23_text, rows):
    a, b, c, _ = _chain_schemas()
    m12 = Mapping(a, b, [parse_tgd(m12_text)])
    m23 = Mapping(b, c, [parse_tgd(m23_text)])
    composed = compose(m12, m23, prefer_first_order=False)

    source = Instance()
    for k, v in rows:
        source.add("R", R_k=k, R_v=v)
    step1 = chase(source, m12.tgds).instance
    step2 = chase(step1, m23.tgds).instance
    two_step = Instance()
    two_step.relations["T"] = step2.relations.get("T", [])

    from repro.logic.second_order import execute_so_tgd
    from repro.logic.second_order import skolemize_all

    so = composed.so_tgd or skolemize_all(composed.tgds)
    direct = execute_so_tgd(so, source)
    one_step = Instance()
    one_step.relations["T"] = direct.relations.get("T", [])
    assert are_hom_equivalent(two_step, one_step)


def _schema(name, relations):
    builder = SchemaBuilder(name)
    for relation, attributes in relations.items():
        builder.entity(relation, key=[attributes[0]])
        for attribute in attributes:
            builder.attribute(attribute, INT)
    return builder.build()


def _step(source, target, *texts):
    return Mapping(source, target, [parse_tgd(t) for t in texts])


def _associativity_chains():
    """Three-step chains (m12, m23, m34).  In the two multi-relation
    chains, ``m23 ∘ m34`` has implications with two middle atoms, so the
    right-associated composition renames σ12 origins beside variables
    that the inner composition named."""
    a, b, c, d = _chain_schemas()
    copy = (
        _step(a, b, "R(R_k=x, R_v=y) -> S(S_k=x, S_v=y)"),
        _step(b, c, "S(S_k=x, S_v=y) -> T(T_k=x, T_v=e)"),
        _step(c, d, "T(T_k=x, T_v=y) -> U(U_k=x, U_v=y)"),
    )
    a = _schema("XA", {r: ["k"] for r in ("R1", "R2", "R3", "R4")})
    b = _schema("XB", {r: ["k"] for r in ("S", "P", "Q")})
    c = _schema("XC", {r: ["k"] for r in ("T", "T2", "T3")})
    d = _schema("XD", {"U1": ["k"], "U2": ["a", "b"]})
    cross = (
        _step(a, b, "R1(k=x) -> S(k=x)", "R2(k=x) -> S(k=x)",
              "R3(k=x) -> P(k=x)", "R4(k=x) -> Q(k=x)"),
        _step(b, c, "S(k=x) -> T(k=x)", "P(k=x) -> T2(k=x)", "Q(k=x) -> T3(k=x)"),
        _step(c, d, "T(k=u) -> U1(k=u)", "T2(k=u) & T3(k=w) -> U2(a=u, b=w)"),
    )
    a = _schema("YA", {"R": ["k", "v"], "P": ["k", "v"]})
    b = _schema("YB", {"S": ["k", "v"], "Q": ["k", "v"]})
    c = _schema("YC", {"T": ["k", "v"], "W": ["k", "v"]})
    d = _schema("YD", {"U": ["a", "b", "c"]})
    joins = (
        _step(a, b, "R(k=x, v=y) -> S(k=x, v=y)", "P(k=x, v=y) -> S(k=y, v=x)",
              "P(k=x, v=y) -> Q(k=x, v=e)"),
        _step(b, c, "S(k=x, v=y) -> T(k=x, v=y)", "Q(k=x, v=y) -> W(k=x, v=y)",
              "S(k=x, v=y) & Q(k=x, v=z) -> W(k=y, v=z)"),
        _step(c, d, "T(k=x, v=y) & W(k=y, v=z) -> U(a=x, b=y, c=z)"),
    )
    return copy, cross, joins


_ASSOCIATIVITY_CHAINS = _associativity_chains()


@given(st.sampled_from(range(len(_ASSOCIATIVITY_CHAINS))),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_composition_associativity(chain, rows):
    """(m12 ∘ m23) ∘ m34 and m12 ∘ (m23 ∘ m34) agree on exchange, with
    each other and with the three-step exchange."""
    m12, m23, m34 = _ASSOCIATIVITY_CHAINS[chain]
    left = compose(compose(m12, m23), m34)
    right = compose(m12, compose(m23, m34))

    source = Instance()
    relations = sorted(m12.source.entities)
    for index, (k, v) in enumerate(rows):
        relation = relations[index % len(relations)]
        attributes = [a.name for a in m12.source.entities[relation].attributes]
        source.add(relation, **dict(zip(attributes, (k, v))))
    three_steps = source
    for mapping in (m12, m23, m34):
        three_steps = chase(three_steps, mapping.tgds).instance
    results = [three_steps, exchange(left, source), exchange(right, source)]
    targets = []
    for result in results:
        target = Instance()
        for relation in m34.target.entities:
            target.relations[relation] = list(result.rows(relation))
        targets.append(target)
    assert are_hom_equivalent(targets[0], targets[1])
    assert are_hom_equivalent(targets[0], targets[2])


# ----------------------------------------------------------------------
# inverse properties
# ----------------------------------------------------------------------
def test_invert_is_involution():
    from repro.workloads import paper

    mapping = paper.figure6_map_s_sprime()
    twice = mapping.invert().invert()
    assert twice.source.name == mapping.source.name
    assert twice.constraints == mapping.constraints


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=5, unique_by=lambda t: t[0]))
@settings(max_examples=30, deadline=None)
def test_quasi_inverse_recovers_certain_part(rows):
    """Forward-then-backward exchange preserves what the mapping kept:
    the original is homomorphically embeddable in the recovery."""
    a, b, _, _ = _chain_schemas()
    lossy = Mapping(a, b, [parse_tgd("R(R_k=x, R_v=y) -> S(S_k=x)")])
    backward = quasi_inverse(lossy)
    source = Instance()
    for k, v in rows:
        source.add("R", R_k=k, R_v=v)
    forward = chase(source, lossy.tgds).instance
    target_only = Instance()
    target_only.relations["S"] = forward.relations.get("S", [])
    recovered = chase(target_only, backward.tgds).instance
    recovered_r = Instance()
    recovered_r.relations["R"] = recovered.relations.get("R", [])
    # The key column must round-trip exactly:
    assert {r["R_k"] for r in recovered_r.rows("R")} == {
        r["R_k"] for r in source.rows("R")
    }
    # And every recovered value column is an unknown (labeled null) —
    # the mapping dropped it, so the inverse cannot invent it.
    from repro.instances import LabeledNull

    assert all(
        isinstance(r["R_v"], LabeledNull) for r in recovered_r.rows("R")
    )


# ----------------------------------------------------------------------
# modelgen/transgen roundtripping on random data
# ----------------------------------------------------------------------
@given(
    st.sampled_from(list(InheritanceStrategy)),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=25, deadline=None)
def test_views_roundtrip_random_hierarchy_data(strategy, seed, rows):
    schema = synthetic.inheritance_schema("P", depth=2, branching=2,
                                          attributes_per_entity=1)
    views = transgen(modelgen(schema, "relational", strategy).mapping)
    db = InstanceGenerator(schema, seed=seed).generate(rows)
    views.verify_roundtrip(db)


# ----------------------------------------------------------------------
# serialization losslessness on random schemas
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_serialization_roundtrip_random_schema(seed, depth):
    schema = synthetic.snowflake_schema("Rand", depth=depth, branching=2,
                                        attributes_per_entity=3, seed=seed)
    data = schema_to_dict(schema)
    assert schema_to_dict(schema_from_dict(data)) == data
