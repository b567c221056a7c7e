"""Incremental maintenance equals a fresh exchange, on generated
mappings.

Seeded random st-tgd mappings in which several tgds write the same
target relation, some heads have two atoms, and some heads invent
values (existentials) while others do not.  Random mixed insert/delete
batches run through :class:`MaterializedExchange`; after every batch
the maintained target must equal a fresh exchange of the updated source
up to null renaming.

Over-deleted rows that no surviving trigger of their own derivation
reinstates come back by *refiring*: another trigger that the lost row
used to satisfy fires now.  That trigger belongs either to another tgd
writing the same relation or, when a head has two atoms, to the same
tgd.  The test counts refires by source and requires both, so it fails
if maintenance stops considering either one.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.instances import Instance
from repro.logic import parse_tgd
from repro.logic.dependencies import TGD
from repro.logic.formulas import Atom
from repro.logic.terms import Var
from repro.mappings import Mapping
from repro.metamodel import INT, SchemaBuilder
from repro.runtime.executor import exchange
from repro.logic.homomorphism import set_equal_modulo_nulls
from repro.runtime.incremental import MaterializedExchange
from repro.runtime.updates import UpdateSet, apply_update

SEEDS = 300
BATCHES = 8
TARGET = {"T": 2, "U": 2}


def _schema(name: str, relations: dict[str, int]):
    builder = SchemaBuilder(name)
    for relation, arity in relations.items():
        builder.entity(relation)
        for i in range(arity):
            builder.attribute(f"{relation}_{i}", INT)
    return builder.build()


def _atom(rng: random.Random, relation: str, arity: int, terms: list):
    return Atom(relation, tuple(
        (f"{relation}_{i}", rng.choice(terms)) for i in range(arity)
    ))


def _random_mapping(rng: random.Random) -> tuple[Mapping, dict[str, int]]:
    """Three to four st-tgds from three source relations into two
    target relations: bodies of one or two atoms over x, y, z; heads
    of one or two atoms, half of the tgds with an existential ``e``."""
    source = {relation: rng.randint(1, 2) for relation in ("A", "B", "C")}
    pool = [Var("x"), Var("y"), Var("z")]
    tgds = []
    for i in range(rng.randint(3, 4)):
        body = tuple(
            _atom(rng, relation, source[relation], pool)
            for relation in rng.sample(sorted(source), rng.randint(1, 2))
        )
        used = sorted({v for atom in body for v in atom.variables()},
                      key=lambda v: v.name)
        terms = used * 3 + ([Var("e")] if rng.random() < 0.5 else [])
        head = tuple(
            _atom(rng, relation, TARGET[relation], terms)
            for relation in (rng.choice(sorted(TARGET))
                             for _ in range(rng.randint(1, 2)))
        )
        tgds.append(TGD(body=body, head=head, name=f"d{i}"))
    return Mapping(_schema("S", source), _schema("T", TARGET), tgds), source


def _random_row(rng: random.Random, source: dict[str, int]):
    relation = rng.choice(sorted(source))
    return relation, {f"{relation}_{i}": rng.randrange(3)
                      for i in range(source[relation])}


def _random_batch(rng: random.Random, source: dict[str, int],
                  current: Instance) -> UpdateSet:
    update = UpdateSet()
    for _ in range(rng.randint(1, 3)):
        relation, row = _random_row(rng, source)
        update.insert(relation, **row)
    for relation in sorted(source):
        rows = list(current.rows(relation))
        for row in rng.sample(rows, min(rng.randint(0, 2), len(rows))):
            update.deletes.setdefault(relation, []).append(dict(row))
    return update


@pytest.fixture
def refire_sources(monkeypatch):
    """Count every refired trigger as ``same tgd`` (it belongs to the
    tgd whose derivation lost the row) or ``other tgd``."""
    counts: Counter = Counter()
    owners: dict[int, int] = {}
    rederive = MaterializedExchange._rederive
    refire = MaterializedExchange._try_refire

    def spy_rederive(self, dead_derivations):
        for derivation in dead_derivations:
            for _, row in derivation.rows:
                owners[id(row)] = derivation.dep_index
        return rederive(self, dead_derivations)

    def spy_refire(self, atoms, row):
        fired = refire(self, atoms, row)
        derivations = {id(self._deriver[id(r)]): self._deriver[id(r)]
                       for _, r in fired}
        for derivation in derivations.values():
            same = derivation.dep_index == owners[id(row)]
            counts["same tgd" if same else "other tgd"] += 1
        return fired

    monkeypatch.setattr(MaterializedExchange, "_rederive", spy_rederive)
    monkeypatch.setattr(MaterializedExchange, "_try_refire", spy_refire)
    return counts


def test_maintenance_equals_fresh_exchange_on_random_mappings(
        refire_sources):
    for seed in range(SEEDS):
        rng = random.Random(seed)
        mapping, source_arities = _random_mapping(rng)
        current = Instance(mapping.source)
        for _ in range(rng.randint(4, 10)):
            current.insert(*_random_row(rng, source_arities))
        maintained = MaterializedExchange(mapping, current)
        for batch in range(BATCHES):
            update = _random_batch(rng, source_arities, current)
            maintained.apply(update)
            current = apply_update(current, update)
            assert set_equal_modulo_nulls(
                maintained.target_instance(), exchange(mapping, current)
            ), f"seed {seed}, batch {batch}: {mapping.tgds}"
    assert refire_sources["other tgd"] >= 1, refire_sources
    assert refire_sources["same tgd"] >= 1, refire_sources


def test_a_lost_row_refires_every_trigger_it_satisfied():
    """T(1, 1) is d2's; the B(1, 1) triggers of d0 and d1 never fired
    because it satisfied both heads.  Deleting C(1, 1) loses the row:
    d0 refires T(1, e), and d1 must still refire T(1, 1) itself."""
    source_schema = _schema("S", {"B": 2, "C": 2})
    mapping = Mapping(source_schema, _schema("T", {"T": 2}), [
        parse_tgd("B(B_0=y, B_1=x) -> T(T_0=x, T_1=e)", name="d0"),
        parse_tgd("B(B_0=z, B_1=z) -> T(T_0=z, T_1=z)", name="d1"),
        parse_tgd("C(C_0=y, C_1=x) -> T(T_0=x, T_1=y)", name="d2"),
    ])
    current = Instance(source_schema)
    current.insert("C", {"C_0": 1, "C_1": 1})
    maintained = MaterializedExchange(mapping, current)
    for update in (UpdateSet().insert("B", B_0=1, B_1=1),
                   UpdateSet().delete("C", C_0=1, C_1=1)):
        maintained.apply(update)
        current = apply_update(current, update)
        assert set_equal_modulo_nulls(maintained.target_instance(),
                                      exchange(mapping, current))
    assert {"T_0": 1, "T_1": 1} in maintained.target_instance().rows("T")
