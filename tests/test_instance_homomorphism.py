"""The one instance-to-instance homomorphism search.

``instance_homomorphism`` is checked against the former backtracking
DFS (kept below verbatim as the oracle) on seeded random pairs, and
``set_equal_modulo_nulls`` (which is ``are_hom_equivalent``) against
the DFS run both ways.  A subprocess runs the shapes that used to take
seconds to minutes (egd-merged chase output, its core, an existential
join, interchangeable all-null rows) under a timeout and two hash
seeds, whose outputs must agree.  A last test keeps the search single:
no second implementation of it is defined in ``src/repro``.
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional

from repro.instances import Instance, LabeledNull
from repro.instances.database import Row
from repro.logic.homomorphism import (
    are_hom_equivalent,
    instance_homomorphism,
    set_equal_modulo_nulls,
)
from repro.runtime import set_equal_modulo_nulls as runtime_export

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE = REPO_ROOT / "src" / "repro"


# ----------------------------------------------------------------------
# oracle: the former explicit-stack DFS, verbatim
# ----------------------------------------------------------------------
def _dfs_instance_homomorphism(
    source: Instance,
    target: Instance,
    fixed: Optional[dict[LabeledNull, object]] = None,
    forbid_identity: bool = False,
) -> Optional[dict[LabeledNull, object]]:
    """A mapping of ``source``'s labeled nulls to values such that every
    source row lands on a target row (constants map to themselves).

    ``forbid_identity=True`` rejects the trivial solution in which every
    null maps to itself *and* the row images are the originals — used
    when searching for proper endomorphisms during core computation.
    """
    source_rows: list[tuple[str, Row]] = [
        (relation, row)
        for relation in sorted(source.relations)
        for row in source.relations[relation]
    ]
    target_sets: dict[str, list[Row]] = {
        relation: target.rows(relation) for relation, _ in source_rows
    }
    # Most-constrained-first ordering.
    source_rows.sort(key=lambda item: len(target_sets.get(item[0], [])))

    def try_map_row(
        row: Row, candidate: Row, mapping: dict[LabeledNull, object]
    ) -> Optional[dict[LabeledNull, object]]:
        if set(row) != set(candidate):
            return None
        extended = dict(mapping)
        for key, value in row.items():
            target_value = candidate[key]
            if isinstance(value, LabeledNull):
                if value in extended:
                    if extended[value] != target_value:
                        return None
                else:
                    extended[value] = target_value
            elif value != target_value:
                return None
        return extended

    # Explicit-stack DFS: the search is one level deep per source row,
    # so recursion would hit the interpreter limit on instances of a
    # few thousand rows.
    total = len(source_rows)
    root = dict(fixed or {})

    def is_identity(mapping: dict[LabeledNull, object]) -> bool:
        return all(null == image for null, image in mapping.items())

    if total == 0:
        return None if forbid_identity and is_identity(root) else root

    mappings: list[Optional[dict[LabeledNull, object]]] = [None] * (total + 1)
    mappings[0] = root
    iterators = [iter(target_sets.get(source_rows[0][0], []))]
    while iterators:
        index = len(iterators) - 1
        _, row = source_rows[index]
        descended = False
        for candidate in iterators[index]:
            extended = try_map_row(row, candidate, mappings[index])
            if extended is None:
                continue
            if index + 1 == total:
                if forbid_identity and is_identity(extended):
                    continue
                return extended
            mappings[index + 1] = extended
            iterators.append(
                iter(target_sets.get(source_rows[index + 1][0], []))
            )
            descended = True
            break
        if not descended:
            iterators.pop()
    return None


# ----------------------------------------------------------------------
# seeded random pairs
# ----------------------------------------------------------------------
#: Cell values that compare equal across types (0/False, 1/True/1.0)
#: or look alike ("1"), and ``None``, which a null may map to.
_CELLS = (0, 1, True, 1.0, "1", None, False)
_RELATIONS = ("R", "S")


def _random_row(rng: random.Random, nulls: list) -> dict:
    """A ragged row: one to three of the attributes, in random order."""
    attributes = rng.sample(("a", "b", "c"), rng.randint(1, 3))
    return {
        attribute: (rng.choice(nulls) if nulls and rng.random() < 0.5
                    else rng.choice(_CELLS))
        for attribute in attributes
    }


def _random_pair(seed: int) -> tuple[Instance, Instance]:
    """A source whose nulls are shared across both relations, and a
    target that holds most of one random image of it plus noise rows,
    with nulls of its own (whose labels may equal the source's)."""
    rng = random.Random(seed)
    source_nulls = [LabeledNull(i) for i in range(rng.randint(1, 4))]
    target_nulls = [LabeledNull(i) for i in range(rng.randint(0, 4))]
    source = Instance()
    for _ in range(rng.randint(1, 6)):
        relation = rng.choice(_RELATIONS)
        row = _random_row(rng, source_nulls)
        source.insert(relation, row)
        if rng.random() < 0.2:
            source.insert(relation, dict(row))
    image = {null: rng.choice(_CELLS + tuple(target_nulls))
             for null in source_nulls}
    target_rows = [
        (relation, {attribute: image.get(value, value)
                    if isinstance(value, LabeledNull) else value
                    for attribute, value in row.items()})
        for relation, row in source
        if rng.random() < 0.85
    ]
    target_rows += [(rng.choice(_RELATIONS), _random_row(rng, target_nulls))
                    for _ in range(rng.randint(0, 4))]
    rng.shuffle(target_rows)
    target = Instance()
    for relation, row in target_rows:
        target.insert(relation, row)
    return source, target


def _lands(mapping: dict, source: Instance, target: Instance) -> bool:
    """Does ``mapping`` bind every source null and send every source
    row onto a target row?"""
    if set(mapping) != source.nulls():
        return False
    for relation, row in source:
        image = {attribute: mapping[value]
                 if isinstance(value, LabeledNull) else value
                 for attribute, value in row.items()}
        if image not in list(target.rows(relation)):
            return False
    return True


def test_search_agrees_with_the_dfs_on_random_pairs():
    outcomes = {True: 0, False: 0}
    for seed in range(2500):
        source, target = _random_pair(seed)
        expected = _dfs_instance_homomorphism(source, target)
        found = instance_homomorphism(source, target)
        assert (found is None) == (expected is None), (seed, source, target)
        if found is not None:
            assert _lands(found, source, target), (seed, found)
        outcomes[found is not None] += 1
    # The generator must exercise both answers.
    assert min(outcomes.values()) >= 500, outcomes


def test_equivalence_agrees_with_the_dfs_both_ways():
    for seed in range(1000):
        left, right = _random_pair(seed)
        expected = (_dfs_instance_homomorphism(left, right) is not None
                    and _dfs_instance_homomorphism(right, left) is not None)
        assert set_equal_modulo_nulls(left, right) == expected, seed
        assert set_equal_modulo_nulls(right, left) == expected, seed


def test_one_function_under_both_names():
    assert set_equal_modulo_nulls is are_hom_equivalent
    assert runtime_export is are_hom_equivalent


def test_a_null_bound_to_none_stays_bound():
    # Mapping ⊥3 to None for R(a=⊥3) must not let S(a=⊥3) rebind it:
    # the right instance says R and S share a value, the left one not.
    left, right = Instance(), Instance()
    left.insert("R", {"a": None})
    left.insert("S", {"a": LabeledNull(2)})
    right.insert("S", {"a": LabeledNull(3)})
    right.insert("R", {"a": LabeledNull(3)})
    right.insert("R", {"a": None})
    assert instance_homomorphism(left, right) is not None
    assert instance_homomorphism(right, left) is None
    assert not set_equal_modulo_nulls(left, right)


# ----------------------------------------------------------------------
# the shapes that used to run for seconds or minutes
# ----------------------------------------------------------------------
_CASES = r'''
import hashlib
import random

from repro.instances import Instance, LabeledNull
from repro.logic import chase, core_of, naive_chase, parse_tgd
from repro.logic.homomorphism import (
    are_hom_equivalent, instance_homomorphism, set_equal_modulo_nulls,
)
from repro.workloads.synthetic import keyed_exchange as keyed


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def against_naive(db, dependencies):
    semi = chase(db, dependencies).instance
    naive = naive_chase(db, dependencies).instance
    return (are_hom_equivalent(semi, naive),
            digest(list(instance_homomorphism(semi, naive).items())))


for rows in (50, 250):
    print("keyed", rows, *against_naive(*keyed(rows)))

db, dependencies = keyed(100)
universal = chase(db, dependencies).instance
target = Instance()
for relation in ("Assign", "Audit", "Client", "Room", "Sale"):
    target.relations[relation] = list(universal.rows(relation))
core = core_of(target)
print("core", target.total_rows(), len(target.nulls()), core.total_rows(),
      len(core.nulls()), digest(list(core)))

db = Instance()
for value in range(2000):
    db.add("R", a=value)
print("join", *against_naive(db, [parse_tgd("R(a=x) -> S(a=x, b=y) & T(b=y)")]))

rng = random.Random(7)
rows = [("Room", {"office": LabeledNull(i)}) for i in range(750)]
for i in range(750, 1500, 3):
    rows += [("R", {"a": LabeledNull(i), "b": LabeledNull(i + 1)}),
             ("S", {"b": LabeledNull(i + 1), "c": LabeledNull(i + 2)}),
             ("T", {"c": LabeledNull(i + 2)})]
labels = list(range(1500))
rng.shuffle(labels)
left, right = Instance(), Instance()
for relation, row in rows:
    left.insert(relation, row)
rng.shuffle(rows)
for relation, row in rows:
    right.insert(relation, {attribute: LabeledNull(10 ** 6 + labels[null.label])
                            for attribute, null in row.items()})
print("all-null", left.total_rows(), set_equal_modulo_nulls(left, right),
      digest(list(instance_homomorphism(left, right).items())))
'''


def test_chase_shaped_cases_finish_and_ignore_the_hash_seed():
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _CASES],
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                     PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed in (0, 1)
    ]
    outputs = []
    try:
        for process in processes:
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            outputs.append(stdout)
    finally:
        for process in processes:
            process.kill()
    assert outputs[0] == outputs[1], outputs
    # Each line ends with a digest of the mapping (or core) found; the
    # rest is the answer.  The core drops 20 of 180 rows, no null.
    answers = [line.split()[:-1] for line in outputs[0].splitlines()]
    assert answers == [
        ["keyed", "50", "True"], ["keyed", "250", "True"],
        ["core", "180", "24", "160", "24"], ["join", "True"],
        ["all-null", "1500", "True"],
    ], answers


# ----------------------------------------------------------------------
# one search
# ----------------------------------------------------------------------
_SEARCH = {"instance_homomorphism", "are_hom_equivalent",
           "set_equal_modulo_nulls"}


def _definitions(tree: ast.AST) -> set[str]:
    """Names a module defines by ``def`` or binds at its top level."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in getattr(tree, "body", ()):
        if isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets
                      if isinstance(target, ast.Name)}
    return names


def test_one_instance_homomorphism_search():
    defined: dict[str, set[str]] = {}
    watched = _SEARCH | {"_match_rows"}
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if not any(name in text for name in watched):
            continue
        names = _definitions(ast.parse(text, filename=str(path))) & watched
        if names:
            defined[path.relative_to(SOURCE).as_posix()] = names
    assert defined == {"logic/homomorphism.py": _SEARCH}, defined
