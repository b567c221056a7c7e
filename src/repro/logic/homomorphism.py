"""Homomorphism search.

Two flavours, both backtracking with candidate filtering:

* **formula → instance**: assign values to the variables of a
  conjunction of atoms so every atom maps onto some row.  This is the
  trigger-finding step of the chase and the evaluation step of
  Chandra–Merlin containment.  Atoms use named arguments and may
  mention only a *subset* of a relation's attributes — a row matches if
  it agrees on the mentioned ones.

* **instance → instance**: map labeled nulls to values such that every
  row of the source maps onto a row of the target (constants fixed).
  This is the workhorse of core computation and universal-solution
  equivalence checks.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.instances.database import Instance, Row
from repro.instances.labeled_null import LabeledNull
from repro.logic.formulas import Atom, Equality
from repro.logic.terms import Const, Term, Var


Assignment = dict[Var, object]


_MISSING = object()


def _match_atom(atom: Atom, row: Row, assignment: Assignment) -> Optional[Assignment]:
    """Try to extend ``assignment`` so ``atom`` maps onto ``row``.

    Returns ``assignment`` itself when the atom matches without new
    bindings (callers never mutate assignments, so sharing is safe);
    the dict is only copied once a genuinely new binding appears.
    """
    new_bindings: Optional[dict[Var, object]] = None
    for name, term in atom.args:
        value = row.get(name, _MISSING)
        if value is _MISSING:
            return None
        if isinstance(term, Const):
            if value != term.value:
                return None
        elif isinstance(term, Var):
            bound = assignment.get(term, _MISSING)
            if bound is not _MISSING:
                if bound != value:
                    return None
            elif new_bindings is not None and term in new_bindings:
                if new_bindings[term] != value:
                    return None
            else:
                if new_bindings is None:
                    new_bindings = {}
                new_bindings[term] = value
        else:
            raise TypeError("cannot match second-order terms against rows")
    if new_bindings is None:
        return assignment  # type: ignore[return-value]
    merged = dict(assignment)
    merged.update(new_bindings)
    return merged


def _conditions_hold(
    conditions: Sequence[Equality], assignment: Assignment
) -> bool:
    for condition in conditions:
        left = _term_value(condition.left, assignment)
        right = _term_value(condition.right, assignment)
        if left != right:
            return False
    return True


def _term_value(term: Term, assignment: Assignment) -> object:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return assignment.get(term, term)
    raise TypeError("conditions must be first-order")


def _candidate_rows(
    instance: Instance, atom: Atom, assignment: Assignment
) -> Sequence[Row]:
    """Rows possibly matching ``atom`` given current bindings: the
    postings list of one bound attribute (or all rows if none is bound),
    served from the instance's persistent per-(relation, attribute)
    indexes — no longer rebuilt per ``iter_homomorphisms`` call."""
    for name, term in atom.args:
        if isinstance(term, Const):
            return instance.index_lookup(atom.relation, name, term.value)
        if isinstance(term, Var) and term in assignment:
            return instance.index_lookup(atom.relation, name, assignment[term])
    return instance.rows(atom.relation)


def iter_homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    conditions: Sequence[Equality] = (),
    partial: Optional[Assignment] = None,
    *,
    pinned: Optional[tuple[int, Sequence[Row]]] = None,
) -> Iterator[Assignment]:
    """Yield every assignment of the atoms' variables onto the instance.

    Atoms are matched most-constrained-first (fewest candidate rows);
    within the backtracking, the instance's persistent value indexes
    narrow each atom's candidates to rows agreeing on one already-bound
    attribute.

    ``pinned=(i, rows)`` restricts atom ``i`` of ``atoms`` to the given
    candidate rows and matches it first — incremental maintenance uses
    this to enumerate only triggers touching a delta, and the chase's
    compiled plans reproduce exactly this order.
    """
    entries: list[tuple[Atom, Optional[Sequence[Row]]]] = [
        (atom, None) for atom in atoms
    ]
    if pinned is not None:
        pin_index, pin_rows = pinned
        entries[pin_index] = (atoms[pin_index], pin_rows)
    ordered = sorted(
        entries,
        key=lambda entry: (
            (0, 0)
            if entry[1] is not None
            else (1, instance.cardinality(entry[0].relation))
        ),
    )

    def backtrack(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(ordered):
            if _conditions_hold(conditions, assignment):
                yield dict(assignment)
            return
        atom, forced = ordered[index]
        candidates = (
            forced
            if forced is not None
            else _candidate_rows(instance, atom, assignment)
        )
        for row in candidates:
            extended = _match_atom(atom, row, assignment)
            if extended is not None:
                yield from backtrack(index + 1, extended)

    yield from backtrack(0, dict(partial or {}))


def find_homomorphism(
    atoms: Sequence[Atom],
    instance: Instance,
    conditions: Sequence[Equality] = (),
    partial: Optional[Assignment] = None,
) -> Optional[Assignment]:
    """First homomorphism or ``None``."""
    for assignment in iter_homomorphisms(atoms, instance, conditions, partial):
        return assignment
    return None


def find_all_homomorphisms(
    atoms: Sequence[Atom],
    instance: Instance,
    conditions: Sequence[Equality] = (),
) -> list[Assignment]:
    return list(iter_homomorphisms(atoms, instance, conditions))


# ----------------------------------------------------------------------
# instance → instance
# ----------------------------------------------------------------------
def instance_homomorphism(
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


def are_hom_equivalent(a: Instance, b: Instance) -> bool:
    """True when homomorphisms exist both ways — the equivalence class
    of universal solutions."""
    return (
        instance_homomorphism(a, b) is not None
        and instance_homomorphism(b, a) is not None
    )
