"""Homomorphism search.

Two flavours, both narrowing candidates through the instance's value
indexes:

* **formula → instance**: assign values to the variables of a
  conjunction of atoms so every atom maps onto some row, by
  backtracking.  This is the evaluation step of Chandra–Merlin
  containment and the reference ``naive_chase``, and the oracle of the
  chase's compiled plans.  Atoms use named arguments and may mention
  only a *subset* of a relation's attributes — a row matches if it
  agrees on the mentioned ones.

* **instance → instance**: map labeled nulls to values such that every
  row of the source maps onto a row of the target with the same
  attributes (constants fixed).  A universal solution is unique only up
  to homomorphic equivalence (paper, §4), so this one search decides
  every comparison of instances: ``core_of``, ``roundtrips``, the
  SO-tgd branch of ``Mapping.holds_for``, and ``are_hom_equivalent``,
  which the runtime exports as ``set_equal_modulo_nulls``.  It
  propagates forced and unconstrained rows before it branches, so chase
  output, with egd-merged rows and interchangeable all-null rows,
  takes time about linear in its size.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.instances.database import Instance, Row, freeze_row
from repro.instances.labeled_null import LabeledNull
from repro.logic.formulas import Atom, Equality
from repro.logic.terms import Const, Term, Var


Assignment = dict[Var, object]


#: An absent attribute or an unbound variable or null (``None`` cannot
#: mark one: rows may hold ``None``, and a null may map to it).
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
def _extension(row: Row, candidate: Row, mapping: dict) -> Optional[dict]:
    """The bindings that send ``row`` onto ``candidate`` on top of
    ``mapping`` (``{}`` when it needs none), or ``None`` when they
    clash: other attributes, an unequal constant or bound null, or one
    unbound null asked to take two values."""
    if len(candidate) != len(row):
        return None
    local: dict = {}
    for attr, value in row.items():
        image = candidate.get(attr, _MISSING)
        if image is _MISSING:
            return None
        if isinstance(value, LabeledNull):
            known = mapping.get(value, _MISSING)
            if known is _MISSING:
                known = local.get(value, _MISSING)
                if known is _MISSING:
                    local[value] = image
                    continue
            if known != image:
                return None
        elif value != image:
            return None
    return local


def instance_homomorphism(
    source: Instance, target: Instance
) -> Optional[dict[LabeledNull, object]]:
    """A mapping of ``source``'s labeled nulls to values such that every
    source row lands on a target row with the same attributes
    (constants map to themselves), or ``None`` when there is none.

    Duplicate source rows are dropped, and the rest are visited in
    stored order, relations by name.  A row's candidates are the
    target's index postings on its first attribute whose image is
    known (a constant or an already-bound null); only a row whose
    nulls are all unbound scans its relation.  A row is settled at
    once when one candidate fits (unit propagation), or when no other
    row mentions its unbound nulls, so that any fitting candidate will
    do.  Settling binds nulls, which re-examines the rows that mention
    them.  What propagation leaves open is settled one group of rows
    sharing unbound nulls at a time, on an explicit stack: the row with
    the fewest candidates first, and each choice propagates again.
    """
    rows: list[tuple[str, Row]] = []
    seen: set[tuple[str, frozenset]] = set()
    occurs: dict[LabeledNull, list[int]] = {}
    for relation in sorted(source.relations):
        for row in source.relations[relation]:
            key = (relation, freeze_row(row))
            if key in seen:
                continue
            seen.add(key)
            for value in row.values():
                if isinstance(value, LabeledNull):
                    mentions = occurs.setdefault(value, [])
                    if not mentions or mentions[-1] != len(rows):
                        mentions.append(len(rows))
            rows.append((relation, row))

    mapping: dict[LabeledNull, object] = {}
    settled = [False] * len(rows)
    bound: list[LabeledNull] = []  # trail of bindings, newest last
    closed: list[int] = []  # trail of settled rows, newest last

    def pool(index: int) -> Sequence[Row]:
        relation, row = rows[index]
        for attr, value in row.items():
            image = (mapping.get(value, _MISSING)
                     if isinstance(value, LabeledNull) else value)
            if image is not _MISSING:
                return target.index_lookup(relation, attr, image)
        return target.rows(relation)

    def settle(index: int, local: dict) -> list[int]:
        """Bind ``local`` and close row ``index``; return the open rows
        that mention a newly bound null."""
        settled[index] = True
        closed.append(index)
        touched = []
        for null, image in local.items():
            mapping[null] = image
            bound.append(null)
            touched.extend(i for i in occurs[null] if not settled[i])
        return touched

    def propagate(queue: list[int]) -> bool:
        while queue:
            index = queue.pop()
            if settled[index]:
                continue
            row = rows[index][1]
            private = all(
                len(occurs[value]) == 1 for value in row.values()
                if isinstance(value, LabeledNull) and value not in mapping
            )
            found = []  # the first one or two fitting candidates
            for candidate in pool(index):
                local = _extension(row, candidate, mapping)
                if local is not None:
                    found.append(local)
                    if private or len(found) == 2:
                        break
            if not found:
                return False
            if private or len(found) == 1:
                queue.extend(settle(index, found[0]))
        return True

    def components() -> Iterator[list[int]]:
        """The open rows, grouped by the unbound nulls they share."""
        grouped = [False] * len(rows)
        reached: set[LabeledNull] = set()
        for start in range(len(rows)):
            if settled[start] or grouped[start]:
                continue
            grouped[start] = True
            component, frontier = [], [start]
            while frontier:
                index = frontier.pop()
                component.append(index)
                for value in rows[index][1].values():
                    if (isinstance(value, LabeledNull) and value not in mapping
                            and value not in reached):
                        reached.add(value)
                        for other in occurs[value]:
                            if not grouped[other]:
                                grouped[other] = True
                                frontier.append(other)
            yield sorted(component)

    def solve(component: list[int]) -> bool:
        # Frames: (row, its untried candidates, trail lengths).
        stack: list[tuple] = []
        while True:
            open_rows = [i for i in component if not settled[i]]
            if not open_rows:
                return True
            index = min(open_rows, key=lambda i: len(pool(i)))
            stack.append((index, iter(pool(index)), len(bound), len(closed)))
            while stack:
                index, untried, bound_mark, closed_mark = stack[-1]
                for null in bound[bound_mark:]:
                    del mapping[null]
                del bound[bound_mark:]
                for i in closed[closed_mark:]:
                    settled[i] = False
                del closed[closed_mark:]
                for candidate in untried:
                    local = _extension(rows[index][1], candidate, mapping)
                    if local is not None:
                        break
                else:
                    stack.pop()
                    continue
                if propagate(settle(index, local)):
                    break
            else:
                return False

    if not propagate(list(range(len(rows) - 1, -1, -1))):
        return None
    # Components share no unbound null, so one that cannot be settled
    # fails the search whatever the others chose.
    if all(solve(component) for component in components()):
        return dict(mapping)
    return None


def are_hom_equivalent(left: Instance, right: Instance) -> bool:
    """True when homomorphisms exist both ways: the equivalence of
    universal solutions, which covers a renaming of labeled nulls."""
    return (
        instance_homomorphism(left, right) is not None
        and instance_homomorphism(right, left) is not None
    )


#: The runtime's name for the check (``repro.runtime`` exports it):
#: maintenance, Compose and the chase engines are judged equal when
#: their instances are homomorphically equivalent.
set_equal_modulo_nulls = are_hom_equivalent
