"""The Compose operator.

Instance-level semantics (paper, Section 6.1): given map12 ⊆ D1 × D2
and map23 ⊆ D2 × D3, the composition is the set of pairs ⟨D1, D3⟩ such
that some D2 satisfies both.  Two concrete algorithms:

* **Dependency language** (st-tgds): the algorithm of Fagin, Kolaitis,
  Popa & Tan [40].  Skolemize both mappings, then replace each middle-
  schema atom in a σ23 implication by every possible σ12 origin — the
  step whose case product causes the proven exponential lower bound —
  resolve the resulting equalities, and (optionally) de-Skolemize back
  to first-order st-tgds when possible.  When it is not, the result is
  returned as a second-order tgd, exactly the outcome the paper uses to
  argue SO-tgds belong in the runtime.

* **Equality language** (Figure 6): when map23 *defines* each middle
  relation as a query over the third schema (view-definition form,
  detecting the paper's complementary-selection split of Addresses into
  Local/Foreign), composition is view unfolding: substitute those
  definitions into map12's target-side expressions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.algebra import expressions as E
from repro.algebra import scalars as S
from repro.algebra.optimizer import optimize
from repro.errors import CompositionError, ExpressivenessError
from repro.logic.formulas import Atom, Equality
from repro.logic.second_order import (
    Implication,
    SecondOrderTGD,
    _resolve_conditions,
    deskolemize,
    skolemize_all,
)
from repro.logic.terms import FuncTerm, Term, Var
from repro.mappings.mapping import EqualityConstraint, Mapping
from repro.observability.instrument import instrumented
from repro.observability.journal import JOURNAL
from repro.observability.metrics import registry
from repro.observability.state import STATE


@instrumented("op.compose", attrs=lambda map12, map23, *a, **k: {
    "map12.constraints": map12.constraint_count(),
    "map23.constraints": map23.constraint_count(),
})
def compose(
    map12: Mapping, map23: Mapping, prefer_first_order: bool = True
) -> Mapping:
    """Compose two mappings sharing a middle schema.

    Dispatches on constraint language; raises
    :class:`~repro.errors.CompositionError` when the schemas do not
    chain or neither algorithm applies.
    """
    if map12.target.name != map23.source.name:
        raise CompositionError(
            f"cannot compose: {map12.name} targets {map12.target.name!r} but "
            f"{map23.name} reads {map23.source.name!r}"
        )
    if map12.equalities or map23.equalities:
        return _compose_equalities(map12, map23)
    return _compose_tgds(map12, map23, prefer_first_order)


# ----------------------------------------------------------------------
# dependency-language composition (Fagin et al.)
# ----------------------------------------------------------------------
def _compose_tgds(
    map12: Mapping, map23: Mapping, prefer_first_order: bool
) -> Mapping:
    if map12.so_tgd is not None:
        sigma12 = map12.so_tgd
    else:
        sigma12 = skolemize_all(map12.tgds, name=map12.name)
    if map23.so_tgd is not None:
        sigma23 = map23.so_tgd
    else:
        sigma23 = skolemize_all(map23.tgds, name=map23.name)
    sigma23 = _rename_functions_apart(sigma23, sigma12.functions)
    middle_relations = set(map12.target.entities)
    first_suffix = _first_free_suffix(sigma12.implications + sigma23.implications)

    composed: list[Implication] = []
    for implication in sigma23.implications:
        for resolved in _replace_middle_atoms(
            implication, sigma12, middle_relations, first_suffix
        ):
            if resolved.head:  # vacuous implications are dropped
                composed.append(resolved)

    name = f"{map12.name}∘{map23.name}"
    so_tgd = SecondOrderTGD(tuple(composed), name=name)
    if prefer_first_order:
        try:
            return Mapping(map12.source, map23.target, deskolemize(so_tgd),
                           name=name)
        except ExpressivenessError as exc:
            if STATE.enabled:  # count and journal the SO-tgd fallback
                registry.counter("compose.second_order").inc()
                JOURNAL.record("compose.second_order", mapping=name,
                               reason=str(exc))
    return Mapping(map12.source, map23.target, so_tgd, name=name)


def _replace_middle_atoms(
    implication: Implication,
    sigma12: SecondOrderTGD,
    middle_relations: set[str],
    first_suffix: int,
) -> list[Implication]:
    """Replace every middle-schema atom in ``implication``'s body by all
    possible σ12 origins (the exponential case product).  Each origin is
    renamed apart once per middle-atom position ``p``, with the suffix
    ``~(first_suffix + p)``; a choice then only concatenates cases."""
    middle_atoms = [a for a in implication.body if a.relation in middle_relations]
    other_atoms = tuple(a for a in implication.body if a.relation not in middle_relations)
    produced = {h.relation for o in sigma12.implications for h in o.head}
    if any(atom.relation not in produced for atom in middle_atoms):
        # No σ12 rule ever produces this relation: the implication
        # body is unsatisfiable over σ12-generated middles, so it
        # contributes nothing (vacuously true).
        return []

    # Per position, one (body atoms, conditions) case per origin head atom.
    cases: list[list[tuple[tuple[Atom, ...], tuple[Equality, ...]]]] = []
    for position, atom in enumerate(middle_atoms):
        atom_args = atom.arg_map
        cases.append([])
        for origin in sigma12.implications:
            heads = [i for i, h in enumerate(origin.head) if h.relation == atom.relation]
            if not heads:
                continue
            renamed = _rename_apart(origin, first_suffix + position)
            for index in heads:
                head_args = renamed.head[index].arg_map
                if not atom_args.keys() <= head_args.keys():
                    # The head writes rows without an attribute the atom
                    # reads, and an atom matches only rows carrying all
                    # of its attributes: this origin never matches.
                    continue
                # Equate the σ23 atom's terms with the σ12 head atom's.
                equalities = tuple(
                    Equality(atom_args[a], head_args[a]) for a in sorted(atom_args)
                )
                cases[-1].append((renamed.body, renamed.conditions + equalities))

    # The case product in itertools.product's order, one position at a
    # time: a choice's body and conditions extend its prefix's tuples.
    choices = [(other_atoms, implication.conditions)]
    for position_cases in cases:
        choices = [
            (body + case_body, conditions + case_conditions)
            for body, conditions in choices
            for case_body, case_conditions in position_cases
        ]
    results: list[Implication] = []
    for body, conditions in choices:
        candidate = Implication(body, implication.head, conditions, implication.name)
        resolved = _resolve_conditions(candidate)
        # Residual function-term conditions are kept unresolved: the
        # SO-tgd language allows them.
        results.append(candidate if resolved is None else resolved)
    return results


def _rename_functions_apart(
    sigma23: SecondOrderTGD, taken: frozenset[str]
) -> SecondOrderTGD:
    """Rename each σ23 Skolem function whose name σ12 also uses to the
    first free ``name$k``.  ``skolemize`` names a function after its
    tgd, not its mapping, so unnamed tgds, or two earlier compositions,
    reuse names; the functions are still distinct, and merging them
    would equate their values."""
    renaming: dict[str, str] = {}
    functions = sigma23.functions
    used = set(taken | functions)
    for function in sorted(taken & functions):
        suffix = 1
        while f"{function}${suffix}" in used:
            suffix += 1
        renaming[function] = f"{function}${suffix}"
        used.add(renaming[function])
    if not renaming:
        return sigma23

    def rename(t: Term) -> Term:
        if isinstance(t, FuncTerm):
            return FuncTerm(renaming.get(t.function, t.function), tuple(map(rename, t.args)))
        return t

    return SecondOrderTGD(
        tuple(_map_terms(i, rename) for i in sigma23.implications),
        name=sigma23.name,
    )


def _map_terms(implication: Implication, rebuild: Callable[[Term], Term]) -> Implication:
    """``implication`` with ``rebuild`` applied to each term of its atoms
    and conditions, in one pass."""

    def atoms(of: tuple[Atom, ...]) -> tuple[Atom, ...]:
        return tuple(Atom(a.relation, tuple((n, rebuild(t)) for n, t in a.args))
                     for a in of)

    return Implication(
        atoms(implication.body),
        atoms(implication.head),
        tuple(Equality(rebuild(c.left), rebuild(c.right))
              for c in implication.conditions),
        implication.name,
    )


def _first_free_suffix(implications: Sequence[Implication]) -> int:
    """One past the largest ``j`` of any variable named ``…~j``: suffixes
    from there on never capture a variable, not even one that an earlier
    composition named."""
    terms: list[Term] = [term for i in implications for atom in i.body + i.head
                         for _, term in atom.args]
    terms += [t for i in implications for c in i.conditions for t in (c.left, c.right)]
    names: set[str] = set()
    for term in terms:  # a function term appends its arguments
        if term.__class__ is Var:
            names.add(term.name)
        elif term.__class__ is FuncTerm:
            terms.extend(term.args)
    tails = (name.rpartition("~")[2] for name in names)
    return 1 + max((int(t) for t in tails if t.isdecimal()), default=-1)


def _rename_apart(implication: Implication, index: int) -> Implication:
    """Rename an implication's variables with the suffix ``~index``, in
    one pass that builds each renamed variable once."""
    suffix = f"~{index}"
    renamed: dict[str, Var] = {}

    def rename(term: Term) -> Term:
        if term.__class__ is Var:
            var = renamed.get(term.name)
            if var is None:
                var = renamed[term.name] = Var(term.name + suffix)
            return var
        if term.__class__ is FuncTerm:
            return FuncTerm(term.function, tuple(map(rename, term.args)))
        return term

    return _map_terms(implication, rename)


# ----------------------------------------------------------------------
# equality-language composition (view unfolding, Figure 6)
# ----------------------------------------------------------------------
def unfold_scans(
    expr: E.RelExpr, replacements: dict[str, E.RelExpr]
) -> E.RelExpr:
    """Substitute each ``Scan(R)`` for ``R`` in ``replacements`` by the
    replacement expression (view unfolding)."""
    if isinstance(expr, E.Scan) and expr.relation in replacements:
        return replacements[expr.relation]
    if isinstance(expr, E.EntityScan) and expr.entity in replacements:
        return replacements[expr.entity]
    rebuilt = expr
    if isinstance(expr, E.Select):
        rebuilt = E.Select(unfold_scans(expr.input, replacements), expr.predicate)
    elif isinstance(expr, E.Project):
        rebuilt = E.Project(unfold_scans(expr.input, replacements), expr.outputs)
    elif isinstance(expr, E.Extend):
        rebuilt = E.Extend(
            unfold_scans(expr.input, replacements), expr.name, expr.scalar
        )
    elif isinstance(expr, E.Join):
        rebuilt = E.Join(
            unfold_scans(expr.left, replacements),
            unfold_scans(expr.right, replacements),
            expr.predicate,
            expr.kind,
            expr.right_prefix,
        )
    elif isinstance(expr, E.UnionAll):
        rebuilt = E.UnionAll(
            unfold_scans(expr.left, replacements),
            unfold_scans(expr.right, replacements),
        )
    elif isinstance(expr, E.Difference):
        rebuilt = E.Difference(
            unfold_scans(expr.left, replacements),
            unfold_scans(expr.right, replacements),
        )
    elif isinstance(expr, E.Distinct):
        rebuilt = E.Distinct(unfold_scans(expr.input, replacements))
    elif isinstance(expr, E.Rename):
        rebuilt = E.Rename(unfold_scans(expr.input, replacements), expr.mapping)
    elif isinstance(expr, E.Aggregate):
        rebuilt = E.Aggregate(
            unfold_scans(expr.input, replacements), expr.group_by, expr.aggregations
        )
    elif isinstance(expr, E.Sort):
        rebuilt = E.Sort(unfold_scans(expr.input, replacements), expr.keys)
    return rebuilt


def view_definitions(map23: Mapping) -> dict[str, E.RelExpr]:
    """Extract "middle relation R = expression over target" definitions
    from an equality mapping.

    Handles two constraint shapes:

    * a source side that is (a projection of) ``Scan(R)`` covering all
      of R's attributes — a direct definition;
    * the paper's split shape — several constraints whose source sides
      are complementary selections ``σ[c = v](R)`` / ``σ[c ≠ v](R)``;
      their target sides union into R's definition.
    """
    direct: dict[str, E.RelExpr] = {}
    partitions: dict[str, list[tuple[S.Predicate, E.RelExpr]]] = {}
    for constraint in map23.equalities:
        relation, selection = _source_shape(constraint.source_expr)
        if relation is None:
            raise CompositionError(
                f"constraint {constraint.name!r} is not in view-definition "
                "form; cannot unfold"
            )
        if selection is None:
            direct[relation] = constraint.target_expr
        else:
            partitions.setdefault(relation, []).append(
                (selection, constraint.target_expr)
            )
    for relation, pieces in partitions.items():
        if relation in direct:
            continue
        if not _is_complementary(pieces):
            raise CompositionError(
                f"selections on {relation!r} do not partition it; "
                "cannot reconstruct a definition"
            )
        union: Optional[E.RelExpr] = None
        for _, target_expr in pieces:
            union = target_expr if union is None else E.UnionAll(union, target_expr)
        direct[relation] = union
    return direct


def _source_shape(expr: E.RelExpr):
    """Classify a source expression: returns (relation, selection) where
    selection is None for plain (projected) scans."""
    current = expr
    while isinstance(current, (E.Project, E.Distinct)):
        current = current.inputs()[0]
    if isinstance(current, E.Scan):
        return current.relation, None
    if isinstance(current, E.Select) and isinstance(current.input, E.Scan):
        return current.input.relation, current.predicate
    return None, None


def _is_complementary(pieces: Sequence[tuple[S.Predicate, E.RelExpr]]) -> bool:
    """True for the paper's shape: exactly two selections, ``c = v`` and
    ``c ≠ v`` on the same column and literal."""
    if len(pieces) != 2:
        return False
    predicates = [p for p, _ in pieces]
    comparisons = [p for p in predicates if isinstance(p, S.Comparison)]
    if len(comparisons) != 2:
        return False
    eq_pred = next((p for p in comparisons if p.op == "="), None)
    ne_pred = next((p for p in comparisons if p.op == "!="), None)
    if eq_pred is None or ne_pred is None:
        return False
    return eq_pred.left == ne_pred.left and eq_pred.right == ne_pred.right


def rewrite_to_physical(
    map_st: Mapping, map_s_sp: Mapping, map_t_tp: Mapping
) -> Mapping:
    """The paper's §5 "Data exchange" bullet: "Suppose S and T are
    logical views of physical schemas SP and TP … to execute mapST on
    the physical databases, it may be more efficient to translate it
    into a transformation mapSP-TP from SP to TP."

    Both logical-to-physical mappings must be in view-definition form
    (each logical relation = a query over its physical schema); the
    rewrite unfolds those definitions into both sides of every mapST
    constraint, yielding a mapping that runs directly on the physical
    databases.
    """
    if map_s_sp.source.name != map_st.source.name:
        raise CompositionError(
            f"mapS-SP must define {map_st.source.name!r}, defines "
            f"{map_s_sp.source.name!r}"
        )
    if map_t_tp.source.name != map_st.target.name:
        raise CompositionError(
            f"mapT-TP must define {map_st.target.name!r}, defines "
            f"{map_t_tp.source.name!r}"
        )
    source_definitions = view_definitions(map_s_sp)
    target_definitions = view_definitions(map_t_tp)
    physical_constraints = [
        EqualityConstraint(
            source_expr=optimize(
                unfold_scans(c.source_expr, source_definitions)
            ),
            target_expr=optimize(
                unfold_scans(c.target_expr, target_definitions)
            ),
            name=f"phys_{c.name}",
        )
        for c in map_st.equalities
    ]
    if map_st.tgds or map_st.so_tgd is not None:
        raise CompositionError(
            "physical rewriting needs mapST in the equality language; "
            "compose with the logical-physical mappings instead"
        )
    return Mapping(
        map_s_sp.target,
        map_t_tp.target,
        physical_constraints,
        name=f"physical_{map_st.name}",
    )


def _compose_equalities(map12: Mapping, map23: Mapping) -> Mapping:
    if not map23.equalities:
        raise CompositionError(
            "equality-language composition needs map23 in equality form"
        )
    definitions = view_definitions(map23)
    composed: list[EqualityConstraint] = []
    for constraint in map12.equalities:
        composed.append(
            EqualityConstraint(
                source_expr=constraint.source_expr,
                target_expr=optimize(
                    unfold_scans(constraint.target_expr, definitions)
                ),
                name=constraint.name,
            )
        )
    if map12.tgds:
        raise CompositionError(
            "mixed tgd/equality mappings are not composable; convert first"
        )
    return Mapping(
        map12.source,
        map23.target,
        composed,
        name=f"{map12.name}∘{map23.name}",
    )
