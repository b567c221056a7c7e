"""Second-order tgds.

Fagin, Kolaitis, Popa and Tan (the paper's reference [40]) showed that
st-tgds are not closed under composition and introduced second-order
tgds — implications whose terms may apply existentially quantified
*function symbols* — which are.  The composition operator
(:mod:`repro.operators.compose`) produces these; this module provides:

* the :class:`SecondOrderTGD` representation;
* :func:`skolemize` — st-tgd → SO-tgd implication (each existential
  variable becomes a Skolem term over the frontier);
* :func:`deskolemize` — best-effort conversion back to first-order
  st-tgds, raising :class:`~repro.errors.ExpressivenessError` when the
  SO-tgd is genuinely second-order;
* :meth:`SecondOrderTGD.runnable` — the implications that data exchange
  runs.  The chase (:mod:`repro.logic.chase`) compiles each into the
  same plans as a tgd, with Skolem semantics: a function term is a
  labeled null memoized on (function, arguments) for the run, and a
  condition filters the joined triggers.  That is what makes composed
  mappings *runnable* by the mapping runtime, closing the
  design-time/runtime loop the paper calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ExpressivenessError
from repro.logic.dependencies import TGD
from repro.logic.formulas import Atom, Equality
from repro.logic.terms import Const, FuncTerm, Substitution, Term, Var, functions_of, variables_of


@dataclass(frozen=True)
class Implication:
    """``body ∧ conditions → head`` with possibly second-order terms."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    conditions: tuple[Equality, ...] = ()
    name: str = ""

    def substitute(self, substitution: Substitution) -> "Implication":
        return Implication(
            body=tuple(a.substitute(substitution) for a in self.body),
            head=tuple(a.substitute(substitution) for a in self.head),
            conditions=tuple(
                c.substitute(substitution) for c in self.conditions
            ),
            name=self.name,
        )

    def functions(self) -> set[str]:
        found: set[str] = set()
        for atom in self.body + self.head:
            for _, term in atom.args:
                if term.__class__ is FuncTerm:
                    found |= functions_of(term)
        for condition in self.conditions:
            found |= functions_of(condition.left) | functions_of(condition.right)
        return found

    def variables(self) -> set[Var]:
        result: set[Var] = set()
        for atom in self.body + self.head:
            result |= atom.variables()
        for condition in self.conditions:
            result |= condition.variables()
        return result

    def __str__(self) -> str:
        parts = [str(a) for a in self.body] + [str(c) for c in self.conditions]
        head = " & ".join(str(a) for a in self.head)
        return f"{' & '.join(parts)} -> {head}"


@dataclass(frozen=True)
class SecondOrderTGD:
    """``∃f1...fk ⋀ implications`` — the composition-closed language."""

    implications: tuple[Implication, ...]
    name: str = ""

    @property
    def functions(self) -> frozenset[str]:
        found: set[str] = set()
        for implication in self.implications:
            found |= implication.functions()
        return frozenset(found)

    @property
    def is_first_order(self) -> bool:
        return not self.functions

    def runnable(self) -> tuple[Implication, ...]:
        """The implications that can fire in a data exchange.

        Equalities that a composition cannot resolve can leave
        ``R(f(x))`` in a body, or a condition on a variable that no body
        atom binds.  Neither fires: ``f(x)`` is a null fresh to the run,
        which no source row holds, and an unbound variable equals no
        value, as in a first-order condition.
        """
        return tuple(
            implication for implication in self.implications
            if not any(atom.functions() for atom in implication.body)
            and all(condition.variables() <= set().union(
                *(atom.variables() for atom in implication.body))
                for condition in implication.conditions)
        )

    def size(self) -> int:
        """Total atom count — the measure of composition blow-up the
        benchmarks track (Fagin et al. prove an exponential lower
        bound)."""
        return sum(
            len(i.body) + len(i.head) + len(i.conditions)
            for i in self.implications
        )

    def __str__(self) -> str:
        prefix = ""
        if self.functions:
            prefix = "∃" + ",".join(sorted(self.functions)) + " . "
        return prefix + "\n".join(str(i) for i in self.implications)


# ----------------------------------------------------------------------
# Skolemization
# ----------------------------------------------------------------------
def skolemize(tgd: TGD, index: int = 0) -> Implication:
    """Replace each existential head variable by a Skolem term over the
    tgd's frontier variables (sorted for determinism).  A full tgd keeps
    its head as it is."""
    label = tgd.name or f"d{index}"
    body_variables, head_variables = tgd.body_variables(), tgd.head_variables()
    existentials = head_variables - body_variables
    if not existentials:
        return Implication(body=tgd.body, head=tgd.head, name=label)
    frontier = tuple(sorted(body_variables & head_variables, key=lambda v: v.name))
    substitution: dict[Var, Term] = {
        existential: FuncTerm(f"f_{label}_{existential.name}", frontier)
        for existential in sorted(existentials, key=lambda v: v.name)
    }
    return Implication(
        body=tgd.body,
        head=tuple(atom.substitute(substitution) for atom in tgd.head),
        name=label,
    )


def skolemize_all(tgds: Sequence[TGD], name: str = "") -> SecondOrderTGD:
    return SecondOrderTGD(
        implications=tuple(
            skolemize(tgd, index) for index, tgd in enumerate(tgds)
        ),
        name=name,
    )


# ----------------------------------------------------------------------
# De-Skolemization
# ----------------------------------------------------------------------
def deskolemize(so_tgd: SecondOrderTGD) -> list[TGD]:
    """Convert an SO-tgd back to first-order st-tgds when possible.

    A Skolem term can become an existential variable when, within an
    implication, (a) it does not occur nested inside another function
    term, (b) it does not occur in the body, and (c) equalities between
    function terms have been resolved away; and when (d) its function
    occurs in no other implication and with no other arguments, since
    separate existentials would no longer have to agree.  Otherwise the
    mapping is genuinely second-order and
    :class:`ExpressivenessError` is raised — this is the
    expressiveness boundary the paper highlights.
    """
    result: list[TGD] = []
    # function symbol -> the one (implication index, term) it may take
    owners: dict[str, tuple[int, FuncTerm]] = {}
    for index, implication in enumerate(so_tgd.implications):
        # Resolving an implication without conditions binds nothing: it
        # is its own resolution (Compose's output is already resolved).
        resolved = (
            _resolve_conditions(implication) if implication.conditions
            else implication
        )
        if resolved is None or resolved.conditions:
            raise ExpressivenessError(
                f"implication {implication} has unresolvable function-term "
                "conditions; composition result is not first-order"
            )
        if any(isinstance(term, FuncTerm)
               for atom in resolved.body for _, term in atom.args):
            raise ExpressivenessError(
                f"function term in body of {resolved}; not first-order"
            )
        # Each distinct function term in the head becomes one
        # existential variable.
        replacements: dict[FuncTerm, Var] = {}

        def rewrite(term: Term) -> Term:
            if isinstance(term, FuncTerm):
                if any(isinstance(a, FuncTerm) for a in term.args):
                    raise ExpressivenessError(
                        f"nested function term {term} is not first-order"
                    )
                if term not in replacements:
                    if owners.setdefault(term.function, (index, term)) != (
                        index, term
                    ):
                        raise ExpressivenessError(
                            f"Skolem function {term.function} is shared "
                            "between implications or argument tuples; "
                            "not first-order"
                        )
                    replacements[term] = Var(f"e{index}_{len(replacements)}")
                return replacements[term]
            return term

        head = tuple(
            Atom(
                atom.relation,
                tuple((name, rewrite(term)) for name, term in atom.args),
            )
            for atom in resolved.head
        )
        result.append(
            TGD(body=resolved.body, head=head, name=resolved.name or f"c{index}")
        )
    return result


def _resolve_conditions(implication: Implication) -> Optional[Implication]:
    """Eliminate conditions by unification.

    ``x = t`` binds ``x`` to ``t``; ``f(s̄) = f(t̄)`` decomposes into
    argument equalities; ``f(s̄) = g(t̄)`` or a function term equal to a
    constant makes the implication unresolvable (returns None).  The
    bindings form a triangular substitution: a popped condition is
    resolved under them on the spot, and the body, head and residual
    conditions are resolved once, at the end.  Only atoms that hold a
    bound variable or a function term are rebuilt; every other atom is
    returned as itself.
    """
    # Keyed by variable name: a str caches its hash, a Var rehashes on
    # every lookup, and Compose's candidates spend most of their time
    # here (apply_term and Implication.substitute take twice as long).
    # Terms dispatch on their exact class (no term class is subclassed).
    bindings: dict[str, Term] = {}

    def resolve(term: Term) -> Term:
        while term.__class__ is Var and term.name in bindings:
            term = bindings[term.name]
        if term.__class__ is FuncTerm:
            return FuncTerm(term.function, tuple(map(resolve, term.args)))
        return term

    def resolve_atoms(atoms: tuple[Atom, ...]) -> tuple[Atom, ...]:
        if not bindings:
            return atoms
        resolved = []
        for atom in atoms:
            for _, term in atom.args:
                kind = term.__class__
                if kind is FuncTerm or (kind is Var and term.name in bindings):
                    atom = Atom(atom.relation,
                                tuple([(name, resolve(t)) for name, t in atom.args]))
                    break
            resolved.append(atom)
        return tuple(resolved)

    pending = list(implication.conditions)
    residual: list[Equality] = []
    while pending:
        condition = pending.pop()
        left, right = resolve(condition.left), resolve(condition.right)
        if right.__class__ is Var and left.__class__ is not Var:
            left, right = right, left
        if left.__class__ is Var:
            if right.__class__ is Var:
                if left.name != right.name:
                    bindings[left.name] = right
            elif right.__class__ is FuncTerm and left in variables_of(right):
                # Occurs check: x = f(..x..) is a genuine second-order
                # constraint on the function; keep it residual.
                residual.append(Equality(left, right))
            else:
                bindings[left.name] = right
            continue
        if left is right or left == right:
            continue
        if isinstance(left, FuncTerm) and isinstance(right, FuncTerm):
            if left.function == right.function and len(left.args) == len(right.args):
                for l_arg, r_arg in zip(left.args, right.args):
                    pending.append(Equality(l_arg, r_arg))
                continue
            return None  # distinct Skolem functions equated
        if isinstance(left, Const) and isinstance(right, Const):
            if left.value != right.value:
                # Condition can never hold: implication is vacuous.
                return Implication(
                    resolve_atoms(implication.body), (), (), implication.name
                )
            continue
        # FuncTerm = Const: genuinely second-order constraint.
        return None
    return Implication(
        resolve_atoms(implication.body),
        resolve_atoms(implication.head),
        tuple(Equality(resolve(c.left), resolve(c.right)) for c in residual),
        implication.name,
    )
