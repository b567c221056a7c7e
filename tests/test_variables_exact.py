"""Exactness of the variable sets of atoms and dependencies.

``Atom.variables`` and ``atoms_variables`` (behind
``Dependency.body_variables``, ``TGD.head_variables``, ``frontier`` and
``existentials``) add each variable term as it is and open only function
terms.  The oracles below are the former implementations, kept
verbatim: one set per term through ``variables_of``, unioned atom by
atom.  Both must agree (``==``) on every atom and dependency of the E2
shapes and of their compositions, of the 240 seeded compose pairs of
``tests/test_compose_exact.py`` and of their compositions (whose heads
carry Skolem terms), of seeded atoms with nested function terms, and of
the chase-plan tests (``tests/test_chase_plans.py``).
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

from repro.logic import EGD, TGD, parse_egd, parse_tgd
from repro.logic.formulas import Atom, atoms_variables
from repro.logic.terms import Const, FuncTerm, Var, variables_of
from repro.operators.compose import compose
from repro.workloads import synthetic
from tests.test_chase_plans import _random_body, _random_instance
from tests.test_compose_exact import _random_atoms, _random_pair


# ----------------------------------------------------------------------
# the oracles: the former implementations, verbatim
# ----------------------------------------------------------------------
def _oracle_atom_variables(atom: Atom) -> set[Var]:
    result: set[Var] = set()
    for _, term in atom.args:
        result |= variables_of(term)
    return result


def _oracle_body_variables(dependency) -> set[Var]:
    result: set[Var] = set()
    for atom in dependency.body:
        result |= _oracle_atom_variables(atom)
    return result


def _oracle_head_variables(tgd: TGD) -> set[Var]:
    result: set[Var] = set()
    for atom in tgd.head:
        result |= _oracle_atom_variables(atom)
    return result


def _oracle_frontier(tgd: TGD) -> set[Var]:
    return _oracle_body_variables(tgd) & _oracle_head_variables(tgd)


def _oracle_existentials(tgd: TGD) -> set[Var]:
    return _oracle_head_variables(tgd) - _oracle_body_variables(tgd)


# ----------------------------------------------------------------------
# the inputs
# ----------------------------------------------------------------------
def _mapping_parts(mapping, atoms: list, dependencies: list) -> None:
    """A mapping's tgds, or its SO-tgd's atoms."""
    if mapping.so_tgd is not None:
        for implication in mapping.so_tgd.implications:
            atoms.extend(implication.body + implication.head)
    for tgd in mapping.tgds:
        dependencies.append(tgd)


def _e2_shapes(atoms: list, dependencies: list) -> None:
    """Chains of 2, 4 and 8 steps, composed first-order and
    second-order, and the alternatives family at widths 2-10."""
    for steps in (2, 4, 8):
        mappings = synthetic.composition_chain_linear(steps, relations=3)
        for mapping in mappings:
            _mapping_parts(mapping, atoms, dependencies)
        for first_order in (True, False):
            current = mappings[0]
            for step in mappings[1:]:
                current = compose(current, step, prefer_first_order=first_order)
                _mapping_parts(current, atoms, dependencies)
    for width in range(2, 11):
        m12, m23 = synthetic.composition_pair_exponential(width)
        for mapping in (m12, m23, compose(m12, m23, prefer_first_order=False)):
            _mapping_parts(mapping, atoms, dependencies)


def _compose_pairs(atoms: list, dependencies: list) -> None:
    """The 240 seeded random pairs, and both of their compositions."""
    rng = random.Random(2107)
    for _ in range(240):
        m12, m23 = _random_pair(rng)
        for mapping in (m12, m23, compose(m12, m23, prefer_first_order=False),
                        compose(m12, m23)):
            _mapping_parts(mapping, atoms, dependencies)


def _nested_terms(atoms: list, dependencies: list) -> None:
    """Atoms whose function terms nest up to three deep, and tgds built
    from them."""
    rng = random.Random(57)
    for _ in range(300):
        body = _random_atoms(rng, "B", rng.randint(1, 3), 3)
        head = _random_atoms(rng, "H", rng.randint(1, 2), 3)
        atoms.extend(body + head)
        dependencies.append(TGD(body=body, head=head))
    atoms.append(Atom("R", ()))
    atoms.append(Atom("R", (("a", Const(1)), ("b", FuncTerm("f", ())))))


#: Every dependency written out in the chase-plan tests.
_CHASE_PLAN_TESTS = Path(__file__).with_name("test_chase_plans.py")


def _chase_plan_dependencies(atoms: list, dependencies: list) -> None:
    texts = {
        node.value for node in ast.walk(ast.parse(_CHASE_PLAN_TESTS.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "->" in node.value and "\n" not in node.value
    }
    for text in sorted(texts):
        conclusion = text.split("->", 1)[1]
        parse = parse_egd if "=" in conclusion.split("(")[0] else parse_tgd
        dependencies.append(parse(text))
    # The random bodies of ``TestPlansMatchSearch.test_random_bodies``.
    for seed in range(90):
        rng = random.Random(seed)
        _random_instance(rng)
        for _ in range(6):
            body = _random_body(rng)
            atoms.extend(body)
            dependencies.append(EGD(body=body))


def _check(atoms: list, dependencies: list) -> None:
    for atom in atoms:
        assert atom.variables() == _oracle_atom_variables(atom), str(atom)
    for dependency in dependencies:
        assert dependency.body_variables() == _oracle_body_variables(
            dependency), str(dependency)
        assert atoms_variables(dependency.body) == _oracle_body_variables(
            dependency), str(dependency)
        if isinstance(dependency, TGD):
            assert dependency.head_variables() == _oracle_head_variables(
                dependency), str(dependency)
            assert dependency.frontier() == _oracle_frontier(
                dependency), str(dependency)
            assert dependency.existentials() == _oracle_existentials(
                dependency), str(dependency)


def test_e2_shapes():
    atoms: list = []
    dependencies: list = []
    _e2_shapes(atoms, dependencies)
    _check(atoms, dependencies)
    assert len(atoms) >= 10_000 and len(dependencies) >= 100


def test_seeded_compose_pairs():
    atoms: list = []
    dependencies: list = []
    _compose_pairs(atoms, dependencies)
    _check(atoms, dependencies)
    assert len(dependencies) >= 1000
    assert sum(isinstance(term, FuncTerm)
               for atom in atoms for _, term in atom.args) >= 100


def test_nested_function_terms():
    atoms: list = []
    dependencies: list = []
    _nested_terms(atoms, dependencies)
    _check(atoms, dependencies)
    # Some function term has a function term among its arguments.
    assert any(
        any(isinstance(arg, FuncTerm) for arg in term.args)
        for atom in atoms for _, term in atom.args
        if isinstance(term, FuncTerm)
    )


def test_chase_plan_dependencies():
    atoms: list = []
    dependencies: list = []
    _chase_plan_dependencies(atoms, dependencies)
    _check(atoms, dependencies)
    assert sum(isinstance(d, TGD) for d in dependencies) >= 10
    assert sum(isinstance(d, EGD) for d in dependencies) >= 540
