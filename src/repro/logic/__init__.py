"""Logic layer: dependencies, second-order tgds, the chase, and
reasoning services.

This package supplies the *expressive mapping language* that the
paper's revised vision demands (Sections 2, 4 and 6):

* :mod:`repro.logic.terms` / :mod:`repro.logic.formulas` — variables,
  constants, Skolem function terms, relational atoms, conjunctive
  queries;
* :mod:`repro.logic.dependencies` — tuple-generating dependencies
  (tgds), source-to-target tgds (the GLAV constraints of Section 3.1.2)
  and equality-generating dependencies (egds);
* :mod:`repro.logic.second_order` — second-order tgds, the language
  that is closed under composition (Fagin et al., cited as [40]);
* :mod:`repro.logic.chase` — the chase procedure that computes
  universal solutions for data exchange (Section 4);
* :mod:`repro.logic.core_computation` — the core of a universal
  solution ("Data Exchange: Getting to the Core", cited as [39]);
* :mod:`repro.logic.certain_answers` — certain-answer query semantics;
* :mod:`repro.logic.containment` — conjunctive-query containment and
  equivalence (Chandra–Merlin), used to verify operator outputs;
* :mod:`repro.logic.parser` — a terse text syntax for dependencies so
  tests and examples stay readable.
"""

from repro.logic.terms import Var, Const, FuncTerm, Term, Substitution, apply_term
from repro.logic.formulas import Atom, ConjunctiveQuery, Equality
from repro.logic.dependencies import TGD, EGD, Dependency
from repro.logic.second_order import SecondOrderTGD, Implication, skolemize, deskolemize
from repro.logic.homomorphism import (
    find_homomorphism,
    find_all_homomorphisms,
    instance_homomorphism,
    are_hom_equivalent,
)
from repro.logic.chase import (
    chase,
    naive_chase,
    ChaseProfile,
    ChaseRecorder,
    ChaseResult,
    ChaseStats,
    is_weakly_acyclic,
)
from repro.logic.core_computation import core_of
from repro.logic.certain_answers import certain_answers, naive_evaluate
from repro.logic.containment import is_contained_in, are_equivalent
from repro.logic.parser import parse_atom, parse_tgd, parse_egd, parse_query

__all__ = [
    "Var", "Const", "FuncTerm", "Term", "Substitution", "apply_term",
    "Atom", "ConjunctiveQuery", "Equality",
    "TGD", "EGD", "Dependency",
    "SecondOrderTGD", "Implication", "skolemize", "deskolemize",
    "find_homomorphism", "find_all_homomorphisms", "instance_homomorphism",
    "are_hom_equivalent",
    "chase", "naive_chase", "ChaseProfile", "ChaseRecorder",
    "ChaseResult", "ChaseStats",
    "is_weakly_acyclic",
    "core_of",
    "certain_answers", "naive_evaluate",
    "is_contained_in", "are_equivalent",
    "parse_atom", "parse_tgd", "parse_egd", "parse_query",
]
