"""Mappings: the paper's central abstraction.

"A mapping expresses a relationship between the instances of two
schemas … a mapping between S1 and S2 defines a subset of D1 × D2"
(Section 2).  The engine represents mappings at the paper's three
levels of refinement (Section 3.1):

1. **correspondences** (:class:`~repro.mappings.correspondence.CorrespondenceSet`)
   — element pairs, the matcher's output;
2. **mapping constraints** (:class:`~repro.mappings.mapping.Mapping`)
   — st-tgds / GLAV formulas, second-order tgds, or bidirectional
   query-equality constraints (Figure 2 style);
3. **transformations** — executable algebra produced by TransGen
   (:mod:`repro.operators.transgen`).

:mod:`repro.mappings.interpretation` implements the step from (1) to
(2), including the snowflake rule of Figure 4.
"""

from repro.mappings.mapping import (
    Mapping,
    EqualityConstraint,
    MappingLanguage,
)
from repro.mappings.correspondence import Correspondence, CorrespondenceSet
from repro.mappings.interpretation import (
    interpret_snowflake,
    interpret_as_tgds,
)

__all__ = [
    "Mapping",
    "EqualityConstraint",
    "MappingLanguage",
    "Correspondence",
    "CorrespondenceSet",
    "interpret_snowflake",
    "interpret_as_tgds",
]
