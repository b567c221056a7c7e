"""Invert and Inverse (paper, Sections 6.2 and 6.4).

``Invert`` is the syntactic role swap — the mapping is a relation, so
transposing costs nothing.  ``Inverse`` is the hard one: a mapping that
actually *recovers* the source from the target ("we need a
transformation that can actually produce an instance D from an
instance D′").  Fagin [37] showed exact inverses exist only for
mappings that lose nothing; Fagin et al. [41] introduced
*quasi-inverses* as the relaxation.

Implemented here:

* :func:`invert` — the syntactic swap;
* :func:`inverse` — for st-tgd mappings that are *lossless by
  construction* (each tgd full, no projection of body variables), the
  reversed tgds, verified by round-tripping the mapping's canonical
  instances; raises :class:`~repro.errors.InversionError` otherwise;
* :func:`quasi_inverse` — always constructible: reversed tgds in which
  the lost body variables become existentials, i.e. the inverse
  recovers the source up to those unknowns (they come back as labeled
  nulls);
* :func:`roundtrips` — the executable check ``m ∘ m⁻¹ ⊇ id`` on a
  given instance (exchange forward, exchange back, compare).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import InversionError
from repro.instances.database import Instance
from repro.logic.chase import chase
from repro.logic.dependencies import TGD
from repro.logic.homomorphism import are_hom_equivalent
from repro.mappings.mapping import Mapping
from repro.observability.instrument import instrumented
from repro.operators.transgen import exchange_dependencies


@instrumented("op.invert", attrs=lambda mapping: {
    "mapping.constraints": mapping.constraint_count(),
})
def invert(mapping: Mapping) -> Mapping:
    """The syntactic Invert: transpose the relation."""
    return mapping.invert()


def _reversed_tgd(tgd: TGD) -> TGD:
    """Swap body and head.  Existentials of the original head become
    ordinary frontier variables of the reverse body; body variables not
    in the head become existentials of the reverse head — that is the
    information the inverse cannot recover."""
    return TGD(body=tgd.head, head=tgd.body, name=f"inv_{tgd.name}")


def _lost_information(tgd: TGD) -> set:
    """Variables the forward tgd drops (body-only) plus values it
    invents (existentials)."""
    return (tgd.body_variables() - tgd.head_variables()) | tgd.existentials()


@instrumented("op.inverse", attrs=lambda mapping, samples=None: {
    "mapping.constraints": mapping.constraint_count(),
})
def inverse(
    mapping: Mapping, samples: Optional[Sequence[Instance]] = None
) -> Mapping:
    """An exact inverse for lossless st-tgd mappings.

    Requirements checked statically: every tgd is full and projects no
    body variable away.  Then the reversed mapping is verified by
    round-tripping each sample instance (defaults to each tgd's frozen
    body); any failure — e.g. two tgds writing overlapping target data
    so the backward chase manufactures extra source rows — raises
    :class:`InversionError`.
    """
    if mapping.so_tgd is not None or mapping.equalities:
        raise InversionError(
            "inverse() supports st-tgd mappings; convert or use invert()"
        )
    for tgd in mapping.tgds:
        lost = _lost_information(tgd)
        if lost:
            raise InversionError(
                f"tgd {tgd} loses {sorted(v.name for v in lost)}; no exact "
                "inverse exists (use quasi_inverse)"
            )
    candidate = Mapping(
        mapping.target,
        mapping.source,
        [_reversed_tgd(t) for t in mapping.tgds],
        name=f"inverse_{mapping.name}",
    )
    for sample in samples if samples is not None else _canonical_samples(mapping):
        if not roundtrips(mapping, candidate, sample):
            raise InversionError(
                f"reversed mapping fails to round-trip {sample!r}"
            )
    return candidate


@instrumented("op.quasi_inverse", attrs=lambda mapping: {
    "mapping.constraints": mapping.constraint_count(),
})
def quasi_inverse(mapping: Mapping) -> Mapping:
    """The always-constructible relaxation: reversed tgds whose lost
    variables come back existentially (as labeled nulls at runtime)."""
    if mapping.so_tgd is not None or mapping.equalities:
        raise InversionError(
            "quasi_inverse() supports st-tgd mappings"
        )
    return Mapping(
        mapping.target,
        mapping.source,
        [_reversed_tgd(t) for t in mapping.tgds],
        name=f"quasi_inverse_{mapping.name}",
    )


def _canonical_samples(mapping: Mapping) -> list[Instance]:
    """One sample per tgd: its frozen body (variables as fresh
    constants), the canonical witness of that tgd firing."""
    samples = []
    for index, tgd in enumerate(mapping.tgds):
        query_like = Instance()
        for atom in tgd.body:
            row = {}
            for name, term in atom.args:
                from repro.logic.terms import Const, Var

                if isinstance(term, Const):
                    row[name] = term.value
                elif isinstance(term, Var):
                    row[name] = f"§{index}_{term.name}"
                else:
                    raise InversionError("second-order term in tgd body")
            query_like.insert(atom.relation, row)
        samples.append(query_like)
    return samples


def roundtrips(
    forward: Mapping, backward: Mapping, source_instance: Instance
) -> bool:
    """Exchange forward then backward; the recovery succeeds when the
    recovered source is homomorphically equivalent to the original
    (i.e. same information content; labeled nulls may stand in for
    invented values)."""
    target_relations = set(forward.target.entities)
    source_relations = set(forward.source.entities)

    forward_result = chase(source_instance,
                           exchange_dependencies(forward)).instance
    target_instance = Instance()
    for relation in target_relations:
        if forward_result.rows(relation):
            target_instance.relations[relation] = list(forward_result.rows(relation))

    backward_result = chase(target_instance,
                            exchange_dependencies(backward)).instance
    recovered = Instance()
    for relation in source_relations:
        if backward_result.rows(relation):
            recovered.relations[relation] = list(backward_result.rows(relation))

    original = Instance()
    for relation in source_relations:
        if source_instance.rows(relation):
            original.relations[relation] = list(source_instance.rows(relation))

    return are_hom_equivalent(original, recovered)
