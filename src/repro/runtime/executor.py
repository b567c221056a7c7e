"""Transformation execution and data exchange."""

from __future__ import annotations

from typing import Optional

from repro.instances.database import Instance
from repro.logic.chase import ChaseStats
from repro.mappings.mapping import Mapping
from repro.observability.state import STATE as _OBS
from repro.observability.tracing import tracer
from repro.operators.transgen import (
    Transformation,
    TransformationPair,
    transgen,
)


def execute(
    transformation, instance: Instance, engine: Optional[str] = None
) -> Instance:
    """Run any transformation produced by TransGen.

    For a :class:`TransformationPair`, the *query view* is executed —
    the direction that materializes the entity/target side.  ``engine``
    selects the algebra execution engine (vectorized/interpreted; None
    → vectorized).
    """
    if isinstance(transformation, TransformationPair):
        return transformation.query_view.apply(instance, engine=engine)
    if isinstance(transformation, Transformation):
        return transformation.apply(instance, engine=engine)
    raise TypeError(f"not a transformation: {transformation!r}")


def exchange(
    mapping: Mapping,
    source: Instance,
    compute_core: bool = False,
    engine: Optional[str] = None,
) -> Instance:
    """One-call data exchange: TransGen + execute.

    For tgd mappings this computes a universal solution (optionally the
    core); for equality mappings it evaluates the generated query view.
    """
    produced, _ = exchange_with_stats(mapping, source, compute_core, engine)
    return produced


def exchange_with_stats(
    mapping: Mapping,
    source: Instance,
    compute_core: bool = False,
    engine: Optional[str] = None,
) -> tuple[Instance, Optional[ChaseStats]]:
    """:func:`exchange`, additionally returning the chase's
    :class:`ChaseStats` (``None`` when no chase ran — equality mappings
    and so-tgd execution).  With observability enabled the same numbers
    also land in the metrics registry (``chase.*``) via the chase."""
    attributes = (
        {
            "mapping": mapping.name,
            "mapping.constraints": mapping.constraint_count(),
            "source.rows": source.total_rows(),
        }
        if _OBS.enabled
        else {}
    )
    with tracer.span("runtime.exchange", **attributes) as span:
        transformation = transgen(mapping, compute_core=compute_core)
        produced = execute(transformation, source, engine=engine)
        stats = getattr(transformation, "last_chase_stats", None)
        if span is not None:
            span.set_attribute("target.rows", produced.total_rows())
    return produced, stats
