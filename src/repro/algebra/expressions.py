"""Relational algebra expression trees.

These are the transformations that TransGen produces and the mapping
runtime evaluates.  The node set is exactly what the paper's generated
views need: the Figure 3 query is a union-all of a left-outer-join
branch and a plain scan branch, with extends computing the ``_fromN``
discriminators and a case-projection constructing typed entities.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from repro.algebra.scalars import (
    Col,
    Predicate,
    Scalar,
    TRUE,
    conjunction,
)
from repro.errors import EvaluationError
from repro.instances.database import Row


def _fingerprint_walk(obj, emit) -> None:
    """Feed a canonical token stream for ``obj`` into ``emit``.

    The stream is derived from the same ``_key()`` structure that
    drives ``__eq__``/``__hash__``, so two expressions that compare
    equal produce the same stream.  ``Func`` nodes contribute only
    their declared name (matching ``Func.__eq__``): the cache contract
    is that a function's name identifies its semantics.
    """
    if isinstance(obj, (RelExpr, Scalar)):
        emit(f"({type(obj).__name__}".encode())
        _fingerprint_walk(obj._key(), emit)
        emit(b")")
    elif isinstance(obj, (tuple, list)):
        emit(b"[")
        for part in obj:
            _fingerprint_walk(part, emit)
            emit(b",")
        emit(b"]")
    elif isinstance(obj, (set, frozenset)):
        # Order-insensitive collections get a canonical order.
        emit(b"{")
        for token in sorted(_collect_tokens(part) for part in obj):
            emit(token)
            emit(b",")
        emit(b"}")
    elif isinstance(obj, dict):
        emit(b"<")
        for key in sorted(obj, key=repr):
            emit(f"{key!r}:".encode())
            _fingerprint_walk(obj[key], emit)
            emit(b";")
        emit(b">")
    else:
        emit(f"{type(obj).__name__}:{obj!r}|".encode())


def _collect_tokens(obj) -> bytes:
    chunks: list[bytes] = []
    _fingerprint_walk(obj, chunks.append)
    return b"".join(chunks)


class RelExpr:
    """Base class of relational expressions."""

    def inputs(self) -> tuple["RelExpr", ...]:
        return ()

    def fingerprint(self) -> str:
        """A structural fingerprint of this expression tree.

        Equal expressions (per ``__eq__``) have equal fingerprints; the
        digest is the plan-cache key, so it must not depend on object
        identity or construction order of unordered parts.

        Memoized per instance: expressions are value objects (hashable,
        compared structurally, never mutated after construction), and
        the warm query path fingerprints the same tree on every call —
        the walk would otherwise dominate the enabled-observability
        overhead budget.
        """
        cached = getattr(self, "_fingerprint_memo", None)
        if cached is None:
            hasher = hashlib.blake2b(digest_size=16)
            _fingerprint_walk(self, hasher.update)
            cached = self._fingerprint_memo = hasher.hexdigest()
        return cached

    def relations(self) -> set[str]:
        """Names of base relations/entities this expression reads —
        used by access control, provenance and the optimizer."""
        found: set[str] = set()
        stack: list[RelExpr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                found.add(node.relation)
            elif isinstance(node, EntityScan):
                found.add(node.entity)
            stack.extend(node.inputs())
        return found

    def depth(self) -> int:
        if not self.inputs():
            return 1
        return 1 + max(child.depth() for child in self.inputs())

    def size(self) -> int:
        """Number of operator nodes (benchmarks report view sizes)."""
        return 1 + sum(child.size() for child in self.inputs())

    def __repr__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError


class Scan(RelExpr):
    """Read a base relation verbatim."""

    def __init__(self, relation: str):
        self.relation = relation

    def _key(self):
        return (self.relation,)


class EntityScan(RelExpr):
    """Read the (polymorphic) extent of an entity with inheritance.

    ``only=True`` restricts to direct instances — ``IS OF ONLY`` applied
    at the scan.  Requires a schema-bound instance at evaluation time.
    """

    def __init__(self, entity: str, only: bool = False):
        self.entity = entity
        self.only = only

    def _key(self):
        return (self.entity, self.only)


class Values(RelExpr):
    """A literal relation (used by tests and the batch loader)."""

    def __init__(self, rows: Sequence[Row]):
        self.rows = tuple(dict(r) for r in rows)

    def _key(self):
        return tuple(
            frozenset((k, type(v).__name__, v) for k, v in r.items())
            for r in self.rows
        )


class Select(RelExpr):
    """σ — keep rows satisfying ``predicate``."""

    def __init__(self, input: RelExpr, predicate: Predicate):
        self.input = input
        self.predicate = predicate

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input, self.predicate)


class Project(RelExpr):
    """π — compute output columns ``outputs`` as (name, scalar) pairs.

    Bag semantics (no implicit duplicate elimination); wrap in
    :class:`Distinct` for set semantics.
    """

    def __init__(self, input: RelExpr, outputs: Sequence[tuple[str, Scalar]]):
        names = [name for name, _ in outputs]
        if len(names) != len(set(names)):
            raise EvaluationError(f"duplicate output columns: {names}")
        self.input = input
        self.outputs = tuple(outputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outputs)

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input, self.outputs)


class Extend(RelExpr):
    """Add a computed column, keeping existing ones."""

    def __init__(self, input: RelExpr, name: str, scalar: Scalar):
        self.input = input
        self.name = name
        self.scalar = scalar

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input, self.name, self.scalar)


class Join(RelExpr):
    """⋈ — inner or left-outer join on an arbitrary predicate.

    Column collisions: the right side's colliding columns are dropped
    unless ``right_prefix`` is given, in which case they are exposed as
    ``prefix.column``.  Equality joins should be built with
    :func:`eq_join`, which the optimizer and SQL emitter understand.
    """

    def __init__(
        self,
        left: RelExpr,
        right: RelExpr,
        predicate: Predicate = TRUE,
        kind: str = "inner",
        right_prefix: Optional[str] = None,
    ):
        if kind not in ("inner", "left"):
            raise EvaluationError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.kind = kind
        self.right_prefix = right_prefix

    def inputs(self):
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right, self.predicate, self.kind, self.right_prefix)


class UnionAll(RelExpr):
    """∪ (bag union). Branch schemas should agree; missing columns are
    filled with ``None`` so the Figure 3-style padded unions work."""

    def __init__(self, left: RelExpr, right: RelExpr):
        self.left = left
        self.right = right

    def inputs(self):
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)


class Difference(RelExpr):
    """Set difference (left rows not present in right)."""

    def __init__(self, left: RelExpr, right: RelExpr):
        self.left = left
        self.right = right

    def inputs(self):
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)


class Distinct(RelExpr):
    """Duplicate elimination."""

    def __init__(self, input: RelExpr):
        self.input = input

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input,)


class Rename(RelExpr):
    """ρ — rename columns per ``mapping`` (old → new)."""

    def __init__(self, input: RelExpr, mapping: dict[str, str]):
        self.input = input
        self.mapping = dict(mapping)

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input, frozenset(self.mapping.items()))


class Aggregate(RelExpr):
    """γ — group by ``group_by`` columns and compute aggregates.

    ``aggregations`` are (output_name, function, scalar) with function
    one of ``count``, ``sum``, ``min``, ``max``, ``avg``; for ``count``
    the scalar may be ``None`` (count rows).
    """

    FUNCTIONS = ("count", "sum", "min", "max", "avg")

    def __init__(
        self,
        input: RelExpr,
        group_by: Sequence[str],
        aggregations: Sequence[tuple[str, str, Optional[Scalar]]],
    ):
        for _, func, _ in aggregations:
            if func not in self.FUNCTIONS:
                raise EvaluationError(f"unknown aggregate {func!r}")
        names = list(group_by) + [name for name, _, _ in aggregations]
        if len(names) != len(set(names)):
            raise EvaluationError(f"duplicate output columns: {names}")
        self.input = input
        self.group_by = tuple(group_by)
        self.aggregations = tuple(aggregations)

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input, self.group_by, self.aggregations)


class Sort(RelExpr):
    """Order rows by ``keys`` (column names; descending with ``-name``)."""

    def __init__(self, input: RelExpr, keys: Sequence[str]):
        self.input = input
        self.keys = tuple(keys)

    def inputs(self):
        return (self.input,)

    def _key(self):
        return (self.input, self.keys)


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def project_names(input: RelExpr, names: Iterable[str]) -> Project:
    """πnames — plain projection onto existing columns."""
    return Project(input, [(n, Col(n)) for n in names])


def eq_join(
    left: RelExpr,
    right: RelExpr,
    pairs: Sequence[tuple[str, str]],
    kind: str = "inner",
    right_prefix: Optional[str] = None,
) -> Join:
    """Equality join on (left_column, right_column) pairs.

    When a right column must be compared against a left column of the
    same name, the predicate references the prefixed name if a prefix
    is given; otherwise the evaluator compares pre-merge values.
    """
    predicate = conjunction(
        [
            _JoinEq(left_col, right_col)
            for left_col, right_col in pairs
        ]
    )
    return Join(left, right, predicate, kind=kind, right_prefix=right_prefix)


class _JoinEq(Predicate):
    """Equality between a left-side and a right-side column, evaluated
    against the *pair* of rows during the join (so same-named columns
    on both sides compare correctly even without prefixes)."""

    def __init__(self, left_col: str, right_col: str):
        self.left_col = left_col
        self.right_col = right_col

    def eval(self, row: Row, ctx) -> bool:
        # The evaluator passes a combined row with side-tagged copies.
        lhs = row.get(f"$left.{self.left_col}", row.get(self.left_col))
        rhs = row.get(f"$right.{self.right_col}", row.get(self.right_col))
        if lhs is None or rhs is None:
            return False
        return lhs == rhs

    def columns(self) -> set[str]:
        return {self.left_col, self.right_col}

    def _key(self):
        return (self.left_col, self.right_col)
