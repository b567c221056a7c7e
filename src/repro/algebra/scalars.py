"""Scalar expressions and predicates.

Evaluated per row against an :class:`~repro.algebra.evaluator.EvalContext`.
Null semantics follow SQL where it matters for the paper's scenarios:

* a comparison involving ``None`` is *unknown* and filters the row out
  (treated as false in selections and join conditions);
* two **labeled nulls** compare equal iff they carry the same label —
  this is what makes joins over universal instances (chase results)
  behave correctly;
* ``IS NULL`` is true for both ``None`` and labeled nulls.

The Entity SQL ``IS OF`` / ``IS OF ONLY`` type test of the paper's
Figure 2 is :class:`IsOf`; it consults the schema's is-a hierarchy.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Sequence, TYPE_CHECKING

from repro.errors import EvaluationError
from repro.instances.database import TYPE_FIELD, Row
from repro.instances.labeled_null import LabeledNull

if TYPE_CHECKING:
    from repro.algebra.evaluator import EvalContext


class Scalar:
    """Base class of all scalar expressions."""

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Column names this expression reads."""
        raise NotImplementedError

    def __repr__(self) -> str:
        from repro.algebra.printer import scalar_text

        return scalar_text(self)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError


class Col(Scalar):
    """Reference to a column of the current row."""

    def __init__(self, name: str):
        self.name = name

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        if self.name not in row:
            raise EvaluationError(f"row has no column {self.name!r}: {sorted(row)}")
        return row[self.name]

    def columns(self) -> set[str]:
        return {self.name}

    def _key(self):
        return self.name


class Lit(Scalar):
    """A literal constant (including ``None``)."""

    def __init__(self, value: object):
        self.value = value

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        return self.value

    def columns(self) -> set[str]:
        return set()

    def _key(self):
        # Typed: 1 == True == 1.0, but a literal yields its own type.
        return (type(self.value).__name__, self.value)


class Param(Scalar):
    """A parameter slot: a literal hoisted out of a ``Col = literal``
    test (:func:`repro.algebra.plan_cache.parameterize`), read from the
    context's ``params`` at execution."""

    def __init__(self, index: int):
        self.index = index

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        return ctx.params[self.index]

    def columns(self) -> set[str]:
        return set()

    def _key(self):
        return (self.index,)


def bind_params(scalar: Scalar, params: Sequence[object]) -> Scalar:
    """``scalar`` with each :class:`Param` slot replaced by its value.
    Slots sit only in comparisons under ``And``/``Or``, where the
    parameterizer puts them."""
    if not params:
        return scalar
    if isinstance(scalar, Param):
        return Lit(params[scalar.index])
    if isinstance(scalar, Comparison):
        return Comparison(
            scalar.op,
            bind_params(scalar.left, params),
            bind_params(scalar.right, params),
        )
    if isinstance(scalar, (And, Or)):
        return type(scalar)(*(bind_params(p, params) for p in scalar.operands))
    return scalar


class Func(Scalar):
    """A named scalar function applied to argument expressions.

    ``fn`` is the Python implementation; the name is kept for printing
    and SQL generation.  Nulls propagate: if any argument is null the
    result is ``None``.
    """

    def __init__(
        self, name: str, args: Sequence[Scalar], fn: Callable[..., object]
    ):
        self.name = name
        self.args = tuple(args)
        self.fn = fn

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        values = [a.eval(row, ctx) for a in self.args]
        if any(v is None or isinstance(v, LabeledNull) for v in values):
            return None
        return self.fn(*values)

    def columns(self) -> set[str]:
        return set().union(*(a.columns() for a in self.args)) if self.args else set()

    def _key(self):
        return (self.name, self.args)


class Arith(Scalar):
    """Binary arithmetic (``+ - * /``); nulls propagate to ``None``."""

    _OPS = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "/": operator.truediv,
    }

    def __init__(self, op: str, left: Scalar, right: Scalar):
        if op not in self._OPS:
            raise EvaluationError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        lhs = self.left.eval(row, ctx)
        rhs = self.right.eval(row, ctx)
        if any(v is None or isinstance(v, LabeledNull) for v in (lhs, rhs)):
            return None
        return self._OPS[self.op](lhs, rhs)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def _key(self):
        return (self.op, self.left, self.right)


class Predicate(Scalar):
    """Scalar expressions that evaluate to a truth value."""

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        raise NotImplementedError


class _Bool(Predicate):
    def __init__(self, value: bool):
        self.value = value

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        return self.value

    def columns(self) -> set[str]:
        return set()

    def _key(self):
        return (self.value,)


TRUE = _Bool(True)
FALSE = _Bool(False)


class Comparison(Predicate):
    """``left op right`` with SQL-ish null semantics (unknown → False)."""

    _OPS = {
        "=": operator.eq,
        "!=": operator.ne,
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
    }

    def __init__(self, op: str, left: Scalar, right: Scalar):
        if op not in self._OPS:
            raise EvaluationError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        lhs = self.left.eval(row, ctx)
        rhs = self.right.eval(row, ctx)
        left_labeled = isinstance(lhs, LabeledNull)
        right_labeled = isinstance(rhs, LabeledNull)
        if left_labeled or right_labeled:
            # Labeled nulls are first-class values: equal iff same label.
            if self.op == "=":
                return lhs == rhs
            if self.op == "!=":
                return lhs != rhs
            return False
        if lhs is None or rhs is None:
            return False  # unknown
        try:
            return bool(self._OPS[self.op](lhs, rhs))
        except TypeError:
            # Cross-type comparison (e.g. 1 < "a") is unknown, not fatal.
            if self.op == "=":
                return False
            if self.op == "!=":
                return True
            return False

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def _key(self):
        return (self.op, self.left, self.right)


class And(Predicate):
    def __init__(self, *operands: Predicate):
        self.operands = tuple(operands)

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        return all(p.eval(row, ctx) for p in self.operands)

    def columns(self) -> set[str]:
        return set().union(*(p.columns() for p in self.operands)) if self.operands else set()

    def _key(self):
        return self.operands


class Or(Predicate):
    def __init__(self, *operands: Predicate):
        self.operands = tuple(operands)

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        return any(p.eval(row, ctx) for p in self.operands)

    def columns(self) -> set[str]:
        return set().union(*(p.columns() for p in self.operands)) if self.operands else set()

    def _key(self):
        return self.operands


class Not(Predicate):
    def __init__(self, operand: Predicate):
        self.operand = operand

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        return not self.operand.eval(row, ctx)

    def columns(self) -> set[str]:
        return self.operand.columns()

    def _key(self):
        return (self.operand,)


class IsNull(Predicate):
    """True for SQL ``NULL`` and for labeled nulls."""

    def __init__(self, operand: Scalar, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        value = self.operand.eval(row, ctx)
        null = value is None or isinstance(value, LabeledNull)
        return not null if self.negated else null

    def columns(self) -> set[str]:
        return self.operand.columns()

    def _key(self):
        return (self.operand, self.negated)


class IsOf(Predicate):
    """Entity SQL's ``x IS OF (Type)`` / ``IS OF (ONLY Type)``.

    Tests the row's ``$type`` column against the is-a hierarchy of the
    context schema.  With no schema in context, falls back to exact
    name equality.
    """

    def __init__(self, entity: str, only: bool = False):
        self.entity = entity
        self.only = only

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        actual = row.get(TYPE_FIELD)
        if actual is None:
            return False
        if self.only or ctx is None or ctx.schema is None:
            return actual == self.entity
        schema = ctx.schema
        if actual not in schema.entities or self.entity not in schema.entities:
            return actual == self.entity
        return schema.entity(str(actual)).is_subtype_of(schema.entity(self.entity))

    def columns(self) -> set[str]:
        return {TYPE_FIELD}

    def _key(self):
        return (self.entity, self.only)


class In(Predicate):
    """``operand IN (v1, v2, ...)`` over literal values."""

    def __init__(self, operand: Scalar, values: Iterable[object]):
        self.operand = operand
        self.values = frozenset(values)

    def eval(self, row: Row, ctx: "EvalContext") -> bool:
        value = self.operand.eval(row, ctx)
        if value is None:
            return False
        return value in self.values

    def columns(self) -> set[str]:
        return self.operand.columns()

    def _key(self):
        return (
            self.operand,
            frozenset((type(v).__name__, v) for v in self.values),
        )


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def col(name: str) -> Col:
    return Col(name)


def lit(value: object) -> Lit:
    return Lit(value)


def _wrap(value) -> Scalar:
    return value if isinstance(value, Scalar) else Lit(value)


def eq(left, right) -> Comparison:
    return Comparison("=", _wrap(left), _wrap(right))


def ne(left, right) -> Comparison:
    return Comparison("!=", _wrap(left), _wrap(right))


def lt(left, right) -> Comparison:
    return Comparison("<", _wrap(left), _wrap(right))


def le(left, right) -> Comparison:
    return Comparison("<=", _wrap(left), _wrap(right))


def gt(left, right) -> Comparison:
    return Comparison(">", _wrap(left), _wrap(right))


def ge(left, right) -> Comparison:
    return Comparison(">=", _wrap(left), _wrap(right))


def conjunction(predicates: Sequence[Predicate]) -> Predicate:
    """Flatten a sequence of predicates into one (TRUE when empty)."""
    flat: list[Predicate] = []
    for p in predicates:
        if isinstance(p, And):
            flat.extend(p.operands)
        elif p is TRUE:
            continue
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(*flat)


class Case(Scalar):
    """``CASE WHEN p1 THEN v1 WHEN p2 THEN v2 ... ELSE d END``.

    The discriminated union constructor of the paper's Figure 3 — which
    entity type each joined row represents — is expressed with this.
    """

    def __init__(
        self,
        whens: Sequence[tuple[Predicate, Scalar]],
        default: Optional[Scalar] = None,
    ):
        self.whens = tuple((p, _wrap(v)) for p, v in whens)
        self.default = default if default is not None else Lit(None)

    def eval(self, row: Row, ctx: "EvalContext") -> object:
        for predicate, value in self.whens:
            if predicate.eval(row, ctx):
                return value.eval(row, ctx)
        return self.default.eval(row, ctx)

    def columns(self) -> set[str]:
        used: set[str] = self.default.columns()
        for predicate, value in self.whens:
            used |= predicate.columns() | value.columns()
        return used

    def _key(self):
        return (self.whens, self.default)
