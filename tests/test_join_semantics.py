"""The interpreter's join against the join it replaced.

The interpreter's ``_join`` hashes on a predicate's top-level
``_JoinEq`` pairs whenever there are any and tests only the residual
on each candidate pair; the residual reads one row holding the left
row's cells over the right's, plus the ``$left.``/``$right.`` copies of
both when it reads them.  The join it replaced hashed only on a pure
``_JoinEq`` conjunction and otherwise tested the whole predicate on a
combined row with both copies, pair by pair.  That join is kept below
as the oracle, verbatim except that it recognizes ``_JoinEq`` pairs
only (the algebra has no other join equality).

On seeded random inputs, ``apply_operator`` and ``evaluate`` return the
oracle's rows list for list, and raise when it raises.  The inputs
cover inner and left joins, with and without ``right_prefix``; TRUE,
theta, pure equi-pair and equi-pair-plus-residual predicates (the
pairs first, as ``eq_join`` and the optimizer write them), residuals
with an ``Or`` over a ``_JoinEq`` and with ``$left.``/``$right.``
reads; the values 0, 1, True, 1.0, "1", None and labeled nulls; ragged
rows and empty sides.

Three behaviours differ from the oracle by design, each pinned by its
own test instead:

* an unhashable key cell raises, as it did in a pure equi-join;
* a row that lacks a pair's key column never matches on it, as in a
  pure equi-join — the oracle's pair-by-pair test read a same-named
  cell of the other row instead, so random ragged rows keep the
  shared column when a pair keys on it;
* a residual written before a pair is tested only on pairs that
  satisfy every equi-pair, so it cannot raise on the others.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.algebra import (
    And,
    Col,
    Comparison,
    IsNull,
    Join,
    Lit,
    Or,
    TRUE,
    Values,
    evaluate,
)
from repro.algebra.compiler import join_key_value
from repro.algebra.evaluator import EvalContext, apply_operator
from repro.algebra.expressions import _JoinEq
from repro.errors import EvaluationError
from repro.instances import Instance, LabeledNull


# ----------------------------------------------------------------------
# the oracle: the interpreter's join before hashing on partial pairs
# ----------------------------------------------------------------------
def _oracle_pairs(predicate) -> Optional[list[tuple[str, str]]]:
    if predicate is TRUE:
        return []
    if isinstance(predicate, _JoinEq):
        return [(predicate.left_col, predicate.right_col)]
    if isinstance(predicate, And):
        pairs = []
        for operand in predicate.operands:
            if not isinstance(operand, _JoinEq):
                return None
            pairs.append((operand.left_col, operand.right_col))
        return pairs
    return None


def oracle_join(expr: Join, left_rows, right_rows, ctx) -> list[dict]:
    out = []
    right_columns: set[str] = set()
    for row in right_rows:
        right_columns.update(row)

    pairs = _oracle_pairs(expr.predicate)
    index = None
    if pairs:
        index = {}
        for r_row in right_rows:
            key = tuple(join_key_value(r_row.get(rc)) for _, rc in pairs)
            index.setdefault(key, []).append(r_row)

    for l_row in left_rows:
        if index is not None:
            key = tuple(join_key_value(l_row.get(lc)) for lc, _ in pairs)
            candidates = index.get(key, []) if None not in key else []
        else:
            candidates = right_rows
        matched = False
        for r_row in candidates:
            if index is None and not _join_predicate_holds(
                expr, l_row, r_row, ctx
            ):
                continue
            matched = True
            out.append(_merge(l_row, r_row, expr.right_prefix))
        if not matched and expr.kind == "left":
            padding = {c: None for c in right_columns if c not in l_row}
            if expr.right_prefix:
                padding = {
                    f"{expr.right_prefix}.{c}": None for c in right_columns
                }
            merged = dict(l_row)
            merged.update(padding)
            out.append(merged)
    return out


def _join_predicate_holds(expr: Join, l_row, r_row, ctx) -> bool:
    combined = dict(l_row)
    combined.update(
        {k: v for k, v in r_row.items() if k not in combined}
    )
    for key, value in l_row.items():
        combined[f"$left.{key}"] = value
    for key, value in r_row.items():
        combined[f"$right.{key}"] = value
    return expr.predicate.eval(combined, ctx)


def _merge(l_row, r_row, right_prefix):
    merged = dict(l_row)
    for key, value in r_row.items():
        if key in merged:
            if right_prefix:
                merged[f"{right_prefix}.{key}"] = value
        else:
            merged[key] = value
    return merged


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------
LEFT = ("a", "b", "x")
RIGHT = ("a", "c", "y")
SHARED = set(LEFT) & set(RIGHT)
POOL = (0, 1, True, 1.0, "1", None, LabeledNull(1), LabeledNull(2))


def _theta(rng):
    return Comparison(
        rng.choice(["<", "<=", "=", "!="]),
        Col(rng.choice(LEFT)), Col(rng.choice(RIGHT)),
    )


def _residual(rng):
    roll = rng.random()
    if roll < 0.3:
        return _theta(rng)
    if roll < 0.5:
        return Or(_JoinEq(rng.choice(LEFT), rng.choice(RIGHT)), _theta(rng))
    if roll < 0.7:
        side = rng.choice(["$left.", "$right."])
        column = rng.choice(LEFT if side == "$left." else RIGHT)
        return Comparison("!=", Col(side + column), Lit(rng.choice(POOL)))
    if roll < 0.85:
        return IsNull(Col(rng.choice(LEFT + RIGHT)))
    return And(_theta(rng), IsNull(Col(rng.choice(RIGHT)), negated=True))


def _predicate(rng):
    """``(predicate, key columns)``: pairs always come first."""
    shape = rng.choice(["true", "theta", "pairs", "pairs+residual"])
    if shape == "true":
        return TRUE, set()
    if shape == "theta":
        return _residual(rng), set()
    pairs = [
        _JoinEq(rng.choice(LEFT), rng.choice(RIGHT))
        for _ in range(rng.randint(1, 2))
    ]
    keys = {p.left_col for p in pairs} | {p.right_col for p in pairs}
    operands = pairs + ([_residual(rng)] if shape == "pairs+residual" else [])
    return (operands[0] if len(operands) == 1 else And(*operands)), keys


def _rows(rng, columns, ragged, keep):
    rows = []
    for _ in range(rng.choice([0, 1, 2, 3, 5, 7])):
        row = {
            c: rng.choice(POOL)
            for c in columns
            if not ragged or c in keep or rng.random() < 0.75
        }
        rows.append(row)
    return rows


def _case(seed):
    rng = random.Random(seed)
    predicate, keys = _predicate(rng)
    ragged = rng.random() < 0.5
    keep = keys & SHARED
    left = _rows(rng, LEFT, ragged, keep)
    right = _rows(rng, RIGHT, ragged, keep)
    kind = rng.choice(["inner", "left"])
    prefix = rng.choice([None, "r"])
    return Join(Values(left), Values(right), predicate, kind, prefix)


def _outcome(run):
    try:
        return run()
    except (EvaluationError, TypeError) as exc:
        return ("raises", type(exc).__name__)


def _inputs(expr):
    return [dict(r) for r in expr.left.rows], [dict(r) for r in expr.right.rows]


@pytest.mark.parametrize("block", range(10))
def test_interpreter_join_matches_the_oracle(block):
    ctx = EvalContext()
    for seed in range(block * 100, block * 100 + 100):
        expr = _case(seed)
        expected = _outcome(lambda: oracle_join(expr, *_inputs(expr), ctx))
        got = _outcome(lambda: apply_operator(expr, list(_inputs(expr)), ctx))
        assert got == expected, (seed, expr)


@pytest.mark.parametrize("block", range(5))
def test_evaluate_matches_the_oracle(block):
    ctx = EvalContext()
    for seed in range(block * 100, block * 100 + 100):
        expr = _case(seed)
        expected = _outcome(lambda: oracle_join(expr, *_inputs(expr), ctx))
        got = _outcome(lambda: evaluate(expr, Instance()))
        assert got == expected, (seed, expr)


def test_the_cases_cover_every_shape():
    """The seeds above reach errors, empty sides, ragged rows, prefixes,
    left joins and each predicate shape."""
    ctx = EvalContext()
    seen = set()
    for seed in range(1000):
        expr = _case(seed)
        left, right = _inputs(expr)
        seen.add(("kind", expr.kind))
        seen.add(("prefix", expr.right_prefix))
        if not left or not right:
            seen.add("empty side")
        if any(len(r) < 3 for r in left + right):
            seen.add("ragged")
        outcome = _outcome(lambda: oracle_join(expr, left, right, ctx))
        seen.add("raises" if isinstance(outcome, tuple) else "rows"
                 if outcome else "no rows")
        predicate = expr.predicate
        operands = predicate.operands if isinstance(predicate, And) else (
            predicate,)
        pairs = [o for o in operands if isinstance(o, _JoinEq)]
        if predicate is TRUE:
            seen.add("true")
        elif not pairs:
            seen.add("theta")
        elif len(pairs) == len(operands):
            seen.add("pairs")
        else:
            seen.add("pairs+residual")
    assert seen >= {
        ("kind", "inner"), ("kind", "left"), ("prefix", None),
        ("prefix", "r"), "empty side", "ragged", "raises", "rows",
        "no rows", "true", "theta", "pairs", "pairs+residual",
    }


# ----------------------------------------------------------------------
# the behaviours that differ from the oracle by design
# ----------------------------------------------------------------------
def _join(left, right, predicate, kind="inner"):
    return apply_operator(
        Join(Values(left), Values(right), predicate, kind),
        [left, right], EvalContext(),
    )


def test_unhashable_key_cell_raises():
    residual = Comparison("<", Col("x"), Col("y"))
    for predicate in (_JoinEq("a", "c"), And(_JoinEq("a", "c"), residual)):
        with pytest.raises(TypeError):
            _join([{"a": [1], "x": 0}], [{"c": [1], "y": 1}], predicate)


def test_a_missing_key_cell_never_matches():
    """The left row lacks ``a``; the right row has ``a``.  A pure
    equi-join always read the left row's own (absent) cell, and now a
    join with a residual does too."""
    left = [{"x": 0}]
    right = [{"a": 1, "c": 1, "y": 5}]
    residual = Comparison("<", Col("x"), Col("y"))
    assert _join(left, right, _JoinEq("a", "c")) == []
    assert _join(left, right, And(_JoinEq("a", "c"), residual)) == []
    # The oracle compared the right row's ``a`` with its ``c``.
    expr = Join(Values(left), Values(right),
                And(_JoinEq("a", "c"), residual))
    assert oracle_join(expr, left, right, EvalContext()) == [
        {"x": 0, "a": 1, "c": 1, "y": 5}
    ]


def test_a_residual_is_tested_only_on_matching_pairs():
    """``z`` exists on no row, so the residual raises wherever it is
    tested; no pair matches on ``a``, so it is never tested."""
    left = [{"a": 1}]
    right = [{"c": 2}]
    predicate = And(Comparison("<", Col("z"), Lit(0)), _JoinEq("a", "c"))
    assert _join(left, right, predicate) == []
    expr = Join(Values(left), Values(right), predicate)
    with pytest.raises(EvaluationError):
        oracle_join(expr, left, right, EvalContext())


def test_side_copies_are_built_only_for_a_residual_that_reads_them():
    """A residual reading ``$left.a`` sees the left row's ``a`` even
    where the right row has an ``a`` too; a plain ``a`` reads the left
    cell over the right one."""
    left = [{"a": 1, "x": 1}]
    right = [{"a": 2, "c": 1}]
    tagged = And(_JoinEq("x", "c"),
                 Comparison("=", Col("$right.a"), Lit(2)))
    plain = And(_JoinEq("x", "c"), Comparison("=", Col("a"), Lit(1)))
    nested = And(_JoinEq("x", "c"), Or(_JoinEq("a", "a"), TRUE))
    for predicate in (tagged, plain, nested):
        assert _join(left, right, predicate) == [{"a": 1, "x": 1, "c": 1}]
