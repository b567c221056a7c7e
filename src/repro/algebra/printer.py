"""Pretty-printing of algebra expressions.

Two renderings: a compact Greek-letter algebra notation (``to_text``,
used in logs, reprs and the figure reproductions, matching the paper's
Figure 4 notation like ``π_{EID,City}(Empl ⋈ Addr)``) and, in
:mod:`repro.algebra.sql`, a SQL rendering for the Figure 3 view.
"""

from __future__ import annotations

from repro.algebra import expressions as E
from repro.algebra import scalars as S


def scalar_text(scalar: S.Scalar) -> str:
    """Render a scalar expression as compact text."""
    if isinstance(scalar, S.Col):
        return scalar.name
    if isinstance(scalar, S.Lit):
        return repr(scalar.value)
    if isinstance(scalar, S.Param):
        return f"${scalar.index}"
    if isinstance(scalar, S._Bool):
        return "TRUE" if scalar.value else "FALSE"
    if isinstance(scalar, S.Func):
        args = ", ".join(scalar_text(a) for a in scalar.args)
        return f"{scalar.name}({args})"
    if isinstance(scalar, S.Arith):
        return (
            f"({scalar_text(scalar.left)} {scalar.op} "
            f"{scalar_text(scalar.right)})"
        )
    if isinstance(scalar, S.Comparison):
        return (
            f"{scalar_text(scalar.left)} {scalar.op} "
            f"{scalar_text(scalar.right)}"
        )
    if isinstance(scalar, S.And):
        return "(" + " AND ".join(scalar_text(p) for p in scalar.operands) + ")"
    if isinstance(scalar, S.Or):
        return "(" + " OR ".join(scalar_text(p) for p in scalar.operands) + ")"
    if isinstance(scalar, S.Not):
        return f"NOT({scalar_text(scalar.operand)})"
    if isinstance(scalar, S.IsNull):
        verb = "IS NOT NULL" if scalar.negated else "IS NULL"
        return f"{scalar_text(scalar.operand)} {verb}"
    if isinstance(scalar, S.IsOf):
        only = "ONLY " if scalar.only else ""
        return f"IS OF ({only}{scalar.entity})"
    if isinstance(scalar, S.In):
        values = ", ".join(repr(v) for v in sorted(scalar.values, key=repr))
        return f"{scalar_text(scalar.operand)} IN ({values})"
    if isinstance(scalar, S.Case):
        parts = [
            f"WHEN {scalar_text(p)} THEN {scalar_text(v)}"
            for p, v in scalar.whens
        ]
        return "CASE " + " ".join(parts) + f" ELSE {scalar_text(scalar.default)} END"
    if isinstance(scalar, E._JoinEq):
        return f"{scalar.left_col} = {scalar.right_col}"
    return f"<{type(scalar).__name__}>"


def to_text(expr: E.RelExpr) -> str:
    """Render a relational expression in algebra notation."""
    if isinstance(expr, E.Scan):
        return expr.relation
    if isinstance(expr, E.EntityScan):
        suffix = "!" if expr.only else ""
        return f"{expr.entity}{suffix}"
    if isinstance(expr, E.Values):
        return f"VALUES[{len(expr.rows)}]"
    if isinstance(expr, E.Select):
        return f"σ[{scalar_text(expr.predicate)}]({to_text(expr.input)})"
    if isinstance(expr, E.Project):
        cols = ", ".join(
            name if isinstance(s, S.Col) and s.name == name
            else f"{name}:={scalar_text(s)}"
            for name, s in expr.outputs
        )
        return f"π[{cols}]({to_text(expr.input)})"
    if isinstance(expr, E.Extend):
        return (
            f"ε[{expr.name}:={scalar_text(expr.scalar)}]({to_text(expr.input)})"
        )
    if isinstance(expr, E.Join):
        symbol = "⟕" if expr.kind == "left" else "⋈"
        condition = scalar_text(expr.predicate)
        return (
            f"({to_text(expr.left)} {symbol}[{condition}] {to_text(expr.right)})"
        )
    if isinstance(expr, E.UnionAll):
        return f"({to_text(expr.left)} ∪ {to_text(expr.right)})"
    if isinstance(expr, E.Difference):
        return f"({to_text(expr.left)} − {to_text(expr.right)})"
    if isinstance(expr, E.Distinct):
        return f"δ({to_text(expr.input)})"
    if isinstance(expr, E.Rename):
        pairs = ", ".join(f"{o}→{n}" for o, n in sorted(expr.mapping.items()))
        return f"ρ[{pairs}]({to_text(expr.input)})"
    if isinstance(expr, E.Aggregate):
        groups = ", ".join(expr.group_by)
        aggs = ", ".join(
            f"{name}:={func}({scalar_text(s) if s is not None else '*'})"
            for name, func, s in expr.aggregations
        )
        return f"γ[{groups}; {aggs}]({to_text(expr.input)})"
    if isinstance(expr, E.Sort):
        return f"τ[{', '.join(expr.keys)}]({to_text(expr.input)})"
    return f"<{type(expr).__name__}>"


def node_label(expr: E.RelExpr, max_width: int = 48) -> str:
    """A one-line label for a single plan node (no recursion into
    inputs) — the operator head of :func:`to_text`, truncated.  Used
    by the compiler's plan registry and the EXPLAIN renderings."""
    if isinstance(expr, E.Scan):
        label = f"Scan({expr.relation})"
    elif isinstance(expr, E.EntityScan):
        only = ", only" if expr.only else ""
        label = f"EntityScan({expr.entity}{only})"
    elif isinstance(expr, E.Values):
        label = f"Values[{len(expr.rows)}]"
    elif isinstance(expr, E.Select):
        label = f"σ[{scalar_text(expr.predicate)}]"
    elif isinstance(expr, E.Project):
        cols = ", ".join(
            name if isinstance(s, S.Col) and s.name == name
            else f"{name}:={scalar_text(s)}"
            for name, s in expr.outputs
        )
        label = f"π[{cols}]"
    elif isinstance(expr, E.Extend):
        label = f"ε[{expr.name}:={scalar_text(expr.scalar)}]"
    elif isinstance(expr, E.Join):
        symbol = "⟕" if expr.kind == "left" else "⋈"
        label = f"{symbol}[{scalar_text(expr.predicate)}]"
    elif isinstance(expr, E.UnionAll):
        label = "∪"
    elif isinstance(expr, E.Difference):
        label = "−"
    elif isinstance(expr, E.Distinct):
        label = "δ"
    elif isinstance(expr, E.Rename):
        pairs = ", ".join(f"{o}→{n}" for o, n in sorted(expr.mapping.items()))
        label = f"ρ[{pairs}]"
    elif isinstance(expr, E.Aggregate):
        groups = ", ".join(expr.group_by)
        aggs = ", ".join(
            f"{name}:={func}({scalar_text(s) if s is not None else '*'})"
            for name, func, s in expr.aggregations
        )
        label = f"γ[{groups}; {aggs}]"
    elif isinstance(expr, E.Sort):
        label = f"τ[{', '.join(expr.keys)}]"
    else:
        label = f"<{type(expr).__name__}>"
    if len(label) > max_width:
        label = label[: max_width - 1] + "…"
    return label


def render_plan(
    nodes,
    root_id: int,
    profile=None,
    estimates=None,
    divergence_factor=None,
) -> str:
    """Render a compiled plan's node tree (EXPLAIN), optionally
    annotated with a :class:`~repro.algebra.compiler.PlanProfile`
    (EXPLAIN ANALYZE) and/or per-node cardinality ``estimates``
    (``est_rows`` indexed by node id, from
    :func:`repro.algebra.estimate.annotate_plan`).  When both are
    given, each node also shows its estimate↔actual divergence ratio,
    with ``⚠`` marking nodes at or beyond ``divergence_factor``.

    ``nodes`` is any sequence of objects with ``node_id`` / ``label`` /
    ``strategy`` / ``children`` / ``shared`` attributes — duck-typed so
    this module never imports the compiler (the compiler imports us).
    Shared (CSE) subtrees are expanded once; later references render as
    ``↻ see #n``."""
    self_ms = profile.self_time_ms() if profile is not None else None
    lines: list[str] = []
    expanded: set[int] = set()

    def emit(node_id: int, prefix: str, tail: str) -> None:
        node = nodes[node_id]
        connector = prefix + tail
        if node_id in expanded:
            lines.append(f"{connector}↻ see #{node_id} [{node.label}]")
            return
        expanded.add(node_id)
        mark = " ⊛" if node.shared else ""
        head = f"{connector}#{node_id} {node.label}  ({node.strategy}){mark}"
        est = estimates[node_id] if estimates is not None else None
        if est is not None:
            head += f"  est={est:.0f}"
        if profile is not None:
            actual = profile.rows_out(node_id)
            head += (
                f"  rows={actual}"
                f" calls={profile.calls(node_id)}"
                f" time={profile.time_ms(node_id):.2f}ms"
                f" self={self_ms[node_id]:.2f}ms"
            )
            if est is not None:
                # Same smoothing as estimate.divergence_ratio (not
                # imported here — the compiler imports this module).
                over = (est + 1.0) / (actual + 1.0)
                ratio = max(over, 1.0 / over)
                head += f" div=×{ratio:.1f}"
                if divergence_factor is not None and ratio >= divergence_factor:
                    head += " ⚠"
            hits = profile.memo_hits(node_id)
            if hits:
                head += f" memo_hits={hits}"
        lines.append(head)
        if tail == "":
            child_prefix = prefix
        elif tail == "└─ ":
            child_prefix = prefix + "   "
        else:
            child_prefix = prefix + "│  "
        for position, child in enumerate(node.children):
            last = position == len(node.children) - 1
            emit(child, child_prefix, "└─ " if last else "├─ ")

    emit(root_id, "", "")
    return "\n".join(lines)
