"""Compile-time schema pruning: bind against columns touched, not defined.

Wide production tables make binding cost scale with schema width even
when a query touches three columns (the sql-glider measurement this PR
reproduces: restricting compile-time work to referenced tables/columns
cut compile latency by orders of magnitude). This module computes the
set of column names a parsed statement can possibly reference and
builds a schema resolver that exposes only those columns to the
planner.

Correctness constraints (all verified by the differential tests):

* the pruned view preserves field order, so star-free projections and
  ambiguity checks behave identically to the full schema;
* every column referenced *anywhere* in the statement (select list,
  WHERE, GROUP BY, HAVING, ORDER BY, JOIN keys; qualified ``t.x``
  contributes the bare ``x``) stays visible in every table that defines
  it, so the planner's unknown/ambiguous-column errors are unchanged;
* ``SELECT *`` disables pruning (the star expansion needs the width);
* a table none of whose columns are referenced keeps its first column,
  matching the compiler's minimal-scan fallback.

The planner only ever sees the pruned view during template planning;
physical compilation keeps the catalog's full resolver, so execution
reads exactly the columns it would have read cold.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..expr import ast
from ..sql.parser import AggCall, SelectStmt
from ..types import Schema

__all__ = ["make_pruned_resolver", "referenced_columns"]

SchemaResolver = Callable[[str], Schema]


def _expr_columns(expr: ast.Expr | None, out: set[str]) -> None:
    if expr is None:
        return
    stack: list[ast.Expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, AggCall):
            if node.arg is not None:
                stack.append(node.arg)
            continue
        if isinstance(node, ast.ColumnRef):
            out.add(node.name.split(".")[-1])
        stack.extend(node.children())


def referenced_columns(stmt: SelectStmt) -> set[str] | None:
    """Bare column names the statement can reference; None for ``*``."""
    if stmt.star:
        return None
    cols: set[str] = set()
    for item in stmt.items:
        _expr_columns(item.expr, cols)
        _expr_columns(item.agg_arg, cols)
    _expr_columns(stmt.where, cols)
    _expr_columns(stmt.having, cols)
    for text in stmt.group_by:
        cols.add(text.split(".")[-1])
    for order in stmt.order_by:
        _expr_columns(order.expr, cols)
        _expr_columns(order.agg_arg, cols)
    for join in stmt.joins:
        cols.add(join.left_ref.split(".")[-1])
        cols.add(join.right_ref.split(".")[-1])
    return {c.lower() for c in cols}


def make_pruned_resolver(
        stmt: SelectStmt, base: SchemaResolver,
        tables: Sequence[str]) -> tuple[SchemaResolver, int]:
    """Schema resolver restricted to the statement's referenced columns.

    Returns ``(resolver, width)`` where ``width`` is the total number
    of columns the planner will consider across the statement's tables
    — the quantity the simulated binding cost scales with. Unknown
    tables fall through to ``base`` so error behavior matches cold
    compilation exactly.
    """
    cols = referenced_columns(stmt)
    schemas: dict[str, Schema] = {}
    for name in tables:
        schema = base(name)
        if cols is None:
            schemas[name.lower()] = schema
            continue
        keep = [f.name for f in schema.fields if f.name in cols]
        if not keep:
            # Nothing referenced (e.g. COUNT(*)): keep one column so
            # scan schemas stay non-empty, like the compiler's fallback.
            keep = [schema.fields[0].name]
        schemas[name.lower()] = (schema if len(keep) == len(schema)
                                 else schema.select(keep))
    width = sum(len(s) for s in schemas.values())

    def resolver(name: str) -> Schema:
        pruned = schemas.get(name.lower())
        return pruned if pruned is not None else base(name)

    return resolver, width
