"""Constant folding and boolean simplification.

Used by the query compiler before pruning so that, e.g., sub-tree
elimination after a scan set empties out can fold the remaining plan
(§2.1 "elimination of entire sub-trees").
"""

from __future__ import annotations

from typing import Any

from ..errors import ReproError
from ..types import Schema
from . import ast

TRUE = ast.Literal(True)
FALSE = ast.Literal(False)


def simplify(expr: ast.Expr, schema: Schema) -> ast.Expr:
    """Fold constants and flatten/prune boolean structure.

    The result is semantically equivalent to the input under SQL
    three-valued logic.
    """
    expr = expr.with_children(
        [simplify(c, schema) for c in expr.children()])
    if isinstance(expr, ast.And):
        return _simplify_and(expr)
    if isinstance(expr, ast.Or):
        return _simplify_or(expr)
    if isinstance(expr, ast.Not):
        return _simplify_not(expr)
    if isinstance(expr, ast.If):
        return _simplify_if(expr)
    return _fold_if_constant(expr, schema)


def _is_literal(expr: ast.Expr, value: Any) -> bool:
    return isinstance(expr, ast.Literal) and expr.value is value


def _simplify_and(expr: ast.And) -> ast.Expr:
    children: list[ast.Expr] = []
    for child in expr.children():
        if isinstance(child, ast.And):
            children.extend(child.children())  # flatten nested ANDs
        elif _is_literal(child, True):
            continue
        elif _is_literal(child, False):
            return FALSE
        else:
            children.append(child)
    if not children:
        return TRUE
    if len(children) == 1:
        return children[0]
    return ast.And(children)


def _simplify_or(expr: ast.Or) -> ast.Expr:
    children: list[ast.Expr] = []
    for child in expr.children():
        if isinstance(child, ast.Or):
            children.extend(child.children())
        elif _is_literal(child, False):
            continue
        elif _is_literal(child, True):
            return TRUE
        else:
            children.append(child)
    if not children:
        return FALSE
    if len(children) == 1:
        return children[0]
    return ast.Or(children)


def _simplify_not(expr: ast.Not) -> ast.Expr:
    child = expr.child
    if _is_literal(child, True):
        return FALSE
    if _is_literal(child, False):
        return TRUE
    if isinstance(child, ast.Not):
        return child.child
    if isinstance(child, ast.IsNull):
        return ast.IsNull(child.child, negated=not child.negated)
    return expr


def _simplify_if(expr: ast.If) -> ast.Expr:
    if _is_literal(expr.cond, True):
        return expr.then
    # FALSE and NULL conditions both select the else branch.
    if isinstance(expr.cond, ast.Literal) and expr.cond.value is not True:
        return expr.otherwise
    return expr


def _fold_if_constant(expr: ast.Expr, schema: Schema) -> ast.Expr:
    """Evaluate literal-only subtrees down to a literal."""
    if isinstance(expr, (ast.Literal, ast.ColumnRef)):
        return expr
    if expr.column_refs():
        return expr
    from .eval import bind  # deferred: avoid import cycle

    try:
        dtype = expr.dtype(schema)
        result = bind(expr, schema)({}, 1)  # no columns, one row
    except ReproError:
        return expr
    return ast.Literal(result.value_at(0), dtype)
