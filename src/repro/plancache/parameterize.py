"""Query parameterization: plan-shape keys, bind tuples, and templates.

The fleet study (Figure 12, §7) shows query *shapes* repeat massively
while literals churn. This module separates the two:

* :func:`parameterize_text` works on the raw token stream — no parsing —
  and produces a canonical *shape key* plus the ordered tuple of literal
  *binds* that were masked out of it. Two spellings of the same literal
  (``1.0`` vs ``1.00``) collapse to one key; int-like and float-like
  numbers stay distinct (``x + 1`` and ``x + 1.0`` type differently).
* :func:`build_template` walks a parsed statement and replaces each
  literal with a typed :class:`Param` slot, yielding a reusable
  *template* whose logical plan can be cached.
* :func:`bind_plan` substitutes a fresh bind tuple back into a cached
  logical-plan template — O(plan) work that replaces the whole
  parse/bind/plan pipeline on a cache hit.

Safety: template extraction walks the AST in source order, and the
binds it collects must equal the token-derived binds exactly (same
values *and* Python types). Statements where the two disagree — e.g.
``x + 1 BETWEEN 2 AND 3``, whose desugaring duplicates the left
operand — are reported via :exc:`UnparameterizableError` and the caller
falls back to cold compilation, so the cache can never serve a plan
whose slots misalign with the token stream.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..errors import ParseError, PlanError, ReproError
from ..expr import ast
from ..plan import logical as L
from ..sql.lexer import tokenize
from ..sql.parser import AggCall, OrderItem, SelectItem, SelectStmt, _number
from ..types import DataType, infer_type

__all__ = [
    "BindMismatchError",
    "Param",
    "ParameterizedQuery",
    "UnparameterizableError",
    "bind_plan",
    "build_template",
    "parameterize_text",
]


class UnparameterizableError(ReproError):
    """The statement cannot be safely parameterized; compile it cold."""


class BindMismatchError(ReproError):
    """A bind tuple does not fit a cached template's slots."""


#: Mask characters for the shape key, by literal category. Int-like and
#: float-like numbers get distinct masks because they bind to different
#: SQL types (INTEGER vs DOUBLE) and therefore different plans.
_MASK_INT = "?i"
_MASK_FLOAT = "?f"
_MASK_STRING = "?s"
_MASK_DATE = "?d"

#: NUMBER tokens directly after these keywords stay in the shape:
#: LIMIT/OFFSET values are plan-structural (they parameterize the
#: top-k pruning pass at compile time), not row literals.
_STRUCTURAL_KEYWORDS = ("LIMIT", "OFFSET")


@dataclass(frozen=True)
class ParameterizedQuery:
    """Token-level decomposition of one SQL statement."""

    #: canonical shape key: lowercased tokens with literals masked.
    shape_key: str
    #: literal values in token order (ints/floats/strings/dates).
    binds: tuple
    #: ``False`` for DELETE/UPDATE statements (never plan-cached).
    is_select: bool
    #: the token list both were read from, for ``parse_statement``
    tokens: list = field(default_factory=list, compare=False,
                         repr=False)

    @property
    def cache_key(self) -> tuple:
        """Hashable composite key: shape + bound literals."""
        return (self.shape_key, self.binds)


def parameterize_text(text: str) -> ParameterizedQuery:
    """Shape key + bind tuple from the raw token stream (no parse).

    Raises:
        ParseError: on lexical errors or a malformed DATE literal —
            the same failures cold compilation would surface.
    """
    tokens = tokenize(text)
    first = tokens[0]
    is_select = not (first.kind == "IDENT"
                     and first.upper in ("DELETE", "UPDATE"))
    parts: list[str] = []
    binds: list = []
    prev_upper = ""
    for token in tokens:
        if token.kind == "EOF":
            break
        if token.kind == "NUMBER":
            if prev_upper in _STRUCTURAL_KEYWORDS:
                parts.append(token.value)
            else:
                value = _number(token.value)  # as the parser converts it
                parts.append(_MASK_FLOAT if isinstance(value, float)
                             else _MASK_INT)
                binds.append(value)
        elif token.kind == "STRING":
            if prev_upper == "DATE":
                try:
                    value = datetime.date.fromisoformat(token.value)
                except ValueError as exc:
                    raise ParseError(f"invalid date literal: {exc}",
                                     position=token.pos) from None
                parts.append(_MASK_DATE)
                binds.append(value)
            else:
                parts.append(_MASK_STRING)
                binds.append(token.value)
        elif token.kind == "IDENT":
            parts.append(token.value.lower())
        else:
            parts.append(token.value)
        prev_upper = token.upper if token.kind == "IDENT" else ""
    if parts and parts[-1] == ";":  # the parser allows one
        parts.pop()
    return ParameterizedQuery(" ".join(parts), tuple(binds), is_select,
                              tokens)


# ----------------------------------------------------------------------
# Template nodes
# ----------------------------------------------------------------------
class Param(ast.Expr):
    """A typed placeholder for a bound literal in a plan template."""

    _child_slots: tuple[str, ...] = ()

    def __init__(self, slot: int, dtype: DataType):
        self.slot = slot
        self._dtype = dtype

    def with_children(self, children: Sequence[ast.Expr]) -> "Param":
        return self

    def dtype(self, schema) -> DataType:
        return self._dtype

    def to_sql(self) -> str:
        return f"?{self.slot}"

    def shape(self) -> str:
        return f"param:{self._dtype.value}"

    def _key(self) -> tuple:
        return ("Param", self.slot, self._dtype)


class _TemplateLike(ast.Expr):
    """LIKE whose pattern (non-child state) lives in a bind slot."""

    _child_slots = ("child",)

    def __init__(self, child: ast.Expr, slot: int):
        self.child = child
        self.slot = slot

    def with_children(self, children: Sequence[ast.Expr]) -> "_TemplateLike":
        return _TemplateLike(children[0], self.slot)

    def dtype(self, schema) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        return f"({self.child.to_sql()} LIKE ?{self.slot})"

    def shape(self) -> str:
        return f"({self.child.shape()} LIKE ?)"

    def _key(self) -> tuple:
        return ("_TemplateLike", self.child, self.slot)


class _TemplateStringPredicate(ast.Expr):
    """startswith/endswith/contains whose needle lives in a bind slot."""

    _child_slots = ("child",)

    def __init__(self, cls: type, child: ast.Expr, slot: int):
        self.cls = cls
        self.child = child
        self.slot = slot

    def with_children(
            self, children: Sequence[ast.Expr]) -> "_TemplateStringPredicate":
        return _TemplateStringPredicate(self.cls, children[0], self.slot)

    def dtype(self, schema) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        return f"{self.cls.__name__.lower()}({self.child.to_sql()}, ?{self.slot})"

    def shape(self) -> str:
        return f"{self.cls.__name__.lower()}({self.child.shape()}, ?)"

    def _key(self) -> tuple:
        return ("_TemplateStringPredicate", self.cls, self.child, self.slot)


class _TemplateInList(ast.Expr):
    """IN list mixing fixed values (NULL/booleans) and bind slots.

    ``parts`` is a tuple of ``("value", v)`` / ``("slot", i)`` pairs in
    source order, so substitution reconstructs the original value order.
    """

    _child_slots = ("child",)

    def __init__(self, child: ast.Expr, parts: tuple):
        self.child = child
        self.parts = parts

    def with_children(self, children: Sequence[ast.Expr]) -> "_TemplateInList":
        return _TemplateInList(children[0], self.parts)

    def dtype(self, schema) -> DataType:
        return DataType.BOOLEAN

    def to_sql(self) -> str:
        inner = ", ".join(
            f"?{payload}" if kind == "slot" else repr(payload)
            for kind, payload in self.parts)
        return f"({self.child.to_sql()} IN ({inner}))"

    def shape(self) -> str:
        return f"({self.child.shape()} IN [*{len(self.parts)}])"

    def _key(self) -> tuple:
        return ("_TemplateInList", self.child, self.parts)


# ----------------------------------------------------------------------
# Template extraction
# ----------------------------------------------------------------------
def build_template(
        stmt: SelectStmt) -> tuple[SelectStmt, tuple[DataType, ...], list]:
    """Replace literals in a parsed statement with :class:`Param` slots.

    Returns ``(template_stmt, slot_dtypes, ast_binds)`` where
    ``ast_binds`` lists the replaced literal values in slot order. The
    caller must verify ``ast_binds`` equals the token-derived binds
    (see :func:`binds_match`) before caching the template: slot order
    is defined by AST pre-order traversal, which matches token order
    for every shape the grammar produces except desugarings that
    duplicate sub-expressions (e.g. a computed BETWEEN operand).
    """
    slots: list[DataType] = []
    ast_binds: list = []

    def alloc(value) -> int:
        slots.append(infer_type(value))
        ast_binds.append(value)
        return len(slots) - 1

    def rewrite(expr: ast.Expr | None) -> ast.Expr | None:
        if expr is None:
            return None
        if isinstance(expr, AggCall):
            return AggCall(expr.func, rewrite(expr.arg))
        if isinstance(expr, ast.Literal):
            value = expr.value
            if value is None or isinstance(value, bool):
                return expr  # stays in the shape; never masked
            return Param(alloc(value), infer_type(value))
        if isinstance(expr, ast.Like):
            child = rewrite(expr.child)
            return _TemplateLike(child, alloc(expr.pattern))
        if isinstance(expr, (ast.StartsWith, ast.EndsWith, ast.Contains)):
            child = rewrite(expr.child)
            return _TemplateStringPredicate(
                type(expr), child, alloc(expr.needle))
        if isinstance(expr, ast.InList):
            child = rewrite(expr.child)
            parts = tuple(
                ("value", v) if v is None or isinstance(v, bool)
                else ("slot", alloc(v))
                for v in expr.values)
            return _TemplateInList(child, parts)
        children = [rewrite(c) for c in expr.children()]
        return expr.with_children(children)

    items = [replace(item, expr=rewrite(item.expr),
                     agg_arg=rewrite(item.agg_arg))
             for item in stmt.items]
    where = rewrite(stmt.where)
    having = rewrite(stmt.having)
    order_by = [replace(o, expr=rewrite(o.expr), agg_arg=rewrite(o.agg_arg))
                for o in stmt.order_by]
    template = replace(stmt, items=items, where=where, having=having,
                       order_by=order_by)
    return template, tuple(slots), ast_binds


def binds_match(ast_binds: Sequence, token_binds: Sequence) -> bool:
    """True iff both bind sequences agree in length, type, and value."""
    if len(ast_binds) != len(token_binds):
        return False
    for a, b in zip(ast_binds, token_binds):
        if type(a) is not type(b) or a != b:
            return False
    return True


# ----------------------------------------------------------------------
# Rebinding
# ----------------------------------------------------------------------
def validate_binds(binds: Sequence,
                   slots: Sequence[DataType]) -> None:
    """Type-check a bind tuple against a template's slots (fail closed).

    Raises:
        BindMismatchError: on arity or type disagreement; callers fall
            back to a cold compile rather than serving a mistyped plan.
    """
    if len(binds) != len(slots):
        raise BindMismatchError(
            f"expected {len(slots)} binds, got {len(binds)}")
    for i, (value, dtype) in enumerate(zip(binds, slots)):
        if infer_type(value) is not dtype:
            raise BindMismatchError(
                f"bind {i} has type {infer_type(value).value}, "
                f"slot expects {dtype.value}")


def _bind_expr(expr: ast.Expr | None, binds: Sequence) -> ast.Expr | None:
    if expr is None:
        return None
    if isinstance(expr, Param):
        return ast.Literal(binds[expr.slot])
    if isinstance(expr, _TemplateLike):
        return ast.Like(_bind_expr(expr.child, binds), binds[expr.slot])
    if isinstance(expr, _TemplateStringPredicate):
        return expr.cls(_bind_expr(expr.child, binds), binds[expr.slot])
    if isinstance(expr, _TemplateInList):
        values = [binds[payload] if kind == "slot" else payload
                  for kind, payload in expr.parts]
        return ast.InList(_bind_expr(expr.child, binds), values)
    children = [_bind_expr(c, binds) for c in expr.children()]
    return expr.with_children(children)


def bind_plan(plan: L.LogicalNode, binds: Sequence,
              slots: Sequence[DataType]) -> L.LogicalNode:
    """Substitute binds into a cached logical-plan template.

    Produces a fresh plan tree (templates are shared across threads and
    never mutated). Only literal positions change; scan sets, pruning,
    and predicate-cache interaction are all re-derived at compile time
    from the substituted plan, so a rebind can never reuse stale
    data-dependent artifacts.
    """
    validate_binds(binds, slots)
    return _bind_node(plan, binds)


def _bind_node(node: L.LogicalNode, binds: Sequence) -> L.LogicalNode:
    if isinstance(node, L.LogicalScan):
        return L.LogicalScan(node.table, _bind_expr(node.predicate, binds))
    if isinstance(node, L.LogicalFilter):
        return L.LogicalFilter(_bind_node(node.child, binds),
                               _bind_expr(node.predicate, binds))
    if isinstance(node, L.LogicalProject):
        return L.LogicalProject(
            _bind_node(node.child, binds),
            [_bind_expr(e, binds) for e in node.exprs],
            node.names)
    if isinstance(node, L.LogicalJoin):
        return L.LogicalJoin(_bind_node(node.left, binds),
                             _bind_node(node.right, binds),
                             node.left_key, node.right_key,
                             node.join_type)
    if isinstance(node, L.LogicalAggregate):
        return L.LogicalAggregate(_bind_node(node.child, binds),
                                  node.group_keys, node.aggs)
    if isinstance(node, L.LogicalSort):
        return L.LogicalSort(_bind_node(node.child, binds), node.keys)
    if isinstance(node, L.LogicalLimit):
        return L.LogicalLimit(_bind_node(node.child, binds),
                              node.k, node.offset)
    raise PlanError(f"cannot rebind logical node {type(node).__name__}")
