"""Vectorized expression evaluation with SQL three-valued logic.

``bind(expr, schema)`` walks the expression once and returns a function
of a chunk's columns; ``evaluate(expr, columns, schema)`` binds and
calls it, producing a :class:`~repro.storage.column.Column` of the
expression's value for every row. NULLs propagate per SQL rules:
Kleene logic for AND/OR/NOT, NULL-on-any-NULL for arithmetic and
comparisons, and engine-defined NULL for division by zero.
"""

from __future__ import annotations

import operator
import re
import threading
from collections import OrderedDict
from typing import Callable, Mapping

import numpy as np

from ..errors import ExecutionError
from ..storage.column import Column, object_scalar
from ..types import DataType, Schema, days_to_date
from . import ast

Bound = Callable[[Mapping[str, Column], int], Column]  #: f(columns, length)


def bind(expr: ast.Expr, schema: Schema) -> Bound:
    """Resolve ``expr`` against ``schema`` once, for many chunks.

    The only walk of the tree: handlers, output types and literals are
    settled here, so an operator binds at construction and then calls
    ``bound(chunk.columns, chunk.num_rows)`` per chunk for a column of
    ``expr.dtype(schema)`` with one value per row.
    """
    bound = _bind(expr, schema)
    if isinstance(expr, ast.Literal):
        return lambda columns, length: _rows(bound(columns, length), length)
    return bound


def bind_predicate(expr: ast.Expr, schema: Schema) -> Callable:
    """:func:`bind` for a WHERE clause: a function giving the selection
    mask. Rows where the predicate is FALSE *or NULL* are excluded."""
    bound = bind(expr, schema)

    def mask(columns: Mapping[str, Column], length: int) -> np.ndarray:
        result = bound(columns, length)
        if result.dtype != DataType.BOOLEAN:
            raise ExecutionError(
                f"predicate evaluated to {result.dtype.value}, not BOOLEAN")
        return result.values & ~result.nulls

    return mask


def evaluate(expr: ast.Expr, columns: Mapping[str, Column],
             schema: Schema) -> Column:
    """Evaluate ``expr`` over one chunk of equally long columns."""
    return bind(expr, schema)(columns, len(next(iter(columns.values()), ())))


def evaluate_predicate(expr: ast.Expr, columns: Mapping[str, Column],
                       schema: Schema) -> np.ndarray:
    """Evaluate a boolean predicate over one chunk to a selection mask."""
    return bind_predicate(expr, schema)(
        columns, len(next(iter(columns.values()), ())))


def _bind(expr: ast.Expr, schema: Schema) -> Bound:
    builder = _BUILDERS.get(type(expr))
    if builder is None:
        raise ExecutionError(f"no evaluator for {type(expr).__name__}")
    return builder(expr, schema)


def _column(dtype: DataType, values: np.ndarray, nulls: np.ndarray,
            length: int) -> Column:
    """A handler's result as a column. A literal operand is one row that
    numpy broadcasts; when every operand was one, so is the result, and
    it is repeated here."""
    if len(values) != length:
        values = np.repeat(values, length)
    if len(nulls) != length:
        nulls = np.repeat(nulls, length)
    return Column(dtype, values, nulls)


def _rows(operand: Column, length: int) -> Column:
    """``operand`` with a value per row, for code that loops in Python."""
    return _column(operand.dtype, operand.values, operand.nulls, length)


def _unary(compute):
    """Builder of a one-child handler from ``compute(expr, child's
    column) -> (dtype, values, nulls)``."""
    def builder(expr, schema) -> Bound:
        child = _bind(expr.child, schema)
        return lambda columns, length: _column(
            *compute(expr, child(columns, length)), length)

    return builder


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
def _bind_column_ref(expr: ast.ColumnRef, schema) -> Bound:
    name = expr.name

    def column_ref(columns, length):
        try:
            return columns[name]
        except KeyError:
            raise ExecutionError(
                f"column {name!r} not present in chunk") from None

    return column_ref


def _bind_literal(expr: ast.Literal, schema) -> Bound:
    # Coerced once, as a column of it would be; stays one row wide.
    one_row = Column.constant(expr.dtype(schema), expr.value, 1)
    return lambda columns, length: one_row


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def _bind_arith(expr: ast.Arith, schema) -> Bound:
    left, right = _bind(expr.left, schema), _bind(expr.right, schema)
    out_type = expr.dtype(schema)
    numpy_dtype, op = out_type.numpy_dtype(), expr.op
    plain = {"+": operator.add, "-": operator.sub,
             "*": operator.mul}.get(op)

    def arith(columns, length):
        lhs, rhs = left(columns, length), right(columns, length)
        nulls = lhs.nulls | rhs.nulls
        lv, rv = lhs.values, rhs.values
        if plain is not None:
            values = plain(lv, rv)
        else:
            zero = rv == 0
            nulls = nulls | zero
            safe = np.where(zero, 1, rv)
            if op == "/":
                values = lv.astype(np.float64) / safe
            else:  # "%": Arith.__init__ admits no other operator
                # SQL's remainder takes the dividend's sign (fmod),
                # not the divisor's (mod): -3 % 2 is -1.
                with np.errstate(all="ignore"):
                    values = np.fmod(lv, safe)
        values = np.asarray(values, dtype=numpy_dtype)
        return _column(out_type, values, nulls, length)

    return arith


_bind_neg = _unary(lambda expr, c: (c.dtype, -c.values, c.nulls.copy()))


# ----------------------------------------------------------------------
# Comparisons and boolean logic
# ----------------------------------------------------------------------
_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _bind_compare(expr: ast.Compare, schema) -> Bound:
    left, right = _bind(expr.left, schema), _bind(expr.right, schema)
    compare = _COMPARISONS[expr.op]

    def comparison(columns, length):
        lhs, rhs = left(columns, length), right(columns, length)
        nulls = lhs.nulls | rhs.nulls
        values = np.asarray(compare(lhs.values, rhs.values),
                            dtype=np.bool_)
        # Dummy values under null masks may compare arbitrarily; mask them.
        return _column(DataType.BOOLEAN, values & ~nulls, nulls, length)

    return comparison


def _kleene(dominant: bool):
    """Builder of AND (``dominant`` FALSE) and OR (TRUE): the dominant
    value wins, then NULL, then the other value."""
    def builder(expr, schema) -> Bound:
        children = [_bind(child, schema) for child in expr.children()]

        def junction(columns, length):
            decided = np.zeros(length, dtype=np.bool_)
            any_null = np.zeros(length, dtype=np.bool_)
            for child in children:
                c = child(columns, length)
                decided |= ~c.nulls & (c.values if dominant else ~c.values)
                any_null |= c.nulls
            nulls = any_null & ~decided
            return Column(DataType.BOOLEAN,
                          decided if dominant else ~decided & ~nulls, nulls)

        return junction

    return builder


_bind_and, _bind_or = _kleene(False), _kleene(True)
_bind_not = _unary(lambda expr, c: (
    DataType.BOOLEAN, ~c.values & ~c.nulls, c.nulls.copy()))


def _bind_if(expr: ast.If, schema) -> Bound:
    cond, then, other = (_bind(e, schema) for e in
                         (expr.cond, expr.then, expr.otherwise))
    out_type = expr.dtype(schema)
    numpy_dtype = out_type.numpy_dtype()

    def branch(columns, length):
        c = cond(columns, length)
        t, o = then(columns, length), other(columns, length)
        take_then = c.values & ~c.nulls  # NULL condition -> else branch
        values = np.where(take_then,
                          np.asarray(t.values, dtype=numpy_dtype),
                          np.asarray(o.values, dtype=numpy_dtype))
        nulls = np.where(take_then, t.nulls, o.nulls)
        return _column(out_type, values,
                       np.asarray(nulls, dtype=np.bool_), length)

    return branch


# ----------------------------------------------------------------------
# Strings
# ----------------------------------------------------------------------
class _SegmentedRegexCache:
    """Bounded, scan-resistant, stampede-safe LIKE-pattern cache.

    Shared module-wide and keyed only on pattern text, so it needs two
    properties a plain ``lru_cache`` lacks:

    * **Scan resistance** — segmented LRU: first-seen patterns enter a
      *probation* segment and only promote to *protected* on a second
      hit. An adversarial stream of high-cardinality one-shot patterns
      churns probation but cannot evict the hot, repeatedly-used
      patterns sitting in protected.
    * **Stampede safety** — compilation happens outside the lock (a
      regex compile is pure, so concurrent duplicate compiles are
      wasted work, never corruption) and the lock is held only for the
      dict bookkeeping, so one slow compile never serializes every
      other thread's cache hits.
    """

    def __init__(self, maxsize: int = 512):
        self._protected_cap = max(1, maxsize // 2)
        self._probation_cap = max(1, maxsize - self._protected_cap)
        self._protected: "OrderedDict[str, re.Pattern]" = OrderedDict()
        self._probation: "OrderedDict[str, re.Pattern]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __call__(self, pattern: str) -> re.Pattern:
        with self._lock:
            compiled = self._protected.get(pattern)
            if compiled is not None:
                self._protected.move_to_end(pattern)
                self.hits += 1
                return compiled
            compiled = self._probation.pop(pattern, None)
            if compiled is not None:
                # Second touch: promote. Protected overflow demotes its
                # LRU back to probation rather than dropping it.
                self._protected[pattern] = compiled
                if len(self._protected) > self._protected_cap:
                    demoted, value = self._protected.popitem(last=False)
                    self._insert_probation(demoted, value)
                self.hits += 1
                return compiled
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        compiled = re.compile(regex, re.DOTALL)
        with self._lock:
            self.misses += 1
            if pattern not in self._protected:
                self._insert_probation(pattern, compiled)
        return compiled

    def _insert_probation(self, pattern: str,
                          compiled: re.Pattern) -> None:
        self._probation[pattern] = compiled
        self._probation.move_to_end(pattern)
        while len(self._probation) > self._probation_cap:
            self._probation.popitem(last=False)

    def __contains__(self, pattern: str) -> bool:
        with self._lock:
            return (pattern in self._protected
                    or pattern in self._probation)

    def clear(self) -> None:
        with self._lock:
            self._protected.clear()
            self._probation.clear()
            self.hits = self.misses = 0


_like_regex = _SegmentedRegexCache(maxsize=512)


def _string_predicate(check_of):
    """Builder of a per-row test of the child's non-NULL strings;
    ``check_of(expr)`` makes the test (read by truth value) per bind."""
    def builder(expr, schema) -> Bound:
        child = _bind(expr.child, schema)
        check = check_of(expr)

        def predicate(columns, length):
            c = _rows(child(columns, length), length)
            values = np.fromiter(
                (check(v) if not is_null else False
                 for v, is_null in zip(c.values, c.nulls)),
                dtype=np.bool_, count=length)
            return Column(DataType.BOOLEAN, values, c.nulls.copy())

        return predicate

    return builder


_bind_like = _string_predicate(
    lambda expr: _like_regex(expr.pattern).fullmatch)
_bind_startswith = _string_predicate(
    lambda expr: lambda v: v.startswith(expr.needle))
_bind_endswith = _string_predicate(
    lambda expr: lambda v: v.endswith(expr.needle))
_bind_contains = _string_predicate(
    lambda expr: lambda v: expr.needle in v)


# ----------------------------------------------------------------------
# IN / IS NULL / CAST
# ----------------------------------------------------------------------
def _bind_in_list(expr: ast.InList, schema) -> Bound:
    child = _bind(expr.child, schema)
    non_null_values = [v for v in expr.values if v is not None]
    list_has_null = len(non_null_values) < len(expr.values)

    def in_list(columns, length):
        c = child(columns, length)
        lane = c.values.dtype == object
        matched = np.zeros(length, dtype=np.bool_)
        for value in non_null_values:
            probe = object_scalar(value) if lane else value
            matched |= np.asarray(c.values == probe, dtype=np.bool_)
        matched &= ~c.nulls
        # SQL: x IN (...) is NULL when x is NULL, or when unmatched and
        # the list contains NULL.
        nulls = c.nulls | ~matched if list_has_null else c.nulls.copy()
        return _column(DataType.BOOLEAN, matched & ~nulls, nulls, length)

    return in_list


_bind_is_null = _unary(lambda expr, c: (
    DataType.BOOLEAN, ~c.nulls if expr.negated else c.nulls.copy(),
    np.zeros(len(c), dtype=np.bool_)))


def _cast(expr: ast.Cast, c: Column):
    if c.dtype == expr.target:
        values = c.values
    elif expr.target == DataType.INTEGER:
        # SQL CAST(double AS int) truncates toward zero.
        values = np.trunc(c.values).astype(np.int64)
    else:
        values = c.values.astype(expr.target.numpy_dtype())
    return expr.target, values, c.nulls.copy()


_bind_cast = _unary(_cast)


# ----------------------------------------------------------------------
# Scalar functions: ``kernel(numpy_dtype, length, *args) -> values, nulls``
# ----------------------------------------------------------------------
def _to_integer(ufunc):
    return lambda numpy_dtype, length, x: (
        ufunc(x.values).astype(np.int64), x.nulls.copy())


def _per_row(transform, dummy):
    """``transform`` over each non-NULL value, in Python."""
    def kernel(numpy_dtype, length, x):
        x = _rows(x, length)
        values = np.fromiter(
            (transform(v) if not is_null else dummy
             for v, is_null in zip(x.values, x.nulls)),
            dtype=numpy_dtype, count=length)
        return values, x.nulls.copy()

    return kernel


def _coalesce(numpy_dtype, length, first, second):
    values = np.where(first.nulls, second.values.astype(numpy_dtype),
                      first.values.astype(numpy_dtype))
    return values, first.nulls & second.nulls


def _extreme(picker):
    # NULL if either argument is NULL (Snowflake semantics).
    return lambda numpy_dtype, length, first, second: (
        picker(first.values.astype(numpy_dtype),
               second.values.astype(numpy_dtype)),
        first.nulls | second.nulls)


_FUNCTIONS = {
    "abs": lambda numpy_dtype, length, x: (np.abs(x.values),
                                           x.nulls.copy()),
    "ceil": _to_integer(np.ceil),
    "floor": _to_integer(np.floor),
    "round": _to_integer(np.round),
    "upper": _per_row(str.upper, ""),
    "lower": _per_row(str.lower, ""),
    "length": _per_row(len, 0),
    "coalesce": _coalesce,
    "least": _extreme(np.minimum),
    "greatest": _extreme(np.maximum),
    "year": _per_row(lambda v: days_to_date(int(v)).year, 0),
    "month": _per_row(lambda v: days_to_date(int(v)).month, 0),
    "day": _per_row(lambda v: days_to_date(int(v)).day, 0),
}


def _bind_function(expr: ast.FunctionCall, schema) -> Bound:
    args = [_bind(arg, schema) for arg in expr.args]
    out_type, kernel = expr.dtype(schema), _FUNCTIONS.get(expr.name)
    numpy_dtype = out_type.numpy_dtype()
    if kernel is None:
        raise ExecutionError(f"no evaluator for function {expr.name!r}")

    def call(columns, length):
        values, nulls = kernel(numpy_dtype, length,
                               *[arg(columns, length) for arg in args])
        return _column(out_type, values, nulls, length)

    return call


_BUILDERS = {
    ast.ColumnRef: _bind_column_ref,
    ast.Literal: _bind_literal,
    ast.Arith: _bind_arith,
    ast.Neg: _bind_neg,
    ast.Compare: _bind_compare,
    ast.And: _bind_and,
    ast.Or: _bind_or,
    ast.Not: _bind_not,
    ast.If: _bind_if,
    ast.Like: _bind_like,
    ast.StartsWith: _bind_startswith,
    ast.EndsWith: _bind_endswith,
    ast.Contains: _bind_contains,
    ast.InList: _bind_in_list,
    ast.IsNull: _bind_is_null,
    ast.Cast: _bind_cast,
    ast.FunctionCall: _bind_function,
}
