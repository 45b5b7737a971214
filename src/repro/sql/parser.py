"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from ..errors import ParseError
from ..expr import ast
from ..types import DataType
from .lexer import Token, tokenize

AGG_FUNCS = ("count", "sum", "min", "max", "avg")
KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT",
    "OFFSET", "JOIN", "LEFT", "OUTER", "INNER", "ON", "AS", "AND",
    "OR", "NOT", "LIKE", "IN", "IS", "NULL", "TRUE", "FALSE",
    "BETWEEN", "ASC", "DESC", "IF", "CAST", "DATE", "DISTINCT",
    "HAVING", "DELETE", "UPDATE", "SET",
}


class AggCall(ast.Expr):
    """Parser-level aggregate reference inside an expression.

    Appears in HAVING clauses (``HAVING count(*) > 5``); the planner
    replaces every occurrence with a column reference to the
    aggregate's output before the expression is typed or evaluated.
    """

    _child_slots = ()

    def __init__(self, func: str, arg: ast.Expr | None):
        self.func = func          #: count_star/count/sum/min/max/avg
        self.arg = arg

    def with_children(self, children):
        return self

    def dtype(self, schema):
        raise ParseError(
            f"aggregate {self.func}() used outside HAVING/GROUP BY "
            "context")

    def to_sql(self) -> str:
        inner = self.arg.to_sql() if self.arg is not None else "*"
        return f"{self.func.replace('_star', '')}({inner})"

    def shape(self) -> str:
        inner = self.arg.shape() if self.arg is not None else "*"
        return f"{self.func}({inner})"

    def _key(self):
        return ("AggCall", self.func, self.arg)


@dataclass
class SelectItem:
    """One SELECT-list entry."""

    expr: ast.Expr | None          #: None for a bare aggregate
    alias: str | None
    agg_func: str | None = None    #: count/sum/min/max/avg, or None
    agg_arg: ast.Expr | None = None  #: None for COUNT(*)

    @property
    def is_aggregate(self) -> bool:
        return self.agg_func is not None


@dataclass
class TableRef:
    name: str
    alias: str


@dataclass
class JoinClause:
    table: TableRef
    left_ref: str     #: qualified or bare column text, e.g. "t.x"
    right_ref: str
    join_type: str    #: "inner" | "left_outer"


@dataclass
class OrderItem:
    expr: ast.Expr | None
    desc: bool
    agg_func: str | None = None
    agg_arg: ast.Expr | None = None


@dataclass
class SelectStmt:
    items: list[SelectItem]
    star: bool
    table: TableRef
    joins: list[JoinClause] = field(default_factory=list)
    where: ast.Expr | None = None
    group_by: list[str] = field(default_factory=list)
    having: ast.Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    distinct: bool = False


@dataclass
class DeleteStmt:
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: ast.Expr | None


@dataclass
class UpdateStmt:
    """``UPDATE t SET col = expr [WHERE ...]``."""

    table: str
    column: str
    value: ast.Expr
    where: ast.Expr | None


def parse_select(text: str) -> SelectStmt:
    """Parse one SELECT statement (a trailing ';' is allowed)."""
    statement = parse_statement(text)
    if not isinstance(statement, SelectStmt):
        raise ParseError("expected a SELECT statement")
    return statement


def parse_statement(text: str, tokens: list[Token] | None = None
                    ) -> "SelectStmt | DeleteStmt | UpdateStmt":
    """Parse one SELECT, DELETE, or UPDATE statement; ``tokens``, when
    given, must be ``tokenize(text)``."""
    parser = _Parser(tokenize(text) if tokens is None else tokens)
    if parser.check_keyword("DELETE"):
        return parser.parse_delete()
    if parser.check_keyword("UPDATE"):
        return parser.parse_update()
    return parser.parse()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def check_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "IDENT" and token.upper in words

    def accept_keyword(self, *words: str) -> bool:
        if self.check_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise ParseError(
                f"expected {word}, found {self.peek().value!r}",
                position=self.peek().pos)

    def accept_symbol(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind == "SYMBOL" and token.value == symbol:
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise ParseError(
                f"expected {symbol!r}, found {self.peek().value!r}",
                position=self.peek().pos)

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "IDENT" or token.upper in KEYWORDS:
            raise ParseError(
                f"expected identifier, found {token.value!r}",
                position=token.pos)
        self.advance()
        return token.value.lower()

    # -- grammar ---------------------------------------------------------
    def parse(self) -> SelectStmt:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        star, items = self._select_list()
        self.expect_keyword("FROM")
        table = self._table_ref()
        joins = []
        while self.check_keyword("JOIN", "LEFT", "INNER"):
            joins.append(self._join_clause())
        where = None
        if self.accept_keyword("WHERE"):
            where = self._expr()
        group_by: list[str] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._column_text())
            while self.accept_symbol(","):
                group_by.append(self._column_text())
        having = None
        if self.accept_keyword("HAVING"):
            having = self._expr()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_symbol(","):
                order_by.append(self._order_item())
        limit = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self._int_literal()
            if self.accept_keyword("OFFSET"):
                offset = self._int_literal()
        self.accept_symbol(";")
        if self.peek().kind != "EOF":
            raise ParseError(
                f"unexpected trailing input {self.peek().value!r}",
                position=self.peek().pos)
        return SelectStmt(items=items, star=star, table=table,
                          joins=joins, where=where, group_by=group_by,
                          having=having, order_by=order_by,
                          limit=limit, offset=offset,
                          distinct=distinct)

    def parse_delete(self) -> DeleteStmt:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = None
        if self.accept_keyword("WHERE"):
            where = self._expr()
        self.accept_symbol(";")
        if self.peek().kind != "EOF":
            raise ParseError(
                f"unexpected trailing input {self.peek().value!r}",
                position=self.peek().pos)
        return DeleteStmt(table=table, where=where)

    def parse_update(self) -> UpdateStmt:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        column = self.expect_ident()
        self.expect_symbol("=")
        value = self._expr()
        where = None
        if self.accept_keyword("WHERE"):
            where = self._expr()
        self.accept_symbol(";")
        if self.peek().kind != "EOF":
            raise ParseError(
                f"unexpected trailing input {self.peek().value!r}",
                position=self.peek().pos)
        return UpdateStmt(table=table, column=column, value=value,
                          where=where)

    def _select_list(self) -> tuple[bool, list[SelectItem]]:
        if self.accept_symbol("*"):
            return True, []
        items = [self._select_item()]
        while self.accept_symbol(","):
            items.append(self._select_item())
        return False, items

    def _select_item(self) -> SelectItem:
        agg = self._try_aggregate()
        if agg is not None:
            func, arg = agg
            alias = self._optional_alias()
            return SelectItem(expr=None, alias=alias, agg_func=func,
                              agg_arg=arg)
        expr = self._expr()
        alias = self._optional_alias()
        return SelectItem(expr=expr, alias=alias)

    def _optional_alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_ident()
        token = self.peek()
        if token.kind == "IDENT" and token.upper not in KEYWORDS:
            self.advance()
            return token.value.lower()
        return None

    def _try_aggregate(self) -> tuple[str, ast.Expr | None] | None:
        token = self.peek()
        next_token = self.tokens[self.pos + 1]
        if (token.kind == "IDENT" and token.value.lower() in AGG_FUNCS
                and next_token.kind == "SYMBOL"
                and next_token.value == "("):
            func = token.value.lower()
            self.advance()
            self.advance()
            if func == "count" and self.accept_symbol("*"):
                self.expect_symbol(")")
                return "count_star", None
            arg = self._expr()
            self.expect_symbol(")")
            return func, arg
        return None

    def _table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = name
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        else:
            token = self.peek()
            if token.kind == "IDENT" and token.upper not in KEYWORDS:
                self.advance()
                alias = token.value.lower()
        return TableRef(name=name, alias=alias)

    def _join_clause(self) -> JoinClause:
        join_type = "inner"
        if self.accept_keyword("LEFT"):
            self.accept_keyword("OUTER")
            join_type = "left_outer"
        else:
            self.accept_keyword("INNER")
        self.expect_keyword("JOIN")
        table = self._table_ref()
        self.expect_keyword("ON")
        left = self._column_text()
        self.expect_symbol("=")
        right = self._column_text()
        return JoinClause(table=table, left_ref=left, right_ref=right,
                          join_type=join_type)

    def _column_text(self) -> str:
        """A possibly qualified column: ``col`` or ``alias.col``."""
        first = self.expect_ident()
        if self.accept_symbol("."):
            second = self.expect_ident()
            return f"{first}.{second}"
        return first

    def _order_item(self) -> OrderItem:
        agg = self._try_aggregate()
        if agg is not None:
            func, arg = agg
            desc = self._direction()
            return OrderItem(expr=None, desc=desc, agg_func=func,
                             agg_arg=arg)
        expr = self._expr()
        return OrderItem(expr=expr, desc=self._direction())

    def _direction(self) -> bool:
        if self.accept_keyword("DESC"):
            return True
        self.accept_keyword("ASC")
        return False

    def _int_literal(self) -> int:
        token = self.peek()
        if token.kind != "NUMBER" or "." in token.value:
            raise ParseError(
                f"expected integer, found {token.value!r}",
                position=token.pos)
        self.advance()
        return int(token.value)

    # -- expressions -------------------------------------------------------
    def _expr(self) -> ast.Expr:
        return self._or()

    def _or(self) -> ast.Expr:
        parts = [self._and()]
        while self.accept_keyword("OR"):
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else ast.Or(parts)

    def _and(self) -> ast.Expr:
        parts = [self._not()]
        while self.accept_keyword("AND"):
            parts.append(self._not())
        return parts[0] if len(parts) == 1 else ast.And(parts)

    def _not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.Not(self._not())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self.peek()
        if token.kind == "SYMBOL" and token.value in (
                "=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.Compare(op, left, self._additive())
        negated = False
        if self.check_keyword("NOT"):
            lookahead = self.tokens[self.pos + 1]
            if lookahead.kind == "IDENT" and lookahead.upper in (
                    "LIKE", "IN", "BETWEEN"):
                self.advance()
                negated = True
        if self.accept_keyword("BETWEEN"):
            lo = self._additive()
            self.expect_keyword("AND")
            hi = self._additive()
            result: ast.Expr = ast.between(left, lo, hi)
            return ast.Not(result) if negated else result
        if self.accept_keyword("LIKE"):
            pattern_token = self.peek()
            if pattern_token.kind != "STRING":
                raise ParseError("LIKE requires a string pattern",
                                 position=pattern_token.pos)
            self.advance()
            result = ast.Like(left, pattern_token.value)
            return ast.Not(result) if negated else result
        if self.accept_keyword("IN"):
            self.expect_symbol("(")
            values = [self._literal_value()]
            while self.accept_symbol(","):
                values.append(self._literal_value())
            self.expect_symbol(")")
            result = ast.InList(left, values)
            return ast.Not(result) if negated else result
        if negated:
            raise ParseError("expected LIKE, IN or BETWEEN after NOT",
                             position=self.peek().pos)
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value in ("+", "-"):
                self.advance()
                left = ast.Arith(token.value, left,
                                 self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value in ("*", "/", "%"):
                self.advance()
                left = ast.Arith(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            return ast.Neg(self._unary())
        return self._primary()

    def _literal_value(self):
        """A literal usable inside IN lists (returns a Python value)."""
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return _number(token.value)
        if token.kind == "STRING":
            self.advance()
            return token.value
        if self.accept_keyword("NULL"):
            return None
        if self.accept_keyword("TRUE"):
            return True
        if self.accept_keyword("FALSE"):
            return False
        if self.check_keyword("DATE"):
            self.advance()
            return self._date_body()
        raise ParseError(f"expected literal, found {token.value!r}",
                         position=token.pos)

    def _date_body(self) -> datetime.date:
        token = self.peek()
        if token.kind != "STRING":
            raise ParseError("DATE requires a 'YYYY-MM-DD' string",
                             position=token.pos)
        self.advance()
        try:
            return datetime.date.fromisoformat(token.value)
        except ValueError as exc:
            raise ParseError(f"invalid date {token.value!r}: {exc}",
                             position=token.pos) from None

    def _primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return ast.Literal(_number(token.value))
        if token.kind == "STRING":
            self.advance()
            return ast.Literal(token.value)
        if self.accept_symbol("("):
            inner = self._expr()
            self.expect_symbol(")")
            return inner
        if self.accept_keyword("NULL"):
            # Untyped NULL literals default to INTEGER; CAST overrides.
            return ast.Literal(None, DataType.INTEGER)
        if self.accept_keyword("TRUE"):
            return ast.Literal(True)
        if self.accept_keyword("FALSE"):
            return ast.Literal(False)
        if self.check_keyword("DATE"):
            self.advance()
            return ast.Literal(self._date_body())
        if self.check_keyword("IF"):
            self.advance()
            self.expect_symbol("(")
            cond = self._expr()
            self.expect_symbol(",")
            then = self._expr()
            self.expect_symbol(",")
            otherwise = self._expr()
            self.expect_symbol(")")
            return ast.If(cond, then, otherwise)
        if self.check_keyword("CAST"):
            self.advance()
            self.expect_symbol("(")
            inner = self._expr()
            self.expect_keyword("AS")
            type_name = self.expect_ident().upper()
            self.expect_symbol(")")
            try:
                target = DataType(type_name)
            except ValueError:
                raise ParseError(f"unknown type {type_name!r}",
                                 position=token.pos) from None
            return ast.Cast(inner, target)
        if token.kind == "IDENT" and token.upper not in KEYWORDS:
            return self._ident_expr()
        raise ParseError(f"unexpected token {token.value!r}",
                         position=token.pos)

    def _ident_expr(self) -> ast.Expr:
        name = self.expect_ident()
        next_token = self.peek()
        if next_token.kind == "SYMBOL" and next_token.value == "(":
            return self._function_call(name)
        if self.accept_symbol("."):
            column = self.expect_ident()
            return ast.ColumnRef(f"{name}.{column}")
        return ast.ColumnRef(name)

    def _function_call(self, name: str) -> ast.Expr:
        self.expect_symbol("(")
        lowered = name.lower()
        if lowered in AGG_FUNCS:
            # Aggregate inside an expression (legal only in HAVING;
            # the planner enforces context).
            if lowered == "count" and self.accept_symbol("*"):
                self.expect_symbol(")")
                return AggCall("count_star", None)
            arg = self._expr()
            self.expect_symbol(")")
            return AggCall(lowered, arg)
        args = [self._expr()]
        while self.accept_symbol(","):
            args.append(self._expr())
        self.expect_symbol(")")
        if lowered in ("startswith", "endswith", "contains"):
            if len(args) != 2 or not isinstance(args[1], ast.Literal) \
                    or not isinstance(args[1].value, str):
                raise ParseError(
                    f"{name} requires (expr, 'string literal')")
            node_type = {"startswith": ast.StartsWith,
                         "endswith": ast.EndsWith,
                         "contains": ast.Contains}[lowered]
            return node_type(args[0], args[1].value)
        if lowered in ast.FUNCTIONS:
            return ast.FunctionCall(lowered, args)
        raise ParseError(f"unknown function {name!r}")


def _number(text: str):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)
