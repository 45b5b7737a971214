"""A SQL subset front end.

Supports the query shapes the paper analyzes::

    SELECT [DISTINCT] <exprs | aggregates | *>
    FROM t [AS a] [[LEFT [OUTER]] JOIN u [AS b] ON a.x = b.y]...
    [WHERE <predicate>]
    [GROUP BY <columns> [HAVING <predicate over aggregates>]]
    [ORDER BY <expr> [ASC|DESC], ...]
    [LIMIT k [OFFSET m]]

plus partition-pruned DML::

    DELETE FROM t [WHERE <predicate>]
    UPDATE t SET col = <expr> [WHERE <predicate>]

:mod:`.lexer` tokenizes, :mod:`.parser` builds a statement AST, and
:mod:`.planner` binds names and produces a logical plan.
"""

from .lexer import tokenize, Token
from .normalize import normalize_sql, referenced_tables
from .parser import (
    DeleteStmt,
    SelectStmt,
    UpdateStmt,
    parse_select,
    parse_statement,
)
from .planner import plan_select

__all__ = ["tokenize", "Token", "parse_select", "parse_statement",
           "SelectStmt", "DeleteStmt", "UpdateStmt", "plan_select",
           "normalize_sql", "referenced_tables"]


def parse_sql(text: str) -> SelectStmt:
    """Parse one SELECT statement."""
    return parse_select(text)
