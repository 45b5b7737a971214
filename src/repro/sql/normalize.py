"""SQL text normalization: the result cache's fallback key.

The service layer's result cache (§2's Cloud Services keep a query
result cache in front of the warehouses) keys a statement on the
``(shape_key, binds)`` pair of
:func:`repro.plancache.parameterize_text`; :func:`normalize_sql` keys
a text that pair cannot key but the parser accepts. Normalization is
purely lexical: whitespace, comments, keyword and identifier case and
a trailing ``;`` vanish, and string literals keep their case.

:func:`referenced_tables` names the tables a parsed statement touches.
The cache stores their versions with each entry, so a lookup reads
the tables back from the entry and parses nothing.
"""

from __future__ import annotations

from .lexer import tokenize
from .parser import SelectStmt, parse_statement

__all__ = ["normalize_sql", "referenced_tables"]


def normalize_sql(text: str) -> str:
    """Canonical single-line form of a statement, for cache keys.

    ``SELECT * FROM t  WHERE x=1;`` and ``select *\\nfrom T where
    x = 1 -- comment`` normalize identically. String literals keep
    their case (SQL strings are case-sensitive); numbers keep their
    written form (``1.0`` and ``1`` stay distinct — they are
    different literals even when equal).
    """
    parts: list[str] = []
    for token in tokenize(text):
        if token.kind == "EOF":
            break
        if token.kind == "IDENT":
            parts.append(token.value.lower())
        elif token.kind == "STRING":
            parts.append("'" + token.value.replace("'", "''") + "'")
        else:
            parts.append(token.value)
    while parts and parts[-1] == ";":
        parts.pop()
    return " ".join(parts)


def referenced_tables(statement) -> tuple[str, ...]:
    """Sorted, lower-cased names of every table a statement reads
    or writes (FROM table, JOIN tables, or the DML target).

    Accepts either raw SQL text or an already-parsed statement, so
    hot paths that hold the parse (the service layer) don't pay a
    second parse just to learn the table set.
    """
    stmt = (parse_statement(statement) if isinstance(statement, str)
            else statement)
    if isinstance(stmt, SelectStmt):
        names = [stmt.table.name]
        names.extend(join.table.name for join in stmt.joins)
    else:
        names = [stmt.table]
    return tuple(sorted({name.lower() for name in names}))
