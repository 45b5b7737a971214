"""The benchmark's own copy of the data, its statements, and their answers.

Workload generators build :class:`Table` objects (numpy columns) and
statement specs (:class:`Select`, :class:`Insert`, :class:`Delete`,
:class:`Update`, ...). A spec renders the SQL text handed to the
program and, against the :class:`Shadow` copy of the tables, computes
the answer with numpy only, so nothing under ``src/`` takes part in
deciding what a correct result is.

Generated data has no NULLs and sums only integer columns, so every
answer is exact and comparison needs no tolerance.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any

import numpy as np


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
@dataclass
class Table:
    """One generated table: schema-ordered numpy columns plus layout."""

    name: str
    columns: dict[str, np.ndarray]
    rows_per_partition: int
    sorted_by: tuple[str, ...] = ()

    @property
    def num_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def rows(self) -> list[tuple]:
        return list(zip(*(c.tolist() for c in self.columns.values())))

    def type_of(self, column: str) -> str:
        """``int`` / ``float`` / ``str`` (mapped to a DataType at set-up)."""
        return {"i": "int", "f": "float", "U": "str"}[
            self.columns[column].dtype.kind]


def literal(value: Any) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Pred:
    """One conjunct. ``op``: = < <= > >= between in contains."""

    column: str
    op: str
    value: Any

    def sql(self) -> str:
        if self.op == "between":
            return (f"{self.column} BETWEEN {literal(self.value[0])} "
                    f"AND {literal(self.value[1])}")
        if self.op == "in":
            inner = ", ".join(literal(v) for v in self.value)
            return f"{self.column} IN ({inner})"
        if self.op == "contains":
            return f"{self.column} LIKE {literal('%' + self.value + '%')}"
        return f"{self.column} {self.op} {literal(self.value)}"

    def mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        data = columns[self.column]
        if self.op == "between":
            return (data >= self.value[0]) & (data <= self.value[1])
        if self.op == "in":
            return np.isin(data, np.array(self.value, dtype=data.dtype))
        if self.op == "contains":
            return np.char.find(data, self.value) >= 0
        return {"=": np.equal, "<": np.less, "<=": np.less_equal,
                ">": np.greater, ">=": np.greater_equal}[self.op](
                    data, self.value)


def where_sql(where: tuple[Pred, ...]) -> str:
    return " WHERE " + " AND ".join(p.sql() for p in where) if where else ""


def where_mask(where: tuple[Pred, ...],
               columns: dict[str, np.ndarray]) -> np.ndarray:
    mask = np.ones(len(next(iter(columns.values()))), dtype=bool)
    for pred in where:
        mask &= pred.mask(columns)
    return mask


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Join:
    """Inner equi-join of the statement's table to ``table``."""

    table: str
    left: str
    right: str


@dataclass(frozen=True)
class Select:
    table: str
    where: tuple[Pred, ...] = ()
    columns: tuple[str, ...] | None = None          #: None = ``*``
    aggs: tuple[tuple[str, str | None, str], ...] = ()  #: func, column, alias
    group_by: tuple[str, ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()     #: output column, desc
    limit: int | None = None
    join: Join | None = None
    kind: str = "select"

    def sql(self) -> str:
        if self.aggs:
            items = list(self.group_by) + [
                f"{func}({column or '*'}) AS {alias}"
                for func, column, alias in self.aggs]
        else:
            items = list(self.columns) if self.columns else ["*"]
        text = f"SELECT {', '.join(items)} FROM {self.table}"
        if self.join:
            text += (f" JOIN {self.join.table} ON "
                     f"{self.join.left} = {self.join.right}")
        text += where_sql(self.where)
        if self.group_by:
            text += " GROUP BY " + ", ".join(self.group_by)
        if self.order_by:
            text += " ORDER BY " + ", ".join(
                f"{name} DESC" if desc else name
                for name, desc in self.order_by)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text

    def output_names(self, source: dict[str, np.ndarray]) -> list[str]:
        if self.aggs:
            return list(self.group_by) + [alias for _, _, alias in self.aggs]
        return list(self.columns) if self.columns else list(source)


@dataclass(frozen=True)
class Insert:
    table: str
    rows: tuple[tuple, ...]
    kind: str = "insert"

    def sql(self) -> str:
        return f"INSERT {self.table} {self.rows!r}"   # fingerprint only


@dataclass(frozen=True)
class Delete:
    table: str
    where: tuple[Pred, ...]
    kind: str = "delete"

    def sql(self) -> str:
        return f"DELETE FROM {self.table}{where_sql(self.where)}"


@dataclass(frozen=True)
class Update:
    """``UPDATE table SET column = column + delta WHERE ...``."""

    table: str
    column: str
    delta: int
    where: tuple[Pred, ...]
    kind: str = "update"

    def sql(self) -> str:
        return (f"UPDATE {self.table} SET {self.column} = "
                f"{self.column} + {self.delta}{where_sql(self.where)}")


@dataclass(frozen=True)
class Recluster:
    table: str
    keys: tuple[str, ...]
    rows_per_partition: int
    kind: str = "recluster"

    def sql(self) -> str:
        return f"RECLUSTER {self.table} BY {', '.join(self.keys)}"


@dataclass(frozen=True)
class Checkpoint:
    kind: str = "checkpoint"

    def sql(self) -> str:
        return "CHECKPOINT"


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------
@dataclass
class Expected:
    """What a correct reply looks like.

    For a SELECT: ``rows`` is the full answer before ORDER BY / LIMIT;
    ``order`` the (output index, desc) sort keys; ``limit`` the LIMIT.
    For DML: ``affected`` rows (or partitions, for a recluster).
    """

    rows: list[tuple] = field(default_factory=list)
    order: tuple[tuple[int, bool], ...] = ()
    limit: int | None = None
    affected: int | None = None


def _sort_keys(rows: list[tuple],
               order: tuple[tuple[int, bool], ...]) -> list[tuple]:
    """The ORDER BY key tuples of ``rows`` in sorted order."""
    pick = itemgetter(*(i for i, _ in order))
    keys = [pick(r) if len(order) > 1 else (pick(r),) for r in rows]
    for position in range(len(order) - 1, -1, -1):
        keys.sort(key=itemgetter(position), reverse=order[position][1])
    return keys


def check_select(got: list[tuple], expected: Expected) -> bool:
    """True when ``got`` is a correct reply.

    Rows compare as multisets; an ORDER BY additionally fixes the
    sequence of sort-key values (rows that tie on the keys may come in
    any order). Under a LIMIT any qualifying rows may be returned, but
    exactly ``min(limit, available)`` of them, and with an ORDER BY
    their keys must be the first ones.
    """
    full = expected.rows
    if expected.limit is None:
        if len(got) != len(full) or Counter(got) != Counter(full):
            return False
        wanted = len(full)
    else:
        wanted = min(expected.limit, len(full))
        if len(got) != wanted or Counter(got) - Counter(full):
            return False
    if expected.order and wanted:
        pick = itemgetter(*(i for i, _ in expected.order))
        keys = [pick(r) if len(expected.order) > 1 else (pick(r),)
                for r in got]
        if keys != _sort_keys(full, expected.order)[:wanted]:
            return False
    return True


class Shadow:
    """The benchmark's copy of every table, kept current under DML."""

    def __init__(self, tables: list[Table]):
        # Own column dicts: DML replaces arrays here, never in the load.
        self.tables = {t.name: replace(t, columns=dict(t.columns))
                       for t in tables}
        self._joined: dict[tuple, tuple[int, dict[str, np.ndarray]]] = {}
        self.version = 0

    def _source(self, stmt: Select) -> dict[str, np.ndarray]:
        """The columns a SELECT reads: its table, or the joined view."""
        left = self.tables[stmt.table].columns
        if stmt.join is None:
            return left
        key = (stmt.table, stmt.join)
        cached = self._joined.get(key)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        right = self.tables[stmt.join.table].columns
        keys = right[stmt.join.right]           # unique by construction
        order = np.argsort(keys, kind="stable")
        position = np.searchsorted(keys[order], left[stmt.join.left])
        position = np.minimum(position, len(keys) - 1)
        matched = keys[order][position] == left[stmt.join.left]
        take = order[position[matched]]
        view = {name: data[matched] for name, data in left.items()}
        view.update({name: data[take] for name, data in right.items()})
        self._joined[key] = (self.version, view)
        return view

    def answer(self, stmt) -> Expected:
        """The expected reply to ``stmt``; DML also updates the copy."""
        if stmt.kind == "select":
            return self._select(stmt)
        if stmt.kind == "checkpoint":
            return Expected()
        self.version += 1
        table = self.tables[stmt.table]
        if stmt.kind == "insert":
            fresh = list(zip(*stmt.rows))
            for (name, data), values in zip(table.columns.items(), fresh):
                table.columns[name] = np.concatenate(
                    [data, np.array(values, dtype=data.dtype)])
            return Expected(affected=len(stmt.rows))
        if stmt.kind == "recluster":
            return Expected(
                affected=-(-table.num_rows // stmt.rows_per_partition))
        mask = where_mask(stmt.where, table.columns)
        if stmt.kind == "delete":
            for name, data in table.columns.items():
                table.columns[name] = data[~mask]
        else:
            data = table.columns[stmt.column].copy()
            data[mask] += stmt.delta
            table.columns[stmt.column] = data
        return Expected(affected=int(mask.sum()))

    def _select(self, stmt: Select) -> Expected:
        source = self._source(stmt)
        mask = where_mask(stmt.where, source)
        names = stmt.output_names(source)
        if stmt.aggs:
            rows = _aggregate(stmt, source, mask)
        else:
            rows = list(zip(*(source[c][mask].tolist() for c in names)))
        order = tuple((names.index(name), desc)
                      for name, desc in stmt.order_by)
        return Expected(rows=rows, order=order, limit=stmt.limit)


def _aggregate(stmt: Select, source: dict[str, np.ndarray],
               mask: np.ndarray) -> list[tuple]:
    n = int(mask.sum())
    if n == 0:
        if stmt.group_by:
            return []
        return [tuple(0 if func == "count" else None
                      for func, _, _ in stmt.aggs)]
    group = np.zeros(n, dtype=np.int64)
    uniques = []
    for name in stmt.group_by:
        values, codes = np.unique(source[name][mask], return_inverse=True)
        uniques.append(values)
        group = group * len(values) + codes
    groups, inverse = np.unique(group, return_inverse=True)
    out_columns = []
    rest = groups
    for values in reversed(uniques):
        out_columns.insert(0, values[rest % len(values)].tolist())
        rest = rest // len(values)
    for func, column, _ in stmt.aggs:
        if func == "count":
            acc = np.bincount(inverse, minlength=len(groups))
        else:
            data = source[column][mask]
            start, ufunc = {"sum": (0, np.add),
                            "min": (data.max(), np.minimum),
                            "max": (data.min(), np.maximum)}[func]
            acc = np.full(len(groups), start, dtype=data.dtype)
            ufunc.at(acc, inverse, data)
        out_columns.append(acc.tolist())
    return list(zip(*out_columns))


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------
def fingerprint(tables: list[Table], statements: list) -> str:
    """Hash of the generated rows and statement texts."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(table.name.encode())
        for name, data in table.columns.items():
            digest.update(name.encode())
            if data.dtype.kind == "U":
                digest.update("\x00".join(data.tolist()).encode())
            else:
                digest.update(np.ascontiguousarray(data).tobytes())
    for stmt in statements:
        digest.update(stmt.sql().encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]
