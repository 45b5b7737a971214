"""Chunks: the unit of data flowing between operators."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from ..storage.column import Column, columns_from_rows
from ..types import Schema


class Chunk:
    """A batch of rows in columnar form. ``runs``: ``(partition_id,
    rows)`` per micro-partition its rows came from, in row order; empty
    once an operator (join, aggregate) destroys provenance."""

    __slots__ = ("schema", "columns", "num_rows", "runs")

    def __init__(self, schema: Schema, columns: Mapping[str, Column]):
        self.runs: tuple[tuple[int, int], ...] = ()
        normalized = {name.lower(): col for name, col in columns.items()}
        if set(normalized) != set(schema.names()):
            raise SchemaError(
                f"chunk columns {sorted(normalized)} do not match schema "
                f"{schema.names()}")
        lengths = {len(col) for col in normalized.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged chunk: lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = normalized
        self.num_rows = lengths.pop() if lengths else 0

    @classmethod
    def _derived(cls, schema: Schema, columns: dict[str, Column]) -> "Chunk":
        """A chunk derived from a validated one (same or selected names,
        every column cut alike): skips the constructor's checks."""
        chunk = object.__new__(cls)
        chunk.runs = ()
        chunk.schema = schema
        chunk.columns = columns
        chunk.num_rows = len(next(iter(columns.values()), ()))
        return chunk

    @classmethod
    def empty(cls, schema: Schema) -> "Chunk":
        columns = {f.name: Column.from_pylist(f.dtype, [])
                   for f in schema}
        return cls(schema, columns)

    @classmethod
    def from_rows(cls, schema: Schema,
                  rows: Sequence[Sequence[Any]]) -> "Chunk":
        return cls(schema, columns_from_rows(schema, rows))

    def column(self, name: str) -> Column:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise SchemaError(f"chunk has no column {name!r}") from None

    def filter(self, mask: np.ndarray) -> "Chunk":
        return Chunk._derived(self.schema, {
            n: c.filter(mask) for n, c in self.columns.items()})

    def take(self, indices: np.ndarray) -> "Chunk":
        return Chunk._derived(self.schema, {
            n: c.take(indices) for n, c in self.columns.items()})

    def slice(self, start: int, stop: int) -> "Chunk":
        return Chunk._derived(self.schema, {
            n: c.slice(start, stop) for n, c in self.columns.items()})

    def select(self, names: Sequence[str]) -> "Chunk":
        schema = self.schema.select(names)
        return Chunk._derived(
            schema, {n.lower(): self.column(n) for n in names})

    @classmethod
    def concat(cls, schema: Schema,
               chunks: Sequence["Chunk"]) -> "Chunk":
        if not chunks:
            return cls.empty(schema)
        columns = {
            f.name: Column.concat([c.columns[f.name] for c in chunks])
            for f in schema
        }
        return cls._derived(schema, columns)

    def to_rows(self) -> list[tuple[Any, ...]]:
        cols = [self.columns[f.name].to_pylist() for f in self.schema]
        if not cols:
            return []
        return list(zip(*cols))

    def row_at(self, i: int) -> tuple[Any, ...]:
        return tuple(self.columns[f.name].value_at(i)
                     for f in self.schema)

    def __repr__(self) -> str:
        return f"Chunk(rows={self.num_rows}, cols={self.schema.names()})"
