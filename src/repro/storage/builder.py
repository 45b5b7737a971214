"""Building tables out of rows or columns.

Rows are transposed once and converted one column at a time, a
:class:`~.clustering.Layout` orders them with one permutation, and the
ordered columns are cut into micro-partitions of a target row count
(Snowflake's are 50–500 MB; sizing by rows preserves all pruning
behaviour) with zone maps computed one array pass per column.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from ..types import Schema
from .clustering import Layout
from .column import _DUMMY, Column, columns_from_rows
from .micropartition import MicroPartition, checked_columns
from .table import Table
from .zonemap import StatsBlock, ZoneMap

DEFAULT_ROWS_PER_PARTITION = 1000


class TableBuilder:
    """Accumulates rows; :meth:`finish` builds the table in one pass."""

    def __init__(self, name: str, schema: Schema,
                 rows_per_partition: int = DEFAULT_ROWS_PER_PARTITION):
        if rows_per_partition <= 0:
            raise SchemaError("rows_per_partition must be positive")
        self.name = name
        self.schema = schema
        self.rows_per_partition = rows_per_partition
        self._rows: list[Sequence[Any]] = []

    def add_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.schema)}")
        self._rows.append(row)

    def add_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.add_row(row)

    def finish(self) -> Table:
        """Build the table from every row added so far."""
        rows, self._rows = self._rows, []
        return build_table(self.name, self.schema, rows,
                           self.rows_per_partition)


def build_table(name: str, schema: Schema, rows: Sequence[Sequence[Any]],
                rows_per_partition: int = DEFAULT_ROWS_PER_PARTITION,
                layout: Layout | None = None) -> Table:
    """One-shot table construction with an optional physical layout.

    Every row is checked and converted, one :meth:`Column.from_pylist`
    per column, before any partition id is allocated.
    """
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    return build_table_from_columns(name, schema,
                                    columns_from_rows(schema, rows),
                                    rows_per_partition, layout)


def concat_partitions(schema: Schema, partitions: Sequence[MicroPartition]
                      ) -> dict[str, Column]:
    """The partitions' columns end to end: a rewrite's input to
    :func:`build_table_from_columns`, no value converted."""
    return {f.name: Column.concat([p.column(f.name) for p in partitions])
            if partitions else Column.all_null(f.dtype, 0) for f in schema}


def build_table_from_columns(
        name: str, schema: Schema, columns: Mapping[str, Column],
        rows_per_partition: int = DEFAULT_ROWS_PER_PARTITION,
        layout: Layout | None = None) -> Table:
    """Build a table from whole-table columns keyed by schema name.

    Names, dtypes and lengths are checked once, before any partition id
    is allocated. NULL slots are reset to their dummy values (a
    rewritten column may hold anything there). Columns are permuted and
    cut one at a time, so beside the partitions at most one whole
    column is alive; each partition owns copies of its slices, so
    dropping it frees them. Zone maps are views of one
    :class:`~.zonemap.StatsBlock`.
    """
    if rows_per_partition <= 0:
        raise SchemaError("rows_per_partition must be positive")
    columns, n = checked_columns(schema, columns)
    for key, c in columns.items():
        if c.nulls.any():
            columns[key] = Column(c.dtype, np.where(
                c.nulls, _DUMMY[c.dtype], c.values), c.nulls)
    order = (layout.permutation(schema, columns, n)
             if layout is not None else None)
    if not n:
        return Table(name, schema)
    return Table(name, schema, cut_partitions(
        schema, columns, np.arange(0, n, rows_per_partition), order))


def cut_partitions(schema: Schema, columns: dict[str, Column],
                   starts: np.ndarray, order: np.ndarray | None = None,
                   ids: Sequence[int] | None = None
                   ) -> list[MicroPartition]:
    """Cut checked whole-table columns, popped one at a time and permuted
    by ``order`` if given, into a partition per slice from ``starts``
    (ascending, non-empty, the last to the end), ``ids`` or fresh ones."""
    n = len(next(iter(columns.values())))
    lows = starts.tolist()
    highs = lows[1:] + [n]  # no list of (low, high) tuples: GC-tracked
    block = StatsBlock(np.diff(starts, append=n))
    checksums, pieces = [0] * len(lows), {}
    for key in schema.names():
        c = columns.pop(key)
        if order is not None:
            c = c.take(order)
        block.add(key, c, starts)
        checksums = c.crc32_slices(starts, checksums)
        pieces[key] = [Column(c.dtype, c.values[a:b].copy(),
                              c.nulls[a:b].copy())
                       for a, b in zip(lows, highs)]
    ids = [None] * len(lows) if ids is None else ids
    return [MicroPartition(
        schema, {key: p[i] for key, p in pieces.items()},
        partition_id=ids[i],
        zone_map=ZoneMap(row_count, block=block, row=i),
        checksum=checksums[i], checked=True)
        for i, row_count in enumerate(block.row_counts.tolist())]
