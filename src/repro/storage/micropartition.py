"""Micro-partitions: immutable PAX-style horizontal chunks of a table.

Each micro-partition stores its rows column-wise, as one row range of
a :class:`ColumnBlock` (a build's whole columns), and carries a
:class:`~repro.storage.zonemap.ZoneMap` computed at write time. Data is
never mutated in place — matching Snowflake's immutable micro-partition
design, where DML rewrites whole partitions (§2) — and a build's blocks
are read-only arrays.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..errors import CorruptionError, SchemaError
from ..types import Schema
from .column import Column, columns_from_rows
from .zonemap import ZoneMap


class _IdGenerator:
    """Monotonic partition-id source with a raisable floor.

    Loading a persisted catalog must not hand out ids that collide
    with already-stored partitions, so deserialization raises the
    floor past the largest loaded id.
    """

    def __init__(self) -> None:
        self._next = 1

    def __call__(self) -> int:
        value = self._next
        self._next += 1
        return value

    def ensure_floor(self, floor: int) -> None:
        self._next = max(self._next, floor + 1)


partition_id_generator = _IdGenerator()


def checked_columns(schema: Schema, columns: Mapping[str, Column]
                    ) -> tuple[dict[str, Column], int]:
    """``columns`` keyed by lower-case name and their one length, or a
    SchemaError: names, dtypes or lengths that do not fit."""
    normalized = {name.lower(): col for name, col in columns.items()}
    if set(normalized) != set(schema.names()):
        raise SchemaError(
            f"columns {sorted(normalized)} do not match schema "
            f"{schema.names()}")
    lengths = {len(col) for col in normalized.values()}
    if len(lengths) > 1:
        raise SchemaError(f"ragged column lengths: {sorted(lengths)}")
    for field in schema:
        if normalized[field.name].dtype != field.dtype:
            raise SchemaError(
                f"column {field.name!r} has dtype "
                f"{normalized[field.name].dtype}, schema says "
                f"{field.dtype}")
    return normalized, lengths.pop() if lengths else 0


class ColumnBlock(dict):
    """One build's whole columns (read-only arrays once a build cut
    them) and the row bounds of its partitions: row ``i`` of the block
    is rows ``bounds[i]`` to ``bounds[i + 1]``. As a mapping,
    ``block[name][i]`` is row ``i``'s :meth:`Column.nbytes` of that
    column, the column's list computed on first read."""

    __slots__ = ("columns", "bounds")

    def __init__(self, columns: dict[str, Column], bounds: list[int]):
        self.columns, self.bounds = columns, bounds

    def __missing__(self, name: str) -> list[int]:
        self[name] = sizes = self.columns[name].range_nbytes(self.bounds)
        return sizes

    def views(self, names: Iterable[str], low: int, high: int
              ) -> dict[str, Column]:
        """The named columns over rows ``low`` to ``high`` (exclusive)
        of the block, uncopied."""
        a, b = self.bounds[low], self.bounds[high]
        return {name: self.columns[name].slice(a, b) for name in names}


class MicroPartition:
    """An immutable columnar chunk with zone-map metadata: row ``_row``
    of a :class:`ColumnBlock`. Its column views are made on first read
    and kept in ``_columns``; hot paths read that slot directly."""

    __slots__ = ("partition_id", "schema", "_block", "_row", "_columns",
                 "zone_map", "checksum")

    def __init__(self, schema: Schema, columns: Mapping[str, Column],
                 partition_id: int | None = None,
                 zone_map: ZoneMap | None = None,
                 checksum: int | None = None):
        normalized, n = checked_columns(schema, columns)
        self.partition_id = (
            partition_id if partition_id is not None
            else partition_id_generator())
        self.schema = schema
        self._block, self._row = ColumnBlock(normalized, [0, n]), 0
        self._columns = normalized
        self.zone_map = zone_map or ZoneMap.from_columns(normalized)
        # Content checksum computed at build (write) time;
        # :meth:`verify_integrity` checks the content against it.
        self.checksum = (checksum if checksum is not None
                         else self.compute_checksum())

    @classmethod
    def of_block(cls, schema: Schema, block: ColumnBlock, row: int,
                 partition_id: int | None, zone_map: ZoneMap,
                 checksum: int) -> "MicroPartition":
        """Row ``row`` of ``block``, whose columns were checked against
        ``schema`` once for the whole build; no view made yet."""
        self = cls.__new__(cls)
        self.partition_id = (partition_id if partition_id is not None
                             else partition_id_generator())
        self.schema, self._block, self._row = schema, block, row
        self._columns, self.zone_map, self.checksum = None, zone_map, checksum
        return self

    def _cut(self) -> dict[str, Column]:
        self._columns = self._block.views(self._block.columns, self._row,
                                          self._row + 1)
        return self._columns

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence[Any]],
                  partition_id: int | None = None) -> "MicroPartition":
        """Build a partition from row tuples in schema order."""
        return cls(schema, columns_from_rows(schema, rows),
                   partition_id=partition_id)

    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self.zone_map.row_count

    def column(self, name: str) -> Column:
        try:
            return (self._columns or self._cut())[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r} in partition "
                f"{self.partition_id}") from None

    def columns(self) -> dict[str, Column]:
        """Every column keyed by name, as a new dict."""
        return dict(self._columns or self._cut())

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize as Python row tuples in schema order."""
        columns = self._columns or self._cut()
        cols = [columns[f.name].to_pylist() for f in self.schema]
        return list(zip(*cols)) if cols else []

    def nbytes(self) -> int:
        """Approximate uncompressed size, used for I/O accounting."""
        return project_bytes([self], None)

    def project_bytes(self, names: Sequence[str] | None) -> int:
        """Size of just the named columns (PAX enables column-level
        reads); ``None`` names them all."""
        return project_bytes([self], names)

    def compute_checksum(self) -> int:
        """CRC-32 over every column's values and null masks.

        Column order follows the schema, so logically equal partitions
        checksum identically regardless of construction order.
        """
        columns, state = self._columns or self._cut(), 0
        for field in self.schema:
            state = columns[field.name].crc32_slices([0], [state])[0]
        return state

    def verify_integrity(self) -> None:
        """Recompute the checksum and compare against the stored one.

        Raises:
            CorruptionError: when the content no longer matches the
                checksum computed at build time.
        """
        actual = self.compute_checksum()
        if actual != self.checksum:
            raise CorruptionError(
                f"partition {self.partition_id} failed checksum "
                f"verification (expected {self.checksum:#010x}, "
                f"got {actual:#010x})",
                partition_id=self.partition_id)

    def with_zone_map(self, zone_map: ZoneMap) -> "MicroPartition":
        """A view of this partition carrying different metadata.

        Used to simulate files that were written without statistics.
        """
        return MicroPartition.of_block(
            self.schema, self._block, self._row, self.partition_id,
            zone_map, self.checksum)

    def recompute_zone_map(self) -> ZoneMap:
        """Scan the data and rebuild complete metadata (backfill, §8.1)."""
        return ZoneMap.from_columns(self._columns or self._cut())

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        return (f"MicroPartition(id={self.partition_id}, "
                f"rows={self.row_count}, cols={self.schema.names()})")


def project_bytes(partitions: Sequence[MicroPartition],
                  names: Sequence[str] | None) -> int:
    """The named columns' size summed over ``partitions`` (``None``
    names them all), read from their blocks with no call per
    partition."""
    lowered = None if names is None else [n.lower() for n in names]
    try:
        return sum([p._block[n][p._row] for p in partitions
                    for n in (p._block.columns if lowered is None
                              else lowered)])
    except KeyError as missing:
        raise SchemaError(f"unknown column {missing}") from None


def concat_columns(schema: Schema, partitions: Sequence[MicroPartition]
                   ) -> dict[str, Column]:
    """``schema``'s columns of ``partitions`` end to end, no value
    converted: one partition's are its own views, consecutive rows of
    one block are one view of it, anything else is concatenated."""
    names = schema.names()
    if not partitions:
        return {f.name: Column.all_null(f.dtype, 0) for f in schema}
    first = partitions[0]
    if len(partitions) == 1:
        columns = first._columns or first._cut()
        return {name: columns[name] for name in names}
    block, row, count = first._block, first._row, len(partitions)
    # lists, not generators: no Python call per partition
    if all([p._block is block for p in partitions]) and \
            [p._row for p in partitions] == list(range(row, row + count)):
        return block.views(names, row, row + count)
    return {name: Column.concat([(p._columns or p._cut())[name]
                                 for p in partitions]) for name in names}
