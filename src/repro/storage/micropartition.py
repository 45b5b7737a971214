"""Micro-partitions: immutable PAX-style horizontal chunks of a table.

Each micro-partition stores its rows column-wise and carries a
:class:`~repro.storage.zonemap.ZoneMap` computed at write time. Data is
never mutated in place — matching Snowflake's immutable micro-partition
design, where DML rewrites whole partitions (§2).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..errors import CorruptionError, SchemaError
from ..types import DataType, Schema
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


class MicroPartition:
    """An immutable columnar chunk with zone-map metadata."""

    __slots__ = ("partition_id", "schema", "_columns", "zone_map",
                 "checksum")

    def __init__(self, schema: Schema, columns: Mapping[str, Column],
                 partition_id: int | None = None,
                 zone_map: ZoneMap | None = None,
                 checksum: int | None = None, checked: bool = False):
        # a build checks its columns once per table, not per partition
        normalized = (columns if checked
                      else checked_columns(schema, columns)[0])
        self.partition_id = (
            partition_id if partition_id is not None
            else partition_id_generator())
        self.schema = schema
        self._columns = normalized
        self.zone_map = zone_map or ZoneMap.from_columns(normalized)
        # Content checksum computed at build (write) time;
        # :meth:`verify_integrity` checks the content against it.
        self.checksum = (checksum if checksum is not None
                         else self.compute_checksum())

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
            return self._columns[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r} in partition "
                f"{self.partition_id}") from None

    def columns(self, names: Sequence[str] | None = None
                ) -> dict[str, Column]:
        """Columns keyed by name, as a new dict: all of them, or the
        (lower-case) ``names`` in that order."""
        if names is None:
            return dict(self._columns)
        return {name: self._columns[name] for name in names}

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize as Python row tuples in schema order."""
        cols = [self._columns[f.name].to_pylist() for f in self.schema]
        return list(zip(*cols)) if cols else []

    def nbytes(self) -> int:
        """Approximate uncompressed size, used for I/O accounting."""
        return sum(col.nbytes() for col in self._columns.values())

    def project_bytes(self, names: Sequence[str] | None) -> int:
        """Size of just the named columns (PAX enables column-level
        reads); ``None`` names them all."""
        return project_bytes([self], names)

    def compute_checksum(self) -> int:
        """CRC-32 over every column's values and null masks.

        Column order follows the schema, so logically equal partitions
        checksum identically regardless of construction order.
        """
        state = 0
        for field in self.schema:
            state = self._columns[field.name].crc32_slices([0], [state])[0]
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
        return MicroPartition(self.schema, self._columns,
                              partition_id=self.partition_id,
                              zone_map=zone_map,
                              checksum=self.checksum)

    def recompute_zone_map(self) -> ZoneMap:
        """Scan the data and rebuild complete metadata (backfill, §8.1)."""
        return ZoneMap.from_columns(self._columns)

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        return (f"MicroPartition(id={self.partition_id}, "
                f"rows={self.row_count}, cols={self.schema.names()})")


def project_bytes(partitions: Sequence[MicroPartition],
                  names: Sequence[str] | None) -> int:
    """The named columns' size summed over ``partitions`` (``None``
    names them all), with no call per partition."""
    try:
        columns = ([c for p in partitions for c in p._columns.values()]
                   if names is None else
                   [p._columns[n] for n in map(str.lower, names)
                    for p in partitions])
    except KeyError as missing:
        raise SchemaError(f"unknown column {missing}") from None
    return sum(map(Column.nbytes, columns))


def concat_columns(partitions: Sequence[MicroPartition],
                   names: Sequence[str]) -> dict[str, Column]:
    """The (lower-case) named columns of ``partitions`` end to end; one
    partition's are its own, uncopied."""
    if len(partitions) == 1:
        return partitions[0].columns(names)
    return {name: Column.concat([p._columns[name] for p in partitions])
            for name in names}
