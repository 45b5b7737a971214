"""Tables: named collections of micro-partitions."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..errors import SchemaError
from ..types import Schema
from .micropartition import MicroPartition


class Table:
    """A horizontally partitioned table.

    A table is a name, a schema, and an ordered list of micro-partitions.
    The partition list is append-only from the caller's perspective;
    DML rewrites partitions wholesale (see :class:`repro.catalog.Catalog`).

    Every table carries a monotonically increasing :attr:`version`,
    bumped by the catalog whenever DML or reclustering changes the
    table's contents. Version numbers are the result cache's
    invalidation signal (a cached result is valid only while every
    referenced table still has the version it was computed at) and
    appear in EXPLAIN output.
    """

    def __init__(self, name: str, schema: Schema,
                 partitions: Iterable[MicroPartition] = (),
                 version: int = 1):
        self.name = name.lower()
        self.schema = schema
        self._partitions: list[MicroPartition] = []
        #: a snapshot restores the version it was saved at
        self._version = version
        for partition in partitions:
            self.add_partition(partition)

    @property
    def version(self) -> int:
        """Monotonic data version; changes whenever contents change."""
        return self._version

    def bump_version(self) -> int:
        """Advance the data version (catalog-internal); returns it."""
        self._version += 1
        return self._version

    def add_partition(self, partition: MicroPartition) -> None:
        if (partition.schema is not self.schema
                and partition.schema != self.schema):
            raise SchemaError(
                f"partition schema {partition.schema} does not match table "
                f"{self.name!r} schema {self.schema}")
        self._partitions.append(partition)

    def remove_partition(self, partition_id: int) -> MicroPartition:
        for i, partition in enumerate(self._partitions):
            if partition.partition_id == partition_id:
                return self._partitions.pop(i)
        raise SchemaError(
            f"table {self.name!r} has no partition {partition_id}")

    def replace_partitions(
            self, partitions: Sequence[MicroPartition]) -> None:
        """Swap in a new partition list (used by DML rewrites)."""
        self._partitions = []
        for partition in partitions:
            self.add_partition(partition)

    @property
    def partitions(self) -> list[MicroPartition]:
        return list(self._partitions)

    @property
    def partition_ids(self) -> list[int]:
        return [p.partition_id for p in self._partitions]

    def partition(self, partition_id: int) -> MicroPartition:
        for p in self._partitions:
            if p.partition_id == partition_id:
                return p
        raise SchemaError(
            f"table {self.name!r} has no partition {partition_id}")

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def row_count(self) -> int:
        return sum(p.row_count for p in self._partitions)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialize all rows (testing only; no product path calls it)."""
        rows: list[tuple[Any, ...]] = []
        for partition in self._partitions:
            rows.extend(partition.to_rows())
        return rows

    def __repr__(self) -> str:
        return (f"Table({self.name!r}, partitions={self.num_partitions}, "
                f"rows={self.row_count})")
