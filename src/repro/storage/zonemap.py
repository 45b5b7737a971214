"""Zone maps / small materialized aggregates (SMAs).

Per micro-partition, the engine keeps lightweight metadata for each
column: minimum, maximum, and null count — exactly the information the
paper's pruning techniques rely on (§2.1). A :class:`ZoneMap` bundles
the per-column stats with the partition row count.

Stats may be *absent* (``ColumnStats.unknown``): Parquet files written
without statistics have no usable metadata until it is backfilled
(§8.1). Absent stats make every pruning question answer "maybe".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..errors import MetadataError
from ..types import DataType
from .column import Column

_INT64 = np.iinfo(np.int64)
#: (above every value, below every value) per fixed-width type
_EXTREMES = {
    DataType.INTEGER: (_INT64.max, _INT64.min),
    DataType.DATE: (_INT64.max, _INT64.min),
    DataType.DOUBLE: (np.inf, -np.inf),
    DataType.BOOLEAN: (True, False),
}


@dataclass(frozen=True)
class ColumnStats:
    """Min/max/null metadata for one column of one micro-partition.

    ``min_value``/``max_value`` are in internal representation (epoch
    days for DATE) and are ``None`` when the column is all-NULL *or*
    when stats are missing; ``present`` distinguishes the two cases.
    """

    dtype: DataType
    min_value: Any
    max_value: Any
    null_count: int
    row_count: int
    present: bool = True

    @classmethod
    def from_column(cls, column: Column) -> "ColumnStats":
        return ZoneMap.from_columns({"c": column}).stats("c")

    @classmethod
    def unknown(cls, dtype: DataType, row_count: int) -> "ColumnStats":
        """Placeholder for missing statistics (no pruning possible)."""
        return cls(
            dtype=dtype,
            min_value=None,
            max_value=None,
            null_count=0,
            row_count=row_count,
            present=False,
        )

    @property
    def has_nulls(self) -> bool:
        return self.null_count > 0

    @property
    def all_null(self) -> bool:
        return self.present and self.null_count == self.row_count

    @property
    def has_values(self) -> bool:
        """Whether the column is known to contain at least one non-NULL."""
        return self.present and self.min_value is not None

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        """Combine stats of two partitions (used for file-level metadata)."""
        if self.dtype != other.dtype:
            raise MetadataError(
                f"cannot merge stats of {self.dtype} with {other.dtype}")
        if not (self.present and other.present):
            return ColumnStats.unknown(
                self.dtype, self.row_count + other.row_count)
        if self.min_value is None:
            lo, hi = other.min_value, other.max_value
        elif other.min_value is None:
            lo, hi = self.min_value, self.max_value
        else:
            lo = min(self.min_value, other.min_value)
            hi = max(self.max_value, other.max_value)
        return ColumnStats(
            dtype=self.dtype,
            min_value=lo,
            max_value=hi,
            null_count=self.null_count + other.null_count,
            row_count=self.row_count + other.row_count,
        )


#: Largest unicode code point, used to round truncated upper bounds up.
_MAX_CODEPOINT = "\U0010ffff"


def truncate_string_stats(stats: ColumnStats,
                          max_length: int) -> ColumnStats:
    """Truncate VARCHAR min/max to bounded length, staying sound.

    Real metadata stores bound the size of string statistics (Parquet
    truncates column-index values, Snowflake clips long strings). The
    minimum may simply be cut — a prefix sorts <= the full string — but
    the maximum must be *rounded up* after cutting so it still bounds
    every value: we increment the last kept character, falling back to
    appending the maximal code point if the prefix is already maximal.
    """
    if stats.dtype != DataType.VARCHAR or not stats.present:
        return stats
    lo, hi = stats.min_value, stats.max_value
    changed = False
    if lo is not None and len(lo) > max_length:
        lo = lo[:max_length]
        changed = True
    if hi is not None and len(hi) > max_length:
        rounded = prefix_successor(hi[:max_length])
        if rounded is None:
            # Every kept character is already the maximal code point:
            # no bounded-length upper bound exists, so keep the full
            # value (what Parquet does when truncation cannot produce
            # a valid bound).
            rounded = hi
        hi = rounded
        changed = True
    if not changed:
        return stats
    return ColumnStats(
        dtype=stats.dtype, min_value=lo, max_value=hi,
        null_count=stats.null_count, row_count=stats.row_count)


def prefix_successor(prefix: str) -> str | None:
    """Smallest convenient string > every string starting with prefix.

    Increments the last non-maximal character and truncates there, so
    strings with the prefix form the half-open interval
    ``[prefix, prefix_successor(prefix))``. Returns None when no such
    bounded string exists (every character is already the maximal code
    point — the interval is ``[prefix, +inf)``). Shared by string-stat
    truncation and prefix pruning (``expr/ranges.py``,
    ``pruning/stats_index.py``), which must agree exactly.
    """
    chars = list(prefix)
    for i in range(len(chars) - 1, -1, -1):
        if chars[i] != _MAX_CODEPOINT:
            chars[i] = chr(ord(chars[i]) + 1)
            return "".join(chars[: i + 1])
    return None


class StatsBlock:
    """One build's zone-map statistics as lanes: per column, the min and
    max over non-NULL values (internal representation, NaN winning
    both; meaningless where the NULL count reaches the row count) and
    the NULL count of each slice, beside ``row_counts``. Zone maps are
    views of one row; the stats index gathers the lanes directly."""

    __slots__ = ("row_counts", "lanes")

    def __init__(self, row_counts: np.ndarray):
        self.row_counts = row_counts
        #: name -> (dtype, lows, highs, null counts)
        self.lanes: dict[str, tuple] = {}

    def add(self, name: str, column: Column, starts: np.ndarray) -> None:
        """Reduce the slices of ``column`` starting at ``starts`` (the
        last runs to the end) into lanes: one reduceat pass per lane,
        NULL slots masked by a value that cannot win, or Python's min /
        max per slice for VARCHAR."""
        nulls, masked = column.nulls, column.nulls.any()
        counts = (np.add.reduceat(nulls, starts, dtype=np.int64)
                  if masked else np.zeros(len(starts), dtype=np.int64))
        if column.dtype == DataType.VARCHAR:
            stops = starts[1:].tolist() + [len(column)]
            present = [column.values[start:stop][~nulls[start:stop]]
                       for start, stop in zip(starts.tolist(), stops)]
            lows = np.array([min(p, default=None) for p in present],
                            dtype=object)
            highs = np.array([max(p, default=None) for p in present],
                             dtype=object)
        else:
            high, low = _EXTREMES[column.dtype]
            values = column.values
            lows = np.minimum.reduceat(
                np.where(nulls, high, values) if masked else values, starts)
            highs = np.maximum.reduceat(
                np.where(nulls, low, values) if masked else values, starts)
        self.lanes[name] = (column.dtype, lows, highs, counts)

    def stats(self, row: int, name: str) -> ColumnStats:
        """Row ``row``'s stats of column ``name`` as Python values."""
        dtype, lows, highs, nulls = self.lanes[name]
        count, rows = nulls.item(row), self.row_counts.item(row)
        if count < rows:
            return ColumnStats(dtype, lows.item(row), highs.item(row),
                               count, rows)
        return ColumnStats(dtype, None, None, count, rows)


class ZoneMap:
    """Partition-level metadata: row count plus per-column stats, given
    as ``columns`` or a view of row ``row`` of a :class:`StatsBlock`
    whose :class:`ColumnStats` are materialised on first read."""

    __slots__ = ("row_count", "block", "row", "_stats")

    def __init__(self, row_count: int,
                 columns: Mapping[str, ColumnStats] | None = None,
                 block: StatsBlock | None = None, row: int = 0):
        self.row_count, self.block, self.row = row_count, block, row
        self._stats: dict[str, ColumnStats] | None = (
            None if block is not None else dict(columns or {}))

    @classmethod
    def from_columns(cls, columns: Mapping[str, Column]) -> "ZoneMap":
        """Compute a zone map from materialized column data."""
        n = len(next(iter(columns.values()), ()))
        if not n:  # nothing to reduce
            return cls(0, {name: ColumnStats(c.dtype, None, None, 0, 0)
                           for name, c in columns.items()})
        block = StatsBlock(np.array([n]))
        for name, column in columns.items():
            block.add(name, column, np.zeros(1, dtype=np.intp))
        return cls(n, {name: block.stats(0, name) for name in columns})

    @property
    def columns(self) -> dict[str, ColumnStats]:
        """Stats by column name (a view materialises every column)."""
        stats = self._stats
        if self.block is not None and len(stats or ()) < len(self.block.lanes):
            stats = {name: self.stats(name) for name in self.block.lanes}
            self._stats = stats
        return stats

    def stats(self, name: str) -> ColumnStats:
        key = name.lower()
        stats = (self._stats or {}).get(key)
        if stats is None:
            if self.block is None or key not in self.block.lanes:
                raise MetadataError(f"no stats for column {name!r}")
            stats = self.block.stats(self.row, key)
            # a new dict, not an insert: readers never see it change
            self._stats = {**(self._stats or {}), key: stats}
        return stats

    def has_stats(self, name: str) -> bool:
        try:
            return self.stats(name).present
        except MetadataError:
            return False

    def with_truncated_strings(self, max_length: int = 32) -> "ZoneMap":
        """A copy whose VARCHAR stats are length-bounded (still sound)."""
        return ZoneMap(
            self.row_count,
            {name: truncate_string_stats(s, max_length)
             for name, s in self.columns.items()},
        )

    def without_stats(self) -> "ZoneMap":
        """A copy whose column stats are all marked missing.

        Models Parquet files written without statistics (§8.1).
        """
        return ZoneMap(
            self.row_count,
            {
                name: ColumnStats.unknown(s.dtype, s.row_count)
                for name, s in self.columns.items()
            },
        )

    def merge(self, other: "ZoneMap") -> "ZoneMap":
        """Union of two zone maps covering disjoint row sets."""
        if set(self.columns) != set(other.columns):
            raise MetadataError("zone maps cover different column sets")
        merged = {
            name: stats.merge(other.columns[name])
            for name, stats in self.columns.items()
        }
        return ZoneMap(self.row_count + other.row_count, merged)

    def nbytes(self) -> int:
        """Approximate serialized metadata size (for the cost model)."""
        size = 8  # row count
        for name, stats in self.columns.items():
            size += len(name) + 16 + 8  # min + max + null count
        return size

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{n}=[{s.min_value!r}..{s.max_value!r}]"
            for n, s in self.columns.items()
        )
        return f"ZoneMap(rows={self.row_count}, {cols})"
