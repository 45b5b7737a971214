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
        if not len(column):
            return cls(column.dtype, None, None, 0, 0)
        return cls.per_slice(column, [0])[0]

    @classmethod
    def per_slice(cls, column: Column,
                  starts: list[int]) -> list["ColumnStats"]:
        """Stats of each slice ``column[starts[i]:starts[i + 1]]`` (the
        last one runs to the end), min / max over non-NULL values in
        internal representation, NaN winning both: one reduceat pass per
        statistic with NULL slots masked by a value that cannot win, or
        Python's min / max per slice for VARCHAR.
        """
        stops = starts[1:] + [len(column)]
        nulls = column.nulls
        masked = nulls.any()
        null_counts = (np.add.reduceat(nulls, starts, dtype=np.int64).tolist()
                       if masked else [0] * len(starts))
        if column.dtype == DataType.VARCHAR:
            present = [column.values[start:stop][~nulls[start:stop]]
                       for start, stop in zip(starts, stops)]
            lows = [min(p, default=None) for p in present]
            highs = [max(p, default=None) for p in present]
        else:
            high, low = _EXTREMES[column.dtype]
            values = column.values
            lows = np.minimum.reduceat(
                np.where(nulls, high, values) if masked else values,
                starts).tolist()
            highs = np.maximum.reduceat(
                np.where(nulls, low, values) if masked else values,
                starts).tolist()
        return [cls(column.dtype,
                    lo if count < stop - start else None,
                    hi if count < stop - start else None,
                    count, stop - start)
                for lo, hi, count, start, stop
                in zip(lows, highs, null_counts, starts, stops)]

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


#: backwards-compatible alias (pre-1.10 internal name)
_round_up = prefix_successor


class ZoneMap:
    """Partition-level metadata: row count plus per-column stats."""

    __slots__ = ("row_count", "columns")

    def __init__(self, row_count: int, columns: Mapping[str, ColumnStats]):
        self.row_count = row_count
        self.columns: dict[str, ColumnStats] = dict(columns)

    @classmethod
    def from_columns(cls, columns: Mapping[str, Column]) -> "ZoneMap":
        """Compute a zone map from materialized column data."""
        stats = {name: ColumnStats.from_column(col)
                 for name, col in columns.items()}
        row_count = 0
        for col in columns.values():
            row_count = len(col)
            break
        return cls(row_count, stats)

    def stats(self, name: str) -> ColumnStats:
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise MetadataError(f"no stats for column {name!r}") from None

    def has_stats(self, name: str) -> bool:
        stats = self.columns.get(name.lower())
        return stats is not None and stats.present

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
