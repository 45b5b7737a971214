"""Null-aware columnar vectors.

A :class:`Column` pairs a numpy value array with a boolean null mask
(``True`` marks NULL). Values under the mask are well-defined dummies
(0, 0.0, "", False) so vectorized kernels never see garbage; SQL
three-valued logic is implemented on top of the masks in
:mod:`repro.expr.eval`.
"""

from __future__ import annotations

import datetime
from operator import itemgetter
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import SchemaError, TypeMismatchError
from ..types import DataType, Schema, date_to_days, days_to_date

_DUMMY = {
    DataType.INTEGER: 0,
    DataType.DOUBLE: 0.0,
    DataType.VARCHAR: "",
    DataType.BOOLEAN: False,
    DataType.DATE: 0,
}

#: item types ``np.array`` converts exactly as the per-item loop would
_BULK_TYPES = {
    DataType.INTEGER: {int},
    DataType.DOUBLE: {float, int},
    DataType.VARCHAR: {str},
    DataType.BOOLEAN: {bool},
    DataType.DATE: {int},
}


class Column:
    """An immutable, typed vector of SQL values with a null mask."""

    __slots__ = ("dtype", "values", "nulls")

    def __init__(self, dtype: DataType, values: np.ndarray, nulls: np.ndarray):
        if len(values) != len(nulls):
            raise ValueError("values and nulls must have equal length")
        self.dtype = dtype
        self.values = values
        self.nulls = nulls

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pylist(cls, dtype: DataType, items: Sequence[Any]) -> "Column":
        """Build a column from Python scalars; ``None`` becomes NULL.

        DATE columns accept ``datetime.date`` objects or raw epoch-day
        integers. Items without NULLs whose types need no check or
        coercion convert in one ``np.array`` call; anything else takes
        the per-item loop.
        """
        n = len(items)
        nulls = np.zeros(n, dtype=np.bool_)
        if set(map(type, items)) <= _BULK_TYPES[dtype]:
            return cls(dtype, np.array(items, dtype=dtype.numpy_dtype()),
                       nulls)
        values = np.empty(n, dtype=dtype.numpy_dtype())
        dummy = _DUMMY[dtype]
        for i, item in enumerate(items):
            if item is None:
                nulls[i] = True
                values[i] = dummy
            else:
                values[i] = cls._coerce(dtype, item)
        return cls(dtype, values, nulls)

    @classmethod
    def from_numpy(cls, dtype: DataType, values: np.ndarray,
                   nulls: np.ndarray | None = None) -> "Column":
        """Wrap an existing numpy array (no copy) as a column."""
        values = np.asarray(values, dtype=dtype.numpy_dtype())
        if nulls is None:
            nulls = np.zeros(len(values), dtype=np.bool_)
        else:
            nulls = np.asarray(nulls, dtype=np.bool_)
        return cls(dtype, values, nulls)

    @classmethod
    def all_null(cls, dtype: DataType, length: int) -> "Column":
        """A column of ``length`` NULLs."""
        values = np.full(length, _DUMMY[dtype], dtype=dtype.numpy_dtype())
        return cls(dtype, values, np.ones(length, dtype=np.bool_))

    @classmethod
    def constant(cls, dtype: DataType, value: Any, length: int) -> "Column":
        """A column repeating one scalar (``None`` yields all NULLs)."""
        if value is None:
            return cls.all_null(dtype, length)
        values = np.empty(length, dtype=dtype.numpy_dtype())
        # fill, not np.full: that makes a str fixed-width first and so
        # drops its trailing NULs
        values.fill(cls._coerce(dtype, value))
        return cls(dtype, values, np.zeros(length, dtype=np.bool_))

    @staticmethod
    def _coerce(dtype: DataType, item: Any) -> Any:
        if dtype == DataType.DATE and isinstance(item, datetime.date):
            return date_to_days(item)
        if dtype == DataType.VARCHAR and not isinstance(item, str):
            raise TypeMismatchError(f"expected str for VARCHAR, got {item!r}")
        if dtype == DataType.BOOLEAN and not isinstance(
                item, (bool, np.bool_)):
            raise TypeMismatchError(
                f"expected bool for BOOLEAN, got {item!r}")
        return item

    # ------------------------------------------------------------------
    # Shape operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by integer indices."""
        return Column(self.dtype, self.values[indices], self.nulls[indices])

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where ``mask`` is True."""
        return Column(self.dtype, self.values[mask], self.nulls[mask])

    def slice(self, start: int, stop: int) -> "Column":
        return Column(self.dtype, self.values[start:stop],
                      self.nulls[start:stop])

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """Concatenate columns of the same dtype."""
        if not columns:
            raise ValueError("cannot concatenate zero columns")
        dtype = columns[0].dtype
        if any(c.dtype != dtype for c in columns):
            raise TypeMismatchError("concat requires uniform dtype")
        values = np.concatenate([c.values for c in columns])
        nulls = np.concatenate([c.nulls for c in columns])
        return cls(dtype, values, nulls)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def null_count(self) -> int:
        return int(self.nulls.sum())

    def is_all_null(self) -> bool:
        return bool(self.nulls.all()) if len(self) else False

    def value_at(self, i: int) -> Any:
        """The Python scalar at row ``i`` (``None`` for NULL)."""
        if self.nulls[i]:
            return None
        raw = self.values[i]
        if self.dtype == DataType.DATE:
            return days_to_date(int(raw))
        if self.dtype == DataType.INTEGER:
            return int(raw)
        if self.dtype == DataType.DOUBLE:
            return float(raw)
        if self.dtype == DataType.BOOLEAN:
            return bool(raw)
        return raw

    def to_pylist(self) -> list[Any]:
        """Materialize as Python scalars (``None`` for NULL).

        Bulk path: ``ndarray.tolist()`` converts to Python scalars in
        C, then NULL slots are overwritten (their raw values are
        garbage). DATE converts element-wise because NULL slots may
        hold values ``days_to_date`` would reject.
        """
        n = len(self)
        if n == 0:
            return []
        if self.dtype == DataType.DATE:
            out: list[Any] = [None] * n
            for i in np.flatnonzero(~self.nulls):
                out[int(i)] = days_to_date(int(self.values[i]))
            return out
        out = self.values.tolist()
        if self.nulls.any():
            for i in np.flatnonzero(self.nulls):
                out[int(i)] = None
        return out

    def crc32_slices(self, starts: np.ndarray,
                     states: Sequence[int]) -> list[int]:
        """Fold each slice starting at ``starts[i]`` (the last runs to
        the end) into the CRC-32 ``states[i]``: per-partition content
        checksums. VARCHAR values hash with a 4-byte length prefix
        (NULL is one ``0xff`` byte), fixed-width ones as their raw
        buffer, then the null mask, so NULL vs dummy-value differences
        are caught. The column is encoded once and cut per slice."""
        import zlib

        bounds = np.append(starts, len(self)).tolist()
        spans = zip(bounds, bounds[1:])
        if self.dtype == DataType.VARCHAR:
            # surrogatepass: lone surrogates are legal Python str
            # contents and must hash, not crash.
            chunks = [b"\xff" if is_null else len(
                e := v.encode("utf-8", "surrogatepass")).to_bytes(
                    4, "little") + e
                for v, is_null in zip(self.values.tolist(),
                                      self.nulls.tolist())]
            data = [b"".join(chunks[a:b]) for a, b in spans]
        else:  # bytes, not memoryviews or tuples: untracked by the GC
            raw, size = self.values.tobytes(), self.values.itemsize
            data = [raw[a * size:b * size] for a, b in spans]
        masks = self.nulls.tobytes()
        return [zlib.crc32(masks[a:b], zlib.crc32(piece, state))
                for state, piece, a, b in zip(states, data, bounds,
                                              bounds[1:])]

    def nbytes(self) -> int:
        """Approximate in-memory size, used by the storage cost model: a
        VARCHAR column counts the code points of its non-NULL values
        plus one per row (its offset), a fixed-width one its buffers."""
        return self.range_nbytes([0, len(self)])[0]

    def range_nbytes(self, bounds: Sequence[int]) -> list[int]:
        """:meth:`nbytes` of each row range ``bounds[i]:bounds[i + 1]``,
        in one pass."""
        sizes = np.ones(len(self) + 1, np.int64)
        sizes[0] = 0
        if self.dtype == DataType.VARCHAR:
            present = ~self.nulls
            sizes[1:][present] += np.fromiter(
                map(len, self.values[present].tolist()), np.int64)
        else:
            sizes[1:] += self.values.itemsize
        return np.diff(sizes.cumsum()[bounds]).tolist()

    def __repr__(self) -> str:
        preview = self.to_pylist()[:6]
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.dtype.value}>[{len(self)}]({preview}{suffix})"


def object_scalar(value: Any) -> np.ndarray:
    """``value`` as a 1-element object array, which an object lane
    compares with by Python: against a bare str numpy makes it a
    fixed-width string and drops trailing NULs."""
    return np.array([value], dtype=object)


def column_from_values(items: Iterable[Any],
                       dtype: DataType | None = None) -> Column:
    """Build a column, inferring the dtype from the first non-null item."""
    data = list(items)
    if dtype is None:
        from ..types import infer_type

        first = next((x for x in data if x is not None), None)
        if first is None:
            raise TypeMismatchError(
                "cannot infer dtype of an all-NULL column; pass dtype")
        dtype = infer_type(first)
    return Column.from_pylist(dtype, data)


def columns_from_rows(schema: Schema, rows: Sequence[Sequence[Any]]
                      ) -> dict[str, Column]:
    """Row tuples in schema order as columns, transposed and converted
    one column at a time (one :meth:`Column.from_pylist` each)."""
    wrong = set(map(len, rows)) - {len(schema)}
    if wrong:
        raise SchemaError(
            f"row has {min(wrong)} values, schema has {len(schema)}")
    return {f.name: Column.from_pylist(f.dtype, list(map(itemgetter(i),
                                                          rows)))
            for i, f in enumerate(schema)}
