"""SQL type system shared by storage, expressions, and the planner.

The engine supports a compact but realistic set of SQL types:

* ``INTEGER`` — 64-bit signed integers,
* ``DOUBLE``  — IEEE-754 doubles,
* ``VARCHAR`` — unicode strings,
* ``BOOLEAN`` — SQL booleans,
* ``DATE``    — calendar dates, stored as days since 1970-01-01.

SQL ``NULL`` is represented out-of-band by null masks (see
:mod:`repro.storage.column`); scalar Python ``None`` stands for NULL at
API boundaries.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .errors import SchemaError, TypeMismatchError

_EPOCH = datetime.date(1970, 1, 1)


class DataType(enum.Enum):
    """SQL data types supported by the engine."""

    INTEGER = "INTEGER"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"

    @property
    def is_numeric(self) -> bool:
        """Whether arithmetic applies (INTEGER or DOUBLE)."""
        return self in (DataType.INTEGER, DataType.DOUBLE)

    def numpy_dtype(self) -> np.dtype:
        """The numpy storage dtype backing a column of this type."""
        return _NUMPY_DTYPES[self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


_NUMPY_DTYPES = {
    DataType.INTEGER: np.dtype(np.int64),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.VARCHAR: np.dtype(object),
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.DATE: np.dtype(np.int64),
}


def date_to_days(value: datetime.date) -> int:
    """Convert a ``datetime.date`` to its internal days-since-epoch form."""
    return (value - _EPOCH).days


def days_to_date(days: int) -> datetime.date:
    """Convert internal days-since-epoch back to a ``datetime.date``."""
    return _EPOCH + datetime.timedelta(days=int(days))


def infer_type(value: Any) -> DataType:
    """Infer the SQL type of a Python scalar.

    Raises:
        TypeMismatchError: if the value has no SQL equivalent.
    """
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return DataType.BOOLEAN
    if isinstance(value, (int, np.integer)):
        return DataType.INTEGER
    if isinstance(value, (float, np.floating)):
        return DataType.DOUBLE
    if isinstance(value, str):
        return DataType.VARCHAR
    if isinstance(value, datetime.date):
        return DataType.DATE
    raise TypeMismatchError(f"no SQL type for Python value {value!r}")


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """Numeric type promotion: INTEGER op DOUBLE -> DOUBLE.

    Raises:
        TypeMismatchError: if either side is not numeric.
    """
    if not (left.is_numeric and right.is_numeric):
        raise TypeMismatchError(
            f"expected numeric types, got {left.value} and {right.value}"
        )
    if DataType.DOUBLE in (left, right):
        return DataType.DOUBLE
    return DataType.INTEGER


def comparable(left: DataType, right: DataType) -> bool:
    """Whether values of the two types may be compared with =, <, etc."""
    if left == right:
        return True
    return left.is_numeric and right.is_numeric


@dataclass(frozen=True)
class Field:
    """A named, typed column in a schema."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")


class Schema:
    """An ordered collection of fields with case-insensitive name lookup.

    Column names are normalized to lower case, mirroring how SQL
    identifiers behave in most engines.
    """

    def __init__(self, fields: Iterable[Field]):
        self.fields: tuple[Field, ...] = tuple(
            Field(f.name.lower(), f.dtype) for f in fields
        )
        self._index: dict[str, int] = {}
        for i, field in enumerate(self.fields):
            if field.name in self._index:
                raise SchemaError(f"duplicate column name {field.name!r}")
            self._index[field.name] = i

    @classmethod
    def of(cls, **columns: DataType) -> "Schema":
        """Convenience constructor: ``Schema.of(a=DataType.INTEGER, ...)``."""
        return cls(Field(name, dtype) for name, dtype in columns.items())

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def names(self) -> list[str]:
        """Column names in schema order."""
        return [f.name for f in self.fields]

    def index_of(self, name: str) -> int:
        """Position of a column, raising :class:`SchemaError` if absent."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; available: {self.names()}"
            ) from None

    def field(self, name: str) -> Field:
        """The named field (case-insensitive)."""
        return self.fields[self.index_of(name)]

    def dtype_of(self, name: str) -> DataType:
        """The named column's SQL type."""
        return self.field(name).dtype

    def select(self, names: Iterable[str]) -> "Schema":
        """A new schema containing only the given columns, in order."""
        return Schema(self.field(n) for n in names)

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (used by joins); names must not clash."""
        return Schema(list(self.fields) + list(other.fields))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name} {f.dtype.value}" for f in self.fields)
        return f"Schema({inner})"
