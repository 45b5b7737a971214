"""Tests for null-aware columnar vectors."""

import datetime

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.storage.column import Column, column_from_values
from repro.storage.zonemap import ColumnStats
from repro.types import DataType


class TestConstruction:
    def test_from_pylist_ints(self):
        col = Column.from_pylist(DataType.INTEGER, [1, None, 3])
        assert len(col) == 3
        assert col.null_count() == 1
        assert col.to_pylist() == [1, None, 3]

    def test_from_pylist_strings(self):
        col = Column.from_pylist(DataType.VARCHAR, ["a", None, "c"])
        assert col.to_pylist() == ["a", None, "c"]

    def test_from_pylist_dates(self):
        d = datetime.date(2024, 11, 5)
        col = Column.from_pylist(DataType.DATE, [d, None])
        assert col.to_pylist() == [d, None]
        # stored internally as epoch days
        assert col.values[0] == (d - datetime.date(1970, 1, 1)).days

    def test_varchar_rejects_non_string(self):
        with pytest.raises(TypeMismatchError):
            Column.from_pylist(DataType.VARCHAR, [1])

    def test_boolean_rejects_non_bool(self):
        with pytest.raises(TypeMismatchError):
            Column.from_pylist(DataType.BOOLEAN, [1])

    def test_all_null(self):
        col = Column.all_null(DataType.DOUBLE, 4)
        assert col.is_all_null()
        assert col.to_pylist() == [None] * 4

    def test_constant(self):
        col = Column.constant(DataType.INTEGER, 9, 3)
        assert col.to_pylist() == [9, 9, 9]

    def test_constant_none_is_all_null(self):
        col = Column.constant(DataType.VARCHAR, None, 2)
        assert col.is_all_null()

    def test_from_numpy_no_copy(self):
        values = np.array([1, 2, 3], dtype=np.int64)
        col = Column.from_numpy(DataType.INTEGER, values)
        assert col.to_pylist() == [1, 2, 3]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Column(DataType.INTEGER, np.zeros(3, dtype=np.int64),
                   np.zeros(2, dtype=np.bool_))

    def test_infer_dtype_helper(self):
        col = column_from_values([None, 2, 3])
        assert col.dtype == DataType.INTEGER

    def test_infer_all_null_requires_dtype(self):
        with pytest.raises(TypeMismatchError):
            column_from_values([None, None])


class TestShapeOps:
    def test_take(self):
        col = Column.from_pylist(DataType.INTEGER, [10, 20, None, 40])
        taken = col.take(np.array([3, 0, 2]))
        assert taken.to_pylist() == [40, 10, None]

    def test_filter(self):
        col = Column.from_pylist(DataType.VARCHAR, ["a", "b", "c"])
        mask = np.array([True, False, True])
        assert col.filter(mask).to_pylist() == ["a", "c"]

    def test_slice(self):
        col = Column.from_pylist(DataType.INTEGER, [0, 1, 2, 3, 4])
        assert col.slice(1, 3).to_pylist() == [1, 2]

    def test_concat(self):
        a = Column.from_pylist(DataType.INTEGER, [1, None])
        b = Column.from_pylist(DataType.INTEGER, [3])
        assert Column.concat([a, b]).to_pylist() == [1, None, 3]

    def test_concat_dtype_mismatch(self):
        a = Column.from_pylist(DataType.INTEGER, [1])
        b = Column.from_pylist(DataType.DOUBLE, [1.0])
        with pytest.raises(TypeMismatchError):
            Column.concat([a, b])

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError):
            Column.concat([])


def min_max(column):
    stats = ColumnStats.from_column(column)
    return stats.min_value, stats.max_value


class TestMinMax:
    def test_ints_ignore_nulls(self):
        col = Column.from_pylist(DataType.INTEGER, [None, 5, 2, None, 9])
        assert min_max(col) == (2, 9)

    def test_strings(self):
        col = Column.from_pylist(DataType.VARCHAR,
                                 ["pear", "apple", "fig"])
        assert min_max(col) == ("apple", "pear")

    def test_all_null_returns_none(self):
        col = Column.all_null(DataType.INTEGER, 3)
        assert min_max(col) == (None, None)

    def test_empty_returns_none(self):
        col = Column.from_pylist(DataType.INTEGER, [])
        assert min_max(col) == (None, None)

    def test_booleans(self):
        col = Column.from_pylist(DataType.BOOLEAN, [True, False])
        assert min_max(col) == (False, True)

    def test_date_min_max_internal(self):
        d1, d2 = datetime.date(2020, 1, 1), datetime.date(2021, 1, 1)
        col = Column.from_pylist(DataType.DATE, [d2, d1])
        lo, hi = min_max(col)
        assert lo < hi  # epoch days
        assert isinstance(lo, int)


class TestSizes:
    def test_numeric_nbytes(self):
        col = Column.from_pylist(DataType.INTEGER, list(range(100)))
        assert col.nbytes() == 100 * 8 + 100

    def test_varchar_nbytes_counts_payload(self):
        col = Column.from_pylist(DataType.VARCHAR, ["abc", None, "x"])
        assert col.nbytes() == 4 + 3

    @pytest.mark.parametrize("items", [
        [],
        [None, None],
        ["", None, ""],
        ["a\ud800b", "\udfff", None, "ok"],
        ["x\x00", "\x00\x00", None, "é\x00"],
        ["\U0010ffff", "ＡＢＣ", "", None],
    ])
    def test_varchar_nbytes_is_code_points_plus_one_per_row(self, items):
        col = Column.from_pylist(DataType.VARCHAR, items)
        assert col.nbytes() == (
            sum(len(v) for v in items if v is not None) + len(items))
        # what sits under a NULL slot is never counted
        masked = Column(DataType.VARCHAR, np.array(
            ["padding"] * len(items), dtype=object),
            np.ones(len(items), dtype=bool))
        assert masked.nbytes() == len(items)
