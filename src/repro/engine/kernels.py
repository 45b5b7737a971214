"""Columnar kernels under the blocking operators.

Group ids, joinable keys, NULL-skipping per-group reductions and
rank-encoded sort orders over whole ``Column.values`` / ``Column.nulls``
arrays: nothing here (or in :mod:`.operators`) visits rows one at a time
in Python. The row loops these replaced are the differential reference
in ``tests/test_columnar_operators.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ExecutionError
from ..storage.column import Column
from ..types import DataType

#: combined multi-key group codes are re-densified before they pass this
_CODE_LIMIT = 2 ** 62


def dense_codes(column: Column) -> tuple[np.ndarray, int]:
    """Order-preserving integer codes of a column's values, and how many.

    Equal values share a code and a larger value has a larger one; NaNs
    share the largest (``np.unique`` collapses them), ``-0.0 == 0.0``.
    NULL rows are coded by their dummy value: callers mask them.

    VARCHAR sits in object arrays, which ``np.unique`` sorts with one
    Python comparison per step (4 ms for 12k rows of three flags);
    ranking the *distinct* strings and mapping the rows through a dict
    does the per-row part in C, 4x faster.
    """
    if column.dtype != DataType.VARCHAR:
        uniques, codes = np.unique(column.values, return_inverse=True)
        return codes, len(uniques)
    items = column.values.tolist()
    distinct = sorted(set(items))
    ranks = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(ranks.__getitem__, items), dtype=np.int64,
                        count=len(items))
    return codes, len(distinct)


def group_rows(keys: Sequence[Column], num_rows: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by equal key tuples; NULL is a key value of its own.

    Returns ``(codes, order, first_rows)``: ``codes[i]`` is row i's
    group, numbered in order of first appearance; ``order`` a stable
    permutation putting each group's rows side by side; ``first_rows[g]``
    the first row of group g. With no keys, every row is in group 0.
    """
    combined = np.zeros(num_rows, dtype=np.int64)
    cardinality = 1
    for key in keys:
        codes, n = dense_codes(key)
        if key.nulls.any():
            codes = np.where(key.nulls, n, codes)
            n += 1
        if cardinality * n > _CODE_LIMIT:
            combined = np.unique(combined, return_inverse=True)[1]
            cardinality = num_rows
        combined = combined * n + codes
        cardinality *= n
    order = np.argsort(combined, kind="stable")
    in_order = combined[order]
    starts = np.ones(num_rows, dtype=np.bool_)
    starts[1:] = in_order[1:] != in_order[:-1]
    first_rows = order[starts]
    by_appearance = np.argsort(first_rows)
    number = np.empty(len(first_rows), dtype=np.int64)
    number[by_appearance] = np.arange(len(first_rows))
    codes = np.empty(num_rows, dtype=np.int64)
    codes[order] = number[np.cumsum(starts) - 1]
    return codes, order, first_rows[by_appearance]


def join_keys(column: Column,
              other: DataType) -> tuple[np.ndarray, np.ndarray]:
    """A side's key values and which of its rows can join at all: not
    NULL, not NaN (``NaN = NaN`` is false; ``searchsorted`` would pair
    them). A DOUBLE key facing INTEGER ones is compared as int64, and
    only if it is one: promoting the integers to float64 instead would
    make those past 2**53 equal doubles they do not equal."""
    values, joinable = column.values, ~column.nulls
    if column.dtype == DataType.DOUBLE and other == DataType.INTEGER:
        joinable &= ((values == np.floor(values))
                     & (values >= -2.0 ** 63) & (values < 2.0 ** 63))
        values = np.where(joinable, values, 0).astype(np.int64)
    elif column.dtype == DataType.DOUBLE:
        joinable &= ~np.isnan(values)
    return values, joinable


def segment_sum(column: Column, codes: np.ndarray, num_groups: int) -> Column:
    """Per-group sum that skips NULLs; NULL for a group without values.

    ``ufunc.at`` adds row by row, in input order, into int64 / float64
    cells: an integer sum stays exact past 2**53 (``bincount`` weighs
    in float64) and a float sum has the bits of a sequential loop. An
    integer sum that leaves int64 raises instead of wrapping; it is
    redone in Python ints only when the values are large enough to.
    """
    values = column.values
    if column.nulls.any():
        valid = ~column.nulls
        values, codes = values[valid], codes[valid]
    out = Column.all_null(column.dtype, num_groups)
    np.add.at(out.values, codes, values)
    out.nulls[codes] = False
    if values.dtype.kind == "i" and len(values) and len(values) * max(
            -int(values.min()), int(values.max())) >= 2 ** 63:
        exact = np.zeros(num_groups, dtype=object)
        np.add.at(exact, codes, values.astype(object))
        if (exact != out.values).any():
            raise ExecutionError("integer sum out of range")
    return out


def segment_extreme(ufunc: np.ufunc, column: Column, codes: np.ndarray,
                    order: np.ndarray, num_groups: int) -> Column:
    """Per-group ``np.fmin`` / ``np.maximum`` that skips NULLs.

    ``order`` is :func:`group_rows`' permutation; without its NULL rows
    each group is still contiguous, so one ``reduceat`` does them all.
    """
    if column.nulls.any():
        order = order[~column.nulls[order]]
    out = Column.all_null(column.dtype, num_groups)
    if len(order):
        in_order = codes[order]
        starts = np.flatnonzero(
            np.concatenate(([True], in_order[1:] != in_order[:-1])))
        present = in_order[starts]
        out.values[present] = ufunc.reduceat(column.values[order], starts)
        out.nulls[present] = False
    return out


def sort_order(columns: Sequence[Column],
               descending: Sequence[bool]) -> np.ndarray:
    """Row order of ``ORDER BY columns`` (first column most significant).

    One stable ``lexsort`` over rank-encoded keys: ties keep input
    order, NULLs come last in either direction (the NULL flag is the
    more significant key of each pair), NaNs last among the values.
    Descending keys are negated: ``~`` for integers, booleans and
    string codes (no overflow at int64's minimum), ``-`` for floats.
    """
    lexsort_keys = []                   # least significant first
    for column, desc in zip(reversed(columns), reversed(descending)):
        ranks = (dense_codes(column)[0] if column.dtype == DataType.VARCHAR
                 else column.values)
        if desc:
            ranks = -ranks if column.dtype == DataType.DOUBLE else ~ranks
        if column.nulls.any():
            lexsort_keys.append(np.where(column.nulls, ranks[:1], ranks))
            lexsort_keys.append(column.nulls)
        else:
            lexsort_keys.append(ranks)
    return np.lexsort(lexsort_keys)
