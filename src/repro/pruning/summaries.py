"""The build-side value summary for join pruning (§6.1).

Summarizing build-side join keys "is a trade-off between accuracy and
the memory size of the employed data structure" — the summary crosses
the network to probe-side workers. :class:`RangeSetSummary` is the
bounded set of disjoint [lo, hi] intervals Snowflake describes: able
to prune partitions that fall into gaps between value clusters, at a
size ``max_ranges`` bounds. ``max_ranges=1`` is the global [min, max]
end of the trade-off (negligible size, low pruning power); a
membership filter (:class:`~repro.pruning.filters.XorFilter`) is the
other end, which cannot answer wide range probes
(``benchmarks/test_abl_join_summaries.py``).

The summary answers conservatively: ``might_contain``/
``might_overlap_range`` may return true for absent values (false
positives) but never false for present ones — the "probabilistic"
guarantee of §6.2.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

import numpy as np


class RangeSetSummary:
    """A bounded set of disjoint intervals covering all build values.

    Built from the distinct values (``np.unique`` of the key array, or
    of a list's non-NULL items) by splitting at the ``max_ranges - 1``
    widest gaps — exactly where probe partitions can be pruned. Strings
    cannot measure a gap and get one covering range. NaN never joins,
    so it adds no range.
    """

    def __init__(self, values: Iterable[Any], max_ranges: int = 64):
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        if not isinstance(values, np.ndarray):
            items = [v for v in values if v is not None]
            values = np.asarray(items)
            if values.dtype.kind not in "iuf":   # strings keep their NULs
                values = np.array(items, dtype=object)
        if values.dtype.kind == "f":
            values = values[~np.isnan(values)]
        distinct = np.unique(values)
        self.max_ranges = max_ranges
        if len(distinct) <= max_ranges:
            lo = hi = distinct
        elif max_ranges > 1 and distinct.dtype.kind in "iuf":
            gaps = np.diff(distinct.astype(np.float64))
            cut = np.sort(np.argpartition(gaps, -(max_ranges - 1))
                          [-(max_ranges - 1):])
            lo, hi = distinct[np.r_[0, cut + 1]], distinct[np.r_[cut, -1]]
        else:
            lo, hi = distinct[:1], distinct[-1:]
        self.ranges: list[tuple[Any, Any]] = list(zip(lo.tolist(),
                                                      hi.tolist()))
        #: upper endpoints, sorted (intervals are disjoint and ordered);
        #: probes bisect this instead of hand-rolling the search
        self._upper_bounds: list[Any] = [hi for _, hi in self.ranges]

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def might_contain(self, value: Any) -> bool:
        if value is None:
            return False
        return self.might_overlap_range(value, value)

    def might_overlap_range(self, lo: Any, hi: Any) -> bool:
        """O(log n) bisect for an interval intersecting [lo, hi].

        The first interval whose upper endpoint reaches ``lo`` is the
        only candidate: intervals are disjoint and sorted, so every
        earlier one ends below ``lo`` and every later one starts past
        the candidate. It intersects iff it starts at or below ``hi``.
        A NaN bound (a zone map's NaN wins min and max) fails open.
        """
        if lo != lo or hi != hi:
            return True
        i = bisect_left(self._upper_bounds, lo)
        return i < len(self.ranges) and self.ranges[i][0] <= hi

    def nbytes(self) -> int:
        return 16 * len(self.ranges)

    def __repr__(self) -> str:
        return f"RangeSetSummary({len(self.ranges)} ranges)"

