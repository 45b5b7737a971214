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
from typing import Any, Iterable, Sequence


class RangeSetSummary:
    """A bounded set of disjoint intervals covering all build values.

    Built by sorting the distinct values and greedily merging the
    closest adjacent gaps until at most ``max_ranges`` intervals remain.
    This keeps the largest gaps — exactly where probe partitions can be
    pruned.
    """

    def __init__(self, values: Iterable[Any], max_ranges: int = 64):
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        distinct = sorted({v for v in values if v is not None})
        self.max_ranges = max_ranges
        self.ranges: list[tuple[Any, Any]] = _build_ranges(
            distinct, max_ranges)
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
        """
        i = bisect_left(self._upper_bounds, lo)
        return i < len(self.ranges) and self.ranges[i][0] <= hi

    def nbytes(self) -> int:
        return 16 * len(self.ranges)

    def __repr__(self) -> str:
        return f"RangeSetSummary({len(self.ranges)} ranges)"


def _build_ranges(distinct: Sequence[Any],
                  max_ranges: int) -> list[tuple[Any, Any]]:
    if not distinct:
        return []
    if len(distinct) <= max_ranges:
        return [(v, v) for v in distinct]
    # Strings cannot measure gap width; fall back to one covering range.
    first = distinct[0]
    if not isinstance(first, (int, float)):
        return [(distinct[0], distinct[-1])]
    # Keep the max_ranges-1 widest gaps as splits.
    gaps = [(distinct[i + 1] - distinct[i], i)
            for i in range(len(distinct) - 1)]
    gaps.sort(reverse=True)
    split_after = sorted(i for _, i in gaps[:max_ranges - 1])
    ranges = []
    start = 0
    for i in split_after:
        ranges.append((distinct[start], distinct[i]))
        start = i + 1
    ranges.append((distinct[start], distinct[-1]))
    return ranges
