"""Build-side value summaries for join pruning (§6.1).

Summarizing build-side join keys "is a trade-off between accuracy and
the memory size of the employed data structure" — the summary crosses
the network to probe-side workers. Three summaries spanning that
trade-off:

* :class:`MinMaxSummary` — one global [min, max]; negligible size, low
  pruning power;
* :class:`RangeSetSummary` — a bounded set of disjoint [lo, hi]
  intervals covering all build values; the "balanced" choice Snowflake
  describes, able to prune partitions that fall into gaps between value
  clusters;
* :class:`BloomFilter` — classic row-level filter built from scratch;
  cannot answer range-overlap questions directly, so for *partition*
  pruning it enumerates small integer ranges and otherwise answers
  "maybe" (``summary_kind="bloom"``; the join-summary ablation).

All summaries answer conservatively: ``might_contain``/
``might_overlap_range`` may return true for absent values (false
positives) but never false for present ones — the "probabilistic"
guarantee of §6.2.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable, Sequence

import numpy as np

_HASH_SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)


class MinMaxSummary:
    """Global minimum and maximum of the build-side values."""

    def __init__(self, values: Iterable[Any]):
        self.lo: Any = None
        self.hi: Any = None
        self.count = 0
        for value in values:
            if value is None:
                continue
            self.count += 1
            if self.lo is None or value < self.lo:
                self.lo = value
            if self.hi is None or value > self.hi:
                self.hi = value

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def might_contain(self, value: Any) -> bool:
        if self.is_empty or value is None:
            return False
        return self.lo <= value <= self.hi

    def might_overlap_range(self, lo: Any, hi: Any) -> bool:
        """Could any build value fall inside [lo, hi]?"""
        if self.is_empty:
            return False
        return self.lo <= hi and lo <= self.hi

    def nbytes(self) -> int:
        return 16


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


class BloomFilter:
    """A from-scratch Bloom filter [Bloom 1970] over hashable values.

    Sized for a target false-positive probability; uses ``k``
    double-hashing probes derived from two 64-bit mixes.
    """

    def __init__(self, expected_items: int, fpp: float = 0.01):
        if not 0 < fpp < 1:
            raise ValueError("fpp must be in (0, 1)")
        expected_items = max(1, expected_items)
        n_bits = max(
            8, int(-expected_items * math.log(fpp) / (math.log(2) ** 2)))
        self.n_bits = n_bits
        self.n_hashes = max(1, round(n_bits / expected_items * math.log(2)))
        self.bits = np.zeros(n_bits, dtype=np.bool_)
        self.count = 0

    @staticmethod
    def _mix(value: Any) -> tuple[int, int]:
        base = hash(value) & 0xFFFFFFFFFFFFFFFF
        h1 = (base * _HASH_SEEDS[0] + _HASH_SEEDS[2]) & 0xFFFFFFFFFFFFFFFF
        h2 = ((base ^ (base >> 33)) * _HASH_SEEDS[1]) & 0xFFFFFFFFFFFFFFFF
        return h1, h2 | 1  # odd step so all probes differ

    def add(self, value: Any) -> None:
        if value is None:
            return
        h1, h2 = self._mix(value)
        for i in range(self.n_hashes):
            self.bits[(h1 + i * h2) % self.n_bits] = True
        self.count += 1

    def add_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.add(value)

    def might_contain(self, value: Any) -> bool:
        if value is None:
            return False
        h1, h2 = self._mix(value)
        return all(self.bits[(h1 + i * h2) % self.n_bits]
                   for i in range(self.n_hashes))

    def might_overlap_range(self, lo: Any, hi: Any,
                            enumeration_limit: int = 1024) -> bool:
        """Range probe by enumerating small integer ranges.

        For non-integer or wide ranges a Bloom filter cannot answer and
        must say "maybe".
        """
        if self.count == 0:
            return False
        if (isinstance(lo, (int, np.integer))
                and isinstance(hi, (int, np.integer))
                and hi - lo + 1 <= enumeration_limit):
            return any(self.might_contain(int(v))
                       for v in range(int(lo), int(hi) + 1))
        return True

    def fill_ratio(self) -> float:
        return float(self.bits.mean())

    def nbytes(self) -> int:
        return self.n_bits // 8
