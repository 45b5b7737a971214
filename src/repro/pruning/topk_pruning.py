"""Top-k pruning: boundary-value partition skipping at runtime (§5).

The TopK operator's heap induces a *boundary value* — the k-th best
value seen so far. Before a scan loads a micro-partition it compares
the partition's min/max for the ORDER BY column against the boundary:
for DESC ordering, a partition whose max is below the boundary cannot
contribute to the result and is skipped. The boundary tightens as the
scan progresses (a runtime, data-dependent technique in the spirit of
the IR community's block-max WAND).

NULL ordering: this engine sorts NULLs *last* regardless of direction,
so NULL order keys are the worst possible rank and never block pruning.

This module also implements the partition processing-order strategies
of §5.3 and the upfront boundary initialization of §5.4.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable

import numpy as np

from ..storage.zonemap import ZoneMap
from .base import ScanSet
from .stats_index import StatsIndex, topk_skip_mask

#: Rank tuples order as (has_value, value); NULLs rank below everything
#: for DESC and above nothing for ASC because we always sort NULLS LAST.
_NULL_RANK = (0, 0)


def rank_of(value: Any, desc: bool) -> tuple:
    """Total-order rank of one ORDER BY key; higher rank = better.

    For DESC queries larger values are better; for ASC smaller values
    are better, which we encode by negating numeric values and using a
    wrapper for strings.
    """
    if value is None:
        return _NULL_RANK
    if desc:
        return (1, value)
    return (1, _Reversed(value))


class _Reversed:
    """Wrapper inverting comparison order (for ASC ranks)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __le__(self, other: "_Reversed") -> bool:
        return other.value <= self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __gt__(self, other: "_Reversed") -> bool:
        return other.value > self.value

    def __ge__(self, other: "_Reversed") -> bool:
        return other.value >= self.value

    def __hash__(self) -> int:
        return hash(("_Reversed", self.value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reversed({self.value!r})"


class Boundary:
    """Monotonically tightening pruning boundary.

    Owned by a TopK (or top-k-aware GROUP BY) operator and consulted by
    its upstream scan, both on the query's thread. ``rank`` is ``None``
    until the heap holds k rows; afterwards it is the rank of the k-th
    best row and only ever increases. ``updates`` counts the
    tightenings.
    """

    def __init__(self, desc: bool = True):
        self.desc = desc
        self.rank: tuple | None = None
        self.updates = 0

    @property
    def is_active(self) -> bool:
        return self.rank is not None

    def update(self, rank: tuple) -> None:
        """Raise the boundary to ``rank`` (ignores loosening updates)."""
        if self.rank is None or rank > self.rank:
            self.rank = rank
            self.updates += 1

    def update_value(self, value: Any) -> None:
        self.update(rank_of(value, self.desc))


def best_possible_rank(zone_map: ZoneMap, column: str,
                       desc: bool) -> tuple:
    """The best rank any row of the partition could achieve."""
    try:
        stats = zone_map.stats(column)
    except Exception:
        return (2,)  # no metadata: assume the best
    if not stats.present:
        return (2,)
    if not stats.has_values:
        return _NULL_RANK
    return rank_of(stats.max_value if desc else stats.min_value, desc)


class TopKPruner:
    """Decides partition skips against a boundary using zone maps.

    Given the scan set a partition belongs to, the boundary is
    classified against that scan set's stats index in one numpy pass
    per boundary epoch (re-arrival of a tightened rank) and
    per-partition checks become mask lookups at the partition's
    trusted row; entries the scan set does not trust the index for
    (degraded ``without_stats()`` copies, stale rows) and lanes the
    boundary value cannot bind to exactly fall back to the scalar
    path, which stays the differential oracle.
    """

    def __init__(self, order_column: str, boundary: Boundary):
        self.order_column = order_column
        self.boundary = boundary
        self.checks = 0
        self.skipped = 0
        #: checks served from the vectorized skip mask vs the scalar
        #: zone-map walk (feeds cost-model charging and observability).
        self.vector_checks = 0
        self.fallback_checks = 0
        #: vectorized mask recomputations (one per boundary epoch).
        self.mask_epochs = 0
        #: (boundary rank, index, skip mask): a mask is served only for
        #: the rank and the index row numbering it was computed for.
        self._mask_state: tuple[tuple, StatsIndex, Any] | None = None
        self._mask_unusable = False

    def best_possible_rank(self, zone_map: ZoneMap) -> tuple:
        return best_possible_rank(zone_map, self.order_column,
                                  self.boundary.desc)

    def should_skip(self, zone_map: ZoneMap,
                    partition_id: int | None = None,
                    scan_set: ScanSet | None = None) -> bool:
        """True if no row of this partition can enter the top-k heap.

        Strictly-worse comparison: a partition whose best rank *equals*
        the boundary could still tie and SQL top-k with ties broken
        arbitrarily does not require it, but we keep ties for
        determinism (skip only when strictly worse).
        """
        self.checks += 1
        rank = self.boundary.rank
        if rank is None:
            return False
        verdict = self._vector_verdict(scan_set, partition_id, rank)
        if verdict is None:
            self.fallback_checks += 1
            verdict = self.best_possible_rank(zone_map) < rank
        else:
            self.vector_checks += 1
        if verdict:
            self.skipped += 1
        return verdict

    # -- vectorized boundary classification ----------------------------
    def _vector_verdict(self, scan_set: ScanSet | None,
                        partition_id: int | None,
                        rank: tuple) -> bool | None:
        """Mask verdict for one partition, or None to fall back."""
        if scan_set is None or self._mask_unusable:
            return None
        row = scan_set.trusted_row(partition_id)
        if row is None:
            return None
        mask = self._mask_for(rank, scan_set.stats_index)
        return None if mask is None else bool(mask[row])

    def _mask_for(self, rank: tuple, index: StatsIndex):
        """The skip mask for ``rank``, recomputed once per epoch.

        A stale mask (older, looser rank) is never served for a newer
        rank — verdicts always describe exactly the rank the caller
        read, matching the scalar oracle bit for bit.
        """
        state = self._mask_state
        if state is not None and state[0] == rank and state[1] is index:
            return state[2]
        mask = self._compute_mask(rank, index)
        if mask is None:
            self._mask_unusable = True
            return None
        self._mask_state = (rank, index, mask)
        self.mask_epochs += 1
        return mask

    def _compute_mask(self, rank: tuple, index: StatsIndex):
        if rank == _NULL_RANK:
            # NULLs-last: no best-possible rank is strictly below the
            # NULL rank, so an all-NULL boundary prunes nothing.
            return np.zeros(len(index), dtype=bool)
        if len(rank) != 2 or rank[0] != 1:
            return None
        value = rank[1]
        if not self.boundary.desc:
            if not isinstance(value, _Reversed):
                return None
            value = value.value
        return topk_skip_mask(index, self.order_column,
                              self.boundary.desc, value)


class OrderStrategy(enum.Enum):
    """Partition processing order for top-k scans (§5.3).

    The paper evaluates ``NONE`` and ``FULL_SORT`` and cautions that
    naive sorting "might accidentally de-prioritize scanning
    micro-partitions that actually contain matching rows" under
    selective filters; ``FULLY_MATCHING_FIRST`` is the strategy that
    "accounts for that": partitions proven fully-matching (§4.2) are
    scanned first (each in best-rank order), guaranteeing the heap
    fills with qualifying rows immediately.
    """

    NONE = "none"        #: keep the incoming (arbitrary) order
    FULL_SORT = "sort"   #: sort all partitions by their best rank
    #: fully-matching partitions first (sorted), then the rest (sorted)
    FULLY_MATCHING_FIRST = "fully_matching_first"

    def order(self, scan_set: ScanSet, order_column: str, desc: bool,
              fully_matching: Iterable[int] = ()) -> ScanSet:
        if self is OrderStrategy.NONE:
            return scan_set
        fm_ids = (set(fully_matching)
                  if self is OrderStrategy.FULLY_MATCHING_FIRST else ())
        keys = [(pid in fm_ids,)
                + best_possible_rank(zone_map, order_column, desc)
                for pid, zone_map in scan_set]
        return scan_set.take(sorted(range(len(keys)),
                                    key=keys.__getitem__, reverse=True))


def initialize_boundary(scan_set: ScanSet,
                        fully_matching_ids: Iterable[int],
                        order_column: str, k: int,
                        desc: bool) -> Boundary:
    """Pre-compute an initial boundary at compile time (§5.4).

    Uses fully-matching partitions only (their rows are guaranteed to
    reach the heap) and takes the stricter of two candidates:

    1. the k-th best extremum (max for DESC) across fully-matching
       partitions — each of the k best partitions contributes at least
       one row at least that good;
    2. the cumulative-row-count bound: order fully-matching partitions
       by their *worst* value (min for DESC) descending; once the
       cumulative row count reaches k, every counted row is at least as
       good as the current partition's worst value. Partitions with
       NULLs in the ORDER BY column are excluded here since their NULL
       rows rank below any value.
    """
    boundary = Boundary(desc=desc)
    if k <= 0:
        return boundary
    fm_ids = set(fully_matching_ids)
    stats_list = []
    for partition_id, zone_map in scan_set:
        if partition_id not in fm_ids:
            continue
        try:
            stats = zone_map.stats(order_column)
        except Exception:
            continue
        if stats.present and stats.has_values:
            stats_list.append(stats)
    if not stats_list:
        return boundary

    candidates: list[tuple] = []

    # Candidate 1: k-th best extremum across fully-matching partitions.
    best_values = sorted(
        (s.max_value if desc else s.min_value for s in stats_list),
        key=lambda v: rank_of(v, desc), reverse=True)
    if len(best_values) >= k:
        candidates.append(rank_of(best_values[k - 1], desc))

    # Candidate 2: cumulative row count over worst values (NULL-free
    # partitions only — NULL rows would rank below the partition min).
    null_free = [s for s in stats_list if s.null_count == 0]
    null_free.sort(key=lambda s: rank_of(
        s.min_value if desc else s.max_value, desc), reverse=True)
    cumulative = 0
    for stats in null_free:
        cumulative += stats.row_count
        if cumulative >= k:
            worst = stats.min_value if desc else stats.max_value
            candidates.append(rank_of(worst, desc))
            break

    if candidates:
        boundary.update(max(candidates))
    return boundary
