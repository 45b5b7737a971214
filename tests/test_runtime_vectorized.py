"""Differential tests: vectorized *runtime* pruning vs scalar oracles.

PR 8 teaches the stats index to classify runtime prune decisions in
bulk: top-k boundary re-checks (:func:`topk_skip_mask`) and join-filter
summaries (:func:`join_may_join_mask`). The contract is the same as
compile-time vectorized pruning: bit-identity with the scalar path for
every zone-map pathology — NULL-only columns, empty partitions, missing
stats, degraded (stats-stripped) copies, lossy float boundaries — with
the scalar walk as the always-correct fallback.
"""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.pruning.base import ScanSet
from repro.pruning.filters import XorFilter
from repro.pruning.join_pruning import JoinPruner
from repro.pruning.stats_index import (
    StatsIndex,
    _bind_literal,
    _Unbindable,
    join_may_join_mask,
    topk_skip_mask,
)
from repro.pruning.summaries import RangeSetSummary
from repro.pruning.topk_pruning import Boundary, TopKPruner
from repro.storage.micropartition import MicroPartition
from repro.types import DataType, Schema

SCHEMA = Schema.of(a=DataType.INTEGER, v=DataType.DOUBLE,
                   s=DataType.VARCHAR)

STRINGS = ["alpha", "beta", "gamma", "alp", "z", ""]

int_values = st.one_of(st.none(), st.integers(-50, 50))
float_values = st.one_of(st.none(),
                         st.floats(-50, 50, allow_nan=False))
str_values = st.one_of(st.none(), st.sampled_from(STRINGS))
rows_strategy = st.lists(
    st.tuples(int_values, float_values, str_values),
    min_size=0, max_size=10)
partitions_strategy = st.lists(rows_strategy, min_size=0, max_size=8)


def make_entries(partition_rows):
    entries = []
    for rows in partition_rows:
        partition = MicroPartition.from_rows(SCHEMA, rows)
        entries.append((partition.partition_id, partition.zone_map))
    return entries


# ----------------------------------------------------------------------
# topk_skip_mask vs the scalar TopKPruner
# ----------------------------------------------------------------------
def assert_topk_differential(entries, column, desc, value):
    """A pruner given the scan set reads the mask at the entry's
    trusted row; one given only the zone map walks it (the oracle)."""
    scan_set = ScanSet(entries)
    boundary_v = Boundary(desc=desc)
    boundary_v.update_value(value)
    boundary_s = Boundary(desc=desc)
    boundary_s.update_value(value)
    vector = TopKPruner(column, boundary_v)
    scalar = TopKPruner(column, boundary_s)
    for pid, zone_map in entries:
        assert vector.should_skip(zone_map, pid, scan_set) \
            == scalar.should_skip(zone_map), (column, desc, value, pid)
    assert vector.checks == scalar.checks
    assert vector.skipped == scalar.skipped
    return vector


@settings(max_examples=200, deadline=None)
@given(partition_rows=partitions_strategy,
       desc=st.booleans(),
       column=st.sampled_from(["a", "v", "s"]),
       int_bound=st.integers(-60, 60),
       float_bound=st.floats(-60, 60, allow_nan=False),
       str_bound=st.sampled_from(STRINGS))
def test_topk_mask_matches_scalar(partition_rows, desc, column,
                                  int_bound, float_bound, str_bound):
    entries = make_entries(partition_rows)
    value = {"a": int_bound, "v": float_bound, "s": str_bound}[column]
    assert_topk_differential(entries, column, desc, value)


@settings(max_examples=100, deadline=None)
@given(partition_rows=partitions_strategy, desc=st.booleans())
def test_topk_mask_raw_function_matches_oracle(partition_rows, desc):
    """The mask function itself (not just the pruner wrapper) equals
    the per-row scalar decision for every indexed row."""
    entries = make_entries(partition_rows)
    if not entries:
        return
    index = StatsIndex(entries)
    value = 7
    mask = topk_skip_mask(index, "a", desc, value)
    assert mask is not None
    boundary = Boundary(desc=desc)
    boundary.update_value(value)
    scalar = TopKPruner("a", boundary)
    for pid, zone_map in entries:
        row = index.row_of(pid)
        expected = scalar.best_possible_rank(zone_map) < boundary.rank
        assert bool(mask[row]) == expected


class TestTopKFallbackRoutes:
    def _entries(self, values):
        rows = [[(v, float(v) if v is not None else None, f"s{v}")]
                for v in values]
        return make_entries(rows)

    def test_nan_boundary_falls_back_to_scalar(self):
        entries = self._entries([1, 2, 3])
        scan_set = ScanSet(entries)
        boundary = Boundary(desc=True)
        boundary.update_value(math.nan)
        vector = TopKPruner("v", boundary)
        scalar = TopKPruner("v", Boundary(desc=True))
        scalar.boundary.update_value(math.nan)
        for pid, zone_map in entries:
            assert vector.should_skip(zone_map, pid, scan_set) \
                == scalar.should_skip(zone_map)
        assert vector.vector_checks == 0
        assert vector.fallback_checks == len(entries)

    def test_degraded_copy_falls_back_by_identity(self):
        entries = self._entries([1, 2, 3])
        index = StatsIndex(entries)
        boundary = Boundary(desc=True)
        boundary.update_value(100)
        pruner = TopKPruner("a", boundary)
        pid, zone_map = entries[0]
        degraded = zone_map.without_stats()
        # Stats-stripped copy: the index holds the original object, so
        # the scan set does not trust its row and the scalar path
        # (which cannot prove a skip without stats) fails open.
        stripped = ScanSet([(pid, degraded)] + entries[1:], index=index)
        assert pruner.should_skip(degraded, pid, stripped) is False
        assert pruner.fallback_checks == 1
        # The original object is still mask-served and skipped.
        intact = ScanSet(entries, index=index)
        assert pruner.should_skip(zone_map, pid, intact) is True
        assert pruner.vector_checks == 1

    def test_unknown_partition_falls_back(self):
        entries = self._entries([1, 2])
        scan_set = ScanSet(entries, index=StatsIndex(entries[:1]))
        boundary = Boundary(desc=True)
        boundary.update_value(100)
        pruner = TopKPruner("a", boundary)
        pid, zone_map = entries[1]
        assert pruner.should_skip(zone_map, pid, scan_set) is True
        assert pruner.vector_checks == 0
        assert pruner.fallback_checks == 1

    def test_mask_recomputed_once_per_boundary_epoch(self):
        entries = self._entries(list(range(10)))
        scan_set = ScanSet(entries)
        boundary = Boundary(desc=True)
        boundary.update_value(3)
        pruner = TopKPruner("a", boundary)
        for pid, zone_map in entries:
            pruner.should_skip(zone_map, pid, scan_set)
        assert pruner.mask_epochs == 1
        boundary.update_value(7)  # tighten: new epoch
        # A derivative shares the index, hence the epoch's mask.
        derived = scan_set.restrict(scan_set.partition_ids)
        for pid, zone_map in entries:
            pruner.should_skip(zone_map, pid, derived)
        assert pruner.mask_epochs == 2
        assert pruner.vector_checks == 2 * len(entries)

    def test_inactive_boundary_checks_nothing(self):
        entries = self._entries([1, 2])
        pruner = TopKPruner("a", Boundary(desc=True))
        for pid, zone_map in entries:
            assert pruner.should_skip(zone_map, pid,
                                      ScanSet(entries)) is False
        assert pruner.vector_checks == 0
        assert pruner.fallback_checks == 0


# ----------------------------------------------------------------------
# join_may_join_mask vs the scalar JoinPruner
# ----------------------------------------------------------------------
def assert_join_differential(entries, column, summary):
    """``prune`` (mask over the scan set's index) against the
    per-partition oracle, ``partition_may_join``."""
    vector = JoinPruner(column, summary)
    scalar = JoinPruner(column, summary)
    got = vector.prune(ScanSet(entries))
    may_join = {pid: scalar.partition_may_join(zone_map)
                for pid, zone_map in entries}
    assert got.kept.partition_ids == \
        [pid for pid, _ in entries if may_join[pid]]
    assert got.pruned_ids == \
        [pid for pid, _ in entries if not may_join[pid]]
    assert got.checks == scalar.checks
    return vector


#: a probe column with build keys of one type: ints (some beyond
#: float64's exact range) or floats (fractional, whole, beyond int64:
#: none binds to the int64 lane) on a numeric lane, strings (NUL-suffixed
#: among them) on the str lane
probe_and_keys = st.one_of(
    st.tuples(st.sampled_from(["a", "v"]), st.one_of(
        st.lists(st.one_of(st.none(), st.integers(-60, 60),
                           st.sampled_from([2**53 + 1, -(2**62)])),
                 max_size=30),
        st.lists(st.one_of(st.none(), st.floats(-60, 60, allow_nan=False),
                           st.sampled_from([2.5, 3.0, -0.0, 2.0**63])),
                 max_size=30))),
    st.tuples(st.just("s"), st.lists(st.one_of(st.none(), st.sampled_from(
        STRINGS + ["alp\x00", "beta\x00"])), max_size=12)))


@settings(max_examples=400, deadline=None)
@given(partition_rows=partitions_strategy, probe=probe_and_keys,
       max_ranges=st.sampled_from([1, 2, 4, 64]))
def test_join_mask_matches_scalar(partition_rows, probe, max_ranges):
    """Point ranges (64 ranges over at most 30 keys), one range, and
    key types each lane refuses: the mask equals the per-partition
    oracle, and it is None exactly when some endpoint does not bind."""
    column, values = probe
    entries = make_entries(partition_rows)
    summary = RangeSetSummary(values, max_ranges=max_ranges)
    pruner = assert_join_differential(entries, column, summary)
    vectors = StatsIndex(entries).column(column)
    if not entries or vectors is None:
        return
    try:
        for endpoint in (x for pair in summary.ranges for x in pair):
            _bind_literal(endpoint, vectors.kind)
        binds = True
    except _Unbindable:
        binds = False
    assert pruner.mode == ("vectorized" if binds else "fallback")


@settings(max_examples=100, deadline=None)
@given(partition_rows=partitions_strategy,
       values=st.lists(st.sampled_from(STRINGS), min_size=0,
                       max_size=12))
def test_join_mask_string_lane(partition_rows, values):
    entries = make_entries(partition_rows)
    summary = RangeSetSummary(values)
    assert_join_differential(entries, "s", summary)


class TestJoinMaskRoutes:
    def _entries(self):
        rng = random.Random(5)
        rows = [[(rng.randint(0, 100), None, None) for _ in range(5)]
                for _ in range(6)]
        return make_entries(rows)

    def test_empty_summary_prunes_everything_valued(self):
        entries = self._entries()
        summary = RangeSetSummary([])
        assert summary.is_empty
        assert_join_differential(entries, "a", summary)

    def test_membership_filter_summary_is_not_vectorized(self):
        entries = self._entries()
        index = StatsIndex(entries)
        summary = XorFilter([1, 2, 3])
        assert join_may_join_mask(index, "a", summary) is None
        pruner = JoinPruner("a", summary)
        pruner.prune(ScanSet(entries, index=index))
        assert pruner.mode == "fallback"

    def test_all_null_probe_partition_pruned(self):
        rows = [[(None, None, "x")], [(3, None, "y")]]
        entries = make_entries(rows)
        summary = RangeSetSummary([1, 2, 3, 4])
        pruner = assert_join_differential(entries, "a", summary)
        assert pruner.mode == "vectorized"

    def test_missing_column_keeps_everything(self):
        narrow = Schema.of(x=DataType.INTEGER)
        partition = MicroPartition.from_rows(narrow, [(1,)])
        entries = [(partition.partition_id, partition.zone_map)]
        summary = RangeSetSummary([10, 20], max_ranges=1)
        assert_join_differential(entries, "a", summary)

    def test_mixed_mode_on_stale_zone_map(self):
        entries = self._entries()
        index = StatsIndex(entries)
        # Replace one entry with a stats-stripped copy: identity check
        # fails for it, everything else serves from the mask.
        stale = list(entries)
        stale[0] = (stale[0][0], stale[0][1].without_stats())
        pruner = JoinPruner("a", RangeSetSummary([0, 1000],
                                                 max_ranges=1))
        pruner.prune(ScanSet(stale, index=index))
        assert pruner.mode == "mixed"
        assert pruner.vector_checks == len(entries) - 1
        assert pruner.fallback_checks == 1

    def test_rangeset_gaps_prune_between_ranges(self):
        # Partitions with tight ranges; summary has two islands.
        rows = [[(i * 10 + j, None, None) for j in range(3)]
                for i in range(10)]
        entries = make_entries(rows)
        summary = RangeSetSummary(list(range(0, 10))
                                  + list(range(80, 90)))
        pruner = assert_join_differential(entries, "a", summary)
        result = pruner.prune(ScanSet(entries))
        assert result.pruned_ids  # middle islands pruned


def test_scan_set_with_entries_keeps_degradation():
    """with_entries (used by every pruner and the order strategy) must
    preserve degraded-partition bookkeeping, or degraded fail-open
    accounting silently resets after any pruning pass."""
    rows = [[(1, None, None)], [(2, None, None)]]
    entries = make_entries(rows)
    degraded = ScanSet(entries, degraded_ids=[entries[0][0]])
    reordered = degraded.with_entries(list(reversed(degraded.entries)))
    assert reordered.degraded_ids == degraded.degraded_ids
    # A subset drop removes vanished ids from the degraded set too.
    subset = degraded.with_entries(degraded.entries[1:])
    assert subset.degraded_ids == frozenset()
