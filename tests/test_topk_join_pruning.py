"""Tests for top-k pruning (§5), summaries, and join pruning (§6)."""

import random

import pytest

from repro.pruning.base import ScanSet
from repro.pruning.filters import XorFilter
from repro.pruning.join_pruning import JoinPruner
from repro.pruning.summaries import RangeSetSummary
from repro.pruning.topk_pruning import (
    Boundary,
    OrderStrategy,
    TopKPruner,
    initialize_boundary,
    rank_of,
)
from repro.storage.builder import build_table
from repro.storage.clustering import Layout
from repro.types import DataType, Schema

SCHEMA = Schema.of(v=DataType.INTEGER, s=DataType.VARCHAR)


def make_scan_set(values, rows_per_partition=10):
    rows = [(v, f"s{i}") for i, v in enumerate(values)]
    table = build_table("t", SCHEMA, rows,
                        rows_per_partition=rows_per_partition)
    return ScanSet((p.partition_id, p.zone_map)
                   for p in table.partitions)


class TestRanks:
    def test_desc_order(self):
        assert rank_of(10, True) > rank_of(5, True)

    def test_asc_order_inverted(self):
        assert rank_of(5, False) > rank_of(10, False)

    def test_null_is_worst_both_ways(self):
        assert rank_of(None, True) < rank_of(-10**9, True)
        assert rank_of(None, False) < rank_of(10**9, False)

    def test_string_ranks(self):
        assert rank_of("b", True) > rank_of("a", True)
        assert rank_of("a", False) > rank_of("b", False)


class TestBoundary:
    def test_starts_inactive(self):
        boundary = Boundary(desc=True)
        assert not boundary.is_active

    def test_update_only_tightens(self):
        boundary = Boundary(desc=True)
        boundary.update_value(10)
        boundary.update_value(5)  # loosening ignored
        assert boundary.rank == rank_of(10, True)
        boundary.update_value(20)
        assert boundary.rank == rank_of(20, True)


class TestTopKPruner:
    def test_skips_partitions_below_boundary(self):
        scan_set = make_scan_set(list(range(100)))  # sorted
        boundary = Boundary(desc=True)
        boundary.update_value(50)
        pruner = TopKPruner("v", boundary)
        skipped = [pid for pid, zm in scan_set if pruner.should_skip(zm)]
        # partitions with max < 50: [0..9] ... [40..49] -> 5 skipped
        assert len(skipped) == 5
        assert pruner.skipped == 5

    def test_no_boundary_no_skipping(self):
        scan_set = make_scan_set(list(range(50)))
        pruner = TopKPruner("v", Boundary(desc=True))
        assert not any(pruner.should_skip(zm) for _, zm in scan_set)

    def test_asc_uses_min(self):
        scan_set = make_scan_set(list(range(100)))
        boundary = Boundary(desc=False)
        boundary.update_value(49)
        pruner = TopKPruner("v", boundary)
        skipped = [pid for pid, zm in scan_set if pruner.should_skip(zm)]
        assert len(skipped) == 5  # partitions with min > 49

    def test_tie_not_skipped(self):
        scan_set = make_scan_set([10] * 10)
        boundary = Boundary(desc=True)
        boundary.update_value(10)
        pruner = TopKPruner("v", boundary)
        assert not any(pruner.should_skip(zm) for _, zm in scan_set)

    def test_all_null_partition_skipped_once_boundary_set(self):
        rows = [(None, "a")] * 10
        table = build_table("t", SCHEMA, rows, rows_per_partition=10)
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        boundary = Boundary(desc=True)
        boundary.update_value(0)
        pruner = TopKPruner("v", boundary)
        assert all(pruner.should_skip(zm) for _, zm in scan_set)


class TestOrderStrategy:
    def test_full_sort_desc_by_max(self):
        rng = random.Random(0)
        values = list(range(100))
        rng.shuffle(values)
        scan_set = make_scan_set(values)
        ordered = OrderStrategy.FULL_SORT.order(scan_set, "v", True)
        maxes = [zm.stats("v").max_value for _, zm in ordered]
        assert maxes == sorted(maxes, reverse=True)

    def test_full_sort_asc_by_min(self):
        rng = random.Random(0)
        values = list(range(100))
        rng.shuffle(values)
        scan_set = make_scan_set(values)
        ordered = OrderStrategy.FULL_SORT.order(scan_set, "v", False)
        mins = [zm.stats("v").min_value for _, zm in ordered]
        assert mins == sorted(mins)

    def test_none_keeps_order(self):
        scan_set = make_scan_set(list(range(50)))
        ordered = OrderStrategy.NONE.order(scan_set, "v", True)
        assert ordered.partition_ids == scan_set.partition_ids


class TestBoundaryInit:
    def test_kth_max_candidate(self):
        # 10 sorted partitions, all fully matching, k=3 -> the 3rd
        # largest max is partition [70..79]'s 79.
        scan_set = make_scan_set(list(range(100)))
        boundary = initialize_boundary(
            scan_set, scan_set.partition_ids, "v", 3, desc=True)
        assert boundary.is_active
        # cumulative-min candidate is stronger here: top partition has
        # 10 rows >= 90, so boundary = 90.
        assert boundary.rank == rank_of(90, True)

    def test_no_fully_matching_inactive(self):
        scan_set = make_scan_set(list(range(100)))
        boundary = initialize_boundary(scan_set, [], "v", 3, desc=True)
        assert not boundary.is_active

    def test_k_zero_inactive(self):
        scan_set = make_scan_set(list(range(100)))
        boundary = initialize_boundary(
            scan_set, scan_set.partition_ids, "v", 0, desc=True)
        assert not boundary.is_active

    def test_boundary_is_sound(self):
        """Initialized boundary never exceeds the true k-th value."""
        rng = random.Random(3)
        for trial in range(20):
            values = [rng.randrange(1000) for _ in range(200)]
            scan_set = make_scan_set(values, rows_per_partition=20)
            k = rng.choice([1, 5, 10, 25])
            boundary = initialize_boundary(
                scan_set, scan_set.partition_ids, "v", k, desc=True)
            if not boundary.is_active:
                continue
            kth = sorted(values, reverse=True)[k - 1]
            assert boundary.rank <= rank_of(kth, True)

    def test_nulls_excluded_from_cumulative(self):
        rows = [(None if i % 2 else i, "s") for i in range(100)]
        table = build_table("t", SCHEMA, rows, rows_per_partition=10)
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        boundary = initialize_boundary(
            scan_set, scan_set.partition_ids, "v", 5, desc=True)
        if boundary.is_active:
            non_null = sorted((r[0] for r in rows
                               if r[0] is not None), reverse=True)
            assert boundary.rank <= rank_of(non_null[4], True)


class TestMinMaxSummary:
    """Global min/max is ``RangeSetSummary(values, max_ranges=1)``."""

    def test_contains(self):
        summary = RangeSetSummary([5, 10, 20], max_ranges=1)
        assert summary.might_contain(10)
        assert summary.might_contain(7)  # false positive, allowed
        assert not summary.might_contain(4)
        assert not summary.might_contain(None)

    def test_overlap(self):
        summary = RangeSetSummary([5, 20], max_ranges=1)
        assert summary.might_overlap_range(18, 30)
        assert not summary.might_overlap_range(21, 30)

    def test_empty(self):
        summary = RangeSetSummary([None, None], max_ranges=1)
        assert summary.is_empty
        assert not summary.might_overlap_range(0, 100)


class TestRangeSetSummary:
    def test_exact_when_few_values(self):
        summary = RangeSetSummary([1, 5, 9], max_ranges=8)
        assert summary.might_contain(5)
        assert not summary.might_contain(4)

    def test_gap_pruning(self):
        # Two clusters with a big gap: the gap is preserved.
        values = list(range(0, 50)) + list(range(1000, 1050))
        summary = RangeSetSummary(values, max_ranges=4)
        assert summary.might_overlap_range(10, 20)
        assert not summary.might_overlap_range(200, 800)

    def test_never_false_negative(self):
        rng = random.Random(1)
        values = sorted(rng.sample(range(10_000), 500))
        summary = RangeSetSummary(values, max_ranges=16)
        for v in values:
            assert summary.might_contain(v)

    def test_max_ranges_respected(self):
        summary = RangeSetSummary(range(1000), max_ranges=16)
        assert len(summary.ranges) <= 16

    def test_strings_fall_back_to_single_range(self):
        summary = RangeSetSummary(
            [f"v{i}" for i in range(100)], max_ranges=4)
        assert len(summary.ranges) == 1
        assert summary.might_contain("v50")

    def test_invalid_max_ranges(self):
        with pytest.raises(ValueError):
            RangeSetSummary([1], max_ranges=0)


class TestJoinPruner:
    def probe_scan_set(self):
        # 10 partitions of sorted fk values 0..99
        return make_scan_set(list(range(100)))

    def test_prunes_non_overlapping(self):
        summary = RangeSetSummary([5, 6, 95])
        pruner = JoinPruner("v", summary)
        result = pruner.prune(self.probe_scan_set())
        assert result.after == 2  # [0..9] and [90..99]

    def test_empty_build_side_prunes_everything(self):
        summary = RangeSetSummary([])
        pruner = JoinPruner("v", summary)
        result = pruner.prune(self.probe_scan_set())
        assert result.after == 0
        assert result.pruning_ratio == 1.0

    def test_never_prunes_partition_with_matches(self):
        rng = random.Random(5)
        build_values = rng.sample(range(100), 20)
        summary = RangeSetSummary(build_values)
        pruner = JoinPruner("v", summary)
        result = pruner.prune(self.probe_scan_set())
        kept = set(result.kept.partition_ids)
        for pid, zm in self.probe_scan_set():
            stats = zm.stats("v")
            has_match = any(stats.min_value <= v <= stats.max_value
                            for v in build_values)
            if has_match:
                # same partition contents, ids differ between scan set
                # builds; compare by range instead
                assert any(
                    zm2.stats("v").min_value == stats.min_value
                    for pid2, zm2 in result.kept)

    def test_all_null_probe_partition_pruned(self):
        rows = [(None, "s")] * 10
        table = build_table("t", SCHEMA, rows, rows_per_partition=10)
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        summary = RangeSetSummary([1, 2, 3])
        result = JoinPruner("v", summary).prune(scan_set)
        assert result.after == 0

    def test_missing_stats_kept(self):
        scan_set = self.probe_scan_set()
        stripped = ScanSet((pid, zm.without_stats())
                           for pid, zm in scan_set)
        summary = RangeSetSummary([5])
        result = JoinPruner("v", summary).prune(stripped)
        assert result.after == len(stripped)

    @pytest.mark.parametrize("summary", [
        pytest.param(RangeSetSummary([5, 95], max_ranges=1), id="minmax"),
        pytest.param(RangeSetSummary([5, 95]), id="rangeset"),
        pytest.param(XorFilter([5, 95]), id="xor"),
    ])
    def test_all_summary_kinds(self, summary):
        pruner = JoinPruner("v", summary)
        result = pruner.prune(self.probe_scan_set())
        # all kinds keep at least the two matching partitions
        assert result.after >= 2

    def test_minmax_weaker_than_rangeset(self):
        values = [5, 95]
        minmax = JoinPruner("v", RangeSetSummary(
            values, max_ranges=1)).prune(self.probe_scan_set())
        rangeset = JoinPruner("v", RangeSetSummary(values)).prune(
            self.probe_scan_set())
        assert rangeset.after <= minmax.after


class TestFullyMatchingFirstStrategy:
    def make_table(self):
        # values 0..99 sorted into 10 partitions
        rows = [(v, f"s{v}") for v in range(100)]
        return build_table("t", SCHEMA, rows, rows_per_partition=10)

    def test_fully_matching_partitions_lead(self):
        table = self.make_table()
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        # pretend the two *lowest*-value partitions are fully matching
        fm = scan_set.partition_ids[:2]
        ordered = OrderStrategy.FULLY_MATCHING_FIRST.order(
            scan_set, "v", True, fully_matching=fm)
        assert set(ordered.partition_ids[:2]) == set(fm)
        # within each group, best-rank order still applies
        fm_maxes = [ordered.zone_map(pid).stats("v").max_value
                    for pid in ordered.partition_ids[:2]]
        assert fm_maxes == sorted(fm_maxes, reverse=True)
        rest_maxes = [ordered.zone_map(pid).stats("v").max_value
                      for pid in ordered.partition_ids[2:]]
        assert rest_maxes == sorted(rest_maxes, reverse=True)

    def test_without_fm_equals_full_sort(self):
        table = self.make_table()
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        a = OrderStrategy.FULLY_MATCHING_FIRST.order(
            scan_set, "v", True)
        b = OrderStrategy.FULL_SORT.order(scan_set, "v", True)
        assert a.partition_ids == b.partition_ids

    def test_selective_filter_scenario_fills_heap_early(self):
        """§5.3's caution: under selective filters, naive sorting can
        process many non-matching partitions before the heap fills;
        fully-matching-first avoids that."""
        import random as _random

        from repro.engine.context import ExecContext
        from repro.engine.executor import execute
        from repro.engine.operators import Filter as FilterOp
        from repro.engine.operators import Scan, TopK
        from repro.expr.ast import And, Compare, col, lit
        from repro.pruning.filter_pruning import FilterPruner
        from repro.storage.storage_layer import StorageLayer

        rng = _random.Random(0)
        # v sorted; s encodes a filter matching only low-v rows
        rows = [(v, "hit" if v < 200 else "miss")
                for v in range(2000)]
        schema = Schema.of(v=DataType.INTEGER, s=DataType.VARCHAR)
        table = build_table("t", schema, rows, rows_per_partition=50)
        storage = StorageLayer()
        storage.put_all(table.partitions)
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        predicate = Compare("=", col("s"), lit("hit"))
        pruned = FilterPruner(predicate, schema).prune(scan_set)

        def run(strategy):
            ctx = ExecContext(storage)
            boundary = Boundary(desc=True)
            ordered = strategy.order(
                pruned.kept, "v", True,
                fully_matching=pruned.fully_matching_ids)
            scan = Scan(ctx, "t", schema, ordered)
            scan.attach_topk_pruner(TopKPruner("v", boundary))
            filt = FilterOp(ctx, scan, predicate)
            topk = TopK(ctx, filt, "v", 5, desc=True,
                        boundary=boundary)
            result = execute(topk, ctx)
            return [r[0] for r in result.rows], \
                ctx.profile.scans[0].partitions_loaded

        fm_rows, fm_loaded = run(
            OrderStrategy.FULLY_MATCHING_FIRST)
        sort_rows, sort_loaded = run(OrderStrategy.FULL_SORT)
        assert fm_rows == sort_rows == [199, 198, 197, 196, 195]
        assert fm_loaded <= sort_loaded
