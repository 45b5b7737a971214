"""Tests for the extension features: string-stats truncation, scan-set
serialization, the xor filter, deferred runtime filter pruning,
Iceberg-backed catalog tables, pruning-informed join-side selection,
and EXPLAIN."""

import random

import pytest

from repro import Catalog, DataType, Layout, Schema
from repro.errors import SchemaError, StorageError
from repro.expr.ast import And, Compare, EndsWith, col, lit
from repro.expr.pruning import TriState, prune_partition
from repro.formats import IcebergTable, ParquetFile
from repro.plan.compiler import CompilerOptions
from repro.pruning.base import ScanSet
from repro.pruning.filters import XorFilter
from repro.pruning.join_pruning import JoinPruner
from repro.pruning.pruning_tree import PruningTree, TreeConfig
from repro.storage.builder import build_table
from repro.storage.micropartition import MicroPartition
from repro.storage.zonemap import truncate_string_stats
from repro.types import Schema as _Schema


# ----------------------------------------------------------------------
# String statistics truncation
# ----------------------------------------------------------------------
class TestStringStatsTruncation:
    SCHEMA = Schema.of(s=DataType.VARCHAR)

    def make_stats(self, values):
        part = MicroPartition.from_rows(self.SCHEMA,
                                        [(v,) for v in values])
        return part.zone_map.stats("s"), part

    def test_short_strings_unchanged(self):
        stats, _ = self.make_stats(["abc", "xyz"])
        assert truncate_string_stats(stats, 8) is stats

    def test_min_simply_cut(self):
        stats, _ = self.make_stats(["aaaaaaaaaa", "zz"])
        truncated = truncate_string_stats(stats, 4)
        assert truncated.min_value == "aaaa"

    def test_max_rounded_up(self):
        stats, _ = self.make_stats(["a", "zebra_very_long"])
        truncated = truncate_string_stats(stats, 4)
        assert truncated.max_value >= "zebra_very_long"
        assert len(truncated.max_value) <= 5

    def test_truncation_stays_sound(self):
        """Pruning with truncated stats never produces false negatives."""
        rng = random.Random(0)
        alphabet = "abz\U0010ffff"
        for _ in range(200):
            values = ["".join(rng.choice(alphabet)
                              for _ in range(rng.randint(0, 12)))
                      for _ in range(rng.randint(1, 8))]
            stats, part = self.make_stats(values)
            truncated = truncate_string_stats(stats, 3)
            # every value must stay inside the truncated bounds
            for value in values:
                assert truncated.min_value <= value \
                    <= truncated.max_value

    def test_zone_map_with_truncated_strings_prunes_soundly(self):
        part = MicroPartition.from_rows(
            self.SCHEMA, [("prefix_long_string_value_1",),
                          ("prefix_long_string_value_2",)])
        truncated = part.zone_map.with_truncated_strings(6)
        predicate = Compare("=", col("s"),
                            lit("prefix_long_string_value_1"))
        verdict = prune_partition(predicate, truncated, self.SCHEMA)
        assert verdict != TriState.NEVER


# ----------------------------------------------------------------------
# Scan-set serialization
# ----------------------------------------------------------------------
class TestScanSetSerialization:
    def make_scan_set(self, n_rows=200):
        schema = Schema.of(x=DataType.INTEGER, s=DataType.VARCHAR)
        table = build_table("t", schema,
                            [(i, f"s{i}") for i in range(n_rows)],
                            rows_per_partition=20)
        zone_maps = {p.partition_id: p.zone_map
                     for p in table.partitions}
        return ScanSet((p.partition_id, p.zone_map)
                       for p in table.partitions), zone_maps

    def test_roundtrip(self):
        scan_set, zone_maps = self.make_scan_set()
        data = scan_set.serialize()
        restored = ScanSet.deserialize(data, zone_maps.__getitem__)
        assert restored.partition_ids == scan_set.partition_ids

    def test_empty(self):
        data = ScanSet().serialize()
        assert ScanSet.deserialize(data, lambda pid: None) \
            .partition_ids == []

    def test_pruning_shrinks_payload(self):
        scan_set, zone_maps = self.make_scan_set()
        pruned = scan_set.restrict(scan_set.partition_ids[:2])
        assert pruned.serialized_size() < scan_set.serialized_size()

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            ScanSet.deserialize(b"XXXX\x00\x00\x00\x00",
                                lambda pid: None)

    def test_truncated_payload_rejected(self):
        scan_set, zone_maps = self.make_scan_set()
        data = scan_set.serialize()
        with pytest.raises(StorageError):
            ScanSet.deserialize(data[:-1] if data[-1] < 0x80
                                else data[:6],
                                zone_maps.__getitem__)

    def test_trailing_bytes_rejected(self):
        scan_set, zone_maps = self.make_scan_set()
        data = scan_set.serialize() + b"\x00"
        with pytest.raises(StorageError):
            ScanSet.deserialize(data, zone_maps.__getitem__)


# ----------------------------------------------------------------------
# The Xor filter
# ----------------------------------------------------------------------
class TestXorFilter:
    def test_no_false_negatives(self):
        rng = random.Random(3)
        values = [rng.randrange(10**9) for _ in range(3000)]
        xor = XorFilter(values)
        assert all(xor.might_contain(v) for v in values)

    def test_false_positive_rate(self):
        rng = random.Random(4)
        values = set(rng.randrange(10**9) for _ in range(4000))
        xor = XorFilter(values)
        probes = [rng.randrange(10**9) for _ in range(4000)]
        fp = sum(1 for p in probes
                 if p not in values and xor.might_contain(p))
        assert fp / len(probes) < 0.05

    def test_range_probe(self):
        xor = XorFilter([100, 200])
        assert xor.might_overlap_range(95, 105)
        assert not xor.might_overlap_range(300, 400)
        assert xor.might_overlap_range(0, 10**9)  # too wide: maybe
        assert xor.might_overlap_range("a", "b")  # not enumerable

    def test_empty(self):
        xor = XorFilter([])
        assert not xor.might_contain(5)
        assert not xor.might_overlap_range(0, 10)

    def test_as_join_summary(self):
        summary = XorFilter([5, 95])
        schema = Schema.of(v=DataType.INTEGER, s=DataType.VARCHAR)
        table = build_table("t", schema,
                            [(i, "x") for i in range(100)],
                            rows_per_partition=10)
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        result = JoinPruner("v", summary).prune(scan_set)
        assert result.after == 2


# ----------------------------------------------------------------------
# Deferred runtime filter pruning (§3.2)
# ----------------------------------------------------------------------
class TestDeferredRuntimePruning:
    def make_catalog(self):
        schema = Schema.of(ts=DataType.INTEGER, tag=DataType.VARCHAR,
                           noise=DataType.INTEGER)
        rows = [(i, f"tag{i % 5}", i * 13 % 997) for i in range(4000)]
        catalog = Catalog(rows_per_partition=40)
        catalog.create_table_from_rows("t", schema, rows,
                                       layout=Layout.sorted_by("ts"))
        return catalog

    def options(self, defer):
        return CompilerOptions(
            use_pruning_tree=True,
            defer_cutoff_to_runtime=defer,
            tree_config=TreeConfig(cutoff_min_samples=16,
                                   enable_reorder=False),
        )

    def test_cut_filters_deferred_to_scan(self):
        catalog = self.make_catalog()
        # noise >= 0 is ineffective at compile time and gets cut;
        # with deferral it reappears as a runtime pruner on the scan.
        sql = ("SELECT * FROM t WHERE noise >= 0 AND "
               "ts >= 3900")
        result = catalog.sql(sql, self.options(defer=True))
        assert result.num_rows == 100
        explain = catalog.explain(sql, self.options(defer=True))
        assert "deferred runtime filter pruning" in explain

    def test_tree_cut_predicates_exposed(self):
        schema = Schema.of(ts=DataType.INTEGER, tag=DataType.VARCHAR,
                           noise=DataType.INTEGER)
        rows = [(i, f"tag{i % 5}", i % 7) for i in range(4000)]
        table = build_table("t", schema, rows, rows_per_partition=40,
                            layout=Layout.sorted_by("ts"))
        scan_set = ScanSet((p.partition_id, p.zone_map)
                           for p in table.partitions)
        predicate = And(Compare(">=", col("noise"), lit(0)),
                        EndsWith(col("tag"), "3"),
                        Compare(">=", col("ts"), lit(3900)))
        tree = PruningTree(predicate, schema,
                           TreeConfig(cutoff_min_samples=16,
                                      enable_reorder=False))
        tree.prune(scan_set)
        cut = tree.cut_predicates()
        assert Compare(">=", col("noise"), lit(0)) in cut
        assert EndsWith(col("tag"), "3") in cut

    def test_results_identical_with_and_without_deferral(self):
        catalog = self.make_catalog()
        sql = "SELECT * FROM t WHERE noise >= 0 AND ts >= 3500"
        with_deferral = catalog.sql(sql, self.options(defer=True))
        without = catalog.sql(sql, self.options(defer=False))
        assert sorted(with_deferral.rows) == sorted(without.rows)


# ----------------------------------------------------------------------
# Iceberg-backed catalog tables (§8.1)
# ----------------------------------------------------------------------
class TestIcebergCatalog:
    SCHEMA = Schema.of(x=DataType.INTEGER, s=DataType.VARCHAR)

    def make_iceberg(self, with_stats=True):
        files = [
            ParquetFile.write(
                self.SCHEMA,
                [(i, f"s{i}") for i in range(base, base + 400)],
                row_group_rows=100, page_rows=50,
                write_statistics=with_stats,
                write_page_index=with_stats)
            for base in range(0, 2000, 400)]
        return IcebergTable.from_files("lake", self.SCHEMA, files)

    def test_sql_over_iceberg(self):
        catalog = Catalog()
        catalog.create_table_from_iceberg(self.make_iceberg())
        result = catalog.sql("SELECT * FROM lake WHERE x >= 1900")
        assert result.num_rows == 100
        scan = result.profile.scans[0]
        assert scan.total_partitions == 20  # one per row group
        assert scan.filter_result.after == 1

    def test_missing_stats_no_pruning_until_backfill(self):
        catalog = Catalog()
        catalog.create_table_from_iceberg(
            self.make_iceberg(with_stats=False))
        before = catalog.sql("SELECT * FROM lake WHERE x >= 1900")
        assert before.num_rows == 100
        assert before.profile.scans[0].filter_result.after == 20

        repaired = catalog.backfill_iceberg_metadata("lake")
        assert repaired == 20
        after = catalog.sql("SELECT * FROM lake WHERE x >= 1900")
        assert after.num_rows == 100
        assert after.profile.scans[0].filter_result.after == 1

    def test_topk_over_iceberg(self):
        catalog = Catalog()
        catalog.create_table_from_iceberg(self.make_iceberg())
        result = catalog.sql(
            "SELECT * FROM lake ORDER BY x DESC LIMIT 3")
        assert [r[0] for r in result.rows] == [1999, 1998, 1997]
        assert result.profile.scans[0].topk_skipped > 15

    def test_backfill_requires_iceberg_table(self):
        catalog = Catalog()
        catalog.create_table_from_rows("plain", self.SCHEMA,
                                       [(1, "a")])
        with pytest.raises(SchemaError):
            catalog.backfill_iceberg_metadata("plain")

    def test_duplicate_name_rejected(self):
        catalog = Catalog()
        catalog.create_table_from_iceberg(self.make_iceberg())
        with pytest.raises(SchemaError):
            catalog.create_table_from_iceberg(self.make_iceberg())


# ----------------------------------------------------------------------
# Pruning-informed join-side selection (§2.1)
# ----------------------------------------------------------------------
class TestJoinSideSwap:
    def make_catalog(self):
        catalog = Catalog(rows_per_partition=100)
        big = Schema.of(key=DataType.INTEGER, payload=DataType.VARCHAR)
        catalog.create_table_from_rows(
            "big", big, [(i % 50, f"p{i}") for i in range(5000)])
        small = Schema.of(k=DataType.INTEGER, name=DataType.VARCHAR)
        catalog.create_table_from_rows(
            "small", small, [(i, f"n{i}") for i in range(50)])
        return catalog

    def test_small_left_side_becomes_build(self):
        catalog = self.make_catalog()
        # small (50 rows) is on the left; with the swap it becomes the
        # build side and the big table's scan gets probe-side pruning.
        explain = catalog.explain(
            "SELECT * FROM small JOIN big ON k = key")
        assert "probe-side pruning: on" in explain

    def test_swapped_join_results_and_column_order(self):
        catalog = self.make_catalog()
        result = catalog.sql(
            "SELECT * FROM small JOIN big ON k = key "
            "WHERE big.key < 2")
        # left table's columns still come first
        assert result.schema.names() == ["k", "name", "key", "payload"]
        assert result.num_rows == 200  # 2 keys x 100 occurrences
        assert all(row[0] == row[2] for row in result.rows)

    def test_swap_disabled(self):
        catalog = self.make_catalog()
        options = CompilerOptions(enable_join_side_swap=False)
        result = catalog.sql(
            "SELECT * FROM small JOIN big ON k = key "
            "WHERE big.key < 2", options)
        assert result.num_rows == 200
        assert result.schema.names() == ["k", "name", "key", "payload"]

    def test_results_identical_with_and_without_swap(self):
        catalog = self.make_catalog()
        sql = "SELECT * FROM small JOIN big ON k = key WHERE k < 5"
        swapped = catalog.sql(sql)
        plain = catalog.sql(
            sql, CompilerOptions(enable_join_side_swap=False))
        assert sorted(swapped.rows) == sorted(plain.rows)


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------
class TestExplain:
    def make_catalog(self):
        catalog = Catalog(rows_per_partition=100)
        schema = Schema.of(ts=DataType.INTEGER, v=DataType.INTEGER)
        catalog.create_table_from_rows(
            "t", schema, [(i, i * 3 % 100) for i in range(2000)],
            layout=Layout.sorted_by("ts"))
        return catalog

    def test_scan_annotations(self):
        catalog = self.make_catalog()
        explain = catalog.explain("SELECT * FROM t WHERE ts >= 1900")
        assert "Scan t" in explain
        assert "partitions: 1/20" in explain
        assert "filter pruned 19" in explain

    def test_topk_annotations(self):
        catalog = self.make_catalog()
        explain = catalog.explain(
            "SELECT * FROM t ORDER BY ts DESC LIMIT 5")
        assert "TopK [ts DESC, k=5] (shared boundary)" in explain
        assert "top-k boundary pruning" in explain

    def test_limit_annotations(self):
        catalog = self.make_catalog()
        explain = catalog.explain("SELECT * FROM t LIMIT 5")
        assert "limit pruning: pruned_to_one" in explain

    def test_subtree_elimination_rendered(self):
        catalog = self.make_catalog()
        explain = catalog.explain(
            "SELECT * FROM t WHERE ts > 99999 AND FALSE")
        assert "Empty" in explain

    def test_group_by_topk_hint_rendered(self):
        catalog = self.make_catalog()
        explain = catalog.explain(
            "SELECT ts, count(*) AS c FROM t GROUP BY ts "
            "ORDER BY ts DESC LIMIT 3")
        assert "top-k aware" in explain

    def test_explain_does_not_execute(self):
        catalog = self.make_catalog()
        catalog.storage.stats.reset()
        catalog.explain("SELECT * FROM t")
        assert catalog.storage.stats.partitions_loaded == 0


# ----------------------------------------------------------------------
# Metadata-only aggregates
# ----------------------------------------------------------------------
class TestMetadataAggregates:
    def make_catalog(self, with_nulls=True):
        catalog = Catalog(rows_per_partition=100)
        schema = Schema.of(ts=DataType.INTEGER, v=DataType.DOUBLE)
        rows = [(i, None if with_nulls and i % 5 == 0 else float(i % 7))
                for i in range(1000)]
        catalog.create_table_from_rows("t", schema, rows,
                                       layout=Layout.random(seed=1))
        return catalog

    def test_count_min_max_from_metadata(self):
        catalog = self.make_catalog()
        result = catalog.sql(
            "SELECT count(*) AS n, count(v) AS c, min(ts) AS lo, "
            "max(ts) AS hi FROM t")
        assert result.rows == [(1000, 800, 0, 999)]
        assert result.profile.partitions_loaded == 0
        assert result.profile.scans[0].metadata_only

    def test_matches_execution_oracle(self):
        catalog = self.make_catalog()
        sql = "SELECT count(*) AS n, min(v) AS lo, max(v) AS hi FROM t"
        metadata = catalog.sql(sql)
        executed = catalog.sql(
            sql, CompilerOptions(enable_metadata_aggregates=False))
        assert metadata.rows == executed.rows
        assert executed.profile.partitions_loaded > 0

    def test_all_null_column_min_is_null(self):
        catalog = Catalog(rows_per_partition=10)
        schema = Schema.of(x=DataType.INTEGER, v=DataType.DOUBLE)
        catalog.create_table_from_rows(
            "t", schema, [(i, None) for i in range(20)])
        result = catalog.sql("SELECT min(v) AS lo, count(v) AS c FROM t")
        assert result.rows == [(None, 0)]
        assert result.profile.partitions_loaded == 0

    def test_predicate_blocks_shortcut(self):
        catalog = self.make_catalog()
        result = catalog.sql("SELECT count(*) AS n FROM t WHERE ts < 10")
        assert result.rows == [(10,)]
        assert result.profile.partitions_loaded > 0

    def test_group_by_blocks_shortcut(self):
        catalog = self.make_catalog()
        result = catalog.sql(
            "SELECT ts, count(*) AS n FROM t GROUP BY ts LIMIT 5")
        assert result.profile.partitions_loaded > 0

    def test_avg_blocks_shortcut(self):
        catalog = self.make_catalog()
        result = catalog.sql("SELECT avg(v) AS m FROM t")
        assert result.profile.partitions_loaded > 0

    def test_missing_stats_fall_back_to_execution(self):
        catalog = Catalog(rows_per_partition=100)
        schema = Schema.of(x=DataType.INTEGER, s=DataType.VARCHAR)
        files = [ParquetFile.write(
            schema, [(i, "a") for i in range(200)],
            row_group_rows=100, write_statistics=False,
            write_page_index=False)]
        catalog.create_table_from_iceberg(
            IcebergTable.from_files("raw", schema, files))
        result = catalog.sql("SELECT min(x) AS lo FROM raw")
        assert result.rows == [(0,)]
        assert result.profile.partitions_loaded > 0

    def test_date_columns_roundtrip(self):
        import datetime

        catalog = Catalog(rows_per_partition=10)
        schema = Schema.of(d=DataType.DATE)
        days = [datetime.date(2024, 1, 1) + datetime.timedelta(days=i)
                for i in range(30)]
        catalog.create_table_from_rows("t", schema,
                                       [(d,) for d in days])
        result = catalog.sql("SELECT min(d) AS lo, max(d) AS hi FROM t")
        assert result.rows == [(days[0], days[-1])]
        assert result.profile.partitions_loaded == 0

    def test_explain_shows_metadata_aggregate(self):
        catalog = self.make_catalog()
        explain = catalog.explain("SELECT count(*) FROM t")
        assert "MetadataAggregate" in explain
        assert "no data read" in explain


# ----------------------------------------------------------------------
# Clustering information and reclustering
# ----------------------------------------------------------------------
class TestClusteringMaintenance:
    def make_catalog(self):
        catalog = Catalog(rows_per_partition=100)
        schema = Schema.of(ts=DataType.INTEGER, v=DataType.INTEGER)
        rows = [(i, i * 3 % 1000) for i in range(2000)]
        catalog.create_table_from_rows("t", schema, rows,
                                       layout=Layout.random(seed=4))
        return catalog

    def test_clustering_information_random_layout(self):
        catalog = self.make_catalog()
        info = catalog.clustering_information("t", "ts")
        assert info.partition_count == 20
        assert info.average_depth > 10
        assert info.max_depth <= 20
        assert sum(info.depth_histogram.values()) == 20

    def test_recluster_improves_depth_and_pruning(self):
        catalog = self.make_catalog()
        before = catalog.sql("SELECT * FROM t WHERE ts >= 1900")
        assert before.profile.partitions_loaded == 20

        catalog.recluster("t", "ts")
        info = catalog.clustering_information("t", "ts")
        assert info.average_depth == 1.0

        after = catalog.sql("SELECT * FROM t WHERE ts >= 1900")
        assert sorted(after.rows) == sorted(before.rows)
        assert after.profile.partitions_loaded == 1

    def test_recluster_preserves_rows(self):
        catalog = self.make_catalog()
        before = sorted(catalog.tables["t"].to_rows())
        catalog.recluster("t", "v")
        assert sorted(catalog.tables["t"].to_rows()) == before

    def test_recluster_requires_keys(self):
        catalog = self.make_catalog()
        with pytest.raises(SchemaError):
            catalog.recluster("t")

    def test_recluster_invalidates_predicate_cache(self):
        catalog = self.make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM t ORDER BY v DESC LIMIT 3"
        catalog.sql(sql)
        catalog.recluster("t", "ts")
        result = catalog.sql(sql)
        assert not result.profile.scans[0].cache_hit
        oracle = sorted(catalog.tables["t"].to_rows(),
                        key=lambda r: -r[1])[:3]
        assert [r[1] for r in result.rows] == [r[1] for r in oracle]

    def test_string_column_clustering_info(self):
        catalog = Catalog(rows_per_partition=10)
        schema = Schema.of(s=DataType.VARCHAR)
        catalog.create_table_from_rows(
            "t", schema, [(f"k{i:04d}",) for i in range(100)],
            layout=Layout.sorted_by("s"))
        info = catalog.clustering_information("t", "s")
        assert info.average_depth == 1.0


# ----------------------------------------------------------------------
# Compile-time vs runtime pruning balance (§3.2)
# ----------------------------------------------------------------------
class TestCompileRuntimeBalance:
    def make_catalog(self):
        catalog = Catalog(rows_per_partition=20)
        schema = Schema.of(ts=DataType.INTEGER, v=DataType.INTEGER)
        catalog.create_table_from_rows(
            "t", schema, [(i, i % 9) for i in range(2000)],
            layout=Layout.sorted_by("ts"))
        return catalog

    def test_large_scan_set_pushes_pruning_to_runtime(self):
        catalog = self.make_catalog()
        options = CompilerOptions(compile_prune_partition_limit=50)
        result = catalog.sql("SELECT * FROM t WHERE ts >= 1960",
                             options)
        assert result.num_rows == 40
        scan = result.profile.scans[0]
        # nothing pruned at compile time...
        assert scan.partitions_loaded == 2
        # ...but runtime pruning still skipped the rest, attributed to
        # the filter technique
        assert scan.filter_result is not None
        assert scan.filter_result.pruned == 98
        # compile time stayed below the compile-pruned variant's: the
        # per-partition checks moved to execution time
        compile_pruned = catalog.sql(
            "SELECT * FROM t WHERE ts >= 1960", CompilerOptions())
        assert result.profile.compile_ms < \
            compile_pruned.profile.compile_ms
        assert result.profile.exec_ms > \
            compile_pruned.profile.exec_ms

    def test_small_scan_set_still_pruned_at_compile_time(self):
        catalog = self.make_catalog()
        options = CompilerOptions(compile_prune_partition_limit=500)
        result = catalog.sql("SELECT * FROM t WHERE ts >= 1960",
                             options)
        scan = result.profile.scans[0]
        assert scan.filter_result.after == 2
        assert scan.partitions_loaded == 2

    def test_runtime_pruning_matches_compile_results(self):
        catalog = self.make_catalog()
        sql = "SELECT * FROM t WHERE ts BETWEEN 300 AND 459"
        runtime = catalog.sql(
            sql, CompilerOptions(compile_prune_partition_limit=10))
        compile_time = catalog.sql(sql, CompilerOptions())
        assert sorted(runtime.rows) == sorted(compile_time.rows)
        assert runtime.profile.partitions_loaded == \
            compile_time.profile.partitions_loaded

    def test_limit_pruning_lost_when_deferred(self):
        # The documented trade-off: runtime-only pruning cannot find
        # fully-matching partitions, so LIMIT pruning does not fire.
        catalog = self.make_catalog()
        options = CompilerOptions(compile_prune_partition_limit=10)
        result = catalog.sql(
            "SELECT * FROM t WHERE ts >= 1000 LIMIT 3", options)
        assert result.num_rows == 3
        scan = result.profile.scans[0]
        report = scan.limit_report
        assert report is None or not report.outcome.pruned


# ----------------------------------------------------------------------
# Projection pushdown (§2: PAX column-level reads)
# ----------------------------------------------------------------------
class TestProjectionPushdown:
    def make_catalog(self):
        catalog = Catalog(rows_per_partition=100)
        schema = Schema.of(ts=DataType.INTEGER, wide_a=DataType.VARCHAR,
                           wide_b=DataType.VARCHAR, v=DataType.INTEGER,
                           fk=DataType.INTEGER)
        rows = [(i, "x" * 40, "y" * 40, i % 7, i % 10)
                for i in range(1000)]
        catalog.create_table_from_rows("t", schema, rows,
                                       layout=Layout.sorted_by("ts"))
        catalog.create_table_from_rows(
            "d", Schema.of(k=DataType.INTEGER, name=DataType.VARCHAR),
            [(i, f"n{i}") for i in range(10)])
        return catalog

    def reads(self, catalog, sql, **options):
        catalog.storage.stats.reset()
        result = catalog.sql(sql, CompilerOptions(**options))
        return result, catalog.storage.stats.bytes_read

    def test_narrow_projection_reads_fewer_bytes(self):
        catalog = self.make_catalog()
        sql = "SELECT ts FROM t WHERE ts < 150"
        narrow, narrow_bytes = self.reads(catalog, sql)
        full, full_bytes = self.reads(catalog, sql,
                                      enable_projection_pushdown=False)
        assert narrow.rows == full.rows
        assert narrow_bytes < full_bytes / 3

    def test_predicate_columns_always_read(self):
        catalog = self.make_catalog()
        result, _ = self.reads(catalog,
                               "SELECT wide_a FROM t WHERE v = 3")
        expected = [("x" * 40,)] * sum(
            1 for r in catalog.tables["t"].to_rows() if r[3] == 3)
        assert result.rows == expected

    def test_select_star_reads_everything(self):
        catalog = self.make_catalog()
        sql = "SELECT * FROM t WHERE ts < 100"
        on, on_bytes = self.reads(catalog, sql)
        off, off_bytes = self.reads(catalog, sql,
                                    enable_projection_pushdown=False)
        assert on_bytes == off_bytes
        assert on.rows == off.rows

    def test_join_keys_preserved(self):
        catalog = self.make_catalog()
        sql = ("SELECT ts, d.name FROM t JOIN d ON fk = d.k "
               "WHERE ts < 50")
        narrow, narrow_bytes = self.reads(catalog, sql)
        full, full_bytes = self.reads(catalog, sql,
                                      enable_projection_pushdown=False)
        assert sorted(narrow.rows) == sorted(full.rows)
        assert narrow_bytes < full_bytes

    def test_aggregate_inputs_preserved(self):
        catalog = self.make_catalog()
        result, _ = self.reads(
            catalog,
            "SELECT v, count(*) AS c FROM t WHERE ts < 700 "
            "GROUP BY v ORDER BY v")
        oracle = {}
        for r in catalog.tables["t"].to_rows():
            if r[0] < 700:
                oracle[r[3]] = oracle.get(r[3], 0) + 1
        assert result.rows == sorted(oracle.items())

    def test_order_by_column_preserved(self):
        catalog = self.make_catalog()
        result, _ = self.reads(
            catalog, "SELECT ts FROM t ORDER BY v DESC LIMIT 3")
        assert result.num_rows == 3

    def test_count_star_still_counts(self):
        catalog = self.make_catalog()
        # force execution (not metadata aggregate) with a predicate
        result, _ = self.reads(
            catalog, "SELECT count(*) AS n FROM t WHERE ts < 500")
        assert result.rows == [(500,)]
