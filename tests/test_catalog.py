"""Tests for the catalog: DDL, DML rewrites, and the predicate cache
integrated end-to-end (§8.2)."""

import pytest

from repro import Catalog, CompilerOptions, DataType, Layout, Schema
from repro.errors import SchemaError
from repro.expr.ast import Compare, col, lit

SCHEMA = Schema.of(ts=DataType.INTEGER, score=DataType.INTEGER,
                   note=DataType.VARCHAR)


def make_catalog():
    catalog = Catalog(rows_per_partition=10)
    rows = [(i, (i * 37) % 1000, f"n{i}") for i in range(200)]
    catalog.create_table_from_rows("t", SCHEMA, rows,
                                   layout=Layout.sorted_by("ts"))
    return catalog


class TestDDL:
    def test_create_registers_metadata(self):
        catalog = make_catalog()
        assert len(catalog.scan_set("t")) == 20
        assert catalog.metadata.table_row_count("t") == 200

    def test_duplicate_table_rejected(self):
        catalog = make_catalog()
        with pytest.raises(SchemaError):
            catalog.create_table_from_rows("t", SCHEMA, [])

    def test_drop_table(self):
        catalog = make_catalog()
        catalog.drop_table("t")
        with pytest.raises(SchemaError):
            catalog.sql("SELECT * FROM t")
        assert len(catalog.storage) == 0

    def test_unknown_table(self):
        catalog = make_catalog()
        with pytest.raises(SchemaError):
            catalog.sql("SELECT * FROM missing")


class TestDML:
    def test_insert_creates_partitions(self):
        catalog = make_catalog()
        new_ids = catalog.insert("t", [(1000 + i, 5, "x")
                                       for i in range(15)])
        assert len(new_ids) == 2
        assert catalog.metadata.table_row_count("t") == 215
        result = catalog.sql("SELECT * FROM t WHERE ts >= 1000")
        assert result.num_rows == 15

    def test_delete_rewrites_partitions(self):
        catalog = make_catalog()
        deleted = catalog.delete_where(
            "t", Compare("<", col("ts"), lit(25)))
        assert deleted == 25
        assert catalog.metadata.table_row_count("t") == 175
        # Partition [20..29] was rewritten, not dropped entirely.
        result = catalog.sql("SELECT * FROM t WHERE ts < 40")
        assert result.num_rows == 15

    def test_delete_everything_in_partition_removes_it(self):
        catalog = make_catalog()
        before = len(catalog.scan_set("t"))
        catalog.delete_where("t", Compare("<", col("ts"), lit(10)))
        assert len(catalog.scan_set("t")) == before - 1

    def test_update_rewrites_values(self):
        catalog = make_catalog()
        updated = catalog.update_where(
            "t", Compare("<", col("ts"), lit(5)), "score",
            lambda old: old + 10_000)
        assert updated == 5
        result = catalog.sql("SELECT score FROM t WHERE ts < 5")
        assert all(score >= 10_000 for (score,) in result.rows)

    def test_update_refreshes_metadata(self):
        catalog = make_catalog()
        catalog.update_where("t", Compare("<", col("ts"), lit(10)),
                             "score", lambda old: 999_999)
        result = catalog.sql("SELECT * FROM t WHERE score = 999999")
        assert result.num_rows == 10
        # pruning still works against the rewritten partition metadata
        scan = result.profile.scans[0]
        assert scan.filter_result.after == 1


class TestPredicateCacheIntegration:
    def test_filter_cache_hit_restricts_scan(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM t WHERE score >= 990"
        first = catalog.sql(sql)
        assert not first.profile.scans[0].cache_hit
        second = catalog.sql(sql)
        assert second.profile.scans[0].cache_hit
        assert sorted(second.rows) == sorted(first.rows)
        assert second.profile.partitions_loaded <= \
            first.profile.partitions_loaded

    def test_shared_options_do_not_carry_the_cache_to_another_catalog(
            self):
        """One ``CompilerOptions`` reused across catalogs: the first
        catalog's predicate cache must not restrict the second one's
        scan set to the first one's partition ids."""
        first, second = make_catalog(), make_catalog()
        first.enable_predicate_cache()
        options = CompilerOptions()
        sql = "SELECT count(*) FROM t WHERE ts >= 195"
        assert first.sql(sql, options).rows == [(5,)]
        repeat = first.sql(sql, options)
        assert repeat.profile.scans[0].cache_hit
        assert repeat.rows == [(5,)]
        other = second.sql(sql, options)
        assert not other.profile.scans[0].cache_hit
        assert other.rows == [(5,)]

    def test_topk_cache_hit(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM t ORDER BY score DESC LIMIT 5"
        first = catalog.sql(sql)
        second = catalog.sql(sql)
        assert second.profile.scans[0].cache_hit
        assert [r[1] for r in second.rows] == [r[1] for r in first.rows]
        assert second.profile.partitions_loaded <= 5

    def test_insert_keeps_cache_correct(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM t ORDER BY score DESC LIMIT 1"
        catalog.sql(sql)
        catalog.insert("t", [(9999, 10**6, "big")])
        result = catalog.sql(sql)
        # new partition was appended to the cached scan list -> the new
        # maximum is found
        assert result.rows[0][1] == 10**6

    def test_delete_invalidates_topk_entry(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM t ORDER BY score DESC LIMIT 1"
        first = catalog.sql(sql)
        top_ts = first.rows[0][0]
        catalog.delete_where("t", Compare("=", col("ts"), lit(top_ts)))
        result = catalog.sql(sql)
        assert not result.profile.scans[0].cache_hit
        oracle_best = max(
            (r for r in catalog.tables["t"].to_rows()),
            key=lambda r: r[1])
        assert result.rows[0][1] == oracle_best[1]

    def test_update_ordering_column_invalidates(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM t ORDER BY score DESC LIMIT 1"
        catalog.sql(sql)
        catalog.update_where("t", Compare("=", col("ts"), lit(100)),
                             "score", lambda old: 10**7)
        result = catalog.sql(sql)
        assert result.rows[0][1] == 10**7

    def test_early_terminated_scan_not_cached(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        # LIMIT terminates the scan early; caching its partial view of
        # "partitions with matches" would be wrong.
        sql = "SELECT * FROM t WHERE score >= 0 LIMIT 1"
        catalog.sql(sql)
        assert catalog.predicate_cache.lookup_filter(
            "t", Compare(">=", col("score"), lit(0))) is None


class TestQueryResult:
    def test_column_accessor(self):
        catalog = make_catalog()
        result = catalog.sql("SELECT ts, score FROM t WHERE ts < 3")
        assert result.column("ts") == [0, 1, 2]
        assert result.num_rows == 3
        assert result.sql.startswith("SELECT")
