"""Tests for the catalog: DDL, DML rewrites, and the predicate cache
integrated end-to-end (§8.2)."""

import pytest

from repro import Catalog, CompilerOptions, DataType, Layout, Schema
from repro.errors import SchemaError
from repro.expr.ast import Compare, col, lit
from repro.storage.builder import build_table

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
        # the new partition is above the entry's high-water mark, so
        # it is scanned -> the new maximum is found
        assert result.profile.scans[0].cache_hit
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
        assert catalog.predicate_cache.lookup(
            "t", Compare(">=", col("score"), lit(0))) is None

    def test_join_pruned_scan_is_not_recorded(self):
        """Join pruning cuts t to the partitions holding u's keys; the
        bare filter that follows must not inherit that as "the
        partitions with x < 3" (6 rows instead of 44 at the parent)."""
        rows = [(i, (i * 7) % 10) for i in range(150)]

        def build(with_cache):
            catalog = Catalog(rows_per_partition=15)
            catalog.create_table_from_rows(
                "t", Schema.of(k=DataType.INTEGER, x=DataType.INTEGER),
                rows, layout=Layout.sorted_by("k"))
            catalog.create_table_from_rows(
                "u", Schema.of(k2=DataType.INTEGER, w=DataType.INTEGER),
                [(i, i) for i in range(12)])
            if with_cache:
                catalog.enable_predicate_cache()
            return catalog

        cached, plain = build(True), build(False)
        join = "SELECT k, w FROM t JOIN u ON k = k2 WHERE x < 3"
        joined = cached.sql(join)
        assert joined.profile.scans[0].join_result.pruned == 9
        assert sorted(joined.rows) == sorted(plain.sql(join).rows)
        assert len(cached.predicate_cache) == 0
        bare = "SELECT k, x FROM t WHERE x < 3"
        first = cached.sql(bare)
        assert not first.profile.scans[0].cache_hit
        assert sorted(first.rows) == sorted(plain.sql(bare).rows)
        assert len(first.rows) == 45
        # ... and the other way round: the bare filter's entry may
        # serve the join's scan, which join pruning then narrows.
        assert cached.sql(bare).profile.scans[0].cache_hit
        again = cached.sql(join)
        assert again.profile.scans[0].cache_hit
        assert sorted(again.rows) == sorted(joined.rows)

    def test_eliminated_sub_tree_is_not_recorded(self):
        """``w < -5`` prunes u to nothing, the join is eliminated at
        compile time and t's scan never runs: "no partition matched"
        is not what was observed."""
        catalog = make_catalog()
        catalog.create_table_from_rows(
            "u", Schema.of(k2=DataType.INTEGER, w=DataType.INTEGER),
            [(i, i) for i in range(12)])
        catalog.enable_predicate_cache()
        assert catalog.sql("SELECT ts, w FROM t JOIN u ON ts = k2 "
                           "WHERE score < 300 AND w < -5").rows == []
        # (u's own entry is sound: pruning proved it empty)
        assert catalog.predicate_cache.lookup(
            "t", Compare("<", col("score"), lit(300))) is None
        assert len(catalog.sql(
            "SELECT ts FROM t WHERE score < 300").rows) == 65

    def test_offset_is_part_of_the_topk_entry(self):
        """``LIMIT 5`` then ``LIMIT 5 OFFSET 400`` over 40 shuffled
        partitions: the second needs the partitions of its first 405
        rows, not the five that served the first."""
        rows = [(i, (i * 7919) % 100_003, "") for i in range(2000)]

        def build(with_cache):
            catalog = Catalog(rows_per_partition=50)
            catalog.create_table_from_rows(
                "t", SCHEMA, rows, layout=Layout.random(seed=3))
            if with_cache:
                catalog.enable_predicate_cache()
            return catalog

        cached, plain = build(True), build(False)
        top = "SELECT * FROM t ORDER BY score DESC LIMIT 5"
        deep = top + " OFFSET 400"
        for sql in (top, deep, deep, top):
            assert cached.sql(sql).rows == plain.sql(sql).rows, sql
        repeat = cached.sql(deep)
        assert repeat.profile.scans[0].cache_hit
        # LIMIT 405 keeps the same rows, so it shares the entry.
        shared = cached.sql(
            "SELECT * FROM t ORDER BY score DESC LIMIT 405")
        assert shared.profile.scans[0].cache_hit
        assert shared.rows[400:] == repeat.rows

    def test_topk_entry_keys_on_the_where_below_a_select_list(self):
        """A select list plans a Project between Sort and Scan; the
        WHERE must still reach the top-k key, or the second and third
        query hit the first's partitions."""
        cached, plain = make_catalog(), make_catalog()
        cached.enable_predicate_cache()
        order = " ORDER BY score DESC, ts ASC LIMIT 3"
        queries = ["SELECT ts FROM t WHERE ts < 40" + order,
                   "SELECT ts FROM t WHERE ts >= 40" + order,
                   "SELECT ts FROM t" + order]
        for sql in queries:
            first = cached.sql(sql)
            assert not first.profile.scans[0].cache_hit, sql
            assert first.rows == plain.sql(sql).rows, sql
        for sql in queries:
            repeat = cached.sql(sql)
            assert repeat.profile.scans[0].cache_hit, sql
            assert repeat.rows == plain.sql(sql).rows, sql

    def test_topk_entry_names_scan_columns_not_aliases(self):
        """Two select lists alias different columns to ``x``: ordering
        by ``x`` is two shapes, and an UPDATE of the aliased scan
        column invalidates its entry."""
        cached, plain = make_catalog(), make_catalog()
        cached.enable_predicate_cache()
        by_score = "SELECT score AS x, ts FROM t ORDER BY x DESC LIMIT 1"
        by_ts = "SELECT ts AS x, score FROM t ORDER BY x DESC LIMIT 1"
        for sql in (by_score, by_ts, by_score, by_ts):
            assert cached.sql(sql).rows == plain.sql(sql).rows, sql
        # the alias-free spelling is the same shape
        assert cached.sql("SELECT * FROM t ORDER BY score DESC LIMIT 1"
                          ).profile.scans[0].cache_hit
        for catalog in (cached, plain):
            catalog.sql("UPDATE t SET score = 5000 WHERE ts = 3")
        repeat = cached.sql(by_score)
        assert not repeat.profile.scans[0].cache_hit
        assert repeat.rows == plain.sql(by_score).rows == [(5000, 3)]

    def test_topk_above_a_join_is_not_recorded(self):
        """An outer join multiplies and drops the source tags of t's
        rows: the TopK above it cannot say which partitions of t its
        rows came from, and its k rows are not the bare top-k's."""
        def build(with_cache):
            catalog = make_catalog()
            catalog.create_table_from_rows(
                "u", Schema.of(k2=DataType.INTEGER, w=DataType.INTEGER),
                [(999 - i % 3, i) for i in range(12)])
            if with_cache:
                catalog.enable_predicate_cache()
            return catalog

        cached, plain = build(True), build(False)
        joined = ("SELECT ts, score, w FROM t LEFT JOIN u ON score = k2 "
                  "ORDER BY score DESC, w ASC LIMIT 4")
        bare = "SELECT * FROM t ORDER BY score DESC LIMIT 4"
        for sql in (joined, joined, bare, bare, joined):
            assert cached.sql(sql).rows == plain.sql(sql).rows, sql
        assert cached.predicate_cache.stats()["records"] == 1  # bare

    def test_out_of_order_ids_drop_the_tables_entries(self):
        """Ids are handed out at build time. A partition built before
        an entry was recorded but committed after it sits below the
        entry's high-water mark: the catalog forgets the table's
        entries rather than let a hit skip it."""
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        early = build_table("t", SCHEMA, [(5000, 185, "late")]).partitions
        catalog.insert("t", [(6000, 1, "x")])
        sql = "SELECT * FROM t WHERE score = 185"
        catalog.sql(sql)
        assert catalog.sql(sql).profile.scans[0].cache_hit
        catalog._apply_insert(catalog.tables["t"], early)
        result = catalog.sql(sql)
        assert not result.profile.scans[0].cache_hit
        assert sorted(result.rows) == [(5, 185, "n5"), (5000, 185, "late")]

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t WHERE score = 185",
        "SELECT * FROM t WHERE score >= 500 ORDER BY score DESC LIMIT 5",
        "SELECT * FROM t ORDER BY score DESC LIMIT 3 OFFSET 2",
    ])
    def test_every_partition_of_a_repeat_is_accounted_for(self, sql):
        """total = pruned + loaded on complete scans, cache hit or
        not: what a hit removes is counted in ``skip_set_pruned``."""
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        catalog.enable_telemetry()
        for expect_hit in (False, True):
            profile = catalog.sql(sql).profile
            scan = profile.scans[0]
            assert scan.cache_hit is expect_hit
            assert not scan.early_terminated
            assert scan.total_partitions == \
                scan.partitions_pruned + scan.partitions_loaded
            assert (scan.skip_set_pruned > 0) is expect_hit
        record = catalog.telemetry.records()[-1]
        assert record.predicate_cache_hit
        assert record.predicate_cache_pruned == scan.skip_set_pruned
        assert record.partitions_total == \
            record.partitions_pruned + record.partitions_loaded
        assert f"predicate cache hit (skipped {scan.skip_set_pruned})" \
            in catalog.explain_analyze(sql)


class TestQueryResult:
    def test_column_accessor(self):
        catalog = make_catalog()
        result = catalog.sql("SELECT ts, score FROM t WHERE ts < 3")
        assert result.column("ts") == [0, 1, 2]
        assert result.num_rows == 3
        assert result.sql.startswith("SELECT")
