"""Tests for the predicate cache, its hit rule and its DML rules (§8.2)."""

from repro import Catalog, DataType, Schema
from repro.expr.ast import Compare, col, lit
from repro.pruning.predicate_cache import PredicateCache

PRED = Compare(">", col("x"), lit(5))
OTHER = Compare(">", col("x"), lit(9))
SCORE = [("score", True)]


def kept(entry, ids):
    return [pid for pid in ids if entry.keeps(pid)]


class TestFilterEntries:
    def test_record_and_lookup(self):
        cache = PredicateCache()
        assert cache.record("t", PRED, [1, 2, 3], high_water=6)
        entry = cache.lookup("t", PRED)
        assert entry is not None
        assert entry.kind == "filter"
        assert entry.partition_ids == {1, 2, 3}
        assert cache.hits == 1

    def test_miss_on_different_predicate(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1)
        assert cache.lookup("t", OTHER) is None
        assert cache.misses == 1

    def test_miss_on_different_table(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1)
        assert cache.lookup("u", PRED) is None

    def test_oversized_entry_not_admitted(self):
        cache = PredicateCache(max_partitions_per_entry=2)
        assert not cache.record("t", PRED, [1, 2, 3], 3)
        assert cache.lookup("t", PRED) is None

    def test_lru_eviction(self):
        cache = PredicateCache(max_entries=2)
        cache.record("t", PRED, [1], 3)
        cache.record("t", OTHER, [2], 3)
        cache.lookup("t", PRED)  # refresh PRED
        third = Compare(">", col("x"), lit(99))
        cache.record("t", third, [3], 3)
        assert cache.lookup("t", OTHER) is None  # evicted
        assert cache.lookup("t", PRED) is not None

    def test_stats_count_records_hits_and_misses(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1)
        cache.lookup("t", PRED)
        cache.lookup("t", OTHER)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                 "records": 1, "invalidations": 0}


class TestInsertSemantics:
    """No notification: a hit keeps the cached ids and everything
    above the high-water mark, so inserted partitions are scanned."""

    def test_older_partitions_outside_the_entry_are_skipped(self):
        cache = PredicateCache()
        cache.record("t", PRED, [2, 4], high_water=6)
        assert kept(cache.lookup("t", PRED), range(1, 7)) == [2, 4]

    def test_insert_appends_to_filter_entries(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1, 2], high_water=3)
        assert kept(cache.lookup("t", PRED), [1, 2, 3, 7, 8]) == \
            [1, 2, 7, 8]

    def test_insert_appends_to_topk_entries(self):
        # "INSERTs are safe" — because new partitions always join the
        # scan list.
        cache = PredicateCache()
        cache.record("t", PRED, [1], 5, order=SCORE, keep=10)
        entry = cache.lookup("t", PRED, SCORE, 10)
        assert kept(entry, [1, 5, 9]) == [1, 9]

    def test_entry_size_bounded_under_repeated_inserts(self):
        # Entries never grow: what twenty inserts add is scanned
        # because it is above the mark, not because it was appended.
        catalog = Catalog(rows_per_partition=4)
        catalog.create_table_from_rows(
            "t", Schema.of(x=DataType.INTEGER),
            [(i % 8,) for i in range(32)])
        cache = catalog.enable_predicate_cache(max_partitions_per_entry=4)
        sql = "SELECT * FROM t WHERE x > 5"
        catalog.sql(sql)
        recorded = cache.lookup("t", PRED).partition_ids
        assert len(recorded) == 4
        for i in range(20):
            catalog.insert("t", [(9,), (0,)])
            result = catalog.sql(sql)
            assert result.profile.scans[0].cache_hit
            assert len(result.rows) == 8 + i + 1
            assert cache.lookup("t", PRED).partition_ids == recorded
        assert cache.invalidations == 0

    def test_entries_are_frozen(self):
        cache = PredicateCache(max_partitions_per_entry=2)
        ids = [1, 2]
        cache.record("t", PRED, ids, 2)
        ids.append(3)
        first = cache.lookup("t", PRED)
        assert first.partition_ids == {1, 2}
        assert cache.lookup("t", PRED) is first  # no per-lookup copy


class TestDeleteSemantics:
    def test_filter_entries_ignore_every_rewrite(self):
        # DELETE / UPDATE / recluster only add partitions above the
        # mark; the removed ids simply stop appearing in scan sets.
        cache = PredicateCache()
        cache.record("t", PRED, [1, 2, 3], 3)
        cache.on_rewrite("t", [2], ())
        cache.on_rewrite("t", [1], ["x"])
        assert cache.lookup("t", PRED).partition_ids == {1, 2, 3}
        assert cache.invalidations == 0

    def test_delete_invalidates_topk_entry(self):
        # §8.2: "If a row in the top-k result is deleted, another row
        # must take its place" — the k+1-th row may be anywhere.
        cache = PredicateCache()
        cache.record("t", PRED, [1, 2], 5, order=SCORE, keep=10)
        cache.on_rewrite("t", [2], ())
        assert cache.lookup("t", PRED, SCORE, 10) is None
        assert cache.invalidations == 1

    def test_delete_untouched_topk_entry_survives(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1, 2], 5, order=SCORE, keep=10)
        cache.on_rewrite("t", [99], ())
        assert cache.lookup("t", PRED, SCORE, 10) is not None


class TestUpdateSemantics:
    def test_update_ordering_column_invalidates_topk(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 5, order=SCORE, keep=10)
        cache.on_rewrite("t", [50], ["score"])
        assert cache.lookup("t", PRED, SCORE, 10) is None

    def test_update_secondary_ordering_column_invalidates_topk(self):
        order = [("score", True), ("ts", False)]
        cache = PredicateCache()
        cache.record("t", PRED, [1], 5, order=order, keep=10)
        cache.on_rewrite("t", [50], ["TS"])
        assert cache.lookup("t", PRED, order, 10) is None

    def test_update_non_ordering_column_safe_for_topk(self):
        # "UPDATEs to non-ordering columns ... are safe".
        cache = PredicateCache()
        cache.record("t", PRED, [1], 5, order=SCORE, keep=10)
        cache.on_rewrite("t", [50], ["comment"])
        assert cache.lookup("t", PRED, SCORE, 10) is not None

    def test_update_rewritten_topk_partition_invalidates(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 5, order=SCORE, keep=10)
        cache.on_rewrite("t", [1], ["comment"])
        assert cache.lookup("t", PRED, SCORE, 10) is None

    def test_update_swaps_filter_partitions(self):
        # Partition 2 is rewritten into 9: the table now lists 1 and 9,
        # and 9, above the mark, is re-checked.
        cache = PredicateCache()
        cache.record("t", PRED, [1, 2], high_water=2)
        cache.on_rewrite("t", [2], ["x"])
        assert kept(cache.lookup("t", PRED), [1, 9]) == [1, 9]

    def test_other_tables_rewrites_have_no_effect(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 5, order=SCORE, keep=10)
        cache.on_rewrite("u", [1], ["score"])
        assert cache.lookup("t", PRED, SCORE, 10) is not None


class TestTopkKeying:
    def test_distinct_k_distinct_entries(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1, order=SCORE, keep=10)
        assert cache.lookup("t", PRED, SCORE, 20) is None

    def test_direction_part_of_key(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1, order=SCORE, keep=10)
        assert cache.lookup("t", PRED, [("score", False)], 10) is None

    def test_secondary_keys_part_of_key(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1, order=SCORE, keep=10)
        assert cache.lookup(
            "t", PRED, SCORE + [("ts", True)], 10) is None

    def test_topk_and_filter_entries_do_not_collide(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1, order=SCORE, keep=10)
        assert cache.lookup("t", PRED) is None

    def test_no_predicate_topk(self):
        cache = PredicateCache()
        cache.record("t", None, [1], 1, order=SCORE, keep=10)
        entry = cache.lookup("T", None, [("SCORE", True)], 10)
        assert entry is not None and entry.kind == "topk"

    def test_drop_table(self):
        cache = PredicateCache()
        cache.record("t", PRED, [1], 1)
        cache.record("t", None, [1], 1, order=SCORE, keep=10)
        cache.record("u", PRED, [1], 1)
        cache.drop_table("t")
        assert len(cache) == 1
        assert cache.invalidations == 0
