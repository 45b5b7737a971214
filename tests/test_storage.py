"""Tests for zone maps, micro-partitions, tables, builders, layouts,
the storage layer, and the metadata store."""

import threading

import pytest

from repro.errors import MetadataError, SchemaError, StorageError
from repro.storage import (
    Column,
    ColumnStats,
    MetadataStore,
    MicroPartition,
    StorageLayer,
    ZoneMap,
)
from repro.storage.builder import TableBuilder, build_table
from repro.storage.clustering import Layout, apply_layout, measure_overlap
from repro.storage.storage_layer import CostModel
from repro.storage.table import Table
from repro.types import DataType, Schema

SCHEMA = Schema.of(x=DataType.INTEGER, s=DataType.VARCHAR)


def make_partition(rows):
    return MicroPartition.from_rows(SCHEMA, rows)


class TestColumnStats:
    def test_from_column(self):
        col = Column.from_pylist(DataType.INTEGER, [3, None, 7])
        stats = ColumnStats.from_column(col)
        assert (stats.min_value, stats.max_value) == (3, 7)
        assert stats.null_count == 1
        assert stats.row_count == 3
        assert stats.has_nulls and not stats.all_null
        assert stats.has_values

    def test_unknown(self):
        stats = ColumnStats.unknown(DataType.INTEGER, 10)
        assert not stats.present
        assert not stats.has_values

    def test_merge(self):
        a = ColumnStats(DataType.INTEGER, 1, 5, 0, 10)
        b = ColumnStats(DataType.INTEGER, 3, 9, 2, 10)
        merged = a.merge(b)
        assert (merged.min_value, merged.max_value) == (1, 9)
        assert merged.null_count == 2
        assert merged.row_count == 20

    def test_merge_with_all_null_side(self):
        a = ColumnStats(DataType.INTEGER, None, None, 5, 5)
        b = ColumnStats(DataType.INTEGER, 3, 9, 0, 10)
        merged = a.merge(b)
        assert (merged.min_value, merged.max_value) == (3, 9)

    def test_merge_missing_stays_missing(self):
        a = ColumnStats.unknown(DataType.INTEGER, 5)
        b = ColumnStats(DataType.INTEGER, 3, 9, 0, 10)
        assert not a.merge(b).present

    def test_merge_dtype_mismatch(self):
        a = ColumnStats(DataType.INTEGER, 1, 5, 0, 10)
        b = ColumnStats(DataType.DOUBLE, 1.0, 5.0, 0, 10)
        with pytest.raises(MetadataError):
            a.merge(b)


class TestZoneMap:
    def test_from_columns(self):
        part = make_partition([(1, "a"), (5, "z"), (3, None)])
        zm = part.zone_map
        assert zm.row_count == 3
        assert zm.stats("x").min_value == 1
        assert zm.stats("s").max_value == "z"
        assert zm.stats("s").null_count == 1

    def test_unknown_column_raises(self):
        part = make_partition([(1, "a")])
        with pytest.raises(MetadataError):
            part.zone_map.stats("nope")

    def test_without_stats(self):
        part = make_partition([(1, "a")])
        stripped = part.zone_map.without_stats()
        assert not stripped.has_stats("x")
        assert stripped.row_count == 1

    def test_merge_different_columns_raises(self):
        zm1 = make_partition([(1, "a")]).zone_map
        other_schema = Schema.of(y=DataType.INTEGER)
        zm2 = MicroPartition.from_rows(other_schema, [(1,)]).zone_map
        with pytest.raises(MetadataError):
            zm1.merge(zm2)


class TestMicroPartition:
    def test_from_rows_roundtrip(self):
        rows = [(1, "a"), (2, None)]
        part = make_partition(rows)
        assert part.to_rows() == rows
        assert part.row_count == 2

    def test_schema_mismatch_raises(self):
        with pytest.raises(SchemaError):
            MicroPartition(SCHEMA, {"x": Column.from_pylist(
                DataType.INTEGER, [1])})

    def test_dtype_mismatch_raises(self):
        with pytest.raises(SchemaError):
            MicroPartition(SCHEMA, {
                "x": Column.from_pylist(DataType.DOUBLE, [1.0]),
                "s": Column.from_pylist(DataType.VARCHAR, ["a"]),
            })

    def test_ragged_columns_raise(self):
        with pytest.raises(SchemaError):
            MicroPartition(SCHEMA, {
                "x": Column.from_pylist(DataType.INTEGER, [1, 2]),
                "s": Column.from_pylist(DataType.VARCHAR, ["a"]),
            })

    def test_unique_ids(self):
        a = make_partition([(1, "a")])
        b = make_partition([(1, "a")])
        assert a.partition_id != b.partition_id

    def test_project_bytes_smaller_than_full(self):
        part = make_partition([(i, "text" * 10) for i in range(50)])
        assert part.project_bytes(["x"]) < part.nbytes()

    def test_with_zone_map_and_recompute(self):
        part = make_partition([(1, "a"), (9, "z")])
        stripped = part.with_zone_map(part.zone_map.without_stats())
        assert not stripped.zone_map.has_stats("x")
        recomputed = stripped.recompute_zone_map()
        assert recomputed.stats("x").max_value == 9


class TestTableAndBuilder:
    def test_builder_chunks_rows(self):
        table = build_table("t", SCHEMA,
                            [(i, "s") for i in range(25)],
                            rows_per_partition=10)
        assert table.num_partitions == 3
        assert [p.row_count for p in table.partitions] == [10, 10, 5]
        assert table.row_count == 25

    def test_builder_rejects_bad_row(self):
        builder = TableBuilder("t", SCHEMA, rows_per_partition=10)
        with pytest.raises(SchemaError):
            builder.add_row((1,))

    def test_builder_rejects_nonpositive_chunk(self):
        with pytest.raises(SchemaError):
            TableBuilder("t", SCHEMA, rows_per_partition=0)

    def test_table_partition_lookup(self):
        table = build_table("t", SCHEMA, [(1, "a")],
                            rows_per_partition=10)
        pid = table.partition_ids[0]
        assert table.partition(pid).row_count == 1
        with pytest.raises(SchemaError):
            table.partition(999_999)

    def test_table_rejects_wrong_schema_partition(self):
        table = Table("t", SCHEMA)
        other = MicroPartition.from_rows(
            Schema.of(y=DataType.INTEGER), [(1,)])
        with pytest.raises(SchemaError):
            table.add_partition(other)

    def test_remove_partition(self):
        table = build_table("t", SCHEMA, [(i, "s") for i in range(20)],
                            rows_per_partition=10)
        pid = table.partition_ids[0]
        table.remove_partition(pid)
        assert pid not in table.partition_ids


class TestLayouts:
    ROWS = [(i, f"s{i}") for i in range(100)]

    def test_sorted_layout_orders_rows(self):
        import random

        shuffled = list(self.ROWS)
        random.Random(0).shuffle(shuffled)
        ordered = apply_layout(SCHEMA, shuffled, Layout.sorted_by("x"))
        assert [r[0] for r in ordered] == sorted(range(100))

    def test_sorted_layout_nulls_first(self):
        rows = [(2, "a"), (None, "b"), (1, "c")]
        ordered = apply_layout(SCHEMA, rows, Layout.sorted_by("x"))
        assert ordered[0][0] is None

    def test_random_layout_is_deterministic(self):
        a = apply_layout(SCHEMA, self.ROWS, Layout.random(seed=5))
        b = apply_layout(SCHEMA, self.ROWS, Layout.random(seed=5))
        assert a == b

    def test_natural_layout_keeps_order(self):
        assert apply_layout(SCHEMA, self.ROWS,
                            Layout.natural()) == self.ROWS

    def test_clustered_preserves_multiset(self):
        ordered = apply_layout(SCHEMA, self.ROWS,
                               Layout.clustered_by("x", jitter=5))
        assert sorted(ordered) == sorted(self.ROWS)

    def test_sorted_requires_keys(self):
        with pytest.raises(SchemaError):
            apply_layout(SCHEMA, self.ROWS, Layout(kind="sorted"))

    def test_overlap_sorted_vs_random(self):
        sorted_table = build_table(
            "a", SCHEMA, self.ROWS, rows_per_partition=10,
            layout=Layout.sorted_by("x"))
        random_table = build_table(
            "b", SCHEMA, self.ROWS, rows_per_partition=10,
            layout=Layout.random(seed=1))
        sorted_overlap = measure_overlap(sorted_table.partitions, "x")
        random_overlap = measure_overlap(random_table.partitions, "x")
        assert sorted_overlap.mean_overlap == 0.0
        assert random_overlap.mean_overlap > 5


class TestStorageLayer:
    def test_put_load_accounting(self, small_table):
        storage = StorageLayer()
        storage.put_all(small_table.partitions)
        pid = small_table.partition_ids[0]
        partition = storage.load(pid)
        assert partition.partition_id == pid
        assert storage.stats.requests == 1
        assert storage.stats.partitions_loaded == 1
        assert storage.stats.bytes_read == partition.nbytes()

    def test_column_projection_reads_fewer_bytes(self, small_table):
        storage = StorageLayer()
        storage.put_all(small_table.partitions)
        pid = small_table.partition_ids[0]
        storage.load(pid, columns=["ts"])
        full = storage.peek(pid).nbytes()
        assert storage.stats.bytes_read < full

    def test_missing_partition_raises(self):
        storage = StorageLayer()
        with pytest.raises(StorageError):
            storage.load(12345)
        with pytest.raises(StorageError):
            storage.delete(12345)

    def test_peek_does_not_account(self, small_table):
        storage = StorageLayer()
        storage.put_all(small_table.partitions)
        storage.peek(small_table.partition_ids[0])
        assert storage.stats.requests == 0

    def test_stats_snapshot_diff(self, small_table):
        storage = StorageLayer()
        storage.put_all(small_table.partitions)
        before = storage.stats.snapshot()
        storage.load(small_table.partition_ids[0])
        delta = storage.stats.diff(before)
        assert delta.partitions_loaded == 1

    def test_stats_diff_is_atomic_under_writers(self, small_table):
        """Regression: diff() used to read the live counters field by
        field without the lock, so a concurrent load could tear the
        view (e.g. requests counted but bytes_read not yet). With every
        load adding exactly one request and one partition's bytes, a
        consistent diff always shows bytes_read == requests * nbytes."""
        storage = StorageLayer()
        storage.put_all(small_table.partitions)
        pid = small_table.partition_ids[0]
        nbytes = storage.peek(pid).nbytes()
        before = storage.stats.snapshot()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                storage.load(pid)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        torn = []
        try:
            for _ in range(300):
                delta = storage.stats.diff(before)
                if delta.bytes_read != delta.requests * nbytes:
                    torn.append((delta.requests, delta.bytes_read))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not torn

    def test_put_rejects_live_id_collision(self, small_table):
        """Regression: partition ids are immutable and never reused;
        silently replacing a live id would serve stale cached bytes."""
        storage = StorageLayer()
        original = small_table.partitions[0]
        storage.put(original)
        impostor = small_table.partitions[1]
        impostor.partition_id = original.partition_id
        with pytest.raises(StorageError):
            storage.put(impostor)
        assert storage.peek(original.partition_id) is original

    def test_put_same_object_again_is_noop(self, small_table):
        storage = StorageLayer()
        partition = small_table.partitions[0]
        storage.put(partition)
        assert storage.put(partition) == partition.partition_id
        assert len(storage) == 1

    def test_cost_model_monotone_in_bytes(self):
        model = CostModel()
        assert model.load_cost(10 * 2**20) > model.load_cost(2**20)
        assert model.scan_cost(10_000) > model.scan_cost(100)
        assert model.cached_load_cost(2**20) < model.load_cost(2**20)


class TestMetadataStore:
    def test_register_get(self, small_table):
        store = MetadataStore()
        for p in small_table.partitions:
            store.register("t", p.partition_id, p.zone_map)
        pid = small_table.partition_ids[0]
        assert store.get("t", pid).row_count == 50
        assert store.partitions_of("t") == small_table.partition_ids
        assert store.table_row_count("t") == 250
        assert store.lookups == 1 + len(small_table.partitions)

    def test_unregister(self, small_table):
        store = MetadataStore()
        p = small_table.partitions[0]
        store.register("t", p.partition_id, p.zone_map)
        store.unregister("t", p.partition_id)
        with pytest.raises(MetadataError):
            store.get("t", p.partition_id)
        with pytest.raises(MetadataError):
            store.unregister("t", p.partition_id)

    def test_drop_table(self, small_table):
        store = MetadataStore()
        for p in small_table.partitions:
            store.register("t", p.partition_id, p.zone_map)
        store.drop_table("t")
        assert store.partitions_of("t") == []
        assert len(store) == 0

    def test_version_increments(self, small_table):
        store = MetadataStore()
        v0 = store.version
        p = small_table.partitions[0]
        store.register("t", p.partition_id, p.zone_map)
        assert store.version > v0
