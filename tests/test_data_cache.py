"""Warehouse-local partition cache: unit, property, differential,
and wiring tests (PR 5).

The acceptance bar mirrors the chaos suite's: the cache is a pure
performance layer, so every query must return exactly the same rows
with caching on and off — across interleaved DML, recluster rewrites,
and seeded transient faults. On top of that, segmented-LRU/byte-budget
invariants are checked property-style with hypothesis.
"""

from __future__ import annotations

import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    Catalog,
    DataType,
    FaultInjector,
    FaultSpec,
    Layout,
    PartitionCache,
    RetryPolicy,
    Schema,
    StorageError,
)
from repro.cache.prefetcher import Prefetcher
from repro.obs.fleet import render_fleet_report
from repro.obs.telemetry import TelemetryRecord
from repro.storage.metadata_store import MetadataStore
from repro.storage.micropartition import MicroPartition
from repro.storage.storage_layer import StorageLayer

SCHEMA = Schema.of(ts=DataType.INTEGER, score=DataType.INTEGER,
                   note=DataType.VARCHAR)


def make_partition(ts0: int = 0, n: int = 10) -> MicroPartition:
    # Fixed-width notes keep every partition the same byte size, so
    # the LRU/budget tests can reason in whole entries.
    rows = [(ts0 + i, (ts0 + i) * 7 % 100, f"n{ts0 + i:06d}")
            for i in range(n)]
    return MicroPartition.from_rows(SCHEMA, rows)


def make_catalog(n_rows: int = 1000, rows_per_partition: int = 50,
                 **kwargs) -> Catalog:
    catalog = Catalog(rows_per_partition=rows_per_partition, **kwargs)
    rows = [(i, (i * 37) % 1000, f"n{i}") for i in range(n_rows)]
    catalog.create_table_from_rows("events", SCHEMA, rows,
                                   layout=Layout.sorted_by("ts"))
    return catalog


# ----------------------------------------------------------------------
# PartitionCache unit tests
# ----------------------------------------------------------------------
class TestPartitionCache:
    def test_put_then_get_hits(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition)
        assert cache.get(partition.partition_id) is partition
        snap = cache.stats()
        assert snap.hits == 1 and snap.misses == 0
        assert snap.bytes_saved == partition.nbytes()

    def test_miss_recorded(self):
        cache = PartitionCache(1 << 20)
        assert cache.get(999) is None
        assert cache.stats().misses == 1

    def test_column_subset_charges_fewer_bytes(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition, columns=["ts", "score"])
        charged = cache.stats().resident_bytes
        assert charged == partition.project_bytes(["score", "ts"])
        assert charged < partition.nbytes()

    def test_partial_entry_misses_for_wider_read(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition, columns=["ts"])
        # The resident subset does not cover {ts, note}: miss.
        assert cache.get(partition.partition_id,
                         columns=["ts", "note"]) is None
        # But it serves narrower reads.
        assert cache.get(partition.partition_id,
                         columns=["ts"]) is partition

    def test_put_widens_resident_columns(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition, columns=["ts"])
        narrow = cache.stats().resident_bytes
        cache.put(partition, columns=["note"])
        assert cache.stats().resident_bytes > narrow
        assert cache.get(partition.partition_id,
                         columns=["ts", "note"]) is partition

    def test_full_put_covers_everything(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition)  # columns=None: all columns resident
        assert cache.get(partition.partition_id,
                         columns=["ts", "score", "note"]) is partition

    def test_checksum_mismatch_invalidates(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition)
        wrong = partition.checksum ^ 1
        assert cache.get(partition.partition_id,
                         expected_checksum=wrong) is None
        snap = cache.stats()
        assert snap.invalidations == 1
        assert partition.partition_id not in cache

    def test_over_budget_put_rejected(self):
        partition = make_partition()
        cache = PartitionCache(partition.nbytes() - 1)
        assert cache.put(partition) == []
        assert len(cache) == 0
        assert cache.stats().rejected == 1

    def test_eviction_is_probation_lru_first(self):
        parts = [make_partition(i * 10) for i in range(4)]
        size = parts[0].nbytes()
        cache = PartitionCache(size * 3)
        for p in parts[:3]:
            cache.put(p)
        # Promote parts[0] to protected; probation LRU is parts[1].
        cache.get(parts[0].partition_id)
        evicted = cache.put(parts[3])
        assert evicted == [parts[1].partition_id]
        assert parts[0].partition_id in cache

    def test_hit_promotes_to_protected(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition)
        assert cache.segment_ids()["probation"] == \
            [partition.partition_id]
        cache.get(partition.partition_id)
        assert cache.segment_ids()["protected"] == \
            [partition.partition_id]

    def test_protected_overflow_demotes_lru(self):
        parts = [make_partition(i * 10) for i in range(4)]
        size = parts[0].nbytes()
        # Budget fits all four; protected capped at half of it.
        cache = PartitionCache(size * 4, protected_fraction=0.5)
        for p in parts:
            cache.put(p)
            cache.get(p.partition_id)  # promote each immediately
        segments = cache.segment_ids()
        assert len(segments["protected"]) == 2
        # The two oldest promotions were demoted back, in LRU order.
        assert segments["probation"] == [p.partition_id
                                         for p in parts[:2]]
        assert len(cache) == 4

    def test_invalidate_and_clear(self):
        cache = PartitionCache(1 << 20)
        partition = make_partition()
        cache.put(partition)
        assert cache.invalidate(partition.partition_id)
        assert not cache.invalidate(partition.partition_id)
        cache.put(partition)
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0

    def test_metadata_unregister_invalidates(self):
        metadata = MetadataStore()
        cache = PartitionCache(1 << 20).attach(metadata)
        partition = make_partition()
        metadata.register("t", partition.partition_id,
                          partition.zone_map)
        cache.put(partition)
        metadata.unregister("t", partition.partition_id)
        assert partition.partition_id not in cache
        assert cache.stats().invalidations == 1

    def test_attach_twice_rejected(self):
        cache = PartitionCache(1 << 20).attach(MetadataStore())
        with pytest.raises(ValueError):
            cache.attach(MetadataStore())

    def test_close_detaches_and_clears(self):
        metadata = MetadataStore()
        cache = PartitionCache(1 << 20).attach(metadata)
        partition = make_partition()
        metadata.register("t", partition.partition_id,
                          partition.zone_map)
        cache.put(partition)
        cache.close()
        assert len(cache) == 0
        # No longer subscribed: this must not raise or re-count.
        metadata.unregister("t", partition.partition_id)
        assert cache.stats().invalidations == 0

    def test_warm_from_copies_hottest_first(self):
        parts = [make_partition(i * 10) for i in range(3)]
        size = parts[0].nbytes()
        donor = PartitionCache(size * 3)
        for p in parts:
            donor.put(p)
        donor.get(parts[2].partition_id)  # hottest: protected
        fresh = PartitionCache(size)  # room for exactly one entry
        assert fresh.warm_from(donor) == 1
        assert parts[2].partition_id in fresh

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            PartitionCache(0)
        with pytest.raises(ValueError):
            PartitionCache(100, protected_fraction=1.5)


# ----------------------------------------------------------------------
# Property tests: budget + segmented-LRU invariants
# ----------------------------------------------------------------------
PARTS = [make_partition(i * 100) for i in range(8)]
PART_SIZE = PARTS[0].nbytes()

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 7)),
        st.tuples(st.just("get"), st.integers(0, 7)),
        st.tuples(st.just("invalidate"), st.integers(0, 7)),
    ),
    min_size=1, max_size=60)


class TestCacheProperties:
    @given(ops=ops, capacity=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_budget_and_accounting_invariants(self, ops, capacity):
        cache = PartitionCache(PART_SIZE * capacity)
        for op, i in ops:
            partition = PARTS[i]
            if op == "put":
                cache.put(partition)
            elif op == "get":
                cache.get(partition.partition_id)
            else:
                cache.invalidate(partition.partition_id)
            snap = cache.stats()
            # Budget is a hard ceiling and accounting is exact.
            assert snap.resident_bytes <= cache.budget_bytes
            assert snap.resident_bytes == PART_SIZE * snap.entries
            segments = cache.segment_ids()
            resident = segments["probation"] + segments["protected"]
            # An entry lives in exactly one segment.
            assert len(resident) == len(set(resident)) == snap.entries

    @given(ops=ops)
    @settings(max_examples=60, deadline=None)
    def test_resident_entries_always_servable(self, ops):
        """Whatever the op sequence, a resident id always serves the
        exact partition object that was put (never stale bytes)."""
        cache = PartitionCache(PART_SIZE * 4)
        for op, i in ops:
            partition = PARTS[i]
            if op == "put":
                cache.put(partition)
            elif op == "get":
                got = cache.get(partition.partition_id, record=False)
                assert got is None or got is partition
            else:
                cache.invalidate(partition.partition_id)
                assert partition.partition_id not in cache

    @given(hot=st.integers(0, 3), rounds=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_hot_entry_survives_one_shot_wash(self, hot, rounds):
        """Segmented LRU's point: a repeatedly referenced partition is
        never evicted by a stream of one-shot scans."""
        cache = PartitionCache(PART_SIZE * 3)
        cache.put(PARTS[hot])
        cache.get(PARTS[hot].partition_id)  # promote
        others = [p for p in PARTS if p is not PARTS[hot]]
        for r in range(rounds):
            cache.put(others[r % len(others)])
            assert PARTS[hot].partition_id in cache


# ----------------------------------------------------------------------
# Prefetcher
# ----------------------------------------------------------------------
class TestPrefetcher:
    def make_storage(self, n=6):
        storage = StorageLayer()
        parts = [make_partition(i * 10) for i in range(n)]
        for p in parts:
            storage.put(p)
        return storage, parts

    def test_prefetch_populates_cache_in_scan_order(self):
        storage, parts = self.make_storage()
        cache = PartitionCache(1 << 20)
        order = [p.partition_id for p in parts]
        prefetcher = Prefetcher(cache, storage, order, window=2)
        try:
            for pid in order:
                claimed = prefetcher.claim(pid)
                assert cache.get(pid, record=False) is not None \
                    or not claimed
        finally:
            prefetcher.close()
        assert cache.stats().prefetch_loads >= 1

    def test_prefetch_failure_never_populates(self):
        storage, parts = self.make_storage(3)
        missing = parts[1].partition_id
        storage.delete(missing)
        cache = PartitionCache(1 << 20)
        order = [p.partition_id for p in parts]
        prefetcher = Prefetcher(cache, storage, order, window=3)
        try:
            assert prefetcher.claim(missing) is False
        finally:
            prefetcher.close()
        assert missing not in cache

    def test_close_is_idempotent(self):
        storage, parts = self.make_storage(2)
        cache = PartitionCache(1 << 20)
        prefetcher = Prefetcher(cache, storage,
                                [p.partition_id for p in parts])
        prefetcher.close()
        prefetcher.close()


# ----------------------------------------------------------------------
# Engine wiring: hits, prefetch, invalidation end-to-end
# ----------------------------------------------------------------------
class TestCatalogWiring:
    SQL = "SELECT ts, score FROM events WHERE ts >= 200"

    def test_second_run_is_all_hits(self):
        catalog = make_catalog()
        catalog.enable_data_cache()
        cold = catalog.sql(self.SQL)
        hot = catalog.sql(self.SQL)
        assert cold.rows == hot.rows
        assert cold.profile.data_cache_hits == 0
        assert cold.profile.data_cache_misses > 0
        assert hot.profile.data_cache_misses == 0
        assert hot.profile.data_cache_hits == \
            hot.profile.partitions_loaded
        assert hot.profile.data_cache_bytes_saved > 0

    def test_loaded_counters_identical_on_and_off(self):
        """partitions_loaded / rows_scanned / bytes_scanned describe
        the logical scan and must not depend on where bytes came
        from (the differential suite's accounting half)."""
        cached = make_catalog()
        cached.enable_data_cache()
        plain = make_catalog()
        cached.sql(self.SQL)  # warm
        hot = cached.sql(self.SQL).profile
        off = plain.sql(self.SQL).profile
        assert hot.partitions_loaded == off.partitions_loaded
        assert (sum(s.rows_scanned for s in hot.scans)
                == sum(s.rows_scanned for s in off.scans))
        assert (sum(s.bytes_scanned for s in hot.scans)
                == sum(s.bytes_scanned for s in off.scans))

    def test_hot_run_reads_no_storage_bytes(self):
        catalog = make_catalog()
        catalog.enable_data_cache()
        catalog.sql(self.SQL)  # warm
        before = catalog.storage.stats.snapshot()
        catalog.sql(self.SQL)
        delta = catalog.storage.stats.diff(before)
        assert delta.bytes_read == 0
        assert delta.cache_hits > 0

    def test_hot_run_is_simulated_faster(self):
        catalog = make_catalog()
        catalog.enable_data_cache()
        cold = catalog.sql(self.SQL).profile.exec_ms
        hot = catalog.sql(self.SQL).profile.exec_ms
        assert hot < cold
        # With every load a hit (asserted above) the load share of the
        # clock shrinks by these two ratios: >= 5x, the old gate.
        model = catalog.storage.cost_model
        assert model.request_latency_ms >= 5 * model.cached_hit_cost_ms
        assert model.ms_per_mb >= 5 * model.cached_ms_per_mb

    def test_dml_rewrite_invalidates_stale_partitions(self):
        catalog = make_catalog()
        catalog.enable_data_cache()
        catalog.sql(self.SQL)  # warm
        catalog.sql("UPDATE events SET score = 1 WHERE ts < 300")
        assert catalog.data_cache.stats().invalidations > 0
        fresh = catalog.sql(
            "SELECT score FROM events WHERE ts < 300")
        assert all(row == (1,) for row in fresh.rows)

    def test_recluster_invalidates_everything_rewritten(self):
        catalog = make_catalog()
        catalog.enable_data_cache()
        catalog.sql(self.SQL)  # warm
        catalog.recluster("events", "score")
        result = catalog.sql(
            "SELECT count(*) AS c FROM events WHERE score < 500")
        plain = make_catalog()
        plain.recluster("events", "score")
        assert result.rows == plain.sql(
            "SELECT count(*) AS c FROM events WHERE score < 500").rows

    def test_explain_analyze_shows_cache_line(self):
        catalog = make_catalog()
        catalog.enable_data_cache()
        catalog.sql(self.SQL)
        text = catalog.explain_analyze(self.SQL)
        assert "data cache:" in text
        # ... and in per-query telemetry and the fleet report.
        record = TelemetryRecord.from_result(catalog.sql(self.SQL))
        assert record.data_cache_hits > 0
        assert "data-cache hit ratio" in render_fleet_report([record])

    def test_per_query_cache_override(self):
        catalog = make_catalog()  # no catalog-level cache
        cache = PartitionCache(1 << 24).attach(catalog.metadata)
        catalog.sql(self.SQL, cache=cache)
        hot = catalog.sql(self.SQL, cache=cache)
        assert hot.profile.data_cache_hits > 0
        # Without the override the catalog stays uncached.
        plain = catalog.sql(self.SQL)
        assert plain.profile.data_cache_hits == 0
        assert plain.profile.data_cache_misses == 0

    def test_parallel_scan_uses_cache(self):
        catalog = make_catalog(scan_parallelism=4)
        catalog.enable_data_cache()
        cold = catalog.sql(self.SQL)
        hot = catalog.sql(self.SQL)
        assert cold.rows == hot.rows
        assert hot.profile.data_cache_hits == \
            hot.profile.partitions_loaded

    def test_enable_is_idempotent(self):
        catalog = make_catalog()
        first = catalog.enable_data_cache()
        assert catalog.enable_data_cache() is first


# ----------------------------------------------------------------------
# Differential: cache on/off bit-identical under DML + chaos
# ----------------------------------------------------------------------
QUERIES = [
    "SELECT * FROM events WHERE ts BETWEEN 100 AND 400",
    "SELECT count(*) AS c FROM events WHERE ts < 600",
    "SELECT note FROM events WHERE score >= 900",
    "SELECT score, count(*) AS c FROM events "
    "WHERE ts < 800 GROUP BY score",
    "SELECT * FROM events WHERE ts BETWEEN 30 AND 90 "
    "ORDER BY ts DESC LIMIT 7",
    "SELECT min(ts) AS lo, max(ts) AS hi FROM events",
]

DML = [
    "UPDATE events SET score = 7 WHERE ts BETWEEN 50 AND 150",
    "DELETE FROM events WHERE ts BETWEEN 700 AND 720",
    "UPDATE events SET note = 'x' WHERE score < 100",
]


class TestDifferential:
    def run_script(self, catalog: Catalog) -> list[list]:
        outputs = []
        for step, dml in enumerate(DML + [None]):
            for sql in QUERIES:
                outputs.append(sorted(catalog.sql(sql).rows))
                # Re-run immediately: hot path must agree with itself.
                outputs.append(sorted(catalog.sql(sql).rows))
            if dml is not None:
                catalog.sql(dml)
            if step == 1:
                catalog.recluster("events", "score")
        return outputs

    def test_cache_on_off_bit_identical(self):
        cached = make_catalog(2000, rows_per_partition=100)
        cached.enable_data_cache(budget_bytes=1 << 22)
        plain = make_catalog(2000, rows_per_partition=100)
        assert self.run_script(cached) == self.run_script(plain)
        assert cached.data_cache.stats().hits > 0

    def test_tiny_budget_still_correct(self):
        """Constant eviction pressure must only cost hits, never
        rows."""
        cached = make_catalog(2000, rows_per_partition=100)
        # ~3 partitions' worth: almost everything washes out.
        partition = cached.storage.peek(
            cached.scan_set("events").partition_ids[0])
        cached.enable_data_cache(budget_bytes=partition.nbytes() * 3)
        plain = make_catalog(2000, rows_per_partition=100)
        assert self.run_script(cached) == self.run_script(plain)
        assert cached.data_cache.stats().evictions > 0

    @pytest.mark.parametrize("seed", [11, 23])
    def test_chaos_cache_on_off_bit_identical(self, seed):
        """Transient faults + caching: same rows as the uncached,
        fault-free oracle. Corrupt/unavailable loads must never
        populate the cache."""
        spec = FaultSpec(timeout_rate=0.04, throttle_rate=0.03,
                         corruption_rate=0.04, latency_rate=0.02,
                         latency_ms=1.0)
        cached = make_catalog(2000, rows_per_partition=100)
        cached.enable_data_cache(budget_bytes=1 << 22)
        cached.enable_fault_injection(
            FaultInjector(seed=seed, storage=spec),
            retry_policy=RetryPolicy(max_attempts=8))
        oracle = make_catalog(2000, rows_per_partition=100)
        assert self.run_script(cached) == self.run_script(oracle)

    def test_concurrent_queries_share_cache(self):
        catalog = make_catalog(2000, rows_per_partition=100)
        catalog.enable_data_cache()
        expected = {sql: sorted(catalog.sql(sql).rows)
                    for sql in QUERIES}
        mismatches: list[str] = []
        errors: list[BaseException] = []

        def worker():
            try:
                for _ in range(5):
                    for sql in QUERIES:
                        if sorted(catalog.sql(sql).rows) \
                                != expected[sql]:
                            mismatches.append(sql)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not mismatches
        assert catalog.data_cache.stats().hits > 0


# ----------------------------------------------------------------------
# Per-cluster caches: WarehousePool + QueryService
# ----------------------------------------------------------------------
class TestClusterCaches:
    def test_service_serves_hot_queries_from_cluster_cache(self):
        from repro.service import QueryService

        catalog = make_catalog()
        service = QueryService(catalog, data_cache_bytes=1 << 24,
                               enable_result_cache=False)
        sql = "SELECT ts, score FROM events WHERE ts >= 200"
        cold = service.sql(sql)
        hot = service.sql(sql)
        assert cold.rows == hot.rows
        assert hot.profile.data_cache_hits > 0
        described = service.describe()
        assert described["data_cache"]["hits"] > 0
        assert described["data_cache"]["clusters"]

    def test_scale_in_closes_cache_scale_out_warms(self):
        from repro.service.pool import WarehousePool

        metadata = MetadataStore()
        built: dict[str, PartitionCache] = {}

        def factory(name: str) -> PartitionCache:
            cache = PartitionCache(1 << 24, name=name)
            cache.attach(metadata)
            built[name] = cache
            return cache

        pool = WarehousePool(slots_per_cluster=1,
                             max_queue_per_cluster=8,
                             min_clusters=1, max_clusters=2,
                             scale_out_queue_depth=0,
                             scale_in_idle_checks=1,
                             cache_factory=factory)
        partition = make_partition()
        donor = pool.clusters[0]
        donor.cache.put(partition)
        donor.cache.get(partition.partition_id)  # hottest entry
        first, _ = pool.acquire()
        second, _ = pool.acquire()  # saturated: scales out + warms
        assert pool.n_clusters == 2
        fresh = pool.clusters[1].cache
        assert partition.partition_id in fresh
        pool.release(first)
        pool.release(second)  # idle observation: scale back in
        assert pool.n_clusters == 1
        assert len(built["cluster-1"]) == 0  # closed on retirement
        # The surviving cluster still hears metadata events; the
        # retired one is detached and stays empty.
        metadata.register("t", partition.partition_id,
                          partition.zone_map)
        donor.cache.put(partition)
        metadata.unregister("t", partition.partition_id)
        assert partition.partition_id not in donor.cache
        assert len(built["cluster-1"]) == 0


# ----------------------------------------------------------------------
# put() id-collision guard (satellite bugfix)
# ----------------------------------------------------------------------
class TestPutCollision:
    def test_foreign_partition_with_live_id_rejected(self):
        storage = StorageLayer()
        original = make_partition(0)
        storage.put(original)
        impostor = make_partition(500)
        impostor.partition_id = original.partition_id
        with pytest.raises(StorageError):
            storage.put(impostor)
        # The original bytes are untouched.
        assert storage.peek(original.partition_id) is original

    def test_reput_of_same_object_is_idempotent(self):
        storage = StorageLayer()
        partition = make_partition(0)
        storage.put(partition)
        assert storage.put(partition) == partition.partition_id

    def test_id_free_after_delete(self):
        storage = StorageLayer()
        original = make_partition(0)
        storage.put(original)
        storage.delete(original.partition_id)
        replacement = make_partition(500)
        replacement.partition_id = original.partition_id
        assert storage.put(replacement) == original.partition_id
