"""Tests for injected faults and fail-open pruning.

Covers the seeded fault fixture (``tests/faults.py``), checksum-based
corruption detection, thread-safe metadata store maintenance, the
fail-open seam of ``Catalog.scan_set`` and graceful pruning
degradation under metadata outages, and the service's end-to-end
timeouts.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    Catalog,
    CorruptionError,
    DataType,
    Layout,
    MetadataError,
    MetadataStore,
    MetadataThrottled,
    MetadataTimeout,
    MetadataUnavailableError,
    PartitionUnavailableError,
    Schema,
    StorageLayer,
)
from repro.service import QueryService
from repro.storage.zonemap import ZoneMap

from conftest import make_events_rows
from faults import METADATA, STORAGE, FaultInjector, FaultSpec, install_faults

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)


def make_catalog(n_rows: int = 2000,
                 rows_per_partition: int = 100) -> Catalog:
    catalog = Catalog(rows_per_partition=rows_per_partition)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n_rows),
        layout=Layout.sorted_by("ts"))
    return catalog


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def spec(self):
        return FaultSpec(timeout_rate=0.2, throttle_rate=0.1,
                         corruption_rate=0.1)

    def collect(self, injector, n=200):
        outcomes = []
        for i in range(n):
            try:
                injector.check(STORAGE, i % 10)
                outcomes.append("ok")
            except Exception as exc:  # noqa: BLE001 — classified below
                outcomes.append(type(exc).__name__)
        return outcomes

    def test_same_seed_same_schedule(self):
        a = self.collect(FaultInjector(seed=42, storage=self.spec()))
        b = self.collect(FaultInjector(seed=42, storage=self.spec()))
        assert a == b

    def test_different_seed_different_schedule(self):
        a = self.collect(FaultInjector(seed=1, storage=self.spec()))
        b = self.collect(FaultInjector(seed=2, storage=self.spec()))
        assert a != b

    def test_all_fault_kinds_fire(self):
        injector = FaultInjector(seed=3, storage=self.spec())
        self.collect(injector, n=500)
        injected = injector.injected()
        assert injected.get("storage.timeout", 0) > 0
        assert injected.get("storage.throttle", 0) > 0
        assert injected.get("storage.corruption", 0) > 0

    def test_disabled_injector_is_clean(self):
        injector = FaultInjector(seed=3, storage=self.spec())
        injector.enabled = False
        for _ in range(100):
            injector.check(STORAGE, 1)
        assert injector.total_injected() == 0

    def test_paused_context(self):
        injector = FaultInjector(seed=3)
        injector.set_outage(STORAGE)
        with injector.paused():
            injector.check(STORAGE, 1)  # no raise while paused
        with pytest.raises(PartitionUnavailableError):
            injector.check(STORAGE, 1)

    def test_mark_unavailable_and_restore(self):
        injector = FaultInjector(seed=0)
        injector.mark_unavailable(STORAGE, 7)
        with pytest.raises(PartitionUnavailableError) as info:
            injector.check(STORAGE, 7)
        assert info.value.partition_id == 7
        injector.check(STORAGE, 8)  # other keys unaffected
        injector.restore(STORAGE, 7)
        injector.check(STORAGE, 7)

    def test_metadata_outage(self):
        injector = FaultInjector(seed=0)
        injector.set_outage(METADATA)
        with pytest.raises(MetadataUnavailableError):
            injector.check(METADATA, ("events", 1))
        injector.check(STORAGE, 1)  # storage scope unaffected

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(timeout_rate=0.6, throttle_rate=0.6)


# ----------------------------------------------------------------------
# Checksums and corruption
# ----------------------------------------------------------------------
class TestChecksums:
    def test_checksum_stable_and_content_sensitive(self):
        from repro.storage.micropartition import MicroPartition

        rows = make_events_rows(50)
        a = MicroPartition.from_rows(SCHEMA, rows)
        b = MicroPartition.from_rows(SCHEMA, rows)
        assert a.checksum == b.checksum
        c = MicroPartition.from_rows(SCHEMA, make_events_rows(50, seed=1))
        assert a.checksum != c.checksum

    def test_null_vs_dummy_distinguished(self):
        from repro.storage.micropartition import MicroPartition

        schema = Schema.of(x=DataType.INTEGER)
        with_null = MicroPartition.from_rows(schema, [(None,), (1,)])
        with_zero = MicroPartition.from_rows(schema, [(0,), (1,)])
        assert with_null.checksum != with_zero.checksum

    def test_verify_integrity_detects_tamper(self):
        from repro.storage.micropartition import MicroPartition

        partition = MicroPartition.from_rows(SCHEMA, make_events_rows(20))
        partition.verify_integrity()  # clean
        partition.column("score").values[0] += 1  # bit rot
        with pytest.raises(CorruptionError) as info:
            partition.verify_integrity()
        assert info.value.partition_id == partition.partition_id

    def test_injected_corruption_retries_to_success(self):
        catalog = make_catalog(500)
        injector = install_faults(catalog, FaultInjector(
            seed=11, storage=FaultSpec(corruption_rate=0.3)), attempts=10)
        # WHERE clause forces real partition loads (an unfiltered
        # count(*) would be answered from metadata alone). Decisions
        # re-roll per access, so some round must corrupt.
        for _ in range(10):
            result = catalog.sql(
                "SELECT count(*) FROM events WHERE value >= 0")
            assert result.rows == [(500,)]
            if injector.injected().get("storage.corruption", 0) > 0:
                break
        assert injector.injected().get("storage.corruption", 0) > 0

    def test_corruption_without_retries_raises(self):
        catalog = make_catalog(500)
        install_faults(catalog, FaultInjector(
            seed=11, storage=FaultSpec(corruption_rate=0.5)), attempts=1)
        with pytest.raises(CorruptionError):
            for _ in range(20):  # some seed roll must corrupt
                catalog.sql(
                    "SELECT count(*) FROM events WHERE value >= 0")


# ----------------------------------------------------------------------
# Storage-layer resilience
# ----------------------------------------------------------------------
class TestStorageResilience:
    def test_transient_faults_absorbed_and_counted(self):
        catalog = make_catalog(1000)
        injector = install_faults(catalog, FaultInjector(
            seed=5, storage=FaultSpec(timeout_rate=0.1,
                                      throttle_rate=0.05)), attempts=8)
        oracle = [(1000,)]
        for _ in range(10):
            assert catalog.sql(
                "SELECT count(*) FROM events "
                "WHERE value >= 0").rows == oracle
        assert injector.total_injected() > 0
        assert catalog.storage.stats.failed_requests == 0

    def test_permanent_loss_not_retried(self):
        catalog = make_catalog(500)
        injector = install_faults(catalog, FaultInjector(seed=0),
                                  attempts=6)
        pid = catalog.tables["events"].partition_ids[0]
        injector.mark_unavailable(STORAGE, pid)
        with pytest.raises(PartitionUnavailableError):
            catalog.sql("SELECT * FROM events WHERE ts < 50")
        assert injector.injected() == {"storage.unavailable": 1}
        assert catalog.storage.stats.failed_requests == 1

# ----------------------------------------------------------------------
# Metadata store: thread safety + maintenance
# ----------------------------------------------------------------------
class TestMetadataStore:
    def zone_map(self):
        from repro.storage.column import Column

        return ZoneMap.from_columns(
            {"x": Column.from_pylist(DataType.INTEGER, [1, 2, 3])})

    def test_unregister_cleans_empty_table_bucket(self):
        store = MetadataStore()
        store.register("t", 1, self.zone_map())
        store.unregister("t", 1)
        assert store.partitions_of("t") == []
        assert "t" not in store._table_partitions  # no leaked bucket

    def test_registration_order_preserved(self):
        store = MetadataStore()
        for pid in (5, 3, 9, 1):
            store.register("t", pid, self.zone_map())
        assert store.partitions_of("t") == [5, 3, 9, 1]
        store.unregister("t", 9)
        assert store.partitions_of("t") == [5, 3, 1]

    def test_unregister_unknown_raises(self):
        store = MetadataStore()
        with pytest.raises(MetadataError):
            store.unregister("t", 1)

    def test_concurrent_register_unregister(self):
        store = MetadataStore()
        zone_map = self.zone_map()
        errors: list[BaseException] = []

        def churn(base: int):
            try:
                for i in range(200):
                    pid = base * 1000 + i
                    store.register("t", pid, zone_map)
                    store.get("t", pid)
                    store.unregister("t", pid)
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(store) == 0
        assert store.partitions_of("t") == []

    def test_reads_go_through_injector(self):
        catalog = make_catalog(500)
        install_faults(catalog, FaultInjector(
            seed=1, metadata=FaultSpec(timeout_rate=1.0)))
        pid = catalog.tables["events"].partition_ids[0]
        with pytest.raises(MetadataTimeout):
            catalog.metadata.get("events", pid)


# ----------------------------------------------------------------------
# Graceful pruning degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_outage_degrades_to_full_scan_with_correct_rows(self):
        catalog = make_catalog(2000)
        oracle = catalog.sql(
            "SELECT count(*), min(score) FROM events WHERE ts >= 500")
        injector = install_faults(catalog, FaultInjector(seed=0))
        injector.set_outage(METADATA)
        result = catalog.sql(
            "SELECT count(*), min(score) FROM events WHERE ts >= 500")
        assert result.rows == oracle.rows
        assert result.degraded
        profile = result.profile
        assert profile.degraded_partitions == 20
        # Degraded partitions cannot be pruned: everything is scanned.
        assert profile.partitions_loaded == 20
        export = profile.metrics_export()
        assert export["degraded"] == 1.0
        assert export["partitions_degraded"] == 20.0

    def test_partial_degradation_still_prunes_healthy_partitions(self):
        catalog = make_catalog(2000)
        injector = install_faults(catalog, FaultInjector(seed=0),
                                  attempts=2)
        # Permanently fail the metadata for two specific partitions.
        pids = catalog.tables["events"].partition_ids
        for pid in pids[:2]:
            injector.mark_unavailable(METADATA, ("events", pid))
        result = catalog.sql(
            "SELECT count(*) FROM events WHERE ts >= 1900")
        assert result.rows == [(100,)]
        profile = result.profile
        assert profile.degraded_partitions == 2
        # The two degraded partitions (ts 0..200) do not match the
        # predicate but must be scanned anyway; the 17 healthy
        # non-matching partitions are still pruned.
        assert profile.partitions_loaded == 3

    def test_degraded_query_skips_metadata_only_aggregate(self):
        catalog = make_catalog(1000)
        clean = catalog.sql("SELECT count(*) FROM events")
        assert clean.profile.scans[0].metadata_only
        injector = install_faults(catalog, FaultInjector(seed=0))
        injector.set_outage(METADATA)
        degraded = catalog.sql("SELECT count(*) FROM events")
        assert degraded.rows == clean.rows
        assert not degraded.profile.scans[-1].metadata_only
        assert degraded.profile.partitions_loaded == 10

    def test_explain_analyze_reports_degradation(self):
        catalog = make_catalog(500)
        injector = install_faults(catalog, FaultInjector(seed=0))
        injector.set_outage(METADATA)
        text = catalog.explain_analyze(
            "SELECT * FROM events WHERE ts < 100")
        assert "DEGRADED" in text

    def test_explain_analyze_clean_run(self):
        catalog = make_catalog(500)
        text = catalog.explain_analyze(
            "SELECT * FROM events WHERE ts < 100")
        assert "EXPLAIN ANALYZE" in text
        assert "degraded: no" in text
        assert "Scan events" in text

    def test_dml_unaffected_by_metadata_outage(self):
        catalog = make_catalog(500)
        injector = install_faults(catalog, FaultInjector(seed=0))
        injector.set_outage(METADATA)
        result = catalog.sql("DELETE FROM events WHERE ts < 50")
        assert result.rows == [(50,)]


class TestFailOpenSeam:
    """``Catalog.scan_set`` reads the stats index in one call; a
    degradable error there falls back to one read per partition."""

    SQL = "SELECT count(*), min(score) FROM events WHERE ts >= 1500"

    def _lose_bulk_read(self, monkeypatch, error):
        catalog = make_catalog(2000)
        oracle = catalog.sql(self.SQL)
        injector = install_faults(catalog, FaultInjector(seed=0))
        lost = catalog.tables["events"].partition_ids[3:6]
        for pid in lost:
            injector.mark_unavailable(METADATA, ("events", pid))

        def fetch_index(table):
            raise error(f"bulk read of {table!r} (injected)")

        monkeypatch.setattr(catalog.metadata, "fetch_index", fetch_index)
        return catalog, oracle, lost

    @pytest.mark.parametrize("error", [MetadataThrottled,
                                       MetadataUnavailableError])
    def test_degradable_bulk_read_falls_back_per_partition(
            self, monkeypatch, error):
        catalog, oracle, lost = self._lose_bulk_read(monkeypatch, error)
        gets = []
        get = catalog.metadata.get
        monkeypatch.setattr(catalog.metadata, "get",
                            lambda table, pid: gets.append(pid)
                            or get(table, pid))
        result = catalog.sql(self.SQL)
        assert result.rows == oracle.rows
        assert gets == catalog.tables["events"].partition_ids
        assert result.profile.degraded_partitions == len(lost)
        # the five matching partitions and the three without metadata
        assert result.profile.partitions_loaded == 5 + len(lost)

    def test_plain_metadata_error_propagates(self, monkeypatch):
        catalog, _, _ = self._lose_bulk_read(monkeypatch, MetadataError)
        with pytest.raises(MetadataError) as info:
            catalog.sql(self.SQL)
        assert type(info.value) is MetadataError


# ----------------------------------------------------------------------
# Service-level resilience
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_degraded_queries_counted(self):
        catalog = make_catalog(500)
        injector = install_faults(catalog, FaultInjector(seed=0))
        injector.set_outage(METADATA)
        service = QueryService(catalog, enable_result_cache=False)
        result = service.sql("SELECT count(*) FROM events")
        assert result.rows == [(500,)]
        assert service.metrics.counter("queries_degraded").value >= 1
        snap = service.describe()
        assert snap["queries_degraded"] >= 1


# ----------------------------------------------------------------------
# Accounting plumbing
# ----------------------------------------------------------------------
class TestAccounting:
    def test_iostats_snapshot_and_diff_cover_new_fields(self):
        from repro.storage.storage_layer import IOStats

        stats = IOStats()
        stats.record_failed_request()
        stats.record_cache_traffic(2, 300, 1)
        snap = stats.snapshot()
        assert snap.failed_requests == 1
        assert (snap.cache_hits, snap.cache_bytes_saved,
                snap.cache_misses) == (2, 300, 1)
        stats.record_failed_request()
        stats.record_load(3, 700)
        diff = stats.diff(snap)
        assert diff.failed_requests == 1
        assert (diff.requests, diff.bytes_read,
                diff.partitions_loaded) == (3, 700, 3)
        assert diff.cache_hits == 0
        stats.reset()
        assert stats.snapshot() == IOStats()

    def test_metrics_export_keys(self):
        catalog = make_catalog(500)
        profile = catalog.sql("SELECT count(*) FROM events "
                              "WHERE ts < 100").profile
        export = profile.metrics_export()
        for key in ("degraded", "partitions_degraded"):
            assert key in export
        assert export["degraded"] == 0.0
