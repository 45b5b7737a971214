"""Tests for the fault injection / retry / degradation stack.

Covers the deterministic fault injector, checksum-based corruption
detection, the retry policy (including hypothesis properties: the
backoff sequence is monotone, capped, and deterministic per seed), the
metadata circuit breaker, thread-safe metadata store maintenance,
graceful pruning degradation under metadata outages, and the
service-level resilience features (end-to-end timeouts, query retry).
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Catalog,
    CircuitOpenError,
    CorruptionError,
    DataType,
    FaultInjector,
    FaultSpec,
    Layout,
    MetadataError,
    MetadataStore,
    MetadataTimeout,
    PartitionUnavailableError,
    QueryTimeout,
    RetryPolicy,
    RetryStats,
    Schema,
    StorageLayer,
    StorageTimeout,
)
from repro.faults import METADATA, STORAGE, CircuitBreaker
from repro.faults.retry import stable_hash64, stable_uniform
from repro.service import QueryService
from repro.storage.zonemap import ZoneMap

from conftest import make_events_rows

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
# Stable hashing
# ----------------------------------------------------------------------
class TestStableHash:
    def test_stable_across_calls(self):
        assert stable_hash64("abc") == stable_hash64("abc")
        assert stable_hash64("abc") != stable_hash64("abd")

    def test_uniform_in_unit_interval(self):
        draws = [stable_uniform(f"k{i}") for i in range(500)]
        assert all(0.0 <= u < 1.0 for u in draws)
        # Crude uniformity check: mean of 500 draws near 0.5.
        assert 0.4 < sum(draws) / len(draws) < 0.6


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    @given(seed=st.integers(0, 2**32),
           base=st.floats(0.1, 50.0),
           multiplier=st.floats(1.5, 4.0),
           cap=st.floats(50.0, 500.0),
           jitter=st.floats(0.0, 0.3),
           attempts=st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_backoff_monotone_capped_deterministic(
            self, seed, base, multiplier, cap, jitter, attempts):
        policy = RetryPolicy(max_attempts=attempts, base_ms=base,
                             multiplier=multiplier, cap_ms=cap,
                             jitter=jitter, seed=seed)
        seq = policy.backoff_sequence()
        assert len(seq) == attempts - 1
        # Capped: no step exceeds cap_ms (jitter only subtracts).
        assert all(0.0 < step <= cap for step in seq)
        # Nominal sequence is non-decreasing; with
        # multiplier * (1 - jitter) >= 1 the jittered one is too,
        # until steps hit the cap (where jitter may dip them).
        nominal = [policy.nominal_ms(i) for i in range(attempts - 1)]
        assert nominal == sorted(nominal)
        if multiplier * (1.0 - jitter) >= 1.0:
            uncapped = [s for s, n in zip(seq, nominal) if n < cap]
            assert uncapped == sorted(uncapped)
        # Deterministic per seed.
        twin = RetryPolicy(max_attempts=attempts, base_ms=base,
                           multiplier=multiplier, cap_ms=cap,
                           jitter=jitter, seed=seed)
        assert twin.backoff_sequence() == seq

    def test_different_seeds_differ(self):
        a = RetryPolicy(seed=1, jitter=0.25).backoff_sequence()
        b = RetryPolicy(seed=2, jitter=0.25).backoff_sequence()
        assert a != b

    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise StorageTimeout("injected")
            return "ok"

        stats = RetryStats()
        policy = RetryPolicy(max_attempts=4)
        assert policy.run(flaky, stats=stats) == "ok"
        assert calls["n"] == 3
        assert stats.retries == 2
        assert stats.backoff_ms > 0
        assert stats.by_class == {"StorageTimeout": 2}

    def test_exhausted_attempts_reraise_last_error(self):
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(StorageTimeout):
            policy.run(lambda: (_ for _ in ()).throw(
                StorageTimeout("always")))

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def permanent():
            calls["n"] += 1
            raise PartitionUnavailableError("gone", partition_id=9)

        with pytest.raises(PartitionUnavailableError):
            RetryPolicy(max_attempts=5).run(permanent)
        assert calls["n"] == 1

    def test_budget_exhausts_before_attempts(self):
        policy = RetryPolicy(max_attempts=10, base_ms=50.0,
                             multiplier=2.0, cap_ms=1000.0,
                             jitter=0.0, budget_ms=120.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise StorageTimeout("always")

        with pytest.raises(StorageTimeout):
            policy.run(flaky)
        # 50 + 100 > 120: the second backoff busts the budget, so only
        # one retry happens (two calls total).
        assert calls["n"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def spec(self):
        return FaultSpec(timeout_rate=0.2, throttle_rate=0.1,
                         corruption_rate=0.1, latency_rate=0.1)

    def collect(self, injector, n=200):
        outcomes = []
        for i in range(n):
            try:
                decision = injector.storage_check(i % 10)
                outcomes.append(("ok", decision.corrupt,
                                 decision.latency_ms))
            except (StorageTimeout,) as exc:
                outcomes.append(("timeout", type(exc).__name__))
            except Exception as exc:  # noqa: BLE001 — classified below
                outcomes.append(("err", type(exc).__name__))
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
        assert injected.get("storage.latency", 0) > 0

    def test_disabled_injector_is_clean(self):
        injector = FaultInjector(seed=3, storage=self.spec(),
                                 enabled=False)
        for _ in range(100):
            decision = injector.storage_check(1)
            assert not decision.corrupt and decision.latency_ms == 0
        assert injector.total_injected() == 0

    def test_paused_context(self):
        injector = FaultInjector(seed=3)
        injector.set_outage(STORAGE)
        with injector.paused():
            injector.storage_check(1)  # no raise while paused
        with pytest.raises(PartitionUnavailableError):
            injector.storage_check(1)

    def test_mark_unavailable_and_restore(self):
        injector = FaultInjector(seed=0)
        injector.mark_unavailable(STORAGE, 7)
        with pytest.raises(PartitionUnavailableError) as info:
            injector.storage_check(7)
        assert info.value.partition_id == 7
        injector.storage_check(8)  # other keys unaffected
        injector.restore(STORAGE, 7)
        injector.storage_check(7)

    def test_metadata_outage(self):
        from repro import MetadataUnavailableError

        injector = FaultInjector(seed=0)
        injector.set_outage(METADATA)
        with pytest.raises(MetadataUnavailableError):
            injector.metadata_check(("events", 1))
        injector.storage_check(1)  # storage scope unaffected

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
        injector = FaultInjector(
            seed=11, storage=FaultSpec(corruption_rate=0.3))
        catalog.enable_fault_injection(
            injector, retry_policy=RetryPolicy(max_attempts=10))
        # WHERE clause forces real partition loads (an unfiltered
        # count(*) would be answered from metadata alone). Decisions
        # re-roll per access, so some round must corrupt.
        for _ in range(10):
            result = catalog.sql(
                "SELECT count(*) FROM events WHERE value >= 0")
            assert result.rows == [(500,)]
            if catalog.storage.stats.corrupt_reads > 0:
                break
        assert catalog.storage.stats.corrupt_reads > 0
        assert injector.injected().get("storage.corruption", 0) > 0

    def test_corruption_without_retries_raises(self):
        catalog = make_catalog(500)
        catalog.enable_fault_injection(
            FaultInjector(seed=11,
                          storage=FaultSpec(corruption_rate=0.5)),
            retry_policy=RetryPolicy(max_attempts=1))
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
        catalog.enable_fault_injection(
            FaultInjector(seed=5, storage=FaultSpec(
                timeout_rate=0.1, throttle_rate=0.05,
                latency_rate=0.05)),
            retry_policy=RetryPolicy(max_attempts=8))
        oracle = [(1000,)]
        for _ in range(10):
            assert catalog.sql(
                "SELECT count(*) FROM events "
                "WHERE value >= 0").rows == oracle
        stats = catalog.storage.stats
        assert stats.retries > 0
        assert stats.retry_backoff_ms > 0

    def test_permanent_loss_not_retried(self):
        catalog = make_catalog(500)
        injector = catalog.enable_fault_injection(
            FaultInjector(seed=0),
            retry_policy=RetryPolicy(max_attempts=6))
        pid = catalog.tables["events"].partition_ids[0]
        injector.mark_unavailable(STORAGE, pid)
        before = catalog.storage.stats.retries
        with pytest.raises(PartitionUnavailableError):
            catalog.sql("SELECT * FROM events WHERE ts < 50")
        assert catalog.storage.stats.retries == before  # no retries
        assert catalog.storage.stats.failed_requests > 0

    def test_retry_penalty_charged_to_simulated_clock(self):
        # Fault decisions hash absolute partition ids, which depend on
        # how many partitions earlier tests allocated; 50 partitions
        # at a 30% timeout rate make "at least one retry" certain for
        # any id range (P(none) ~ 0.7^50).
        sql = "SELECT count(*) FROM events WHERE value >= 0"
        baseline = make_catalog(5000)
        base_ms = baseline.sql(sql).profile.total_ms
        catalog = make_catalog(5000)
        catalog.enable_fault_injection(
            FaultInjector(seed=5, storage=FaultSpec(
                timeout_rate=0.3)),
            retry_policy=RetryPolicy(max_attempts=10, base_ms=20.0))
        profile = catalog.sql(sql).profile
        assert profile.total_retries > 0
        assert profile.total_ms > base_ms


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
        store = MetadataStore(
            fault_injector=FaultInjector(
                seed=1, metadata=FaultSpec(timeout_rate=1.0)))
        store.register("t", 1, self.zone_map())
        with pytest.raises(MetadataTimeout):
            store.get("t", 1)

    def test_retry_policy_absorbs_metadata_faults(self):
        store = MetadataStore(
            fault_injector=FaultInjector(
                seed=1, metadata=FaultSpec(timeout_rate=0.4)),
            retry_policy=RetryPolicy(max_attempts=10))
        store.register("t", 1, self.zone_map())
        for _ in range(30):
            store.get("t", 1)
        assert store.retry_stats.retries > 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(3):
            breaker.check()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_probe_lets_call_through_and_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=3)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        rejected = 0
        probed = False
        for _ in range(3):
            try:
                breaker.check()
                probed = True
            except CircuitOpenError:
                rejected += 1
        assert probed and rejected == 2
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.check()  # closed again, no raise

    def test_failed_probe_restarts_rejection_cycle(self):
        """Regression: a probe failure while OPEN used to leave
        ``_rejections_since_open`` mid-cycle, so with concurrent
        rejections in flight the next probe could be admitted after
        far fewer than ``probe_interval`` rejections — hammering a
        dependency that just proved it was still down."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=5)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        # Other callers burn 3 of the 5 rejections in the cycle...
        for _ in range(3):
            with pytest.raises(CircuitOpenError):
                breaker.check()
        # ...then an in-flight probe's failure is recorded.
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1  # no double-count of the open
        # The cycle restarted: a full probe_interval of calls (4
        # rejections, then the probe) before anything is admitted.
        admitted_at = None
        for i in range(1, 11):
            try:
                breaker.check()
                admitted_at = i
                break
            except CircuitOpenError:
                pass
        assert admitted_at == 5

    def test_breaker_trips_during_metadata_outage(self):
        catalog = make_catalog(500)
        injector = catalog.enable_fault_injection(FaultInjector(seed=0))
        injector.set_outage(METADATA)
        for _ in range(10):
            result = catalog.sql("SELECT count(*) FROM events")
            assert result.rows == [(500,)]
            assert result.degraded
        breaker = catalog.metadata.breaker
        assert breaker.opens >= 1
        assert breaker.fast_failures > 0
        # Recovery: outage ends, a probe closes the breaker again.
        injector.set_outage(METADATA, down=False)
        for _ in range(2 * breaker.probe_interval + 2):
            result = catalog.sql("SELECT count(*) FROM events")
        assert not result.degraded
        assert breaker.state == CircuitBreaker.CLOSED


# ----------------------------------------------------------------------
# Graceful pruning degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_outage_degrades_to_full_scan_with_correct_rows(self):
        catalog = make_catalog(2000)
        oracle = catalog.sql(
            "SELECT count(*), min(score) FROM events WHERE ts >= 500")
        injector = catalog.enable_fault_injection(FaultInjector(seed=0))
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
        injector = catalog.enable_fault_injection(
            FaultInjector(seed=0),
            retry_policy=RetryPolicy(max_attempts=2))
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
        injector = catalog.enable_fault_injection(FaultInjector(seed=0))
        injector.set_outage(METADATA)
        degraded = catalog.sql("SELECT count(*) FROM events")
        assert degraded.rows == clean.rows
        assert not degraded.profile.scans[-1].metadata_only
        assert degraded.profile.partitions_loaded == 10

    def test_explain_analyze_reports_degradation(self):
        catalog = make_catalog(500)
        injector = catalog.enable_fault_injection(FaultInjector(seed=0))
        injector.set_outage(METADATA)
        text = catalog.explain_analyze(
            "SELECT * FROM events WHERE ts < 100")
        assert "DEGRADED" in text
        assert "retries" in text

    def test_explain_analyze_clean_run(self):
        catalog = make_catalog(500)
        text = catalog.explain_analyze(
            "SELECT * FROM events WHERE ts < 100")
        assert "EXPLAIN ANALYZE" in text
        assert "degraded: no" in text
        assert "Scan events" in text

    def test_dml_unaffected_by_metadata_outage(self):
        catalog = make_catalog(500)
        injector = catalog.enable_fault_injection(FaultInjector(seed=0))
        injector.set_outage(METADATA)
        result = catalog.sql("DELETE FROM events WHERE ts < 50")
        assert result.rows == [(50,)]


# ----------------------------------------------------------------------
# Service-level resilience
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_sql_timeout_raises_query_timeout(self):
        catalog = make_catalog(500)
        service = QueryService(catalog, enable_result_cache=False)
        release = threading.Event()

        class SlowStorage(StorageLayer):
            pass

        original_load_many = catalog.storage.load_many

        def slow_load_many(*args, **kwargs):
            release.wait(5.0)
            return original_load_many(*args, **kwargs)

        catalog.storage.load_many = slow_load_many
        try:
            with pytest.raises(QueryTimeout):
                service.sql("SELECT count(*) FROM events "
                            "WHERE value > 0", timeout=0.15)
        finally:
            release.set()
            catalog.storage.load_many = original_load_many
        assert service.metrics.counter("queries_timed_out").value == 1

    def test_sql_without_timeout_unchanged(self):
        catalog = make_catalog(500)
        service = QueryService(catalog)
        assert service.sql("SELECT count(*) FROM events",
                           timeout=5.0).rows == [(500,)]

    def test_query_level_retry_rescues_transient_leak(self):
        catalog = make_catalog(500)

        class FailOnceInjector(FaultInjector):
            def __init__(self):
                super().__init__(seed=0)
                self.fired = False

            def storage_check(self, partition_id):
                if not self.fired:
                    self.fired = True
                    raise StorageTimeout("one-shot (injected)")
                return super().storage_check(partition_id)

        # No storage-level retry policy: the single fault escapes the
        # storage layer and must be absorbed by the service.
        injector = FailOnceInjector()
        catalog.storage.fault_injector = injector
        service = QueryService(
            catalog, enable_result_cache=False,
            query_retry_policy=RetryPolicy(max_attempts=3))
        result = service.sql(
            "SELECT count(*) FROM events WHERE value >= 0")
        assert result.rows == [(500,)]
        assert service.metrics.counter("queries_retried").value == 1

    def test_dml_never_retried(self):
        catalog = make_catalog(500)

        class FailOnceInjector(FaultInjector):
            def __init__(self):
                super().__init__(seed=0)
                self.fired = False

            def storage_check(self, partition_id):
                if not self.fired:
                    self.fired = True
                    raise StorageTimeout("one-shot (injected)")
                return super().storage_check(partition_id)

        catalog.storage.fault_injector = FailOnceInjector()
        service = QueryService(
            catalog, enable_result_cache=False,
            query_retry_policy=RetryPolicy(max_attempts=3))
        # DELETE loads partitions via the DML path (in-memory), so the
        # injected storage fault does not fire there; use a SELECT to
        # verify the counter then assert DML leaves it unchanged.
        service.sql("DELETE FROM events WHERE ts < 10")
        assert service.metrics.counter("queries_retried").value == 0

    def test_degraded_queries_counted(self):
        catalog = make_catalog(500)
        injector = catalog.enable_fault_injection(FaultInjector(seed=0))
        injector.set_outage(METADATA)
        service = QueryService(catalog, enable_result_cache=False)
        result = service.sql("SELECT count(*) FROM events")
        assert result.rows == [(500,)]
        assert service.metrics.counter("queries_degraded").value >= 1
        snap = service.describe()
        assert snap["queries_degraded"] >= 1
        assert "metadata_breaker" in snap
        assert snap["faults_injected"] > 0


# ----------------------------------------------------------------------
# Accounting plumbing
# ----------------------------------------------------------------------
class TestAccounting:
    def test_iostats_snapshot_and_diff_cover_new_fields(self):
        from repro.storage.storage_layer import IOStats

        stats = IOStats()
        stats.record_retry(12.5)
        stats.record_corrupt_read()
        stats.record_injected_latency(30.0)
        snap = stats.snapshot()
        assert snap.retries == 1
        assert snap.failed_requests == 1
        assert snap.retry_backoff_ms == 12.5
        assert snap.corrupt_reads == 1
        assert snap.injected_latency_ms == 30.0
        stats.record_retry(7.5)
        diff = stats.diff(snap)
        assert diff.retries == 1
        assert diff.retry_backoff_ms == 7.5
        stats.reset()
        assert stats.retries == 0
        assert stats.injected_latency_ms == 0.0

    def test_metrics_export_keys(self):
        catalog = make_catalog(500)
        profile = catalog.sql("SELECT count(*) FROM events "
                              "WHERE ts < 100").profile
        export = profile.metrics_export()
        for key in ("retries", "retry_backoff_ms",
                    "injected_latency_ms", "degraded",
                    "partitions_degraded"):
            assert key in export
        assert export["degraded"] == 0.0

    def test_resilience_summary_lists_error_classes(self):
        # 50 partitions: fault rolls hash the process-global partition
        # ids, and with only 10 about 1 starting id in 19 drew no
        # timeout at all; with 50, none of 20 000 starting ids does.
        catalog = make_catalog(5000)
        catalog.enable_fault_injection(
            FaultInjector(seed=5,
                          storage=FaultSpec(timeout_rate=0.25)),
            retry_policy=RetryPolicy(max_attempts=10))
        profile = catalog.sql(
            "SELECT count(*) FROM events WHERE value >= 0").profile
        summary = profile.resilience_summary()
        assert "StorageTimeout" in summary
