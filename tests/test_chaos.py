"""Seeded chaos suite: concurrent SELECT + DML under injected faults.

The differential invariant: under a *transient-only* fault schedule
(``tests/faults.py``, whose bounded re-reads absorb it), every query
must return exactly the rows the fault-free oracle returns — faults
may degrade scans but never change results and never surface
non-typed exceptions. Permanent faults must fail with their typed
errors; a metadata-only outage must degrade to full scans, not fail.

Kept separate from the tier-1 suite (see the ``chaos`` CI job):
the runs are heavier and exercise randomized-but-seeded schedules.
"""

from __future__ import annotations

import threading

import pytest

from oracle import run_plan
from repro import (
    Catalog,
    DataType,
    Layout,
    PartitionUnavailableError,
    ReproError,
    Schema,
)
from repro.service import QueryService

from conftest import make_events_rows
from faults import METADATA, STORAGE, FaultInjector, FaultSpec, install_faults

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)

#: transient-only: timeouts, throttling and wire corruption, ~7 % of
#: storage and ~6 % of metadata reads.
TRANSIENT_STORAGE = FaultSpec(timeout_rate=0.03, throttle_rate=0.02,
                              corruption_rate=0.02)
TRANSIENT_METADATA = FaultSpec(timeout_rate=0.04, throttle_rate=0.02)

#: eight draws per read make a leak ~0.07^8 (~6e-10) per read: the
#: fixture's re-reads absorb the whole schedule in practice.
CHAOS_ATTEMPTS = 8

CHAOS_SEEDS = (11, 23, 47)


def make_catalog(n_rows: int = 2000,
                 rows_per_partition: int = 100) -> Catalog:
    catalog = Catalog(rows_per_partition=rows_per_partition)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n_rows),
        layout=Layout.sorted_by("ts"))
    return catalog


class TestChaosStress:
    """12 client threads, ~9% fault rate, zero tolerance for wrong
    rows or non-typed exceptions."""

    N_SELECT_THREADS = 8
    N_DML_THREADS = 4
    SELECTS_PER_THREAD = 20
    DML_ROUNDS = 5

    STABLE_QUERIES = [
        "SELECT * FROM events WHERE ts BETWEEN 150 AND 420",
        "SELECT * FROM events WHERE ts BETWEEN 1200 AND 1230",
        "SELECT count(*) AS c FROM events WHERE ts < 500",
        "SELECT category, count(*) AS c FROM events "
        "WHERE ts < 800 GROUP BY category",
        "SELECT min(ts) AS lo, max(ts) AS hi FROM events "
        "WHERE ts BETWEEN 300 AND 1700",
        "SELECT count(*) AS c FROM events "
        "WHERE category = 'alpha' AND ts < 2000",
        "SELECT * FROM events WHERE score >= 990000 AND ts < 2000",
        "SELECT * FROM events WHERE ts BETWEEN 60 AND 90 "
        "ORDER BY ts DESC LIMIT 10",
    ]

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_transient_chaos_matches_oracle(self, seed):
        self._run_chaos(seed)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_transient_chaos_with_durability(self, seed, tmp_path):
        """Same stress with the WAL on and background checkpoints
        firing mid-storm; afterwards a recovery from the durability
        directory must reproduce the live catalog exactly."""
        self._run_chaos(seed, durability_dir=tmp_path / "wal")

    def _run_chaos(self, seed, durability_dir=None):
        catalog = make_catalog(2000)
        # Oracle answers computed before any fault injection exists.
        expected = {
            sql: sorted(run_plan(catalog.plan_sql(sql), catalog)[1])
            for sql in self.STABLE_QUERIES
        }
        injector = install_faults(catalog, FaultInjector(
            seed=seed, storage=TRANSIENT_STORAGE,
            metadata=TRANSIENT_METADATA), attempts=CHAOS_ATTEMPTS)
        # The result cache would answer most repeats without a read,
        # so the faults would barely fire: every SELECT reads here
        # (tests/test_service.py covers the hit path under DML).
        service = QueryService(catalog, slots_per_cluster=4,
                               max_queue_per_cluster=64,
                               min_clusters=1, max_clusters=3,
                               enable_result_cache=False,
                               durability_dir=durability_dir,
                               durability_checkpoint_bytes=64 * 1024)
        mismatches: list[str] = []
        errors: list[BaseException] = []
        untyped: list[BaseException] = []
        start = threading.Barrier(
            self.N_SELECT_THREADS + self.N_DML_THREADS)

        def record_error(exc: BaseException) -> None:
            errors.append(exc)
            if not isinstance(exc, ReproError):
                untyped.append(exc)

        def select_worker(worker: int):
            start.wait()
            for i in range(self.SELECTS_PER_THREAD):
                sql = self.STABLE_QUERIES[
                    (worker + i) % len(self.STABLE_QUERIES)]
                try:
                    got = sorted(service.sql(sql).rows)
                    if got != expected[sql]:
                        mismatches.append(sql)
                except BaseException as exc:  # noqa: BLE001
                    record_error(exc)

        def dml_worker(worker: int):
            start.wait()
            base = 10_000 + worker * 1_000
            for _ in range(self.DML_ROUNDS):
                try:
                    rows = [(base + i, "dmlcat", 1.0, i)
                            for i in range(40)]
                    service.insert("events", rows)
                    service.sql(
                        f"UPDATE events SET score = score + 1 "
                        f"WHERE ts BETWEEN {base} AND {base + 999}")
                    service.sql(
                        f"DELETE FROM events "
                        f"WHERE ts BETWEEN {base} AND {base + 999}")
                except BaseException as exc:  # noqa: BLE001
                    record_error(exc)

        threads = [threading.Thread(target=select_worker, args=(w,))
                   for w in range(self.N_SELECT_THREADS)]
        threads += [threading.Thread(target=dml_worker, args=(w,))
                    for w in range(self.N_DML_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not any(t.is_alive() for t in threads)

        # Differential invariant: transient-only faults never change
        # results and never leak non-typed exceptions.
        assert untyped == []
        assert errors == []
        assert mismatches == []

        # Every DML band was emptied: the data equals the seed data.
        with injector.paused():
            final = service.sql("SELECT count(*) AS c FROM events")
        assert final.rows == [(2000,)]

        # The schedule injected faults, and none escaped: ~300-360 in
        # all over the 160 SELECTs and the DML (seeds 11, 23 and 47),
        # where a result cache answering the repeats leaves ~16.
        assert injector.total_injected() >= 200
        assert catalog.storage.stats.failed_requests == 0
        snapshot = service.metrics.snapshot()

        if durability_dir is not None:
            import time

            # Quiesce: let any in-flight background checkpoint land
            # before reading the directory from a second catalog.
            deadline = time.time() + 15
            while service._checkpointing and time.time() < deadline:
                time.sleep(0.02)
            assert not service._checkpointing
            assert snapshot["wal_appends"] > 0
            recovered = Catalog.recover(durability_dir)
            with injector.paused():
                for sql in self.STABLE_QUERIES:
                    assert sorted(recovered.sql(sql).rows) == \
                        sorted(service.sql(sql).rows), sql
            assert recovered.sql(
                "SELECT count(*) AS c FROM events").rows == [(2000,)]

    def test_same_seed_same_injection_counts(self):
        # Partition ids are globally monotonic, so determinism is
        # checked by replaying the same workload against the same
        # catalog with a fresh injector of the same seed.
        catalog = make_catalog(1000)

        def run_once() -> dict[str, int]:
            injector = install_faults(catalog, FaultInjector(
                seed=7, storage=TRANSIENT_STORAGE,
                metadata=TRANSIENT_METADATA), attempts=CHAOS_ATTEMPTS)
            for _ in range(5):
                catalog.sql("SELECT count(*) AS c FROM events "
                            "WHERE value >= 0")
            return injector.injected()

        first = run_once()
        assert first == run_once()
        assert sum(first.values()) > 0


class TestPermanentFaults:
    def test_lost_partition_fails_typed(self):
        catalog = make_catalog(1000)
        injector = install_faults(catalog, FaultInjector(seed=3),
                                  attempts=CHAOS_ATTEMPTS)
        victim = catalog.tables["events"].partition_ids[2]
        injector.mark_unavailable(STORAGE, victim)
        service = QueryService(catalog, enable_result_cache=False)
        with pytest.raises(PartitionUnavailableError) as info:
            service.sql("SELECT * FROM events WHERE value >= 0")
        assert info.value.partition_id == victim
        # Pruning can still dodge the lost partition: a predicate that
        # excludes it succeeds (victim covers ts 200..299).
        result = service.sql("SELECT count(*) AS c FROM events "
                             "WHERE ts >= 900")
        assert result.rows == [(100,)]

    def test_metadata_outage_degrades_not_fails(self):
        catalog = make_catalog(1000)
        oracle = catalog.sql(
            "SELECT count(*) AS c FROM events WHERE ts < 300")
        injector = install_faults(catalog, FaultInjector(seed=3),
                                  attempts=CHAOS_ATTEMPTS)
        injector.set_outage(METADATA)
        service = QueryService(catalog, enable_result_cache=False)
        result = service.sql(
            "SELECT count(*) AS c FROM events WHERE ts < 300")
        assert result.rows == oracle.rows
        assert result.degraded
        assert result.profile.degraded_partitions == 10
        assert service.metrics.counter("queries_degraded").value >= 1
        # Recovery: once the outage lifts, pruning comes back.
        injector.set_outage(METADATA, down=False)
        result = service.sql(
            "SELECT count(*) AS c FROM events WHERE ts < 300")
        assert not result.degraded
        assert result.profile.partitions_loaded == 3
