"""Morsel-driven parallel scan: determinism and serial equivalence.

The parallel scan must be indistinguishable from the serial scan in
everything but wall-clock time: same rows in the same order, same
simulated-clock charges, same profile counters, same retry
attribution, and errors surfacing at the same position. These tests
drive identical catalogs side by side and diff everything observable.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.catalog import Catalog
from repro.errors import PartitionUnavailableError
from repro.faults import STORAGE, FaultInjector, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.service import QueryService
from repro.types import DataType, Schema

SCHEMA = Schema.of(id=DataType.INTEGER, v=DataType.DOUBLE,
                   s=DataType.VARCHAR)


def make_rows(n: int, seed: int = 7) -> list[tuple]:
    rng = random.Random(seed)
    return [(i, rng.uniform(0, 100), f"k{i % 17}") for i in range(n)]


def make_catalog(parallelism: int, n_rows: int = 1500,
                 **fault_kwargs) -> Catalog:
    catalog = Catalog(rows_per_partition=50,
                      scan_parallelism=parallelism)
    catalog.create_table_from_rows("t", SCHEMA, make_rows(n_rows))
    if fault_kwargs:
        catalog.enable_fault_injection(**fault_kwargs)
    return catalog


QUERIES = [
    "SELECT * FROM t",
    "SELECT * FROM t WHERE v < 25 AND id > 100",
    "SELECT count(*), sum(v) FROM t WHERE s = 'k3'",
    "SELECT s, count(*) FROM t GROUP BY s",
    "SELECT * FROM t LIMIT 30",
    "SELECT id FROM t ORDER BY v DESC LIMIT 5",
]


def assert_equivalent(serial: Catalog, parallel: Catalog,
                      sql: str) -> None:
    want = serial.sql(sql)
    got = parallel.sql(sql)
    assert got.rows == want.rows, sql
    ps, pp = want.profile, got.profile
    assert pp.exec_ms == pytest.approx(ps.exec_ms), sql
    assert pp.partitions_loaded == ps.partitions_loaded, sql
    assert pp.total_retries == ps.total_retries, sql
    assert pp.total_backoff_ms == pytest.approx(
        ps.total_backoff_ms), sql
    for scan_s, scan_p in zip(ps.scans, pp.scans):
        assert scan_p.rows_scanned == scan_s.rows_scanned, sql
        assert scan_p.early_terminated == scan_s.early_terminated, sql


class TestSerialEquivalence:
    def test_rows_and_profile_match_serial(self):
        serial = make_catalog(1)
        parallel = make_catalog(4)
        for sql in QUERIES:
            assert_equivalent(serial, parallel, sql)

    def test_parallelism_recorded_in_profile(self):
        parallel = make_catalog(4)
        profile = parallel.sql("SELECT * FROM t").profile
        assert profile.scan_parallelism == 4
        assert profile.metrics_export()["scan_parallelism"] == 4.0
        serial = make_catalog(1)
        assert serial.sql(
            "SELECT * FROM t").profile.scan_parallelism == 1

    def test_topk_boundary_scan_parallelizes_identically(self):
        """Adaptive top-k pruning no longer forces a serial island:
        the boundary is a shared tighten-only CAS and the accounted
        skip decisions run on the consumer thread in scan-set order,
        so the parallel scan matches serial bit for bit — rows, skip
        and check counters, and the simulated clock."""
        serial = make_catalog(1)
        parallel = make_catalog(4)
        sql = "SELECT id, v FROM t ORDER BY v DESC LIMIT 7"
        want = serial.sql(sql)
        got = parallel.sql(sql)
        assert got.rows == want.rows
        scan_s = want.profile.scans[0]
        scan_p = got.profile.scans[0]
        assert scan_p.scan_parallelism == 4
        assert scan_s.topk_checks > 0
        assert scan_p.topk_checks == scan_s.topk_checks
        assert scan_p.topk_skipped == scan_s.topk_skipped
        assert scan_p.partitions_loaded == scan_s.partitions_loaded
        assert got.profile.exec_ms == pytest.approx(
            want.profile.exec_ms)

    def test_index_backed_scan_set_fills_lazily_under_workers(self):
        """Without a fault stack the scan set is rows of the stats
        index: its entries, id -> position map and column packing are
        first asked for at run time, here by the consumer and four
        morsel workers at once (deferred runtime filter plus top-k
        boundary re-checks). Each lazy field is computed into a local
        and published by one assignment, so a race only repeats work:
        rows and every counter equal the serial run's."""
        from repro.plan.compiler import CompilerOptions

        catalog = make_catalog(1)
        assert catalog.scan_set("t")._entries is None
        options = CompilerOptions(compile_prune_partition_limit=10)
        sql = ("SELECT id, v FROM t WHERE id BETWEEN 200 AND 1100 "
               "ORDER BY v DESC LIMIT 7")
        want = catalog.sql(sql, options)
        catalog.scan_parallelism = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # make the threads interleave
        try:
            got = catalog.sql(sql, options)
        finally:
            sys.setswitchinterval(interval)
        assert got.rows == want.rows and len(got.rows) == 7
        scan_s, scan_p = want.profile.scans[0], got.profile.scans[0]
        assert scan_p.scan_parallelism == 4
        assert scan_s.filter_result.pruned > 0      # deferred, at run time
        assert scan_s.topk_checks > 0
        for field in ("total_partitions", "partitions_loaded",
                      "rows_scanned", "topk_checks", "topk_skipped",
                      "topk_boundary_updates", "early_terminated",
                      "pruning_mode"):
            assert getattr(scan_p, field) == getattr(scan_s, field), field
        assert scan_p.filter_result.pruned_ids == \
            scan_s.filter_result.pruned_ids
        assert got.profile.compile_ms == pytest.approx(
            want.profile.compile_ms)
        assert got.profile.exec_ms == pytest.approx(want.profile.exec_ms)

    def test_limit_early_termination(self):
        serial = make_catalog(1)
        parallel = make_catalog(4)
        sql = "SELECT * FROM t LIMIT 3"
        want = serial.sql(sql)
        got = parallel.sql(sql)
        assert got.rows == want.rows
        for scan_s, scan_p in zip(want.profile.scans,
                                  got.profile.scans):
            assert scan_p.early_terminated == scan_s.early_terminated


class TestFaultParity:
    def test_transient_faults_absorbed_identically(self):
        """Seeded per-partition fault schedules are identical, so the
        parallel scan absorbs the same retries the serial one does.

        Fault rolls are keyed on (partition id, access count), so both
        runs must see the same partitions with the same counter state:
        one catalog, fresh same-seed injector per run. (A parallel
        LIMIT scan speculatively loads a few partitions past the cut —
        injector state after such a query is not comparable, but the
        per-query profile is exact.)
        """
        spec = FaultSpec(timeout_rate=0.05, throttle_rate=0.03,
                         latency_rate=0.04, latency_ms=5.0)
        catalog = make_catalog(1)
        for seed in (11, 23, 47):
            for sql in QUERIES:
                results = {}
                for workers in (1, 4):
                    catalog.scan_parallelism = workers
                    catalog.enable_fault_injection(
                        injector=FaultInjector(seed=seed,
                                               storage=spec),
                        retry_policy=RetryPolicy(max_attempts=8))
                    results[workers] = catalog.sql(sql)
                want, got = results[1], results[4]
                assert got.rows == want.rows, sql
                ps, pp = want.profile, got.profile
                assert pp.exec_ms == pytest.approx(ps.exec_ms), sql
                assert pp.total_retries == ps.total_retries, sql
                assert pp.total_backoff_ms == pytest.approx(
                    ps.total_backoff_ms), sql
                assert (pp.retry_stats.injected_latency_ms
                        == pytest.approx(
                            ps.retry_stats.injected_latency_ms)), sql

    def test_permanent_fault_raises_same_typed_error(self):
        serial = make_catalog(1, injector=FaultInjector(seed=1),
                              retry_policy=RetryPolicy())
        parallel = make_catalog(4, injector=FaultInjector(seed=1),
                                retry_policy=RetryPolicy())
        for catalog in (serial, parallel):
            victim = catalog.tables["t"].partitions[10].partition_id
            catalog.storage.fault_injector.mark_unavailable(
                STORAGE, victim)
            with pytest.raises(PartitionUnavailableError):
                catalog.sql("SELECT * FROM t")


class TestServiceIntegration:
    def test_service_sets_catalog_parallelism(self):
        catalog = make_catalog(1)
        service = QueryService(catalog, scan_parallelism=4)
        assert catalog.scan_parallelism == 4
        result = service.sql("SELECT * FROM t WHERE id < 500")
        assert result.profile.scan_parallelism == 4
        snap = service.describe()
        assert snap["scan_parallelism"] == 4
        assert "pruning_time_ms" in snap
        assert "scans_vectorized" in snap

    def test_service_default_keeps_catalog_setting(self):
        catalog = make_catalog(3)
        QueryService(catalog)
        assert catalog.scan_parallelism == 3
