"""Parallel top-k scans: differential serial ≡ parallel equivalence.

PR 8 removes the serial-island restriction on adaptive top-k scans.
The contract is exact: for any data distribution, worker count, fault
schedule, and runtime-pruner combination, a parallel top-k scan must
return the same rows in the same order with the same profile counters
and simulated-clock charges a serial scan produces — the *only*
counters allowed to differ are the explicitly speculative
``prefetched_then_skipped`` pair, and worker-observed skips may only
exceed (never miss) the serial decisions.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.catalog import Catalog
from repro.faults import FaultInjector, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.types import DataType, Schema

SCHEMA = Schema.of(id=DataType.INTEGER, v=DataType.DOUBLE,
                   g=DataType.VARCHAR)

FAULTS = FaultSpec(timeout_rate=0.04, throttle_rate=0.02,
                   latency_rate=0.03, latency_ms=4.0)


def make_rows(n: int, seed: int, skew: str) -> list[tuple]:
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        if skew == "uniform":
            v = rng.uniform(0, 1000)
        elif skew == "clustered":
            v = i // 40 * 100 + rng.uniform(0, 10)
        else:  # "nulls": a fifth of the order keys are NULL
            v = None if rng.random() < 0.2 else rng.uniform(0, 100)
        rows.append((i, v, f"g{i % 7}"))
    return rows


def make_catalog(workers: int, rows: list[tuple],
                 fault_seed: int | None = None) -> Catalog:
    catalog = Catalog(rows_per_partition=40, scan_parallelism=workers)
    catalog.create_table_from_rows("t", SCHEMA, rows)
    if fault_seed is not None:
        catalog.enable_fault_injection(
            injector=FaultInjector(seed=fault_seed, storage=FAULTS),
            retry_policy=RetryPolicy(max_attempts=8))
    return catalog


TOPK_QUERIES = [
    "SELECT id, v FROM t ORDER BY v DESC LIMIT 9",
    "SELECT id, v FROM t ORDER BY v ASC LIMIT 9",
    "SELECT id FROM t WHERE v > 50 ORDER BY v DESC LIMIT 4",
    "SELECT g, count(*) FROM t GROUP BY g ORDER BY g DESC LIMIT 3",
]


def assert_topk_equivalent(serial: Catalog, parallel: Catalog,
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
        assert scan_p.topk_checks == scan_s.topk_checks, sql
        assert scan_p.topk_skipped == scan_s.topk_skipped, sql
        assert scan_p.rows_scanned == scan_s.rows_scanned, sql
        assert scan_p.partitions_loaded \
            == scan_s.partitions_loaded, sql


@settings(max_examples=12, deadline=None)
@given(data_seed=st.integers(0, 10_000),
       skew=st.sampled_from(["uniform", "clustered", "nulls"]),
       workers=st.sampled_from([2, 4, 7]),
       sql=st.sampled_from(TOPK_QUERIES))
def test_parallel_topk_matches_serial(data_seed, skew, workers, sql):
    rows = make_rows(600, data_seed, skew)
    assert_topk_equivalent(make_catalog(1, rows),
                           make_catalog(workers, rows), sql)


@settings(max_examples=8, deadline=None)
@given(data_seed=st.integers(0, 10_000),
       fault_seed=st.integers(0, 10_000),
       workers=st.sampled_from([3, 4]),
       sql=st.sampled_from(TOPK_QUERIES))
def test_parallel_topk_matches_serial_under_faults(
        data_seed, fault_seed, workers, sql):
    """Seeded transient faults: retry counts, backoff charges, and
    rows must match serial exactly (RetryStats.absorb folds each
    morsel's private stats in consume order).

    One catalog, fresh same-seed injector per run: fault rolls are
    keyed on (partition id, access count), so both runs must see the
    same partition ids with the same counter state. (Discarded
    speculative loads advance access counters for partitions the
    serial run skips entirely — harmless, those partitions are
    touched at most once per query.)
    """
    rows = make_rows(400, data_seed, "uniform")
    catalog = make_catalog(1, rows)
    results = {}
    for n_workers in (1, workers):
        catalog.scan_parallelism = n_workers
        catalog.enable_fault_injection(
            injector=FaultInjector(seed=fault_seed, storage=FAULTS),
            retry_policy=RetryPolicy(max_attempts=8))
        results[n_workers] = catalog.sql(sql)
    want, got = results[1], results[workers]
    assert got.rows == want.rows, sql
    ps, pp = want.profile, got.profile
    assert pp.exec_ms == pytest.approx(ps.exec_ms), sql
    assert pp.partitions_loaded == ps.partitions_loaded, sql
    assert pp.total_retries == ps.total_retries, sql
    assert pp.total_backoff_ms == pytest.approx(
        ps.total_backoff_ms), sql
    for scan_s, scan_p in zip(ps.scans, pp.scans):
        assert scan_p.topk_checks == scan_s.topk_checks, sql
        assert scan_p.topk_skipped == scan_s.topk_skipped, sql


class TestEverythingEnabled:
    """Chaos variant: top-k + runtime join filters + prefetcher +
    data cache + parallel morsels, all at once."""

    JOIN_SQL = ("SELECT t.id, t.v FROM t JOIN d ON t.g = d.k "
                "ORDER BY t.v DESC LIMIT 8")

    def _catalog(self, seed: int) -> Catalog:
        rows = make_rows(500, seed, "uniform")
        catalog = Catalog(rows_per_partition=25, scan_parallelism=1)
        catalog.create_table_from_rows("t", SCHEMA, rows)
        catalog.create_table_from_rows(
            "d", Schema.of(k=DataType.VARCHAR, w=DataType.INTEGER),
            [(f"g{i}", i) for i in range(4)])
        return catalog

    def _run(self, catalog: Catalog, workers: int, seed: int,
             faults: bool):
        catalog.scan_parallelism = workers
        catalog.data_cache = None  # enable_* is idempotent: drop first
        catalog.enable_data_cache(prefetch=True)  # fresh cold cache
        if faults:
            catalog.enable_fault_injection(
                injector=FaultInjector(seed=seed, storage=FAULTS),
                retry_policy=RetryPolicy(max_attempts=8))
        return catalog.sql(self.JOIN_SQL)

    def test_join_filtered_topk_with_prefetch(self):
        for seed in (3, 17, 29):
            catalog = self._catalog(seed)
            want = self._run(catalog, 1, seed, faults=False)
            got = self._run(catalog, 4, seed, faults=False)
            assert got.rows == want.rows
            ps, pp = want.profile, got.profile
            assert pp.partitions_loaded == ps.partitions_loaded
            assert pp.exec_ms == pytest.approx(ps.exec_ms)
            for scan_s, scan_p in zip(ps.scans, pp.scans):
                assert scan_p.topk_checks == scan_s.topk_checks
                assert scan_p.topk_skipped == scan_s.topk_skipped

    def test_join_filtered_topk_with_prefetch_under_faults(self):
        """With faults, cache and prefetcher enabled, the serial
        readahead and the parallel morsel window touch partitions with
        different access-counter states, so clock/retry parity is out
        of scope — but rows must still be exact and every fault
        absorbed (no exceptions escape)."""
        for seed in (3, 17, 29):
            catalog = self._catalog(seed)
            want = self._run(catalog, 1, seed, faults=True)
            got = self._run(catalog, 4, seed, faults=True)
            assert got.rows == want.rows
            assert got.profile.partitions_loaded \
                == want.profile.partitions_loaded

    def test_prefetch_under_topk_fires_and_discards_cleanly(self):
        """A serial top-k scan with the cache's prefetcher enabled
        must produce identical rows and query cost to a serial scan
        without it; bytes the boundary wasted surface only in the
        speculative counters."""
        rows = make_rows(500, 11, "uniform")
        plain = Catalog(rows_per_partition=25, scan_parallelism=1)
        plain.create_table_from_rows("t", SCHEMA, rows)
        cached = Catalog(rows_per_partition=25, scan_parallelism=1)
        cached.create_table_from_rows("t", SCHEMA, rows)
        cached.enable_data_cache(prefetch=True)
        sql = "SELECT id, v FROM t ORDER BY v DESC LIMIT 6"
        want = plain.sql(sql)
        got = cached.sql(sql)
        assert got.rows == want.rows
        ps, pp = want.profile, got.profile
        assert pp.partitions_loaded == ps.partitions_loaded
        for scan_s, scan_p in zip(ps.scans, pp.scans):
            assert scan_p.topk_checks == scan_s.topk_checks
            assert scan_p.topk_skipped == scan_s.topk_skipped
        # The prefetcher actually ran ahead of the top-k scan, covering
        # at least 80% of the share of loads it covers on a scan with
        # no runtime pruner in its way.
        topk_scan = pp.scans[0]
        assert topk_scan.prefetched_partitions > 0
        cached.data_cache = None
        cached.enable_data_cache(prefetch=True)  # cold again
        plain_scan = cached.sql(
            "SELECT id, v FROM t WHERE id >= 0").profile.scans[0]
        assert (topk_scan.prefetched_partitions
                / topk_scan.partitions_loaded) >= 0.8 * (
            plain_scan.prefetched_partitions
            / plain_scan.partitions_loaded)

    def test_boundary_updates_surface_in_profile(self):
        rows = make_rows(600, 5, "uniform")
        catalog = make_catalog(4, rows)
        result = catalog.sql(
            "SELECT id, v FROM t ORDER BY v DESC LIMIT 5")
        profile = result.profile
        assert profile.topk_boundary_updates > 0
        exported = profile.metrics_export()
        assert exported["topk_boundary_updates"] \
            == float(profile.topk_boundary_updates)
        assert "prefetched_then_skipped" in exported
