"""Tests for the concurrent query service layer (repro.service).

Covers the admission controller (slots, bounded queue, timeout,
cancellation, backpressure), the version-keyed result cache, the
elastic warehouse pool, table version bookkeeping, thread-safe I/O
accounting, and — the acceptance bar — a mixed SELECT + DML stress
test whose served results are checked against the single-threaded
oracle with zero mismatches and no stale cache reads.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from oracle import run_plan
from repro import Catalog, DataType, Layout, ParseError, Schema, SchemaError
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    CancelToken,
    QueryCancelled,
    QueryService,
    QueryStatus,
    QueueWaitTimeout,
    ReadWriteLock,
    ResultCache,
    WarehousePool,
)
from repro.sql import normalize_sql, parse_statement, referenced_tables, tokenize

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
# SQL normalization
# ----------------------------------------------------------------------
class TestNormalize:
    def test_whitespace_case_and_comments_collapse(self):
        a = normalize_sql("SELECT * FROM t  WHERE x = 1;")
        b = normalize_sql("select *\n  from T -- comment\n where X=1")
        assert a == b

    def test_string_literals_keep_case(self):
        a = normalize_sql("SELECT * FROM t WHERE tag = 'ABC'")
        b = normalize_sql("SELECT * FROM t WHERE tag = 'abc'")
        assert a != b

    def test_distinct_literals_stay_distinct(self):
        assert normalize_sql("SELECT * FROM t WHERE x = 1") \
            != normalize_sql("SELECT * FROM t WHERE x = 2")

    def test_referenced_tables(self):
        assert referenced_tables(
            "SELECT * FROM Big JOIN dim AS d ON fk = d.key "
            "WHERE d.attr = 'x'") == ("big", "dim")
        assert referenced_tables("DELETE FROM T WHERE x = 1") == ("t",)


# ----------------------------------------------------------------------
# Table versions
# ----------------------------------------------------------------------
class TestTableVersions:
    def test_dml_and_recluster_bump(self):
        catalog = make_catalog(400)
        assert catalog.table_version("events") == 1
        catalog.sql("DELETE FROM events WHERE ts < 10")
        assert catalog.table_version("events") == 2
        catalog.sql("UPDATE events SET score = 0 WHERE ts < 50")
        assert catalog.table_version("events") == 3
        catalog.insert("events", make_events_rows(10))
        assert catalog.table_version("events") == 4
        catalog.recluster("events", "score")
        assert catalog.table_version("events") == 5

    def test_noop_dml_does_not_bump(self):
        catalog = make_catalog(400)
        catalog.sql("DELETE FROM events WHERE ts > 999999")
        assert catalog.table_version("events") == 1

    def test_change_listener_fires(self):
        catalog = make_catalog(400)
        seen: list[tuple[str, int]] = []
        catalog.add_change_listener(
            lambda name, version: seen.append((name, version)))
        catalog.sql("DELETE FROM events WHERE ts < 10")
        assert seen == [("events", 2)]

    def test_explain_reports_versions(self):
        catalog = make_catalog(400)
        assert "table versions: events=v1" in \
            catalog.explain("SELECT * FROM events WHERE ts < 10")
        catalog.sql("DELETE FROM events WHERE ts < 10")
        assert "table versions: events=v2" in \
            catalog.explain("SELECT * FROM events WHERE ts < 10")


# ----------------------------------------------------------------------
# Thread-safe IOStats
# ----------------------------------------------------------------------
class TestIOStatsThreadSafety:
    def test_concurrent_loads_lose_no_updates(self):
        catalog = make_catalog(2000)
        ids = catalog.tables["events"].partition_ids
        loads_per_thread = 50
        n_threads = 8

        def hammer():
            for i in range(loads_per_thread):
                catalog.storage.load(ids[i % len(ids)])

        catalog.storage.stats.reset()
        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = catalog.storage.stats.snapshot()
        expected = n_threads * loads_per_thread
        assert stats.requests == expected
        assert stats.partitions_loaded == expected
        assert stats.bytes_read > 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_slots_and_fifo_handoff(self):
        controller = AdmissionController(slots=1, max_queue=4)
        assert controller.acquire() == 0.0
        order: list[int] = []

        def wait_then_release(tag: int):
            controller.acquire(timeout=5)
            order.append(tag)
            controller.release()

        threads = []
        for tag in range(3):
            t = threading.Thread(target=wait_then_release,
                                 args=(tag,))
            t.start()
            threads.append(t)
            time.sleep(0.02)  # deterministic queue order
        assert controller.queue_depth == 3
        controller.release()
        for t in threads:
            t.join()
        assert order == [0, 1, 2]
        assert controller.free_slots == 1

    def test_reject_when_queue_full(self):
        controller = AdmissionController(slots=1, max_queue=0)
        controller.acquire()
        with pytest.raises(AdmissionRejected):
            controller.acquire()
        controller.release()

    def test_queue_wait_timeout(self):
        controller = AdmissionController(slots=1, max_queue=4)
        controller.acquire()
        with pytest.raises(QueueWaitTimeout):
            controller.acquire(timeout=0.05)
        assert controller.queue_depth == 0
        controller.release()
        # the slot is reusable after the timed-out waiter withdrew
        assert controller.acquire() == 0.0

    def test_cancel_while_queued(self):
        controller = AdmissionController(slots=1, max_queue=4)
        controller.acquire()
        token = CancelToken()
        errors: list[BaseException] = []

        def waiter():
            try:
                controller.acquire(timeout=5, token=token)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        token.cancel()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], QueryCancelled)
        # cancelled waiter must not consume the slot
        controller.release()
        assert controller.free_slots == 1

    def test_release_skips_cancelled_waiters(self):
        controller = AdmissionController(slots=1, max_queue=4)
        controller.acquire()
        cancelled = CancelToken()
        cancelled._cancelled = True  # queued-then-cancelled waiter
        got: list[float] = []

        def doomed_waiter():
            with pytest.raises(QueryCancelled):
                controller.acquire(timeout=5, token=cancelled)

        t1 = threading.Thread(target=doomed_waiter)
        t1.start()
        time.sleep(0.02)
        t2 = threading.Thread(
            target=lambda: got.append(controller.acquire(timeout=5)))
        t2.start()
        time.sleep(0.02)
        controller.release()
        t1.join(timeout=2)
        t2.join(timeout=2)
        assert got and controller.running == 1
        controller.release()


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        active: list[str] = []
        trace: list[int] = []
        barrier = threading.Barrier(3)

        def reader():
            barrier.wait()
            with lock.read():
                active.append("r")
                time.sleep(0.05)
                trace.append(len(active))
                active.remove("r")

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        barrier.wait()
        time.sleep(0.01)
        with lock.write():
            assert active == []  # both readers drained first
        for t in readers:
            t.join()
        assert max(trace) == 2  # the two readers overlapped


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def _result(self, n: int):
        from repro.catalog import QueryResult
        from repro.engine.context import QueryProfile

        return QueryResult(schema=Schema.of(x=DataType.INTEGER),
                           rows=[(n,)], profile=QueryProfile())

    def test_hit_and_stale_eviction(self):
        cache = ResultCache(max_entries=8)
        cache.store("k", self._result(1), {"t": 1})
        assert cache.lookup("k", {"t": 1}).rows == [(1,)]
        assert cache.lookup("k", {"t": 2}) is None  # stale
        assert cache.lookup("k", {"t": 2}) is None  # evicted
        assert cache.stats.hits == 1
        assert cache.stats.stale_evictions == 1

    def test_lru_capacity_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.store("a", self._result(1), {"t": 1})
        cache.store("b", self._result(2), {"t": 1})
        assert cache.lookup("a", {"t": 1}) is not None  # a now MRU
        cache.store("c", self._result(3), {"t": 1})
        assert cache.lookup("b", {"t": 1}) is None
        assert cache.lookup("a", {"t": 1}) is not None
        assert cache.stats.capacity_evictions == 1

    def test_invalidate_table(self):
        cache = ResultCache(max_entries=8)
        cache.store("q1", self._result(1), {"t": 1})
        cache.store("q2", self._result(2), {"t": 1, "u": 1})
        cache.store("q3", self._result(3), {"u": 1})
        assert cache.invalidate_table("t") == 2
        assert len(cache) == 1
        assert cache.lookup("q3", {"u": 1}) is not None


# ----------------------------------------------------------------------
# Warehouse pool
# ----------------------------------------------------------------------
class TestWarehousePool:
    def test_scale_out_when_saturated(self):
        pool = WarehousePool(slots_per_cluster=1, min_clusters=1,
                             max_clusters=3,
                             scale_out_queue_depth=0)
        c1, _ = pool.acquire()
        assert pool.n_clusters == 1
        c2, _ = pool.acquire()  # saturated -> new cluster
        assert pool.n_clusters == 2
        assert c1.name != c2.name
        assert [e.action for e in pool.events] == ["scale_out"]
        pool.release(c1)
        pool.release(c2)

    def test_scale_in_after_idle_checks(self):
        pool = WarehousePool(slots_per_cluster=1, min_clusters=1,
                             max_clusters=3,
                             scale_out_queue_depth=0,
                             scale_in_idle_checks=2)
        c1, _ = pool.acquire()
        c2, _ = pool.acquire()
        assert pool.n_clusters == 2
        pool.release(c1)
        pool.release(c2)  # idle check 1
        pool.poll()       # idle check 2 -> scale in
        assert pool.n_clusters == 1
        assert pool.events[-1].action == "scale_in"
        pool.poll()
        pool.poll()
        assert pool.n_clusters == 1  # never below min_clusters

    def test_least_loaded_routing(self):
        pool = WarehousePool(slots_per_cluster=2, min_clusters=2,
                             max_clusters=2)
        grabbed = [pool.acquire()[0].name for _ in range(4)]
        assert grabbed.count("cluster-0") == 2
        assert grabbed.count("cluster-1") == 2


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------
class TestQueryService:
    def test_sql_matches_catalog(self):
        catalog = make_catalog(1000)
        plain = Catalog(rows_per_partition=100)
        plain.create_table_from_rows(
            "events", SCHEMA, make_events_rows(1000),
            layout=Layout.sorted_by("ts"))
        service = QueryService(catalog)
        sql = "SELECT * FROM events WHERE ts BETWEEN 100 AND 220"
        assert sorted(service.sql(sql).rows) == \
            sorted(plain.sql(sql).rows)

    def test_repeated_query_hits_cache(self):
        service = QueryService(make_catalog(1000))
        sql = "SELECT count(*) AS c FROM events WHERE ts < 500"
        first = service.sql(sql)
        second = service.sql("select COUNT(*) as C from events "
                             "where ts < 500")
        assert first.rows == second.rows
        assert service.metrics.counter("result_cache_hits").value == 1
        assert service.metrics.cache_hit_ratio() > 0

    def test_dml_invalidates_cache(self):
        service = QueryService(make_catalog(1000))
        sql = "SELECT count(*) AS c FROM events WHERE ts < 500"
        assert service.sql(sql).rows == [(500,)]
        service.sql("DELETE FROM events WHERE ts < 100")
        refreshed = service.sql(sql)
        assert refreshed.rows == [(400,)]  # not the stale 500
        assert service.result_cache.stats.invalidations > 0

    def test_cache_disabled(self):
        service = QueryService(make_catalog(500),
                               enable_result_cache=False)
        sql = "SELECT count(*) AS c FROM events"
        assert service.sql(sql).rows == service.sql(sql).rows
        assert service.metrics.cache_hit_ratio() == 0.0

    def test_parse_error_surfaces(self):
        service = QueryService(make_catalog(200))
        with pytest.raises(ParseError):
            service.sql("SELEC nonsense")
        assert service.metrics.counter("queries_failed").value == 1

    def test_backpressure_rejects_with_typed_error(self):
        service = QueryService(make_catalog(200),
                               slots_per_cluster=1,
                               max_queue_per_cluster=0,
                               min_clusters=1, max_clusters=1)
        cluster, _ = service.pool.acquire()  # occupy the only slot
        try:
            with pytest.raises(AdmissionRejected):
                service.sql("SELECT count(*) FROM events")
            assert service.metrics.counter(
                "queries_rejected").value == 1
        finally:
            service.pool.release(cluster)

    def test_queue_timeout_is_typed(self):
        service = QueryService(make_catalog(200),
                               slots_per_cluster=1,
                               max_queue_per_cluster=4,
                               min_clusters=1, max_clusters=1)
        cluster, _ = service.pool.acquire()
        try:
            with pytest.raises(QueueWaitTimeout):
                service.sql("SELECT count(*) FROM events",
                            queue_timeout=0.05)
        finally:
            service.pool.release(cluster)

    def test_cancel_queued_query(self):
        service = QueryService(make_catalog(200),
                               slots_per_cluster=1,
                               max_queue_per_cluster=4,
                               min_clusters=1, max_clusters=1)
        cluster, _ = service.pool.acquire()
        try:
            handle = service.submit("SELECT count(*) FROM events")
            time.sleep(0.03)
            assert service.cancel(handle) is True
            with pytest.raises(QueryCancelled):
                service.result(handle, timeout=2)
            assert handle.status is QueryStatus.CANCELLED
        finally:
            service.pool.release(cluster)

    def test_async_submit_result(self):
        service = QueryService(make_catalog(500))
        handles = [service.submit(
            f"SELECT count(*) AS c FROM events WHERE ts < {100 * i}")
            for i in range(1, 5)]
        for i, handle in enumerate(handles, start=1):
            assert service.result(handle, timeout=10).rows == \
                [(100 * i,)]
            assert handle.status is QueryStatus.DONE

    def test_insert_through_service(self):
        service = QueryService(make_catalog(500))
        before = service.sql("SELECT count(*) AS c FROM events")
        service.insert("events",
                       [(10_000 + i, "alpha", 1.0, i)
                        for i in range(10)])
        after = service.sql("SELECT count(*) AS c FROM events")
        assert after.rows[0][0] == before.rows[0][0] + 10


# ----------------------------------------------------------------------
# Result-cache hit path: one token pass, no parse
# ----------------------------------------------------------------------
def count_calls(monkeypatch, function) -> list[int]:
    """Count calls of ``function`` through every ``repro`` module that
    holds it by name; returns a one-element counter."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestResultCacheHitPath:
    """The service reads a statement's text once: the cache key comes
    from one tokenize, a hit learns its tables from the entry and never
    parses, and a miss parses that same token list at most once."""

    SQL = "SELECT count(*) AS c FROM events WHERE ts < 500"

    def counters(self, monkeypatch):
        return (count_calls(monkeypatch, tokenize),
                count_calls(monkeypatch, parse_statement))

    @pytest.mark.parametrize("plan_cache", [False, True])
    def test_hit_tokenizes_once_and_never_parses(self, monkeypatch,
                                                 plan_cache):
        service = QueryService(make_catalog(1000),
                               plan_cache_entries=64 if plan_cache
                               else None)
        tokens, parses = self.counters(monkeypatch)
        assert service.sql(self.SQL).rows == [(500,)]
        assert (tokens[0], parses[0]) == (1, 1)  # the miss
        for expected_tokens in (2, 3):
            assert service.sql(self.SQL).rows == [(500,)]
            assert (tokens[0], parses[0]) == (expected_tokens, 1)
        assert service.metrics.counter("result_cache_hits").value == 2

    @pytest.mark.parametrize("plan_cache", [False, True])
    def test_misses_and_dml_tokenize_once(self, monkeypatch, plan_cache):
        service = QueryService(make_catalog(1000),
                               plan_cache_entries=64 if plan_cache
                               else None)
        tokens, parses = self.counters(monkeypatch)
        for bound in (100, 200, 300):
            sql = f"SELECT count(*) AS c FROM events WHERE ts < {bound}"
            assert service.sql(sql).rows == [(bound,)]
        assert (tokens[0], parses[0]) == (3, 3)
        service.sql("UPDATE events SET score = 0 WHERE ts < 10")
        service.sql("DELETE FROM events WHERE ts < 10")
        assert (tokens[0], parses[0]) == (5, 5)

    def test_spellings_case_and_comments_share_one_entry(self):
        service = QueryService(make_catalog(1000))
        first = service.sql(
            "SELECT count(*) AS c FROM events WHERE value > 1.0")
        again = service.sql(
            "select COUNT(*) as C from EVENTS -- the same question\n"
            "where VALUE > 1.00;")
        assert again.rows == first.rows
        assert len(service.result_cache) == 1
        assert service.metrics.counter("result_cache_hits").value == 1

    def test_entry_goes_stale_after_insert(self):
        service = QueryService(make_catalog(1000))
        assert service.sql(self.SQL).rows == [(500,)]
        service.insert("events", [(-1, "alpha", 1.0, 1)])
        assert service.sql(self.SQL).rows == [(501,)]
        assert service.metrics.counter("result_cache_hits").value == 0

    @pytest.mark.parametrize("dml,expected", [
        ("DELETE FROM events WHERE ts < 100", 400),
        ("UPDATE events SET ts = ts + 1000 WHERE ts < 50", 450),
    ])
    def test_entry_goes_stale_after_sql_dml(self, dml, expected):
        service = QueryService(make_catalog(1000))
        assert service.sql(self.SQL).rows == [(500,)]
        service.sql(dml)
        assert service.sql(self.SQL).rows == [(expected,)]
        assert service.sql(self.SQL).rows == [(expected,)]  # cached
        assert service.metrics.counter("result_cache_hits").value == 1

    @pytest.mark.parametrize("text", [
        "SELECT count(*) AS c FROM events WHERE ts < 500;;",
        "SELECT count(*) AS c FROM events WHERE",
        "SELECT count(*) AS c FROM events WHERE ts < DATE 'soon'",
    ])
    def test_text_that_does_not_parse_raises_and_is_never_cached(
            self, text):
        service = QueryService(make_catalog(1000))
        service.sql(self.SQL + ";")  # a cached entry beside it
        for _ in range(2):
            with pytest.raises(ParseError):
                service.sql(text)
        assert len(service.result_cache) == 1
        assert service.metrics.counter("queries_failed").value == 2
        assert service.metrics.counter("result_cache_misses").value == 1

    @pytest.mark.parametrize("enable_result_cache", [True, False])
    def test_unknown_table_raises_as_before(self, enable_result_cache):
        catalog = make_catalog(200)
        service = QueryService(catalog,
                               enable_result_cache=enable_result_cache)
        for sql in ("SELECT * FROM nosuch",
                    "SELECT count(*) FROM events JOIN nosuch "
                    "ON events.ts = nosuch.ts"):
            with pytest.raises(SchemaError) as direct:
                catalog.sql(sql)
            with pytest.raises(SchemaError) as served:
                service.sql(sql)
            assert str(served.value) == str(direct.value)

    def test_hit_telemetry_names_the_referenced_tables(self):
        catalog = make_catalog(400)
        catalog.create_table_from_rows(
            "cats", Schema.of(name=DataType.VARCHAR, rank=DataType.INTEGER),
            [("alpha", 1), ("beta", 2)])
        service = QueryService(catalog)
        sql = ("SELECT count(*) AS c FROM events JOIN cats "
               "ON events.category = cats.name WHERE ts < 100")
        assert service.sql(sql).rows == service.sql(sql).rows
        hit = service.telemetry.records()[-1]
        assert hit.result_cache_hit
        assert hit.tables == referenced_tables(sql) == ("cats", "events")


# ----------------------------------------------------------------------
# Concurrent stress: mixed SELECT + DML vs the single-threaded oracle
# ----------------------------------------------------------------------
class TestConcurrentStress:
    """Acceptance: >= 8 concurrent clients, zero oracle mismatches,
    cache hit ratio > 0, no stale reads after DML invalidation.

    SELECT threads query the seed region (ts < 2000), which the DML
    threads never touch — each DML thread owns a disjoint ts band at
    ts >= 10_000 that it fills, mutates, and empties. Every SELECT
    answer is therefore independent of DML timing and must equal the
    oracle's answer on the seed data, even while partitions are being
    rewritten and the result cache is being invalidated underneath.
    """

    N_SELECT_THREADS = 8
    N_DML_THREADS = 4
    SELECTS_PER_THREAD = 25
    DML_ROUNDS = 6

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

    def test_stress_mixed_select_dml(self):
        catalog = make_catalog(2000)
        service = QueryService(catalog, slots_per_cluster=4,
                               max_queue_per_cluster=64,
                               min_clusters=1, max_clusters=3,
                               scale_out_queue_depth=2)
        expected = {
            sql: sorted(run_plan(catalog.plan_sql(sql),
                                 catalog)[1])
            for sql in self.STABLE_QUERIES
        }
        mismatches: list[str] = []
        errors: list[BaseException] = []
        start = threading.Barrier(
            self.N_SELECT_THREADS + self.N_DML_THREADS)

        def select_worker(worker: int):
            start.wait()
            try:
                for i in range(self.SELECTS_PER_THREAD):
                    sql = self.STABLE_QUERIES[
                        (worker + i) % len(self.STABLE_QUERIES)]
                    got = sorted(service.sql(sql).rows)
                    if got != expected[sql]:
                        mismatches.append(sql)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def dml_worker(worker: int):
            start.wait()
            base = 10_000 + worker * 1_000
            try:
                for round_index in range(self.DML_ROUNDS):
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
                errors.append(exc)

        threads = [threading.Thread(target=select_worker, args=(w,))
                   for w in range(self.N_SELECT_THREADS)]
        threads += [threading.Thread(target=dml_worker, args=(w,))
                    for w in range(self.N_DML_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert mismatches == []

        # Every DML band was emptied: the table equals the seed data.
        count_sql = "SELECT count(*) AS c FROM events"
        oracle_rows = run_plan(catalog.plan_sql(count_sql),
                               catalog)[1]
        assert service.sql(count_sql).rows == oracle_rows
        assert oracle_rows == [(2000,)]

        # The repeated stable queries produced real cache hits.
        assert service.metrics.counter(
            "result_cache_hits").value > 0
        assert service.metrics.cache_hit_ratio() > 0

        # Full accounting: every submitted query finished.
        metrics = service.metrics
        submitted = metrics.counter("queries_submitted").value
        finished = (metrics.counter("queries_completed").value
                    + metrics.counter("queries_failed").value
                    + metrics.counter("queries_cancelled").value)
        assert submitted == finished

    def test_no_stale_reads_after_dml(self):
        service = QueryService(make_catalog(1000))
        probe = "SELECT * FROM events WHERE ts >= 50000"
        assert service.sql(probe).num_rows == 0
        assert service.sql(probe).num_rows == 0  # cached now
        assert service.metrics.counter(
            "result_cache_hits").value == 1
        service.insert("events",
                       [(50_000 + i, "fresh", 0.5, i)
                        for i in range(25)])
        assert service.sql(probe).num_rows == 25  # not stale 0
        service.sql("DELETE FROM events WHERE ts >= 50000")
        assert service.sql(probe).num_rows == 0
