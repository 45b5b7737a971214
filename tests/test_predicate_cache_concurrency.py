"""Concurrency and differential tests for the predicate cache.

The cache is mutated by post-execution records and catalog rewrite
notifications and read by compile-time lookups running on service
worker threads; these tests hammer all three from many threads and
check the structural invariants (entry count bound, per-entry size
bound, frozen entries), then check *semantics* differentially: a
cache-enabled catalog must answer every query exactly like a
cache-free one under interleaved DML, joins, OFFSETs and reclusters.
"""

from __future__ import annotations

import threading
from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro import Catalog, DataType, Layout, Schema
from repro.engine.operators import Filter
from repro.expr.ast import Compare, col, lit
from repro.pruning.predicate_cache import PredicateCache
from repro.service import QueryService

from conftest import make_events_rows
from faults import METADATA, FaultInjector, install_faults
from oracle import run_plan

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)

N_THREADS = 12


def make_catalog(n_rows: int = 2000) -> Catalog:
    catalog = Catalog(rows_per_partition=100)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n_rows),
        layout=Layout.sorted_by("ts"))
    return catalog


def predicate(threshold: int) -> Compare:
    return Compare(">", col("x"), lit(threshold))


ORDER = [("y", True)]


# ----------------------------------------------------------------------
# Direct cache-object stress
# ----------------------------------------------------------------------
class TestCacheObjectStress:
    """12 threads of mixed record / lookup / rewrite notifications
    must leave the cache structurally sound: bounded entry count,
    bounded frozen entries, no exceptions."""

    ROUNDS = 120

    def test_mixed_stress_invariants(self):
        cache = PredicateCache(max_entries=32,
                               max_partitions_per_entry=48)
        errors: list[BaseException] = []
        start = threading.Barrier(N_THREADS)

        def worker(worker_id: int):
            start.wait()
            try:
                for i in range(self.ROUNDS):
                    op = (worker_id + i) % 5
                    threshold = (worker_id * 7 + i) % 20
                    pred = predicate(threshold)
                    ids = range(threshold, threshold + 10)
                    if op == 0:
                        cache.record("t", pred, ids, 100 + i)
                    elif op == 1:
                        cache.record("t", pred, ids, 100 + i,
                                     order=ORDER, keep=5)
                    elif op == 2:
                        for entry in (cache.lookup("t", pred),
                                      cache.lookup("t", pred, ORDER, 5)):
                            if entry is not None:
                                assert entry.partition_ids == set(ids)
                                assert entry.keeps(threshold)
                                assert entry.keeps(10_000)
                    elif op == 3:
                        cache.on_rewrite("t", [100 + ((i + 3) % 60)], ())
                    else:
                        cache.on_rewrite("t", [worker_id], ["y"])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

        assert len(cache) <= cache.max_entries
        stats = cache.stats()
        assert stats["records"] > 0 and stats["invalidations"] > 0
        for entry in cache._entries.values():
            assert len(entry.partition_ids) <= \
                cache.max_partitions_per_entry
        cache.on_rewrite("t", [], ["y"])
        assert all(entry.kind == "filter"
                   for entry in cache._entries.values())

    def test_concurrent_admit_respects_max_entries(self):
        cache = PredicateCache(max_entries=16)
        start = threading.Barrier(N_THREADS)

        def worker(worker_id: int):
            start.wait()
            for i in range(80):
                cache.record(
                    "t", predicate(worker_id * 100 + i), [1, 2], 2)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(cache) <= 16


# ----------------------------------------------------------------------
# Service-level stress with the predicate cache enabled
# ----------------------------------------------------------------------
class TestServicePredicateCacheStress:
    """Mixed SELECT + DML through the multi-threaded service with the
    predicate cache on. SELECTs hit the seed region (ts < 2000); each
    DML thread owns a disjoint band at ts >= 10_000, so every SELECT
    answer must equal the single-threaded oracle on the seed data no
    matter how the cache is being invalidated underneath."""

    N_SELECT_THREADS = 8
    N_DML_THREADS = 4
    SELECTS_PER_THREAD = 20
    DML_ROUNDS = 5

    STABLE_QUERIES = [
        "SELECT * FROM events WHERE ts BETWEEN 150 AND 420",
        "SELECT * FROM events WHERE ts BETWEEN 1200 AND 1230",
        "SELECT count(*) AS c FROM events WHERE ts < 500",
        "SELECT * FROM events WHERE score >= 990000 AND ts < 2000",
        # ts is unique, so the top-k result is tie-free and stable
        # regardless of which cached scan set served it.
        "SELECT * FROM events WHERE ts < 2000 "
        "ORDER BY ts DESC LIMIT 10",
    ]

    def test_stress_with_cache_matches_oracle(self):
        catalog = make_catalog(2000)
        cache = catalog.enable_predicate_cache()
        # The service result cache would satisfy repeats without ever
        # consulting the predicate cache; disable it so every SELECT
        # exercises compile-time cache lookups.
        service = QueryService(catalog, enable_result_cache=False)

        expected = {
            sql: sorted(run_plan(catalog.plan_sql(sql), catalog)[1])
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
                for _ in range(self.DML_ROUNDS):
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

        # The cache actually participated, and stayed bounded.
        assert cache.hits + cache.misses > 0
        assert len(cache) <= cache.max_entries
        for entry in cache._entries.values():
            assert len(entry.partition_ids) <= \
                cache.max_partitions_per_entry


# ----------------------------------------------------------------------
# Differential: cache-enabled vs cache-free under interleaved DML
# ----------------------------------------------------------------------
CACHED_QUERIES = [
    "SELECT * FROM t WHERE k > 10",
    "SELECT * FROM t WHERE k BETWEEN 5 AND 30",
    "SELECT count(*) AS c FROM t WHERE v >= 0",
    "SELECT * FROM t ORDER BY v DESC LIMIT 4",
    "SELECT * FROM t WHERE k < 40 ORDER BY v DESC LIMIT 3",
    # Join pruning narrows t's scan for u's keys, not for the filter:
    # the bare filters that share these predicates must not see it.
    "SELECT k, w FROM t JOIN u ON k = k2 WHERE k > 10",
    "SELECT k, w FROM t JOIN u ON k = k2 WHERE v >= 0",
    "SELECT * FROM t WHERE v >= 0",
    # The whole row orders these, so OFFSET picks exact rows; LIMIT 7
    # keeps the rows LIMIT 3 OFFSET 4 keeps and shares its entry.
    "SELECT * FROM t ORDER BY v DESC, k ASC LIMIT 3",
    "SELECT * FROM t ORDER BY v DESC, k ASC LIMIT 3 OFFSET 4",
    "SELECT * FROM t ORDER BY v DESC, k ASC LIMIT 7",
    "SELECT * FROM t WHERE k < 40 ORDER BY v DESC, k ASC "
    "LIMIT 2 OFFSET 9",
    # A select list (a Project under the Sort) with three WHEREs, a
    # hidden ORDER BY column, and aliases that swap the columns' names:
    # one shape each, none of them the SELECT * entry above.
    "SELECT k FROM t WHERE k < 40 ORDER BY v DESC, k ASC LIMIT 3",
    "SELECT k FROM t WHERE k >= 40 ORDER BY v DESC, k ASC LIMIT 3",
    "SELECT k FROM t ORDER BY v DESC, k ASC LIMIT 3",
    "SELECT v AS k, k AS v FROM t ORDER BY v DESC, k ASC LIMIT 3",
    # A top-k above an outer join is t's top-k only by accident.
    "SELECT v, k, w FROM t LEFT JOIN u ON k = k2 "
    "ORDER BY v DESC, k ASC LIMIT 7",
]

DIFF_SCHEMA = Schema.of(k=DataType.INTEGER, v=DataType.INTEGER)
DIM_SCHEMA = Schema.of(k2=DataType.INTEGER, w=DataType.INTEGER)
DIM_ROWS = [(k, k * 10) for k in (3, 11, 12, 29, 47)]
#: seven partitions; every other one holds a key of u
SPREAD_ROWS = [(k, k % 7 - 3) for k in range(0, 50, 2)]

_rows = st.tuples(st.integers(0, 50), st.integers(-30, 30))
_dml_operations = [
    st.tuples(st.just("insert"), st.lists(_rows, min_size=1, max_size=6)),
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("update"), st.integers(0, 50), st.integers(-5, 5)),
    st.tuples(st.just("recluster"), st.sampled_from(["k", "v"])),
]

#: two in three operations are SELECTs: a wrong entry only shows when
#: the query that records it and the one it misleads both get drawn
diff_operations = st.lists(
    st.one_of(*_dml_operations,
              *[st.tuples(st.just("select"),
                          st.integers(0, len(CACHED_QUERIES) - 1))] * 8),
    min_size=1, max_size=40)


def diff_catalog(initial, **kwargs) -> Catalog:
    catalog = Catalog(rows_per_partition=4, **kwargs)
    catalog.create_table_from_rows("t", DIFF_SCHEMA, initial,
                                   layout=Layout.sorted_by("k"))
    catalog.create_table_from_rows("u", DIM_SCHEMA, DIM_ROWS)
    return catalog


def apply_dml(catalog: Catalog, op: tuple) -> None:
    if op[0] == "insert":
        catalog.insert("t", op[1])
    elif op[0] == "delete":
        catalog.sql(f"DELETE FROM t WHERE k = {op[1]}")
    elif op[0] == "update":
        catalog.sql(f"UPDATE t SET v = v + {op[2]} WHERE k = {op[1]}")
    else:
        catalog.recluster("t", op[1])


#: a join, then the bare filter it shares a predicate with
JOIN_THEN_FILTER = [("select", 5), ("select", 0), ("select", 6),
                    ("select", 7)]
#: LIMIT 3, then the same with an OFFSET, across a recluster
LIMIT_THEN_OFFSET = [("select", 8), ("select", 9), ("select", 10),
                     ("select", 9), ("recluster", "v"), ("select", 9),
                     ("select", 9)]
#: projected top-k shapes that differ in WHERE or aliases, the outer
#: join twice, then the bare top-k with the same ordering and size
PROJECTED_TOPK = [("select", i)
                  for i in (12, 13, 14, 15, 8, 12, 13, 14, 15, 8,
                            16, 16, 10, 10, 16)]


@settings(max_examples=100, deadline=None)
@given(initial=st.lists(_rows, min_size=0, max_size=40),
       ops=diff_operations)
@example(initial=SPREAD_ROWS, ops=PROJECTED_TOPK)
@example(initial=SPREAD_ROWS, ops=JOIN_THEN_FILTER)
@example(initial=SPREAD_ROWS, ops=LIMIT_THEN_OFFSET)
def test_cache_enabled_matches_cache_free(initial, ops):
    """Random interleaving of SELECT / INSERT / DELETE / UPDATE /
    recluster: the cache-enabled catalog must return exactly what a
    cache-free one does. Queries come from a small pool (filters,
    joins over the same filters, top-k with and without OFFSET, under
    a select list or above an outer join) so repeats produce genuine
    predicate-cache hits on entries recorded before the DML in
    between."""
    cached = diff_catalog(initial)
    cached.enable_predicate_cache(max_partitions_per_entry=8)
    plain = diff_catalog(initial)

    for op in ops:
        if op[0] != "select":
            apply_dml(cached, op)
            apply_dml(plain, op)
            continue
        sql = CACHED_QUERIES[op[1]]
        result = cached.sql(sql)
        got = result.rows
        want = plain.sql(sql).rows
        if " JOIN " not in sql:  # (an eliminated join's scans never run)
            scan, = result.profile.scans
            assert scan.total_partitions == \
                scan.partitions_pruned + scan.partitions_loaded, sql
        if " LIMIT " not in sql:
            assert sorted(got) == sorted(want), sql
        elif ", k ASC" in sql:
            assert got == want, sql
        else:
            # Ties in ORDER BY v make the exact row set ambiguous:
            # both catalogs must return the same number of rows,
            # the same multiset of sort keys, and only rows that
            # exist in the unlimited result.
            assert len(got) == len(want), sql
            assert sorted(r[1] for r in got) == \
                sorted(r[1] for r in want), sql
            pool = Counter(plain.sql(
                sql.rsplit(" LIMIT ", 1)[0]).rows)
            for row, count in Counter(got).items():
                assert pool[row] >= count, sql


# ----------------------------------------------------------------------
# The hit rule, end to end
# ----------------------------------------------------------------------
HIT_RULE_QUERIES = [
    # zone maps on v span most partitions: only a scan proves one empty
    "SELECT * FROM t WHERE v = 0",
    "SELECT * FROM t WHERE v >= 0",
    "SELECT * FROM t WHERE v < -10",
    "SELECT * FROM t WHERE k > 10 AND v = 0",
]


def run_and_find_scan(catalog: Catalog, sql: str):
    """Execute ``sql``; return its result, Filter and Scan operators."""
    roots: list = []
    result = catalog.execute_plan(catalog.plan_sql(sql),
                                  on_compiled=roots.append)
    op = roots[0]
    while not isinstance(op, Filter):
        op = op.child
    return result, op, op.child


@settings(max_examples=60, deadline=None)
@given(initial=st.lists(_rows, min_size=4, max_size=30),
       ops=st.lists(
           st.one_of(*_dml_operations,
                     st.tuples(st.just("lose"), st.integers(0, 10)),
                     *[st.tuples(st.just("select"), st.integers(
                         0, len(HIT_RULE_QUERIES) - 1))] * 5),
           min_size=2, max_size=14))
@example(initial=SPREAD_ROWS,  # record; hit; every way a partition is kept
         ops=[("select", 0), ("select", 0), ("insert", [(60, 0), (61, 5)]),
              ("lose", 0), ("select", 0), ("delete", 10), ("select", 0),
              ("update", 24, 2), ("select", 0), ("recluster", "v"),
              ("select", 0)])
def test_a_hit_scans_the_entry_the_newer_and_the_degraded(initial, ops):
    """After any DML interleaving, a hit's scan list is exactly
    (entry ids | ids above the high-water mark | degraded ids) & the
    scan set pruning alone leaves, and its rows are the cache-free
    rows. ``lose`` makes a partition's metadata unreadable."""
    catalog = diff_catalog(initial)
    injector = install_faults(catalog, FaultInjector(seed=0))
    cache = catalog.enable_predicate_cache()

    for op in ops:
        if op[0] == "lose":
            ids = catalog.tables["t"].partition_ids
            if ids:
                injector.mark_unavailable(
                    METADATA, ("t", ids[op[1] % len(ids)]))
            continue
        if op[0] != "select":
            apply_dml(catalog, op)
            continue
        sql = HIT_RULE_QUERIES[op[1]]
        catalog.predicate_cache = None
        want, filter_op, pruned_only = run_and_find_scan(catalog, sql)
        catalog.predicate_cache = cache
        entry = cache.lookup("t", filter_op.predicate)
        got, _, scan = run_and_find_scan(catalog, sql)
        assert sorted(got.rows) == sorted(want.rows), sql
        baseline = pruned_only.scan_set
        assert scan.scan_set.degraded_ids == baseline.degraded_ids
        if entry is None:
            assert not scan.profile.cache_hit
            assert scan.scan_set.partition_ids == baseline.partition_ids
            continue
        assert scan.profile.cache_hit
        assert scan.scan_set.partition_ids == [
            pid for pid in baseline.partition_ids
            if pid in entry.partition_ids or pid > entry.high_water
            or pid in baseline.degraded_ids]
        assert scan.profile.skip_set_pruned == \
            len(baseline) - len(scan.scan_set)
