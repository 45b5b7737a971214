"""Scans load batches; what is per partition stays so.

A ``Scan`` cuts its scan set into batches of about
``operators.BATCH_ROWS`` rows before loading them, one storage call and
one chunk a batch, each carrying the partitions it holds as runs,
unless a ``Limit`` or a runtime pruner steers it one partition at a
time. Patched to 0, the constant makes every scan stream one partition
a batch. Every statement below must give the same rows, per-scan
counters, predicate-cache records, simulated clocks, storage counters
and data-cache traffic either way, and the same typed error, counters
included, under injected faults. Either way each statement reads from
storage exactly what its scans account: a request per partition the
data cache did not serve, and the bytes scanned less the bytes it saved.

Also here: ``TopK`` sorts each scanned row at most once (against
``Sort`` plus a slice), and ``RangeSetSummary`` builds the same ranges
from a key array as from a list.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import random
import sys
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import Catalog, DataType, Layout, Schema
from repro.engine import operators
from repro.engine.chunk import Chunk
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.errors import StorageError
from repro.expr import ast
from repro.plan.compiler import CompilerOptions
from repro.pruning.summaries import RangeSetSummary
from repro.pruning.topk_pruning import Boundary, rank_of
from repro.storage import micropartition
from repro.storage.micropartition import MicroPartition
from repro.storage.storage_layer import StorageLayer
from repro.storage.table import Table

from faults import FaultInjector, FaultSpec, install_faults

SCHEMA = Schema.of(a=DataType.INTEGER, v=DataType.DOUBLE,
                   s=DataType.VARCHAR, k=DataType.INTEGER)
DIM = Schema.of(key=DataType.INTEGER, w=DataType.INTEGER)
STRINGS = ["alpha", "beta", "gamma", "alp", "z", ""]
#: partition sizes, zero-row partitions among them
SIZES = [10, 0, 7, 10, 10, 0, 3, 10, 10, 10, 1, 10, 0, 10, 10, 8, 10, 10,
         10, 10, 10, 4, 10, 0, 10, 10, 10, 10]


def make_catalog(seed: int, clustered: bool,
                 data_cache: str | None) -> Catalog:
    """``data_cache``: None, ``"default"`` (large) or ``"tiny"`` (a few
    partitions' worth: it evicts)."""
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.08 else value

    rows = [(maybe(i // 2), maybe(float(rng.randrange(40)) / 4),
             maybe(STRINGS[(i // 20) % len(STRINGS)]), maybe(i % 30))
            for i in range(sum(SIZES))]
    if not clustered:
        random.Random(seed + 1).shuffle(rows)
    chunks, start = [], 0
    for size in SIZES:
        chunks.append(rows[start:start + size])
        start += size
    catalog = Catalog(rows_per_partition=10)
    catalog.create_table(Table("t", SCHEMA, [
        MicroPartition.from_rows(SCHEMA, chunk) for chunk in chunks]))
    catalog.create_table_from_rows(
        "d", DIM, [(key, key * 3) for key in range(0, 30, 3)])
    catalog.enable_predicate_cache()
    if data_cache == "default":
        catalog.enable_data_cache()
    elif data_cache == "tiny":
        catalog.enable_data_cache(budget_bytes=2000)
    return catalog


#: (statement, rows compared in order?, options)
STATEMENTS = [
    ("SELECT a, v, s FROM t WHERE {p}", False, None),
    ("SELECT count(*) AS c, sum(a) AS sa, min(s) AS ms, max(v) AS mv "
     "FROM t WHERE {p}", True, None),
    ("SELECT s, count(*) AS c, sum(v) AS sv FROM t WHERE {p} GROUP BY s",
     False, None),
    ("SELECT a, s FROM t WHERE {p} LIMIT 7 OFFSET 3", True, None),
    ("SELECT a, k, w FROM t JOIN d ON k = key WHERE {p} LIMIT 5", True,
     None),
    ("SELECT a, s, w FROM t LEFT JOIN d ON k = key WHERE {p}", False, None),
    ("SELECT a, s, w FROM t LEFT JOIN d ON k = key WHERE {p} LIMIT 6",
     True, None),
    ("SELECT a, v, s FROM t WHERE {p} ORDER BY v DESC, a LIMIT 6", True,
     None),
    ("SELECT a, v, s FROM t WHERE {p} ORDER BY v DESC, a LIMIT 6", True,
     CompilerOptions(enable_topk_pruning=False)),
    ("SELECT a, s FROM t WHERE {p} ORDER BY s LIMIT 4 OFFSET 2", True,
     None),
    ("SELECT a, s, w FROM t JOIN d ON k = key WHERE {p} ORDER BY a DESC "
     "LIMIT 5", True, None),
    ("SELECT a, v FROM t WHERE {p} ORDER BY a", True, None),
]

SCAN_COUNTERS = ("table", "partitions_loaded", "rows_scanned",
                 "bytes_scanned", "filter_bypassed", "topk_checks",
                 "topk_skipped", "early_terminated", "cache_hit",
                 "skip_set_pruned", "cache_hits", "cache_misses",
                 "cache_bytes_saved")
IO_COUNTERS = ("requests", "bytes_read", "partitions_loaded",
               "failed_requests", "cache_hits", "cache_misses",
               "cache_bytes_saved")


def positions(catalog: Catalog) -> dict[int, int]:
    """Partition ids are process-wide: compare positions in the tables."""
    return {pid: n for name in ("t", "d") for n, pid in
            enumerate(catalog.tables[name].partition_ids)}


def traffic(catalog: Catalog) -> tuple:
    """Storage counters, and the data cache's."""
    stats = catalog.storage.stats.snapshot()
    cache = catalog.data_cache
    io = tuple(getattr(stats, name) for name in IO_COUNTERS)
    if cache is None:
        return io
    position = positions(catalog)
    return io, cache.stats().to_dict(), {
        segment: [position[pid] for pid in ids]
        for segment, ids in cache.segment_ids().items()}


def assert_storage_matches_profile(catalog: Catalog, before, profile,
                                   sql: str) -> None:
    """What a statement read from storage is what its scans account:
    one request per partition not served by the data cache, and the
    bytes scanned less the bytes the cache saved."""
    read = catalog.storage.stats.diff(before)
    scans = profile.scans
    assert read.requests == sum(
        scan.cache_misses if catalog.data_cache is not None
        else scan.partitions_loaded for scan in scans), sql
    assert read.bytes_read == sum(
        scan.bytes_scanned - scan.cache_bytes_saved for scan in scans), sql


def observe(catalog: Catalog, predicate: str) -> list:
    """Every statement twice (the repeat may hit the predicate cache):
    rows, per-scan counters, clocks and storage / data-cache traffic,
    then the predicate cache's records. Each statement's storage
    traffic must equal what its scans account."""
    seen = []
    for _ in range(2):
        for template, ordered, options in STATEMENTS:
            sql = template.format(p=predicate)
            before = catalog.storage.stats.snapshot()
            result = catalog.sql(sql, options)
            rows = (result.rows if ordered
                    else Counter(map(repr, result.rows)))
            profile = result.profile
            assert_storage_matches_profile(catalog, before, profile, sql)
            seen.append((rows, profile.exec_ms, profile.total_ms,
                         [tuple(getattr(scan, name) for name in
                                SCAN_COUNTERS) for scan in profile.scans],
                         traffic(catalog)))
    position = positions(catalog)
    records = {key: (sorted(position[pid] for pid in entry.partition_ids),
                     position[entry.high_water])
               for key, entry in catalog.predicate_cache._entries.items()}
    return seen + [records]


def streamed_and_batched(make, predicate: str) -> tuple[list, list]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(operators, "BATCH_ROWS", 0)
        streamed = observe(make(), predicate)
    return streamed, observe(make(), predicate)


_atoms = st.one_of(
    st.builds("a {} {}".format, st.sampled_from(["<", "<=", ">", ">=",
                                                 "=", "<>"]),
              st.integers(-5, 125)),
    st.builds("a BETWEEN {} AND {}".format, st.integers(-5, 80),
              st.integers(10, 125)),
    st.builds("v {} {}".format, st.sampled_from(["<", ">="]),
              st.sampled_from([0, 2.5, 5, 9.75])),
    st.builds("s {} '{}'".format, st.sampled_from(["=", "<>", ">=", "<"]),
              st.sampled_from(STRINGS[:5])),
    st.sampled_from(["a IS NULL", "a IS NOT NULL", "s IS NOT NULL",
                     "k IN (3, 6, 7)", "a >= 0"]),
)
_predicates = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds("({} AND {})".format, inner, inner),
        st.builds("({} OR {})".format, inner, inner)),
    max_leaves=3)


@settings(max_examples=60, deadline=None)
@given(predicate=_predicates, seed=st.integers(0, 5),
       clustered=st.booleans(),
       data_cache=st.sampled_from([None, "default", "tiny"]))
def test_batched_equals_streamed(predicate, seed, clustered, data_cache):
    streamed, batched = streamed_and_batched(
        lambda: make_catalog(seed, clustered, data_cache), predicate)
    for want, got in zip(streamed, batched):
        assert got == want, predicate


def test_a_tiny_data_cache_evicts_and_hits():
    """The tiny cache the differential above uses is exercised: it
    evicts, and statements still hit it."""
    catalog = make_catalog(0, True, "tiny")
    observe(catalog, "a >= 0")
    stats = catalog.data_cache.stats()
    assert stats.evictions > 0 and stats.hits > 0 and stats.misses > 0


def observe_faults(catalog: Catalog, injector: FaultInjector,
                   predicate: str, monkeypatch) -> list:
    """Every statement under injected storage faults: its rows and
    clocks, or its typed error; either way the per-scan counters of
    the query, and the faults injected and storage counters after
    it."""
    contexts = []
    init = ExecContext.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(ExecContext, "__init__", remember)
    seen = []
    for template, ordered, options in STATEMENTS:
        try:
            result = catalog.sql(template.format(p=predicate), options)
            outcome = (result.rows if ordered
                       else Counter(map(repr, result.rows)),
                       result.profile.exec_ms)
        except StorageError as error:
            outcome = (type(error).__name__, str(error))
        profile = contexts[-1].profile
        seen.append((outcome, [tuple(getattr(scan, name) for name in
                                     SCAN_COUNTERS)
                               for scan in profile.scans],
                     injector.injected(), traffic(catalog)))
    return seen


def faulty_catalog(seed: int, data_cache: str | None
                   ) -> tuple[Catalog, FaultInjector]:
    catalog = make_catalog(seed, False, data_cache)
    injector = install_faults(catalog, FaultInjector(
        seed=seed, storage=FaultSpec(timeout_rate=0.08,
                                     corruption_rate=0.04)), attempts=2)
    return catalog, injector


@pytest.mark.parametrize("data_cache", [None, "tiny"])
@pytest.mark.parametrize("seed", range(4))
def test_batched_equals_streamed_under_faults(seed, data_cache):
    """Faults fire per id and attempt, so batching moves none; a load
    the re-reads cannot save raises the same typed error with the
    loads before it accounted the same. The statements' errors differ
    by seed: some raise, some absorb a fault."""
    outcomes = []
    for batch_rows in (0, operators.BATCH_ROWS):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(operators, "BATCH_ROWS", batch_rows)
            # faults roll per partition id: both catalogs get the same
            ids = micropartition._IdGenerator()
            ids.ensure_floor(10**9)
            monkeypatch.setattr(micropartition, "partition_id_generator",
                                ids)
            outcomes.append(observe_faults(
                *faulty_catalog(seed, data_cache), "a >= 3", monkeypatch))
    streamed, batched = outcomes
    assert batched == streamed
    kinds = Counter(type(outcome[0]).__name__ for outcome, *_ in batched)
    assert kinds["str"] and kinds["Counter"] + kinds["list"]
    injected = [{}] + [faults for *_, faults, _ in batched]
    assert any(type(outcome[0]) is not str and faults != injected[i]
               for i, (outcome, _, faults, _) in enumerate(batched))


def test_an_unsteered_scan_batches_and_a_limited_one_streams():
    """The differential above compares something: batches form."""
    catalog = make_catalog(0, True, None)
    scan_set = catalog.scan_set("t")
    runs = tuple((pid, size) for pid, size
                 in zip(scan_set.partition_ids, SIZES))
    context = ExecContext(catalog.storage)
    (batch,) = list(operators.Scan(context, "t", SCHEMA, scan_set))
    assert batch.runs == runs and batch.num_rows == sum(SIZES)
    scan = operators.Scan(ExecContext(catalog.storage), "t", SCHEMA,
                          scan_set)
    operators.Limit(scan.context, operators.Filter(
        scan.context, scan, ast.Compare(">", ast.col("a"), ast.lit(3))), 5)
    assert [chunk.runs for chunk in scan] == [(run,) for run in runs]


class TestScanCallBudget:
    """Python calls (cProfile's count, builtins included) per extra
    loaded partition, 100 vs 1 000 partitions of 10 rows: a scan that
    batches pays per batch, not per partition (43 and 45 calls a
    partition when each took its own load, charge and chunk); one that
    streams pays no more than then (105)."""

    @staticmethod
    def calls(partitions: int, sql: str) -> tuple[int, int]:
        catalog = Catalog(rows_per_partition=10)
        catalog.create_table_from_rows(
            "t", Schema.of(k=DataType.INTEGER, v=DataType.INTEGER),
            [(i, i * 37 % 100) for i in range(10 * partitions)])
        catalog.sql(sql)                        # first-call costs
        previous = sys.getprofile()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = catalog.sql(sql)
        finally:
            calls = pstats.Stats(profiler).total_calls    # disables it
            # a profiler watching the whole suite gets its hook back
            sys.setprofile(previous)
        return calls, result.profile.partitions_loaded

    def per_partition(self, sql: str) -> float:
        (small, loaded_small), (large, loaded_large) = (
            self.calls(100, sql), self.calls(1000, sql))
        assert (loaded_small, loaded_large) == (100, 1000)
        return (large - small) / 900

    @pytest.mark.parametrize("sql", ["SELECT sum(v) FROM t",
                                     "SELECT sum(v) FROM t WHERE v < 50"])
    def test_a_batched_scan(self, sql):
        assert self.per_partition(sql) <= 8

    def test_a_streamed_scan(self):
        assert self.per_partition(
            "SELECT k FROM t WHERE v < 50 LIMIT 100000") <= 105


def test_limit_marks_its_chain_and_nothing_else():
    catalog = make_catalog(0, True, None)
    context = ExecContext(catalog.storage)

    def scan(table, schema):
        return operators.Scan(context, table, schema,
                              catalog.scan_set(table))

    probe, build, other = scan("t", SCHEMA), scan("d", DIM), scan("t", SCHEMA)
    join = operators.HashJoin(context, operators.Filter(
        context, probe, ast.Compare(">", ast.col("a"), ast.lit(3))),
        build, "k", "key")
    operators.Limit(context, operators.Project(
        context, join, [ast.col("a")], ["a"]), 3)
    operators.Limit(context, operators.Sort(
        context, other, [operators.SortKey("a")]), 3)
    assert (probe.limited, build.limited, other.limited) == \
        (True, False, False)


def test_filter_runs_skip_zero_row_partitions():
    """Counts come from a cumsum at run ends, so runs of no rows (and
    runs the mask empties) neither shift nor break the others."""
    runs = ((5, 2), (6, 0), (7, 3), (8, 0), (9, 1))
    mask = np.array([True, False, False, False, False, True])
    assert operators._kept_runs(runs, mask) == ((5, 1), (9, 1))


# ----------------------------------------------------------------------
# TopK: only the rows that may enter are sorted, each at most once
# ----------------------------------------------------------------------
TOPK_SCHEMA = Schema.of(x=DataType.DOUBLE, s=DataType.VARCHAR,
                        i=DataType.INTEGER, n=DataType.INTEGER)
_topk_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 2.0, 2.0, math.nan])),
    st.one_of(st.none(), st.sampled_from(["", "a", "b", "a\x00"])),
    st.one_of(st.none(), st.integers(-2, 2))), max_size=60)


def chunks_of(rows: list, cuts: list[int]) -> list[Chunk]:
    """Numbered rows cut into chunks, each one partition (id 100 + i)."""
    rows = [row + (n,) for n, row in enumerate(rows)]
    chunks, start = [], 0
    for number, size in enumerate(cuts + [len(rows)]):
        chunk = Chunk.from_rows(TOPK_SCHEMA, rows[start:start + size])
        chunk.runs = ((100 + number, chunk.num_rows),)
        chunks.append(chunk)
        start += size
        if start >= len(rows):
            break
    return chunks


@settings(max_examples=200, deadline=None)
@given(rows=_topk_rows, cuts=st.lists(st.integers(0, 9), max_size=12),
       keys=st.lists(st.tuples(st.sampled_from(["x", "s", "i"]),
                               st.booleans()), min_size=1, max_size=3),
       k=st.integers(0, 12), offset=st.integers(0, 4),
       bounded=st.booleans())
def test_topk_is_sort_and_slice(rows, cuts, keys, k, offset, bounded):
    keys = [operators.SortKey(column, desc) for column, desc in keys]
    chunks = chunks_of(rows, cuts)
    context = ExecContext(StorageLayer())
    boundary = Boundary(desc=keys[0].desc) if bounded else None
    topk = operators.TopK(context, operators.ChunkSource(TOPK_SCHEMA,
                                                         chunks),
                          keys, k, boundary=boundary, offset=offset)
    got = execute(topk, context).rows
    context = ExecContext(StorageLayer())
    ordered = execute(operators.Sort(context, operators.ChunkSource(
        TOPK_SCHEMA, chunks), keys), context).rows
    want = ordered[offset:offset + k]
    assert repr(got) == repr(want)          # NaN == NaN as text
    if not k:
        return
    source = {row[3]: chunk.runs[0][0] for chunk in chunks
              for row in chunk.to_rows()}
    assert topk.contributing_partitions == {
        source[row[3]] for row in ordered[:offset + k]}
    leading = TOPK_SCHEMA.names().index(keys[0].column)
    # a boundary at NaN compares false both ways, so it never moves on
    nan_seen = any(row[leading] != row[leading] for row in rows)
    if bounded and len(ordered) >= offset + k and not nan_seen:
        assert boundary.rank == rank_of(ordered[offset + k - 1][leading],
                                        keys[0].desc)


def test_topk_sorts_no_row_it_did_not_scan_or_sorted_already(monkeypatch):
    """ORDER BY v DESC LIMIT 10000 over 20 000 rows in 200 partitions,
    read best-first (every row enters) and in random order: the rows
    handed to ``sort_order`` never outnumber the rows scanned."""
    sorted_rows = []
    sort_order = operators.sort_order

    def counted(columns, descending):
        sorted_rows.append(len(columns[0]))
        return sort_order(columns, descending)

    monkeypatch.setattr(operators, "sort_order", counted)
    schema = Schema.of(id=DataType.INTEGER, v=DataType.INTEGER)
    for shuffled in (False, True):
        values = list(range(20_000))
        if shuffled:
            random.Random(3).shuffle(values)
        catalog = Catalog(rows_per_partition=100)
        catalog.create_table_from_rows(
            "t", schema, [(n, v) for n, v in enumerate(values)])
        sorted_rows.clear()
        result = catalog.sql("SELECT * FROM t ORDER BY v DESC LIMIT 10000")
        assert [row[1] for row in result.rows] == \
            list(range(19_999, 9_999, -1))
        assert 0 < sum(sorted_rows) <= result.profile.scans[0].rows_scanned


# ----------------------------------------------------------------------
# RangeSetSummary from the key array
# ----------------------------------------------------------------------
def test_array_and_list_keys_give_the_same_ranges():
    keys = np.arange(0, 1000, 10)
    assert len(RangeSetSummary(keys).ranges) == 64
    assert RangeSetSummary(keys).ranges == \
        RangeSetSummary(keys.tolist()).ranges
    floats = np.array([0.5, 2.5, 9.0, 9.5, 40.0])
    assert RangeSetSummary(floats, 3).ranges == \
        RangeSetSummary(floats.tolist() + [None], 3).ranges == \
        [(0.5, 2.5), (9.0, 9.5), (40.0, 40.0)]
    assert RangeSetSummary(np.array([1.0, math.nan, 3.0]), 1).ranges == \
        [(1.0, 3.0)]                        # NaN never joins
    strings = np.array(["b", "a\x00", "c"], dtype=object)
    assert RangeSetSummary(strings, 2).ranges == [("a\x00", "c")]


def _join_catalog(key_type: DataType, build_keys: list) -> Catalog:
    catalog = Catalog(rows_per_partition=10)
    probe = Schema.of(id=DataType.INTEGER, pk=key_type)
    build = Schema.of(bk=key_type, tag=DataType.INTEGER)
    catalog.create_table_from_rows(
        "p", probe, [(n, None if n % 37 == 0 else
                      math.nan if n % 41 == 0 and key_type ==
                      DataType.DOUBLE else n) for n in range(400)],
        layout=Layout.sorted_by("pk"))
    catalog.create_table_from_rows(
        "b", build, [(key, n) for n, key in enumerate(build_keys)])
    return catalog


def test_a_numpy_keyed_join_prunes_a_gap_partition():
    """Build keys in two clusters: the gap between them prunes probe
    partitions (one covering range could not)."""
    catalog = _join_catalog(DataType.INTEGER,
                            list(range(0, 40)) + list(range(300, 340)))
    result = catalog.sql("SELECT id, tag FROM p JOIN b ON pk = bk")
    (probe,) = [scan for scan in result.profile.scans if scan.table == "p"]
    assert probe.join_result is not None and probe.join_result.pruned >= 20
    assert sorted(result.rows) == sorted(
        (n, n if n < 40 else n - 260) for n in list(range(40))
        + list(range(300, 340)) if n % 37)


@pytest.mark.parametrize("key_type", [DataType.INTEGER, DataType.DOUBLE])
def test_join_pruning_changes_no_row(key_type):
    build_keys = [None, 3, 5, 90, 91, 250, 399, 1000]
    if key_type == DataType.DOUBLE:
        build_keys = [math.nan, 41.0, 5.5] + build_keys[1:]
    catalog = _join_catalog(key_type, build_keys)
    for sql in ("SELECT id, pk, tag FROM p JOIN b ON pk = bk",
                "SELECT id, pk, tag FROM b JOIN p ON bk = pk"):
        pruned = catalog.sql(sql)
        unpruned = catalog.sql(sql, CompilerOptions(
            enable_join_pruning=False))
        assert sorted(map(repr, pruned.rows)) == \
            sorted(map(repr, unpruned.rows))
        assert sum(scan.join_result.pruned for scan in pruned.profile.scans
                   if scan.join_result is not None) > 0
