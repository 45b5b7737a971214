"""Differential tests: vectorized pruning kernels vs the scalar oracle.

The vectorized pruner's contract is *bit-identity* with
:class:`repro.pruning.FilterPruner`: same kept partitions, same pruned
partitions, same fully-matching set, same check counts — for every
predicate shape and every zone-map pathology (NULL-only columns, empty
partitions, missing stats, degraded metadata). These tests enforce the
contract with hypothesis over randomized predicates and data, plus
directed cases for each fallback path.
"""

from __future__ import annotations

import gc
import random
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.catalog import Catalog
from repro.expr import ast
from repro.expr.simplify import simplify
from repro.plan.compiler import CompilerOptions
from repro.pruning import (
    Boundary,
    FilterPruner,
    JoinPruner,
    LimitPruner,
    OrderStrategy,
    RangeSetSummary,
    ScanSet,
    TopKPruner,
    StatsIndex,
    VectorizedFilterPruner,
    compile_pruning_kernel,
)
from repro.sql import parse_select
from repro.pruning.filters import XorFilter
from repro.service import QueryService
from repro.storage.builder import build_table_from_columns
from repro.storage.column import Column
from repro.storage.micropartition import MicroPartition

from faults import METADATA, FaultInjector, install_faults
from repro.storage.table import Table
from repro.storage.zonemap import ColumnStats
from repro.types import DataType, Schema

SCHEMA = Schema.of(a=DataType.INTEGER, v=DataType.DOUBLE,
                   s=DataType.VARCHAR)

STRINGS = ["alpha", "beta", "gamma", "alp", "z", "", "alphabet"]

# ----------------------------------------------------------------------
# Data strategies: partitions with NULLs, empties, and odd shapes
# ----------------------------------------------------------------------
int_values = st.one_of(st.none(), st.integers(-50, 50))
float_values = st.one_of(st.none(),
                         st.floats(-50, 50, allow_nan=False))
str_values = st.one_of(st.none(), st.sampled_from(STRINGS))
rows_strategy = st.lists(
    st.tuples(int_values, float_values, str_values),
    min_size=0, max_size=12)
partitions_strategy = st.lists(rows_strategy, min_size=0, max_size=8)


# ----------------------------------------------------------------------
# Predicate strategies: compilable shapes, plus shapes that must fall
# back (arithmetic, NaN / lossy literals)
# ----------------------------------------------------------------------
_OPS = ["<", "<=", ">", ">=", "=", "<>"]
_TOP = "\U0010ffff"

#: LIKE patterns from ``%``, ``_``, the empty and exact patterns, NUL
#: and U+10FFFF (the prefix-successor trap)
LIKE_PATTERNS = st.one_of(
    st.sampled_from(["", "%", "_", "%%", "alpha", "alp", "alp%", "alp_",
                     "a_p%", "%a", "a%t", "alp%%", "a\x00", "a\x00%",
                     "\x00%", _TOP + "%", _TOP + _TOP + "%", _TOP + "_",
                     "a" + _TOP + "%", "z%", "beta"]),
    st.lists(st.sampled_from(["%", "_", "a", "l", "p", "\x00", _TOP]),
             max_size=5).map("".join))


def _compare(col: str, lit_strategy):
    return st.tuples(st.sampled_from(_OPS), lit_strategy,
                     st.booleans()).map(
        lambda t: ast.Compare(t[0], ast.col(col), ast.lit(t[1]))
        if t[2] else ast.Compare(t[0], ast.lit(t[1]), ast.col(col)))


def leaf_predicate():
    return st.one_of(
        _compare("a", st.integers(-60, 60)),
        _compare("v", st.floats(-60, 60, allow_nan=False)),
        # int literal against the DOUBLE column and vice versa:
        # exercises the cross-lane binding guards.
        _compare("v", st.integers(-60, 60)),
        _compare("a", st.floats(-60, 60, allow_nan=False)),
        _compare("s", st.sampled_from(STRINGS)),
        st.tuples(
            st.sampled_from(["a", "v", "s"]), st.booleans()).map(
            lambda t: ast.IsNull(ast.col(t[0]), negated=t[1])),
        st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                 min_size=1, max_size=5).map(
            lambda vs: ast.InList(ast.col("a"), vs)),
        st.lists(st.one_of(st.none(), st.sampled_from(STRINGS)),
                 min_size=1, max_size=4).map(
            lambda vs: ast.InList(ast.col("s"), vs)),
        st.sampled_from(["alp", "bet", "z", ""]).map(
            lambda p: ast.StartsWith(ast.col("s"), p)),
        LIKE_PATTERNS.map(lambda p: ast.Like(ast.col("s"), p)),
        st.sampled_from([True, False]).map(ast.lit),
    )


def predicate_expr(depth: int = 2):
    leaf = leaf_predicate()
    if depth == 0:
        return leaf
    sub = predicate_expr(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: ast.And(t[0], t[1])),
        st.tuples(sub, sub).map(lambda t: ast.Or(t[0], t[1])),
        sub.map(ast.Not),
    )


def make_entries(partition_rows):
    entries = []
    for i, rows in enumerate(partition_rows):
        partition = MicroPartition.from_rows(SCHEMA, rows)
        entries.append((partition.partition_id, partition.zone_map))
    return entries


def assert_differential(predicate, entries, detect_fm,
                        index=None, expect_mode=None):
    """``index=None``: the scan set packs its own (every entry
    trusted); otherwise it is the snapshot the scan set carries."""
    return assert_scan_set_differential(
        predicate, ScanSet(entries, index=index), detect_fm,
        expect_mode)


def assert_scan_set_differential(predicate, scan_set, detect_fm=True,
                                 expect_mode=None):
    scalar = FilterPruner(predicate, SCHEMA,
                          detect_fully_matching=detect_fm)
    vector = VectorizedFilterPruner(
        predicate, SCHEMA, detect_fully_matching=detect_fm)
    expected = scalar.prune(ScanSet(scan_set.entries))
    got = vector.prune(scan_set)
    assert got.kept.partition_ids == expected.kept.partition_ids
    assert got.pruned_ids == expected.pruned_ids
    assert got.fully_matching_ids == expected.fully_matching_ids
    assert got.checks == expected.checks
    assert got.before == expected.before
    if expect_mode is not None:
        assert vector.mode == expect_mode
    return vector


class TestDifferential:
    """Randomized equivalence against the scalar oracle."""

    @settings(max_examples=400, deadline=None)
    @given(predicate=predicate_expr(),
           partition_rows=partitions_strategy,
           detect_fm=st.booleans())
    def test_matches_scalar_pruner(self, predicate, partition_rows,
                                   detect_fm):
        assert_differential(predicate, make_entries(partition_rows),
                            detect_fm)

    @settings(max_examples=150, deadline=None)
    @given(predicate=predicate_expr(),
           partition_rows=st.lists(rows_strategy, min_size=1,
                                   max_size=6),
           seed=st.integers(0, 2**16))
    def test_matches_with_degraded_zone_maps(self, predicate,
                                             partition_rows, seed):
        """Stats-free (degraded) zone maps route through the scalar
        path and the combined result still matches the oracle."""
        entries = make_entries(partition_rows)
        index = StatsIndex(entries)
        rng = random.Random(seed)
        degraded = [
            (pid, zm.without_stats() if rng.random() < 0.5 else zm)
            for pid, zm in entries]
        assert_differential(predicate, degraded, True, index=index)


class TestDirectedFallbacks:
    def _entries(self, n=6, nulls=False):
        rows = [[(i * 10 + j, float(i * 10 + j),
                  STRINGS[(i + j) % len(STRINGS)])
                 for j in range(5)] for i in range(n)]
        if nulls:
            rows[0] = [(None, None, None)] * 3
            rows[1] = []
        return make_entries(rows)

    def test_compilable_predicate_is_fully_vectorized(self):
        predicate = ast.And(
            ast.Compare(">", ast.col("a"), ast.lit(5)),
            ast.Compare("<", ast.col("v"), ast.lit(40.0)))
        pruner = assert_differential(
            predicate, self._entries(), True,
            expect_mode="vectorized")
        assert pruner.kernel is not None
        assert pruner.fallback_checks == 0

    def test_like_predicate_compiles(self):
        predicate = ast.Like(ast.col("s"), "alp%")
        pruner = assert_differential(
            predicate, self._entries(), True,
            expect_mode="vectorized")
        assert pruner.kernel is not None
        assert pruner.fallback_checks == 0

    def test_nan_literal_falls_back(self):
        predicate = ast.Compare("=", ast.col("v"),
                                ast.lit(float("nan")))
        assert_differential(predicate, self._entries(), True,
                            expect_mode="fallback")

    def test_huge_int_literal_falls_back(self):
        predicate = ast.Compare("<", ast.col("a"), ast.lit(2**70))
        assert_differential(predicate, self._entries(), True,
                            expect_mode="fallback")

    def test_stale_index_rows_fall_back_per_partition(self):
        """Entries whose ZoneMap is not the indexed object (stale
        index) are classified by the scalar path: mode == mixed."""
        entries = self._entries()
        index = StatsIndex(entries)
        refreshed = entries[:3] + [
            (pid, zm.without_stats()) for pid, zm in entries[3:]]
        pruner = assert_differential(
            ast.Compare(">", ast.col("a"), ast.lit(20)),
            refreshed, True, index=index)
        assert pruner.mode == "mixed"
        assert pruner.vector_checks == 3
        assert pruner.fallback_checks == 3

    def test_null_and_empty_partitions(self):
        for predicate in (
                ast.IsNull(ast.col("a")),
                ast.IsNull(ast.col("a"), negated=True),
                ast.Compare("=", ast.col("a"), ast.lit(3)),
                ast.InList(ast.col("a"), [1, None, 3]),
                ast.StartsWith(ast.col("s"), "al")):
            assert_differential(predicate,
                                self._entries(nulls=True), True)

    def test_missing_column_matches_scalar(self):
        predicate = ast.Compare("=", ast.col("a"), ast.lit(1))
        entries = self._entries(3)
        # an index over zone maps that lack column "a" entirely
        other = Schema.of(x=DataType.INTEGER)
        alien = [(pid, MicroPartition.from_rows(
            other, [(1,), (2,)]).zone_map) for pid, _ in entries]
        assert_differential(predicate, alien, True)


class TestNulSuffixedStrings:
    """A str compared with an object lane must stay a Python str:
    numpy turns a bare one into a fixed-width string and drops its
    trailing NULs, so ``'a\\x00'`` would compare as ``'a'``."""

    VALUES = ["a", "a\x00", "", "\x00"]

    def _scan_set(self):
        return ScanSet(make_entries([[(0, 0.0, v)] for v in self.VALUES]))

    @pytest.mark.parametrize("predicate", [
        ast.Compare("=", ast.col("s"), ast.lit("a\x00")),
        ast.Compare("=", ast.col("s"), ast.lit("\x00")),
        ast.Compare("<", ast.col("s"), ast.lit("a\x00")),
        ast.Compare(">=", ast.col("s"), ast.lit("a\x00")),
        ast.Compare(">", ast.lit("\x00"), ast.col("s")),
        ast.InList(ast.col("s"), ["a\x00", "zz"]),
        ast.StartsWith(ast.col("s"), "a\x00"),
        ast.StartsWith(ast.col("s"), "\x00"),
    ], ids=lambda p: repr(p.to_sql()))
    def test_kernel_matches_scalar(self, predicate):
        for detect_fm in (True, False):
            assert_scan_set_differential(predicate, self._scan_set(),
                                         detect_fm, "vectorized")

    @pytest.mark.parametrize("value", ["a\x00", "\x00", ""])
    def test_join_and_topk_masks_match_scalar(self, value):
        scan_set = self._scan_set()
        pruner = JoinPruner("s", RangeSetSummary([value]))
        kept = pruner.prune(scan_set).kept.partition_ids
        assert pruner.mode == "vectorized"
        assert kept == [pid for pid, zm in scan_set
                        if pruner.partition_may_join(zm)]
        for desc in (True, False):
            boundary = Boundary(desc=desc)
            boundary.update_value(value)
            topk = TopKPruner("s", boundary)
            skips = [topk.should_skip(zm, pid, scan_set)
                     for pid, zm in scan_set]
            assert topk.fallback_checks == 0
            assert skips == [topk.best_possible_rank(zm) < boundary.rank
                             for _, zm in scan_set]


class TestLikeKernel:
    """LIKE is a kernel leaf transcribing ``ranges._range_like``: an
    exact pattern is ``=``, any other tests its literal prefix and
    proves ALWAYS only as ``prefix%``. Patterns mix ``%``, ``_``, NUL
    and U+10FFFF (the prefix-successor trap) over strings built from
    the same pieces, under NOT / AND / OR, on every kind of scan-set
    row the kernel may or may not vouch for."""

    VALUES = STRINGS + ["a\x00", "\x00", "alp\x00", "al\x00p", _TOP,
                        _TOP + _TOP, _TOP + "a", "a" + _TOP, "alp" + _TOP]

    @classmethod
    def predicates(cls, depth=2):
        like = LIKE_PATTERNS.map(lambda p: ast.Like(ast.col("s"), p))
        leaf = st.one_of(
            like, like,
            _compare("a", st.integers(-60, 60)),
            st.sampled_from(["alp", "a\x00", _TOP, ""]).map(
                lambda p: ast.StartsWith(ast.col("s"), p)),
            st.booleans().map(
                lambda n: ast.IsNull(ast.col("s"), negated=n)))
        if depth == 0:
            return leaf
        sub = cls.predicates(depth - 1)
        return st.one_of(
            leaf,
            st.tuples(sub, sub).map(lambda t: ast.And(t[0], t[1])),
            st.tuples(sub, sub).map(lambda t: ast.Or(t[0], t[1])),
            sub.map(ast.Not))

    @classmethod
    def partitions(cls):
        row = st.tuples(int_values, float_values,
                        st.one_of(st.none(), st.sampled_from(cls.VALUES)))
        return st.lists(st.one_of(
            st.lists(row, min_size=1, max_size=8),
            st.just([]),                                  # empty
            st.just([(None, None, None)] * 3)),           # all-NULL
            min_size=0, max_size=8)

    @staticmethod
    def scan_set(kind, entries, other, draw):
        """A scan set of ``entries`` whose rows the index vouches for
        (``index``, ``hand_built``) or not (``degraded``, ``stale``)."""
        if kind == "index":
            return ScanSet.of_index(StatsIndex(entries))
        if kind == "hand_built":
            return ScanSet(entries)
        lost = draw(st.lists(st.booleans(), min_size=len(entries),
                             max_size=len(entries)))
        if kind == "degraded":
            return ScanSet(
                [(pid, zm.without_stats() if gone else zm)
                 for (pid, zm), gone in zip(entries, lost)],
                degraded_ids=[pid for (pid, _), gone
                              in zip(entries, lost) if gone],
                index=StatsIndex(entries))
        # stale: the index holds another zone map at a lost id, or
        # lacks the id altogether
        snapshot = [(pid, other[i % len(other)] if gone else zm)
                    for i, ((pid, zm), gone)
                    in enumerate(zip(entries, lost))
                    if not (gone and i % 3 == 0)]
        return ScanSet(entries, index=StatsIndex(snapshot))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from(["index", "hand_built", "degraded",
                                 "stale"]),
           detect_fm=st.booleans())
    def test_matches_scalar_pruner(self, data, kind, detect_fm):
        predicate = data.draw(self.predicates())
        entries = make_entries(data.draw(self.partitions()))
        other = [zm for _, zm in make_entries(
            data.draw(self.partitions().filter(bool)))]
        scan_set = self.scan_set(kind, entries, other, data.draw)
        pruner = assert_scan_set_differential(predicate, scan_set,
                                              detect_fm)
        assert pruner.kernel is not None
        if len(scan_set):
            assert pruner.vector_checks == int(
                (scan_set.trusted_rows >= 0).sum())


class TestKernelCompilation:
    def test_compilable_shapes(self):
        for predicate in (
                ast.Compare("<", ast.col("a"), ast.lit(5)),
                ast.Compare(">=", ast.lit(5), ast.col("a")),
                ast.InList(ast.col("s"), ["alpha", "beta"]),
                ast.IsNull(ast.col("v")),
                ast.StartsWith(ast.col("s"), "ab"),
                ast.Not(ast.Compare("=", ast.col("a"), ast.lit(1))),
                ast.And(ast.lit(True),
                        ast.Compare("<>", ast.col("a"), ast.lit(2)))):
            assert compile_pruning_kernel(predicate) is not None, \
                predicate.to_sql()

    #: LIKE transcribes ``ranges._range_like``; ENDSWITH and CONTAINS
    #: are the opaque string leaf
    COMPILED_STRING_SHAPES = [
        ast.Like(ast.col("s"), "a%"),
        ast.Like(ast.col("s"), "%lph%"),
        ast.Like(ast.col("s"), "alpha"),
        ast.Like(ast.col("s"), ""),
        ast.Not(ast.Like(ast.col("s"), "a_c%")),
        ast.EndsWith(ast.col("s"), "ha"),
        ast.Contains(ast.col("s"), "lph"),
    ]

    @pytest.mark.parametrize("predicate", COMPILED_STRING_SHAPES,
                             ids=lambda p: p.to_sql())
    def test_compiled_string_shapes(self, predicate):
        assert compile_pruning_kernel(predicate) is not None

    def test_uncompilable_shapes(self):
        for predicate in (
                ast.Like(ast.FunctionCall("upper", [ast.col("s")]), "A%"),
                ast.Compare("<", ast.col("a"), ast.col("a")),
                ast.Compare("=", ast.col("a"),
                            ast.lit(None, DataType.INTEGER)),
                ast.Compare("=", ast.Arith("+", ast.col("a"),
                                           ast.lit(1)), ast.lit(2)),
                ast.lit(7)):
            assert compile_pruning_kernel(predicate) is None, \
                predicate.to_sql()


class TestIncrementalIndex:
    """The metadata store's incrementally maintained index must equal
    a from-scratch rebuild after arbitrary register/unregister."""

    def _assert_index_fresh(self, store, table):
        index = store.stats_index(table)
        expected = [(pid, zm) for pid, zm in store.iter_table(table)]
        assert list(index.entries()) == expected
        for pid, zm in expected:
            row = index.row_of(pid)
            assert row is not None
            assert index.zone_map_at(row) is zm

    def test_incremental_equals_rebuild(self):
        from repro.storage.metadata_store import MetadataStore

        store = MetadataStore()
        partitions = [MicroPartition.from_rows(
            SCHEMA, [(i, float(i), "x")]) for i in range(20)]
        for p in partitions[:10]:
            store.register("t", p.partition_id, p.zone_map)
        self._assert_index_fresh(store, "t")   # builds the index
        for p in partitions[10:]:
            store.register("t", p.partition_id, p.zone_map)
        for p in partitions[:5]:
            store.unregister("t", p.partition_id)
        self._assert_index_fresh(store, "t")   # applies the delta
        # no deltas pending: same object comes back
        assert store.stats_index("t") is store.stats_index("t")

    def test_dml_candidates_use_the_store_index(self):
        """Tables hold no index of their own: DML candidate pruning
        reads the metadata store's incrementally maintained one, which
        vouches for every in-memory partition across DML."""
        catalog = Catalog(rows_per_partition=4)
        rows = [(i, float(i), STRINGS[i % 3]) for i in range(20)]
        catalog.create_table_from_rows("t", SCHEMA, rows)
        assert not hasattr(catalog.tables["t"], "stats_index")
        index = catalog.metadata.stats_index("t")
        catalog.insert("t", [(99, 99.0, "zz")])
        for sql, affected in (("DELETE FROM t WHERE a >= 99", 1),
                              ("UPDATE t SET v = 0.0 WHERE a < 2", 2),
                              ("DELETE FROM t WHERE a < 2", 2)):
            result = catalog.sql(sql)
            assert result.rows == [(affected,)]
            scan = result.profile.scans[0]
            assert scan.pruning_mode == "vectorized"
            assert scan.filter_result.after == 1
        fresh = catalog.metadata.stats_index("t")
        assert fresh is not index
        assert len(fresh) == len(catalog.tables["t"].partitions)


class TestScanSetTrust:
    """The scan set decides, once, which index rows describe the zone
    maps it holds; every route to an untrusted entry must land on the
    scalar path with verdicts identical to ``FilterPruner``."""

    PREDICATES = [
        ast.Compare(">", ast.col("a"), ast.lit(25)),
        ast.And(ast.Compare("<=", ast.col("v"), ast.lit(30.0)),
                ast.IsNull(ast.col("s"), negated=True)),
        ast.InList(ast.col("a"), [3, 17, 41]),
        ast.Like(ast.col("s"), "alp%"),
    ]

    def _catalog(self):
        catalog = Catalog(rows_per_partition=5)
        rows = [(i, float(i), STRINGS[i % len(STRINGS)])
                for i in range(60)]
        catalog.create_table_from_rows("t", SCHEMA, rows)
        return catalog

    def _degraded(self):
        """Fault-injected metadata: three entries are stats-free
        copies the index row does not describe."""
        catalog = self._catalog()
        injector = install_faults(catalog, FaultInjector(seed=0),
                                  attempts=2)
        lost = catalog.tables["t"].partition_ids[2:5]
        for pid in lost:
            injector.mark_unavailable(METADATA, ("t", pid))
        scan_set = catalog.scan_set("t")
        assert scan_set.degraded_ids == frozenset(lost)
        return scan_set, len(scan_set) - len(lost)

    def _stale(self):
        """The index snapshot predates interleaved DML: rewritten
        partitions have ids it lacks, a re-registered one holds a
        different zone-map object at the same id."""
        catalog = self._catalog()
        index = catalog.metadata.stats_index("t")
        catalog.sql("DELETE FROM t WHERE a = 7")      # rewrites one
        catalog.insert("t", [(100, 100.0, "z")])      # appends one
        pid, zone_map = next(iter(catalog.metadata.iter_table("t")))
        catalog.metadata.register("t", pid, zone_map.without_stats())
        entries = list(catalog.metadata.iter_table("t"))
        return ScanSet(entries, index=index), len(entries) - 3

    def _hand_built(self):
        entries = self._catalog().scan_set("t").entries
        return ScanSet(entries), len(entries)

    @pytest.mark.parametrize(
        "build", ["_degraded", "_stale", "_hand_built"])
    def test_matches_scalar_reference(self, build):
        scan_set, trusted = getattr(self, build)()
        assert int((scan_set.trusted_rows >= 0).sum()) == trusted
        ids = scan_set.partition_ids
        derived = scan_set.restrict(ids[1:-2]).reorder(
            list(reversed(ids[1:-2])))
        # The derivative carries its slice of the trusted rows rather
        # than recomputing them, and they still name the right rows.
        recomputed = ScanSet(derived.entries,
                             index=scan_set.stats_index).trusted_rows
        assert derived.trusted_rows.tolist() == recomputed.tolist()
        assert derived.degraded_ids == \
            scan_set.degraded_ids & set(ids[1:-2])
        for predicate in self.PREDICATES:
            for candidate in (scan_set, derived):
                pruner = assert_scan_set_differential(
                    predicate, candidate)
                assert pruner.kernel is not None
                kernel_served = int(
                    (candidate.trusted_rows >= 0).sum())
                assert pruner.vector_checks == kernel_served
                assert pruner.fallback_checks == \
                    len(candidate) - kernel_served

    def test_catalog_scan_set_trusts_every_entry(self):
        catalog = self._catalog()
        scan_set = catalog.scan_set("t")
        assert scan_set.stats_index is catalog.metadata.stats_index("t")
        assert (scan_set.trusted_rows >= 0).all()


class TestScanSetOrigins:
    """A scan set comes to be two ways: as rows of the metadata
    store's index (``Catalog.scan_set`` without a fault stack, entries
    built on demand) or as fetched entries beside an index snapshot.
    Nothing a caller can observe may tell the two apart."""

    PREDICATES = [
        # compile
        ast.Compare(">", ast.col("a"), ast.lit(40)),
        ast.between(ast.col("a"), ast.lit(18), ast.lit(31)),
        ast.InList(ast.col("a"), [3, 50, 51, None]),
        ast.IsNull(ast.col("v")),
        ast.StartsWith(ast.col("s"), "alp"),
        ast.Or(ast.And(ast.Compare("<", ast.col("a"), ast.lit(12)),
                       ast.Not(ast.IsNull(ast.col("s")))),
               ast.Not(ast.Compare("<=", ast.col("v"), ast.lit(35.0)))),
        ast.Like(ast.col("s"), "%lph%"),
        # do not compile: every entry takes the scalar path
        ast.Compare(">", ast.Arith("+", ast.col("a"), ast.lit(1)),
                    ast.lit(60)),
        # compiles, fails to bind: float literal on the int64 lane
        ast.Compare(">", ast.col("a"), ast.lit(40.5)),
    ]

    def _catalog(self, shuffled):
        rows = [(i if i % 9 else None,
                 float(i % 40) if i % 7 else None,
                 STRINGS[i % len(STRINGS)] if i % 5 else None)
                for i in range(120)]
        if shuffled:
            random.Random(11).shuffle(rows)
        chunks = [rows[i:i + 6] for i in range(0, len(rows), 6)]
        chunks.insert(3, [])                        # empty partitions
        chunks.append([])
        chunks.insert(9, [(None, None, None)] * 4)  # all-NULL partition
        catalog = Catalog(rows_per_partition=6)
        catalog.create_table(Table("t", SCHEMA, [
            MicroPartition.from_rows(SCHEMA, chunk) for chunk in chunks]))
        return catalog

    @staticmethod
    def _both(catalog):
        by_index = catalog.scan_set("t")
        assert by_index._entries is None     # nothing built yet
        fetched = ScanSet(list(catalog.metadata.iter_table("t")),
                          index=catalog.metadata.stats_index("t"))
        return by_index, fetched

    @staticmethod
    def _observe(scan_set):
        return (len(scan_set), scan_set.partition_ids,
                scan_set.total_rows(), scan_set.serialize(),
                scan_set.trusted_rows.tolist(), scan_set.degraded_ids,
                [(pid, id(zm)) for pid, zm in scan_set.entries],
                [pid in scan_set for pid in scan_set.partition_ids],
                [id(scan_set.zone_map(pid))
                 for pid in scan_set.partition_ids])

    @classmethod
    def _result(cls, result):
        return (result.technique, result.before, result.pruned_ids,
                result.fully_matching_ids, result.checks,
                cls._observe(result.kept))

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_same_contents_and_derivations(self, shuffled):
        catalog = self._catalog(shuffled)
        by_index, fetched = self._both(catalog)
        n = len(fetched)
        assert n == 23 and len(by_index) == n
        assert by_index.stats_index is fetched.stats_index
        ids = fetched.partition_ids
        positions = [5, 0, n - 1, 7, 7]
        derive = [
            lambda s: s.take(positions),
            lambda s: s.take([]),
            lambda s: s.restrict(ids[2:9] + [10**9]),
            lambda s: s.reorder(list(reversed(ids[4:15]))),
            lambda s: s.restrict(ids[3:20]).reorder(ids[18:5:-2]).take(
                [0, 2]),
            lambda s: s.with_entries(s.entries[1::3]),
        ]
        # derive before any entry exists, then again after they do
        for _ in range(2):
            for fn in derive:
                assert self._observe(fn(by_index)) == \
                    self._observe(fn(fetched))
            assert self._observe(by_index) == self._observe(fetched)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("predicate", PREDICATES,
                             ids=lambda p: p.to_sql())
    def test_same_pruning(self, shuffled, predicate):
        catalog = self._catalog(shuffled)
        for detect_fm in (True, False):
            outcomes = []
            for scan_set in self._both(catalog):
                pruner = VectorizedFilterPruner(
                    predicate, SCHEMA, detect_fully_matching=detect_fm)
                result = pruner.prune(scan_set)
                limits = []
                for k in (0, 1, 7, 10**6):
                    report = LimitPruner(k).prune(
                        result.kept, result.fully_matching_ids)
                    limits.append((report.outcome,
                                   self._result(report.result)))
                outcomes.append((self._result(result), pruner.checks,
                                 pruner.vector_checks, pruner.mode,
                                 limits))
            assert outcomes[0] == outcomes[1]
            assert_scan_set_differential(
                predicate, catalog.scan_set("t"), detect_fm)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_same_join_and_topk_pruning(self, shuffled):
        catalog = self._catalog(shuffled)
        summaries = [
            ("a", RangeSetSummary([3, 4, 50, 51, 52, 90], max_ranges=2)),
            ("s", RangeSetSummary(["beta", "gamma"])),
            ("a", XorFilter([3, 50, 117])),          # scalar only
            ("a", RangeSetSummary([0.5, 70.25])),    # fails to bind
        ]
        for column, summary in summaries:
            outcomes = []
            for scan_set in self._both(catalog):
                pruner = JoinPruner(column, summary)
                outcomes.append((self._result(pruner.prune(scan_set)),
                                 pruner.checks, pruner.vector_checks,
                                 pruner.mode))
            assert outcomes[0] == outcomes[1], (column, summary)
        for column, desc, value in (("a", True, 60), ("a", False, 20),
                                    ("v", True, 30.0), ("s", False, "b"),
                                    ("a", True, 60.5)):
            outcomes = []
            for scan_set in self._both(catalog):
                ordered = OrderStrategy.FULL_SORT.order(
                    scan_set, column, desc)
                boundary = Boundary(desc=desc)
                boundary.update_value(value)
                pruner = TopKPruner(column, boundary)
                skips = [pruner.should_skip(zone_map, pid, ordered)
                         for pid, zone_map in ordered]
                outcomes.append((self._observe(ordered), skips,
                                 pruner.checks, pruner.skipped,
                                 pruner.vector_checks,
                                 pruner.fallback_checks))
            assert outcomes[0] == outcomes[1], (column, desc, value)

    def test_dml_between_two_fetches(self):
        """An old scan set keeps answering from its own snapshot; a
        new one sees the change."""
        catalog = self._catalog(shuffled=False)
        old_by_index, old_fetched = self._both(catalog)
        old_ids = old_fetched.partition_ids
        new_ids = catalog.insert("t", [(500, 1.0, "zz"), (501, 2.0, None)])
        assert catalog.delete_where(
            "t", ast.Compare("=", ast.col("a"), ast.lit(31))) == 1
        by_index, fetched = self._both(catalog)
        assert by_index.stats_index is not old_by_index.stats_index
        assert set(new_ids) <= set(fetched.partition_ids)
        assert fetched.partition_ids != old_ids
        predicate = ast.Compare(">=", ast.col("a"), ast.lit(31))
        for one, other in ((old_by_index, old_fetched),
                           (by_index, fetched)):
            results = []
            for scan_set in (one, other):
                pruner = VectorizedFilterPruner(predicate, SCHEMA)
                results.append((self._result(pruner.prune(scan_set)),
                                pruner.vector_checks, pruner.mode))
            assert results[0] == results[1]
            assert self._observe(one) == self._observe(other)
        assert old_by_index.partition_ids == old_ids

    def test_an_id_registered_again_after_a_drop_moves_to_the_end(self):
        """``MetadataStore.register`` / ``unregister`` are public: an
        id dropped and registered again between two fetches is listed
        last by ``partitions_of``, and the scan set follows it."""
        catalog = self._catalog(shuffled=False)
        meta = catalog.metadata
        first, second, *_ = meta.partitions_of("t")
        catalog.scan_set("t")                # a snapshot to apply deltas to
        zone_map = meta.get("t", first)
        meta.unregister("t", first)
        meta.register("t", first, zone_map)
        assert meta.partitions_of("t")[-1] == first
        by_index, fetched = self._both(catalog)
        assert by_index.partition_ids == meta.partitions_of("t")
        assert self._observe(by_index) == self._observe(fetched)
        # The same for an id that only ever lived between two fetches,
        # with another registered while it was gone.
        new, newer = 10 ** 9, 10 ** 9 + 1
        meta.register("t", new, zone_map)
        meta.unregister("t", new)
        meta.register("t", newer, meta.get("t", second))
        meta.register("t", new, zone_map)
        assert meta.partitions_of("t")[-2:] == [newer, new]
        by_index, fetched = self._both(catalog)
        assert by_index.partition_ids == meta.partitions_of("t")
        assert self._observe(by_index) == self._observe(fetched)


class TestSurvivorsOnly:
    """The per-partition work of fetching a scan set is gone on the
    no-faults path. Counted, not timed: metadata reads, entries built
    and Python-level calls per statement."""

    NEEDLES = [
        "SELECT count(*) AS c, sum(v) AS s FROM t "
        "WHERE a BETWEEN 1005 AND 1021",
        "SELECT * FROM t WHERE a >= 1005 AND a <= 1021 LIMIT 5",
    ]

    @staticmethod
    def _catalog(partitions):
        catalog = Catalog(rows_per_partition=10)
        catalog.create_table_from_rows(
            "t", SCHEMA, [(i, float(i % 100), STRINGS[i % 3])
                          for i in range(partitions * 10)])
        return catalog

    @staticmethod
    def _count_gets(catalog, monkeypatch):
        calls = []
        get = catalog.metadata.get

        def counting_get(table, partition_id):
            calls.append(partition_id)
            return get(table, partition_id)

        monkeypatch.setattr(catalog.metadata, "get", counting_get)
        return calls

    @pytest.mark.parametrize("sql", NEEDLES)
    def test_no_per_partition_fetch_and_same_charges(self, sql,
                                                     monkeypatch):
        n = 300
        catalog = self._catalog(n)
        gets = self._count_gets(catalog, monkeypatch)
        built = []
        zone_map_at = StatsIndex.zone_map_at
        monkeypatch.setattr(
            StatsIndex, "zone_map_at",
            lambda index, row: built.append(row) or zone_map_at(index,
                                                                 row))
        lookups = catalog.metadata.lookups
        result = catalog.sql(sql)
        scan = result.profile.scans[0]
        assert scan.total_partitions == n
        assert 0 < scan.filter_result.after <= 3
        assert gets == []
        assert catalog.metadata.lookups - lookups == n
        assert len(built) == len(set(built)) <= scan.filter_result.after
        cost = catalog.storage.cost_model
        limit_checks = scan.filter_result.after if "LIMIT" in sql else 0
        assert result.profile.compile_ms == pytest.approx(
            cost.parse_cost_ms + len(SCHEMA) * cost.bind_column_cost_ms
            + n * (cost.metadata_lookup_ms
                   + cost.vectorized_prune_check_ms)
            + limit_checks * cost.prune_check_ms)

    @pytest.mark.no_verdict_audit
    @pytest.mark.parametrize("sql", NEEDLES)
    def test_python_calls_do_not_grow_with_partitions(self, sql):
        def calls_at(partitions):
            catalog = self._catalog(partitions)
            catalog.sql(sql.replace("1005", "5").replace("1021", "21"))
            count = 0

            def on_event(frame, event, arg):
                nonlocal count
                count += event == "call"

            previous = sys.getprofile()
            sys.setprofile(on_event)
            try:
                catalog.sql(sql)
            finally:
                sys.setprofile(previous)
            return count

        assert calls_at(4000) <= 1.1 * calls_at(400)

    def test_fault_stack_still_reads_every_partition(self, monkeypatch):
        n = 40
        catalog = self._catalog(n)
        injector = install_faults(catalog, FaultInjector(seed=3),
                                  attempts=2)
        ids = catalog.tables["t"].partition_ids
        lost = ids[4:7]
        for pid in lost:
            injector.mark_unavailable(METADATA, ("t", pid))
        gets = self._count_gets(catalog, monkeypatch)
        lookups = catalog.metadata.lookups
        result = catalog.sql(
            "SELECT count(*) AS c FROM t WHERE a BETWEEN 105 AND 121")
        assert gets == ids
        assert catalog.metadata.lookups - lookups == n - len(lost)
        scan = result.profile.scans[0]
        assert scan.degraded_partitions == len(lost)
        assert set(lost) <= set(scan.filter_result.kept.partition_ids)
        assert result.rows == [(17,)]


class TestNoPerPartitionObjects:
    """Turning the kernel's verdict codes into a result is array
    passes: C-level calls such as ``list.append`` are counted too, not
    only the Python-level calls ``TestSurvivorsOnly`` counts."""

    @pytest.mark.no_verdict_audit
    @pytest.mark.parametrize("sql", TestSurvivorsOnly.NEEDLES)
    def test_c_calls_do_not_grow_with_partitions(self, sql):
        def calls_at(partitions):
            catalog = TestSurvivorsOnly._catalog(partitions)
            catalog.sql(sql.replace("1005", "5").replace("1021", "21"))
            counts = {"call": 0, "c_call": 0}

            def on_event(frame, event, arg):
                if event in counts:
                    counts[event] += 1

            previous = sys.getprofile()
            sys.setprofile(on_event)
            try:
                catalog.sql(sql)
            finally:
                sys.setprofile(previous)
            return counts

        small, large = calls_at(400), calls_at(4000)
        assert large["c_call"] <= 1.1 * small["c_call"], (small, large)
        assert large["call"] <= 1.1 * small["call"], (small, large)


class TestResultCacheHitCalls:
    """A ``QueryService`` result-cache hit is one token pass and
    dictionary lookups: no parse, no plan, no compile. Its Python-level
    calls are pinned with the same margin of 32 (30 for these needles
    since the service runs one statement under one lock; 68 while
    each hit built a query handle, 430 and 342 while every hit still
    parsed)."""

    BUDGET = 62

    @pytest.mark.parametrize("sql", TestSurvivorsOnly.NEEDLES)
    def test_python_calls_per_hit(self, sql):
        service = QueryService(TestSurvivorsOnly._catalog(400))
        expected = service.sql(sql).rows
        count = 0

        def on_event(frame, event, arg):
            nonlocal count
            count += event == "call"

        previous = sys.getprofile()
        sys.setprofile(on_event)
        try:
            result = service.sql(sql)
        finally:
            sys.setprofile(previous)
        assert result.rows == expected
        assert service.metrics.counter("result_cache_hits").value == 1
        assert count <= self.BUDGET, count


class TestBuildAllocations:
    """A build allocates lanes, not objects: per partition, its three
    columns, their dict, the partition and its zone-map view stay
    alive, and no ``ColumnStats`` until something reads one."""

    SCHEMA = Schema.of(a=DataType.INTEGER, v=DataType.DOUBLE,
                       s=DataType.VARCHAR)

    def alive_after_build(self, partitions):
        n = partitions * 10
        columns = {
            "a": Column.from_numpy(DataType.INTEGER, np.arange(n)),
            "v": Column.from_numpy(DataType.DOUBLE, np.arange(n) / 7),
            "s": Column.from_pylist(DataType.VARCHAR,
                                    [STRINGS[i % 3] for i in range(n)])}
        gc.collect()
        before = len(gc.get_objects())
        table = build_table_from_columns("t", self.SCHEMA, columns, 10)
        gc.collect()
        alive = len(gc.get_objects()) - before
        assert table.num_partitions == partitions
        return alive

    def test_at_most_six_tracked_objects_per_partition(self):
        self.alive_after_build(20)  # first-call caches
        for partitions in (400, 4000):
            assert self.alive_after_build(partitions) <= 6 * partitions + 20

    def test_needle_warm_up_materialises_no_column_stats(self):
        def column_stats():
            return sum(isinstance(o, ColumnStats) for o in gc.get_objects())

        gc.collect()
        before = column_stats()
        catalog = TestSurvivorsOnly._catalog(400)
        catalog.metadata.stats_index("t")
        for sql in TestSurvivorsOnly.NEEDLES:
            assert catalog.sql(sql).rows
        gc.collect()
        assert column_stats() == before


class TestCatalogIntegration:
    def _catalog(self, **kwargs):
        catalog = Catalog(rows_per_partition=10, **kwargs)
        rng = random.Random(3)
        rows = [(i, rng.uniform(0, 100), STRINGS[i % len(STRINGS)])
                for i in range(400)]
        catalog.create_table_from_rows("t", SCHEMA, rows)
        return catalog

    QUERIES = [
        "SELECT * FROM t WHERE a > 100 AND a < 220",
        "SELECT * FROM t WHERE v <= 12.5 OR s = 'alpha'",
        "SELECT count(*) FROM t WHERE s IN ('beta', 'gamma')",
        "SELECT * FROM t WHERE s LIKE 'alp%'",
        "SELECT * FROM t WHERE a IS NOT NULL AND v > 90.0",
    ]

    def test_compiled_pruning_matches_scalar_reference(self):
        """What the compiler prunes through the scan-set-carried index
        is what the scalar ``FilterPruner`` decides entry by entry:
        same kept and fully-matching partitions, same check count —
        and the rows are those of a run with filter pruning off."""
        catalog = self._catalog()
        for sql in self.QUERIES:
            got = catalog.sql(sql)
            unpruned = catalog.sql(sql, CompilerOptions(
                enable_filter_pruning=False))
            assert got.rows == unpruned.rows, sql
            predicate = simplify(parse_select(sql).where, SCHEMA)
            want = FilterPruner(predicate, SCHEMA).prune(
                ScanSet(catalog.scan_set("t").entries))
            scan = got.profile.scans[0]
            assert scan.filter_result.kept.partition_ids == \
                want.kept.partition_ids, sql
            assert scan.filter_result.pruned_ids == want.pruned_ids, sql
            assert scan.fully_matching_ids == \
                want.fully_matching_ids, sql
            assert scan.filter_result.checks == want.checks, sql

    def test_pruning_mode_surfaces_in_profile_and_explain(self):
        catalog = self._catalog()
        result = catalog.sql("SELECT * FROM t WHERE a > 350")
        scan = result.profile.scans[0]
        assert scan.pruning_mode == "vectorized"
        assert scan.pruning_ms >= 0.0
        assert result.profile.metrics_export()[
            "scans_vectorized"] == 1.0
        explain = catalog.explain("SELECT * FROM t WHERE a > 350")
        assert "pruning: vectorized" in explain
        like = catalog.sql("SELECT * FROM t WHERE s LIKE 'x%'")
        assert like.profile.scans[0].pruning_mode == "vectorized"
        arith = catalog.sql("SELECT * FROM t WHERE a + 1 = 2")
        assert arith.profile.scans[0].pruning_mode == "fallback"
        assert "pruning: fallback" in catalog.explain(
            "SELECT * FROM t WHERE a + 1 = 2")
