"""Tests for chunks and physical operators."""

import numpy as np
import pytest

from repro.engine.chunk import Chunk
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.engine.operators import (
    AggSpec,
    ChunkSource,
    EmptyOperator,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    Project,
    Scan,
    Sort,
    SortKey,
    TopK,
)
from repro.errors import PlanError, SchemaError
from repro.expr.ast import Arith, Compare, col, lit
from repro.pruning.base import ScanSet
from repro.pruning.topk_pruning import Boundary, TopKPruner
from repro.storage.builder import build_table
from repro.storage.storage_layer import StorageLayer
from repro.types import DataType, Schema

SCHEMA = Schema.of(x=DataType.INTEGER, s=DataType.VARCHAR)


def make_chunk(rows, schema=SCHEMA):
    return Chunk.from_rows(schema, rows)


def make_storage(n_rows=100, rows_per_partition=10):
    table = build_table("t", SCHEMA,
                        [(i, f"s{i}") for i in range(n_rows)],
                        rows_per_partition=rows_per_partition)
    storage = StorageLayer()
    storage.put_all(table.partitions)
    scan_set = ScanSet((p.partition_id, p.zone_map)
                       for p in table.partitions)
    return storage, scan_set


class TestChunk:
    def test_from_rows_roundtrip(self):
        chunk = make_chunk([(1, "a"), (2, "b")])
        assert chunk.to_rows() == [(1, "a"), (2, "b")]
        assert chunk.num_rows == 2

    def test_filter_take_slice(self):
        chunk = make_chunk([(i, f"s{i}") for i in range(5)])
        assert chunk.filter(np.array([True] * 2 + [False] * 3)) \
            .to_rows() == [(0, "s0"), (1, "s1")]
        assert chunk.take(np.array([4, 0])).to_rows() == \
            [(4, "s4"), (0, "s0")]
        assert chunk.slice(1, 3).to_rows() == [(1, "s1"), (2, "s2")]

    def test_select(self):
        chunk = make_chunk([(1, "a")])
        assert chunk.select(["s"]).to_rows() == [("a",)]

    def test_concat(self):
        a = make_chunk([(1, "a")])
        b = make_chunk([(2, "b")])
        assert Chunk.concat(SCHEMA, [a, b]).num_rows == 2
        assert Chunk.concat(SCHEMA, []).num_rows == 0

    def test_schema_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Chunk(SCHEMA, {})

    def test_row_at(self):
        chunk = make_chunk([(1, "a"), (2, None)])
        assert chunk.row_at(1) == (2, None)


class TestScan:
    def test_loads_all_partitions(self):
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        scan = Scan(ctx, "t", SCHEMA, scan_set)
        result = execute(scan, ctx)
        assert result.num_rows == 100
        assert ctx.profile.scans[0].partitions_loaded == 10
        assert not ctx.profile.scans[0].early_terminated

    def test_column_projection(self):
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        scan = Scan(ctx, "t", SCHEMA, scan_set, columns=["x"])
        chunks = list(scan)
        assert chunks[0].schema.names() == ["x"]

    def test_topk_pruner_skips(self):
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        scan = Scan(ctx, "t", SCHEMA, scan_set)
        boundary = Boundary(desc=True)
        boundary.update_value(95)
        scan.attach_topk_pruner(TopKPruner("x", boundary))
        result = execute(scan, ctx)
        assert result.num_rows == 10  # only the last partition
        assert ctx.profile.scans[0].topk_skipped == 9

    def test_source_partition_provenance(self):
        """A batch names every partition it holds, in row order, with
        its row count; a streaming scan's chunk is a run of one."""
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        (batch,) = list(Scan(ctx, "t", SCHEMA, scan_set))
        assert batch.runs == tuple((pid, 10)
                                   for pid in scan_set.partition_ids)
        assert [r[0] for r in batch.to_rows()] == list(range(100))
        scan = Scan(ExecContext(storage), "t", SCHEMA, scan_set)
        scan.limited = True
        assert [c.runs for c in scan] == \
            [((pid, 10),) for pid in scan_set.partition_ids]


class TestFilterProject:
    def test_filter(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk(
            [(i, f"s{i}") for i in range(10)])])
        op = Filter(ctx, source, Compare(">=", col("x"), lit(7)))
        assert execute(op, ctx).rows == [(7, "s7"), (8, "s8"),
                                         (9, "s9")]

    def test_filter_tracks_matching_partitions(self):
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        scan = Scan(ctx, "t", SCHEMA, scan_set)
        op = Filter(ctx, scan, Compare(">=", col("x"), lit(95)))
        execute(op, ctx)
        assert op.partitions_with_matches == \
            {scan_set.partition_ids[-1]}

    def test_project(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk([(3, "a")])])
        op = Project(ctx, source, [Arith("*", col("x"), lit(2))],
                     ["doubled"])
        result = execute(op, ctx)
        assert result.schema.names() == ["doubled"]
        assert result.rows == [(6,)]

    def test_project_length_mismatch(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [])
        with pytest.raises(PlanError):
            Project(ctx, source, [col("x")], ["a", "b"])


class TestLimit:
    def test_limit_slices(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [
            make_chunk([(i, "s") for i in range(5)]),
            make_chunk([(i, "s") for i in range(5, 10)]),
        ])
        result = execute(Limit(ctx, source, 7), ctx)
        assert [r[0] for r in result.rows] == list(range(7))

    def test_limit_zero(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk([(1, "s")])])
        assert execute(Limit(ctx, source, 0), ctx).rows == []

    def test_offset(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk(
            [(i, "s") for i in range(10)])])
        result = execute(Limit(ctx, source, 3, offset=4), ctx)
        assert [r[0] for r in result.rows] == [4, 5, 6]

    def test_early_termination_stops_scan(self):
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        scan = Scan(ctx, "t", SCHEMA, scan_set)
        execute(Limit(ctx, scan, 5), ctx)
        assert ctx.profile.scans[0].partitions_loaded == 1
        assert ctx.profile.scans[0].early_terminated

    def test_negative_rejected(self):
        ctx = ExecContext(StorageLayer())
        with pytest.raises(PlanError):
            Limit(ctx, ChunkSource(SCHEMA, []), -1)


class TestSortTopK:
    def rows(self):
        return [(i * 7 % 10, f"s{i}") for i in range(10)]

    def test_sort_desc(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk(self.rows())])
        result = execute(Sort(ctx, source, [SortKey("x", True)]), ctx)
        xs = [r[0] for r in result.rows]
        assert xs == sorted(xs, reverse=True)

    def test_sort_nulls_last(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk(
            [(None, "a"), (1, "b"), (None, "c"), (5, "d")])])
        result = execute(Sort(ctx, source, [SortKey("x", False)]), ctx)
        assert [r[0] for r in result.rows] == [1, 5, None, None]

    def test_sort_multi_key(self):
        schema = Schema.of(a=DataType.INTEGER, b=DataType.INTEGER)
        rows = [(1, 2), (0, 9), (1, 1), (0, 3)]
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(schema, [Chunk.from_rows(schema, rows)])
        result = execute(
            Sort(ctx, source, [SortKey("a", False), SortKey("b", True)]),
            ctx)
        assert result.rows == [(0, 9), (0, 3), (1, 2), (1, 1)]

    def test_topk_matches_sort_limit(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk(self.rows())])
        topk = execute(TopK(ctx, source, "x", 3, desc=True), ctx).rows
        ctx2 = ExecContext(StorageLayer())
        source2 = ChunkSource(SCHEMA, [make_chunk(self.rows())])
        reference = execute(
            Limit(ctx2, Sort(ctx2, source2, [SortKey("x", True)]), 3),
            ctx2).rows
        assert [r[0] for r in topk] == [r[0] for r in reference]

    def test_topk_updates_boundary(self):
        ctx = ExecContext(StorageLayer())
        boundary = Boundary(desc=True)
        source = ChunkSource(SCHEMA, [make_chunk(self.rows())])
        execute(TopK(ctx, source, "x", 3, desc=True,
                     boundary=boundary), ctx)
        assert boundary.is_active

    def test_topk_offset(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk(
            [(i, "s") for i in range(10)])])
        result = execute(TopK(ctx, source, "x", 3, desc=True,
                              offset=2), ctx)
        assert [r[0] for r in result.rows] == [7, 6, 5]

    def test_topk_fewer_rows_than_k(self):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [make_chunk([(1, "a")])])
        result = execute(TopK(ctx, source, "x", 5, desc=True), ctx)
        assert result.num_rows == 1


class TestHashJoin:
    LEFT = Schema.of(k=DataType.INTEGER, a=DataType.VARCHAR)
    RIGHT = Schema.of(rk=DataType.INTEGER, b=DataType.VARCHAR)

    def join(self, left_rows, right_rows, join_type="inner"):
        ctx = ExecContext(StorageLayer())
        left = ChunkSource(self.LEFT,
                           [Chunk.from_rows(self.LEFT, left_rows)])
        right = ChunkSource(self.RIGHT,
                            [Chunk.from_rows(self.RIGHT, right_rows)])
        op = HashJoin(ctx, left, right, probe_key="k", build_key="rk",
                      join_type=join_type)
        return execute(op, ctx).rows

    def test_inner_join(self):
        rows = self.join([(1, "a"), (2, "b")], [(2, "x"), (3, "y")])
        assert rows == [(2, "b", 2, "x")]

    def test_duplicate_build_keys(self):
        rows = self.join([(1, "a")], [(1, "x"), (1, "y")])
        assert len(rows) == 2

    def test_null_keys_never_match(self):
        rows = self.join([(None, "a"), (1, "b")],
                         [(None, "x"), (1, "y")])
        assert rows == [(1, "b", 1, "y")]

    def test_left_outer_preserves_probe(self):
        rows = self.join([(1, "a"), (2, "b")], [(2, "x")],
                         join_type="left_outer")
        assert (2, "b", 2, "x") in rows
        assert (1, "a", None, None) in rows

    def test_left_outer_null_key_preserved(self):
        rows = self.join([(None, "a")], [(1, "x")],
                         join_type="left_outer")
        assert rows == [(None, "a", None, None)]

    def test_probe_side_pruning(self):
        storage, scan_set = make_storage()  # x: 0..99 sorted
        ctx = ExecContext(storage)
        probe = Scan(ctx, "t", SCHEMA, scan_set)
        build = ChunkSource(self.RIGHT,
                            [Chunk.from_rows(self.RIGHT,
                                             [(5, "x"), (97, "y")])])
        op = HashJoin(ctx, probe, build, probe_key="x", build_key="rk",
                      probe_scan=probe, probe_scan_column="x")
        result = execute(op, ctx)
        assert len(result.rows) == 2
        assert ctx.profile.scans[0].join_result.after == 2
        assert ctx.profile.scans[0].partitions_loaded == 2

    def test_left_outer_does_not_prune_probe(self):
        storage, scan_set = make_storage()
        ctx = ExecContext(storage)
        probe = Scan(ctx, "t", SCHEMA, scan_set)
        build = ChunkSource(self.RIGHT,
                            [Chunk.from_rows(self.RIGHT, [(5, "x")])])
        op = HashJoin(ctx, probe, build, probe_key="x", build_key="rk",
                      join_type="left_outer", probe_scan=probe,
                      probe_scan_column="x")
        result = execute(op, ctx)
        assert len(result.rows) == 100  # all probe rows preserved
        assert ctx.profile.scans[0].join_result is None

    def test_mostly_unmatched_probe_returns_exactly_the_matches(self):
        left_rows = [(i % 50, f"a{i}") for i in range(100)]
        right_rows = [(7, "x"), (31, "y"), (7, "z"), (99, "w")]
        rows = self.join(left_rows, right_rows)
        assert rows == [(7, "a7", 7, "x"), (7, "a7", 7, "z"),
                        (31, "a31", 31, "y"),
                        (7, "a57", 7, "x"), (7, "a57", 7, "z"),
                        (31, "a81", 31, "y")]

    def test_invalid_join_type(self):
        ctx = ExecContext(StorageLayer())
        left = ChunkSource(self.LEFT, [])
        right = ChunkSource(self.RIGHT, [])
        with pytest.raises(PlanError):
            HashJoin(ctx, left, right, "k", "rk", join_type="full")


class TestHashAggregate:
    SCHEMA = Schema.of(g=DataType.VARCHAR, v=DataType.INTEGER)

    def aggregate(self, rows, group_keys, aggs):
        ctx = ExecContext(StorageLayer())
        source = ChunkSource(self.SCHEMA,
                             [Chunk.from_rows(self.SCHEMA, rows)])
        op = HashAggregate(ctx, source, group_keys, aggs)
        return execute(op, ctx)

    def test_count_sum_min_max_avg(self):
        rows = [("a", 1), ("a", 3), ("b", 5), ("a", None)]
        result = self.aggregate(rows, ["g"], [
            AggSpec("count_star", None, "n"),
            AggSpec("count", "v", "c"),
            AggSpec("sum", "v", "s"),
            AggSpec("min", "v", "lo"),
            AggSpec("max", "v", "hi"),
            AggSpec("avg", "v", "mean"),
        ])
        by_group = {row[0]: row[1:] for row in result.rows}
        assert by_group["a"] == (3, 2, 4, 1, 3, 2.0)
        assert by_group["b"] == (1, 1, 5, 5, 5, 5.0)

    def test_global_aggregate_no_keys(self):
        result = self.aggregate([("a", 1), ("b", 2)], [], [
            AggSpec("count_star", None, "n")])
        assert result.rows == [(2,)]

    def test_empty_group_aggregates_none(self):
        rows = [("a", None)]
        result = self.aggregate(rows, ["g"], [
            AggSpec("sum", "v", "s"), AggSpec("avg", "v", "m")])
        assert result.rows == [("a", None, None)]

    def test_output_schema(self):
        result = self.aggregate([("a", 1)], ["g"], [
            AggSpec("avg", "v", "m")])
        assert result.schema.dtype_of("m") == DataType.DOUBLE


class TestEmptyOperator:
    def test_produces_nothing(self):
        ctx = ExecContext(StorageLayer())
        assert execute(EmptyOperator(SCHEMA), ctx).rows == []
