"""The columnar blocking operators against the row loops they replaced.

``HashAggregate``, ``HashJoin``, ``Sort`` and ``TopK`` used to visit
rows one at a time (``value_at`` / ``row_at`` per row). Those loops live
here, verbatim, as reference operators; hypothesis drives both through
``ChunkSource`` and demands the same rows in the same order, the same
top-k boundary after every chunk, and — end to end on clustered tables
— the same partitions loaded, boundary checks, skips and simulated
clock.

Where the row loops' answer was an accident of Python object identity
(every NaN its own dict key, NaN rank tuples comparing unordered), the
columnar operators take SQL's answer instead; those cases are pinned
explicitly at the bottom and kept out of the differential.
"""

from __future__ import annotations

import datetime
import heapq
import math
from pathlib import Path
from typing import Any, Iterator
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import Catalog, Layout
from repro.engine import kernels, operators
from repro.engine.chunk import Chunk
from repro.engine.context import ExecContext
from repro.engine.executor import execute
from repro.engine.operators import (
    AggSpec,
    ChunkSource,
    HashAggregate,
    HashJoin,
    Operator,
    Sort,
    SortKey,
    TopK,
    TopKGroupHint,
)
from repro.errors import ExecutionError
from repro.plan import compiler
from repro.pruning.join_pruning import JoinPruner
from repro.pruning.summaries import RangeSetSummary
from repro.pruning.topk_pruning import Boundary, rank_of
from repro.storage.column import Column
from repro.storage.storage_layer import StorageLayer
from repro.types import DataType, Schema


def test_no_row_loop_in_the_operator_sources():
    """A guard, not a proof: the three spellings every row loop in the
    engine used. (They are legitimate here, in the reference below.)"""
    for module in (operators, kernels):
        source = Path(module.__file__).read_text()
        for spelling in ("value_at(", "row_at(", "range(chunk.num_rows)"):
            assert spelling not in source, (module.__name__, spelling)
    assert not hasattr(operators, "_Accumulator")


# ---------------------------------------------------------------------------
# Reference operators: the row loops, as they were before this change
# ---------------------------------------------------------------------------
class _Accumulator:
    """Per-group aggregate state."""

    __slots__ = ("count", "count_star", "total", "lo", "hi")

    def __init__(self):
        self.count = 0
        self.count_star = 0
        self.total = 0
        self.lo = None
        self.hi = None

    def update(self, value: Any) -> None:
        self.count_star += 1
        if value is None:
            return
        self.count += 1
        if isinstance(value, (int, float, np.integer, np.floating)):
            self.total += value
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value

    def result(self, func: str) -> Any:
        if func == "count_star":
            return self.count_star
        if func == "count":
            return self.count
        if func == "sum":
            return self.total if self.count else None
        if func == "min":
            return self.lo
        if func == "max":
            return self.hi
        if func == "avg":
            return self.total / self.count if self.count else None
        raise ExecutionError(f"unknown aggregate {func!r}")


class RowHashAggregate(HashAggregate):
    def __iter__(self) -> Iterator[Chunk]:
        # Each aggregate tracks its own accumulator per group.
        groups: dict[tuple, list[_Accumulator]] = {}
        if not self.group_keys:
            # SQL: the global group exists before any row arrives
            groups[()] = [_Accumulator() for _ in self.aggs]
        hint = self.topk_hint
        heap: list[tuple] = []
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            key_columns = [chunk.column(k) for k in self.group_keys]
            agg_columns = [chunk.column(s.input) if s.input else None
                           for s in self.aggs]
            for i in range(chunk.num_rows):
                key = tuple(c.value_at(i) for c in key_columns)
                state = groups.get(key)
                if state is None:
                    state = [_Accumulator() for _ in self.aggs]
                    groups[key] = state
                    if hint is not None:
                        self._update_hint(heap, key, hint)
                for spec_index, column in enumerate(agg_columns):
                    value = (column.value_at(i)
                             if column is not None else 0)
                    state[spec_index].update(value)
        yield self._materialize(groups)

    def _update_hint(self, heap: list[tuple], key: tuple,
                     hint: TopKGroupHint) -> None:
        key_value = key[hint.key_index]
        rank = rank_of(key_value, hint.desc)
        heapq.heappush(heap, rank)
        if len(heap) > hint.k:
            heapq.heappop(heap)
        if len(heap) == hint.k:
            hint.boundary.update(heap[0])

    def _materialize(self, groups: dict) -> Chunk:
        rows = []
        for key, state in groups.items():
            rows.append(tuple(key) + tuple(
                acc.result(spec.func)
                for spec, acc in zip(self.aggs, state)))
        return Chunk.from_rows(self.schema, rows)


class RowHashJoin(HashJoin):
    """The dict-of-lists join (less its row-level Bloom probe, which
    only ever skipped a dict lookup)."""

    def __iter__(self) -> Iterator[Chunk]:
        build_chunk, table = self._row_build_phase()
        yield from self._row_probe_phase(build_chunk, table)

    def _row_build_phase(self) -> tuple[Chunk, dict]:
        chunks = list(self.build)
        build_chunk = Chunk.concat(self.build.schema, chunks)
        self.build_rows = build_chunk.num_rows
        self.context.charge_rows(build_chunk.num_rows)
        key_column = build_chunk.column(self.build_key)
        table: dict[Any, list[int]] = {}
        for i in range(len(key_column)):
            if key_column.nulls[i]:
                continue  # NULL keys never join
            table.setdefault(key_column.values[i], []).append(i)
        summary = RangeSetSummary(
            key_column.values[i] for i in range(len(key_column))
            if not key_column.nulls[i])
        self._prune_probe_side(summary)
        return build_chunk, table

    def _prune_probe_side(self, summary) -> None:
        # Probe-side partition pruning is only sound when probe rows
        # are not preserved: a LEFT OUTER probe row must surface even
        # with no partner.
        if self.probe_scan is None or self.join_type != "inner":
            return
        pruner = JoinPruner(self.probe_scan_column, summary)
        self.probe_scan.apply_join_pruning(pruner)

    def _row_probe_phase(self, build_chunk: Chunk,
                         table: dict) -> Iterator[Chunk]:
        build_width = len(self.build.schema)
        for chunk in self.probe:
            self.context.charge_rows(chunk.num_rows)
            key_column = chunk.column(self.probe_key)
            probe_indices: list[int] = []
            build_indices: list[int] = []
            unmatched: list[int] = []
            for i in range(chunk.num_rows):
                if key_column.nulls[i]:
                    if self.join_type == "left_outer":
                        unmatched.append(i)
                    continue
                key = key_column.values[i]
                matches = table.get(key)
                if matches:
                    for j in matches:
                        probe_indices.append(i)
                        build_indices.append(j)
                elif self.join_type == "left_outer":
                    unmatched.append(i)
            yield from self._emit(chunk, build_chunk, probe_indices,
                                  build_indices, unmatched, build_width)

    def _emit(self, probe_chunk: Chunk, build_chunk: Chunk,
              probe_indices: list[int], build_indices: list[int],
              unmatched: list[int], build_width: int) -> Iterator[Chunk]:
        pieces = []
        if probe_indices:
            probe_part = probe_chunk.take(np.asarray(probe_indices))
            build_part = build_chunk.take(np.asarray(build_indices))
            pieces.append(self._row_combine(probe_part, build_part))
        if unmatched:
            probe_part = probe_chunk.take(np.asarray(unmatched))
            null_build = {
                f.name: Column.all_null(f.dtype, len(unmatched))
                for f in self.build.schema
            }
            build_part = Chunk(self.build.schema, null_build)
            pieces.append(self._row_combine(probe_part, build_part))
        for piece in pieces:
            if piece.num_rows:
                yield piece

    def _row_combine(self, probe_part: Chunk, build_part: Chunk) -> Chunk:
        columns = dict(probe_part.columns)
        columns.update(build_part.columns)
        return Chunk(self.schema, columns)


class RowSort(Sort):
    def __iter__(self) -> Iterator[Chunk]:
        chunks = list(self.child)
        merged = Chunk.concat(self.schema, chunks)
        self.context.charge_rows(merged.num_rows)
        columns = [merged.column(k.column) for k in self.keys]

        def row_rank(i: int) -> tuple:
            return tuple(
                rank_of(col.value_at(i), key.desc)
                for col, key in zip(columns, self.keys))

        order = sorted(range(merged.num_rows), key=row_rank, reverse=True)
        yield merged.take(np.asarray(order, dtype=np.int64))


class RowTopK(TopK):
    def __iter__(self) -> Iterator[Chunk]:
        keep = self.k + self.offset
        if keep == 0:
            return
        heap: list[tuple] = []  # (rank_tuple, seq, row, partition_id)
        seq = 0
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            order_cols = [chunk.column(key.column)
                          for key in self.keys]
            source = chunk.runs[0][0] if chunk.runs else None
            for i in range(chunk.num_rows):
                rank = tuple(
                    rank_of(column.value_at(i), key.desc)
                    for column, key in zip(order_cols, self.keys))
                if len(heap) == keep and rank <= heap[0][0]:
                    continue
                seq += 1
                heapq.heappush(heap, (rank, seq, chunk.row_at(i), source))
                if len(heap) > keep:
                    heapq.heappop(heap)
                if len(heap) == keep and self.boundary is not None:
                    # publish only the leading key's component
                    self.boundary.update(heap[0][0][0])
        ordered = sorted(heap, key=lambda e: (e[0], -e[1]), reverse=True)
        self.contributing_partitions = {
            e[3] for e in ordered if e[3] is not None}
        rows = [e[2] for e in ordered[self.offset:]]
        yield Chunk.from_rows(self.schema, rows)


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------
SCHEMA = Schema.of(i=DataType.INTEGER, f=DataType.DOUBLE, s=DataType.VARCHAR,
                   d=DataType.DATE, b=DataType.BOOLEAN, big=DataType.INTEGER)
NAMES = SCHEMA.names()

#: narrow domains, so that groups, ties and join partners are common
_floats = st.sampled_from([-2.5, -0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 1e300])
_dates = st.integers(0, 4).map(
    lambda n: datetime.date(2024, 1, 1) + datetime.timedelta(days=n))


def _nullable(values):
    return st.one_of(st.none(), values)


row_strategy = st.tuples(
    _nullable(st.integers(-3, 3)),
    _nullable(_floats),
    _nullable(st.sampled_from(["", "a", "b", "ab", "B", "\x00", "é"])),
    _nullable(_dates),
    _nullable(st.booleans()),
    # sums of these pass 2**53, where float64 weights lose the units
    _nullable(st.integers(2 ** 53 - 2, 2 ** 53 + 5)),
)
rows_strategy = st.lists(row_strategy, max_size=40)
cuts_strategy = st.lists(st.integers(1, 6), max_size=40)


def to_chunks(schema: Schema, rows: list[tuple], cuts: list[int],
              partitions: bool = False) -> list[Chunk]:
    """``rows`` cut into chunks of the given sizes (many of one row),
    the rest in one last chunk; optionally tagged as partitions."""
    chunks, start = [], 0
    for size in cuts:
        if start >= len(rows):
            break
        chunks.append(Chunk.from_rows(schema, rows[start:start + size]))
        start += size
    if start < len(rows):
        chunks.append(Chunk.from_rows(schema, rows[start:]))
    if partitions:
        for number, chunk in enumerate(chunks):
            chunk.runs = ((100 + number // 2, chunk.num_rows),)
    return chunks


class SpyingSource(Operator):
    """Yields chunks and notes the boundary each time the consumer
    comes back for more: the values an upstream scan could observe."""

    def __init__(self, schema: Schema, chunks: list[Chunk],
                 boundary: Boundary):
        self.schema = schema
        self.chunks = chunks
        self.boundary = boundary
        self.seen: list[tuple | None] = []

    def __iter__(self) -> Iterator[Chunk]:
        for chunk in self.chunks:
            yield chunk
            self.seen.append(self.boundary.rank)


def run(op: Operator) -> list[tuple]:
    return execute(op, op.context).rows


def context() -> ExecContext:
    return ExecContext(StorageLayer())


# ---------------------------------------------------------------------------
# HashAggregate
# ---------------------------------------------------------------------------
_AGGS = [
    AggSpec("count_star", None, "n"),
    AggSpec("count", "f", "cf"), AggSpec("count", "s", "cs"),
    AggSpec("sum", "i", "si"), AggSpec("sum", "f", "sf"),
    AggSpec("sum", "big", "sbig"),
    AggSpec("avg", "i", "ai"), AggSpec("avg", "f", "af"),
    AggSpec("min", "i", "lo_i"), AggSpec("max", "i", "hi_i"),
    AggSpec("min", "s", "lo_s"), AggSpec("max", "s", "hi_s"),
    AggSpec("min", "d", "lo_d"), AggSpec("max", "d", "hi_d"),
    AggSpec("min", "b", "lo_b"), AggSpec("max", "b", "hi_b"),
    AggSpec("max", "big", "hi_big"),
]
#: min/max over ``f`` would meet -0.0 against 0.0, where "the smaller"
#: is whichever came first in the row loop and whichever numpy's
#: ``minimum`` returns here; equal under ``==``, so still compared.
_AGGS_F = [AggSpec("min", "f", "lo_f"), AggSpec("max", "f", "hi_f")]


@settings(max_examples=150, deadline=None)
@given(rows=rows_strategy, cuts=cuts_strategy,
       keys=st.lists(st.sampled_from(["i", "f", "s", "d", "b"]),
                     max_size=3, unique=True),
       aggs=st.lists(st.sampled_from(_AGGS + _AGGS_F), min_size=1,
                     max_size=6, unique_by=lambda spec: spec.output),
       fold_rows=st.sampled_from([0, 3, 4096]))
def test_aggregate_matches_row_loop(rows, cuts, keys, aggs, fold_rows):
    results = []
    for cls in (RowHashAggregate, HashAggregate):
        source = ChunkSource(SCHEMA, to_chunks(SCHEMA, rows, cuts))
        with mock.patch.object(operators, "_FOLD_ROWS", fold_rows):
            results.append(run(cls(context(), source, keys, aggs)))
    assert results[1] == results[0]
    # integer sums and counts come back as exact Python ints
    for got, want in zip(results[1], results[0]):
        assert [type(v) for v in got] == [type(v) for v in want]


@settings(max_examples=100, deadline=None)
@given(rows=rows_strategy, cuts=cuts_strategy,
       keys=st.lists(st.sampled_from(["i", "f", "s", "d", "b"]),
                     min_size=1, max_size=3, unique=True),
       k=st.integers(1, 5), desc=st.booleans())
def test_aggregate_hint_boundary_after_every_chunk(rows, cuts, keys, k,
                                                   desc):
    """Figure 7d: the boundary an upstream scan would see between
    chunks is the row loop's, chunk for chunk."""
    seen, results = [], []
    for cls in (RowHashAggregate, HashAggregate):
        boundary = Boundary(desc=desc)
        source = SpyingSource(SCHEMA, to_chunks(SCHEMA, rows, cuts),
                              boundary)
        hint = TopKGroupHint(key_index=0, k=k, desc=desc,
                             boundary=boundary)
        op = cls(context(), source, keys,
                 [AggSpec("count_star", None, "n")], topk_hint=hint)
        results.append(run(op))
        seen.append(source.seen)
    assert seen[1] == seen[0]
    assert results[1] == results[0]


def test_aggregate_all_null_group_and_inputs():
    schema = Schema.of(g=DataType.VARCHAR, v=DataType.INTEGER)
    rows = [(None, None), ("a", None), (None, None), ("a", None)]
    source = ChunkSource(schema, to_chunks(schema, rows, [1, 1, 1, 1]))
    op = HashAggregate(context(), source, ["g"], [
        AggSpec("count_star", None, "n"), AggSpec("count", "v", "c"),
        AggSpec("sum", "v", "s"), AggSpec("min", "v", "lo"),
        AggSpec("max", "v", "hi"), AggSpec("avg", "v", "m")])
    assert run(op) == [(None, 2, 0, None, None, None, None),
                       ("a", 2, 0, None, None, None, None)]


def test_integer_sum_past_2_to_53_is_exact():
    schema = Schema.of(g=DataType.INTEGER, v=DataType.INTEGER)
    rows = [(1, 2 ** 53), (1, 1), (1, 1), (2, 2 ** 62), (2, 2 ** 60 + 1)]
    source = ChunkSource(schema, to_chunks(schema, rows, [2, 2]))
    op = HashAggregate(context(), source, ["g"],
                       [AggSpec("sum", "v", "s")])
    assert run(op) == [(1, 2 ** 53 + 2), (2, 2 ** 62 + 2 ** 60 + 1)]
    assert float(2 ** 53) + 1 + 1 != 2 ** 53 + 2   # what float64 loses


def test_float_sum_has_the_bits_of_a_sequential_loop():
    """Partials are folded state-first, so a group's sum is
    ((x0 + x1) + x2) + ... in arrival order whatever the fold size."""
    values = [0.1 * n for n in range(1, 400)]
    schema = Schema.of(g=DataType.INTEGER, v=DataType.DOUBLE)
    rows = [(n % 3, v) for n, v in enumerate(values)]
    want = {}
    for g, v in rows:
        want[g] = want.get(g, 0) + v
    for fold_rows in (0, 7, 4096):
        source = ChunkSource(schema, to_chunks(schema, rows, [5] * 30))
        with mock.patch.object(operators, "_FOLD_ROWS", fold_rows):
            got = run(HashAggregate(context(), source, ["g"],
                                    [AggSpec("sum", "v", "s")]))
        assert dict(got) == want


def test_aggregate_over_no_chunks_is_one_global_row_or_no_groups():
    """SQL: a global aggregate over no rows is one row (COUNT 0, the
    others NULL); GROUP BY over no rows has no groups."""
    aggs = [AggSpec("count_star", None, "n"), AggSpec("count", "f", "cf"),
            AggSpec("sum", "i", "si"), AggSpec("avg", "f", "af"),
            AggSpec("min", "s", "lo_s"), AggSpec("max", "d", "hi_d")]
    for cls in (RowHashAggregate, HashAggregate):
        source = ChunkSource(SCHEMA, [])
        assert run(cls(context(), source, [], aggs)) == [
            (0, 0, None, None, None, None)]
        assert run(cls(context(), source, ["i"], aggs)) == []


# ---------------------------------------------------------------------------
# HashJoin
# ---------------------------------------------------------------------------
#: 2**53 + 1 is no double: promoted to float64 it would equal 2.0**53
_JOIN_KEYS = {
    DataType.INTEGER: st.one_of(
        st.integers(-2, 2), st.sampled_from([2 ** 53, 2 ** 53 + 1])),
    DataType.DOUBLE: st.sampled_from(
        [-2.0, -0.0, 0.0, 1.0, 2.0, 0.5, 2.0 ** 53]),
    DataType.VARCHAR: st.sampled_from(["", "a", "b", "ab"]),
    DataType.DATE: _dates,
    DataType.BOOLEAN: st.booleans(),
}


@st.composite
def join_inputs(draw):
    probe_type, build_type = draw(st.sampled_from(
        [(t, t) for t in _JOIN_KEYS]
        + [(DataType.INTEGER, DataType.DOUBLE),
           (DataType.DOUBLE, DataType.INTEGER)]))
    probe_schema = Schema.of(pk=probe_type, p=DataType.INTEGER)
    build_schema = Schema.of(bk=build_type, q=DataType.INTEGER)

    def side(key_type):
        keys = draw(st.lists(_nullable(_JOIN_KEYS[key_type]),
                             max_size=25))
        return [(key, n) for n, key in enumerate(keys)]

    return (probe_schema, side(probe_type), draw(cuts_strategy),
            build_schema, side(build_type), draw(cuts_strategy))


@settings(max_examples=200, deadline=None)
@given(inputs=join_inputs(),
       join_type=st.sampled_from(["inner", "left_outer"]))
def test_join_matches_row_loop(inputs, join_type):
    (probe_schema, probe_rows, probe_cuts,
     build_schema, build_rows, build_cuts) = inputs
    results = []
    for cls in (RowHashJoin, HashJoin):
        probe = ChunkSource(probe_schema,
                            to_chunks(probe_schema, probe_rows, probe_cuts))
        build = ChunkSource(build_schema,
                            to_chunks(build_schema, build_rows, build_cuts))
        op = cls(context(), probe, build, "pk", "bk", join_type=join_type)
        results.append(run(op))
        assert op.build_rows == len(build_rows)
    # probe row order; within one probe row, partners in build order
    assert results[1] == results[0]


@pytest.mark.parametrize("join_type", ["inner", "left_outer"])
def test_integer_keys_match_only_the_doubles_they_equal(join_type):
    """Both ways round: the DOUBLE side is compared as int64, so 2**53 + 1
    and int64's maximum do not meet the doubles they would round to, and
    a fractional, infinite or out-of-range double meets nothing."""
    ints = Schema.of(k=DataType.INTEGER, p=DataType.INTEGER)
    doubles = Schema.of(dk=DataType.DOUBLE, q=DataType.INTEGER)
    int_rows = [(2 ** 53 + 1, 0), (2 ** 53, 1), (3, 2), (None, 3),
                (-2 ** 63, 4), (2 ** 63 - 1, 5), (0, 6)]
    double_rows = [(2.0 ** 53, 10), (3.0, 11), (3.5, 12), (NAN, 13),
                   (math.inf, 14), (-2.0 ** 63, 15), (2.0 ** 63, 16),
                   (None, 17), (-0.0, 18), (1e300, 19)]
    sides = [(ints, int_rows, "k"), (doubles, double_rows, "dk")]
    for flipped in (False, True):
        (p_schema, p_rows, p_key), (b_schema, b_rows, b_key) = \
            sides[::-1] if flipped else sides
        results = []
        for cls in (RowHashJoin, HashJoin):
            probe = ChunkSource(p_schema, to_chunks(p_schema, p_rows, [3]))
            build = ChunkSource(b_schema, to_chunks(b_schema, b_rows, [4]))
            results.append(run(cls(context(), probe, build, p_key, b_key,
                                   join_type=join_type)))
        assert repr(results[1]) == repr(results[0])     # NaN != NaN
        matched = {(r[3], r[1]) if flipped else (r[1], r[3])
                   for r in results[1] if r[3] is not None}
        assert matched == {(1, 10), (2, 11), (4, 15), (6, 18)}


# ---------------------------------------------------------------------------
# Sort and TopK
# ---------------------------------------------------------------------------
#: no -0.0 / 1e300 subtleties needed here, but ties are: few values
sort_keys_strategy = st.lists(
    st.tuples(st.sampled_from(["i", "f", "s", "d", "b"]), st.booleans()),
    min_size=1, max_size=3, unique_by=lambda key: key[0]).map(
        lambda keys: [SortKey(column, desc) for column, desc in keys])


def numbered(rows: list[tuple]) -> list[tuple]:
    """``big`` replaced by the row number, so that equal sort keys still
    tell which input row came out where."""
    return [row[:5] + (n,) for n, row in enumerate(rows)]


@settings(max_examples=200, deadline=None)
@given(rows=rows_strategy, cuts=cuts_strategy, keys=sort_keys_strategy)
def test_sort_matches_row_loop(rows, cuts, keys):
    results = []
    for cls in (RowSort, Sort):
        source = ChunkSource(SCHEMA, to_chunks(SCHEMA, numbered(rows), cuts))
        results.append(run(cls(context(), source, keys)))
    assert results[1] == results[0]


@settings(max_examples=300, deadline=None)
@given(rows=rows_strategy, cuts=cuts_strategy, keys=sort_keys_strategy,
       k=st.integers(0, 6), offset=st.integers(0, 3))
def test_topk_matches_row_loop(rows, cuts, keys, k, offset):
    """Against the heap: the same sort keys row for row and the same
    boundary after every chunk. Against the row-loop *sort*: the very
    same rows, ``TopK`` being the stable sort's rows ``offset`` to
    ``offset + k``. (The heap let the first seen of two equal rows win
    when the later one arrived at a full heap, but evicted the first
    seen of two equal *worst* rows; which rows tie in is arbitrary in
    SQL, and one rule is simpler than two.)"""
    results, seen = [], []
    for cls in (RowTopK, TopK):
        boundary = Boundary(desc=keys[0].desc)
        chunks = to_chunks(SCHEMA, numbered(rows), cuts, partitions=True)
        source = SpyingSource(SCHEMA, chunks, boundary)
        op = cls(context(), source, keys, k, boundary=boundary,
                 offset=offset)
        results.append(run(op))
        seen.append(source.seen)
    assert seen[1] == seen[0]

    def sort_key_values(result):
        return [[row[NAMES.index(key.column)] for key in keys]
                for row in result]

    assert sort_key_values(results[1]) == sort_key_values(results[0])
    if k + offset:
        kept = run(RowSort(context(), ChunkSource(SCHEMA, chunks),
                           keys))[:offset + k]
        assert results[1] == kept[offset:]
        partition_of = {row[5]: chunk.runs[0][0]
                        for chunk in chunks for row in chunk.to_rows()}
        # the skipped OFFSET rows count: a repeat over these partitions
        # alone must find the same rows to skip
        assert op.contributing_partitions == {
            partition_of[row[5]] for row in kept}
        assert all(type(p) is int for p in op.contributing_partitions)


def test_topk_keeps_a_key_that_ends_in_nul():
    """A full TopK compared the next chunk's leading key with the kept
    worst as a Python str, which numpy made a fixed-width string and
    stripped of its trailing NUL: '\\x00' became '', every '\\x00' of the
    next chunk read as worse, and (s='\\x00', i=0) lost to
    (s='\\x00', i=NULL)."""
    rows = numbered([(None, None, None, None, None, None),
                     (None, None, "\x00", None, None, None),
                     (None, None, None, None, None, None),
                     (0, None, "\x00", None, None, None)])
    keys = [SortKey("s"), SortKey("i")]
    chunks = to_chunks(SCHEMA, rows, [1, 1])
    assert run(TopK(context(), ChunkSource(SCHEMA, chunks), keys, 1)) == \
        [(0, None, "\x00", None, None, 3)]


def test_topk_zero_keeps_nothing_and_reads_nothing():
    source = SpyingSource(SCHEMA, [Chunk.from_rows(SCHEMA, [(None,) * 6])],
                          Boundary())
    assert run(TopK(context(), source, "i", 0)) == []
    assert source.seen == []


# ---------------------------------------------------------------------------
# NaN and -0.0 keys: SQL's answer, not object identity's
# ---------------------------------------------------------------------------
NAN = float("nan")
FLOATS = Schema.of(f=DataType.DOUBLE, n=DataType.INTEGER)


def float_source(values, cuts=(2, 2)) -> ChunkSource:
    rows = [(value, n) for n, value in enumerate(values)]
    return ChunkSource(FLOATS, to_chunks(FLOATS, rows, list(cuts)))


def test_nan_group_keys_are_one_group():
    """The row loop made every NaN a group of its own (a fresh float
    object per row, and NaN != NaN); GROUP BY puts them together."""
    op = HashAggregate(context(), float_source([NAN, 1.0, NAN, None, NAN]),
                       ["f"], [AggSpec("count_star", None, "n"),
                               AggSpec("sum", "n", "s")])
    rows = run(op)
    assert len(rows) == 3
    assert math.isnan(rows[0][0]) and rows[0][1:] == (3, 6)
    assert rows[1:] == [(1.0, 1, 1), (None, 1, 3)]
    reference = RowHashAggregate(
        context(), float_source([NAN, 1.0, NAN, None, NAN]), ["f"],
        [AggSpec("count_star", None, "n")])
    assert len(run(reference)) == 5


def test_nan_is_the_largest_value_to_min_and_max():
    """As in sorts. The row loop kept a NaN only when it was a group's
    first value (every comparison with NaN is false)."""
    schema = Schema.of(g=DataType.INTEGER, f=DataType.DOUBLE)
    rows = [(1, 3.0), (1, NAN), (2, NAN), (2, 3.0), (2, 5.0), (3, NAN),
            (3, None), (3, NAN), (1, 4.0)]
    for fold_rows in (0, 4096):
        source = ChunkSource(schema, to_chunks(schema, rows, [2, 3, 2]))
        with mock.patch.object(operators, "_FOLD_ROWS", fold_rows):
            got = run(HashAggregate(context(), source, ["g"], [
                AggSpec("min", "f", "lo"), AggSpec("max", "f", "hi")]))
        assert [r[1] for r in got[:2]] == [3.0, 3.0]
        assert all(math.isnan(v) for v in (got[0][2], got[1][2], *got[2][1:]))


def test_integer_sum_out_of_int64_raises():
    """The row loop summed in Python ints and failed with OverflowError
    building its output; ``np.add.at`` alone would wrap silently."""
    schema = Schema.of(g=DataType.INTEGER, v=DataType.INTEGER)
    aggs = [AggSpec("sum", "v", "s"), AggSpec("avg", "v", "a")]
    for rows in ([(1, 2 ** 62), (2, 5), (1, 2 ** 62)],
                 [(1, -2 ** 63), (2, 5), (1, -1)]):
        for fold_rows in (0, 4096):
            source = ChunkSource(schema, to_chunks(schema, rows, [2]))
            with mock.patch.object(operators, "_FOLD_ROWS", fold_rows), \
                    pytest.raises(ExecutionError, match="out of range"):
                run(HashAggregate(context(), source, ["g"], aggs))
    # a running total may leave the range as long as the sum comes back
    rows = [(1, 2 ** 62), (1, 2 ** 62), (1, -2 ** 62), (1, 2 ** 63 - 1),
            (1, -2 ** 63)]
    source = ChunkSource(schema, to_chunks(schema, rows, [5]))
    assert run(HashAggregate(context(), source, ["g"], aggs[:1])) == [
        (1, 2 ** 62 - 1)]


def test_negative_zero_group_key_joins_zero():
    op = HashAggregate(context(), float_source([-0.0, 0.0, -0.0]), ["f"],
                       [AggSpec("count_star", None, "n")])
    rows = run(op)
    assert rows == [(0.0, 3)]
    assert math.copysign(1.0, rows[0][0]) == -1.0   # the first seen


@pytest.mark.parametrize("desc", [False, True])
def test_nan_sorts_last_among_values_before_nulls(desc):
    values = [NAN, 2.0, None, -1.0, NAN, 0.0]
    op = Sort(context(), float_source(values), [SortKey("f", desc)])
    rows = run(op)
    finite = sorted([2.0, -1.0, 0.0], reverse=desc)
    assert [r[0] for r in rows[:3]] == finite
    assert [r[1] for r in rows[3:]] == [0, 4, 2]    # NaN, NaN, NULL
    topk = TopK(context(), float_source(values), [SortKey("f", desc)], 4)
    assert [r[1] for r in run(topk)] == [r[1] for r in rows[:4]]


def test_negative_zero_ties_zero_in_sorts():
    op = Sort(context(), float_source([0.0, -0.0, 0.0, -1.0]),
              [SortKey("f", True)])
    assert [r[1] for r in run(op)] == [0, 1, 2, 3]


def test_nan_join_keys_match_nothing_and_zeros_match():
    probe = float_source([NAN, -0.0, 1.0, None])
    build_schema = Schema.of(bf=DataType.DOUBLE, m=DataType.INTEGER)
    build = ChunkSource(build_schema, [Chunk.from_rows(
        build_schema, [(NAN, 10), (0.0, 11), (NAN, 12), (None, 13)])])
    rows = run(HashJoin(context(), probe, build, "f", "bf",
                        join_type="left_outer"))
    assert rows[0] == (-0.0, 1, 0.0, 11)
    assert [r[1:] for r in rows[1:]] == [
        (0, None, None), (2, None, None), (3, None, None)]


# ---------------------------------------------------------------------------
# End to end: same partitions, same boundary checks, same simulated clock
# ---------------------------------------------------------------------------
_REFERENCE = {"HashAggregate": RowHashAggregate, "HashJoin": RowHashJoin,
              "Sort": RowSort, "TopK": RowTopK}

#: the seven statement shapes of the benchmark's ``scan_heavy`` workload,
#: then top-k on the clustering key in both directions and top-k through
#: a GROUP BY (Figure 7d)
_QUERIES = [
    "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
    "sum(l_extendedprice) AS sum_price, max(l_discount) AS max_disc, "
    "count(*) AS n FROM lineitem WHERE l_shipdate <= 560 "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    "SELECT l_orderkey, sum(l_extendedprice) AS revenue FROM lineitem "
    "JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate < 560 "
    "AND l_shipdate > 60 GROUP BY l_orderkey "
    "ORDER BY revenue DESC LIMIT 10",
    "SELECT l_shipmode, count(*) AS n, min(o_totalprice) AS cheapest "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "WHERE l_shipmode IN ('FOB', 'MAIL') AND l_shipdate >= 60 "
    "AND l_shipdate < 400 GROUP BY l_shipmode ORDER BY l_shipmode",
    "SELECT l_id, l_extendedprice FROM lineitem WHERE l_quantity >= 44 "
    "ORDER BY l_extendedprice DESC, l_id",
    "SELECT l_id, l_extendedprice, o_orderpriority FROM lineitem "
    "JOIN orders ON l_orderkey = o_orderkey "
    "WHERE o_orderpriority = '3-MEDIUM' "
    "ORDER BY l_extendedprice DESC LIMIT 10",
    "SELECT * FROM lineitem WHERE l_discount >= 7 LIMIT 20",
    "SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS total "
    "FROM orders JOIN customer ON o_custkey = c_custkey "
    "WHERE o_orderdate >= 60 GROUP BY c_mktsegment ORDER BY c_mktsegment",
    "SELECT l_id, l_shipdate FROM lineitem ORDER BY l_shipdate DESC, "
    "l_id LIMIT 7",
    "SELECT l_id, l_shipdate FROM lineitem WHERE l_quantity > 10 "
    "ORDER BY l_shipdate LIMIT 5 OFFSET 3",
    # l_orderkey follows l_shipdate loosely: several partitions compete
    "SELECT l_orderkey, count(*) AS n, sum(l_quantity) AS q FROM lineitem "
    "GROUP BY l_orderkey ORDER BY l_orderkey DESC LIMIT 6",
    "SELECT l_orderkey, l_returnflag, count(*) AS n FROM lineitem "
    "GROUP BY l_orderkey, l_returnflag ORDER BY l_orderkey LIMIT 4",
]


def star_catalog(scan_parallelism: int = 1) -> Catalog:
    rng = np.random.default_rng(7)
    n_customers, n_orders, n_items = 30, 300, 1500
    segments = ["AUTO", "BUILD", "FURN", "HOUSE", "MACH"]
    priorities = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW", "5-NONE"]
    modes = ["AIR", "FOB", "MAIL", "RAIL", "SHIP"]
    catalog = Catalog(rows_per_partition=50,
                      scan_parallelism=scan_parallelism)
    catalog.create_table_from_rows(
        "customer",
        Schema.of(c_custkey=DataType.INTEGER, c_mktsegment=DataType.VARCHAR),
        [(c, segments[int(rng.integers(5))]) for c in range(n_customers)])
    order_date = np.sort(rng.integers(0, 600, n_orders))
    catalog.create_table_from_rows(
        "orders",
        Schema.of(o_orderkey=DataType.INTEGER, o_custkey=DataType.INTEGER,
                  o_orderdate=DataType.INTEGER,
                  o_orderpriority=DataType.VARCHAR,
                  o_totalprice=DataType.INTEGER),
        [(o, int(rng.integers(n_customers)), int(order_date[o]),
          priorities[int(rng.integers(5))], int(rng.integers(1000, 500000)))
         for o in range(n_orders)],
        layout=Layout.sorted_by("o_orderdate"))
    order_key = rng.integers(0, n_orders, n_items)
    ship_date = order_date[order_key] + rng.integers(1, 60, n_items)
    catalog.create_table_from_rows(
        "lineitem",
        Schema.of(l_id=DataType.INTEGER, l_orderkey=DataType.INTEGER,
                  l_quantity=DataType.INTEGER,
                  l_extendedprice=DataType.INTEGER,
                  l_discount=DataType.INTEGER, l_shipdate=DataType.INTEGER,
                  l_returnflag=DataType.VARCHAR,
                  l_linestatus=DataType.VARCHAR,
                  l_shipmode=DataType.VARCHAR),
        [(n, int(order_key[n]), int(rng.integers(1, 51)),
          int(rng.integers(100, 10_000_000)), int(rng.integers(0, 11)),
          int(ship_date[n]), "ANR"[int(rng.integers(3))],
          "FO"[int(rng.integers(2))], modes[int(rng.integers(5))])
         for n in range(n_items)],
        layout=Layout.sorted_by("l_shipdate"))
    return catalog


def run_all(catalog: Catalog) -> list:
    return [catalog.sql(sql) for sql in _QUERIES]


def reference_results(scan_parallelism: int = 1) -> list:
    with mock.patch.multiple(compiler, **_REFERENCE):
        return run_all(star_catalog(scan_parallelism))


def test_end_to_end_counts_and_simulated_clock_match_row_loops():
    """One boundary per chunk is all a scan can see: it yields one chunk
    per partition and only then asks again. Everything the paper counts
    is therefore unchanged; only ``topk_boundary_updates`` (how many
    times the boundary moved) may fall."""
    pruned_somewhere = 0
    for sql, want, got in zip(_QUERIES, reference_results(),
                              run_all(star_catalog())):
        assert got.rows == want.rows, sql
        ps, pg = want.profile, got.profile
        assert pg.partitions_loaded == ps.partitions_loaded, sql
        assert pg.exec_ms == ps.exec_ms, sql
        assert pg.total_ms == ps.total_ms, sql
        assert len(pg.scans) == len(ps.scans), sql
        for scan_s, scan_g in zip(ps.scans, pg.scans):
            for counter in ("partitions_loaded", "rows_scanned",
                            "bytes_scanned", "topk_checks", "topk_skipped",
                            "early_terminated"):
                assert getattr(scan_g, counter) == \
                    getattr(scan_s, counter), (sql, counter)
            assert (scan_g.join_result is None) == \
                (scan_s.join_result is None), sql
            if scan_s.join_result is not None:
                assert (scan_g.join_result.before,
                        scan_g.join_result.after) == (
                    scan_s.join_result.before,
                    scan_s.join_result.after), sql
            assert scan_g.topk_boundary_updates <= \
                scan_s.topk_boundary_updates, sql
            pruned_somewhere += scan_g.topk_skipped
    assert pruned_somewhere > 0     # the boundary did reach the scans


def test_end_to_end_rows_match_row_loops_under_parallel_scans():
    for sql, want, got in zip(_QUERIES, reference_results(4),
                              run_all(star_catalog(4))):
        assert got.rows == want.rows, sql
