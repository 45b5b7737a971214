"""Property-based tests for auxiliary structures: pruning-tree
equivalence, scan-set serialization, membership filters, string
truncation, and Iceberg hierarchical pruning."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.expr import ast
from repro.expr.eval import evaluate_predicate
from repro.formats import IcebergTable, ParquetFile
from repro.pruning.base import ScanSet
from repro.pruning.filter_pruning import FilterPruner
from repro.pruning.filters import XorFilter
from repro.pruning.pruning_tree import PruningTree, TreeConfig
from repro.pruning.sketches import (
    NGramSketch,
    PartitionSketches,
    _NGramLane,
)
from repro.storage.builder import build_table
from repro.storage.column import Column
from repro.storage.micropartition import MicroPartition
from repro.storage.zonemap import truncate_string_stats
from repro.types import DataType, Schema

from sketch_reference import reference_xor

SCHEMA = Schema.of(a=DataType.INTEGER, b=DataType.INTEGER)


def comparison(column: str, op: str, value: int) -> ast.Compare:
    return ast.Compare(op, ast.col(column), ast.lit(value))


comparisons = st.builds(
    comparison,
    st.sampled_from(["a", "b"]),
    st.sampled_from(["<", "<=", "=", ">", ">=", "<>"]),
    st.integers(-30, 30),
)


def boolean_tree(depth: int = 2):
    if depth == 0:
        return comparisons
    sub = boolean_tree(depth - 1)
    return st.one_of(
        comparisons,
        st.lists(sub, min_size=2, max_size=3).map(ast.And),
        st.lists(sub, min_size=2, max_size=3).map(ast.Or),
    )


rows_strategy = st.lists(
    st.tuples(st.integers(-25, 25), st.integers(-25, 25)),
    min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(predicate=boolean_tree(), rows=rows_strategy,
       reorder=st.booleans(), cutoff=st.booleans())
def test_pruning_tree_never_over_prunes(predicate, rows, reorder,
                                        cutoff):
    """The adaptive tree keeps a superset of the plain pruner's keeps,
    and never drops a partition containing a matching row."""
    table = build_table("t", SCHEMA, rows, rows_per_partition=5)
    scan_set = ScanSet((p.partition_id, p.zone_map)
                       for p in table.partitions)
    config = TreeConfig(enable_reorder=reorder, enable_cutoff=cutoff,
                        reorder_interval=4, cutoff_min_samples=4)
    tree_kept = set(PruningTree(predicate, SCHEMA, config)
                    .prune(scan_set).kept.partition_ids)
    plain_kept = set(FilterPruner(predicate, SCHEMA,
                                  detect_fully_matching=False)
                     .prune(scan_set).kept.partition_ids)
    assert plain_kept <= tree_kept
    for partition in table.partitions:
        mask = evaluate_predicate(predicate, partition.columns(),
                                  SCHEMA)
        if mask.any():
            assert partition.partition_id in tree_kept


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.integers(0, 2**40), unique=True, max_size=64))
def test_scan_set_serialization_roundtrip(ids):
    zone_map = MicroPartition.from_rows(SCHEMA, [(1, 2)]).zone_map
    scan_set = ScanSet((pid, zone_map) for pid in ids)
    data = scan_set.serialize()
    restored = ScanSet.deserialize(data, lambda pid: zone_map)
    assert restored.partition_ids == ids


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.one_of(st.none(),
                                 st.integers(-10**9, 10**9),
                                 st.text(max_size=10),
                                 st.text(min_size=3, max_size=3)),
                       max_size=300),
       filler=st.sampled_from([0, 200, 508, 512, 516, 900]),
       absent=st.lists(st.text(min_size=3, max_size=3), max_size=20))
def test_xor_no_false_negatives_and_lane_agrees(values, filler, absent):
    keys = (values + list(range(2 * 10**9, 2 * 10**9 + filler))
            + values[:5])
    xor = XorFilter(keys)
    assert xor.count == len({k for k in keys if k is not None})
    assert not xor.might_contain(None)
    for key in keys:
        assert key is None or xor.might_contain(key)
    # peeled alone by the reference, the key set gets the same filter
    reference = reference_xor(keys)
    assert (reference.seed, reference.segment) == (xor.seed, xor.segment)
    assert np.array_equal(reference.table, xor.table)
    # a batch of filters gives each the very table it gets alone
    distinct = list(dict.fromkeys(k for k in keys if k is not None))
    half = len(distinct) // 2
    batch = XorFilter.batch(
        distinct, np.arange(len(distinct)),
        (np.arange(len(distinct)) >= half).astype(np.int64), 2)
    for built, part in zip(batch, (distinct[:half], distinct[half:])):
        alone = XorFilter(part)
        assert (built.seed, built.segment) == (alone.seed, alone.segment)
        assert np.array_equal(built.table, alone.table)
    # the vectorized n-gram lane answers as the scalar probe does,
    # for present and absent grams alike
    lane = _NGramLane(
        [(0, PartitionSketches(ngram={"s": NGramSketch(3, xor)}))],
        "s", 3)
    grams = [k for k in keys if isinstance(k, str) and len(k) == 3]
    for gram in grams + absent:
        assert bool(lane.probe((gram,))[0]) == xor.might_contain(gram)


@settings(max_examples=30, deadline=None)
@given(sets=st.lists(st.lists(st.integers(-50, 10**6), max_size=60),
                     min_size=1, max_size=45))
def test_xor_batch_peels_side_by_side_as_alone(sets):
    """A batch peels its filters side by side in numpy steps; each
    still gets the filter the reference peel gives it alone, seed,
    segment and table."""
    keys = sorted({k for keys in sets for k in keys})
    index = {k: i for i, k in enumerate(keys)}
    entries = [(index[k], f) for f, members in enumerate(sets)
               for k in dict.fromkeys(members)]
    key_of, filter_of = (np.array([e[j] for e in entries], dtype=np.int64)
                         for j in (0, 1))
    batch = XorFilter.batch(keys, key_of, filter_of, len(sets))
    for built, members in zip(batch, sets):
        reference = reference_xor(members)
        assert (built.seed, built.segment, built.count) \
            == (reference.seed, reference.segment, reference.count)
        assert np.array_equal(built.table, reference.table)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x10ffff),
    max_size=12), min_size=1, max_size=8),
    max_length=st.integers(1, 6))
def test_string_truncation_preserves_bounds(values, max_length):
    schema = Schema.of(s=DataType.VARCHAR)
    part = MicroPartition.from_rows(schema, [(v,) for v in values])
    stats = part.zone_map.stats("s")
    truncated = truncate_string_stats(stats, max_length)
    for value in values:
        assert truncated.min_value <= value <= truncated.max_value


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-100, 100)),
                     min_size=1, max_size=200),
       lo=st.integers(-120, 120), width=st.integers(0, 60))
def test_iceberg_plan_reads_exactly_matching_rows(rows, lo, width):
    schema = Schema.of(x=DataType.INTEGER)
    file = ParquetFile.write(schema, rows, row_group_rows=32,
                             page_rows=8)
    table = IcebergTable.from_files("t", schema, [file])
    predicate = ast.And(
        ast.Compare(">=", ast.col("x"), ast.lit(lo)),
        ast.Compare("<=", ast.col("x"), ast.lit(lo + width)))
    plan = table.plan_scan(predicate)
    got = sorted(r[0] for r in table.read_plan_rows(plan, predicate))
    expected = sorted(v for (v,) in rows if lo <= v <= lo + width)
    assert got == expected


class _NaiveRangeSet:
    """Linear-scan oracle for RangeSetSummary's bisect probes."""

    def __init__(self, ranges):
        self.ranges = ranges

    def might_overlap_range(self, lo, hi):
        return any(r_lo <= hi and lo <= r_hi
                   for r_lo, r_hi in self.ranges)

    def might_contain(self, value):
        return self.might_overlap_range(value, value)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(-1000, 1000), max_size=120),
       max_ranges=st.integers(1, 12),
       probes=st.lists(st.tuples(st.integers(-1100, 1100),
                                 st.integers(-1100, 1100)),
                       max_size=25))
def test_rangeset_bisect_equals_naive_oracle(values, max_ranges,
                                             probes):
    from repro.pruning.summaries import RangeSetSummary

    summary = RangeSetSummary(values, max_ranges=max_ranges)
    naive = _NaiveRangeSet(summary.ranges)
    for a, b in probes:
        lo, hi = min(a, b), max(a, b)
        assert (summary.might_overlap_range(lo, hi)
                == naive.might_overlap_range(lo, hi)), (lo, hi)
        assert (summary.might_contain(a)
                == naive.might_contain(a)), a
    # values inside the summary are never false negatives
    for value in values:
        assert summary.might_contain(value)
