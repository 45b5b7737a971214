"""Micro-benchmarks of the hot kernels (multi-round timings).

Unlike the figure/table benches (one-shot experiment reproductions),
these measure raw throughput of the pruning primitives: zone-map
checks, scan-set pruning, expression evaluation, summary probes, and
the top-k heap, plus a table build and a checkpoint.
"""

import random

from repro import Catalog
from repro.expr.ast import And, Compare, If, InList, Like, col, lit
from repro.expr.eval import evaluate_predicate
from repro.expr.pruning import prune_partition
from repro.pruning.base import ScanSet
from repro.pruning.filter_pruning import FilterPruner
from repro.pruning.filters import XorFilter
from repro.pruning.sketches import SketchPruner
from repro.pruning.stats_index import (
    StatsIndex,
    VectorizedFilterPruner,
    compile_pruning_kernel,
)
from repro.pruning.summaries import RangeSetSummary
from repro.storage.builder import build_table, build_table_from_columns
from repro.storage.column import columns_from_rows
from repro.storage.clustering import Layout
from repro.types import DataType, Schema

SCHEMA = Schema.of(ts=DataType.INTEGER, category=DataType.VARCHAR,
                   score=DataType.INTEGER)

_rng = random.Random(0)
_ROWS = [(i, f"cat{_rng.randrange(8):02d}", _rng.randrange(10**6))
         for i in range(50_000)]
_TABLE = build_table("t", SCHEMA, _ROWS, rows_per_partition=100,
                     layout=Layout.sorted_by("ts"))
_SCAN_SET = ScanSet((p.partition_id, p.zone_map)
                    for p in _TABLE.partitions)
_PREDICATE = And(
    Compare(">=", col("ts"), lit(40_000)),
    Like(col("category"), "cat0%"),
    Compare(">", If(Compare("=", col("category"), lit("cat01")),
                    col("score"), lit(0)), lit(-1)),
)
#: IF never compiles to a kernel; this shape exercises the
#: vectorized path end to end.
_COMPILABLE_PREDICATE = And(
    Compare(">=", col("ts"), lit(40_000)),
    InList(col("category"), ["cat01", "cat03", "cat05"]),
    Compare(">", col("score"), lit(250_000)),
)
#: the scan set packs (once) and owns the index the kernels classify
_STATS_INDEX = _SCAN_SET.stats_index


def test_prune_partition_check(benchmark):
    """One tri-state pruning verdict from a zone map."""
    zone_map = _TABLE.partitions[250].zone_map
    benchmark(prune_partition, _PREDICATE, zone_map, SCHEMA)


def test_filter_pruner_500_partitions(benchmark):
    """Compile-time pruning of a 500-partition scan set."""

    def prune():
        pruner = FilterPruner(_PREDICATE, SCHEMA)
        return pruner.prune(_SCAN_SET).after

    result = benchmark(prune)
    assert result < len(_SCAN_SET)


def test_vectorized_pruner_500_partitions(benchmark):
    """Kernel-compiled pruning of the same 500-partition scan set."""

    def prune():
        pruner = VectorizedFilterPruner(_COMPILABLE_PREDICATE, SCHEMA)
        return pruner.prune(_SCAN_SET).after

    result = benchmark(prune)
    assert result < len(_SCAN_SET)


def test_vectorized_pruner_10k_partitions_of_index(benchmark):
    """A needle over 10 000 partitions of a scan set that is rows of the
    stats index: classify, gather and result are array passes."""
    table = build_table("wide", SCHEMA, _ROWS, rows_per_partition=5,
                        layout=Layout.sorted_by("ts"))
    scan_set = ScanSet.of_index(StatsIndex(
        (p.partition_id, p.zone_map) for p in table.partitions))
    needle = And(Compare(">=", col("ts"), lit(20_000)),
                 Compare("<=", col("ts"), lit(20_012)))

    def prune():
        pruner = VectorizedFilterPruner(needle, SCHEMA)
        result = pruner.prune(scan_set)
        return pruner.mode, result.after, result.pruned

    assert benchmark(prune) == ("vectorized", 3, 9_997)


def test_build_table_10k_partitions(benchmark):
    """Build 10 000 partitions x 3 columns from whole columns, then
    pack the stats index's ``ts`` lanes: one stats block per build,
    zone maps as views, the lanes gathered from the block."""
    columns = columns_from_rows(SCHEMA, _ROWS)

    def build():
        table = build_table_from_columns("wide", SCHEMA, columns,
                                         rows_per_partition=5,
                                         layout=Layout.sorted_by("ts"))
        index = StatsIndex((p.partition_id, p.zone_map)
                           for p in table.partitions)
        return table.num_partitions, index.column("ts").kind

    assert benchmark(build) == (10_000, "int64")


def test_checkpoint_50k_rows(benchmark, tmp_path):
    """Checkpoint a 50 000-row, 500-partition table: one column-codec
    table file; recovery cuts it back like a build."""
    catalog = Catalog(rows_per_partition=100)
    catalog.create_table(build_table("t", SCHEMA, _ROWS,
                                     rows_per_partition=100,
                                     layout=Layout.sorted_by("ts")))
    catalog.enable_durability(tmp_path / "d")
    benchmark(catalog.checkpoint)
    catalog.durability.close()
    recovered = Catalog.recover(tmp_path / "d")
    recovered.durability.close()
    assert [(p.partition_id, p.checksum)
            for p in recovered.tables["t"].partitions] == \
        [(p.partition_id, p.checksum) for p in catalog.tables["t"].partitions]


def test_scalar_pruner_500_partitions_compilable(benchmark):
    """AST-walk baseline over the same compilable predicate."""

    def prune():
        pruner = FilterPruner(_COMPILABLE_PREDICATE, SCHEMA)
        return pruner.prune(_SCAN_SET).after

    result = benchmark(prune)
    assert result < len(_SCAN_SET)


def test_kernel_classify_only(benchmark):
    """One bulk classify pass over 500 packed partitions."""
    kernel = compile_pruning_kernel(_COMPILABLE_PREDICATE)
    assert kernel is not None
    codes = kernel.classify(_STATS_INDEX)
    assert codes is not None

    benchmark(kernel.classify, _STATS_INDEX)


def test_vectorized_predicate_eval(benchmark):
    """Row-level predicate evaluation over one partition (100 rows)."""
    partition = _TABLE.partitions[250]
    columns = partition.columns()

    def evaluate():
        return evaluate_predicate(_PREDICATE, columns, SCHEMA)

    benchmark(evaluate)


def test_rangeset_summary_probe(benchmark):
    """Range-set overlap probes (binary search over 64 intervals)."""
    summary = RangeSetSummary(
        [_rng.randrange(10**6) for _ in range(5000)])
    probes = [( _rng.randrange(10**6), ) for _ in range(100)]

    def probe():
        hits = 0
        for (lo,) in probes:
            if summary.might_overlap_range(lo, lo + 500):
                hits += 1
        return hits

    benchmark(probe)


def test_xor_filter_lookup(benchmark):
    """Membership lookups in the xor filter (100 probes)."""
    xor = XorFilter(_rng.randrange(10**6) for _ in range(5000))
    probes = [_rng.randrange(10**6) for _ in range(100)]

    def lookup():
        return sum(xor.might_contain(p) for p in probes)

    benchmark(lookup)


def test_topk_heap_10k_rows(benchmark):
    """Heap-based top-10 over 10k rows via the TopK operator."""
    from repro.engine.chunk import Chunk
    from repro.engine.context import ExecContext
    from repro.engine.executor import execute
    from repro.engine.operators import ChunkSource, TopK
    from repro.storage.storage_layer import StorageLayer

    chunk = Chunk.from_rows(SCHEMA, _ROWS[:10_000])

    def run():
        context = ExecContext(StorageLayer())
        source = ChunkSource(SCHEMA, [chunk])
        topk = TopK(context, source, "score", 10, desc=True)
        return execute(topk, context).num_rows

    result = benchmark(run)
    assert result == 10


def test_scan_set_serialization(benchmark):
    """Serialize + deserialize a 500-partition scan set."""
    zone_maps = {pid: zm for pid, zm in _SCAN_SET}

    def roundtrip():
        data = _SCAN_SET.serialize()
        return len(ScanSet.deserialize(data, zone_maps.__getitem__))

    result = benchmark(roundtrip)
    assert result == len(_SCAN_SET)


#: 20 000 rows in 200 partitions, ``score`` unclustered (nothing prunes),
#: ``v`` distinct (no tie decides which rows a top-k keeps)
_SCAN_ROWS = [(i, _rng.randrange(10_000), v)
              for i, v in enumerate(_rng.sample(range(10**6), 20_000))]
_SCAN_SCHEMA = Schema.of(id=DataType.INTEGER, score=DataType.INTEGER,
                         v=DataType.INTEGER)


def _scan_catalog() -> Catalog:
    catalog = Catalog(rows_per_partition=100)
    catalog.create_table_from_rows("f", _SCAN_SCHEMA, _SCAN_ROWS,
                                   layout=Layout.sorted_by("id"))
    return catalog


def test_scan_batches_filter_project_20k_rows(benchmark):
    """Filter and Project over a 200-partition scan: one batch per few
    thousand rows, not one chunk per partition."""
    catalog = _scan_catalog()
    sql = "SELECT id, v * 2 AS w FROM f WHERE score >= 8000"
    rows = benchmark(lambda: catalog.sql(sql).rows)
    assert rows == [(i, v * 2) for i, score, v in _SCAN_ROWS
                    if score >= 8000]


def test_scan_load_batches_1000_partitions(benchmark):
    """A filter and projection, then a filtered aggregate, over 1 000
    partitions of 20 rows: the scan loads a batch per few thousand
    rows, one storage call each; the rows are checked."""
    catalog = Catalog(rows_per_partition=20)
    catalog.create_table_from_rows("f", _SCAN_SCHEMA, _SCAN_ROWS,
                                   layout=Layout.sorted_by("id"))
    project = "SELECT id, v * 2 AS w FROM f WHERE score >= 2500"
    aggregate = ("SELECT count(*) AS c, sum(v) AS s, min(id) AS lo, "
                 "max(v) AS hi FROM f WHERE score >= 2500")
    rows, totals = benchmark(lambda: (catalog.sql(project).rows,
                                      catalog.sql(aggregate).rows))
    kept = [(i, v) for i, score, v in _SCAN_ROWS if score >= 2500]
    assert rows == [(i, v * 2) for i, v in kept]
    assert totals == [(len(kept), sum(v for _, v in kept), kept[0][0],
                       max(v for _, v in kept))]
    assert catalog.sql(project).profile.scans[0].partitions_loaded == 1000


def test_topk_limit_10k_of_20k(benchmark):
    """ORDER BY v DESC LIMIT 10000 over 20 000 rows, streamed one
    partition at a time for the boundary: each row is sorted once."""
    catalog = _scan_catalog()
    sql = "SELECT id, v FROM f ORDER BY v DESC LIMIT 10000"
    rows = benchmark(lambda: catalog.sql(sql).rows)
    assert rows == sorted(((i, v) for i, _, v in _SCAN_ROWS),
                          key=lambda row: -row[1])[:10_000]


_LOG_SCHEMA = Schema.of(msg=DataType.VARCHAR, region=DataType.VARCHAR)


def test_like_and_sketch_prune_200_partitions(benchmark):
    """LIKE filter pruning, then sketch pruning, over 200 partitions;
    the even ones span the whole domain (an anchor row at each end), so
    only the sketches can prune them. The kernel classifies the LIKE
    and the sketch lanes prune probe by probe; both must equal the
    scalar references."""
    rows = [("aaa" if i == 0 and p % 2 == 0 else
             "zzz" if i == 1 and p % 2 == 0 else f"mk{p % 24:02d}x-{i}",
             f"r{(p * 7 + i % 2 * 3) % 16:02d}")
            for p in range(200) for i in range(20)]
    catalog = Catalog(rows_per_partition=20)
    catalog.create_table_from_rows("logs", _LOG_SCHEMA, rows)
    catalog.enable_sketches()
    scan_set = catalog.scan_set("logs")
    sketches, index = catalog.sketches_of("logs"), catalog.sketch_index("logs")
    predicates = [And(Like(col("msg"), "%mk03x%"),
                      Compare("=", col("region"), lit("r05"))),
                  Like(col("msg"), "mk1%"),
                  Like(col("msg"), "%k1_x-1%")]

    def prune(scalar=False):
        out = []
        for predicate in predicates:
            pruner = (FilterPruner if scalar else VectorizedFilterPruner)(
                predicate, _LOG_SCHEMA)
            filtered = pruner.prune(ScanSet(scan_set.entries) if scalar
                                    else scan_set)
            sketch = SketchPruner(predicate, _LOG_SCHEMA, sketches,
                                  index=None if scalar else index)
            result = sketch.prune(filtered.kept)
            out.append((filtered.pruned_ids, filtered.fully_matching_ids,
                        filtered.checks, result.kept.partition_ids,
                        result.pruned_ids, result.checks,
                        sketch.pruned_by_kind))
        return out

    got = benchmark(prune)
    assert got == prune(scalar=True)
    assert [(len(filter_pruned), len(fm), len(kept))
            for filter_pruned, fm, _, kept, *_ in got] == \
        [(113, 0, 5), (60, 40, 80), (0, 0, 200)]
