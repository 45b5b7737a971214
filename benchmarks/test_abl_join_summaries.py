"""Ablation (§6.1): build-side value summary structures.

Compares pruning power and summary size along the trade-off: global
min/max (the range set with ``max_ranges=1``), the bounded range set
(Snowflake's balanced choice), and a membership filter (the xor
filter). The paper: the summary "strikes a balance between accuracy
and storage cost", spending a small fraction of the build side's size.
"""

import random

from repro.bench.reporting import Report
from repro.pruning.base import ScanSet
from repro.pruning.filters import XorFilter
from repro.pruning.join_pruning import JoinPruner
from repro.pruning.summaries import RangeSetSummary
from repro.storage.builder import build_table
from repro.storage.clustering import Layout
from repro.types import DataType, Schema

SCHEMA = Schema.of(fk=DataType.INTEGER, payload=DataType.VARCHAR)
N_PROBE_ROWS = 30_000
KEY_SPACE = 1_000_000


def run():
    rng = random.Random(3)
    probe_rows = [(rng.randrange(KEY_SPACE), f"p{i}")
                  for i in range(N_PROBE_ROWS)]
    table = build_table("probe", SCHEMA, probe_rows,
                        rows_per_partition=200,
                        layout=Layout.sorted_by("fk"))
    scan_set = ScanSet((p.partition_id, p.zone_map)
                       for p in table.partitions)
    # Clustered build side: two narrow key clusters far apart.
    build_values = ([rng.randrange(5_000) for _ in range(300)]
                    + [rng.randrange(900_000, 905_000)
                       for _ in range(300)])
    build_nbytes = len(build_values) * 8

    results = {}
    summaries = {
        "minmax": RangeSetSummary(build_values, max_ranges=1),
        "rangeset": RangeSetSummary(build_values),
        "xor": XorFilter(build_values),
    }
    for kind, summary in summaries.items():
        outcome = JoinPruner("fk", summary).prune(scan_set)
        results[kind] = (outcome.pruning_ratio, summary.nbytes(),
                         summary.nbytes() / build_nbytes)
    return results


def test_abl_join_summaries(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)

    report = Report("Ablation §6.1 — build-side summary structures")
    report.table(
        ["summary", "probe pruning ratio", "size (bytes)",
         "size / build side"],
        [[kind, f"{ratio:.1%}", size, f"{share:.1%}"]
         for kind, (ratio, size, share) in results.items()])
    report.print()

    minmax_ratio = results["minmax"][0]
    rangeset_ratio = results["rangeset"][0]
    # The range set exploits the gap between build key clusters that a
    # single global range cannot express.
    assert rangeset_ratio > minmax_ratio + 0.2
    # ... while staying a small fraction of the build side.
    assert results["rangeset"][2] < 0.25
    # min/max is nearly free.
    assert results["minmax"][1] <= 16
    # A membership filter cannot answer wide range probes: its
    # partition pruning is weak even though its size is substantial —
    # its role is value-level probing (the n-gram sketches).
    assert results["xor"][0] <= rangeset_ratio
