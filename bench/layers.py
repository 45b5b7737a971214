"""Per-layer metrics of the traced run.

A layer is a module under ``src/repro/``. The traced run drives the
same statements through the same entry points as the untraced run, with
the span wrappers of :mod:`spans` around each layer's public call, and
this module rolls the spans and the program's own counters up into the
metrics ``BENCHMARK.json`` lists under ``per_layer``. A metric that a
workload does not exercise reads 0.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from harness import PRUNE_TECHNIQUES, Cycle, Load
from spans import SpanRecorder


def timer_overhead_us() -> float:
    """Median cost of one empty timed region, in microseconds."""
    samples = []
    for _ in range(2000):
        started = perf_counter()
        samples.append(perf_counter() - started)
    return median(samples) * 1e6


def _user_bytes(load: Load, expected: list) -> int:
    """Bytes of the rows the write statements inserted, changed or
    deleted: 8 per number, one per character."""
    widths = {}
    for table in load.tables:
        widths[table.name] = sum(
            len(data[0]) if data.dtype.kind == "U" else 8
            for data in table.columns.values())
    total = 0
    for stmt, answer in zip(load.statements, expected):
        if stmt.kind in ("insert", "delete", "update"):
            total += answer.affected * widths[stmt.table]
    return total


def layer_metrics(recorder: SpanRecorder, load: Load, expected: list,
                  traced: list[Cycle], untraced: list[Cycle],
                  extras: dict[str, float]
                  ) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples) for every per-layer metric."""
    n = len(load.statements)
    kinds = [s.kind for s in load.statements]

    def ids(kind: str) -> set[int]:
        return {c * n + i for c in range(len(traced))
                for i, k in enumerate(kinds) if k == kind}

    def flagged(attr: str) -> set[int]:
        return {c * n + i for c, cycle in enumerate(traced)
                for i in getattr(cycle.stats, attr)}

    selects = ids("select")
    own = recorder.self_times()
    out: dict[str, tuple[float, str, int]] = {}

    def p50(metric: str, span: str, stmts=None, self_time=False) -> None:
        value, count = recorder.p50_us(span, stmts, own if self_time else None)
        out[metric] = (value, "us", count)

    def count_metric(metric: str, value: float, unit: str = "count",
                     samples: int = 1) -> None:
        out[metric] = (float(value), unit, samples)

    def ms_metric(metric: str, seconds: list[float], pick=median) -> None:
        out[metric] = (pick(seconds) * 1e3 if seconds else 0.0, "ms",
                       len(seconds))

    facts = traced[-1].env_facts
    stats = traced[0].stats
    roots = recorder.total("stmt", selects)

    # sql
    p50("sql.parse_us_p50", "sql.parse")
    p50("sql.plan_us_p50", "sql.plan")

    # storage
    p50("storage.scan_set_us_p50", "storage.scan_set")
    entries = recorder.total_count("storage.scan_set")
    count_metric("storage.scan_set_ns_per_partition",
                 recorder.total("storage.scan_set") / entries * 1e9
                 if entries else 0.0, "ns", entries)
    count_metric("storage.metadata_lookups",
                 entries / (len(traced) * n), "count", len(traced) * n)
    count_metric("storage.build_rows_per_s",
                 facts["build_rows"] / facts["build_seconds"], "1/s",
                 int(facts["build_rows"]))

    # pruning
    p50("pruning.filter_prune_us_p50", "pruning.filter_prune")
    classified = recorder.total_count("pruning.filter_prune")
    count_metric("pruning.filter_prune_ns_per_partition",
                 recorder.total("pruning.filter_prune") / classified * 1e9
                 if classified else 0.0, "ns", classified)
    p50("pruning.sketch_prune_us_p50", "pruning.sketch_prune")
    count_metric("pruning.sketch_build_ms", facts["sketch_build_ms"], "ms")
    for technique in PRUNE_TECHNIQUES:
        count_metric(f"pruning.pruned_ratio.{technique}",
                     stats.pruned[technique] / stats.total
                     if stats.total else 0.0, "ratio", stats.total)

    # plan
    p50("plan.compile_us_p50", "plan.compile", selects)
    p50("plan.compile_self_us_p50", "plan.compile", selects, self_time=True)
    count_metric("plan.compile_share",
                 recorder.total("plan.compile", selects) / roots
                 if roots else 0.0, "ratio", len(selects))
    for name in ("plan.compile_ns_per_partition",
                 "plan.compile_us_p50.parts_1e2",
                 "plan.compile_us_p50.parts_1e3",
                 "plan.compile_us_p50.parts_1e4",
                 "plan.compile_us_p50.parts_3e4"):
        count_metric(name, extras.get(name, 0.0),
                     "ns" if name.endswith("per_partition") else "us")

    # engine
    p50("engine.execute_us_p50", "engine.execute", selects)
    execute_s = recorder.total("engine.execute", selects)
    count_metric("engine.execute_share",
                 execute_s / roots if roots else 0.0, "ratio", len(selects))
    scanned = sum(c.stats.rows_scanned for c in traced)
    returned = sum(c.stats.rows_returned for c in traced)
    count_metric("engine.rows_scanned_per_s",
                 scanned / execute_s if execute_s else 0.0, "1/s", scanned)
    count_metric("engine.rows_scanned_per_row_returned",
                 scanned / max(1, returned), "ratio", returned)

    # catalog
    p50("catalog.select_us_p50", "catalog.sql", selects)
    p50("catalog.insert_us_p50", "catalog.insert", ids("insert"))
    p50("catalog.delete_us_p50", "catalog.sql", ids("delete"))
    p50("catalog.update_us_p50", "catalog.sql", ids("update"))
    p50("catalog.unattributed_us_p50", "catalog.sql", selects,
        self_time=True)

    # plancache
    count_metric("plancache.hit_ratio", facts.get("plancache.hit_ratio", 0.0),
                 "ratio")
    count_metric("plancache.evictions", facts.get("plancache.evictions", 0))
    p50("plancache.hit_us_p50", "catalog.sql", flagged("plan_hits"))
    p50("plancache.miss_us_p50", "catalog.sql", flagged("plan_misses"))

    # cache
    count_metric("cache.hit_ratio", facts.get("cache.hit_ratio", 0.0),
                 "ratio")
    count_metric("cache.evictions", facts.get("cache.evictions", 0))
    count_metric("cache.bytes_saved", facts.get("cache.bytes_saved", 0),
                 "bytes")
    count_metric("cache.resident_bytes",
                 facts.get("cache.resident_bytes", 0), "bytes")

    # service
    for phase in ("fits", "exceeds"):
        span = load.marks.get(phase, range(0))
        reads = [i for i in span if kinds[i] == "select"]
        hits = sum(1 for i in reads if i in stats.result_hits)
        count_metric(f"service.result_hit_ratio.{phase}",
                     hits / len(reads) if reads else 0.0, "ratio",
                     len(reads))
    count_metric("service.result_evictions",
                 facts.get("service.result_evictions", 0))
    count_metric("service.result_invalidations",
                 facts.get("service.result_invalidations", 0))
    hit_ids = flagged("result_hits")
    outer = recorder.per_stmt("service.sql", selects - hit_ids)
    inner = recorder.per_stmt("catalog.sql", set(outer))
    p50("service.hit_us_p50", "service.sql", hit_ids)
    p50("service.miss_us_p50", "service.sql", set(outer))
    overheads = [outer[i] - inner[i] for i in outer if i in inner]
    out["service.overhead_us_p50"] = (
        median(overheads) * 1e6 if overheads else 0.0, "us", len(overheads))

    # obs
    p50("obs.record_us_p50", "obs.record")

    # durability
    count_metric("durability.wal_appends",
                 facts.get("durability.wal_appends", 0))
    user_bytes = _user_bytes(load, expected)
    count_metric("durability.wal_bytes_per_user_byte",
                 facts.get("wal_bytes", 0) / user_bytes if user_bytes else 0.0,
                 "ratio", user_bytes)
    ms_metric("durability.checkpoint_ms",
              [recorder.duration(i)
               for i in recorder.by_name("catalog.checkpoint")])
    ms_metric("durability.recover_ms",
              [c.env_facts["recover_s"] for c in traced
               if "recover_s" in c.env_facts])
    count_metric("durability.dir_bytes", facts.get("dir_bytes", 0), "bytes")

    # recluster
    ms_metric("recluster.run_ms_p50",
              [recorder.duration(i)
               for i in recorder.by_name("catalog.recluster")])
    count_metric("recluster.partitions_rewritten",
                 sum(answer.affected
                     for stmt, answer in zip(load.statements, expected)
                     if stmt.kind == "recluster"))
    stalls = []
    root_wall = recorder.per_stmt("stmt")
    for c in range(len(traced)):
        for i, kind in enumerate(kinds):
            if kind in ("recluster", "checkpoint"):
                following = next((j for j in range(i + 1, n)
                                  if kinds[j] == "select"), None)
                if following is not None:
                    stalls.append(root_wall[c * n + following])
    ms_metric("recluster.next_read_ms_max", stalls, pick=max)

    # the harness itself
    count_metric("bench.timer_overhead_us", timer_overhead_us(), "us", 2000)
    traced_wall = sum(sum(c.stats.walls) for c in traced) / len(traced)
    plain_wall = sum(sum(c.stats.walls) for c in untraced) / len(untraced)
    count_metric("bench.tracing_overhead_ratio", traced_wall / plain_wall,
                 "ratio", len(traced) + len(untraced))
    return out
