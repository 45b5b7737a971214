"""Fleet-level aggregation of telemetry records (§7-style figures).

Takes a window of :class:`~repro.obs.telemetry.TelemetryRecord` (from a
:class:`~repro.obs.telemetry.TelemetrySink` or a workload run) and
reproduces the shape of the paper's fleet study:

* per-technique **pruning-ratio CDFs** over the queries eligible for
  each technique (the paper's headline figures — e.g. "filter pruning
  removes >99% of partitions for a large fraction of queries");
* **latency percentile histograms** (compile, exec, wall) via
  :func:`repro.bench.stats.describe`;
* cache-hit / degradation **fleet counters**;
* a **slow-query log**.

Rendering reuses :mod:`repro.bench.reporting` so the fleet report looks
like the benchmark reports quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from ..bench.reporting import Report, render_cdf
from ..bench.stats import describe, percentile
from ..pruning.base import PruneCategory
from .telemetry import TelemetryRecord

__all__ = [
    "TECHNIQUES",
    "technique_ratio_cdfs",
    "data_cache_hit_ratio_cdf",
    "compile_latency_cdf",
    "latency_percentiles",
    "fleet_summary",
    "fleet_json",
    "render_fleet_report",
]

#: aggregation order for the paper's four techniques plus the
#: secondary-sketch pass layered on top of filter pruning
TECHNIQUES: tuple[str, ...] = (
    PruneCategory.FILTER,
    PruneCategory.SKETCH,
    PruneCategory.JOIN,
    PruneCategory.LIMIT,
    PruneCategory.TOPK,
)

#: CDF thresholds for pruning ratios (fractions of the population)
RATIO_POINTS: tuple[float, ...] = (
    0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)

#: latency percentiles quoted per timing dimension
LATENCY_QS: tuple[float, ...] = (50, 75, 90, 95, 99, 100)


def _executed(records: Sequence[TelemetryRecord]
              ) -> list[TelemetryRecord]:
    """Records of queries that actually ran (errors and result-cache
    hits carry no pruning counters; background maintenance records are
    not queries)."""
    return [r for r in records
            if r.status == "ok" and not r.result_cache_hit
            and r.kind != "recluster"]


def _maintenance(records: Sequence[TelemetryRecord]
                 ) -> list[TelemetryRecord]:
    """Background recluster-slice records (kind == "recluster")."""
    return [r for r in records if r.kind == "recluster"]


def technique_ratio_cdfs(
        records: Sequence[TelemetryRecord],
        points: Sequence[float] = RATIO_POINTS,
) -> dict[str, list[tuple[float, float]]]:
    """Per-technique CDFs of the pruning ratio, over eligible queries.

    A query only enters a technique's distribution when the technique
    was *eligible* for it (the paper's CDFs are conditioned the same
    way); a technique no query was eligible for maps to an empty list.
    """
    from ..bench.stats import cdf_points

    cdfs: dict[str, list[tuple[float, float]]] = {}
    executed = _executed(records)
    for technique in TECHNIQUES:
        ratios = [r.technique_ratio(technique) for r in executed
                  if technique in r.eligible_techniques
                  and r.partitions_total > 0]
        cdfs[technique] = (cdf_points(ratios, points)
                           if ratios else [])
    return cdfs


def data_cache_hit_ratio_cdf(
        records: Sequence[TelemetryRecord],
        points: Sequence[float] = RATIO_POINTS,
) -> list[tuple[float, float]]:
    """CDF of the per-query data-cache hit ratio, over the queries
    whose scans consulted the cache at all (empty when data caching
    was off for the whole window)."""
    from ..bench.stats import cdf_points

    ratios = [r.data_cache_hit_ratio for r in _executed(records)
              if r.data_cache_hits + r.data_cache_misses > 0]
    return cdf_points(ratios, points) if ratios else []


def compile_latency_cdf(
        records: Sequence[TelemetryRecord],
        qs: Sequence[float] = (10, 25, 50, 75, 90, 95, 99, 100),
) -> list[tuple[float, float]]:
    """CDF of per-query simulated compile time over executed queries.

    Thresholds are derived from the observed distribution (its ``qs``
    quantiles) rather than fixed, so the curve stays readable whether
    the window is all cold compiles or all plan-cache rebinds. Empty
    when no executed record carries a compile time.
    """
    from ..bench.stats import cdf_points

    values = [r.compile_ms for r in _executed(records)]
    if not values or not any(values):
        return []
    thresholds: list[float] = []
    for q in qs:
        point = round(percentile(values, q), 4)
        if not thresholds or point > thresholds[-1]:
            thresholds.append(point)
    return cdf_points(values, thresholds)


def latency_percentiles(
        records: Sequence[TelemetryRecord],
        qs: Sequence[float] = LATENCY_QS,
) -> dict[str, dict[str, float]]:
    """Percentiles for each timing dimension with data.

    Keys are ``compile_ms`` / ``exec_ms`` / ``simulated_ms`` /
    ``wall_ms`` / ``queue_wait_ms``; a dimension that is zero for every
    record (e.g. queue wait outside the service) is omitted.
    """
    executed = _executed(records)
    out: dict[str, dict[str, float]] = {}
    for dimension in ("compile_ms", "exec_ms", "simulated_ms",
                      "wall_ms", "queue_wait_ms"):
        values = [getattr(r, dimension) for r in executed]
        if not values or not any(values):
            continue
        out[dimension] = {
            f"p{q:g}": round(percentile(values, q), 4) for q in qs}
    return out


def fleet_summary(records: Sequence[TelemetryRecord]
                  ) -> dict[str, Any]:
    """Fleet counters over a record window (sink-independent).

    Background recluster slices are accounted separately (the
    ``recluster_*`` keys) and never pollute the query aggregates —
    ``queries`` counts client statements, not maintenance work.
    """
    maintenance = _maintenance(records)
    records = [r for r in records if r.kind != "recluster"]
    executed = _executed(records)
    population = sum(r.partitions_total for r in executed)
    pruned = sum(r.partitions_pruned for r in executed)
    by_technique = {t: 0 for t in TECHNIQUES}
    eligible_counts = {t: 0 for t in TECHNIQUES}
    for record in executed:
        for technique, count in record.pruned_by_technique.items():
            by_technique[technique] = (
                by_technique.get(technique, 0) + count)
        for technique in record.eligible_techniques:
            eligible_counts[technique] = (
                eligible_counts.get(technique, 0) + 1)
    data_hits = sum(r.data_cache_hits for r in executed)
    data_misses = sum(r.data_cache_misses for r in executed)
    plan_hits = sum(1 for r in executed if r.plan_cache_hit)
    return {
        "queries": len(records),
        "executed": len(executed),
        "errors": sum(1 for r in records if r.status == "error"),
        "result_cache_hits": sum(
            1 for r in records if r.result_cache_hit),
        "predicate_cache_hits": sum(
            1 for r in executed if r.predicate_cache_hit),
        "data_cache_hits": data_hits,
        "data_cache_misses": data_misses,
        "data_cache_hit_ratio": round(
            data_hits / (data_hits + data_misses), 6)
        if data_hits + data_misses else 0.0,
        "data_cache_bytes_saved": sum(r.data_cache_bytes_saved
                                      for r in executed),
        "plan_cache_hits": plan_hits,
        "plan_cache_hit_ratio": round(plan_hits / len(executed), 6)
        if executed else 0.0,
        "wal_appends": sum(r.wal_appends for r in records),
        "wal_bytes": sum(r.wal_bytes for r in records),
        "topk_boundary_updates": sum(r.topk_boundary_updates
                                     for r in executed),
        "metadata_only": sum(1 for r in executed if r.metadata_only),
        "degraded_queries": sum(1 for r in executed if r.degraded),
        "partitions_total": population,
        "partitions_pruned": pruned,
        "partitions_loaded": sum(r.partitions_loaded
                                 for r in executed),
        "fleet_pruning_ratio": round(pruned / population, 6)
        if population else 0.0,
        "pruned_by_technique": by_technique,
        "eligible_queries_by_technique": eligible_counts,
        "rows_scanned": sum(r.rows_scanned for r in executed),
        "rows_returned": sum(r.rows_returned for r in records),
        "bytes_scanned": sum(r.bytes_scanned for r in executed),
        "recluster_slices": len(maintenance),
        "recluster_partitions_rewritten": sum(
            r.partitions_rewritten for r in maintenance),
        "recluster_bytes_rewritten": sum(
            r.bytes_rewritten for r in maintenance),
    }


def fleet_json(records: Sequence[TelemetryRecord]) -> str:
    """The aggregate fleet figures as a JSON document."""
    payload = {
        "summary": fleet_summary(records),
        "pruning_ratio_cdfs": {
            technique: [[t, f] for t, f in points]
            for technique, points in
            technique_ratio_cdfs(records).items()},
        "data_cache_hit_ratio_cdf": [
            [t, f] for t, f in data_cache_hit_ratio_cdf(records)],
        "compile_latency_cdf": [
            [t, f] for t, f in compile_latency_cdf(records)],
        "latency_percentiles": latency_percentiles(records),
    }
    return json.dumps(payload, indent=2) + "\n"


def render_fleet_report(records: Sequence[TelemetryRecord],
                        title: str = "Fleet telemetry report",
                        slow_n: int = 5) -> str:
    """Text fleet report: counters, per-technique pruning-ratio CDFs,
    latency percentile tables, and a slow-query log."""
    report = Report(title)
    summary = fleet_summary(records)
    report.add(f"  queries: {summary['queries']} "
               f"(executed {summary['executed']}, "
               f"errors {summary['errors']}, "
               f"result-cache hits {summary['result_cache_hits']})")
    report.add(f"  partitions: {summary['partitions_total']} total, "
               f"{summary['partitions_pruned']} pruned "
               f"({summary['fleet_pruning_ratio']:.1%}), "
               f"{summary['partitions_loaded']} loaded")
    report.add(f"  predicate-cache hits: "
               f"{summary['predicate_cache_hits']}, metadata-only: "
               f"{summary['metadata_only']}, degraded: "
               f"{summary['degraded_queries']}")
    if summary["data_cache_hits"] or summary["data_cache_misses"]:
        report.add(f"  data cache: {summary['data_cache_hits']} hits "
                   f"/ {summary['data_cache_misses']} misses "
                   f"({summary['data_cache_hit_ratio']:.1%}), "
                   f"{summary['data_cache_bytes_saved']} bytes saved")
    if summary["plan_cache_hits"]:
        report.add(f"  plan cache: {summary['plan_cache_hits']} of "
                   f"{summary['executed']} executed queries served "
                   f"from cached plans "
                   f"({summary['plan_cache_hit_ratio']:.1%})")
    if summary["wal_appends"]:
        report.add(f"  durability: {summary['wal_appends']} WAL "
                   f"appends / {summary['wal_bytes']} bytes logged")
    if summary["recluster_slices"]:
        report.add(f"  reclustering: {summary['recluster_slices']} "
                   f"background slices rewrote "
                   f"{summary['recluster_partitions_rewritten']} "
                   f"partitions "
                   f"({summary['recluster_bytes_rewritten']} bytes)")
    if summary["topk_boundary_updates"]:
        report.add(f"  runtime pruning: "
                   f"{summary['topk_boundary_updates']} boundary "
                   f"updates")
    report.add(f"  rows scanned: {summary['rows_scanned']}, "
               f"returned: {summary['rows_returned']}, bytes "
               f"scanned: {summary['bytes_scanned']}")

    report.add()
    report.add("Per-technique pruning-ratio CDFs "
               "(fraction of eligible queries with ratio <= x):")
    eligible = summary["eligible_queries_by_technique"]
    for technique, points in technique_ratio_cdfs(records).items():
        if not points:
            report.add(f"  {technique}: no eligible queries")
            continue
        label = (f"{technique} pruning ratio "
                 f"({eligible.get(technique, 0)} eligible queries)")
        report.add(render_cdf(points, label=label))
        report.add()

    cache_cdf = data_cache_hit_ratio_cdf(records)
    if cache_cdf:
        queries = sum(
            1 for r in _executed(records)
            if r.data_cache_hits + r.data_cache_misses > 0)
        report.add(render_cdf(
            cache_cdf,
            label=f"data-cache hit ratio ({queries} queries "
                  f"with cache traffic)"))
        report.add()

    compile_cdf = compile_latency_cdf(records)
    if compile_cdf:
        executed_n = len(_executed(records))
        report.add(render_cdf(
            compile_cdf,
            label=f"compile latency ms ({executed_n} executed "
                  f"queries)"))
        report.add()

    percentiles = latency_percentiles(records)
    if percentiles:
        report.add("Latency percentiles (ms):")
        qs = [f"p{q:g}" for q in LATENCY_QS]
        rows = [[dimension, *[values[q] for q in qs]]
                for dimension, values in percentiles.items()]
        report.table(["dimension", *qs], rows)
        executed = _executed(records)
        if executed:
            box = describe([r.simulated_ms for r in executed])
            report.add(f"  simulated_ms: mean {box.mean:.2f}, "
                       f"median {box.median:.2f}, p90 {box.p90:.2f}, "
                       f"max {box.maximum:.2f}")

    slow = sorted((r for r in _executed(records)),
                  key=lambda r: r.simulated_ms, reverse=True)[:slow_n]
    if slow:
        report.add()
        report.add(f"Slowest {len(slow)} queries (simulated ms):")
        report.table(
            ["query_id", "ms", "parts", "pruned", "rows", "sql"],
            [[r.query_id, round(r.simulated_ms, 2),
              r.partitions_total, r.partitions_pruned,
              r.rows_returned,
              (r.sql[:57] + "...") if len(r.sql) > 60 else r.sql]
             for r in slow])
    return report.render()
