"""Per-query telemetry records and the fleet-wide sink.

The paper's evaluation (§7) is a *telemetry study*: every query in the
fleet emits one structured record — partitions scanned vs. pruned per
technique, bytes, rows, cache hits, timings — and the figures are
aggregations over those records. :class:`TelemetryRecord` is our
per-query record; :class:`TelemetrySink` is the bounded, thread-safe
buffer the :class:`~repro.catalog.Catalog` and
:class:`~repro.service.server.QueryService` write into.

The sink is a ring buffer: it retains the most recent ``capacity``
records and counts what it dropped, so a long-running service has
bounded memory while :mod:`repro.obs.fleet` can still aggregate a
meaningful window.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..pruning.base import PruneCategory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..catalog import QueryResult

__all__ = ["TelemetryRecord", "TelemetrySink"]

#: additive summary counters maintained incrementally by the sink.
_SUM_KEYS = (
    "errors",
    "result_cache_hits",
    "predicate_cache_hits",
    "plan_cache_hits",
    "data_cache_hits",
    "data_cache_misses",
    "data_cache_bytes_saved",
    "wal_appends",
    "wal_bytes",
    "degraded_queries",
    "retried_queries",
    "partitions_total",
    "partitions_pruned",
    "bytes_scanned",
    "rows_returned",
    "recluster_slices",
    "recluster_partitions_rewritten",
    "recluster_bytes_rewritten",
)


@dataclass
class TelemetryRecord:
    """One query's worth of fleet telemetry (§7 schema).

    Partition counters follow the paper's vocabulary: ``partitions_total``
    is the pre-pruning population across all scans, ``partitions_pruned``
    the partitions any technique removed, ``partitions_loaded`` what the
    engine actually read. ``pruned_by_technique`` splits the pruned count
    by :class:`~repro.pruning.base.PruneCategory` name.
    """

    query_id: str = ""
    sql: str = ""
    #: "select", "dml", or "recluster" (background maintenance slice)
    kind: str = "select"
    tables: tuple[str, ...] = ()
    #: "ok", "error", "cancelled", or "cache_hit"
    status: str = "ok"
    error: str = ""
    partitions_total: int = 0
    partitions_loaded: int = 0
    partitions_pruned: int = 0
    pruned_by_technique: dict[str, int] = field(default_factory=dict)
    #: techniques whose preconditions held for this query (a query is
    #: only counted in a technique's pruning-ratio CDF when eligible)
    eligible_techniques: tuple[str, ...] = ()
    #: per-table columns the query's prunable filter predicates
    #: referenced (the recluster advisor's workload signal); only
    #: filter-eligible scans contribute.
    filter_columns: dict[str, tuple[str, ...]] = field(
        default_factory=dict)
    #: per-table ``(partitions_total, filter_pruned)`` over the query's
    #: filter-eligible scans — the eligibility-conditioned numerator /
    #: denominator of the paper's filter pruning-ratio CDF, split by
    #: table so the advisor can localize poor pruning.
    filter_pruning_by_table: dict[str, tuple[int, int]] = field(
        default_factory=dict)
    #: partitions a background recluster slice rewrote (kind ==
    #: "recluster"; 0 for queries).
    partitions_rewritten: int = 0
    #: input bytes that slice rewrote (kind == "recluster").
    bytes_rewritten: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_scanned: int = 0
    result_cache_hit: bool = False
    predicate_cache_hit: bool = False
    #: partitions predicate-cache hits removed (part of
    #: ``partitions_pruned``, reported under the sketch technique)
    predicate_cache_pruned: int = 0
    #: the compiled-plan cache served this query's plan shape (the
    #: literals were rebound; no parse/bind/plan work was repeated)
    plan_cache_hit: bool = False
    #: warehouse-local data cache traffic (paper §2): partitions this
    #: query served locally vs fetched from object storage, and the
    #: bytes the hits kept off the wire.
    data_cache_hits: int = 0
    data_cache_misses: int = 0
    data_cache_bytes_saved: int = 0
    #: write-ahead-log records this statement appended / bytes those
    #: appends framed (DML with durability enabled; otherwise 0).
    wal_appends: int = 0
    wal_bytes: int = 0
    #: successful tightenings of shared top-k boundaries during scans
    #: (runtime-pruning feedback activity; 0 for non-top-k queries).
    topk_boundary_updates: int = 0
    #: speculative loads (morsel readahead / prefetch) a tightened
    #: boundary later discarded — wasted wire bytes, not query cost.
    prefetched_then_skipped: int = 0
    metadata_only: bool = False
    degraded: bool = False
    degraded_partitions: int = 0
    retries: int = 0
    attempts: int = 1
    compile_ms: float = 0.0
    exec_ms: float = 0.0
    #: simulated cost-model total (compile + exec)
    simulated_ms: float = 0.0
    #: real wall-clock time observed by the recording layer
    wall_ms: float = 0.0
    queue_wait_ms: float = 0.0
    cluster: str = ""
    scan_parallelism: int = 1

    @property
    def data_cache_hit_ratio(self) -> float:
        """Hits over data-cache lookups (0 when the cache saw none)."""
        lookups = self.data_cache_hits + self.data_cache_misses
        return self.data_cache_hits / lookups if lookups else 0.0

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the partition population pruned (0 when empty)."""
        if self.partitions_total == 0:
            return 0.0
        return self.partitions_pruned / self.partitions_total

    def technique_ratio(self, technique: str) -> float:
        """Fraction of partitions ``technique`` pruned (0 when empty)."""
        if self.partitions_total == 0:
            return 0.0
        return (self.pruned_by_technique.get(technique, 0)
                / self.partitions_total)

    @classmethod
    def from_result(cls, result: "QueryResult", wall_ms: float = 0.0,
                    kind: str = "select") -> "TelemetryRecord":
        """Build a record from an executed query's result + profile."""
        profile = result.profile
        by_technique: dict[str, int] = {}
        eligible: "OrderedDict[str, None]" = OrderedDict()
        filter_columns: dict[str, set[str]] = {}
        filter_pruning: dict[str, tuple[int, int]] = {}
        for scan in profile.scans:
            if scan.filter_eligible:
                eligible[PruneCategory.FILTER] = None
                filter_columns.setdefault(scan.table, set()).update(
                    scan.filter_columns)
                total, pruned = filter_pruning.get(scan.table, (0, 0))
                filter_pruning[scan.table] = (
                    total + scan.total_partitions,
                    pruned + (scan.filter_result.pruned
                              if scan.filter_result is not None else 0))
            if scan.sketch_eligible:
                eligible[PruneCategory.SKETCH] = None
            for pruning in scan.pruning_results():
                by_technique[pruning.technique] = (
                    by_technique.get(pruning.technique, 0)
                    + pruning.pruned)
        if profile.limit_eligible:
            eligible[PruneCategory.LIMIT] = None
        if profile.topk_eligible:
            eligible[PruneCategory.TOPK] = None
        if profile.join_eligible:
            eligible[PruneCategory.JOIN] = None
        return cls(
            query_id=profile.query_id,
            sql=result.sql,
            kind=kind,
            tables=tuple(dict.fromkeys(s.table
                                       for s in profile.scans)),
            partitions_total=profile.total_partitions,
            partitions_loaded=profile.partitions_loaded,
            partitions_pruned=profile.partitions_pruned,
            pruned_by_technique=by_technique,
            eligible_techniques=tuple(eligible),
            filter_columns={t: tuple(sorted(cols))
                            for t, cols in filter_columns.items()},
            filter_pruning_by_table=filter_pruning,
            rows_scanned=sum(s.rows_scanned for s in profile.scans),
            rows_returned=result.num_rows,
            bytes_scanned=sum(s.bytes_scanned for s in profile.scans),
            predicate_cache_hit=any(s.cache_hit
                                    for s in profile.scans),
            predicate_cache_pruned=sum(s.skip_set_pruned
                                       for s in profile.scans),
            plan_cache_hit=profile.plan_cache_hit,
            data_cache_hits=profile.data_cache_hits,
            data_cache_misses=profile.data_cache_misses,
            data_cache_bytes_saved=profile.data_cache_bytes_saved,
            wal_appends=profile.wal_appends,
            wal_bytes=profile.wal_bytes,
            topk_boundary_updates=profile.topk_boundary_updates,
            prefetched_then_skipped=profile.prefetched_then_skipped,
            metadata_only=bool(profile.scans) and all(
                s.metadata_only for s in profile.scans),
            degraded=profile.degraded,
            degraded_partitions=profile.degraded_partitions,
            retries=profile.total_retries,
            compile_ms=profile.compile_ms,
            exec_ms=profile.exec_ms,
            simulated_ms=profile.total_ms,
            wall_ms=wall_ms,
            scan_parallelism=profile.scan_parallelism,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly flat representation."""
        return {
            "query_id": self.query_id,
            "sql": self.sql,
            "kind": self.kind,
            "tables": list(self.tables),
            "status": self.status,
            "error": self.error,
            "partitions_total": self.partitions_total,
            "partitions_loaded": self.partitions_loaded,
            "partitions_pruned": self.partitions_pruned,
            "pruned_by_technique": dict(self.pruned_by_technique),
            "eligible_techniques": list(self.eligible_techniques),
            "filter_columns": {t: list(cols) for t, cols
                               in self.filter_columns.items()},
            "filter_pruning_by_table": {
                t: list(v) for t, v
                in self.filter_pruning_by_table.items()},
            "partitions_rewritten": self.partitions_rewritten,
            "bytes_rewritten": self.bytes_rewritten,
            "pruning_ratio": round(self.pruning_ratio, 6),
            "rows_scanned": self.rows_scanned,
            "rows_returned": self.rows_returned,
            "bytes_scanned": self.bytes_scanned,
            "result_cache_hit": self.result_cache_hit,
            "predicate_cache_hit": self.predicate_cache_hit,
            "predicate_cache_pruned": self.predicate_cache_pruned,
            "plan_cache_hit": self.plan_cache_hit,
            "data_cache_hits": self.data_cache_hits,
            "data_cache_misses": self.data_cache_misses,
            "data_cache_bytes_saved": self.data_cache_bytes_saved,
            "data_cache_hit_ratio": round(
                self.data_cache_hit_ratio, 6),
            "wal_appends": self.wal_appends,
            "wal_bytes": self.wal_bytes,
            "topk_boundary_updates": self.topk_boundary_updates,
            "prefetched_then_skipped": self.prefetched_then_skipped,
            "metadata_only": self.metadata_only,
            "degraded": self.degraded,
            "degraded_partitions": self.degraded_partitions,
            "retries": self.retries,
            "attempts": self.attempts,
            "compile_ms": round(self.compile_ms, 4),
            "exec_ms": round(self.exec_ms, 4),
            "simulated_ms": round(self.simulated_ms, 4),
            "wall_ms": round(self.wall_ms, 4),
            "queue_wait_ms": round(self.queue_wait_ms, 4),
            "cluster": self.cluster,
            "scan_parallelism": self.scan_parallelism,
        }


class TelemetrySink:
    """Thread-safe bounded ring buffer of :class:`TelemetryRecord`.

    Mirrors the fleet telemetry pipeline the paper's §7 study reads
    from: every query appends one record; when the buffer is full the
    oldest record is dropped (and counted). ``annotate`` lets an outer
    layer (the service) enrich a record the catalog already wrote —
    queue wait, wall clock, cluster — without double-recording.
    """

    def __init__(self, capacity: int = 4096,
                 slow_query_ms: float = 100.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: simulated-ms threshold above which a query is "slow"
        self.slow_query_ms = slow_query_ms
        self._lock = threading.Lock()
        self._records: deque[TelemetryRecord] = deque(maxlen=capacity)
        self._by_id: dict[str, TelemetryRecord] = {}
        self.total_recorded = 0
        self.dropped = 0
        #: running sums over the *retained* window, maintained under
        #: the record lock so ``summary()`` is O(1) instead of ~15
        #: O(n) passes over the ring on every ``describe()`` call.
        self._sums: dict[str, int] = dict.fromkeys(_SUM_KEYS, 0)

    def _apply(self, record: TelemetryRecord, sign: int) -> None:
        """Add (+1) or retract (-1) one record's summary contribution.

        Must be called with ``self._lock`` held. Every key is additive,
        so eviction and in-place annotation are exact retractions.
        """
        s = self._sums
        if record.status == "error":
            s["errors"] += sign
        if record.result_cache_hit:
            s["result_cache_hits"] += sign
        if record.predicate_cache_hit:
            s["predicate_cache_hits"] += sign
        if record.plan_cache_hit:
            s["plan_cache_hits"] += sign
        if record.degraded:
            s["degraded_queries"] += sign
        if record.retries:
            s["retried_queries"] += sign
        s["data_cache_hits"] += sign * record.data_cache_hits
        s["data_cache_misses"] += sign * record.data_cache_misses
        s["data_cache_bytes_saved"] += (
            sign * record.data_cache_bytes_saved)
        s["wal_appends"] += sign * record.wal_appends
        s["wal_bytes"] += sign * record.wal_bytes
        s["partitions_total"] += sign * record.partitions_total
        s["partitions_pruned"] += sign * record.partitions_pruned
        s["bytes_scanned"] += sign * record.bytes_scanned
        s["rows_returned"] += sign * record.rows_returned
        if record.kind == "recluster":
            s["recluster_slices"] += sign
            s["recluster_partitions_rewritten"] += (
                sign * record.partitions_rewritten)
            s["recluster_bytes_rewritten"] += (
                sign * record.bytes_rewritten)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def record(self, record: TelemetryRecord) -> TelemetryRecord:
        """Append one record, evicting the oldest when full."""
        with self._lock:
            if len(self._records) == self.capacity:
                evicted = self._records[0]
                self._by_id.pop(evicted.query_id, None)
                self._apply(evicted, -1)
                self.dropped += 1
            self._records.append(record)
            if record.query_id:
                self._by_id[record.query_id] = record
            self._apply(record, +1)
            self.total_recorded += 1
        return record

    def annotate(self, query_id: str, **fields: Any) -> bool:
        """Merge fields into the record for ``query_id``.

        Returns False when the record was never written or has been
        evicted (the caller may then record a fresh one).
        """
        with self._lock:
            record = self._by_id.get(query_id)
            if record is None:
                return False
            # The record is mutated in place, so retract its summary
            # contribution, apply the fields, then re-add it.
            self._apply(record, -1)
            try:
                for key, value in fields.items():
                    if not hasattr(record, key):
                        raise AttributeError(
                            f"TelemetryRecord has no field {key!r}")
                    setattr(record, key, value)
            finally:
                self._apply(record, +1)
            return True

    def get(self, query_id: str) -> TelemetryRecord | None:
        """The retained record for ``query_id``, if any."""
        with self._lock:
            return self._by_id.get(query_id)

    def records(self) -> list[TelemetryRecord]:
        """Snapshot of retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._by_id.clear()
            self._sums = dict.fromkeys(_SUM_KEYS, 0)

    def slow_queries(self, n: int = 10) -> list[TelemetryRecord]:
        """The ``n`` slowest retained queries (by simulated time)
        above the ``slow_query_ms`` threshold, slowest first."""
        with self._lock:
            slow = [r for r in self._records
                    if r.simulated_ms >= self.slow_query_ms]
        slow.sort(key=lambda r: r.simulated_ms, reverse=True)
        return slow[:n]

    def summary(self) -> dict[str, Any]:
        """Counter roll-up for ``service.describe()`` and dashboards.

        O(1): reads the running sums maintained by ``record`` /
        ``annotate`` / eviction rather than re-walking the ring.
        """
        with self._lock:
            sums = dict(self._sums)
            total = self.total_recorded
            dropped = self.dropped
            n = len(self._records)
        pruned = sums["partitions_pruned"]
        population = sums["partitions_total"]
        summary: dict[str, Any] = {
            "recorded": total,
            "retained": n,
            "dropped": dropped,
        }
        summary.update(sums)
        summary["fleet_pruning_ratio"] = (
            round(pruned / population, 6) if population else 0.0)
        return summary

    def export_json(self, path=None) -> str:
        """All retained records as a JSON document; optionally written
        to ``path``."""
        payload = {
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records()],
        }
        text = json.dumps(payload, indent=2) + "\n"
        if path is not None:
            from pathlib import Path

            Path(path).write_text(text)
        return text

