"""Execution context, simulated clock, and query profiling.

The profiler records exactly the quantities the paper's evaluation
plots: per-scan partition counts before/after each pruning technique,
fully-matching partitions, rows scanned, and a deterministic simulated
runtime derived from the storage cost model.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache.partition_cache import PartitionCache
    from ..obs.trace import Span, Tracer
from ..pruning.base import PruneCategory, PruningResult
from ..pruning.flow import FlowRecord
from ..pruning.limit_pruning import LimitPruneReport
from ..storage.metadata_store import MetadataStore
from ..storage.storage_layer import CostModel, StorageLayer


@dataclass
class ScanProfile:
    """Pruning and I/O accounting for one table scan."""

    table: str
    total_partitions: int = 0
    filter_result: Optional[PruningResult] = None
    #: secondary-sketch pruning pass (pruning/sketches.py), applied
    #: right after filter pruning on the compile-time scan set.
    sketch_result: Optional[PruningResult] = None
    join_result: Optional[PruningResult] = None
    limit_report: Optional[LimitPruneReport] = None
    topk_checks: int = 0
    topk_skipped: int = 0
    #: successful tightenings of this scan's top-k boundary (updates
    #: published by the downstream TopK / GROUP BY heap).
    topk_boundary_updates: int = 0
    partitions_loaded: int = 0
    #: loaded partitions the row filter passed through unevaluated
    #: because compile-time pruning proved them fully matching (§4.2)
    filter_bypassed: int = 0
    rows_scanned: int = 0
    #: estimated bytes read from the loaded partitions (column sizes)
    bytes_scanned: int = 0
    early_terminated: bool = False
    filter_eligible: bool = False
    #: the predicate had at least one sketch-probeable conjunct
    #: (independent of whether any sketches were actually present)
    sketch_eligible: bool = False
    #: pruned-partition attribution by sketch kind ("ngram"/"member")
    sketch_pruned_by_kind: dict = field(default_factory=dict)
    #: partitions predicate-cache hits (§8.2) removed from this scan;
    #: the name predates the cache absorbing the skip sets and stays
    #: because ``bench/harness.py`` reads it
    skip_set_pruned: int = 0
    #: columns the (simplified) filter predicate references — the
    #: workload signal the recluster advisor mines (which columns are
    #: hot, and how well zone maps prune on them). Empty when the scan
    #: has no prunable predicate.
    filter_columns: tuple[str, ...] = ()
    #: this scan's scan set came from the *predicate* cache (§8.2);
    #: distinct from the warehouse-local *data* cache counters below.
    cache_hit: bool = False
    #: partitions served from the warehouse-local data cache (§2)
    cache_hits: int = 0
    #: partitions that had to be fetched from object storage
    cache_misses: int = 0
    #: bytes the data cache kept off the object-store wire
    cache_bytes_saved: int = 0
    #: the scan was answered entirely from the metadata store
    metadata_only: bool = False
    #: partitions whose metadata could not be fetched; they were
    #: scanned unconditionally instead of being pruned (fail open)
    degraded_partitions: int = 0
    #: how filter pruning classified this scan's partitions:
    #: "vectorized" (one bulk kernel pass), "fallback" (per-partition
    #: AST walk), or "mixed" (bulk pass with per-partition exceptions,
    #: e.g. degraded zone maps). Empty when no filter pruning ran.
    pruning_mode: str = ""
    #: wall-clock milliseconds spent classifying partitions (real
    #: time, not the simulated cost-model clock).
    pruning_ms: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when this scan lost pruning for some partitions."""
        return self.degraded_partitions > 0

    @property
    def fully_matching_ids(self) -> list[int]:
        if self.filter_result is None:
            return []
        return list(self.filter_result.fully_matching_ids)

    @property
    def partitions_pruned(self) -> int:
        """Partitions removed by any technique (not merely unread)."""
        pruned = 0
        for result in (self.filter_result, self.sketch_result,
                       self.join_result):
            if result is not None:
                pruned += result.pruned
        pruned += self.skip_set_pruned
        if self.limit_report is not None:
            pruned += self.limit_report.result.pruned
        pruned += self.topk_skipped
        return pruned

    def pruning_results(self) -> list[PruningResult]:
        """All per-technique results, synthesizing entries for top-k
        skips and predicate-cache hits (which have no pruner of their
        own; every cache hit, on catalogs without sketches too, keeps
        the skip sets' SKETCH attribution: docs/observability.md)."""
        results = []
        if self.filter_result is not None:
            results.append(self.filter_result)
        if self.sketch_result is not None:
            results.append(self.sketch_result)
        if self.skip_set_pruned:
            from ..pruning.base import ScanSet

            sketch_pruned = (self.sketch_result.pruned
                             if self.sketch_result is not None else 0)
            filter_pruned = (self.filter_result.pruned
                             if self.filter_result is not None else 0)
            results.append(PruningResult(
                technique=PruneCategory.SKETCH,
                before=(self.total_partitions - filter_pruned
                        - sketch_pruned),
                kept=ScanSet(),
                pruned_ids=[-1] * self.skip_set_pruned,
            ))
        if self.join_result is not None:
            results.append(self.join_result)
        if self.limit_report is not None:
            results.append(self.limit_report.result)
        if self.topk_checks:
            from ..pruning.base import ScanSet

            entering = (self.total_partitions
                        - sum(r.pruned for r in results))
            results.append(PruningResult(
                technique=PruneCategory.TOPK,
                before=entering,
                kept=ScanSet(),
                pruned_ids=[-1] * self.topk_skipped,
                checks=self.topk_checks,
            ))
        return results


@dataclass
class QueryProfile:
    """Whole-query pruning and timing summary."""

    query_id: str = ""
    scans: list[ScanProfile] = field(default_factory=list)
    compile_ms: float = 0.0
    #: exec charges but those kept as counts below, at ``cost_model``'s
    #: rates, so that :attr:`exec_ms` does not depend on how rows are
    #: chunked or loads batched
    exec_charges_ms: float = 0.0
    rows_charged: int = 0
    loads_charged: int = 0
    load_bytes_charged: int = 0
    cached_loads_charged: int = 0
    cached_bytes_charged: int = 0
    lookups_charged: int = 0
    cost_model: CostModel = field(default_factory=CostModel)
    limit_eligible: bool = False
    topk_eligible: bool = False
    join_eligible: bool = False
    #: True when this query executed a rebound plan-cache template
    #: instead of compiling cold (repro.plancache).
    plan_cache_hit: bool = False
    #: True when the plan cache was consulted for this query at all
    #: (hit or miss); False when the cache is disabled or bypassed.
    plan_cache_checked: bool = False
    #: write-ahead-log records this statement appended (DML under
    #: durability; always 0 for SELECTs and with durability off).
    wal_appends: int = 0
    #: framed bytes those appends wrote to the WAL.
    wal_bytes: int = 0
    #: root trace span when the query ran with tracing enabled
    #: (see :mod:`repro.obs.trace`); None otherwise.
    trace: "Optional[Span]" = None

    @property
    def exec_ms(self) -> float:
        """The charges and the counts."""
        cost = self.cost_model
        return (self.exec_charges_ms + cost.scan_cost(self.rows_charged)
                + cost.load_cost(self.load_bytes_charged, self.loads_charged)
                + cost.cached_load_cost(self.cached_bytes_charged,
                                        self.cached_loads_charged)
                + cost.metadata_lookup_ms * self.lookups_charged)

    @property
    def total_ms(self) -> float:
        return self.compile_ms + self.exec_ms

    @property
    def degraded(self) -> bool:
        """True when any scan ran without metadata for some partitions."""
        return any(s.degraded for s in self.scans)

    @property
    def degraded_partitions(self) -> int:
        return sum(s.degraded_partitions for s in self.scans)

    @property
    def total_partitions(self) -> int:
        return sum(s.total_partitions for s in self.scans)

    @property
    def data_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.scans)

    @property
    def data_cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.scans)

    @property
    def data_cache_bytes_saved(self) -> int:
        return sum(s.cache_bytes_saved for s in self.scans)

    @property
    def partitions_loaded(self) -> int:
        return sum(s.partitions_loaded for s in self.scans)

    @property
    def topk_boundary_updates(self) -> int:
        return sum(s.topk_boundary_updates for s in self.scans)

    @property
    def partitions_pruned(self) -> int:
        return sum(s.partitions_pruned for s in self.scans)

    @property
    def pruning_time(self) -> float:
        """Wall-clock ms spent classifying partitions, across scans."""
        return sum(s.pruning_ms for s in self.scans)

    def new_scan(self, table: str) -> ScanProfile:
        profile = ScanProfile(table=table)
        self.scans.append(profile)
        return profile

    def flow_record(self) -> FlowRecord:
        """Condense this query into a :class:`FlowRecord` (Figure 11)."""
        results = [r for scan in self.scans
                   for r in scan.pruning_results()]
        eligible = {
            PruneCategory.FILTER: any(s.filter_eligible
                                      for s in self.scans),
            PruneCategory.SKETCH: any(s.sketch_eligible
                                      for s in self.scans),
            PruneCategory.LIMIT: self.limit_eligible,
            PruneCategory.TOPK: self.topk_eligible,
            PruneCategory.JOIN: self.join_eligible,
        }
        final = self.total_partitions - self.partitions_pruned
        return FlowRecord.from_results(
            self.query_id, self.total_partitions, results,
            eligible=eligible, final_partitions=final)

    def metrics_export(self) -> dict[str, float]:
        """Flat numeric view of this profile for the service-layer
        metrics registry (:mod:`repro.service.metrics`).

        Keys are stable metric names; values are plain numbers, so a
        registry can feed counters/histograms without knowing the
        profile's structure.
        """
        return {
            "compile_ms": self.compile_ms,
            "exec_ms": self.exec_ms,
            "total_ms": self.total_ms,
            "partitions_total": float(self.total_partitions),
            "partitions_loaded": float(self.partitions_loaded),
            "partitions_pruned": float(self.partitions_pruned),
            "rows_scanned": float(sum(s.rows_scanned
                                      for s in self.scans)),
            "bytes_scanned": float(sum(s.bytes_scanned
                                       for s in self.scans)),
            "filter_bypassed": float(sum(s.filter_bypassed
                                         for s in self.scans)),
            "scans": float(len(self.scans)),
            "degraded": 1.0 if self.degraded else 0.0,
            "partitions_degraded": float(self.degraded_partitions),
            "pruning_time_ms": self.pruning_time,
            "scans_vectorized": float(sum(
                1 for s in self.scans
                if s.pruning_mode == "vectorized")),
            "sketch_pruned": float(sum(
                s.sketch_result.pruned for s in self.scans
                if s.sketch_result is not None)),
            "sketch_checks": float(sum(
                s.sketch_result.checks for s in self.scans
                if s.sketch_result is not None)),
            "predicate_cache_hits": float(sum(
                1 for s in self.scans if s.cache_hit)),
            "skip_set_pruned": float(sum(
                s.skip_set_pruned for s in self.scans)),
            "data_cache_hits": float(self.data_cache_hits),
            "data_cache_misses": float(self.data_cache_misses),
            "data_cache_bytes_saved": float(self.data_cache_bytes_saved),
            "topk_boundary_updates": float(self.topk_boundary_updates),
            "plan_cache_hits": 1.0 if self.plan_cache_hit else 0.0,
            "plan_cache_misses": 1.0 if (self.plan_cache_checked
                                         and not self.plan_cache_hit)
            else 0.0,
            "wal_appends": float(self.wal_appends),
            "wal_bytes": float(self.wal_bytes),
        }

    def resilience_summary(self) -> str:
        """One line: which scans, if any, ran without metadata."""
        if not self.degraded:
            return "degraded: no"
        degraded = [f"{s.table}({s.degraded_partitions})"
                    for s in self.scans if s.degraded]
        return (f"DEGRADED: pruning unavailable for "
                f"{self.degraded_partitions} partition(s) — scanned "
                f"without metadata: {', '.join(degraded)}")

    def pruning_summary(self) -> str:
        """Human-readable per-scan pruning report."""
        lines = []
        for scan in self.scans:
            parts = [f"scan {scan.table}: {scan.total_partitions} parts"]
            if scan.filter_result is not None:
                parts.append(
                    f"filter -> {scan.filter_result.after}"
                    f" (fm={len(scan.fully_matching_ids)},"
                    f" unfiltered={scan.filter_bypassed})")
            if scan.sketch_result is not None:
                parts.append(f"sketch -> {scan.sketch_result.after}")
            if scan.cache_hit:
                parts.append(
                    f"predicate cache -> -{scan.skip_set_pruned}")
            if scan.join_result is not None:
                parts.append(f"join -> {scan.join_result.after}")
            if scan.limit_report is not None:
                parts.append(
                    f"limit[{scan.limit_report.outcome.value}] -> "
                    f"{scan.limit_report.result.after}")
            if scan.topk_skipped:
                parts.append(f"topk skipped {scan.topk_skipped}")
            if scan.topk_boundary_updates:
                parts.append(
                    f"boundary updates {scan.topk_boundary_updates}")
            parts.append(f"loaded {scan.partitions_loaded}")
            if scan.degraded:
                parts.append(
                    f"DEGRADED ({scan.degraded_partitions} without "
                    f"metadata)")
            lines.append(", ".join(parts))
        lines.append(f"simulated time: {self.total_ms:.2f} ms "
                     f"(compile {self.compile_ms:.2f} ms)")
        return "\n".join(lines)


#: shared no-op context manager returned by :meth:`ExecContext.span`
#: when tracing is off — allocated once so the untraced hot path costs
#: a single attribute check, not an object per call.
_NULL_CM = nullcontext(None)


class ExecContext:
    """Shared state for one query execution."""

    def __init__(self, storage: StorageLayer,
                 metadata: MetadataStore | None = None,
                 query_id: str = "",
                 tracer: "Optional[Tracer]" = None,
                 cache: "Optional[PartitionCache]" = None):
        self.storage = storage
        self.metadata = metadata
        self.cost_model = storage.cost_model
        self.profile = QueryProfile(query_id=query_id,
                                    cost_model=self.cost_model)
        #: optional warehouse-local data cache scans route loads through
        #: (the :class:`~repro.service.QueryService`'s one data cache).
        self.cache = cache
        #: per-query tracer (single-threaded, like the scan).
        self.tracer = tracer
        #: the span runtime operators parent their scan spans under
        #: (set by the catalog around the execute phase).
        self.exec_span: "Optional[Span]" = None

    # -- tracing hooks (no-ops when no tracer is attached) ---------------
    def span(self, name: str, **attrs):
        """Context manager recording a well-nested span, or a shared
        no-op when tracing is off."""
        if self.tracer is None:
            return _NULL_CM
        return self.tracer.span(name, **attrs)

    def start_span(self, name: str, **attrs) -> "Optional[Span]":
        """Open an explicitly-parented runtime span under the execute
        phase (generator-safe; caller must ``end()`` it). Returns None
        when tracing is off."""
        if self.tracer is None:
            return None
        return self.tracer.start_span(name, parent=self.exec_span,
                                      **attrs)

    def trace_event(self, name: str, parent: "Optional[Span]" = None,
                    **attrs) -> None:
        """Record a zero-duration trace event (no-op when untraced)."""
        if self.tracer is not None:
            self.tracer.event(name, parent=parent or self.exec_span,
                              **attrs)

    # -- simulated clock -------------------------------------------------
    def charge_compile(self, ms: float) -> None:
        self.profile.compile_ms += ms

    def charge_exec(self, ms: float) -> None:
        self.profile.exec_charges_ms += ms

    def charge_loads(self, loads: int, nbytes: int, rows: int,
                     cached_loads: int = 0, cached_bytes: int = 0) -> None:
        """Charge loads, data-cache hits (local reads, no object-store
        trip) and the rows they hold."""
        profile = self.profile
        profile.rows_charged += rows
        profile.loads_charged += loads
        profile.load_bytes_charged += nbytes
        profile.cached_loads_charged += cached_loads
        profile.cached_bytes_charged += cached_bytes

    def charge_rows(self, rows: int) -> None:
        self.profile.rows_charged += rows

    def charge_prune_checks(self, checks: int,
                            at_compile_time: bool = False,
                            vectorized: bool = False) -> None:
        rate = (self.cost_model.vectorized_prune_check_ms if vectorized
                else self.cost_model.prune_check_ms)
        ms = checks * rate
        if at_compile_time:
            self.charge_compile(ms)
        else:
            self.charge_exec(ms)

    def charge_metadata_lookups(self, lookups: int,
                                at_compile_time: bool = False) -> None:
        if at_compile_time:
            self.charge_compile(lookups * self.cost_model.metadata_lookup_ms)
        else:
            self.profile.lookups_charged += lookups
