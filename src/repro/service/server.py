"""The query service facade.

:class:`QueryService` is the reproduction's Cloud Services layer
(§2): it sits above a :class:`~repro.catalog.Catalog` and runs one
statement at a time, like a ``sqlite3`` connection. Client threads
may share a service; they take turns on its lock, which a statement
holds from its result-cache lookup to its telemetry record:

1. **Result cache** — repeated SELECTs are answered from
   :class:`~repro.service.result_cache.ResultCache` without parsing
   or execution, and go stale when a table's version moves.
2. **One warehouse** — misses and DML run on the catalog, with loads
   routed through one warehouse-local data cache when
   ``data_cache_bytes`` is set.
3. **Durability** — with ``durability_dir`` every committed DML
   statement is logged before it is applied, and the statement that
   grows the log past ``durability_checkpoint_bytes`` checkpoints
   before it returns.
4. **Telemetry** — every statement feeds the
   :class:`~repro.service.metrics.MetricsRegistry` (lock wait and
   latency histograms, cache hit ratio, partitions pruned/loaded) and
   the catalog's telemetry sink.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from ..catalog import Catalog, QueryResult
from ..errors import ReproError
from ..obs.telemetry import TelemetryRecord
from ..plancache.parameterize import parameterize_text
from ..sql.normalize import normalize_sql, referenced_tables
from ..sql.parser import SelectStmt, parse_statement
from .metrics import MetricsRegistry
from .result_cache import ResultCache

__all__ = ["QueryService"]

#: the one warehouse's name, written to telemetry's ``cluster`` field
WAREHOUSE = "cluster-0"

_QUERY_IDS = itertools.count(1)


class QueryService:
    """A front end over one catalog that runs one statement at a time."""

    def __init__(self, catalog: Catalog, *,
                 result_cache_entries: int = 256,
                 enable_result_cache: bool = True,
                 metrics: MetricsRegistry | None = None,
                 telemetry_capacity: int = 4096,
                 data_cache_bytes: int | None = None,
                 plan_cache_entries: int | None = None,
                 durability_dir: str | Path | None = None,
                 durability_checkpoint_bytes: int = 4 * 2 ** 20):
        self.catalog = catalog
        #: crash safety (WAL + checkpoints, see :mod:`repro.durability`).
        #: Opening a directory with existing state replays it into the
        #: catalog before the service takes traffic.
        if durability_dir is not None:
            catalog.enable_durability(
                durability_dir,
                checkpoint_bytes=durability_checkpoint_bytes)
        #: plan-shape compiled-plan cache (Fig. 12): result-cache
        #: misses that repeat a known shape skip parse/bind/plan and
        #: only rebind literals. ``None`` leaves the catalog's own
        #: setting untouched.
        if plan_cache_entries is not None:
            catalog.enable_plan_cache(max_entries=plan_cache_entries)
        #: fleet telemetry: the catalog writes one record per executed
        #: statement; the service annotates it with lock wait, wall
        #: clock, and warehouse, and adds records for cache hits and
        #: failures (which never reach the catalog's recorder).
        self.telemetry = catalog.enable_telemetry(
            capacity=telemetry_capacity)
        #: the warehouse-local data cache (paper §2) every scan loads
        #: through; ``None`` turns data caching off.
        self.data_cache = None
        if data_cache_bytes is not None:
            from ..cache.partition_cache import PartitionCache

            self.data_cache = PartitionCache(
                data_cache_bytes,
                name=f"{WAREHOUSE}-data-cache").attach(catalog.metadata)
        #: read-only view of the one warehouse, in the shape
        #: ``bench/harness.py`` reads (``pool.clusters[i].cache``)
        self.pool = SimpleNamespace(clusters=(
            SimpleNamespace(name=WAREHOUSE, cache=self.data_cache),))
        self.result_cache = ResultCache(result_cache_entries) \
            if enable_result_cache else None
        self.metrics = metrics or MetricsRegistry()
        #: held by one statement from lookup to record; also by
        #: :meth:`insert` and by each recluster slice
        self._lock = threading.Lock()
        #: reclustering loop (see :meth:`enable_reclustering`); None
        #: until enabled.
        self.reclusterer = None
        if self.result_cache is not None:
            catalog.add_change_listener(self._on_table_change)

    # ------------------------------------------------------------------
    # Catalog change hook
    # ------------------------------------------------------------------
    def _on_table_change(self, table: str, version: int) -> None:
        self.result_cache.invalidate_table(table)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sql(self, text: str) -> QueryResult:
        """Run one statement and return its result (or raise its
        error), after any statement already running finishes."""
        metrics = self.metrics
        metrics.counter("queries_submitted").inc()
        waited = time.perf_counter()
        with self._lock:
            start = time.perf_counter()
            queue_wait_ms = (start - waited) * 1e3
            try:
                result = self._execute(text, start, queue_wait_ms)
            except BaseException as exc:
                metrics.counter("queries_failed").inc()
                # The catalog's recorder never saw it finish.
                self.telemetry.record(TelemetryRecord(
                    query_id=f"svc-{next(_QUERY_IDS)}", sql=text,
                    status="error", error=type(exc).__name__,
                    cluster=WAREHOUSE, queue_wait_ms=queue_wait_ms,
                    wall_ms=(time.perf_counter() - start) * 1e3))
                raise
        metrics.counter("queries_completed").inc()
        return result

    def insert(self, table: str, rows) -> list[int]:
        """Bulk-load rows through the service, between statements.
        Returns the new partition ids."""
        with self._lock:
            new_ids = self.catalog.insert(table, rows)
            self._checkpoint_if_due()
        self.metrics.counter("dml_statements").inc()
        return new_ids

    def enable_reclustering(self, **options: Any):
        """Attach the telemetry-driven reclustering loop
        (:class:`~repro.recluster.ReclusterService`); drive it with
        ``reclusterer.step()``. Idempotent: a second call returns the
        existing instance unchanged. Keyword options are forwarded to
        the ReclusterService constructor (``budget_bytes``,
        ``advisor``, ...).
        """
        if self.reclusterer is None:
            from ..recluster import ReclusterService

            self.reclusterer = ReclusterService(self, **options)
        return self.reclusterer

    def describe(self) -> dict[str, Any]:
        """Operational snapshot: caches and key metrics."""
        snap = {
            "cache_entries": len(self.result_cache)
            if self.result_cache is not None else 0,
            "cache_hit_ratio": self.metrics.cache_hit_ratio(),
            "pruning_ratio": self.metrics.pruning_ratio(),
            "pruning_time_ms": self.metrics.counter(
                "pruning_time_ms").value,
            "scans_vectorized": self.metrics.counter(
                "scans_vectorized").value,
        }
        for name in ("queries_completed", "queries_failed",
                     "queries_degraded"):
            snap[name] = self.metrics.counter(name).value
        if self.data_cache is not None:
            stats = self.data_cache.stats().to_dict()
            snap["data_cache"] = {
                key: stats[key] for key in (
                    "hits", "misses", "hit_ratio", "bytes_saved",
                    "resident_bytes")}
            snap["data_cache"]["clusters"] = {WAREHOUSE: stats}
        if self.catalog.plan_cache is not None:
            snap["plan_cache"] = self.catalog.plan_cache.stats.to_dict()
            snap["plan_cache_hit_ratio"] = \
                self.metrics.plan_cache_hit_ratio()
        if self.catalog.sketch_config is not None:
            sketched = 0
            try:
                sketched = sum(
                    len(self.catalog.sketches_of(name))
                    for name in self.catalog.tables)
            except Exception:  # noqa: BLE001 - degraded metadata
                pass
            snap["sketches"] = {
                "enabled": True,
                "partitions_with_sketches": sketched,
                "build_failures": self.catalog.sketch_build_failures,
                "build_ms": round(self.catalog.sketch_build_ms, 3),
            }
        if self.catalog.predicate_cache is not None:
            snap["predicate_cache"] = self.catalog.predicate_cache.stats()
        if self.catalog.durability is not None:
            snap["durability"] = self.catalog.durability.stats()
            snap["checkpoints"] = self.metrics.counter(
                "checkpoints").value
        if self.reclusterer is not None:
            snap["reclustering"] = self.reclusterer.status()
            for name in ("recluster_jobs_started",
                         "recluster_jobs_completed",
                         "recluster_slices",
                         "recluster_partitions_rewritten",
                         "recluster_bytes_rewritten"):
                snap[name] = self.metrics.counter(name).value
        snap["telemetry"] = self.telemetry.summary()
        return snap

    # ------------------------------------------------------------------
    # Internals (run under the service lock)
    # ------------------------------------------------------------------
    def _checkpoint_if_due(self) -> None:
        """Checkpoint once the WAL has grown past its threshold; the
        statement that grew it pays for the snapshot."""
        manager = self.catalog.durability
        if manager is not None and manager.should_checkpoint():
            manager.checkpoint(self.catalog)
            self.metrics.counter("checkpoints").inc()

    def _execute(self, text: str, start: float,
                 queue_wait_ms: float) -> QueryResult:
        # One token pass feeds the result-cache key, the select/DML
        # dispatch, the parse (a hit runs none) and the plan cache.
        stmt = None
        try:
            pq = parameterize_text(text)
            select = pq.is_select
        except (ReproError, ValueError):
            # The parse reports the text's first error, as it always
            # did; a text it accepts is keyed on its normalized form.
            pq = None
            stmt = parse_statement(text)
            select = isinstance(stmt, SelectStmt)
        cache_key: Any = None
        if select and self.result_cache is not None:
            cache_key = pq.cache_key if pq is not None \
                else normalize_sql(text)
            tables = self.result_cache.tables(cache_key)
            versions = self.catalog.table_versions(tables)
            cached = self.result_cache.lookup(cache_key, versions)
            if cached is not None:
                self.metrics.counter("result_cache_hits").inc()
                result = QueryResult(schema=cached.schema,
                                     rows=cached.rows,
                                     profile=cached.profile,
                                     sql=text)
                # No warehouse work happened: record the serving
                # latency but do not re-count the cached profile's
                # pruning/I-O numbers.
                wall_ms = (time.perf_counter() - start) * 1e3
                self.metrics.observe_query(wall_ms, queue_wait_ms)
                self.telemetry.record(TelemetryRecord(
                    query_id=f"svc-{next(_QUERY_IDS)}", sql=text,
                    kind="select", tables=tables,
                    status="cache_hit", result_cache_hit=True,
                    rows_returned=len(result.rows),
                    queue_wait_ms=queue_wait_ms, wall_ms=wall_ms))
                return result
        if stmt is None:
            stmt = parse_statement(text, pq.tokens)
        if cache_key is not None:  # a miss that parses
            self.metrics.counter("result_cache_misses").inc()
            versions = self.catalog.table_versions(
                referenced_tables(stmt))
        elif not select:
            self.metrics.counter("dml_statements").inc()
        result = self.catalog.sql(text, cache=self.data_cache,
                                  parsed=stmt, pq=pq)
        if cache_key is not None:
            self.result_cache.store(cache_key, result, versions)
        if not select:
            self._checkpoint_if_due()
        self._record(result, start, queue_wait_ms)
        return result

    def _record(self, result: QueryResult, start: float,
                queue_wait_ms: float) -> None:
        wall_ms = (time.perf_counter() - start) * 1e3
        self.metrics.observe_query(wall_ms, queue_wait_ms)
        self.metrics.observe_profile(result.profile)
        if result.profile.degraded:
            self.metrics.counter("queries_degraded").inc()
        # The catalog already wrote this query's telemetry record
        # (keyed by its profile id); enrich it with what only the
        # service knows. A record evicted from the ring between then
        # and now is re-recorded whole.
        annotated = self.telemetry.annotate(
            result.profile.query_id,
            queue_wait_ms=queue_wait_ms, wall_ms=wall_ms,
            cluster=WAREHOUSE)
        if not annotated:
            record = TelemetryRecord.from_result(result,
                                                 wall_ms=wall_ms)
            record.queue_wait_ms = queue_wait_ms
            record.cluster = WAREHOUSE
            self.telemetry.record(record)
