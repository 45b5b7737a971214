"""The multi-tenant query service facade.

:class:`QueryService` is the reproduction's Cloud Services layer
(§2): it sits above a :class:`~repro.catalog.Catalog` and multiplexes
many concurrent client threads onto shared simulated compute:

1. **Result cache** — repeated SELECTs are answered directly from
   :class:`~repro.service.result_cache.ResultCache` without admission
   or execution, and invalidate automatically on table version bumps.
2. **Admission** — cache misses acquire a concurrency slot from the
   elastic :class:`~repro.service.pool.WarehousePool` (bounded FIFO
   queue, queue-wait timeout, typed rejection on overload).
3. **Isolation** — SELECTs run under a shared lock, DML and
   reclustering under an exclusive lock, so every query sees a
   consistent table snapshot (the simulation's stand-in for
   snapshot isolation over immutable micro-partitions).
4. **Telemetry** — every query feeds the
   :class:`~repro.service.metrics.MetricsRegistry`: queue wait and
   latency histograms, cache hit ratio, partitions pruned/loaded.

Clients either call :meth:`QueryService.sql` (synchronous shim, runs
on the calling thread) or :meth:`submit` / :meth:`result` /
:meth:`cancel` for asynchronous submission.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

from ..catalog import Catalog, QueryResult
from ..errors import QueryTimeout, ReproError
from ..obs.telemetry import TelemetryRecord
from ..plancache.parameterize import parameterize_text
from ..sql.normalize import normalize_sql, referenced_tables
from ..sql.parser import SelectStmt, parse_statement
from .admission import CancelToken, QueryCancelled, ReadWriteLock
from .metrics import MetricsRegistry
from .pool import WarehousePool
from .result_cache import ResultCache

__all__ = ["QueryStatus", "QueryHandle", "ServiceError", "QueryService"]

_HANDLE_COUNTER = itertools.count(1)


class ServiceError(ReproError):
    """The service could not process a request (unknown handle, ...)."""


class QueryStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class QueryHandle:
    """Client-visible state of one submitted query."""

    query_id: str
    sql: str
    status: QueryStatus = QueryStatus.QUEUED
    result: QueryResult | None = None
    error: BaseException | None = None
    cache_hit: bool = False
    #: the query succeeded but pruning degraded to full scans for
    #: some partitions (metadata unavailable); rows are still correct
    degraded: bool = False
    cluster: str = ""
    queue_wait_ms: float = 0.0
    latency_ms: float = 0.0
    token: CancelToken = field(default_factory=CancelToken)
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False, compare=False)

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)


class QueryService:
    """A thread-safe, multi-tenant front end over one catalog."""

    def __init__(self, catalog: Catalog, *,
                 slots_per_cluster: int = 8,
                 max_queue_per_cluster: int = 32,
                 min_clusters: int = 1, max_clusters: int = 4,
                 scale_out_queue_depth: int = 2,
                 scale_in_idle_checks: int = 8,
                 queue_timeout: float | None = None,
                 result_cache_entries: int = 256,
                 enable_result_cache: bool = True,
                 metrics: MetricsRegistry | None = None,
                 telemetry_capacity: int = 4096,
                 data_cache_bytes: int | None = None,
                 warm_new_caches: bool = True,
                 plan_cache_entries: int | None = None,
                 durability_dir: str | Path | None = None,
                 durability_checkpoint_bytes: int = 4 * 2 ** 20):
        self.catalog = catalog
        #: crash safety (WAL + checkpoints, see :mod:`repro.durability`).
        #: Opening a directory with existing state replays it into the
        #: catalog before the service takes traffic; afterwards every
        #: committed DML statement is logged before it is applied, and
        #: a background thread checkpoints once the log grows past
        #: ``durability_checkpoint_bytes``.
        if durability_dir is not None:
            catalog.enable_durability(
                durability_dir,
                checkpoint_bytes=durability_checkpoint_bytes)
        self._checkpoint_lock = threading.Lock()
        self._checkpointing = False
        #: plan-shape compiled-plan cache (Fig. 12): result-cache
        #: misses that repeat a known shape skip parse/bind/plan and
        #: only rebind literals. ``None`` leaves the catalog's own
        #: setting untouched.
        if plan_cache_entries is not None:
            catalog.enable_plan_cache(max_entries=plan_cache_entries)
        #: fleet telemetry: the catalog writes one record per executed
        #: statement; the service annotates it with queue wait, wall
        #: clock, and cluster, and adds records for cache hits and
        #: failures (which never reach the catalog's recorder).
        self.telemetry = catalog.enable_telemetry(
            capacity=telemetry_capacity)
        #: per-cluster warehouse-local data caches (paper §2): each
        #: cluster caches the partitions it scans on its own local
        #: storage, retired clusters drop theirs, scaled-out clusters
        #: are optionally warmed from the busiest sibling. ``None``
        #: turns data caching off (the default keeps existing
        #: deployments byte-identical).
        cache_factory = None
        if data_cache_bytes is not None:
            from ..cache.partition_cache import PartitionCache

            def cache_factory(name: str) -> PartitionCache:
                return PartitionCache(
                    data_cache_bytes,
                    name=f"{name}-data-cache").attach(catalog.metadata)
        self.pool = WarehousePool(
            slots_per_cluster=slots_per_cluster,
            max_queue_per_cluster=max_queue_per_cluster,
            min_clusters=min_clusters, max_clusters=max_clusters,
            scale_out_queue_depth=scale_out_queue_depth,
            scale_in_idle_checks=scale_in_idle_checks,
            cache_factory=cache_factory,
            warm_new_caches=warm_new_caches)
        self.result_cache = ResultCache(result_cache_entries) \
            if enable_result_cache else None
        self.metrics = metrics or MetricsRegistry()
        self.queue_timeout = queue_timeout
        self._table_lock = ReadWriteLock()
        self._queries: dict[str, QueryHandle] = {}
        self._queries_lock = threading.Lock()
        #: background reclustering loop (see
        #: :meth:`enable_reclustering`); None until enabled.
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
    def sql(self, text: str, *,
            queue_timeout: float | None = None,
            timeout: float | None = None) -> QueryResult:
        """Synchronous shim: submit, execute, and return the result
        (or raise the query's error).

        With ``timeout`` (seconds) the statement runs on a service
        thread; if it has not finished in time it is cooperatively
        cancelled and :class:`~repro.errors.QueryTimeout` is raised.
        Without a timeout it runs on the calling thread.
        """
        if timeout is None:
            handle = self._register(text)
            self._run(handle, queue_timeout=queue_timeout)
            return self.result(handle.query_id)
        handle = self.submit(text, queue_timeout=queue_timeout)
        if not handle.wait(timeout):
            self.cancel(handle)
            self.metrics.counter("queries_timed_out").inc()
            raise QueryTimeout(
                f"query {handle.query_id} exceeded its {timeout}s "
                f"deadline and was cancelled")
        return self.result(handle.query_id)

    def submit(self, text: str, *,
               queue_timeout: float | None = None) -> QueryHandle:
        """Asynchronous submission; execution starts immediately on a
        service thread. Returns the handle to poll/await."""
        handle = self._register(text)
        worker = threading.Thread(
            target=self._run, args=(handle,),
            kwargs={"queue_timeout": queue_timeout},
            name=f"query-{handle.query_id}", daemon=True)
        worker.start()
        return handle

    def result(self, query_id: str | QueryHandle,
               timeout: float | None = None) -> QueryResult:
        """Block until a query finishes and return its result.

        Raises the query's own error for failed/cancelled/rejected
        queries, or :class:`ServiceError` on unknown ids / timeout.
        """
        handle = self._handle(query_id)
        if not handle.wait(timeout):
            raise ServiceError(
                f"query {handle.query_id} still "
                f"{handle.status.value} after {timeout}s")
        if handle.error is not None:
            raise handle.error
        assert handle.result is not None
        return handle.result

    def cancel(self, query_id: str | QueryHandle) -> bool:
        """Request cooperative cancellation; True if the query had
        not already finished."""
        handle = self._handle(query_id)
        if handle.finished:
            return False
        handle.token.cancel()
        return True

    def status(self, query_id: str | QueryHandle) -> QueryStatus:
        return self._handle(query_id).status

    def insert(self, table: str, rows, *,
               queue_timeout: float | None = None) -> list[int]:
        """Bulk-load rows through the service (admission + exclusive
        lock), so concurrent SELECTs never observe a half-applied
        load. Returns the new partition ids."""
        cluster, _ = self.pool.acquire(
            timeout=self.queue_timeout
            if queue_timeout is None else queue_timeout)
        try:
            with self._table_lock.write():
                new_ids = self.catalog.insert(table, rows)
        finally:
            self.pool.release(cluster)
        self.metrics.counter("dml_statements").inc()
        self._maybe_checkpoint()
        return new_ids

    def enable_reclustering(self, *, start: bool = False,
                            **options: Any):
        """Attach the telemetry-driven background reclustering loop
        (:class:`~repro.recluster.ReclusterService`). Idempotent: a
        second call returns the existing instance unchanged.

        With ``start=True`` the polling daemon starts immediately;
        otherwise drive it explicitly via ``reclusterer.step()`` (or
        call ``reclusterer.start()`` later). Keyword options are
        forwarded to the ReclusterService constructor
        (``budget_bytes``, ``pause_queue_depth``, ``advisor``, ...).
        """
        if self.reclusterer is None:
            from ..recluster import ReclusterService

            self.reclusterer = ReclusterService(self, **options)
            if start:
                self.reclusterer.start()
        return self.reclusterer

    def describe(self) -> dict[str, Any]:
        """Operational snapshot: pool shape, cache, key metrics."""
        snap = {
            "clusters": self.pool.n_clusters,
            "running": self.pool.total_running,
            "queued": self.pool.total_queued,
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
                     "queries_cancelled", "queries_rejected",
                     "queries_degraded",
                     "queries_timed_out"):
            snap[name] = self.metrics.counter(name).value
        caches = [c for c in self.pool.clusters
                  if c.cache is not None]
        if caches:
            per_cluster = {c.name: c.cache.stats().to_dict()
                           for c in caches}
            hits = sum(s["hits"] for s in per_cluster.values())
            misses = sum(s["misses"] for s in per_cluster.values())
            snap["data_cache"] = {
                "hits": hits,
                "misses": misses,
                "hit_ratio": (hits / (hits + misses)
                              if hits + misses else 0.0),
                "bytes_saved": sum(s["bytes_saved"]
                                   for s in per_cluster.values()),
                "resident_bytes": sum(s["resident_bytes"]
                                      for s in per_cluster.values()),
                "clusters": per_cluster,
            }
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
                         "recluster_bytes_rewritten",
                         "recluster_pauses"):
                snap[name] = self.metrics.counter(name).value
        snap["telemetry"] = self.telemetry.summary()
        return snap

    # ------------------------------------------------------------------
    # Background checkpointing
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        """Kick off a background checkpoint when the WAL has grown past
        the configured threshold. Single-flight: at most one checkpoint
        thread runs at a time; DML keeps committing (to the WAL) while
        a previous checkpoint is still writing."""
        manager = self.catalog.durability
        if manager is None or not manager.should_checkpoint():
            return
        with self._checkpoint_lock:
            if self._checkpointing:
                return
            self._checkpointing = True
        threading.Thread(target=self._run_checkpoint,
                         name="durability-checkpoint",
                         daemon=True).start()

    def _run_checkpoint(self) -> None:
        try:
            manager = self.catalog.durability
            if manager is None:
                return
            # The exclusive lock gives the snapshot a quiesced catalog;
            # DML queued behind it resumes logging to the truncated WAL.
            with self._table_lock.write():
                if not manager.should_checkpoint():
                    return
                manager.checkpoint(self.catalog)
            self.metrics.counter("checkpoints").inc()
        finally:
            with self._checkpoint_lock:
                self._checkpointing = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(self, text: str) -> QueryHandle:
        handle = QueryHandle(
            query_id=f"svc-{next(_HANDLE_COUNTER)}", sql=text)
        with self._queries_lock:
            self._queries[handle.query_id] = handle
        self.metrics.counter("queries_submitted").inc()
        return handle

    def _handle(self, query_id: str | QueryHandle) -> QueryHandle:
        if isinstance(query_id, QueryHandle):
            return query_id
        with self._queries_lock:
            try:
                return self._queries[query_id]
            except KeyError:
                raise ServiceError(
                    f"unknown query id {query_id!r}") from None

    def _finish(self, handle: QueryHandle, status: QueryStatus,
                *, result: QueryResult | None = None,
                error: BaseException | None = None) -> None:
        handle.result = result
        handle.error = error
        handle.status = status
        counter = {
            QueryStatus.DONE: "queries_completed",
            QueryStatus.FAILED: "queries_failed",
            QueryStatus.CANCELLED: "queries_cancelled",
        }[status]
        self.metrics.counter(counter).inc()
        handle._done.set()

    def _run(self, handle: QueryHandle,
             queue_timeout: float | None = None) -> None:
        start = time.perf_counter()
        try:
            self._execute(handle, queue_timeout)
        except QueryCancelled as exc:
            self._record_terminal(handle, "cancelled", exc, start)
            self._finish(handle, QueryStatus.CANCELLED, error=exc)
        except BaseException as exc:  # noqa: BLE001 — stored, re-raised
            from .admission import AdmissionRejected, QueueWaitTimeout

            if isinstance(exc, AdmissionRejected):
                self.metrics.counter("queries_rejected").inc()
            elif isinstance(exc, QueueWaitTimeout):
                self.metrics.counter("queries_timed_out").inc()
            self._record_terminal(handle, "error", exc, start)
            self._finish(handle, QueryStatus.FAILED, error=exc)
        finally:
            handle.latency_ms = (time.perf_counter() - start) * 1e3

    def _record_terminal(self, handle: QueryHandle, status: str,
                         error: BaseException, start: float) -> None:
        """Telemetry for a query that never produced a result (failed
        or cancelled) — the catalog's recorder never saw it finish."""
        self.telemetry.record(TelemetryRecord(
            query_id=handle.query_id, sql=handle.sql,
            status=status, error=type(error).__name__,
            cluster=handle.cluster,
            queue_wait_ms=handle.queue_wait_ms,
            wall_ms=(time.perf_counter() - start) * 1e3))

    def _execute(self, handle: QueryHandle,
                 queue_timeout: float | None) -> None:
        handle.token.raise_if_cancelled()
        text = handle.sql
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
            with self._table_lock.read():
                versions = self.catalog.table_versions(tables)
                cached = self.result_cache.lookup(cache_key, versions)
            if cached is not None:
                self.metrics.counter("result_cache_hits").inc()
                handle.cache_hit = True
                result = QueryResult(schema=cached.schema,
                                     rows=cached.rows,
                                     profile=cached.profile,
                                     sql=text)
                # No warehouse work happened: record the (near-zero)
                # serving latency but do not re-count the cached
                # profile's pruning/I-O numbers.
                self.metrics.observe_query(0.0, 0.0)
                self.telemetry.record(TelemetryRecord(
                    query_id=handle.query_id, sql=text,
                    kind="select", tables=tables,
                    status="cache_hit", result_cache_hit=True,
                    rows_returned=len(result.rows)))
                self._finish(handle, QueryStatus.DONE, result=result)
                return
        if stmt is None:
            stmt = parse_statement(text, pq.tokens)
        if cache_key is not None:  # a miss that parses
            self.metrics.counter("result_cache_misses").inc()
        elif not select:
            self.metrics.counter("dml_statements").inc()
        cluster, wait = self.pool.acquire(
            timeout=self.queue_timeout
            if queue_timeout is None else queue_timeout,
            token=handle.token)
        handle.cluster = cluster.name
        handle.queue_wait_ms = wait * 1e3
        try:
            handle.token.raise_if_cancelled()
            handle.status = QueryStatus.RUNNING
            started = time.perf_counter()
            if select:
                with self._table_lock.read():
                    if cache_key is not None:  # fixed under the lock
                        versions = self.catalog.table_versions(
                            referenced_tables(stmt))
                    result = self.catalog.sql(text, cache=cluster.cache,
                                              parsed=stmt, pq=pq)
                    if cache_key is not None:
                        self.result_cache.store(cache_key, result,
                                                versions)
            else:
                with self._table_lock.write():
                    result = self.catalog.sql(text, cache=cluster.cache,
                                              parsed=stmt, pq=pq)
        finally:
            self.pool.release(cluster)
        if not select:
            self._maybe_checkpoint()
        if select:
            # A SELECT cancelled mid-execution discards its result;
            # committed DML is reported as done regardless (its
            # effects are already visible).
            handle.token.raise_if_cancelled()
        self._record(handle, result, started)
        self._finish(handle, QueryStatus.DONE, result=result)

    def _record(self, handle: QueryHandle, result: QueryResult,
                started: float) -> None:
        wall_ms = (time.perf_counter() - started) * 1e3
        self.metrics.observe_query(wall_ms, handle.queue_wait_ms)
        self.metrics.observe_profile(result.profile)
        handle.degraded = result.profile.degraded
        if handle.degraded:
            self.metrics.counter("queries_degraded").inc()
        # The catalog already wrote this query's telemetry record
        # (keyed by its profile id); enrich it with what only the
        # service knows. A record evicted from the ring between then
        # and now is re-recorded whole.
        annotated = self.telemetry.annotate(
            result.profile.query_id,
            queue_wait_ms=handle.queue_wait_ms, wall_ms=wall_ms,
            cluster=handle.cluster)
        if not annotated:
            record = TelemetryRecord.from_result(result,
                                                 wall_ms=wall_ms)
            record.queue_wait_ms = handle.queue_wait_ms
            record.cluster = handle.cluster
            self.telemetry.record(record)
