"""The catalog: the top-level API of the engine.

A :class:`Catalog` owns the storage layer, the metadata store, the
tables, and an optional predicate cache, and exposes the user-facing
entry point :meth:`Catalog.sql`::

    catalog = Catalog()
    catalog.create_table_from_rows("t", schema, rows,
                                   layout=Layout.sorted_by("ts"))
    result = catalog.sql("SELECT * FROM t WHERE ts >= 100 LIMIT 5")
    print(result.rows, result.profile.pruning_summary())

DML is partition-wise, mirroring immutable micro-partitions: INSERT
creates new partitions; DELETE and UPDATE rewrite every partition that
contains affected rows, producing fresh partition ids — exactly the
behaviour the predicate cache's invalidation rules (§8.2) react to.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .cache.partition_cache import PartitionCache
from .engine.context import ExecContext, QueryProfile
from .engine.executor import execute
from .errors import (
    DurabilityError,
    MetadataError,
    MetadataUnavailableError,
    SchemaError,
    TransientError,
)
from .expr import ast
from .expr.eval import bind, bind_predicate
from .obs.telemetry import TelemetryRecord, TelemetrySink
from .obs.trace import Tracer, render_span_tree
from .plan.compiler import CompilerOptions, QueryCompiler
from .plan.logical import LogicalNode
from .pruning.base import ScanSet
from .pruning.predicate_cache import PredicateCache
from .sql import parse_select
from .sql.planner import plan_select
from .storage.builder import (DEFAULT_ROWS_PER_PARTITION, build_table,
                              build_table_from_columns, concat_partitions)
from .storage.clustering import Layout
from .storage.column import Column
from .storage.metadata_store import MetadataStore
from .storage.micropartition import MicroPartition
from .storage.storage_layer import CostModel, StorageLayer
from .storage.table import Table
from .types import DataType, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .durability import DurabilityManager

_QUERY_COUNTER = itertools.count(1)

#: shared no-op for untraced spans in the catalog's own phases
_NO_SPAN = nullcontext(None)


def _tables_of(stmt) -> list[str]:
    """Lower-cased names of the tables a SELECT reads, FROM first."""
    return list(dict.fromkeys(
        t.lower() for t in [stmt.table.name]
        + [j.table.name for j in stmt.joins]))


def _span(tracer: Tracer | None, name: str, **attrs):
    """A tracer span, or a shared no-op when tracing is off."""
    if tracer is None:
        return _NO_SPAN
    return tracer.span(name, **attrs)


@dataclass
class QueryResult:
    """Materialized rows plus the pruning/timing profile."""

    schema: Schema
    rows: list[tuple[Any, ...]]
    profile: QueryProfile
    sql: str = ""

    @property
    def num_rows(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    @property
    def degraded(self) -> bool:
        """True when pruning degraded to full scans for some partitions
        (metadata unavailable); results are still correct."""
        return self.profile.degraded

    def column(self, name: str) -> list[Any]:
        """One output column's values, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows]


class Catalog:
    """Tables, storage, metadata, and query execution in one place."""

    def __init__(self, cost_model: CostModel | None = None,
                 rows_per_partition: int = DEFAULT_ROWS_PER_PARTITION,
                 enable_tracing: bool = True):
        self.storage = StorageLayer(cost_model)
        self.metadata = MetadataStore()
        self.tables: dict[str, Table] = {}
        self.rows_per_partition = rows_per_partition
        #: per-query trace spans (parse → plan → prune → scan);
        #: cheap enough to stay on (gated < 5% on the scan benches).
        self.enable_tracing = enable_tracing
        #: fleet telemetry sink; off until :meth:`enable_telemetry`.
        self.telemetry: TelemetrySink | None = None
        self.predicate_cache: PredicateCache | None = None
        #: compiled-plan template cache (Fig. 12, §7); off until
        #: :meth:`enable_plan_cache`.
        self.plan_cache = None
        self._plan_cache_prune_schemas = True
        #: warehouse-local data cache; off until
        #: :meth:`enable_data_cache` (or a per-call override — the
        #: service layer passes its warehouse's cache into
        #: :meth:`sql`).
        self.data_cache: PartitionCache | None = None
        #: secondary-sketch configuration; off until
        #: :meth:`enable_sketches`. When set, partition registration
        #: also builds and registers per-partition sketches.
        self.sketch_config = None
        #: sketch-build accounting (failures fail open and count here).
        self.sketch_build_failures = 0
        self.sketch_build_ms = 0.0
        #: WAL + checkpoint pair making mutations crash-safe; off
        #: until :meth:`enable_durability`.
        self.durability: "DurabilityManager | None" = None
        #: True while recovery replays WAL records into this catalog
        #: (replayed mutations must not be re-logged).
        self._replaying = False
        self._iceberg_sources: dict[str, dict[int, object]] = {}
        self._compiler = QueryCompiler(self)
        self._change_listeners: list[Callable[[str, int], None]] = []

    # ------------------------------------------------------------------
    # Change notification (service-layer hook points)
    # ------------------------------------------------------------------
    def add_change_listener(self,
                            listener: Callable[[str, int], None]) -> None:
        """Register ``listener(table_name, new_version)``.

        Called after any DML or recluster commits a new table version —
        the hook the service layer's result cache observes.
        """
        self._change_listeners.append(listener)

    def table_version(self, name: str) -> int:
        """Current data version of one table."""
        return self._table(name).version

    def table_versions(self, names: Sequence[str]) -> dict[str, int]:
        """Version snapshot for several tables (result-cache keys)."""
        return {name.lower(): self._table(name).version
                for name in names}

    def _bump_version(self, table: Table) -> None:
        version = table.bump_version()
        for listener in self._change_listeners:
            listener(table.name, version)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, table: Table) -> Table:
        """Register an existing table (its partitions move to storage)."""
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        if self._durable:
            from .durability.codec import create_record

            self._wal_log(create_record(table))
        self.tables[table.name] = table
        partitions = table.partitions
        self.storage.put_all(partitions)
        self.metadata.register_table(
            table.name, ((p.partition_id, p.zone_map) for p in partitions))
        self._build_sketches(table, partitions)
        return table

    def create_table_from_rows(
            self, name: str, schema: Schema,
            rows: Sequence[Sequence[Any]],
            layout: Layout | None = None,
            rows_per_partition: int | None = None) -> Table:
        """Build, partition, and register a table in one call."""
        table = build_table(
            name, schema, rows,
            rows_per_partition=rows_per_partition
            or self.rows_per_partition,
            layout=layout)
        return self.create_table(table)

    def create_table_from_iceberg(self, iceberg) -> Table:
        """Register an Iceberg table's row groups as micro-partitions.

        §8.1: Snowflake's pruning techniques operate transparently over
        Iceberg/Parquet — row groups play the role of micro-partitions.
        Row groups written *without* statistics are registered with
        missing metadata (no pruning possible) until
        :meth:`backfill_iceberg_metadata` reconstructs it.
        """
        from .storage.micropartition import MicroPartition

        if iceberg.name in self.tables:
            raise SchemaError(
                f"table {iceberg.name!r} already exists")
        table = Table(iceberg.name, iceberg.schema)
        sources: dict[int, object] = {}
        for entry in iceberg.entries:
            for group in entry.file.row_groups:
                partition = MicroPartition(iceberg.schema,
                                           group.columns)
                if group.stats is None:
                    partition = partition.with_zone_map(
                        partition.zone_map.without_stats())
                table.add_partition(partition)
                sources[partition.partition_id] = group
        self._iceberg_sources[iceberg.name] = sources
        return self.create_table(table)

    def backfill_iceberg_metadata(self, name: str) -> int:
        """Recompute missing metadata by scanning the data (§8.1).

        Returns the number of partitions whose metadata was repaired.
        The repaired zone maps replace the entries in the metadata
        store, so subsequent queries prune normally.
        """
        name = name.lower()
        table = self._table(name)
        if name not in self._iceberg_sources:
            raise SchemaError(f"{name!r} is not an Iceberg-backed table")
        repaired, refreshed = [], []
        for partition in table.partitions:
            if all(s.present
                   for s in partition.zone_map.columns.values()):
                refreshed.append(partition)
                continue
            fixed = partition.with_zone_map(
                partition.recompute_zone_map())
            self.storage.delete(partition.partition_id)
            self.storage.put(fixed)
            self.metadata.register(name, fixed.partition_id,
                                   fixed.zone_map)
            refreshed.append(fixed)
            repaired.append(fixed)
        table.replace_partitions(refreshed)
        self._build_sketches(table, repaired)
        return len(repaired)

    def drop_table(self, name: str) -> None:
        """Remove a table, its partitions, metadata, and cache entries."""
        table = self.tables.get(name.lower())
        if table is None:
            raise SchemaError(f"no table named {name!r}")
        if self._durable:
            from .durability.codec import drop_record

            self._wal_log(drop_record(table.name))
        del self.tables[table.name]
        for partition_id in table.partition_ids:
            self.storage.delete(partition_id)
        self.metadata.drop_table(table.name)
        if self.predicate_cache is not None:
            self.predicate_cache.drop_table(table.name)

    def enable_predicate_cache(self, max_entries: int = 1024,
                               max_partitions_per_entry: int = 256
                               ) -> PredicateCache:
        """Turn on the predicate cache (§8.2) for subsequent queries."""
        self.predicate_cache = PredicateCache(
            max_entries=max_entries,
            max_partitions_per_entry=max_partitions_per_entry)
        return self.predicate_cache

    def enable_sketches(self, config=None):
        """Turn on secondary sketches (n-gram filters, dictionaries,
        histograms — ``pruning/sketches.py``) plus the predicate cache
        (a repeated shape skips partitions a complete run saw empty).

        Sketches are built immediately for every existing partition
        and from then on at partition build/recluster time, one batch
        at a time. Building fails open: the partitions of a batch whose
        sketches cannot be built are scanned without them. Idempotent —
        an existing configuration is kept.
        """
        from .pruning.sketches import SketchConfig

        if self.sketch_config is None:
            self.sketch_config = config or SketchConfig()
            if self.predicate_cache is None:
                self.enable_predicate_cache()
            for table in self.tables.values():
                self._build_sketches(table, table.partitions)
        return self.sketch_config

    def _build_sketches(self, table: Table,
                        partitions: Sequence[MicroPartition]) -> None:
        """Build and register one batch's sketches. A batch whose build
        raises fails open: none of its partitions gets sketches, and
        each counts in ``sketch_build_failures``."""
        if self.sketch_config is None or not partitions:
            return
        from .pruning.sketches import build_sketches

        started = time.perf_counter()
        try:
            built = build_sketches(partitions, table.schema,
                                   self.sketch_config)
        except Exception:  # noqa: BLE001 - sketches are best-effort
            built = {}
            self.sketch_build_failures += len(partitions)
        self.sketch_build_ms += (time.perf_counter() - started) * 1000.0
        for partition_id, sketches in built.items():
            if not sketches.is_empty():
                self.metadata.register_sketches(table.name, partition_id,
                                                sketches)

    def sketches_of(self, table: str):
        """Registered secondary sketches of a table, by partition id."""
        return self.metadata.sketches_of(table)

    def sketch_index(self, table: str):
        """Cached vectorized sketch lanes for a table."""
        ngram_size = (self.sketch_config.ngram_size
                      if self.sketch_config is not None else 3)
        return self.metadata.sketch_index(table, ngram_size)

    def enable_data_cache(self, budget_bytes: int = 64 * 2**20,
                          protected_fraction: float = 0.8) -> PartitionCache:
        """Turn on the warehouse-local data cache (§2) for subsequent
        queries: scans serve repeated partitions from local storage
        instead of re-fetching them from simulated object storage.

        The cache attaches to the metadata store so DML/recluster
        rewrites (``unregister``) invalidate stale entries
        automatically. Idempotent — an existing cache is kept.
        """
        if self.data_cache is None:
            cache = PartitionCache(budget_bytes,
                                   protected_fraction=protected_fraction)
            self.data_cache = cache.attach(self.metadata)
        return self.data_cache

    def enable_plan_cache(self, max_entries: int = 256,
                          schema_pruning: bool = True):
        """Turn on the plan-shape compiled-plan cache (Fig. 12, §7).

        Subsequent SELECTs are parameterized at the token level; the
        first execution of each plan shape caches its logical-plan
        template, and repeats skip parse/bind/plan entirely — only the
        literals are rebound and the data-dependent pruning passes
        re-run against the live metadata. ``schema_pruning`` restricts
        template planning to the columns a statement references, so
        wide-schema compile cost scales with columns touched.
        Idempotent — an existing cache is kept.
        """
        if self.plan_cache is None:
            from .plancache import PlanCache

            self.plan_cache = PlanCache(max_entries=max_entries)
            self.plan_cache.attach(self)
            self._plan_cache_prune_schemas = schema_pruning
        return self.plan_cache

    def enable_telemetry(self, capacity: int = 4096,
                         slow_query_ms: float = 100.0
                         ) -> TelemetrySink:
        """Turn on fleet telemetry: every :meth:`sql` call records one
        :class:`~repro.obs.telemetry.TelemetryRecord` into a bounded
        ring buffer (idempotent — an existing sink is kept)."""
        if self.telemetry is None:
            self.telemetry = TelemetrySink(
                capacity=capacity, slow_query_ms=slow_query_ms)
        return self.telemetry

    # ------------------------------------------------------------------
    # Durability (WAL + checkpoints + recovery)
    # ------------------------------------------------------------------
    def enable_durability(self, path, *,
                          checkpoint_bytes: int = 4 * 2**20,
                          keep_checkpoints: int = 1,
                          crash_injector=None,
                          sync: bool = False) -> "DurabilityManager":
        """Make this catalog's mutations crash-safe under ``path``.

        Every subsequent committed mutation is appended to a
        CRC-framed write-ahead log *before* it is applied (see
        :mod:`repro.durability`). When ``path`` already holds durable
        state, the catalog — which must be empty — is first recovered
        from the newest checkpoint plus the WAL tail; otherwise a
        baseline checkpoint of the current state is written so
        recovery is always checkpoint + tail. Idempotent — an existing
        manager is kept.
        """
        if self.durability is not None:
            return self.durability
        from .durability import DurabilityManager

        manager = DurabilityManager(
            path, checkpoint_bytes=checkpoint_bytes,
            keep_checkpoints=keep_checkpoints,
            crash_injector=crash_injector, sync=sync)
        if manager.has_state():
            if self.tables:
                raise DurabilityError(
                    f"cannot recover durable state from {path} into "
                    f"a catalog that already has tables "
                    f"{sorted(self.tables)}")
            self._replaying = True
            try:
                manager.recover_into(self)
            finally:
                self._replaying = False
        self.durability = manager
        if manager.checkpoints.newest() is None:
            # Baseline snapshot: captures tables created before
            # durability was enabled, so recovery never needs a
            # special empty-checkpoint case.
            manager.checkpoint(self)
        return manager

    @classmethod
    def recover(cls, path, **kwargs) -> "Catalog":
        """Rebuild a catalog from a durability directory.

        Equivalent to constructing an empty catalog and calling
        :meth:`enable_durability` — the recovered catalog keeps
        logging to the same WAL.
        """
        catalog = cls(**kwargs)
        catalog.enable_durability(path)
        return catalog

    def checkpoint(self):
        """Snapshot now and truncate the WAL (durability required)."""
        if self.durability is None:
            raise DurabilityError(
                "checkpoint() requires enable_durability()")
        return self.durability.checkpoint(self)

    @property
    def _durable(self) -> bool:
        """True when mutations must be logged (not during replay)."""
        return self.durability is not None and not self._replaying

    def _wal_log(self, record: dict,
                 profile: QueryProfile | None = None,
                 tracer: Tracer | None = None) -> None:
        """Append one mutation record ahead of applying it."""
        seqno, nbytes = self.durability.log(record)
        if profile is not None:
            profile.wal_appends += 1
            profile.wal_bytes += nbytes
        if tracer is not None:
            tracer.event("wal:append", seqno=seqno, bytes=nbytes,
                         op=record.get("op", ""))

    def apply_wal_record(self, record: dict) -> None:
        """Apply one decoded WAL record (recovery replay path).

        Replay reuses the exact apply helpers live commits use, so a
        replayed mutation reproduces partition ids, contents, version
        bumps, and cache invalidations identically.
        """
        from .durability.codec import decode_schema, record_partitions

        op = record["op"]
        if op == "create":
            schema = decode_schema(record["schema"])
            self.create_table(Table(record["table"], schema,
                                    record_partitions(schema, record)))
        elif op == "insert":
            table = self._table(record["table"])
            self._apply_insert(table,
                               record_partitions(table.schema, record))
        elif op == "rewrite":
            table = self._table(record["table"])
            removed = [table.partition(pid)
                       for pid in record["removed"]]
            self._apply_rewrite(table, removed,
                                record_partitions(table.schema, record),
                                kind=record["kind"],
                                columns=record.get("columns"))
        elif op == "drop":
            self.drop_table(record["table"])
        else:
            from .errors import WalCorruptionError

            raise WalCorruptionError(
                f"unknown WAL record op {op!r}")

    def _new_tracer(self) -> Tracer | None:
        return Tracer() if self.enable_tracing else None

    # ------------------------------------------------------------------
    # Compiler interface
    # ------------------------------------------------------------------
    def schema_of(self, table: str) -> Schema:
        """A table's schema (compiler resolver interface)."""
        return self._table(table).schema

    #: metadata failures that degrade pruning instead of failing the
    #: query: transient faults and a metadata-service outage. A plain
    #: :class:`MetadataError` (key genuinely missing) is a logical
    #: error and still propagates.
    _DEGRADABLE = (TransientError, MetadataUnavailableError)

    def scan_set(self, table: str) -> ScanSet:
        """A table's full scan set from the metadata store.

        One read: the scan set *is* the metadata store's stats index
        for the table (``ScanSet.of_index``), so no per-partition read
        happens and no entry is built until someone iterates it, while
        the store counts one lookup per partition and the caller
        charges the same simulated cost.

        Pruning fails open. When that read fails with a degradable
        error, each partition is read on its own, and one whose
        metadata cannot be fetched enters the scan set with a
        stats-free zone map — every pruning check answers MAYBE and
        the partition is scanned. A failed partition *listing* falls
        back to the in-memory table. The returned scan set carries
        ``degraded_ids``, and the stats index as an internal structure
        read beside the entries, which the scan set trusts per entry
        only where it holds the very zone map that was fetched.
        """
        meta = self.metadata
        try:
            return ScanSet.of_index(meta.fetch_index(table))
        except self._DEGRADABLE:
            pass
        index = meta.stats_index(table)
        in_memory: dict[int, MicroPartition] | None = None

        def partitions_by_id() -> dict[int, MicroPartition]:
            nonlocal in_memory
            if in_memory is None:
                in_memory = {p.partition_id: p
                             for p in self._table(table).partitions}
            return in_memory

        try:
            pids = meta.partitions_of(table)
        except self._DEGRADABLE:
            # Listing outage: the compiler still knows which partitions
            # exist (the in-memory table is the simulated data plane).
            pids = list(partitions_by_id())
        entries: list[tuple[int, object]] = []
        degraded_ids: list[int] = []
        for pid in pids:
            try:
                entries.append((pid, meta.get(table, pid)))
                continue
            except self._DEGRADABLE:
                pass
            except MetadataError:
                if pid in partitions_by_id():
                    raise
                continue  # unregistered by concurrent DML; skip
            partition = partitions_by_id().get(pid)
            if partition is None:
                continue  # removed by concurrent DML; skip
            # Cannot prune it — scan it. A stats-free zone map makes
            # every pruning check answer MAYBE.
            entries.append((pid, partition.zone_map.without_stats()))
            degraded_ids.append(pid)
        return ScanSet(entries, degraded_ids=degraded_ids, index=index)

    def _table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _effective_cache(self,
                         cache: PartitionCache | None
                         ) -> PartitionCache | None:
        """Per-call cache override (the service layer passes its
        warehouse's cache), else the catalog-wide one."""
        return cache if cache is not None else self.data_cache

    def sql(self, text: str,
            options: CompilerOptions | None = None,
            cache: PartitionCache | None = None,
            parsed=None, pq=None) -> QueryResult:
        """Parse, plan, and execute one SELECT, DELETE, or UPDATE.

        DML statements return a single-row result with the number of
        affected rows; their profile records the partition pruning the
        DML benefited from (§7's flow covers DML too). ``cache``
        overrides the catalog-wide data cache for this statement
        (the service's warehouse cache). ``parsed`` and ``pq`` let
        callers that already hold the parsed statement or the
        :class:`~repro.plancache.ParameterizedQuery` of ``text`` (the
        service layer's hot path) skip the re-parse and the re-tokenize.
        """
        from .sql.parser import DeleteStmt, UpdateStmt, parse_statement

        started = time.perf_counter()
        tracer = self._new_tracer()
        stmt = parsed
        result = None
        kind = "select"
        if self.plan_cache is not None and not isinstance(
                stmt, (DeleteStmt, UpdateStmt)):
            result, stmt = self._sql_via_plan_cache(
                text, options, cache, tracer, stmt, pq)
        if result is None:
            if stmt is None:
                with _span(tracer, "parse"):
                    stmt = parse_statement(text)
            if isinstance(stmt, (DeleteStmt, UpdateStmt)):
                kind = "dml"
                result = self._execute_dml(stmt, cache=cache,
                                           tracer=tracer)
            else:
                with _span(tracer, "plan"):
                    plan = plan_select(stmt, self.schema_of)
                result = self.execute_plan(
                    plan, options, tracer=tracer, cache=cache,
                    pre_compile_ms=self._cold_compile_cost(stmt))
        result.sql = text
        if self.telemetry is not None:
            wall_ms = (time.perf_counter() - started) * 1e3
            self.telemetry.record(TelemetryRecord.from_result(
                result, wall_ms=wall_ms, kind=kind))
        return result

    def _cold_compile_cost(self, stmt) -> float:
        """Simulated parse+bind cost of one cold compile.

        Binding considers every column of every referenced table's
        schema — the full-width cost that compile-time schema pruning
        (``repro.plancache.schema_prune``) avoids.
        """
        cost = self.storage.cost_model
        width = 0
        for name in _tables_of(stmt):
            try:
                width += len(self.schema_of(name))
            except SchemaError:
                pass  # unknown table: the planner raises the real error
        return cost.parse_cost_ms + cost.bind_column_cost_ms * width

    def _sql_via_plan_cache(self, text, options, cache, tracer, stmt, pq):
        """Serve one SELECT through the plan cache if possible.

        Returns ``(result, stmt)``: ``result`` is ``None`` when the
        statement must take the cold path, and ``stmt`` carries any
        parse work already done here so the cold path never re-parses.
        Every failure mode on the cached path — bind mismatch, stale
        schema, template extraction failure — falls closed to the cold
        compile, which surfaces errors with the original literals.
        """
        from .plancache import (
            CachedPlan,
            StalePlanError,
            bind_plan,
            binds_match,
            build_template,
            make_pruned_resolver,
            parameterize_text,
            validate_binds,
        )
        from .sql.parser import SelectStmt, parse_statement

        cost = self.storage.cost_model
        plan_cache = self.plan_cache
        if pq is None:
            with _span(tracer, "parameterize"):
                pq = parameterize_text(text)
        if not pq.is_select or plan_cache.is_uncacheable(pq.shape_key):
            return None, stmt
        entry = plan_cache.lookup(pq.shape_key)
        if entry is not None:
            usable = False
            try:
                with _span(tracer, "plan_cache:rebind",
                           binds=len(pq.binds)):
                    plan_cache.validate(entry, self.schema_of)
                    validate_binds(pq.binds, entry.slots)
                    usable = True
            except StalePlanError:
                pass  # evicted; recompile below (fail closed)
            except Exception:
                plan_cache.record_fallback()
            if usable:
                if tracer is not None:
                    tracer.event("plan_cache:hit", shape=pq.shape_key)
                result = self.execute_plan(
                    None, options, tracer=tracer, cache=cache,
                    pre_compile_ms=cost.plan_rebind_cost_ms,
                    rebind=(entry.template, pq.binds, entry.slots))
                result.profile.plan_cache_checked = True
                result.profile.plan_cache_hit = True
                return result, None
        # Miss: plan a parameterized template, cache it, and execute
        # the rebound plan — hits and misses run the identical tree,
        # so a hit can never diverge from what a miss would return.
        if stmt is None:
            with _span(tracer, "parse"):
                stmt = parse_statement(text, pq.tokens)
        if not isinstance(stmt, SelectStmt):
            return None, stmt
        try:
            template_stmt, slots, ast_binds = build_template(stmt)
            cacheable = binds_match(ast_binds, pq.binds)
        except Exception:
            cacheable = False
        if not cacheable:
            plan_cache.mark_uncacheable(pq.shape_key)
            return None, stmt
        tables = _tables_of(stmt)
        try:
            if self._plan_cache_prune_schemas:
                resolver, width = make_pruned_resolver(
                    stmt, self.schema_of, tables)
            else:
                resolver = self.schema_of
                width = sum(len(self.schema_of(t)) for t in tables)
            with _span(tracer, "plan"):
                template = plan_select(template_stmt, resolver)
            plan = bind_plan(template, pq.binds, slots)
        except Exception:
            # Genuine planning errors recur on the cold path, which
            # reports them against the original literals.
            return None, stmt
        plan_cache.store(CachedPlan(
            shape_key=pq.shape_key, template=template, slots=slots,
            tables=tuple(tables),
            schemas={t: self.schema_of(t) for t in tables},
            bind_width=width))
        result = self.execute_plan(
            plan, options, tracer=tracer, cache=cache,
            pre_compile_ms=cost.parse_cost_ms
            + cost.bind_column_cost_ms * width)
        result.profile.plan_cache_checked = True
        return result, None

    def _execute_dml(self, stmt,
                     cache: PartitionCache | None = None,
                     tracer: Tracer | None = None) -> QueryResult:
        from .sql.parser import DeleteStmt

        table = self._table(stmt.table)
        predicate = stmt.where if stmt.where is not None \
            else ast.Literal(True)
        profile = QueryProfile(query_id=f"q{next(_QUERY_COUNTER)}")
        with _span(tracer, "dml", table=stmt.table):
            if isinstance(stmt, DeleteStmt):
                affected = self.delete_where(
                    table.name, predicate, profile=profile,
                    cache=cache, tracer=tracer)
            else:
                affected = self._update_with_expr(
                    table, predicate, stmt.column, stmt.value, profile,
                    cache=cache, tracer=tracer)
        if tracer is not None:
            profile.trace = tracer.finish()
        return QueryResult(
            schema=Schema.of(rows_affected=DataType.INTEGER),
            rows=[(affected,)],
            profile=profile)

    def _update_with_expr(self, table: Table, predicate: ast.Expr,
                          column: str, value_expr: ast.Expr,
                          profile: QueryProfile,
                          cache: PartitionCache | None = None,
                          tracer: Tracer | None = None) -> int:
        """UPDATE with a SQL value expression evaluated per row."""
        column = column.lower()
        target_dtype = table.schema.dtype_of(column)
        value_dtype = value_expr.dtype(table.schema)
        if value_dtype != target_dtype:
            value_expr = ast.Cast(value_expr, target_dtype)
        matches = bind_predicate(predicate, table.schema)
        new_value = bind(value_expr, table.schema)
        updated_rows = 0
        removed: list[MicroPartition] = []
        added: list[MicroPartition] = []
        for partition in self._dml_candidates(table, predicate,
                                              profile, cache=cache):
            columns = partition.columns()
            mask = matches(columns, partition.row_count)
            hits = int(mask.sum())
            if hits == 0:
                continue
            updated_rows += hits
            removed.append(partition)
            old = columns[column]
            new = new_value(columns, partition.row_count)
            merged_values = np.where(mask, new.values, old.values)
            merged_nulls = np.where(mask, new.nulls, old.nulls)
            columns[column] = Column(
                target_dtype,
                np.asarray(merged_values,
                           dtype=target_dtype.numpy_dtype()),
                np.asarray(merged_nulls, dtype=np.bool_))
            added.append(MicroPartition(table.schema, columns))
        self._commit_rewrite(table, removed, added, kind="update",
                             columns=[column], profile=profile,
                             tracer=tracer)
        return updated_rows

    def plan_sql(self, text: str) -> LogicalNode:
        """Parse and plan without executing (plan-shape analyses)."""
        return plan_select(parse_select(text), self.schema_of)

    def explain(self, text: str,
                options: CompilerOptions | None = None) -> str:
        """Compile a query and render its physical plan with pruning
        annotations, without executing it."""
        from .plan.explain import render_plan

        stmt = parse_select(text)
        plan = plan_select(stmt, self.schema_of)
        context = ExecContext(self.storage, self.metadata,
                              query_id="explain")
        compiled = self._compiler.compile(plan, context, options)
        rendered = render_plan(compiled.root)
        versions = ", ".join(
            f"{name}=v{self._table(name).version}"
            for name in _tables_of(stmt))
        report = f"{rendered}\n-- table versions: {versions}"
        if self.plan_cache is not None:
            from .plancache import parameterize_text

            pq = parameterize_text(text)
            status = ("cached shape (literal rebind on execution)"
                      if self.plan_cache.peek(pq.shape_key)
                      else "shape not cached (cold compile)")
            report += f"\n-- plan cache: {status}"
        return report

    def explain_analyze(self, text: str,
                        options: CompilerOptions | None = None) -> str:
        """Execute a statement, then render its plan annotated with
        the *observed* pruning and degradation counters.

        Unlike :meth:`explain`, the query actually runs — a SELECT
        through :meth:`execute_plan`, exactly as :meth:`sql`'s cold
        path runs it; the report says which partitions, if any, were
        scanned without metadata (fail open).
        """
        from .plan.explain import render_plan
        from .sql.parser import DeleteStmt, UpdateStmt, parse_statement

        tracer = self._new_tracer()
        with _span(tracer, "parse"):
            stmt = parse_statement(text)
        if isinstance(stmt, (DeleteStmt, UpdateStmt)):
            result = self._execute_dml(stmt, tracer=tracer)
            profile = result.profile
            header = (f"-- EXPLAIN ANALYZE "
                      f"({result.rows[0][0]} rows affected)")
            body = profile.pruning_summary()
        else:
            with _span(tracer, "plan"):
                plan = plan_select(stmt, self.schema_of)
            roots: list = []
            result = self.execute_plan(
                plan, options, tracer=tracer,
                pre_compile_ms=self._cold_compile_cost(stmt),
                on_compiled=roots.append)
            profile = result.profile
            header = (f"-- EXPLAIN ANALYZE ({result.num_rows} rows, "
                      f"{profile.total_ms:.2f} ms simulated)")
            body = render_plan(roots[0])
            topk_checks = sum(s.topk_checks for s in profile.scans)
            if topk_checks:
                body += (f"\n-- topk: {topk_checks} checks / "
                         f"{sum(s.topk_skipped for s in profile.scans)}"
                         f" skipped / {profile.topk_boundary_updates} "
                         f"boundary updates")
        report = f"{header}\n{body}\n-- {profile.resilience_summary()}"
        if self.durability is not None:
            report += (f"\n-- wal: {profile.wal_appends} appends / "
                       f"{profile.wal_bytes} bytes")
        if profile.trace is not None:
            tree = render_span_tree(profile.trace)
            report += "\n-- trace:\n-- " + tree.replace("\n", "\n-- ")
        return report

    def execute_plan(self, plan: LogicalNode | None,
                     options: CompilerOptions | None = None,
                     tracer: Tracer | None = None,
                     cache: PartitionCache | None = None,
                     pre_compile_ms: float = 0.0,
                     rebind: tuple | None = None,
                     on_compiled: Callable[[Any], None] | None = None
                     ) -> QueryResult:
        """Compile and execute an already-planned logical tree.

        ``pre_compile_ms`` charges simulated compile time spent before
        lowering (parse/bind on the cold path, literal rebinding on a
        plan-cache hit) so ``profile.compile_ms`` reflects the whole
        front end. ``rebind=(template, binds, slots)`` lowers a cached
        plan-cache template through
        :meth:`~repro.plan.compiler.QueryCompiler.compile_rebound`
        instead of ``plan``. ``on_compiled`` receives the physical
        root operator (EXPLAIN ANALYZE renders it after the run).
        """
        if tracer is None:
            tracer = self._new_tracer()
        context = ExecContext(self.storage, self.metadata,
                              query_id=f"q{next(_QUERY_COUNTER)}",
                              tracer=tracer,
                              cache=self._effective_cache(cache))
        if pre_compile_ms:
            context.charge_compile(pre_compile_ms)
        with _span(tracer, "compile"):
            if rebind is not None:
                template, binds, slots = rebind
                compiled = self._compiler.compile_rebound(
                    template, binds, slots, context, options)
            else:
                compiled = self._compiler.compile(plan, context,
                                                  options)
        if on_compiled is not None:
            on_compiled(compiled.root)
        with _span(tracer, "execute") as exec_span:
            context.exec_span = exec_span
            execution = execute(compiled.root, context)
            for hook in compiled.post_exec_hooks:
                hook()
        if tracer is not None:
            context.profile.trace = tracer.finish()
        return QueryResult(schema=execution.schema,
                           rows=execution.rows,
                           profile=context.profile)

    # ------------------------------------------------------------------
    # DML (partition-wise, immutable rewrites)
    # ------------------------------------------------------------------
    def insert(self, table_name: str,
               rows: Sequence[Sequence[Any]]) -> list[int]:
        """Append rows as new micro-partitions; returns new ids.

        Two-phase: the partitions are built first (pure), logged to
        the WAL as one record, and only then applied — so a crash
        either loses the whole insert or none of it.
        """
        table = self._table(table_name)
        appended = build_table(table.name, table.schema, rows,
                               rows_per_partition=self.rows_per_partition)
        if appended.partitions and self._durable:
            from .durability.codec import insert_record

            self._wal_log(insert_record(table, appended.partitions))
        return self._apply_insert(table, appended.partitions)

    def _apply_insert(self, table: Table,
                      partitions: Sequence[MicroPartition]
                      ) -> list[int]:
        """Register already-built partitions (live commit and replay)."""
        in_order = self._ids_follow(table, partitions)
        new_ids = []
        for partition in partitions:
            table.add_partition(partition)
            self.storage.put(partition)
            self.metadata.register(table.name, partition.partition_id,
                                   partition.zone_map)
            new_ids.append(partition.partition_id)
        self._build_sketches(table, partitions)
        if new_ids:
            self._bump_version(table)
        if not in_order:
            self.predicate_cache.drop_table(table.name)
        return new_ids

    def _ids_follow(self, table: Table,
                    added: Sequence[MicroPartition]) -> bool:
        """Is every id in ``added`` above all of ``table``'s?

        The predicate cache reads "id above an entry's high-water
        mark" as "committed after the entry was recorded". Ids are
        handed out when a partition is *built*, so that holds while
        one writer at a time builds and commits (``QueryService``'s
        write lock; the catalog itself is single-writer). A caller
        that overlaps two DML builds breaks it, and loses the table's
        entries rather than a partition.
        """
        if self.predicate_cache is None:
            return True
        newest = max((p.partition_id for p in table.partitions),
                     default=-1)
        return all(p.partition_id > newest for p in added)

    def _dml_candidates(self, table: Table, predicate: ast.Expr,
                        profile: QueryProfile | None = None,
                        cache: PartitionCache | None = None
                        ) -> list[MicroPartition]:
        """Partitions a DML statement must inspect, after pruning.

        DML benefits from filter pruning exactly like SELECT (§7's
        flow covers "both DML and SELECT queries"): partitions whose
        metadata proves no row matches are neither read nor rewritten.

        With a data cache attached, candidate reads route through it:
        residency is accounted as hits (the rewrite did not re-fetch
        the partition) and misses populate the cache — the partitions
        a DML inspects are exactly the hot set a follow-up SELECT on
        the same predicate scans. Candidates always come from the
        authoritative in-memory table, so DML results are identical
        with the cache on or off.
        """
        from .pruning.filter_pruning import is_prunable
        from .pruning.stats_index import VectorizedFilterPruner

        scan_profile = None
        if not is_prunable(predicate):
            candidates = table.partitions
        else:
            scan_set = ScanSet(
                ((p.partition_id, p.zone_map) for p in table.partitions),
                index=self.metadata.stats_index(table.name))
            pruner = VectorizedFilterPruner(predicate, table.schema,
                                            detect_fully_matching=False)
            result = pruner.prune(scan_set)
            if profile is not None:
                scan_profile = profile.new_scan(table.name)
                scan_profile.total_partitions = len(scan_set)
                scan_profile.filter_result = result
                scan_profile.filter_eligible = True
                scan_profile.filter_columns = tuple(
                    sorted(predicate.column_refs()))
                scan_profile.pruning_mode = pruner.mode
            kept = set(result.kept.partition_ids)
            candidates = [p for p in table.partitions
                          if p.partition_id in kept]
        cache = self._effective_cache(cache)
        if cache is not None:
            for partition in candidates:
                cached = cache.get(
                    partition.partition_id,
                    expected_checksum=partition.checksum)
                if cached is None:
                    cache.put(partition)
                if scan_profile is not None:
                    if cached is not None:
                        scan_profile.cache_hits += 1
                        scan_profile.cache_bytes_saved += \
                            partition.nbytes()
                    else:
                        scan_profile.cache_misses += 1
        return candidates

    def delete_where(self, table_name: str, predicate: ast.Expr,
                     profile: QueryProfile | None = None,
                     cache: PartitionCache | None = None,
                     tracer: Tracer | None = None) -> int:
        """DELETE FROM t WHERE ...; rewrites affected partitions.

        Partition pruning runs first: partitions provably without
        matches are untouched. Returns the number of rows deleted.
        Pass a :class:`QueryProfile` to record the pruning outcome.
        The full rewrite is computed before anything is applied
        (two-phase), so the WAL record precedes every swap.
        """
        table = self._table(table_name)
        matches = bind_predicate(predicate, table.schema)
        deleted_rows = 0
        removed: list[MicroPartition] = []
        added: list[MicroPartition] = []
        for partition in self._dml_candidates(table, predicate,
                                              profile, cache=cache):
            mask = matches(partition.columns(), partition.row_count)
            hits = int(mask.sum())
            if hits == 0:
                continue
            deleted_rows += hits
            removed.append(partition)
            if partition.row_count - hits:
                keep = ~mask
                columns = {name: col.filter(keep)
                           for name, col in partition.columns().items()}
                added.append(MicroPartition(table.schema, columns))
        self._commit_rewrite(table, removed, added, kind="delete",
                             profile=profile, tracer=tracer)
        return deleted_rows

    def update_where(self, table_name: str, predicate: ast.Expr,
                     column: str, value_fn: Callable[[Any], Any],
                     profile: QueryProfile | None = None,
                     cache: PartitionCache | None = None,
                     tracer: Tracer | None = None) -> int:
        """UPDATE t SET column = value_fn(old) WHERE ...

        Partition pruning runs first, then every partition containing
        affected rows is rewritten (two-phase: plan, log, apply).
        Returns the number of rows updated.
        """
        table = self._table(table_name)
        column = column.lower()
        dtype = table.schema.dtype_of(column)
        matches = bind_predicate(predicate, table.schema)
        updated_rows = 0
        removed: list[MicroPartition] = []
        added: list[MicroPartition] = []
        for partition in self._dml_candidates(table, predicate,
                                              profile, cache=cache):
            columns = partition.columns()
            mask = matches(columns, partition.row_count)
            hits = int(mask.sum())
            if hits == 0:
                continue
            updated_rows += hits
            removed.append(partition)
            old = columns[column]
            new_values = old.to_pylist()
            for i in np.flatnonzero(mask):
                new_values[int(i)] = value_fn(new_values[int(i)])
            columns[column] = Column.from_pylist(dtype, new_values)
            added.append(MicroPartition(table.schema, columns))
        self._commit_rewrite(table, removed, added, kind="update",
                             columns=[column], profile=profile,
                             tracer=tracer)
        return updated_rows

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist all tables to a directory (see repro.persistence)."""
        from .persistence import save_catalog

        save_catalog(self, path)

    @classmethod
    def load(cls, path, **kwargs) -> "Catalog":
        """Load a catalog previously written with :meth:`save`."""
        from .persistence import load_catalog

        return load_catalog(path, **kwargs)

    # ------------------------------------------------------------------
    # Clustering maintenance
    # ------------------------------------------------------------------
    def clustering_information(self, table_name: str, column: str):
        """Overlap-depth statistics for one column's zone maps.

        The paper notes pruning effectiveness "primarily depends on how
        data is distributed among micro-partitions" (§1); this is the
        observability side of that statement.
        """
        from .storage.clustering import clustering_information

        table = self._table(table_name)
        return clustering_information(table.partitions, column)

    def recluster(self, table_name: str, *keys: str,
                  rows_per_partition: int | None = None) -> int:
        """Rewrite a table fully sorted by ``keys``.

        Models Snowflake's (re)clustering service: all partitions are
        rewritten, metadata is refreshed, and — since every partition
        id changes — the predicate cache is invalidated for the table.
        Returns the new partition count.
        """
        table = self._table(table_name)
        if not keys:
            raise SchemaError("recluster requires at least one key")
        old_partitions = list(table.partitions)
        rebuilt = build_table_from_columns(
            table.name, table.schema,
            concat_partitions(table.schema, old_partitions),
            rows_per_partition=rows_per_partition
            or self.rows_per_partition,
            layout=Layout.sorted_by(*keys))
        if not old_partitions and not rebuilt.partitions:
            # Empty table: a rewrite that touches nothing must be a true
            # no-op — no version bump, no cache invalidation, no WAL
            # record (matches _commit_rewrite's contract).
            return 0
        self._commit_rewrite(table, old_partitions,
                             rebuilt.partitions, kind="recluster")
        return table.num_partitions

    # ------------------------------------------------------------------
    # Rewrite commit machinery (shared by DELETE/UPDATE/RECLUSTER)
    # ------------------------------------------------------------------
    def _commit_rewrite(self, table: Table,
                        removed: Sequence[MicroPartition],
                        added: Sequence[MicroPartition],
                        kind: str,
                        columns: Sequence[str] | None = None,
                        profile: QueryProfile | None = None,
                        tracer: Tracer | None = None) -> None:
        """Log one rewrite record, then apply it (log-before-apply).

        A rewrite that touches nothing logs nothing — one WAL record
        per *committed* mutation, never per attempted statement.
        """
        if not removed and not added:
            return
        if self._durable:
            from .durability.codec import rewrite_record

            self._wal_log(rewrite_record(
                table, kind,
                [p.partition_id for p in removed], added, columns),
                profile=profile, tracer=tracer)
        self._apply_rewrite(table, removed, added, kind=kind,
                            columns=columns)

    def _apply_rewrite(self, table: Table,
                       removed: Sequence[MicroPartition],
                       added: Sequence[MicroPartition],
                       kind: str,
                       columns: Sequence[str] | None = None) -> None:
        """Swap partition sets in storage/metadata and fire the cache
        invalidation hooks (live commit and replay take this path)."""
        in_order = self._ids_follow(table, added)
        removed_ids = []
        for old in removed:
            table.remove_partition(old.partition_id)
            self.storage.delete(old.partition_id)
            self.metadata.unregister(table.name, old.partition_id)
            removed_ids.append(old.partition_id)
        for new in added:
            table.add_partition(new)
            self.storage.put(new)
            self.metadata.register(table.name, new.partition_id,
                                   new.zone_map)
        self._build_sketches(table, added)
        if self.predicate_cache is not None:
            if kind == "delete":
                columns = ()  # surviving rows are unchanged
            elif columns is None:
                columns = table.schema.names()  # recluster moves all
            self.predicate_cache.on_rewrite(table.name, removed_ids,
                                            columns)
        self._bump_version(table)
        if not in_order:
            self.predicate_cache.drop_table(table.name)
