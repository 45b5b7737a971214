"""Physical operators.

Every operator is an iterable of :class:`~.chunk.Chunk` with a
``schema`` attribute. Leaves are :class:`Scan`; the rest wrap children.
Operators charge simulated time to the :class:`~.context.ExecContext`
so pruning savings show up as runtime improvements deterministically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..errors import ExecutionError, PlanError
from ..expr import ast
from ..expr.eval import evaluate, evaluate_predicate
from ..pruning.base import ScanSet
from ..pruning.join_pruning import JoinPruner, build_summary
from ..pruning.stats_index import VectorizedFilterPruner
from ..pruning.summaries import BloomFilter
from ..pruning.topk_pruning import Boundary, TopKPruner, rank_of
from ..storage.column import Column
from ..types import DataType, Schema
from .chunk import Chunk
from .context import ExecContext, ScanProfile


class Operator:
    """Base class: an iterable of chunks with a known output schema."""

    schema: Schema

    def __iter__(self) -> Iterator[Chunk]:
        raise NotImplementedError


class ChunkSource(Operator):
    """Wraps pre-built chunks (used in tests and by the warehouse)."""

    def __init__(self, schema: Schema, chunks: Iterable[Chunk]):
        self.schema = schema
        self._chunks = list(chunks)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._chunks)


class MetadataAggregateSource(ChunkSource):
    """A one-row aggregate result computed purely from zone maps.

    ``SELECT COUNT(*) / MIN(x) / MAX(x) FROM t`` (no predicate, no
    grouping) never needs to touch data: row counts, null counts, and
    min/max are all in the metadata store. This is the extreme case of
    §2.1's "fast access to micro-partition metadata".
    """

    def __init__(self, schema: Schema, chunk: Chunk, table: str,
                 partitions_covered: int):
        super().__init__(schema, [chunk])
        self.table = table
        self.partitions_covered = partitions_covered


class EmptyOperator(Operator):
    """Produces no rows (result of sub-tree elimination, §2.1)."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def __iter__(self) -> Iterator[Chunk]:
        return iter(())


class Scan(Operator):
    """Loads micro-partitions of one table, applying runtime pruning.

    The scan set arrives already compile-time pruned (and possibly
    ordered, §5.3). At runtime, before loading each partition the scan
    consults (a) attached top-k pruners — boundary checks, §5.2 — and
    (b) an optional deferred filter pruner (compile-time cutoff pushed
    the filter to the warehouse, §3.2).

    When ``ExecContext.scan_parallelism`` > 1 the scan fans partition
    loads out as morsels to a thread pool (the paper's execution
    engine scans surviving partitions in parallel, §2), with
    deterministic semantics: runtime-pruning decisions happen on the
    consumer thread in scan-set order, chunks are merged back in that
    same order, per-worker retry stats fold into the query profile as
    each morsel is consumed, and a failing load surfaces its typed
    error at the same position the serial scan would.

    Adaptive top-k boundary pruning parallelizes too (PR 8): the
    boundary is a shared tighten-only CAS, so workers re-check it per
    morsel at claim time (skipping loads the consumer's check will
    provably also skip) while the *accounted* check still runs on the
    consumer thread at the partition's scan-set position — where the
    boundary state is exactly what a serial scan would have seen,
    because the downstream TopK heap consumes chunks in that same
    order. Rows, order, typed errors, and every profile counter except
    the explicitly speculative ``prefetched_then_skipped`` pair are
    therefore bit-identical to serial execution; skip counts observed
    by workers can only exceed (never miss) the serial decisions.
    """

    def __init__(self, context: ExecContext, table: str, schema: Schema,
                 scan_set: ScanSet, profile: ScanProfile | None = None,
                 columns: Sequence[str] | None = None):
        self.context = context
        self.table = table
        self.schema = schema
        self.scan_set = scan_set
        self.columns = list(columns) if columns is not None else None
        self.profile = profile or context.profile.new_scan(table)
        if self.profile.total_partitions == 0:
            self.profile.total_partitions = len(scan_set)
        self.topk_pruners: list[TopKPruner] = []
        self.runtime_filter_pruner: VectorizedFilterPruner | None = None
        #: ids the deferred filter proves empty, classified for the
        #: whole scan set in one pass on first use.
        self._deferred_pruned: frozenset[int] | None = None
        #: open trace span while the scan iterates (tracing only)
        self._span = None

    # -- runtime pruning hooks -------------------------------------------
    def attach_topk_pruner(self, pruner: TopKPruner) -> None:
        self.topk_pruners.append(pruner)

    def attach_deferred_filter(self,
                               pruner: VectorizedFilterPruner) -> None:
        self.runtime_filter_pruner = pruner

    def apply_join_pruning(self, pruner: JoinPruner) -> None:
        """Eagerly restrict the scan set with a build-side summary."""
        result = pruner.prune(self.scan_set)
        self.context.charge_prune_checks(pruner.vector_checks,
                                         vectorized=True)
        self.context.charge_prune_checks(pruner.fallback_checks)
        self.context.trace_event(
            "prune:join", table=self.table, before=result.before,
            after=result.after, checks=result.checks, mode=pruner.mode)
        self.scan_set = result.kept
        if self.profile.join_result is None:
            self.profile.join_result = result
        else:
            # Multiple joins pruning the same scan: merge counts.
            previous = self.profile.join_result
            previous.pruned_ids.extend(result.pruned_ids)
            previous.kept = result.kept
            previous.checks += result.checks

    # -- iteration ---------------------------------------------------------
    def __iter__(self) -> Iterator[Chunk]:
        workers = self._parallel_workers()
        self.profile.scan_parallelism = workers
        iterator = (self._iter_parallel(workers) if workers > 1
                    else self._iter_serial())
        if self.context.tracer is None:
            return iterator
        return self._iter_traced(iterator, workers)

    def _iter_traced(self, iterator: Iterator[Chunk],
                     workers: int) -> Iterator[Chunk]:
        """Wrap the scan in an explicitly-parented span.

        The span is ended in ``finally`` so a suspended-then-closed
        generator (LIMIT early termination) still records; a generator
        abandoned without closing is repaired by ``Tracer.finish``.

        While this scan iterates, the query's retry stats carry a
        trace hook so each serially-absorbed retry becomes a child
        event with its error class (parallel morsels retry on worker
        threads with private hook-free stats; the consumer emits one
        summary event per morsel instead).
        """
        span = self.context.start_span(
            f"scan:{self.table}", partitions_in=len(self.scan_set),
            workers=workers)
        self._span = span
        retry_stats = self.context.profile.retry_stats
        previous_hook = retry_stats.trace_hook

        def on_retry(error_class: str, delay_ms: float) -> None:
            self.context.trace_event("retry", parent=span,
                                     error=error_class,
                                     backoff_ms=delay_ms)

        retry_stats.trace_hook = on_retry
        try:
            yield from iterator
        finally:
            retry_stats.trace_hook = previous_hook
            profile = self.profile
            span.annotate(loaded=profile.partitions_loaded,
                          rows=profile.rows_scanned,
                          bytes=profile.bytes_scanned)
            if profile.early_terminated:
                span.annotate(early_terminated=True)
            if profile.topk_skipped:
                span.annotate(topk_skipped=profile.topk_skipped)
            if profile.topk_boundary_updates:
                span.annotate(
                    boundary_updates=profile.topk_boundary_updates)
            if profile.prefetched_then_skipped:
                span.annotate(
                    prefetched_then_skipped=profile
                    .prefetched_then_skipped)
            if profile.cache_hits or profile.cache_misses:
                span.annotate(cache_hits=profile.cache_hits,
                              cache_misses=profile.cache_misses)
            span.end()
            self._span = None

    @property
    def order_dependent(self) -> bool:
        """Single source of truth for "does runtime pruning decide per
        partition, mid-scan, whether to load?".

        True when top-k boundary pruners or a deferred runtime filter
        are attached. Such scans still parallelize and prefetch — the
        decisions are *monotone* (a boundary only tightens; a deferred
        verdict is a pure function of the zone map), so readahead
        re-validates them at claim time and surrenders anything a
        tightened boundary later skips. Both speculation gates
        (:meth:`_make_prefetcher` and the morsel loop's advisory
        checks) derive from this one predicate so they cannot drift.
        """
        return bool(self.topk_pruners) \
            or self.runtime_filter_pruner is not None

    def _parallel_workers(self) -> int:
        """Morsel workers this scan may use (1 = stay serial)."""
        workers = getattr(self.context, "scan_parallelism", 1)
        if workers <= 1 or len(self.scan_set) <= 1:
            return 1
        return min(workers, len(self.scan_set))

    def _make_prefetcher(self):
        """Async readahead for the serial scan path.

        Order-dependent scans (:attr:`order_dependent`) prefetch too:
        each fetch is re-validated against the current prune decision
        as it is issued, and a prefetched partition the boundary has
        since tightened past is dropped at consume time without
        charging the query (counted as prefetched-then-skipped). The
        parallel morsel loop needs no prefetcher — its bounded
        in-flight window *is* the readahead.
        """
        cache = self.context.cache
        if (cache is None or not cache.prefetch
                or len(self.scan_set) <= 1):
            return None
        from ..cache.prefetcher import Prefetcher

        window = max(4, self.context.scan_parallelism * 2)
        should_fetch = None
        if self.order_dependent:
            zone_maps = dict(self.scan_set.entries)

            def should_fetch(pid: int) -> bool:
                return not self._advisory_skip(pid, zone_maps[pid])

        return Prefetcher(
            cache, self.context.storage, self.scan_set.partition_ids,
            columns=self.columns, window=window,
            should_fetch=should_fetch)

    def _iter_serial(self) -> Iterator[Chunk]:
        entries = self.scan_set.entries
        cache = self.context.cache
        prefetcher = self._make_prefetcher()
        consumed = 0
        try:
            for partition_id, zone_map in entries:
                consumed += 1
                self.context.charge_metadata_lookups(1)
                if self._runtime_skip(partition_id, zone_map):
                    if prefetcher is not None:
                        self._account_prefetch_drop(
                            partition_id, *prefetcher.drop(partition_id))
                    continue
                if cache is not None:
                    prefetched = (prefetcher.claim(partition_id)
                                  if prefetcher is not None else False)
                    partition = cache.get(
                        partition_id, columns=self.columns,
                        record=not prefetched)
                    if prefetched:
                        # Readahead fetched it moments ago: the bytes
                        # were read from storage this query, so this
                        # counts as a miss (nothing saved) — just off
                        # the critical path.
                        cache.record_miss()
                    if partition is not None:
                        yield self._consume_partition(
                            partition_id, partition,
                            cache_hit=not prefetched,
                            prefetched=prefetched)
                        continue
                retry_stats = self.context.profile.retry_stats
                penalty_before = retry_stats.penalty_ms()
                partition = self.context.storage.load(
                    partition_id, columns=self.columns,
                    retry_stats=retry_stats)
                # Retry backoff and latency spikes absorbed by this
                # load slow the query down on the simulated clock.
                penalty = retry_stats.penalty_ms() - penalty_before
                if penalty:
                    self.context.charge_exec(penalty)
                if cache is not None:
                    self._trace_evictions(
                        cache.put(partition, self.columns))
                yield self._consume_partition(partition_id, partition)
        finally:
            if prefetcher is not None:
                prefetcher.close()
            self._record_boundary_updates()
            if consumed < len(entries):
                self.profile.early_terminated = True

    def _iter_parallel(self, workers: int) -> Iterator[Chunk]:
        from collections import deque
        from concurrent.futures import ThreadPoolExecutor

        from ..faults.retry import RetryStats

        entries = self.scan_set.entries
        storage = self.context.storage
        columns = self.columns
        cache = self.context.cache
        order_dependent = self.order_dependent

        def load_morsel(partition_id: int, zone_map, recheck: bool):
            # Private stats per morsel: retry attribution merges into
            # the query profile when the morsel is consumed, in order.
            # Cache lookups happen here on the worker thread (the
            # cache is thread-safe); profile accounting and trace
            # events stay on the consumer thread.
            if recheck and self._boundary_skip(partition_id, zone_map):
                # Claim-time re-check: the boundary tightened since
                # submission. By monotonicity the consumer's accounted
                # check will also skip this partition, so the load is
                # provably wasted — don't issue it.
                return None
            local = RetryStats()
            if cache is not None:
                cached = cache.get(partition_id, columns=columns)
                if cached is not None:
                    return cached, local, True, []
            partition = storage.load(partition_id, columns=columns,
                                     retry_stats=local)
            evicted = (cache.put(partition, columns)
                       if cache is not None else [])
            return partition, local, False, evicted

        executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="scan-morsel")
        window = workers * 2
        pending: deque = deque()
        submitted = 0
        completed = False
        try:
            while True:
                # Keep up to `window` morsels in flight. Runtime
                # pruning here is *advisory* only (counter- and
                # charge-free): it throttles speculation but every
                # entry still flows through the accounted check at its
                # consume position below.
                while submitted < len(entries) and len(pending) < window:
                    partition_id, zone_map = entries[submitted]
                    submitted += 1
                    future = None
                    if not (order_dependent and self._advisory_skip(
                            partition_id, zone_map)):
                        future = executor.submit(
                            load_morsel, partition_id, zone_map,
                            order_dependent)
                    pending.append((partition_id, zone_map, future))
                if not pending:
                    completed = submitted == len(entries)
                    break
                # Consume in submission order: the accounted pruning
                # decision runs here, where the shared boundary holds
                # exactly the state a serial scan would have seen
                # (the downstream heap has consumed precisely the
                # preceding partitions), so chunk order, skip/check
                # counters, simulated-clock charges, and the position
                # at which a failing partition raises all match serial
                # execution bit for bit.
                partition_id, zone_map, future = pending.popleft()
                self.context.charge_metadata_lookups(1)
                if self._runtime_skip(partition_id, zone_map):
                    if future is not None:
                        self._discard_morsel(partition_id, future)
                    continue
                result = future.result() if future is not None else None
                if result is None:
                    # The speculative path skipped the load but the
                    # accounted check kept the partition. Monotone
                    # boundaries make this unreachable; demand-load
                    # inline so correctness never rests on that proof.
                    result = load_morsel(partition_id, zone_map, False)
                partition, local, cache_hit, evicted = result
                penalty = local.penalty_ms()
                self.context.profile.retry_stats.absorb(local)
                if penalty:
                    self.context.charge_exec(penalty)
                if local.retries:
                    # Recorded here on the consumer thread — the
                    # tracer is single-threaded by design.
                    self.context.trace_event(
                        "retry", parent=self._span,
                        partition=partition_id, retries=local.retries,
                        backoff_ms=penalty)
                self._trace_evictions(evicted)
                yield self._consume_partition(partition_id, partition,
                                              cache_hit=cache_hit)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            self._record_boundary_updates()
            if not completed:
                self.profile.early_terminated = True

    def _consume_partition(self, partition_id: int, partition,
                           cache_hit: bool = False,
                           prefetched: bool = False) -> Chunk:
        """Charge and account one loaded partition, returning its chunk.

        ``partitions_loaded``/``rows_scanned``/``bytes_scanned`` keep
        their cache-independent meaning (what the scan consumed), so
        those counters are bit-identical cache-on vs cache-off; the
        cache's effect shows up in the ``cache_*`` counters, in
        ``IOStats.bytes_read`` (hits never touch storage), and on the
        simulated clock (hits charge the local-read cost).
        """
        nbytes = (partition.project_bytes(self.columns)
                  if self.columns is not None
                  else partition.nbytes())
        stats = self.context.storage.stats
        if cache_hit:
            self.context.charge_cached_load(nbytes)
            stats.record_cache_hit(nbytes)
            self.profile.cache_hits += 1
            self.profile.cache_bytes_saved += nbytes
            self.context.trace_event("cache:hit", parent=self._span,
                                     partition=partition_id,
                                     bytes=nbytes)
        else:
            self.context.charge_partition_load(nbytes)
            if self.context.cache is not None:
                stats.record_cache_miss()
                self.profile.cache_misses += 1
                if prefetched:
                    self.profile.prefetched_partitions += 1
        self.context.charge_rows(partition.row_count)
        self.profile.partitions_loaded += 1
        self.profile.rows_scanned += partition.row_count
        self.profile.bytes_scanned += nbytes
        chunk = Chunk.from_partition(partition)
        if self.columns is not None:
            chunk = chunk.select(self.columns)
        chunk.source_partition = partition_id
        return chunk

    def _trace_evictions(self, evicted: Sequence[int]) -> None:
        for pid in evicted:
            self.context.trace_event("cache:evict", parent=self._span,
                                     partition=pid)

    def _runtime_skip(self, partition_id: int, zone_map) -> bool:
        """The *accounted* runtime-prune decision for one partition.

        Runs exactly once per consumed entry, on the consumer thread,
        in scan-set order — serial and parallel scans therefore charge
        and count identically. Degraded entries (zone maps lost to
        metadata failures) skip the boundary checks entirely, fail
        open: a stats-free zone map can never prove a skip, and not
        counting it as a check keeps fleet pruning-ratio CDFs
        conditioned on actually-eligible partitions.
        """
        if partition_id not in self.scan_set.degraded_ids:
            for pruner in self.topk_pruners:
                vector_before = pruner.vector_checks
                skip = pruner.should_skip(zone_map, partition_id,
                                          self.scan_set)
                self.context.charge_prune_checks(
                    1, vectorized=pruner.vector_checks > vector_before)
                self.profile.topk_checks += 1
                if skip:
                    self.profile.topk_skipped += 1
                    return True
        if self.runtime_filter_pruner is not None:
            skip = self._deferred_skip(partition_id)
            self.context.charge_prune_checks(
                1, vectorized=(
                    self.runtime_filter_pruner.mode != "fallback"
                    and self.scan_set.trusted_row(partition_id)
                    is not None))
            if skip:
                self._record_runtime_filter_prune()
                return True
        return False

    def _advisory_skip(self, partition_id: int, zone_map) -> bool:
        """Counter- and charge-free preview of :meth:`_runtime_skip`.

        Used where a serial scan performs no check at all — morsel
        submission and prefetch issue — to avoid speculative loads the
        accounted check will provably discard. Sound because runtime
        prune decisions are monotone: the boundary only tightens and
        deferred verdicts are pure functions of the zone map, so a
        skip here implies a skip at the accounted position.
        """
        if partition_id in self.scan_set.degraded_ids:
            return False
        return (self._boundary_skip(partition_id, zone_map)
                or (self.runtime_filter_pruner is not None
                    and self._deferred_skip(partition_id)))

    def _boundary_skip(self, partition_id: int, zone_map) -> bool:
        """Worker-thread claim-time boundary re-check (boundary only:
        deferred-filter verdicts are static and already previewed at
        submission). Counter-free; degraded entries never skip because
        their stats-free zone maps answer "best possible rank"."""
        return any(pruner.peek_skip(zone_map, partition_id, self.scan_set)
                   for pruner in self.topk_pruners)

    def _deferred_skip(self, partition_id: int) -> bool:
        """Does the deferred runtime filter prove the partition empty?

        The verdict is a pure function of the zone map, so the whole
        scan set is pruned in one call on first use — by the same
        pruner, over the same scan-set-carried index, as compile-time
        filter pruning.
        """
        if self._deferred_pruned is None:
            self._deferred_pruned = frozenset(
                self.runtime_filter_pruner.prune(self.scan_set).pruned_ids)
        return partition_id in self._deferred_pruned

    def _discard_morsel(self, partition_id: int, future) -> None:
        """Drop a speculatively loaded morsel the accounted check
        skipped. A serial scan never loads this partition, so nothing
        is charged to the simulated clock, its retry stats are not
        absorbed, and a typed error it may have hit is swallowed; the
        wasted wire bytes surface as ``prefetched_then_skipped``."""
        if future.cancel():
            return
        try:
            result = future.result()
        except Exception:
            return
        if result is None:
            return
        partition = result[0]
        nbytes = (partition.project_bytes(self.columns)
                  if self.columns is not None else partition.nbytes())
        self._account_prefetch_drop(partition_id, 1, nbytes)

    def _account_prefetch_drop(self, partition_id: int, dropped: int,
                               nbytes: int) -> None:
        if not dropped:
            return
        self.profile.prefetched_then_skipped += dropped
        self.profile.prefetched_then_skipped_bytes += nbytes
        self.context.trace_event("prefetch:drop", parent=self._span,
                                 partition=partition_id, bytes=nbytes)

    def _record_boundary_updates(self) -> None:
        """Publish boundary-tightening totals into the scan profile
        (end of iteration; distinct pruners may share one boundary)."""
        seen: set[int] = set()
        total = 0
        for pruner in self.topk_pruners:
            boundary = pruner.boundary
            if id(boundary) in seen:
                continue
            seen.add(id(boundary))
            total += boundary.updates
        if total:
            self.profile.topk_boundary_updates = total

    def _record_runtime_filter_prune(self) -> None:
        result = self.profile.filter_result
        if result is not None:
            result.pruned_ids.append(-1)
        # If no compile-time pruning ran, runtime filter prunes are
        # still attributed to the filter technique.
        elif self.profile.filter_result is None:
            from ..pruning.base import PruneCategory, PruningResult

            self.profile.filter_result = PruningResult(
                technique=PruneCategory.FILTER,
                before=self.profile.total_partitions,
                kept=ScanSet(),
                pruned_ids=[-1],
            )


class Filter(Operator):
    """Row-level predicate application (WHERE)."""

    def __init__(self, context: ExecContext, child: Operator,
                 predicate: ast.Expr):
        self.context = context
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        #: micro-partitions that produced at least one qualifying row;
        #: feeds the filter predicate cache (§8.2)
        self.partitions_with_matches: set[int] = set()

    def __iter__(self) -> Iterator[Chunk]:
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            mask = evaluate_predicate(self.predicate, chunk.columns,
                                      self.schema)
            filtered = chunk.filter(mask)
            filtered.source_partition = chunk.source_partition
            if filtered.num_rows:
                if chunk.source_partition is not None:
                    self.partitions_with_matches.add(
                        chunk.source_partition)
                yield filtered


class Project(Operator):
    """Computes output expressions (SELECT list)."""

    def __init__(self, context: ExecContext, child: Operator,
                 exprs: Sequence[ast.Expr], names: Sequence[str]):
        if len(exprs) != len(names):
            raise PlanError("projection exprs and names differ in length")
        self.context = context
        self.child = child
        self.exprs = list(exprs)
        self.names = [n.lower() for n in names]
        from ..types import Field

        self.schema = Schema(
            Field(name, expr.dtype(child.schema))
            for name, expr in zip(self.names, self.exprs))

    def __iter__(self) -> Iterator[Chunk]:
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            columns = {
                name: evaluate(expr, chunk.columns, self.child.schema)
                for name, expr in zip(self.names, self.exprs)
            }
            out = Chunk(self.schema, columns)
            out.source_partition = chunk.source_partition
            yield out


class HashJoin(Operator):
    """Hash join with build-side summaries and probe-side pruning (§6).

    The *build* child is fully materialized into a hash table; its join
    keys are summarized, and — when the probe child bottoms out at a
    :class:`Scan` whose column feeds the join key directly — the
    summary prunes the probe scan set before a single probe partition
    is loaded. A Bloom filter additionally skips per-row hash-table
    probes (the classic bloom-join CPU saving).

    ``join_type``: ``"inner"`` or ``"left_outer"`` (probe side
    preserved; matches SQL LEFT JOIN with the left input as probe).
    """

    def __init__(self, context: ExecContext, probe: Operator,
                 build: Operator, probe_key: str, build_key: str,
                 join_type: str = "inner",
                 probe_scan: "Scan | None" = None,
                 probe_scan_column: str | None = None,
                 summary_kind: str = "rangeset"):
        if join_type not in ("inner", "left_outer"):
            raise PlanError(f"unsupported join type {join_type!r}")
        self.context = context
        self.probe = probe
        self.build = build
        self.probe_key = probe_key.lower()
        self.build_key = build_key.lower()
        self.join_type = join_type
        self.probe_scan = probe_scan
        self.probe_scan_column = (probe_scan_column or probe_key).lower()
        self.summary_kind = summary_kind
        self.schema = probe.schema.concat(build.schema)
        self.bloom_probes_skipped = 0
        self.build_rows = 0

    def __iter__(self) -> Iterator[Chunk]:
        build_chunk, table = self._build_phase()
        yield from self._probe_phase(build_chunk, table)

    def _build_phase(self) -> tuple[Chunk, dict]:
        chunks = list(self.build)
        build_chunk = Chunk.concat(self.build.schema, chunks)
        self.build_rows = build_chunk.num_rows
        self.context.charge_rows(build_chunk.num_rows)
        key_column = build_chunk.column(self.build_key)
        table: dict[Any, list[int]] = {}
        for i in range(len(key_column)):
            if key_column.nulls[i]:
                continue  # NULL keys never join
            table.setdefault(key_column.values[i], []).append(i)
        summary = build_summary(
            (key_column.values[i] for i in range(len(key_column))
             if not key_column.nulls[i]),
            kind=self.summary_kind)
        self._bloom = BloomFilter(expected_items=max(1, len(table)))
        for key in table:
            self._bloom.add(key)
        self._prune_probe_side(summary)
        return build_chunk, table

    def _prune_probe_side(self, summary) -> None:
        # Probe-side partition pruning is only sound when probe rows
        # are not preserved: a LEFT OUTER probe row must surface even
        # with no partner.
        if self.probe_scan is None or self.join_type != "inner":
            return
        pruner = JoinPruner(self.probe_scan_column, summary)
        self.probe_scan.apply_join_pruning(pruner)

    def _probe_phase(self, build_chunk: Chunk,
                     table: dict) -> Iterator[Chunk]:
        build_width = len(self.build.schema)
        for chunk in self.probe:
            self.context.charge_rows(chunk.num_rows)
            key_column = chunk.column(self.probe_key)
            probe_indices: list[int] = []
            build_indices: list[int] = []
            unmatched: list[int] = []
            for i in range(chunk.num_rows):
                if key_column.nulls[i]:
                    if self.join_type == "left_outer":
                        unmatched.append(i)
                    continue
                key = key_column.values[i]
                if not self._bloom.might_contain(key):
                    self.bloom_probes_skipped += 1
                    if self.join_type == "left_outer":
                        unmatched.append(i)
                    continue
                matches = table.get(key)
                if matches:
                    for j in matches:
                        probe_indices.append(i)
                        build_indices.append(j)
                elif self.join_type == "left_outer":
                    unmatched.append(i)
            yield from self._emit(chunk, build_chunk, probe_indices,
                                  build_indices, unmatched, build_width)

    def _emit(self, probe_chunk: Chunk, build_chunk: Chunk,
              probe_indices: list[int], build_indices: list[int],
              unmatched: list[int], build_width: int) -> Iterator[Chunk]:
        pieces = []
        if probe_indices:
            probe_part = probe_chunk.take(np.asarray(probe_indices))
            build_part = build_chunk.take(np.asarray(build_indices))
            pieces.append(self._combine(probe_part, build_part))
        if unmatched:
            probe_part = probe_chunk.take(np.asarray(unmatched))
            null_build = {
                f.name: Column.all_null(f.dtype, len(unmatched))
                for f in self.build.schema
            }
            build_part = Chunk(self.build.schema, null_build)
            pieces.append(self._combine(probe_part, build_part))
        for piece in pieces:
            if piece.num_rows:
                yield piece

    def _combine(self, probe_part: Chunk, build_part: Chunk) -> Chunk:
        columns = dict(probe_part.columns)
        columns.update(build_part.columns)
        return Chunk(self.schema, columns)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate in a GROUP BY: ``func(input) AS output``."""

    func: str                 #: count / count_star / sum / min / max / avg
    input: str | None         #: input column; None for count_star
    output: str

    def output_dtype(self, input_dtype: DataType | None) -> DataType:
        if self.func in ("count", "count_star"):
            return DataType.INTEGER
        if self.func == "avg":
            return DataType.DOUBLE
        if self.func in ("sum", "min", "max"):
            if input_dtype is None:
                raise PlanError(f"{self.func} requires an input column")
            return input_dtype
        raise PlanError(f"unknown aggregate {self.func!r}")


class _Accumulator:
    """Per-group aggregate state."""

    __slots__ = ("count", "count_star", "total", "lo", "hi")

    def __init__(self):
        self.count = 0
        self.count_star = 0
        self.total = 0
        self.lo = None
        self.hi = None

    def update(self, value: Any) -> None:
        self.count_star += 1
        if value is None:
            return
        self.count += 1
        if isinstance(value, (int, float, np.integer, np.floating)):
            self.total += value
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value

    def result(self, func: str) -> Any:
        if func == "count_star":
            return self.count_star
        if func == "count":
            return self.count
        if func == "sum":
            return self.total if self.count else None
        if func == "min":
            return self.lo
        if func == "max":
            return self.hi
        if func == "avg":
            return self.total / self.count if self.count else None
        raise ExecutionError(f"unknown aggregate {func!r}")


class HashAggregate(Operator):
    """Hash aggregation (GROUP BY) with optional top-k awareness.

    When the downstream TopK orders by a grouping key (Figure 7d), the
    aggregate maintains its own heap of group keys and feeds the shared
    boundary: a scanned partition whose best possible key is worse than
    the current k-th best *group key* cannot introduce a result group.
    """

    def __init__(self, context: ExecContext, child: Operator,
                 group_keys: Sequence[str], aggs: Sequence[AggSpec],
                 topk_hint: "TopKGroupHint | None" = None):
        from ..types import Field

        self.context = context
        self.child = child
        self.group_keys = [k.lower() for k in group_keys]
        self.aggs = list(aggs)
        fields = [child.schema.field(k) for k in self.group_keys]
        for spec in self.aggs:
            input_dtype = (child.schema.dtype_of(spec.input)
                           if spec.input is not None else None)
            fields.append(Field(spec.output,
                                spec.output_dtype(input_dtype)))
        self.schema = Schema(fields)
        self.topk_hint = topk_hint

    def __iter__(self) -> Iterator[Chunk]:
        # Each aggregate tracks its own accumulator per group.
        groups: dict[tuple, list[_Accumulator]] = {}
        hint = self.topk_hint
        heap: list[tuple] = []
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            key_columns = [chunk.column(k) for k in self.group_keys]
            agg_columns = [chunk.column(s.input) if s.input else None
                           for s in self.aggs]
            for i in range(chunk.num_rows):
                key = tuple(c.value_at(i) for c in key_columns)
                state = groups.get(key)
                if state is None:
                    state = [_Accumulator() for _ in self.aggs]
                    groups[key] = state
                    if hint is not None:
                        self._update_hint(heap, key, hint)
                for spec_index, column in enumerate(agg_columns):
                    value = (column.value_at(i)
                             if column is not None else 0)
                    state[spec_index].update(value)
        yield self._materialize(groups)

    def _update_hint(self, heap: list[tuple], key: tuple,
                     hint: "TopKGroupHint") -> None:
        key_value = key[hint.key_index]
        rank = rank_of(key_value, hint.desc)
        heapq.heappush(heap, rank)
        if len(heap) > hint.k:
            heapq.heappop(heap)
        if len(heap) == hint.k:
            hint.boundary.update(heap[0])

    def _materialize(self, groups: dict) -> Chunk:
        rows = []
        for key, state in groups.items():
            rows.append(tuple(key) + tuple(
                acc.result(spec.func)
                for spec, acc in zip(self.aggs, state)))
        return Chunk.from_rows(self.schema, rows)


@dataclass
class TopKGroupHint:
    """Wiring for top-k pruning through GROUP BY (Figure 7d)."""

    key_index: int        #: position of the ORDER BY column in group keys
    k: int
    desc: bool
    boundary: Boundary


@dataclass(frozen=True)
class SortKey:
    column: str
    desc: bool = False


class Sort(Operator):
    """Full materializing sort; NULLs last in either direction."""

    def __init__(self, context: ExecContext, child: Operator,
                 keys: Sequence[SortKey]):
        if not keys:
            raise PlanError("sort requires at least one key")
        self.context = context
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema

    def __iter__(self) -> Iterator[Chunk]:
        chunks = list(self.child)
        merged = Chunk.concat(self.schema, chunks)
        self.context.charge_rows(merged.num_rows)
        columns = [merged.column(k.column) for k in self.keys]

        def row_rank(i: int) -> tuple:
            return tuple(
                rank_of(col.value_at(i), key.desc)
                for col, key in zip(columns, self.keys))

        order = sorted(range(merged.num_rows), key=row_rank, reverse=True)
        yield merged.take(np.asarray(order, dtype=np.int64))


class TopK(Operator):
    """Heap-based ORDER BY ... LIMIT k with boundary feedback (§5.2).

    Maintains a k-element heap over the ORDER BY key(s); whenever the
    heap is full, the *leading* key's rank of the k-th best row is
    published to the shared :class:`Boundary`, which the upstream scan
    uses to skip partitions (sound for multi-key orderings because a
    row whose leading rank is strictly worse than the k-th row's
    leading rank is lexicographically worse overall). Also records
    which micro-partition each surviving heap row came from, enabling
    the top-k predicate cache (§8.2).
    """

    def __init__(self, context: ExecContext, child: Operator,
                 order_column: "str | Sequence[SortKey]", k: int,
                 desc: bool = True, boundary: Boundary | None = None,
                 offset: int = 0):
        if k < 0 or offset < 0:
            raise PlanError("TopK k and offset must be non-negative")
        self.context = context
        self.child = child
        if isinstance(order_column, str):
            self.keys: list[SortKey] = [SortKey(order_column.lower(),
                                                desc)]
        else:
            self.keys = [SortKey(key.column.lower(), key.desc)
                         for key in order_column]
            if not self.keys:
                raise PlanError("TopK requires at least one sort key")
        self.order_column = self.keys[0].column
        self.desc = self.keys[0].desc
        self.k = k
        self.offset = offset
        self.boundary = boundary
        self.schema = child.schema
        self.contributing_partitions: set[int] = set()

    def __iter__(self) -> Iterator[Chunk]:
        keep = self.k + self.offset
        if keep == 0:
            return
        heap: list[tuple] = []  # (rank_tuple, seq, row, partition_id)
        seq = 0
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            order_cols = [chunk.column(key.column)
                          for key in self.keys]
            source = chunk.source_partition
            for i in range(chunk.num_rows):
                rank = tuple(
                    rank_of(column.value_at(i), key.desc)
                    for column, key in zip(order_cols, self.keys))
                if len(heap) == keep and rank <= heap[0][0]:
                    continue
                seq += 1
                heapq.heappush(heap, (rank, seq, chunk.row_at(i), source))
                if len(heap) > keep:
                    heapq.heappop(heap)
                if len(heap) == keep and self.boundary is not None:
                    # publish only the leading key's component
                    self.boundary.update(heap[0][0][0])
        ordered = sorted(heap, key=lambda e: (e[0], -e[1]), reverse=True)
        selected = ordered[self.offset:]
        self.contributing_partitions = {
            e[3] for e in selected if e[3] is not None}
        rows = [e[2] for e in selected]
        yield Chunk.from_rows(self.schema, rows)


class Limit(Operator):
    """LIMIT k OFFSET m with early termination."""

    def __init__(self, context: ExecContext, child: Operator, k: int,
                 offset: int = 0):
        if k < 0 or offset < 0:
            raise PlanError("LIMIT k and offset must be non-negative")
        self.context = context
        self.child = child
        self.k = k
        self.offset = offset
        self.schema = child.schema

    def __iter__(self) -> Iterator[Chunk]:
        to_skip = self.offset
        remaining = self.k
        if remaining == 0:
            return
        for chunk in self.child:
            if to_skip:
                if chunk.num_rows <= to_skip:
                    to_skip -= chunk.num_rows
                    continue
                chunk = chunk.slice(to_skip, chunk.num_rows)
                to_skip = 0
            if chunk.num_rows > remaining:
                chunk = chunk.slice(0, remaining)
            remaining -= chunk.num_rows
            yield chunk
            if remaining == 0:
                return
