"""Physical operators.

Every operator is an iterable of :class:`~.chunk.Chunk` with a
``schema`` attribute. Leaves are :class:`Scan`; the rest wrap children.
Operators charge simulated time to the :class:`~.context.ExecContext`
so pruning savings show up as runtime improvements deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import PlanError, StorageError
from ..expr import ast
from ..expr.eval import bind, bind_predicate
from ..pruning.base import ScanSet
from ..pruning.join_pruning import JoinPruner
from ..pruning.stats_index import VectorizedFilterPruner
from ..pruning.summaries import RangeSetSummary
from ..pruning.topk_pruning import Boundary, TopKPruner, rank_of
from ..storage.column import Column
from ..storage.micropartition import concat_columns, project_bytes
from ..types import DataType, Field, Schema
from .chunk import Chunk
from .context import ExecContext, ScanProfile
from .kernels import (
    group_rows, join_keys, segment_extreme, segment_sum, sort_order)

#: rows per batch a scan hands up when nothing steers it (see Scan)
BATCH_ROWS = 4096


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

    The scan cuts its scan set (ids and row counts) into batches of
    about :data:`BATCH_ROWS` rows, and where fully-matching status
    changes, before loading: a batch is one storage call, one charge,
    one accounting update and one chunk (its partitions as runs). It
    streams, one partition a batch, under a :class:`Limit` (stopping
    must not load more) or with runtime pruners, whose skip check runs
    right before each load.

    The scan runs on the query's thread. The paper's warehouse scans
    surviving partitions in parallel across its nodes (§2); that effect
    is modelled without threads by :mod:`~repro.engine.warehouse`.
    """

    def __init__(self, context: ExecContext, table: str, schema: Schema,
                 scan_set: ScanSet, profile: ScanProfile | None = None,
                 columns: Sequence[str] | None = None,
                 predicate: ast.Expr | None = None):
        self.context = context
        self.table = table
        #: the pushed-down WHERE (simplified) the rows above this scan
        #: are filtered by; the scan never evaluates it, it names the
        #: query shape for the predicate cache (§8.2)
        self.predicate = predicate
        #: the columns read (lower-case), None for all of ``schema``'s;
        #: bound here with the schema of every chunk this scan yields
        self.columns = ([c.lower() for c in columns]
                        if columns is not None else None)
        self.schema = (schema if columns is None
                       else schema.select(self.columns))
        self.scan_set = scan_set
        self.profile = profile or context.profile.new_scan(table)
        if self.profile.total_partitions == 0:
            self.profile.total_partitions = len(scan_set)
        self.topk_pruners: list[TopKPruner] = []
        self.runtime_filter_pruner: VectorizedFilterPruner | None = None
        #: set by a :class:`Limit` above: stream, one partition a chunk
        self.limited = False
        #: set by a :class:`Filter` above: the partitions it bypasses
        self.fully_matching: frozenset[int] = frozenset()
        #: ids the deferred filter proves empty, classified for the
        #: whole scan set in one pass on first use.
        self._deferred_pruned: frozenset[int] | None = None
        #: open trace span while the scan iterates (tracing only)
        self._span = None
        #: the typed error of a load that failed mid-batch, raised once
        #: the partitions before it are delivered
        self._failure: StorageError | None = None

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
            previous.add_pruned(result.pruned_ids)
            previous.kept = result.kept
            previous.checks += result.checks

    # -- iteration ---------------------------------------------------------
    def __iter__(self) -> Iterator[Chunk]:
        if self.context.tracer is None:
            return self._iter_serial()
        return self._iter_traced(self._iter_serial())

    def _iter_traced(self, iterator: Iterator[Chunk]) -> Iterator[Chunk]:
        """Wrap the scan in an explicitly-parented span.

        The span is ended in ``finally`` so a suspended-then-closed
        generator (LIMIT early termination) still records; a generator
        abandoned without closing is repaired by ``Tracer.finish``.
        """
        span = self.context.start_span(
            f"scan:{self.table}", partitions_in=len(self.scan_set))
        self._span = span
        try:
            yield from iterator
        finally:
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
            if profile.cache_hits or profile.cache_misses:
                span.annotate(cache_hits=profile.cache_hits,
                              cache_misses=profile.cache_misses)
            span.end()
            self._span = None

    def _batch_bounds(self, ids: list[int]) -> Iterator[tuple[int, int]]:
        """Each batch's ``[start, stop)`` in the scan set: one partition
        when the scan streams, else :data:`BATCH_ROWS` rows (by the scan
        set's row counts), cut where fully-matching status changes."""
        budget = 0 if self.limited or self.order_dependent else BATCH_ROWS
        fully_matching, status = self.fully_matching, None
        start = rows = 0
        for stop, (pid, count) in enumerate(
                zip(ids, self.scan_set.row_counts.tolist())):
            matching = pid in fully_matching
            if matching != status and stop > start:
                yield start, stop
                start, rows = stop, 0
            status = matching
            rows += count
            if rows >= budget:
                yield start, stop + 1
                start, rows = stop + 1, 0
        if start < len(ids):
            yield start, len(ids)

    @property
    def order_dependent(self) -> bool:
        """Single source of truth for "does runtime pruning decide per
        partition, mid-scan, whether to load?".

        True when top-k boundary pruners or a deferred runtime filter
        are attached: such a scan streams one partition a batch, so
        each skip check sees the boundary its predecessors left.
        """
        return bool(self.topk_pruners) \
            or self.runtime_filter_pruner is not None

    def _iter_serial(self) -> Iterator[Chunk]:
        ids = self.scan_set.partition_ids
        zone_maps = ([zone_map for _, zone_map in self.scan_set]
                     if self.order_dependent else None)
        consumed = 0
        try:
            for start, stop in self._batch_bounds(ids):
                consumed = stop
                self.context.charge_metadata_lookups(stop - start)
                if zone_maps is not None and self._runtime_skip(
                        ids[start], zone_maps[start]):
                    continue
                yield self._load_batch(ids[start:stop])
                if self._failure is not None:
                    raise self._failure
        finally:
            self._record_boundary_updates()
            if consumed < len(ids):
                self.profile.early_terminated = True

    def _load_batch(self, ids: list[int]) -> Chunk:
        """Load and account one batch, returning its chunk. What the data
        cache misses is one storage call, but a lookup that may hit
        loads the misses before it first: the cache sees lookups and
        admissions in scan-set order. When a load fails, the partitions
        before it are accounted and make the chunk, and ``_failure``
        keeps the typed error for the scan to raise once the chunk is
        delivered, as a scan streaming one partition a batch delivers
        them; with no partition before it, the error propagates."""
        cache = self.context.cache
        loaded, missing = [], [] if cache is not None else ids
        nbytes = hits = hit_bytes = 0
        try:
            for pid in ids if cache is not None else ():
                if missing and pid in cache:
                    nbytes += self._load_misses(missing, loaded)
                    missing = []
                partition = cache.get(pid, columns=self.columns,
                                      record=False)
                if partition is None:
                    missing.append(pid)
                    continue
                loaded.append(partition)
                size = partition.project_bytes(self.columns)
                nbytes += size
                hits, hit_bytes = hits + 1, hit_bytes + size
                self.context.trace_event("cache:hit", parent=self._span,
                                         partition=pid, bytes=size)
            nbytes += self._load_misses(missing, loaded)
        except StorageError as error:
            self._failure = error
            nbytes = project_bytes(loaded, self.columns)
        if cache is not None:
            cache.record_lookups(hits, hit_bytes, len(loaded) - hits
                                 + (self._failure is not None))
        if not loaded:
            raise self._failure
        return self._account(loaded, nbytes, hits, hit_bytes)

    def _load_misses(self, ids: list[int], loaded: list) -> int:
        """Load ``ids`` onto ``loaded`` in one storage call, admitting
        each to the data cache; returns the bytes read."""
        start, cache = len(loaded), self.context.cache
        try:
            return self.context.storage.load_many(
                ids, self.columns, loaded=loaded)[1]
        finally:
            for partition in loaded[start:] if cache is not None else ():
                self._trace_evictions(cache.put(partition, self.columns))

    def _account(self, loaded: list, nbytes: int, hits: int = 0,
                 hit_bytes: int = 0) -> Chunk:
        """Charge and account loaded partitions of ``nbytes``, returning
        their chunk: ``hits`` of them (``hit_bytes``) came from the data
        cache.

        ``partitions_loaded``/``rows_scanned``/``bytes_scanned`` keep
        their cache-independent meaning (what the scan consumed), so
        those counters are bit-identical cache-on vs cache-off; the
        cache's effect shows up in the ``cache_*`` counters, in
        ``IOStats.bytes_read`` (hits never touch storage), and on the
        simulated clock (hits charge the local-read cost).
        """
        context, profile = self.context, self.profile
        rows = [partition.zone_map.row_count for partition in loaded]
        total = sum(rows)
        loads = len(loaded) - hits
        context.charge_loads(loads, nbytes - hit_bytes, total, hits,
                             hit_bytes)
        if context.cache is not None:
            context.storage.stats.record_cache_traffic(hits, hit_bytes,
                                                       loads)
            profile.cache_hits += hits
            profile.cache_bytes_saved += hit_bytes
            profile.cache_misses += loads
        profile.partitions_loaded += len(loaded)
        profile.rows_scanned += total
        profile.bytes_scanned += nbytes
        # The partitions validated these columns when they were built.
        chunk = Chunk._derived(self.schema, concat_columns(
            self.schema, loaded))
        chunk.runs = tuple(zip([p.partition_id for p in loaded], rows))
        return chunk

    def _trace_evictions(self, evicted: Sequence[int]) -> None:
        for pid in evicted:
            self.context.trace_event("cache:evict", parent=self._span,
                                     partition=pid)

    def _runtime_skip(self, partition_id: int, zone_map) -> bool:
        """The runtime-prune decision for one partition, made once per
        entry in scan-set order. Degraded entries (zone maps lost to
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
        if result is None:
            # If no compile-time pruning ran, runtime filter prunes are
            # still attributed to the filter technique.
            from ..pruning.base import PruneCategory, PruningResult

            result = self.profile.filter_result = PruningResult(
                technique=PruneCategory.FILTER,
                before=self.profile.total_partitions,
                kept=ScanSet(),
            )
        result.add_pruned((-1,))


class Filter(Operator):
    """Row-level predicate application (WHERE). An output chunk keeps
    its input's runs, each counting its rows that pass; a batch of
    fully-matching partitions passes as it is, unevaluated."""

    def __init__(self, context: ExecContext, child: Operator,
                 predicate: ast.Expr,
                 fully_matching: Iterable[int] = ()):
        self.context = context
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self._mask = bind_predicate(predicate, self.schema)
        #: partitions of the child :class:`Scan` proven at compile time to
        #: hold only matching rows (§4.2): their chunks pass unevaluated
        self.fully_matching = frozenset(fully_matching)
        if isinstance(child, Scan):
            child.fully_matching = self.fully_matching
        #: micro-partitions that produced at least one qualifying row;
        #: feeds the filter predicate cache (§8.2)
        self.partitions_with_matches: set[int] = set()

    def __iter__(self) -> Iterator[Chunk]:
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            runs = chunk.runs
            if runs and runs[0][0] in self.fully_matching:
                self.child.profile.filter_bypassed += len(runs)
                filtered = chunk
            else:
                mask = self._mask(chunk.columns, chunk.num_rows)
                filtered = chunk.filter(mask)
                if len(runs) > 1:
                    runs = _kept_runs(runs, mask)
                elif runs:
                    runs = ((runs[0][0], filtered.num_rows),)
                filtered.runs = runs
            if filtered.num_rows:
                self.partitions_with_matches.update(
                    pid for pid, rows in runs if rows)
                yield filtered


def _kept_runs(runs: tuple, mask: np.ndarray) -> tuple:
    """The runs of the rows ``mask`` selects: its cumsum at run ends
    (``reduceat`` would misread zero-row runs)."""
    ids, rows = zip(*runs)
    before = np.concatenate(([0], np.cumsum(mask)))
    counts = np.diff(before[np.cumsum((0,) + rows)]).tolist()
    return tuple(run for run in zip(ids, counts) if run[1])


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
        self.schema = Schema(
            Field(name, expr.dtype(child.schema))
            for name, expr in zip(self.names, self.exprs))
        self._bound = [(name, bind(expr, child.schema))
                       for name, expr in zip(self.names, self.exprs)]

    def __iter__(self) -> Iterator[Chunk]:
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            out = Chunk._derived(self.schema, {
                name: bound(chunk.columns, chunk.num_rows)
                for name, bound in self._bound})
            out.runs = chunk.runs
            yield out


class HashJoin(Operator):
    """Equi-join with build-side summaries and probe-side pruning (§6).

    The *build* child is fully materialized and its non-NULL join keys
    sorted once (stably: equal keys stay in build order); the keys are
    summarized, and — when the probe child bottoms out at a
    :class:`Scan` whose column feeds the join key directly — the
    summary prunes the probe scan set before a single probe partition
    is loaded. Each probe chunk finds its partners with two
    ``searchsorted`` calls. Output is in probe row order and, within
    one probe row, build order.

    ``join_type``: ``"inner"`` or ``"left_outer"`` (probe side
    preserved; matches SQL LEFT JOIN with the left input as probe).
    """

    def __init__(self, context: ExecContext, probe: Operator,
                 build: Operator, probe_key: str, build_key: str,
                 join_type: str = "inner",
                 probe_scan: "Scan | None" = None,
                 probe_scan_column: str | None = None):
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
        self.schema = probe.schema.concat(build.schema)
        self.build_rows = 0

    def __iter__(self) -> Iterator[Chunk]:
        yield from self._probe_phase(*self._build_phase())

    def _build_phase(self) -> tuple[Chunk, np.ndarray, np.ndarray]:
        """The build chunk, its joinable keys sorted, their build rows."""
        build_chunk = Chunk.concat(self.build.schema, list(self.build))
        self.build_rows = build_chunk.num_rows
        self.context.charge_rows(build_chunk.num_rows)
        key_column = build_chunk.column(self.build_key)
        # Probe-side partition pruning is only sound when probe rows
        # are not preserved: a LEFT OUTER probe row must surface even
        # with no partner.
        if self.probe_scan is not None and self.join_type == "inner":
            self.probe_scan.apply_join_pruning(JoinPruner(
                self.probe_scan_column, RangeSetSummary(
                    key_column.values[~key_column.nulls])))
        keys, joinable = join_keys(
            key_column, self.probe.schema.dtype_of(self.probe_key))
        rows = np.flatnonzero(joinable)
        order = np.argsort(keys[rows], kind="stable")
        return build_chunk, keys[rows[order]], rows[order]

    def _probe_phase(self, build_chunk: Chunk, sorted_keys: np.ndarray,
                     sorted_rows: np.ndarray) -> Iterator[Chunk]:
        build_dtype = self.build.schema.dtype_of(self.build_key)
        for chunk in self.probe:
            self.context.charge_rows(chunk.num_rows)
            keys, joinable = join_keys(chunk.columns[self.probe_key],
                                       build_dtype)
            lo = np.searchsorted(sorted_keys, keys, "left")
            matches = np.searchsorted(sorted_keys, keys, "right") - lo
            matches[~joinable] = 0
            # Probe row i pairs with sorted positions lo[i] up to
            # lo[i] + matches[i]: repeat i per partner, count up from lo.
            probe_rows = np.repeat(np.arange(len(matches)), matches)
            if len(probe_rows):
                run_starts = np.cumsum(matches) - matches
                within = (np.arange(len(probe_rows))
                          - run_starts[probe_rows])
                build_rows = sorted_rows[lo[probe_rows] + within]
                yield self._combine(chunk, probe_rows, {
                    name: column.take(build_rows)
                    for name, column in build_chunk.columns.items()})
            if self.join_type == "left_outer":
                unmatched = np.flatnonzero(matches == 0)
                if len(unmatched):
                    yield self._combine(chunk, unmatched, {
                        f.name: Column.all_null(f.dtype, len(unmatched))
                        for f in self.build.schema})

    def _combine(self, probe_chunk: Chunk, probe_rows: np.ndarray,
                 build_columns: dict[str, Column]) -> Chunk:
        columns = {name: column.take(probe_rows)
                   for name, column in probe_chunk.columns.items()}
        columns.update(build_columns)
        return Chunk._derived(self.schema, columns)


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

    def partials(self) -> tuple[tuple[str, str | None], ...]:
        """The ``(kind, input)`` partial states this aggregate reads."""
        if self.func == "avg":
            return (("sum", self.input), ("count", self.input))
        return ((self.func, self.input),)


#: HashAggregate folds its buffered rows into one per group once more than
#: this many, and more than it has groups, wait (a fold re-sorts the groups).
_FOLD_ROWS = 4096
#: NaN is the largest value, as in sorts: ``maximum`` yields it, ``fmin``
#: skips it unless the group has nothing else.
_EXTREMES = {"min": np.fmin, "max": np.maximum}


class HashAggregate(Operator):
    """Grouped aggregation (GROUP BY) with optional top-k awareness.

    State is one *partial* row per group: the key columns plus a column
    per distinct ``(kind, input)`` partial. An input row is itself a
    partial (its value is the sum, min and max of one row), so chunks
    are buffered as they come and folded with the state by one kernel:
    group ids, then NULL-skipping per-group sums (of sums, of counts)
    and extremes. The state comes first in every fold, so groups stay
    in order of first appearance and sums add rows in arrival order.

    When the downstream TopK orders by a grouping key (Figure 7d), the
    aggregate tracks the k best distinct group keys and feeds the
    shared boundary after every chunk: a scanned partition whose best
    possible key is worse than the current k-th best *group key* cannot
    introduce a result group.
    """

    def __init__(self, context: ExecContext, child: Operator,
                 group_keys: Sequence[str], aggs: Sequence[AggSpec],
                 topk_hint: "TopKGroupHint | None" = None):
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
        self._partials = list(dict.fromkeys(
            partial for spec in self.aggs for partial in spec.partials()))

    def __iter__(self) -> Iterator[Chunk]:
        #: blocks of ``keys + partials`` columns; the folded state first
        blocks: list[list[Column]] = []
        buffered, fold_at = 0, _FOLD_ROWS
        best_keys: list[Column] | None = None
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            keys = [chunk.column(k) for k in self.group_keys]
            if self.topk_hint is not None:
                best_keys = self._feed_hint(keys, best_keys)
            blocks.append(keys + [self._unit_partial(chunk, kind, source)
                                  for kind, source in self._partials])
            buffered += chunk.num_rows
            if buffered > fold_at:
                blocks = [self._fold(blocks)]
                buffered, fold_at = 0, max(_FOLD_ROWS, len(blocks[0][0]))
        if blocks:
            yield self._finish(self._fold(blocks))
        elif self.group_keys:
            yield Chunk.empty(self.schema)
        else:
            # SQL: no rows still make one global row, COUNT 0, the rest NULL.
            yield self._finish([
                Column.constant(DataType.INTEGER, 0, 1)
                if kind in ("count", "count_star") else
                Column.all_null(self.child.schema.dtype_of(source), 1)
                for kind, source in self._partials])

    @staticmethod
    def _unit_partial(chunk: Chunk, kind: str, source: str | None) -> Column:
        """The partial state of each single input row."""
        if kind == "count_star":
            return Column.constant(DataType.INTEGER, 1, chunk.num_rows)
        column = chunk.column(source)
        if kind == "count":
            return Column.from_numpy(DataType.INTEGER, ~column.nulls)
        return column   # one row's sum, min and max are its value

    def _fold(self, blocks: list[list[Column]]) -> list[Column]:
        """One partial row per group out of the blocks' rows."""
        n_keys = len(self.group_keys)
        merged = [Column.concat(columns) for columns in zip(*blocks)]
        codes, order, first_rows = group_rows(merged[:n_keys],
                                              len(merged[0]))
        groups = len(first_rows)
        folded = [key.take(first_rows) for key in merged[:n_keys]]
        for (kind, _), column in zip(self._partials, merged[n_keys:]):
            folded.append(
                segment_extreme(_EXTREMES[kind], column, codes, order,
                                groups) if kind in _EXTREMES
                else segment_sum(column, codes, groups))
        return folded

    def _feed_hint(self, keys: list[Column],
                   best_keys: list[Column] | None) -> list[Column]:
        """Merge a chunk's groups into the k best seen and publish the
        k-th. A group dropped from them is never better than the
        boundary again, so the boundary after each chunk is the one a
        heap over every distinct group seen would hold."""
        hint = self.topk_hint
        if best_keys is not None:
            keys = [Column.concat(pair) for pair in zip(best_keys, keys)]
        first_rows = group_rows(keys, len(keys[0]))[2]
        distinct = [key.take(first_rows) for key in keys]
        order = sort_order([distinct[hint.key_index]],
                           [hint.desc])[:hint.k]
        best_keys = [key.take(order) for key in distinct]
        if len(order) == hint.k:
            _publish(hint.boundary, best_keys[hint.key_index],
                     hint.k - 1, hint.desc)
        return best_keys

    def _finish(self, state: list[Column]) -> Chunk:
        partial = dict(zip(self._partials,
                           state[len(self.group_keys):]))
        columns = dict(zip(self.group_keys, state))
        for spec in self.aggs:
            if spec.func == "avg":
                total = partial["sum", spec.input]
                count = partial["count", spec.input].values
                mean = np.divide(total.values, count, where=~total.nulls,
                                 out=np.zeros(len(count)))
                columns[spec.output] = Column(DataType.DOUBLE, mean,
                                              total.nulls)
            else:
                columns[spec.output] = partial[spec.partials()[0]]
        return Chunk(self.schema, columns)


@dataclass
class TopKGroupHint:
    """Wiring for top-k pruning through GROUP BY (Figure 7d)."""

    key_index: int        #: position of the ORDER BY column in group keys
    k: int
    desc: bool
    boundary: Boundary


def _publish(boundary: Boundary, column: Column, row: int,
             desc: bool) -> None:
    """Raise ``boundary`` to the rank of ``column``'s value at ``row``."""
    value = column.slice(row, row + 1).to_pylist()[0]
    boundary.update(rank_of(value, desc))


@dataclass(frozen=True)
class SortKey:
    column: str
    desc: bool = False


class Sort(Operator):
    """Full materializing stable sort; NULLs last in either direction."""

    def __init__(self, context: ExecContext, child: Operator,
                 keys: Sequence[SortKey]):
        if not keys:
            raise PlanError("sort requires at least one key")
        self.context = context
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema

    def __iter__(self) -> Iterator[Chunk]:
        merged = Chunk.concat(self.schema, list(self.child))
        self.context.charge_rows(merged.num_rows)
        yield merged.take(_key_order(merged, self.keys))


def _key_order(chunk: Chunk, keys: Sequence[SortKey]) -> np.ndarray:
    return sort_order([chunk.column(key.column) for key in keys],
                      [key.desc for key in keys])


class TopK(Operator):
    """ORDER BY ... LIMIT k with boundary feedback (§5.2).

    Tracks the *leading* keys of the best ``k + offset`` rows seen; a
    chunk loses the rows whose leading key is strictly worse than the
    last of them, and the rest wait (re-filtered as that key improves,
    once twice as many as are needed wait). Only they are sorted, once,
    at the end; the row seen first wins a tie. Once per chunk, when
    ``k + offset`` rows were seen, the last leading key is published to
    the shared :class:`Boundary`, which the upstream scan uses to skip
    partitions (sound for multi-key orderings: a row whose leading rank
    is strictly worse than the k-th row's is lexicographically worse
    overall). Records which partition each kept row came from (OFFSET
    rows too), for the top-k predicate cache (§8.2).
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
        leading = _Leading(self.schema.dtype_of(self.order_column),
                           self.desc, keep)
        #: (chunk, its rows' source partitions, which rows may enter)
        waiting: list[tuple[Chunk, np.ndarray, np.ndarray]] = []
        waiting_rows, compact_at = 0, max(2 * keep, BATCH_ROWS)
        for chunk in self.child:
            self.context.charge_rows(chunk.num_rows)
            column = chunk.column(self.order_column)
            mask = leading.may_enter(column)
            if not mask.any():
                continue
            leading.add(column, mask)
            ids, rows = (zip(*chunk.runs) if chunk.runs
                         else ((-1,), (chunk.num_rows,)))
            waiting.append((chunk, np.repeat(np.array(ids, dtype=np.int64),
                                             rows), mask))
            waiting_rows += chunk.num_rows
            if waiting_rows >= compact_at:
                waiting = [self._entering(waiting, leading)]
                waiting_rows = waiting[0][0].num_rows
                compact_at = max(compact_at, 2 * waiting_rows)
            if (self.boundary is not None
                    and len(leading.values) + leading.nulls >= keep):
                _publish(self.boundary, leading.last(), 0, self.desc)
        rows, sources, _ = self._entering(waiting, leading)
        order = _key_order(rows, self.keys)[:keep]
        # OFFSET rows included: a repeat over these partitions alone
        # must find the same first ``k + offset`` rows to skip into.
        sources = sources[order]
        self.contributing_partitions = set(sources[sources >= 0].tolist())
        yield rows.take(order[self.offset:])

    def _entering(self, waiting: list, leading: "_Leading"
                  ) -> tuple[Chunk, np.ndarray, np.ndarray]:
        """The waiting rows that may still enter, as one chunk."""
        if not waiting:
            return Chunk.empty(self.schema), np.empty(0, np.int64), None
        chunks, sources, masks = zip(*waiting)
        rows = Chunk.concat(self.schema, chunks)
        mask = np.concatenate(masks) & leading.may_enter(
            rows.column(self.order_column))
        return (rows.filter(mask), np.concatenate(sources)[mask],
                np.ones(int(mask.sum()), dtype=np.bool_))


class _Leading:
    """The leading keys of the ``keep`` best rows seen and how many are
    NULL: TopK's threshold. Keys are ranked as :func:`sort_order` ranks
    them, so that ascending is better (a descending key is negated; NaN
    stays last), but a descending VARCHAR key, which cannot be negated,
    keeps the largest values instead."""

    def __init__(self, dtype: DataType, desc: bool, keep: int):
        self.dtype, self.desc, self.keep = dtype, desc, keep
        self.tail = desc and dtype == DataType.VARCHAR
        self.values = np.empty(0, dtype=dtype.numpy_dtype())
        self.nulls = 0
        #: the ``keep``-th best key as a 1-array (numpy would strip a str
        #: scalar's trailing NULs), None while that is NULL
        self.worst: np.ndarray | None = None

    def add(self, column: Column, mask: np.ndarray) -> None:
        """Take in the keys of the rows ``mask`` selects."""
        values = np.concatenate((self.values, self._ranked(
            column.values[mask & ~column.nulls])))
        self.nulls += int(np.count_nonzero(mask & column.nulls))
        if len(values) >= self.keep:
            kth = len(values) - self.keep if self.tail else self.keep - 1
            values = np.partition(values, kth)
            self.worst = values[kth:kth + 1]
            values = values[kth:] if self.tail else values[:kth + 1]
        self.values = values

    def last(self) -> Column:
        """The ``keep``-th best key, as a one-row column."""
        if self.worst is None:
            return Column.all_null(self.dtype, 1)
        return Column(self.dtype, self._ranked(self.worst),
                      np.zeros(1, dtype=np.bool_))

    def _ranked(self, values: np.ndarray) -> np.ndarray:
        if not self.desc or self.tail:
            return values
        return -values if self.dtype == DataType.DOUBLE else ~values

    def may_enter(self, column: Column) -> np.ndarray:
        """Rows whose key is not strictly worse than :meth:`last`
        (nothing is worse than a NULL)."""
        if self.worst is None:
            return np.ones(len(column), dtype=np.bool_)
        ranked = self._ranked(column.values)
        worse = ranked < self.worst if self.tail else ranked > self.worst
        return ~(worse | column.nulls)


class Limit(Operator):
    """LIMIT k OFFSET m with early termination; the scan its chain
    reaches (through Filter, Project, join probe sides) streams."""

    def __init__(self, context: ExecContext, child: Operator, k: int,
                 offset: int = 0):
        if k < 0 or offset < 0:
            raise PlanError("LIMIT k and offset must be non-negative")
        self.context = context
        self.child = child
        self.k = k
        self.offset = offset
        self.schema = child.schema
        while isinstance(child, (Filter, Project, HashJoin)):
            child = child.probe if isinstance(child, HashJoin) \
                else child.child
        if isinstance(child, Scan):
            child.limited = True

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
