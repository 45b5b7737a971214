"""The pruning-aware query compiler.

Lowers a logical plan to physical operators, performing the paper's
compile-time pipeline along the way:

1. **Predicate pushdown** — WHERE conjuncts move to the scans they
   reference, so filter pruning sees them (§3).
2. **Compile-time filter pruning** — each scan's set is pruned against
   its predicate, with fully-matching partitions detected as a second
   output (§3, §4.2). A scan set pruned to nothing triggers sub-tree
   elimination (§2.1).
3. **LIMIT pushdown and pruning** — a LIMIT travels down through
   operators that never reduce rows (projections, the preserved side of
   outer joins) and, at the scan, minimizes the scan set using
   fully-matching partitions (§4).
4. **Top-k wiring** — ``ORDER BY x LIMIT k`` becomes a TopK operator
   sharing a boundary with the scan that produces ``x`` (§5.2),
   partitions are reordered for early tight boundaries (§5.3), the
   boundary is optionally pre-initialized (§5.4), TopK replicates to
   the preserved side of outer joins (Fig. 7c), and GROUP BY gets a
   top-k-aware path when ordering by a grouping key (Fig. 7d).
5. **Join pruning** wiring — hash joins get a handle on their probe
   scan so the build-side summary can prune it at runtime (§6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from ..engine.context import ExecContext, ScanProfile
from ..engine.chunk import Chunk
from ..engine.operators import (
    AggSpec,
    EmptyOperator,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    MetadataAggregateSource,
    Operator,
    Project,
    Scan,
    Sort,
    SortKey,
    TopK,
    TopKGroupHint,
)
from ..errors import PlanError
from ..expr import ast
from ..expr.simplify import simplify
from ..pruning.base import ScanSet
from ..pruning.filter_pruning import is_prunable
from ..pruning.fully_matching import find_fully_matching_inverted
from ..pruning.limit_pruning import LimitPruner
from ..pruning.pruning_tree import PruningTree, TreeConfig
from ..pruning.stats_index import VectorizedFilterPruner
from ..pruning.topk_pruning import (
    Boundary,
    OrderStrategy,
    TopKPruner,
    initialize_boundary,
)
from ..types import Schema
from . import logical as L


@dataclass
class CompilerOptions:
    """Feature switches, primarily for the paper's ablations."""

    enable_filter_pruning: bool = True
    enable_limit_pruning: bool = True
    enable_topk_pruning: bool = True
    enable_join_pruning: bool = True
    #: use the adaptive pruning tree (§3.2) instead of the plain pruner
    use_pruning_tree: bool = False
    tree_config: TreeConfig | None = None
    #: re-attach compile-time-cut-off filters as runtime pruners on the
    #: scan (§3.2: deferring slow filters to the parallel warehouse)
    defer_cutoff_to_runtime: bool = True
    #: scan sets larger than this skip compile-time pruning entirely
    #: and prune at runtime instead — §3.2's "dynamically push
    #: compile-time pruning to a virtual warehouse" for extremely
    #: large tables. None = always prune at compile time.
    compile_prune_partition_limit: int | None = None
    topk_order_strategy: OrderStrategy = OrderStrategy.FULL_SORT
    topk_boundary_init: bool = True
    #: build inner joins on the smaller side, judged by post-pruning
    #: scan-set row counts (§2.1: pruning improves cardinality
    #: estimates and hence join decisions)
    enable_join_side_swap: bool = True
    #: answer global COUNT/MIN/MAX aggregates from zone maps alone,
    #: without scanning any data
    enable_metadata_aggregates: bool = True
    #: scans read only the columns the plan references (PAX layouts
    #: allow column-level reads, §2) — fewer bytes over the network
    enable_projection_pushdown: bool = True


class CatalogInterface:
    """What the compiler needs from a catalog (duck-typed); one that
    has a ``predicate_cache`` also answers ``table_version(table)``."""

    def schema_of(self, table: str) -> Schema:  # pragma: no cover
        raise NotImplementedError

    def scan_set(self, table: str) -> ScanSet:  # pragma: no cover
        raise NotImplementedError


@dataclass
class _Built:
    """Bookkeeping carried up during lowering."""

    op: Operator
    #: output column -> (scan operator, scan profile, scan column) for
    #: columns that trace to a scan through identity projections and
    #: probe-side joins — the top-k pruning targets.
    origins: dict[str, tuple[Scan, ScanProfile, str]] = dataclass_field(
        default_factory=dict)
    #: the scan a LIMIT may legally be pushed down to, if any
    limit_scan: Scan | None = None
    limit_profile: ScanProfile | None = None
    limit_fully_matching: list[int] = dataclass_field(default_factory=list)
    #: whether every row of the limit target's fully-matching
    #: partitions is guaranteed to reach this operator's output
    #: (prerequisite for upfront boundary init and LIMIT pruning)
    rows_guaranteed: bool = False
    #: whether this sub-plan's output preserves the probe scan's rows
    #: one-for-one or more (left-outer chains); used for replication
    preserved_chain: bool = False
    #: the HashAggregate below (possibly through identity projections),
    #: for Figure 7d's top-k-through-GROUP-BY wiring
    aggregate_op: HashAggregate | None = None
    #: upper bound on output rows derived from the *pruned* scan set —
    #: the cardinality-estimation benefit of compile-time pruning
    #: (§2.1); None when no estimate is possible
    estimated_rows: int | None = None


@dataclass
class CompiledQuery:
    """A lowered plan plus post-execution hooks (predicate cache)."""

    root: Operator
    context: ExecContext
    post_exec_hooks: list[Callable[[], None]] = dataclass_field(
        default_factory=list)
    #: per-compile scan-set memo: each table's zone maps are fetched
    #: from the metadata store once per query, not once per pruning
    #: stage (the metadata-aggregate probe used to re-fetch).
    scan_sets: dict[str, ScanSet] = dataclass_field(default_factory=dict)
    #: True when this query was lowered from a rebound plan-cache
    #: template rather than a cold-planned tree (repro.plancache).
    rebound: bool = False


class QueryCompiler:
    """Compiles logical plans against a catalog."""

    def __init__(self, catalog: CatalogInterface):
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def compile(self, plan: L.LogicalNode, context: ExecContext,
                options: CompilerOptions | None = None) -> CompiledQuery:
        options = options or CompilerOptions()
        plan = push_down_filters(plan, self.catalog.schema_of)
        compiled = CompiledQuery(root=EmptyOperator(Schema([])),
                                 context=context)
        required: set[str] | None = None
        if options.enable_projection_pushdown:
            required = set(
                plan.output_schema(self.catalog.schema_of).names())
        built = self._build(plan, context, options, compiled,
                            required)
        compiled.root = built.op
        return compiled

    def compile_rebound(self, template: L.LogicalNode, binds,
                        slots, context: ExecContext,
                        options: CompilerOptions | None = None
                        ) -> CompiledQuery:
        """Rebind a cached logical-plan template and lower it.

        The plan-cache hit path: literal substitution is O(plan), and
        lowering then re-fetches scan sets and re-runs every
        data-dependent pruning pass against the current metadata — a
        rebound query can never reuse a stale scan set.
        """
        from ..plancache.parameterize import bind_plan

        compiled = self.compile(bind_plan(template, binds, slots),
                                context, options)
        compiled.rebound = True
        return compiled

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _build(self, node: L.LogicalNode, context: ExecContext,
               options: CompilerOptions, compiled: CompiledQuery,
               required: set[str] | None = None) -> _Built:
        if isinstance(node, L.LogicalScan):
            return self._build_scan(node, context, options, compiled,
                                    required)
        if isinstance(node, L.LogicalFilter):
            return self._build_filter(node, context, options, compiled,
                                      required)
        if isinstance(node, L.LogicalProject):
            return self._build_project(node, context, options,
                                       compiled, required)
        if isinstance(node, L.LogicalJoin):
            return self._build_join(node, context, options, compiled,
                                    required)
        if isinstance(node, L.LogicalAggregate):
            return self._build_aggregate(node, context, options,
                                         compiled, required)
        if isinstance(node, L.LogicalLimit):
            return self._build_limit(node, context, options, compiled,
                                     required)
        if isinstance(node, L.LogicalSort):
            child_required = _widen(required,
                                    {k.column for k in node.keys})
            child = self._build(node.child, context, options, compiled,
                                child_required)
            keys = [SortKey(k.column, k.desc) for k in node.keys]
            return _Built(op=Sort(context, child.op, keys))
        raise PlanError(f"cannot lower {type(node).__name__}")

    # -- Scan --------------------------------------------------------------
    def _build_scan(self, node: L.LogicalScan, context: ExecContext,
                    options: CompilerOptions,
                    compiled: CompiledQuery,
                    required: set[str] | None = None) -> _Built:
        schema = self.catalog.schema_of(node.table)
        scan_set, first_fetch = self._fetch_scan_set(
            node.table, context, compiled)
        profile = context.profile.new_scan(node.table)
        profile.total_partitions = len(scan_set)
        profile.degraded_partitions = len(scan_set.degraded_ids)
        if first_fetch:
            # Retry/backoff accounting belongs to whichever stage
            # actually performed the fetch (exactly one per query).
            profile.metadata_retries = scan_set.metadata_retries
            profile.metadata_backoff_ms = scan_set.metadata_backoff_ms
        predicate = node.predicate
        # Without predicates every partition is fully-matching (§4.2).
        fully_matching: list[int] = (
            scan_set.partition_ids if predicate is None else [])
        if predicate is not None:
            predicate = simplify(predicate, schema)
            profile.filter_eligible = is_prunable(predicate)
            if profile.filter_eligible:
                profile.filter_columns = tuple(
                    sorted(predicate.column_refs()))
            deferred: ast.Expr | None = None
            limit = options.compile_prune_partition_limit
            push_to_runtime = (limit is not None
                               and len(scan_set) > limit)
            if options.enable_filter_pruning and profile.filter_eligible:
                if push_to_runtime:
                    # Too many partitions to prune during compilation:
                    # the whole predicate prunes at runtime on the
                    # (parallel) warehouse instead. Fully-matching
                    # detection is lost — LIMIT pruning cannot fire.
                    deferred = predicate
                else:
                    with context.span("prune:filter",
                                      table=node.table) as span:
                        scan_set, fully_matching, deferred = \
                            self._filter_prune(predicate, scan_set,
                                               schema, profile,
                                               context, options)
                        if span is not None:
                            result = profile.filter_result
                            span.annotate(
                                before=result.before,
                                after=result.after,
                                fully_matching=len(
                                    result.fully_matching_ids),
                                mode=profile.pruning_mode)
            if not push_to_runtime:
                scan_set, fully_matching = self._sketch_prune(
                    node.table, predicate, scan_set, schema,
                    fully_matching, profile, context)
        columns = self._scan_columns(schema, node.predicate, required)
        scan = Scan(context, node.table, schema, scan_set,
                    profile=profile, columns=columns,
                    predicate=predicate)
        scan_schema = scan.schema
        if predicate is not None and deferred is not None:
            scan.attach_deferred_filter(
                VectorizedFilterPruner(deferred, schema,
                                       detect_fully_matching=False))
        op: Operator = scan
        if predicate is not None and not isinstance(
                predicate, ast.Literal):
            op = filter_op = Filter(context, scan, predicate,
                                    fully_matching)
            self._remember_partitions(
                scan, compiled,
                lambda: filter_op.partitions_with_matches)
        elif isinstance(predicate, ast.Literal) \
                and predicate.value is not True:
            # WHERE FALSE / WHERE NULL: nothing qualifies.
            op = EmptyOperator(scan_schema)
        origins = {name: (scan, profile, name)
                   for name in scan_schema.names()}
        return _Built(
            op=op,
            origins=origins,
            limit_scan=scan,
            limit_profile=profile,
            limit_fully_matching=fully_matching,
            # With no predicate every partition is fully-matching
            # (§4.2) and all rows reach the output.
            rows_guaranteed=True,
            preserved_chain=True,
            estimated_rows=scan.scan_set.total_rows(),
        )

    def _fetch_scan_set(self, table: str, context: ExecContext,
                        compiled: CompiledQuery
                        ) -> tuple[ScanSet, bool]:
        """Fetch a table's scan set once per compiled query.

        Returns ``(scan_set, first_fetch)``. Metadata lookups and
        retry backoff are charged only on the actual fetch; later
        stages (the metadata-aggregate probe falling through to a real
        scan, self-joins) reuse the materialized zone maps.
        """
        key = table.lower()
        scan_set = compiled.scan_sets.get(key)
        if scan_set is not None:
            return scan_set, False
        scan_set = self.catalog.scan_set(table)
        compiled.scan_sets[key] = scan_set
        context.charge_metadata_lookups(len(scan_set),
                                        at_compile_time=True)
        # Retry backoff spent fetching metadata is compile-time delay.
        if scan_set.metadata_backoff_ms:
            context.charge_compile(scan_set.metadata_backoff_ms)
        return scan_set, True

    def _sketch_prune(self, table: str, predicate: ast.Expr,
                      scan_set: ScanSet, schema: Schema,
                      fully_matching: list[int], profile,
                      context: ExecContext
                      ) -> tuple[ScanSet, list[int]]:
        """Secondary-sketch pruning pass (pruning/sketches.py).

        Fails open at every step: catalogs without sketches, a
        degraded metadata read, or an unexpected error all leave the
        scan set untouched.
        """
        from ..pruning.sketches import SketchPruner, is_sketch_prunable

        config = getattr(self.catalog, "sketch_config", None)
        ngram_size = (config.ngram_size if config is not None else 3)
        profile.sketch_eligible = is_sketch_prunable(
            predicate, schema, ngram_size)
        sketches_of = getattr(self.catalog, "sketches_of", None)
        if not profile.sketch_eligible or sketches_of is None:
            return scan_set, fully_matching
        try:
            sketches = sketches_of(table)
        except Exception:  # noqa: BLE001 - metadata outage: fail open
            return scan_set, fully_matching
        if not sketches:
            return scan_set, fully_matching
        index = None
        sketch_index = getattr(self.catalog, "sketch_index", None)
        if sketch_index is not None:
            try:
                index = sketch_index(table)
            except Exception:  # noqa: BLE001 - scalar path suffices
                index = None
        with context.span("prune:sketch", table=table) as span:
            pruner = SketchPruner(predicate, schema, sketches,
                                  index=index, ngram_size=ngram_size)
            result = pruner.prune(scan_set)
            profile.sketch_result = result
            profile.sketch_pruned_by_kind = dict(pruner.pruned_by_kind)
            context.charge_prune_checks(result.checks,
                                        at_compile_time=True,
                                        vectorized=index is not None)
            if span is not None:
                span.annotate(before=result.before,
                              after=result.after,
                              by_kind=dict(pruner.pruned_by_kind))
        if result.pruned and fully_matching:
            fully_matching = np.compress(
                np.isin(fully_matching, result.kept.ids),
                fully_matching).tolist()
        return result.kept, fully_matching

    @staticmethod
    def _scan_columns(schema: Schema, predicate: ast.Expr | None,
                      required: set[str] | None) -> list[str] | None:
        """Columns the scan must read, in schema order.

        None means "all columns" (pushdown disabled or everything is
        referenced). A scan that needs no columns at all still reads
        the narrowest one so row counts survive.
        """
        if required is None:
            return None
        needed = set(required)
        if predicate is not None:
            needed |= predicate.column_refs()
        columns = [f.name for f in schema if f.name in needed]
        if not columns:
            columns = [schema.fields[0].name]
        if len(columns) == len(schema):
            return None
        return columns

    def _filter_prune(self, predicate: ast.Expr, scan_set: ScanSet,
                      schema: Schema, profile: ScanProfile,
                      context: ExecContext,
                      options: CompilerOptions
                      ) -> tuple[ScanSet, list[int], ast.Expr | None]:
        deferred: ast.Expr | None = None
        started = time.perf_counter()
        if options.use_pruning_tree:
            tree = PruningTree(predicate, schema,
                               options.tree_config or TreeConfig())
            result = tree.prune(scan_set)
            profile.pruning_mode = "fallback"
            context.charge_compile(tree.simulated_ms)
            result.fully_matching_ids = find_fully_matching_inverted(
                predicate, result.kept, schema)
            context.charge_prune_checks(len(result.kept),
                                        at_compile_time=True)
            if options.defer_cutoff_to_runtime:
                cut = tree.cut_predicates()
                if cut:
                    deferred = cut[0] if len(cut) == 1 \
                        else ast.And(cut)
        else:
            pruner = VectorizedFilterPruner(predicate, schema)
            result = pruner.prune(scan_set)
            profile.pruning_mode = pruner.mode
            context.charge_prune_checks(pruner.vector_checks,
                                        at_compile_time=True,
                                        vectorized=True)
            context.charge_prune_checks(pruner.fallback_checks,
                                        at_compile_time=True)
        profile.pruning_ms += (time.perf_counter() - started) * 1000.0
        profile.filter_result = result
        return result.kept, list(result.fully_matching_ids), deferred

    def _remember_partitions(self, scan: Scan,
                             compiled: CompiledQuery,
                             observed: Callable[[], set[int]],
                             order=(), keep: int | None = None) -> None:
        """The one remembered-partitions hook (§8.2).

        Looks the (table, ``scan.predicate``[, ordering, rows kept])
        shape up in the catalog's predicate cache. A hit restricts the
        scan to the partitions the entry keeps (cached, or newer than
        its high-water mark) plus degraded ones, whose fresh metadata is
        missing. A miss registers the post-execution record of
        ``observed()``: the partitions a Filter saw matches in, or a
        TopK kept rows from.
        """
        cache = getattr(self.catalog, "predicate_cache", None)
        if cache is None:
            return
        table, predicate, profile = (scan.table, scan.predicate,
                                     scan.profile)
        entry = cache.lookup(table, predicate, order, keep)
        if entry is not None:
            before, degraded = scan.scan_set, scan.scan_set.degraded_ids
            scan.scan_set = before.restrict(
                pid for pid in before.partition_ids
                if entry.keeps(pid) or pid in degraded)
            profile.cache_hit = True
            profile.skip_set_pruned += len(before) - len(scan.scan_set)
            scan.context.trace_event(
                "predicate_cache:hit", table=table, kind=entry.kind,
                partitions=len(scan.scan_set))
            return
        version = self.catalog.table_version(table)
        fetched = compiled.scan_sets[table.lower()]  # before any pruning

        def record() -> None:
            # The completeness rule, written once: ``observed()`` is
            # everything a repeat needs only if each partition either
            # reached the observer or was pruned for a reason that
            # holds for this shape whatever query it appears in.
            complete = (
                # a LIMIT above stopped the scan part-way
                not profile.early_terminated
                # LIMIT pruning dropped partitions that hold matches
                and profile.limit_report is None
                # a top-k boundary skipped partitions that hold matches;
                # only the entry of that very top-k may rely on it
                and (bool(order) or profile.topk_checks == 0)
                # join pruning dropped partitions for lacking another
                # table's keys, not for failing this predicate
                and profile.join_result is None
                # a hit narrowed this scan: nothing new was observed
                and not profile.cache_hit
                # every partition was pruned or loaded, i.e. the scan
                # ran (under an eliminated join it never starts)
                and profile.total_partitions
                == profile.partitions_pruned + profile.partitions_loaded
                # DML raced the query: the observation is stale
                and self.catalog.table_version(table) == version)
            if complete:
                cache.record(table, predicate, observed(),
                             max(fetched.partition_ids, default=-1),
                             order, keep)

        compiled.post_exec_hooks.append(record)

    # -- Filter (residual) ---------------------------------------------------
    def _build_filter(self, node: L.LogicalFilter, context: ExecContext,
                      options: CompilerOptions,
                      compiled: CompiledQuery,
                      required: set[str] | None = None) -> _Built:
        child_required = _widen(required, node.predicate.column_refs())
        child = self._build(node.child, context, options, compiled,
                            child_required)
        op = Filter(context, child.op, node.predicate)
        return _Built(
            op=op,
            origins=child.origins,
            # A residual filter reduces rows unpredictably: LIMIT
            # pushdown and row guarantees stop here (§4.3). The row
            # estimate stays as an upper bound.
            limit_scan=None,
            rows_guaranteed=False,
            preserved_chain=False,
            estimated_rows=child.estimated_rows,
        )

    # -- Project --------------------------------------------------------------
    def _build_project(self, node: L.LogicalProject,
                       context: ExecContext, options: CompilerOptions,
                       compiled: CompiledQuery,
                       required: set[str] | None = None) -> _Built:
        child_required = None
        if required is not None:
            child_required = set()
            for expr in node.exprs:
                child_required |= expr.column_refs()
        child = self._build(node.child, context, options, compiled,
                            child_required)
        op = Project(context, child.op, node.exprs, node.names)
        origins = {}
        for name, expr in zip(node.names, node.exprs):
            if isinstance(expr, ast.ColumnRef) and \
                    expr.name in child.origins:
                origins[name] = child.origins[expr.name]
        # Propagate the aggregate reference only through pure identity
        # projections (no renames), so output names still match the
        # aggregate's group keys.
        identity = all(
            isinstance(expr, ast.ColumnRef) and expr.name == name
            for name, expr in zip(node.names, node.exprs))
        return _Built(
            op=op,
            origins=origins,
            limit_scan=child.limit_scan,
            limit_profile=child.limit_profile,
            limit_fully_matching=child.limit_fully_matching,
            rows_guaranteed=child.rows_guaranteed,
            preserved_chain=child.preserved_chain,
            aggregate_op=child.aggregate_op if identity else None,
            estimated_rows=child.estimated_rows,
        )

    # -- Join --------------------------------------------------------------
    def _build_join(self, node: L.LogicalJoin, context: ExecContext,
                    options: CompilerOptions,
                    compiled: CompiledQuery,
                    required: set[str] | None = None) -> _Built:
        left_required = right_required = None
        if required is not None:
            resolver = self.catalog.schema_of
            left_names = set(node.left.output_schema(resolver).names())
            right_names = set(
                node.right.output_schema(resolver).names())
            left_required = (required & left_names) | {node.left_key}
            right_required = (required & right_names) \
                | {node.right_key}
        left = self._build(node.left, context, options, compiled,
                           left_required)
        right = self._build(node.right, context, options, compiled,
                            right_required)
        # Sub-tree elimination (§2.1): an inner join with a provably
        # empty side produces nothing — skip building/probing entirely.
        # (For LEFT OUTER only an empty *probe* side empties the join.)
        left_empty = left.estimated_rows == 0
        right_empty = right.estimated_rows == 0
        if left_empty or (right_empty and node.join_type == "inner"):
            schema = left.op.schema.concat(right.op.schema)
            return _Built(op=EmptyOperator(schema))
        swapped = False
        if (options.enable_join_side_swap
                and node.join_type == "inner"
                and left.estimated_rows is not None
                and right.estimated_rows is not None
                and left.estimated_rows < right.estimated_rows):
            # Build on the smaller side: the post-pruning scan-set row
            # counts are the cardinality estimates (§2.1). The output
            # column order is restored by a projection below.
            left, right = right, left
            node = L.LogicalJoin(node.right, node.left,
                                 node.right_key, node.left_key,
                                 node.join_type)
            swapped = True
        probe_scan = None
        probe_scan_column = None
        if options.enable_join_pruning and node.join_type == "inner":
            origin = left.origins.get(node.left_key)
            if origin is not None:
                probe_scan, _, probe_scan_column = origin
                context.profile.join_eligible = True
        op: Operator = HashJoin(
            context, left.op, right.op,
            probe_key=node.left_key, build_key=node.right_key,
            join_type=node.join_type,
            probe_scan=probe_scan,
            probe_scan_column=probe_scan_column,
        )
        if swapped:
            # Restore the SQL column order (original left first).
            names = (list(right.op.schema.names())
                     + list(left.op.schema.names()))
            op = Project(context, op,
                         [ast.ColumnRef(n) for n in names], names)
        origins = dict(left.origins)
        # Build-side columns do not carry pruning targets: build rows
        # are only forwarded when matched (not preserved in our joins).
        preserved = (node.join_type == "left_outer"
                     and left.preserved_chain)
        return _Built(
            op=op,
            origins=origins,
            # LIMIT pushes through the preserved side of an outer join
            # (§4.3): every preserved row yields at least one output.
            limit_scan=left.limit_scan if preserved else None,
            limit_profile=left.limit_profile if preserved else None,
            limit_fully_matching=(left.limit_fully_matching
                                  if preserved else []),
            rows_guaranteed=preserved and left.rows_guaranteed,
            preserved_chain=preserved,
        )

    # -- Aggregate --------------------------------------------------------------
    def _build_aggregate(self, node: L.LogicalAggregate,
                         context: ExecContext,
                         options: CompilerOptions,
                         compiled: CompiledQuery,
                         required: set[str] | None = None) -> _Built:
        metadata_result = self._try_metadata_aggregate(node, context,
                                                       options, compiled)
        if metadata_result is not None:
            return metadata_result
        child_required = None
        if required is not None:
            child_required = set(node.group_keys)
            child_required |= {a.input for a in node.aggs
                               if a.input is not None}
        child = self._build(node.child, context, options, compiled,
                            child_required)
        aggs = [AggSpec(a.func, a.input, a.output) for a in node.aggs]
        op = HashAggregate(context, child.op, node.group_keys, aggs)
        # Group keys that trace to a scan stay traceable: Figure 7d's
        # top-k-through-GROUP-BY needs the origin of the grouping key.
        origins = {k: child.origins[k] for k in node.group_keys
                   if k in child.origins}
        return _Built(op=op, origins=origins, aggregate_op=op)

    def _try_metadata_aggregate(self, node: L.LogicalAggregate,
                                context: ExecContext,
                                options: CompilerOptions,
                                compiled: CompiledQuery
                                ) -> _Built | None:
        """Answer a global COUNT/MIN/MAX aggregate from zone maps.

        Applies when the aggregate sits directly on an unfiltered scan
        with no grouping and every aggregate is metadata-derivable;
        returns None (fall back to execution) otherwise — including
        when any partition lacks statistics for a referenced column.
        """
        if not options.enable_metadata_aggregates:
            return None
        if not isinstance(node.child, L.LogicalScan) \
                or node.child.predicate is not None:
            return None
        if node.group_keys:
            return None
        supported = {"count_star", "count", "min", "max"}
        if not all(agg.func in supported for agg in node.aggs):
            return None
        table = node.child.table
        # Memoized fetch: if this probe declines, the fallback scan
        # reuses the same materialized zone maps instead of re-fetching
        # every partition's metadata.
        scan_set, _ = self._fetch_scan_set(table, context, compiled)
        if scan_set.degraded_ids:
            # Some zone maps are unavailable: a metadata-only answer
            # would be wrong (e.g. COUNT from partial row counts).
            # Fall back to scanning the data.
            return None
        values = []
        for agg in node.aggs:
            value = _metadata_aggregate_value(agg, scan_set)
            if value is _UNAVAILABLE:
                return None
            values.append(value)
        schema = node.output_schema(self.catalog.schema_of)
        chunk = Chunk.from_rows(schema, [tuple(values)])
        profile = context.profile.new_scan(table)
        profile.total_partitions = len(scan_set)
        profile.metadata_only = True
        source = MetadataAggregateSource(
            schema, chunk, table, partitions_covered=len(scan_set))
        return _Built(op=source)

    # -- Limit / TopK --------------------------------------------------------------
    def _build_limit(self, node: L.LogicalLimit, context: ExecContext,
                     options: CompilerOptions,
                     compiled: CompiledQuery,
                     required: set[str] | None = None) -> _Built:
        child_node = node.child
        if isinstance(child_node, L.LogicalSort):
            return self._build_topk(node, child_node, context, options,
                                    compiled, required)
        context.profile.limit_eligible = True
        child = self._build(child_node, context, options, compiled,
                            required)
        self._apply_limit_pruning(node, child, context, options)
        return _Built(op=Limit(context, child.op, node.k, node.offset))

    def _apply_limit_pruning(self, node: L.LogicalLimit, child: _Built,
                             context: ExecContext,
                             options: CompilerOptions) -> None:
        if not options.enable_limit_pruning:
            return
        scan = child.limit_scan
        if scan is None or not child.rows_guaranteed:
            return
        with context.span("prune:limit", table=scan.table) as span:
            pruner = LimitPruner(node.k + node.offset)
            report = pruner.prune(scan.scan_set,
                                  child.limit_fully_matching)
            context.charge_prune_checks(len(scan.scan_set),
                                        at_compile_time=True)
            scan.scan_set = report.result.kept
            if span is not None:
                span.annotate(before=report.result.before,
                              after=report.result.after,
                              outcome=report.outcome.value)
        if child.limit_profile is not None:
            child.limit_profile.limit_report = report

    def _build_topk(self, limit_node: L.LogicalLimit,
                    sort_node: L.LogicalSort, context: ExecContext,
                    options: CompilerOptions,
                    compiled: CompiledQuery,
                    required: set[str] | None = None) -> _Built:
        context.profile.topk_eligible = True
        sort_key = sort_node.keys[0]
        sort_keys = [SortKey(item.column, item.desc)
                     for item in sort_node.keys]
        k, offset = limit_node.k, limit_node.offset
        child_required = _widen(required,
                                {item.column for item in sort_node.keys})
        child = self._build(sort_node.child, context, options, compiled,
                            child_required)
        # Boundary pruning works on the leading sort key: a partition
        # whose best leading rank is strictly worse than the k-th row's
        # is lexicographically out regardless of secondary keys.
        # All wiring below is leading-key based and remains sound for
        # multi-key orderings (strictly-worse leading rank implies
        # lexicographically worse overall).
        boundary = Boundary(desc=sort_key.desc)
        target = self._wire_topk_pruning(
            child, sort_key, k + offset, boundary, context, options)
        probe_child_op = child.op
        if (target is not None and child.preserved_chain
                and isinstance(child.op, HashJoin)
                and child.op.join_type == "left_outer"
                and all(item.column in child.origins
                        for item in sort_node.keys)):
            # Fig. 7c: replicate the TopK onto the preserved probe side
            # of the outer join; all its k rows flow past the join.
            join_op = child.op
            replicated = TopK(context, join_op.probe, sort_keys,
                              k + offset, boundary=boundary)
            join_op.probe = replicated
        topk = TopK(context, probe_child_op, sort_keys, k,
                    boundary=boundary if target is not None else None,
                    offset=offset)
        scan = child.limit_scan
        sorted_by = [child.origins.get(item.column)
                     for item in sort_node.keys]
        if (scan is not None and all(sorted_by)
                and _chunks_of(child.op) is scan):
            # The key names the scan's own columns (a select list may
            # rename them, and DML invalidates by scan column), covers
            # the full ordering (secondary keys select different rows)
            # and every row TopK keeps, OFFSET included.
            self._remember_partitions(
                scan, compiled, lambda: topk.contributing_partitions,
                order=[(origin[2], item.desc) for origin, item
                       in zip(sorted_by, sort_node.keys)],
                keep=k + offset)
        return _Built(op=topk)

    def _wire_topk_pruning(self, child: _Built, sort_key: L.SortItem,
                           keep: int, boundary: Boundary,
                           context: ExecContext,
                           options: CompilerOptions) -> Scan | None:
        """Attach boundary pruning to the scan producing the sort key."""
        if not options.enable_topk_pruning or keep == 0:
            return None
        if child.aggregate_op is not None:
            return self._wire_topk_through_aggregate(
                child, sort_key, keep, boundary, context, options)
        origin = child.origins.get(sort_key.column)
        if origin is None:
            return None
        scan, profile, scan_column = origin
        pruner = TopKPruner(scan_column, boundary)
        scan.attach_topk_pruner(pruner)
        context.trace_event("prune:topk", table=scan.table,
                            column=scan_column, keep=keep)
        scan.scan_set = options.topk_order_strategy.order(
            scan.scan_set, scan_column, sort_key.desc,
            fully_matching=child.limit_fully_matching)
        if options.topk_boundary_init and child.rows_guaranteed:
            initial = initialize_boundary(
                scan.scan_set, child.limit_fully_matching, scan_column,
                keep, sort_key.desc)
            if initial.is_active:
                boundary.update(initial.rank)
            context.charge_prune_checks(
                len(child.limit_fully_matching), at_compile_time=True)
        return scan

    def _wire_topk_through_aggregate(self, child: _Built,
                                     sort_key: L.SortItem, keep: int,
                                     boundary: Boundary,
                                     context: ExecContext,
                                     options: CompilerOptions
                                     ) -> Scan | None:
        """Fig. 7d: ORDER BY a grouping key through a GROUP BY."""
        agg_op = child.aggregate_op
        assert isinstance(agg_op, HashAggregate)
        if sort_key.column not in agg_op.group_keys:
            return None
        origin = child.origins.get(sort_key.column)
        if origin is None:
            return None
        scan, profile, scan_column = origin
        agg_op.topk_hint = TopKGroupHint(
            key_index=agg_op.group_keys.index(sort_key.column),
            k=keep, desc=sort_key.desc, boundary=boundary)
        pruner = TopKPruner(scan_column, boundary)
        scan.attach_topk_pruner(pruner)
        scan.scan_set = options.topk_order_strategy.order(
            scan.scan_set, scan_column, sort_key.desc)
        return scan


def _chunks_of(op: Operator) -> Operator:
    """The operator whose chunks ``op`` passes on one for one, their
    runs (source partitions) kept: Filter and Project keep them, a join
    drops them (and changes which rows rank first), so a TopK above one
    cannot tell the predicate cache what contributed."""
    while isinstance(op, (Filter, Project)):
        op = op.child
    return op


def _widen(required: set[str] | None,
           extra: set[str]) -> set[str] | None:
    """Add columns to a requirement set (None = everything needed)."""
    if required is None:
        return None
    return required | extra


#: sentinel: a metadata aggregate could not be derived
_UNAVAILABLE = object()


def _metadata_aggregate_value(agg: L.AggItem, scan_set: ScanSet):
    """One aggregate's value from zone maps, or ``_UNAVAILABLE``."""
    from ..types import DataType, days_to_date

    if agg.func == "count_star":
        return scan_set.total_rows()
    merged = None
    dtype = None
    total_non_null = 0
    for _, zone_map in scan_set:
        try:
            stats = zone_map.stats(agg.input)
        except Exception:
            return _UNAVAILABLE
        if not stats.present:
            return _UNAVAILABLE
        dtype = stats.dtype
        total_non_null += stats.row_count - stats.null_count
        merged = stats if merged is None else merged.merge(stats)
    if agg.func == "count":
        return total_non_null
    if merged is None or merged.min_value is None:
        return None  # MIN/MAX over no (non-null) rows is NULL
    value = merged.min_value if agg.func == "min" else merged.max_value
    if dtype == DataType.DATE:
        return days_to_date(value)
    return value


# ----------------------------------------------------------------------
# Predicate pushdown
# ----------------------------------------------------------------------
def push_down_filters(node: L.LogicalNode,
                      resolver) -> L.LogicalNode:
    """Move single-table WHERE conjuncts into their scans."""
    if isinstance(node, L.LogicalFilter):
        child = push_down_filters(node.child, resolver)
        return _push_predicate(child, node.predicate, resolver)
    if isinstance(node, L.LogicalScan):
        return node
    # Rebuild interior nodes with pushed children.
    if isinstance(node, L.LogicalProject):
        return L.LogicalProject(push_down_filters(node.child, resolver),
                                node.exprs, node.names)
    if isinstance(node, L.LogicalJoin):
        return L.LogicalJoin(push_down_filters(node.left, resolver),
                             push_down_filters(node.right, resolver),
                             node.left_key, node.right_key,
                             node.join_type)
    if isinstance(node, L.LogicalAggregate):
        return L.LogicalAggregate(
            push_down_filters(node.child, resolver), node.group_keys,
            node.aggs)
    if isinstance(node, L.LogicalSort):
        return L.LogicalSort(push_down_filters(node.child, resolver),
                             node.keys)
    if isinstance(node, L.LogicalLimit):
        return L.LogicalLimit(push_down_filters(node.child, resolver),
                              node.k, node.offset)
    return node


def _conjuncts(predicate: ast.Expr) -> list[ast.Expr]:
    if isinstance(predicate, ast.And):
        out: list[ast.Expr] = []
        for child in predicate.children():
            out.extend(_conjuncts(child))
        return out
    return [predicate]


def _combine(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return ast.And(conjuncts)


def _push_predicate(node: L.LogicalNode, predicate: ast.Expr,
                    resolver) -> L.LogicalNode:
    """Push a predicate as far down as its column references allow."""
    if isinstance(node, L.LogicalScan):
        return node.with_predicate(predicate)
    if isinstance(node, L.LogicalJoin):
        left_columns = set(node.left.output_schema(resolver).names())
        right_columns = set(node.right.output_schema(resolver).names())
        left_parts, right_parts, residual = [], [], []
        for conjunct in _conjuncts(predicate):
            refs = conjunct.column_refs()
            if refs and refs <= left_columns:
                left_parts.append(conjunct)
            elif refs and refs <= right_columns:
                # Pushing below the null-producing side of an outer
                # join changes semantics; keep those as residuals.
                if node.join_type == "inner":
                    right_parts.append(conjunct)
                else:
                    residual.append(conjunct)
            else:
                residual.append(conjunct)
        left = node.left
        right = node.right
        left_pred = _combine(left_parts)
        right_pred = _combine(right_parts)
        if left_pred is not None:
            left = _push_predicate(left, left_pred, resolver)
        if right_pred is not None:
            right = _push_predicate(right, right_pred, resolver)
        new_join = L.LogicalJoin(left, right, node.left_key,
                                 node.right_key, node.join_type)
        residual_pred = _combine(residual)
        if residual_pred is None:
            return new_join
        return L.LogicalFilter(new_join, residual_pred)
    if isinstance(node, L.LogicalFilter):
        merged = ast.And(node.predicate, predicate)
        return _push_predicate(node.child, merged, resolver)
    # Any other operator: keep the filter where it is.
    return L.LogicalFilter(node, predicate)
