"""EXPLAIN rendering: physical plans with pruning annotations.

``Catalog.explain(sql)`` compiles a query — running all compile-time
pruning — and renders the operator tree, showing per-scan partition
counts before/after pruning, fully-matching partitions, attached
runtime pruners, and join summaries. Nothing is executed.
"""

from __future__ import annotations

from ..engine.operators import (
    ChunkSource,
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
    TopK,
)


def render_plan(root: Operator) -> str:
    """Multi-line text rendering of a physical operator tree."""
    lines: list[str] = []
    _render(root, lines, depth=0)
    return "\n".join(lines)


def _render(op: Operator, lines: list[str], depth: int) -> None:
    indent = "  " * depth
    lines.append(f"{indent}{_describe(op)}")
    for child in _children(op):
        _render(child, lines, depth + 1)


def _children(op: Operator) -> tuple[Operator, ...]:
    if isinstance(op, (Filter, Project, Sort, TopK, Limit,
                       HashAggregate)):
        return (op.child,)
    if isinstance(op, HashJoin):
        return (op.probe, op.build)
    return ()


def _describe(op: Operator) -> str:
    if isinstance(op, Scan):
        return _describe_scan(op)
    if isinstance(op, Filter):
        return f"Filter [{op.predicate.to_sql()}]"
    if isinstance(op, Project):
        return f"Project [{', '.join(op.names)}]"
    if isinstance(op, HashJoin):
        parts = [f"HashJoin [{op.join_type}] "
                 f"probe.{op.probe_key} = build.{op.build_key}, "
                 "summary=rangeset"]
        if op.probe_scan is not None:
            parts.append("probe-side pruning: on")
        return ", ".join(parts)
    if isinstance(op, HashAggregate):
        keys = ", ".join(op.group_keys) or "<global>"
        aggs = ", ".join(f"{s.func}({s.input or '*'})"
                         for s in op.aggs)
        suffix = ""
        if op.topk_hint is not None:
            suffix = (f", top-k aware (k={op.topk_hint.k}, "
                      f"key={op.group_keys[op.topk_hint.key_index]})")
        return f"HashAggregate [keys: {keys}] [{aggs}]{suffix}"
    if isinstance(op, Sort):
        keys = ", ".join(
            f"{k.column} {'DESC' if k.desc else 'ASC'}"
            for k in op.keys)
        return f"Sort [{keys}]"
    if isinstance(op, TopK):
        boundary = "shared boundary" if op.boundary is not None \
            else "no boundary"
        direction = "DESC" if op.desc else "ASC"
        offset = f", offset={op.offset}" if op.offset else ""
        return (f"TopK [{op.order_column} {direction}, k={op.k}"
                f"{offset}] ({boundary})")
    if isinstance(op, Limit):
        offset = f" OFFSET {op.offset}" if op.offset else ""
        return f"Limit [{op.k}{offset}]"
    if isinstance(op, EmptyOperator):
        return "Empty (sub-tree eliminated)"
    if isinstance(op, MetadataAggregateSource):
        return (f"MetadataAggregate [{op.table}, "
                f"{op.partitions_covered} partitions, no data read]")
    if isinstance(op, ChunkSource):
        return "ChunkSource"
    return type(op).__name__


def _describe_scan(scan: Scan) -> str:
    profile = scan.profile
    total = profile.total_partitions
    current = len(scan.scan_set)
    annotations = [f"partitions: {current}/{total}"]
    if profile.filter_result is not None:
        result = profile.filter_result
        annotations.append(
            f"filter pruned {result.pruned} "
            f"(fully-matching: {len(result.fully_matching_ids)}"
            + (f", unfiltered: {profile.filter_bypassed})"
               if profile.filter_bypassed else ")"))
    if profile.sketch_result is not None:
        by_kind = ", ".join(
            f"{kind}={count}" for kind, count in
            sorted(profile.sketch_pruned_by_kind.items()))
        annotations.append(
            f"sketch pruned {profile.sketch_result.pruned}"
            + (f" ({by_kind})" if by_kind else ""))
    if profile.pruning_mode:
        annotations.append(f"pruning: {profile.pruning_mode}")
    if profile.limit_report is not None:
        annotations.append(
            f"limit pruning: {profile.limit_report.outcome.value}")
    if scan.topk_pruners:
        active = any(p.boundary.is_active for p in scan.topk_pruners)
        annotations.append(
            "top-k boundary pruning"
            + (" (boundary pre-initialized)" if active else ""))
    if scan.runtime_filter_pruner is not None:
        annotations.append("deferred runtime filter pruning")
    if scan.columns is not None:
        annotations.append(f"columns: {', '.join(scan.columns)}")
    if profile.bytes_scanned:
        annotations.append(f"bytes scanned: {profile.bytes_scanned}")
    if profile.cache_hit:
        annotations.append(
            f"predicate cache hit (skipped {profile.skip_set_pruned})")
    if profile.cache_hits or profile.cache_misses:
        annotations.append(
            f"data cache: {profile.cache_hits} hits / "
            f"{profile.cache_misses} misses "
            f"(saved {profile.cache_bytes_saved} bytes)")
    if profile.prefetched_partitions:
        annotations.append(
            f"prefetched: {profile.prefetched_partitions}")
    if profile.prefetched_then_skipped:
        annotations.append(
            f"prefetched-then-skipped: "
            f"{profile.prefetched_then_skipped} "
            f"({profile.prefetched_then_skipped_bytes} bytes)")
    if profile.degraded:
        annotations.append(
            f"DEGRADED: {profile.degraded_partitions} partition(s) "
            f"without metadata, scanned unconditionally")
    if profile.metadata_retries:
        annotations.append(
            f"metadata retries: {profile.metadata_retries}")
    workers = scan._parallel_workers()
    if workers > 1:
        annotations.append(f"parallel scan x{workers}")
    return f"Scan {scan.table} [{', '.join(annotations)}]"
