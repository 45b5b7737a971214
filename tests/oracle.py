"""A reference interpreter for logical plans.

Executes a logical plan over fully-materialized tables with no
partitioning, no pruning, no vectorized operators — nested loops and
dictionaries only. Differential tests compare the engine (with every
pruning technique enabled) against this oracle on generated workloads.

Expression evaluation is shared with the engine (it defines the SQL
semantics); everything above expressions — pruning, scan sets,
operators, the compiler — is reimplemented independently here.
"""

from __future__ import annotations

from typing import Any

from repro.catalog import Catalog
from repro.engine.chunk import Chunk
from repro.expr.eval import evaluate, evaluate_predicate
from repro.plan import logical as L
from repro.pruning.topk_pruning import rank_of
from repro.types import Schema


def run_plan(plan: L.LogicalNode, catalog: Catalog
             ) -> tuple[Schema, list[tuple[Any, ...]]]:
    """Evaluate a logical plan; returns (schema, rows)."""
    resolver = catalog.schema_of
    if isinstance(plan, L.LogicalScan):
        schema = resolver(plan.table)
        rows = catalog.tables[plan.table].to_rows()
        if plan.predicate is not None:
            rows = _filter_rows(schema, rows, plan.predicate)
        return schema, rows
    if isinstance(plan, L.LogicalFilter):
        schema, rows = run_plan(plan.child, catalog)
        return schema, _filter_rows(schema, rows, plan.predicate)
    if isinstance(plan, L.LogicalProject):
        child_schema, rows = run_plan(plan.child, catalog)
        out_schema = plan.output_schema(resolver)
        if not rows:
            return out_schema, []
        chunk = Chunk.from_rows(child_schema, rows)
        columns = [
            evaluate(expr, chunk.columns, child_schema).to_pylist()
            for expr in plan.exprs]
        return out_schema, list(zip(*columns))
    if isinstance(plan, L.LogicalJoin):
        return _run_join(plan, catalog)
    if isinstance(plan, L.LogicalAggregate):
        return _run_aggregate(plan, catalog)
    if isinstance(plan, L.LogicalSort):
        schema, rows = run_plan(plan.child, catalog)
        indexes = [schema.index_of(k.column) for k in plan.keys]

        def row_rank(row):
            return tuple(rank_of(row[i], k.desc)
                         for i, k in zip(indexes, plan.keys))

        return schema, sorted(rows, key=row_rank, reverse=True)
    if isinstance(plan, L.LogicalLimit):
        schema, rows = run_plan(plan.child, catalog)
        return schema, rows[plan.offset:plan.offset + plan.k]
    raise NotImplementedError(type(plan).__name__)


def _filter_rows(schema: Schema, rows, predicate):
    if not rows:
        return []
    chunk = Chunk.from_rows(schema, rows)
    mask = evaluate_predicate(predicate, chunk.columns, schema)
    return [row for row, keep in zip(rows, mask) if keep]


def _run_join(plan: L.LogicalJoin, catalog: Catalog):
    left_schema, left_rows = run_plan(plan.left, catalog)
    right_schema, right_rows = run_plan(plan.right, catalog)
    schema = left_schema.concat(right_schema)
    left_index = left_schema.index_of(plan.left_key)
    right_index = right_schema.index_of(plan.right_key)
    null_pad = (None,) * len(right_schema)
    out = []
    for left_row in left_rows:
        key = left_row[left_index]
        matches = []
        if key is not None:
            matches = [r for r in right_rows
                       if r[right_index] == key]
        if matches:
            for right_row in matches:
                out.append(left_row + right_row)
        elif plan.join_type == "left_outer":
            out.append(left_row + null_pad)
    return schema, out


def _run_aggregate(plan: L.LogicalAggregate, catalog: Catalog):
    child_schema, rows = run_plan(plan.child, catalog)
    out_schema = plan.output_schema(catalog.schema_of)
    key_indexes = [child_schema.index_of(k) for k in plan.group_keys]
    agg_indexes = [child_schema.index_of(a.input)
                   if a.input is not None else None
                   for a in plan.aggs]
    groups: dict[tuple, list[list]] = {}
    if not plan.group_keys:
        # SQL: a global aggregate over no rows is still one row
        groups[()] = [[] for _ in plan.aggs]
    for row in rows:
        key = tuple(row[i] for i in key_indexes)
        state = groups.setdefault(key, [[] for _ in plan.aggs])
        for slot, index in enumerate(agg_indexes):
            state[slot].append(row[index] if index is not None else 0)
    out = []
    for key, state in groups.items():
        values = []
        for agg, collected in zip(plan.aggs, state):
            values.append(_aggregate_value(agg.func, collected))
        out.append(key + tuple(values))
    return out_schema, out


def _aggregate_value(func: str, collected: list):
    non_null = [v for v in collected if v is not None]
    if func == "count_star":
        return len(collected)
    if func == "count":
        return len(non_null)
    if not non_null:
        return None
    if func == "sum":
        return sum(non_null)
    if func == "min":
        return min(non_null)
    if func == "max":
        return max(non_null)
    if func == "avg":
        return sum(non_null) / len(non_null)
    raise NotImplementedError(func)
