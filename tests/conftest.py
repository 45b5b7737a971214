"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro import Catalog, DataType, Layout, Schema, StorageError
from repro.expr.eval import bind_predicate
from repro.plan.compiler import QueryCompiler
from repro.storage.builder import build_table

#: compile-time pruning verdicts checked against the rows, by kind
AUDITED: Counter = Counter()


def _audit(kind: str, context, predicate, schema, partition_ids) -> None:
    """Check the rows of each partition a verdict covers: no row is
    TRUE under a NEVER verdict, every row is TRUE under ALWAYS."""
    mask = bind_predicate(predicate, schema)
    for pid in np.asarray(partition_ids, dtype=np.int64).tolist():
        try:
            partition = context.storage.peek(pid)
        except StorageError:
            continue  # rewritten by concurrent DML since it was read
        true = mask(partition.columns(), partition.row_count)
        holds = true.all() if kind == "ALWAYS" else not true.any()
        assert holds, (f"{kind} verdict for partition {pid} contradicts "
                       f"its rows under {predicate}")
        AUDITED[kind] += 1


@pytest.fixture(autouse=True)
def verdict_audit(request, monkeypatch):
    """Every compile-time filter and sketch pruning verdict is checked
    against the partition's rows. A test that counts calls opts out
    with ``@pytest.mark.no_verdict_audit``."""
    if request.node.get_closest_marker("no_verdict_audit"):
        return
    filter_prune = QueryCompiler._filter_prune
    sketch_prune = QueryCompiler._sketch_prune

    def audited_filter_prune(self, predicate, scan_set, schema, profile,
                             context, options):
        kept, fully_matching, deferred = filter_prune(
            self, predicate, scan_set, schema, profile, context, options)
        _audit("filter NEVER", context, predicate, schema,
               np.setdiff1d(scan_set.ids, kept.ids))
        _audit("ALWAYS", context, predicate, schema, fully_matching)
        return kept, fully_matching, deferred

    def audited_sketch_prune(self, table, predicate, scan_set, schema,
                             fully_matching, profile, context):
        kept, fully_matching = sketch_prune(
            self, table, predicate, scan_set, schema, fully_matching,
            profile, context)
        _audit("sketch NEVER", context, predicate, schema,
               np.setdiff1d(scan_set.ids, kept.ids))
        return kept, fully_matching

    monkeypatch.setattr(QueryCompiler, "_filter_prune",
                        audited_filter_prune)
    monkeypatch.setattr(QueryCompiler, "_sketch_prune",
                        audited_sketch_prune)


def pytest_terminal_summary(terminalreporter):
    if AUDITED:
        terminalreporter.write_line(
            "pruning verdicts checked against the rows: " + ", ".join(
                f"{AUDITED[kind]} {kind}" for kind in
                ("filter NEVER", "ALWAYS", "sketch NEVER")))


@pytest.fixture
def events_schema() -> Schema:
    return Schema.of(
        ts=DataType.INTEGER,
        category=DataType.VARCHAR,
        value=DataType.DOUBLE,
        score=DataType.INTEGER,
    )


def make_events_rows(n: int, seed: int = 0,
                     null_every: int = 0) -> list[tuple]:
    """Deterministic event rows; every ``null_every``-th value is NULL."""
    rng = random.Random(seed)
    categories = ["alpha", "beta", "gamma", "delta"]
    rows = []
    for i in range(n):
        value = None if null_every and i % null_every == 0 \
            else round(rng.uniform(0, 1000), 3)
        rows.append((i, rng.choice(categories), value,
                     rng.randrange(1_000_000)))
    return rows


@pytest.fixture
def events_catalog(events_schema) -> Catalog:
    """A catalog with one ts-sorted 'events' table of 20 partitions."""
    catalog = Catalog(rows_per_partition=100)
    catalog.create_table_from_rows(
        "events", events_schema, make_events_rows(2000),
        layout=Layout.sorted_by("ts"))
    return catalog


@pytest.fixture
def random_events_catalog(events_schema) -> Catalog:
    """Same data, shuffled layout (worst case for pruning)."""
    catalog = Catalog(rows_per_partition=100)
    catalog.create_table_from_rows(
        "events", events_schema, make_events_rows(2000),
        layout=Layout.random(seed=3))
    return catalog


@pytest.fixture
def small_table(events_schema):
    return build_table("small", events_schema, make_events_rows(250),
                       rows_per_partition=50)
