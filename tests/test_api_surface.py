"""Tests for public API surfaces not covered elsewhere: profile
rendering, direct plan execution, helper entry points, and small
utilities."""

import dataclasses
import enum
import re
from pathlib import Path

import pytest

from repro import Catalog, CompilerOptions, DataType, Layout, Schema
from repro.engine.executor import collect_chunks
from repro.expr.ast import Compare, col, lit
from repro.plan import logical as L
from repro.pruning.sketches import SketchConfig
from repro.sql import parse_sql
from repro.storage import MetadataStore, StorageLayer
from repro.storage.builder import build_table
from repro.workload import Platform, PlatformConfig, WorkloadGenerator
from repro.workload.generator import run_workload

SCHEMA = Schema.of(ts=DataType.INTEGER, tag=DataType.VARCHAR)


def make_catalog():
    catalog = Catalog(rows_per_partition=25)
    catalog.create_table_from_rows(
        "t", SCHEMA, [(i, f"tag{i % 3}") for i in range(100)],
        layout=Layout.sorted_by("ts"))
    return catalog


class TestProfileRendering:
    def test_pruning_summary_mentions_each_stage(self):
        catalog = make_catalog()
        result = catalog.sql(
            "SELECT * FROM t WHERE ts >= 90 LIMIT 3")
        text = result.profile.pruning_summary()
        assert "scan t" in text
        assert "filter ->" in text
        assert "limit[" in text
        assert "simulated time" in text

    def test_flow_record_round_trip(self):
        catalog = make_catalog()
        result = catalog.sql("SELECT * FROM t WHERE ts >= 90")
        record = result.profile.flow_record()
        assert record.total_partitions == 4
        assert record.applied("filter")
        assert record.overall_ratio > 0.5

    def test_partitions_pruned_property(self):
        catalog = make_catalog()
        result = catalog.sql("SELECT * FROM t WHERE ts >= 90")
        profile = result.profile
        assert profile.partitions_pruned == 3
        assert profile.total_ms == profile.compile_ms \
            + profile.exec_ms


class TestDirectPlanExecution:
    def test_execute_hand_built_plan(self):
        catalog = make_catalog()
        plan = L.LogicalLimit(
            L.LogicalFilter(L.LogicalScan("t"),
                            Compare(">=", col("ts"), lit(50))),
            k=5)
        result = catalog.execute_plan(plan)
        assert result.num_rows == 5
        assert all(row[0] >= 50 for row in result.rows)

    def test_with_predicate_combines(self):
        scan = L.LogicalScan("t", Compare(">", col("ts"), lit(1)))
        combined = scan.with_predicate(
            Compare("<", col("ts"), lit(9)))
        assert combined.predicate.to_sql() == \
            "((ts > 1) AND (ts < 9))"

    def test_collect_chunks(self):
        from repro.engine.context import ExecContext
        from repro.engine.operators import Scan
        from repro.pruning.base import ScanSet

        table = build_table("t", SCHEMA,
                            [(i, "a") for i in range(50)],
                            rows_per_partition=10)
        storage = StorageLayer()
        storage.put_all(table.partitions)
        ctx = ExecContext(storage)
        scan = Scan(ctx, "t", SCHEMA,
                    ScanSet((p.partition_id, p.zone_map)
                            for p in table.partitions))
        chunks = collect_chunks(scan)
        # one batch: the five partitions as runs, in scan-set order
        assert len(chunks) == 1
        assert chunks[0].runs == tuple((p.partition_id, 10)
                                       for p in table.partitions)
        assert sum(c.num_rows for c in chunks) == 50


class TestSmallUtilities:
    def test_parse_sql_alias(self):
        stmt = parse_sql("SELECT * FROM t LIMIT 3")
        assert stmt.limit == 3

    def test_metadata_store_register_table(self):
        table = build_table("t", SCHEMA, [(1, "a")],
                            rows_per_partition=10)
        store = MetadataStore()
        store.register_table(
            "t", ((p.partition_id, p.zone_map)
                  for p in table.partitions))
        assert store.partitions_of("t") == table.partition_ids

    def test_storage_load_cost_without_loading(self):
        table = build_table("t", SCHEMA, [(1, "a")],
                            rows_per_partition=10)
        storage = StorageLayer()
        storage.put_all(table.partitions)
        cost = storage.load_cost_ms(table.partition_ids[0])
        assert cost > 0
        assert storage.stats.partitions_loaded == 0

    def test_run_workload_helper(self):
        platform = Platform(PlatformConfig(
            seed=9, n_small_tables=2, n_medium_tables=1,
            n_large_tables=0, n_dim_tables=1))
        generator = WorkloadGenerator(platform, seed=9)
        results = run_workload(platform, generator.generate(5))
        assert len(results) == 5
        assert all(r.profile is not None for r in results)

    def test_id_generator_floor(self):
        from repro.storage.micropartition import (
            MicroPartition,
            partition_id_generator,
        )

        partition_id_generator.ensure_floor(10**9)
        part = MicroPartition.from_rows(SCHEMA, [(1, "a")])
        assert part.partition_id > 10**9


@pytest.mark.parametrize("options", [CompilerOptions, SketchConfig])
def test_every_option_is_set_by_some_test_or_benchmark(options):
    """A guard, not a proof: an option field that no file under
    tests/, benchmarks/, bench/ or examples/ ever passes a non-default
    value selects a path nothing runs; delete the field and the path.
    (Source text only: ``field=<anything but the default>``.)"""
    root = Path(__file__).resolve().parent.parent
    sources = "\n".join(
        path.read_text()
        for folder in ("tests", "benchmarks", "bench", "examples")
        for path in sorted((root / folder).rglob("*.py")))
    dead = []
    for field in dataclasses.fields(options):
        default = field.default
        default = str(default) if isinstance(
            default, enum.Enum) else repr(default)
        values = re.findall(
            rf"\b{field.name}\s*=(?!=)\s*([^,)\n]+)", sources)
        if all(value.strip() == default for value in values):
            dead.append(field.name)
    assert not dead, f"{options.__name__}: never set: {dead}"
