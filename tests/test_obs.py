"""Tests for query tracing and fleet telemetry (repro.obs).

Covers the span tree (generator safety, EXPLAIN ANALYZE rendering,
the tracing-disabled fast path), per-query telemetry records, the
bounded sink, service wiring (annotation, cache hits, failures), and
the fleet aggregation/report layer over a synthetic workload.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import Catalog, DataType, Layout, Schema
from repro.obs import (
    Span,
    Tracer,
    TelemetryRecord,
    TelemetrySink,
    fleet_json,
    fleet_summary,
    latency_percentiles,
    render_fleet_report,
    render_span_tree,
    technique_ratio_cdfs,
)
from repro.service import QueryService
from repro.workload import Platform, PlatformConfig, WorkloadGenerator

from conftest import make_events_rows

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)


def make_catalog(n_rows: int = 1000, **kwargs) -> Catalog:
    catalog = Catalog(rows_per_partition=100, **kwargs)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n_rows),
        layout=Layout.sorted_by("ts"))
    return catalog


# ----------------------------------------------------------------------
# Span / Tracer units
# ----------------------------------------------------------------------
class TestSpan:
    def test_end_is_idempotent(self):
        span = Span("s")
        span.end()
        first = span.end_s
        span.end()
        assert span.end_s == first

    def test_duration_zero_while_open(self):
        span = Span("s")
        assert not span.finished
        assert span.duration_ms == 0.0

    def test_annotate_merges_and_chains(self):
        span = Span("s", {"a": 1})
        assert span.annotate(b=2) is span
        assert span.attrs == {"a": 1, "b": 2}

    def test_find_and_iter(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", key="v"):
                pass
        root = tracer.finish()
        assert root.find("inner").attrs == {"key": "v"}
        assert [s.name for s in root.iter_spans()] == \
            ["query", "outer", "inner"]

    def test_to_dict_nested(self):
        tracer = Tracer()
        with tracer.span("child"):
            pass
        payload = tracer.finish().to_dict()
        assert payload["name"] == "query"
        assert payload["children"][0]["name"] == "child"
        json.dumps(payload)  # JSON-friendly


class TestTracer:
    def test_nesting_follows_stack(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        root = tracer.finish()
        a = root.children[0]
        assert [c.name for c in a.children] == ["b", "c"]

    def test_start_span_does_not_touch_stack(self):
        tracer = Tracer()
        with tracer.span("exec") as exec_span:
            scan = tracer.start_span("scan", parent=exec_span)
            with tracer.span("sibling"):
                pass
            scan.end()
        root = tracer.finish()
        exec_ = root.children[0]
        assert [c.name for c in exec_.children] == ["scan", "sibling"]

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        event = tracer.event("retry", error="Timeout")
        assert event.finished
        assert event.duration_ms == 0.0

    def test_finish_repairs_abandoned_span(self):
        # A LIMIT can abandon a scan generator mid-flight: its span
        # never sees end(). finish() must clamp it, not crash.
        tracer = Tracer()
        abandoned = tracer.start_span("scan")
        root = tracer.finish()
        assert abandoned.finished
        assert abandoned.end_s == root.end_s

    def test_disturbed_stack_tolerated(self):
        # Exiting an outer contextmanager while an inner stack span is
        # still open (abandoned generator) must not corrupt the stack.
        tracer = Tracer()
        outer_cm = tracer.span("outer")
        outer = outer_cm.__enter__()
        inner_cm = tracer.span("inner")
        inner_cm.__enter__()
        outer_cm.__exit__(None, None, None)  # inner never exited
        root = tracer.finish()
        assert tracer.current is root
        assert outer.finished
        assert root.find("inner").finished


class TestRenderSpanTree:
    def test_renders_durations_and_attrs(self):
        tracer = Tracer()
        with tracer.span("compile", table="t"):
            pass
        tracer.event("retry", error="Timeout")
        text = render_span_tree(tracer.finish())
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "ms" in lines[0]
        assert "[table=t]" in text
        assert "·" in text            # events render a dot, not 0.00
        assert "[error=Timeout]" in text


# ----------------------------------------------------------------------
# Catalog integration
# ----------------------------------------------------------------------
class TestCatalogTracing:
    def test_select_trace_tree_shape(self):
        catalog = make_catalog()
        result = catalog.sql(
            "SELECT * FROM events WHERE ts BETWEEN 100 AND 150")
        trace = result.profile.trace
        assert trace is not None
        names = [s.name for s in trace.iter_spans()]
        for expected in ("parse", "plan", "compile", "prune:filter",
                         "execute", "scan:events"):
            assert expected in names
        assert all(s.finished for s in trace.iter_spans())

    def test_filter_prune_span_attrs(self):
        catalog = make_catalog()
        result = catalog.sql("SELECT * FROM events WHERE ts < 100")
        prune = result.profile.trace.find("prune:filter")
        assert prune.attrs["table"] == "events"
        assert prune.attrs["after"] <= prune.attrs["before"]

    def test_scan_span_survives_limit_abandonment(self):
        catalog = make_catalog()
        result = catalog.sql("SELECT * FROM events LIMIT 3")
        trace = result.profile.trace
        scan = trace.find("scan:events")
        assert scan is not None
        assert scan.finished

    def test_topk_event_recorded(self):
        catalog = make_catalog()
        result = catalog.sql(
            "SELECT * FROM events ORDER BY score DESC LIMIT 5")
        assert result.profile.trace.find("prune:topk") is not None

    def test_boundary_updates_surface_in_profile_and_export(self):
        catalog = make_catalog()
        result = catalog.sql(
            "SELECT * FROM events ORDER BY score DESC LIMIT 5")
        profile = result.profile
        assert profile.topk_boundary_updates > 0
        assert profile.metrics_export()["topk_boundary_updates"] == \
            float(profile.topk_boundary_updates)
        scan = profile.trace.find("scan:events")
        assert scan.attrs["boundary_updates"] == \
            profile.topk_boundary_updates

    def test_dml_trace(self):
        catalog = make_catalog()
        result = catalog.sql("DELETE FROM events WHERE ts < 50")
        trace = result.profile.trace
        assert trace.find("parse") is not None
        assert trace.find("dml") is not None

    def test_tracing_disabled(self):
        catalog = make_catalog(enable_tracing=False)
        result = catalog.sql("SELECT * FROM events WHERE ts < 100")
        assert result.profile.trace is None

    def test_explain_analyze_appends_span_tree(self):
        catalog = make_catalog()
        report = catalog.explain_analyze(
            "SELECT * FROM events WHERE ts < 100")
        assert "-- trace:" in report
        assert "scan:events" in report

    def test_predicate_cache_hit_event(self):
        catalog = make_catalog()
        catalog.enable_predicate_cache()
        sql = "SELECT * FROM events WHERE ts BETWEEN 10 AND 40"
        catalog.sql(sql)
        result = catalog.sql(sql)  # cache hit
        hit = result.profile.trace.find("predicate_cache:hit")
        assert hit is not None
        assert hit.attrs["kind"] == "filter"


# ----------------------------------------------------------------------
# Telemetry records and sink
# ----------------------------------------------------------------------
class TestTelemetryRecord:
    def test_from_result_fields(self):
        catalog = make_catalog()
        catalog.enable_telemetry()
        sql = "SELECT * FROM events WHERE ts BETWEEN 100 AND 199"
        result = catalog.sql(sql)
        record = catalog.telemetry.get(result.profile.query_id)
        assert record is not None
        assert record.sql == sql
        assert record.kind == "select"
        assert record.tables == ("events",)
        assert record.status == "ok"
        assert record.partitions_total == 10
        assert record.partitions_pruned > 0
        assert record.partitions_loaded + record.partitions_pruned \
            <= record.partitions_total
        assert "filter" in record.pruned_by_technique
        assert "filter" in record.eligible_techniques
        assert 0.0 <= record.pruning_ratio <= 1.0
        assert record.rows_returned == result.num_rows
        assert record.bytes_scanned > 0
        assert record.wall_ms > 0
        assert record.simulated_ms > 0

    def test_technique_ratio(self):
        record = TelemetryRecord(
            partitions_total=10,
            pruned_by_technique={"filter": 4})
        assert record.technique_ratio("filter") == 0.4
        assert record.technique_ratio("topk") == 0.0
        assert TelemetryRecord().technique_ratio("filter") == 0.0

    def test_to_dict_round_trips_json(self):
        catalog = make_catalog()
        catalog.enable_telemetry()
        catalog.sql("SELECT count(*) AS c FROM events")
        record = catalog.telemetry.records()[-1]
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["status"] == "ok"

    def test_dml_recorded(self):
        catalog = make_catalog()
        catalog.enable_telemetry()
        catalog.sql("DELETE FROM events WHERE ts < 10")
        record = catalog.telemetry.records()[-1]
        assert record.kind == "dml"


class TestTelemetrySink:
    def _record(self, i):
        return TelemetryRecord(query_id=f"q{i}", simulated_ms=float(i))

    def test_ring_eviction(self):
        sink = TelemetrySink(capacity=3)
        for i in range(5):
            sink.record(self._record(i))
        assert len(sink) == 3
        assert sink.dropped == 2
        assert sink.total_recorded == 5
        assert sink.get("q0") is None      # evicted from the index too
        assert sink.get("q4") is not None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TelemetrySink(capacity=0)

    def test_annotate(self):
        sink = TelemetrySink()
        sink.record(self._record(1))
        assert sink.annotate("q1", cluster="xl", queue_wait_ms=3.5)
        record = sink.get("q1")
        assert record.cluster == "xl"
        assert record.queue_wait_ms == 3.5
        assert not sink.annotate("missing", cluster="xl")
        with pytest.raises(AttributeError):
            sink.annotate("q1", no_such_field=1)

    def test_slow_queries_sorted(self):
        sink = TelemetrySink(slow_query_ms=5.0)
        for i in range(10):
            sink.record(self._record(i))
        slow = sink.slow_queries(n=3)
        assert [r.simulated_ms for r in slow] == [9.0, 8.0, 7.0]

    def test_summary_and_export(self, tmp_path):
        sink = TelemetrySink()
        sink.record(TelemetryRecord(
            query_id="a", partitions_total=10, partitions_pruned=9))
        sink.record(TelemetryRecord(query_id="b", status="error"))
        summary = sink.summary()
        assert summary["recorded"] == 2
        assert summary["errors"] == 1
        assert summary["fleet_pruning_ratio"] == 0.9
        path = tmp_path / "telemetry.json"
        text = sink.export_json(path)
        payload = json.loads(path.read_text())
        assert payload == json.loads(text)
        assert len(payload["records"]) == 2

    def test_summary_matches_brute_force_recomputation(self):
        """The running counters (O(1) summary) must always agree with
        a from-scratch walk over the retained ring — across eviction,
        in-place annotation, and maintenance (recluster) records."""
        import random as _random

        def brute_force(sink: TelemetrySink) -> dict:
            records = sink.records()
            pruned = sum(r.partitions_pruned for r in records)
            population = sum(r.partitions_total for r in records)
            maintenance = [r for r in records
                           if r.kind == "recluster"]
            return {
                "recorded": sink.total_recorded,
                "retained": len(records),
                "dropped": sink.dropped,
                "errors": sum(1 for r in records
                              if r.status == "error"),
                "result_cache_hits": sum(
                    1 for r in records if r.result_cache_hit),
                "predicate_cache_hits": sum(
                    1 for r in records if r.predicate_cache_hit),
                "plan_cache_hits": sum(
                    1 for r in records if r.plan_cache_hit),
                "data_cache_hits": sum(r.data_cache_hits
                                       for r in records),
                "data_cache_misses": sum(r.data_cache_misses
                                         for r in records),
                "data_cache_bytes_saved": sum(
                    r.data_cache_bytes_saved for r in records),
                "wal_appends": sum(r.wal_appends for r in records),
                "wal_bytes": sum(r.wal_bytes for r in records),
                "degraded_queries": sum(
                    1 for r in records if r.degraded),
                "partitions_total": population,
                "partitions_pruned": pruned,
                "bytes_scanned": sum(r.bytes_scanned
                                     for r in records),
                "rows_returned": sum(r.rows_returned
                                     for r in records),
                "recluster_slices": len(maintenance),
                "recluster_partitions_rewritten": sum(
                    r.partitions_rewritten for r in maintenance),
                "recluster_bytes_rewritten": sum(
                    r.bytes_rewritten for r in maintenance),
                "fleet_pruning_ratio": round(pruned / population, 6)
                if population else 0.0,
            }

        rng = _random.Random(42)
        sink = TelemetrySink(capacity=16)  # small: force eviction
        for i in range(60):
            kind = rng.choice(["select", "select", "dml",
                               "recluster"])
            sink.record(TelemetryRecord(
                query_id=f"q{i}", kind=kind,
                status=rng.choice(["ok", "ok", "ok", "error"]),
                result_cache_hit=rng.random() < 0.2,
                predicate_cache_hit=rng.random() < 0.3,
                plan_cache_hit=rng.random() < 0.3,
                degraded=rng.random() < 0.1,
                partitions_total=rng.randrange(50),
                partitions_pruned=rng.randrange(20),
                data_cache_hits=rng.randrange(10),
                data_cache_misses=rng.randrange(10),
                data_cache_bytes_saved=rng.randrange(9999),
                wal_appends=rng.randrange(4),
                wal_bytes=rng.randrange(2048),
                bytes_scanned=rng.randrange(99999),
                rows_returned=rng.randrange(500),
                partitions_rewritten=rng.randrange(8),
                bytes_rewritten=rng.randrange(4096)))
            if rng.random() < 0.4:
                # In-place mutation of a retained record: the sink
                # must retract and re-add its contribution.
                victim = rng.choice(sink.records())
                sink.annotate(victim.query_id,
                              wal_appends=rng.randrange(4),
                              rows_returned=rng.randrange(500))
            assert sink.summary() == brute_force(sink)
        sink.clear()
        summary = sink.summary()
        assert summary == brute_force(sink)
        assert summary["retained"] == 0
        assert summary["partitions_total"] == 0

    def test_concurrent_record(self):
        sink = TelemetrySink(capacity=64)
        barrier = threading.Barrier(8)

        def worker(w):
            barrier.wait()
            for i in range(50):
                sink.record(TelemetryRecord(query_id=f"w{w}-{i}"))

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sink.total_recorded == 400
        assert len(sink) == 64
        assert sink.dropped == 400 - 64


# ----------------------------------------------------------------------
# Service wiring
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    def test_service_annotates_catalog_record(self):
        service = QueryService(make_catalog())
        result = service.sql("SELECT * FROM events WHERE ts < 100")
        record = service.telemetry.get(result.profile.query_id)
        assert record is not None
        assert record.cluster != ""
        assert record.wall_ms > 0
        # One record per query, not two.
        assert sum(1 for r in service.telemetry.records()
                   if r.query_id == result.profile.query_id) == 1

    def test_result_cache_hit_recorded(self):
        service = QueryService(make_catalog())
        sql = "SELECT * FROM events WHERE ts < 100"
        service.sql(sql)
        service.sql(sql)  # result-cache hit, never reaches the catalog
        hits = [r for r in service.telemetry.records()
                if r.status == "cache_hit"]
        assert len(hits) == 1
        assert hits[0].result_cache_hit

    def test_failure_recorded(self):
        service = QueryService(make_catalog())
        with pytest.raises(Exception):
            service.sql("SELECT * FROM no_such_table")
        errors = [r for r in service.telemetry.records()
                  if r.status == "error"]
        assert len(errors) == 1
        assert errors[0].error != ""

    def test_describe_includes_telemetry(self):
        service = QueryService(make_catalog())
        service.sql("SELECT count(*) AS c FROM events")
        snap = service.describe()
        assert snap["telemetry"]["recorded"] >= 1

    def test_bytes_scanned_metric(self):
        service = QueryService(make_catalog())
        service.sql("SELECT * FROM events WHERE ts < 100")
        assert service.metrics.counter("bytes_scanned").value > 0


# ----------------------------------------------------------------------
# Fleet aggregation and report
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_records():
    platform = Platform(PlatformConfig(
        seed=11, rows_per_partition=50, n_small_tables=2,
        n_medium_tables=2, n_large_tables=1, n_dim_tables=1,
        dim_rows=64))
    platform.catalog.enable_telemetry()
    generator = WorkloadGenerator(platform, seed=12)
    for query in generator.generate(80):
        platform.catalog.sql(query.sql)
    return platform.catalog.telemetry.records()


class TestFleetAggregation:
    def test_technique_cdfs(self, fleet_records):
        cdfs = technique_ratio_cdfs(fleet_records)
        assert set(cdfs) == {"filter", "sketch", "join", "limit",
                             "topk"}
        filter_cdf = cdfs["filter"]
        assert filter_cdf, "no filter-eligible queries in workload"
        assert cdfs["topk"], "no top-k-eligible queries in workload"
        thresholds = [t for t, _ in filter_cdf]
        fractions = [f for _, f in filter_cdf]
        assert thresholds[0] == 0.0 and thresholds[-1] == 1.0
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert fractions == sorted(fractions)  # CDF is monotone
        assert fractions[-1] == 1.0

    def test_cdfs_skip_ineligible(self):
        records = [TelemetryRecord(
            partitions_total=10, partitions_pruned=5,
            pruned_by_technique={"filter": 5},
            eligible_techniques=("filter",))]
        cdfs = technique_ratio_cdfs(records)
        assert cdfs["filter"]
        assert cdfs["topk"] == []

    def test_latency_percentiles(self, fleet_records):
        percentiles = latency_percentiles(fleet_records)
        assert "simulated_ms" in percentiles
        values = percentiles["simulated_ms"]
        assert values["p50"] <= values["p99"] <= values["p100"]

    def test_fleet_summary(self, fleet_records):
        summary = fleet_summary(fleet_records)
        assert summary["queries"] == len(fleet_records)
        assert summary["executed"] >= 1
        assert 0.0 <= summary["fleet_pruning_ratio"] <= 1.0
        assert summary["partitions_pruned"] <= \
            summary["partitions_total"]

    def test_fleet_json_serializable(self, fleet_records):
        json.dumps(fleet_json(fleet_records))

    def test_render_fleet_report(self, fleet_records):
        text = render_fleet_report(fleet_records,
                                   title="test fleet")
        assert "test fleet" in text
        assert "CDF" in text
        assert "filter" in text
        assert "simulated_ms" in text

    def test_render_empty(self):
        text = render_fleet_report([], title="empty")
        assert "empty" in text
