"""Telemetry-driven reclustering: advisor, engine, service.

Covers the full layout loop (mine telemetry -> score keys -> budgeted
incremental rewrite -> converge), the recluster/telemetry bugfixes
that ride along (empty-table recluster no-op, degenerate clustering
depth), and the durability story: budget-sliced recluster interleaved
with DML chaos stays row-identical to a fault-free oracle, and a crash
mid-slice recovers to exactly the pre- or post-slice state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_events_rows
from repro import (
    Catalog,
    DataType,
    Layout,
    QueryService,
    Schema,
)
from repro.errors import SchemaError
from repro.faults import CrashInjector, SimulatedCrash
from repro.obs.fleet import fleet_summary, render_fleet_report
from repro.obs.telemetry import TelemetryRecord
from repro.recluster import (
    IncrementalReclusterer,
    ReclusterJob,
    ReclusterService,
    WorkloadAdvisor,
    best_advice,
)
from repro.storage.builder import build_table
from repro.storage.clustering import clustering_information
from repro.storage.micropartition import MicroPartition
from test_durability import DML_POINTS, fingerprint

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)


def sorted_rows(catalog: Catalog, table: str = "events"):
    return sorted(catalog.tables[table].to_rows(), key=repr)


def make_random_catalog(n: int = 1500, seed: int = 3,
                        rows_per_partition: int = 50) -> Catalog:
    catalog = Catalog(rows_per_partition=rows_per_partition)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n, seed=seed),
        layout=Layout.random(seed=seed))
    return catalog


def drain(engine: IncrementalReclusterer, job: ReclusterJob,
          limit: int = 400):
    """Run slices until the job finishes; returns all reports."""
    reports = []
    for _ in range(limit):
        report = engine.run_slice(job)
        reports.append(report)
        if report.done:
            return reports
    raise AssertionError("job did not terminate")


def heat_record(i: int, table: str = "events", column: str = "score",
                total: int = 10, pruned: int = 0,
                **overrides) -> TelemetryRecord:
    """A synthetic executed-query record filtering on one column."""
    fields = dict(
        query_id=f"h{i}", kind="select", status="ok",
        tables=(table,),
        partitions_total=total, partitions_pruned=pruned,
        filter_columns={table: (column,)},
        filter_pruning_by_table={table: (total, pruned)},
    )
    fields.update(overrides)
    return TelemetryRecord(**fields)


# ----------------------------------------------------------------------
# Satellite: empty-table recluster must be a true no-op
# ----------------------------------------------------------------------
class TestEmptyRecluster:
    def test_noop_leaves_version_caches_and_wal_alone(self, tmp_path):
        catalog = Catalog()
        catalog.enable_durability(tmp_path / "d")
        catalog.create_table_from_rows("empty", SCHEMA, [])
        events = []
        catalog.add_change_listener(
            lambda table, version: events.append((table, version)))
        version = catalog.table_versions(["empty"])["empty"]
        appends = catalog.durability.stats()["wal_appends"]

        assert catalog.recluster("empty", "score") == 0

        assert catalog.table_versions(["empty"])["empty"] == version
        assert events == []  # no listener fired, so no cache flushes
        assert catalog.durability.stats()["wal_appends"] == appends

    def test_result_cache_survives_empty_recluster(self):
        catalog = Catalog()
        catalog.create_table_from_rows("empty", SCHEMA, [])
        service = QueryService(catalog)
        sql = "SELECT count(*) AS c FROM empty"
        service.sql(sql)
        catalog.recluster("empty", "ts")
        service.sql(sql)
        assert service.metrics.counter("result_cache_hits").value == 1

    def test_nonempty_recluster_still_bumps_version(self):
        catalog = make_random_catalog(n=300)
        before = catalog.table_versions(["events"])["events"]
        catalog.recluster("events", "score")
        assert catalog.table_versions(["events"])["events"] > before


# ----------------------------------------------------------------------
# Satellite: degenerate zone maps score as already clustered
# ----------------------------------------------------------------------
class TestDegenerateClustering:
    def _partitions(self, value_lists):
        schema = Schema.of(k=DataType.INTEGER)
        return [MicroPartition.from_rows(schema, [(v,) for v in vals])
                for vals in value_lists]

    def test_all_null_column_scores_depth_one(self):
        parts = self._partitions([[None, None], [None], [None, None]])
        info = clustering_information(parts, "k")
        assert info.average_depth == 1.0
        assert info.max_depth == 1
        assert info.partition_count == 3
        assert info.depth_histogram == {1: 3}

    def test_single_partition_scores_depth_one(self):
        info = clustering_information(
            self._partitions([[5, 1, 9]]), "k")
        assert info.average_depth == 1.0
        assert info.max_depth == 1

    def test_empty_table_scores_zero(self):
        info = clustering_information([], "k")
        assert info.average_depth == 0.0
        assert info.partition_count == 0

    @settings(max_examples=60, deadline=None)
    @given(value_lists=st.lists(
        st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                 min_size=1, max_size=5),
        min_size=1, max_size=8))
    def test_depth_never_below_one_nor_crashes(self, value_lists):
        parts = self._partitions(value_lists)
        info = clustering_information(parts, "k")
        assert info.average_depth >= 1.0
        assert 1 <= info.max_depth <= len(parts)
        if all(all(v is None for v in vals) for vals in value_lists):
            assert info.average_depth == 1.0

    def test_advisor_never_recommends_degenerate_layouts(self):
        catalog = Catalog(rows_per_partition=10)
        catalog.create_table_from_rows(
            "nulls", SCHEMA,
            [(i, "a", 1.0, None) for i in range(50)])
        catalog.create_table_from_rows(
            "tiny", SCHEMA, make_events_rows(8))
        records = (
            [heat_record(i, table="nulls") for i in range(20)]
            + [heat_record(100 + i, table="tiny") for i in range(20)])
        assert WorkloadAdvisor().advise(records, catalog) == []

    def test_engine_converges_immediately_on_all_null_key(self):
        catalog = Catalog(rows_per_partition=10)
        catalog.create_table_from_rows(
            "nulls", SCHEMA, [(i, "a", 1.0, None) for i in range(50)])
        job = ReclusterJob(table="nulls", keys=("score",),
                           budget_bytes=1 << 20)
        report = IncrementalReclusterer(catalog).run_slice(job)
        assert report.done
        assert report.partitions_selected == 0
        assert report.reason == "converged"


# ----------------------------------------------------------------------
# Tentpole: telemetry wiring (the advisor's input signal)
# ----------------------------------------------------------------------
class TestFilterColumnTelemetry:
    def test_select_records_filter_columns_and_ratio(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()
        result = catalog.sql(
            "SELECT * FROM events WHERE score BETWEEN 0 AND 9999")
        record = catalog.telemetry.get(result.profile.query_id)
        assert record.filter_columns == {"events": ("score",)}
        total, pruned = record.filter_pruning_by_table["events"]
        assert total == catalog.tables["events"].num_partitions
        assert pruned >= 0

    def test_multi_column_predicate_lists_all_columns(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()
        result = catalog.sql(
            "SELECT * FROM events WHERE ts < 100 AND score < 1000")
        record = catalog.telemetry.get(result.profile.query_id)
        assert record.filter_columns == {"events": ("score", "ts")}

    def test_dml_records_filter_columns(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()
        catalog.sql("DELETE FROM events WHERE score < 1000")
        record = catalog.telemetry.records()[-1]
        assert record.kind == "dml"
        assert record.filter_columns == {"events": ("score",)}
        assert "events" in record.filter_pruning_by_table

    def test_unfiltered_query_has_no_filter_columns(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()
        result = catalog.sql("SELECT count(*) AS c FROM events")
        record = catalog.telemetry.get(result.profile.query_id)
        assert record.filter_columns == {}
        assert record.filter_pruning_by_table == {}

    def test_to_dict_carries_the_new_fields(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()
        result = catalog.sql("SELECT * FROM events WHERE ts < 50")
        payload = catalog.telemetry.get(
            result.profile.query_id).to_dict()
        assert payload["filter_columns"] == {"events": ["ts"]}
        assert "filter_pruning_by_table" in payload


# ----------------------------------------------------------------------
# Tentpole: workload advisor
# ----------------------------------------------------------------------
class TestWorkloadAdvisor:
    def test_recommends_hot_poorly_pruning_column(self):
        catalog = make_random_catalog()
        records = [heat_record(i) for i in range(10)]
        advice = best_advice(records, catalog)
        assert advice is not None
        assert (advice.table, advice.column) == ("events", "score")
        assert advice.queries == 10
        assert advice.pruning_ratio == 0.0
        assert advice.clustering_depth > 1.5
        assert advice.score > 0

    def test_cold_column_not_recommended(self):
        catalog = make_random_catalog()
        records = [heat_record(i) for i in range(5)]
        assert WorkloadAdvisor(min_queries=8).advise(
            records, catalog) == []

    def test_well_pruning_column_not_recommended(self):
        catalog = make_random_catalog()
        records = [heat_record(i, pruned=9) for i in range(10)]
        assert WorkloadAdvisor().advise(records, catalog) == []

    def test_well_clustered_table_not_recommended(self):
        catalog = Catalog(rows_per_partition=50)
        catalog.create_table_from_rows(
            "events", SCHEMA, make_events_rows(1500),
            layout=Layout.sorted_by("score"))
        records = [heat_record(i) for i in range(10)]
        assert WorkloadAdvisor().advise(records, catalog) == []

    def test_ignores_failures_cache_hits_and_maintenance(self):
        catalog = make_random_catalog()
        records = (
            [heat_record(i, status="error") for i in range(10)]
            + [heat_record(20 + i, result_cache_hit=True)
               for i in range(10)]
            + [heat_record(40 + i, kind="recluster")
               for i in range(10)])
        assert WorkloadAdvisor().advise(records, catalog) == []

    def test_dropped_table_not_recommended(self):
        catalog = make_random_catalog()
        records = [heat_record(i, table="ghost") for i in range(10)]
        assert WorkloadAdvisor().advise(records, catalog) == []

    def test_ranks_hotter_worse_column_first(self):
        catalog = make_random_catalog()
        records = (
            [heat_record(i, column="score") for i in range(20)]
            + [heat_record(100 + i, column="ts", pruned=4)
               for i in range(10)])
        ranked = WorkloadAdvisor().advise(records, catalog)
        assert [a.column for a in ranked] == ["score", "ts"]
        assert ranked[0].score > ranked[1].score

    def test_advises_from_real_catalog_telemetry(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()
        rng = random.Random(5)
        for _ in range(12):
            lo = rng.randrange(900_000)
            catalog.sql(f"SELECT * FROM events WHERE score BETWEEN "
                        f"{lo} AND {lo + 20_000}")
        advice = best_advice(catalog.telemetry.records(), catalog)
        assert advice is not None
        assert (advice.table, advice.column) == ("events", "score")


# ----------------------------------------------------------------------
# Tentpole: incremental budgeted engine
# ----------------------------------------------------------------------
class TestIncrementalEngine:
    def test_slices_respect_budget_and_preserve_rows(self):
        catalog = make_random_catalog()
        before_rows = sorted_rows(catalog)
        budget = 48 * 1024
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=budget)
        reports = drain(IncrementalReclusterer(catalog), job)
        assert all(r.bytes_rewritten <= budget for r in reports)
        assert job.slices > 1  # genuinely incremental, not one rewrite
        assert sorted_rows(catalog) == before_rows

    def test_depth_converges(self):
        catalog = make_random_catalog()
        initial = clustering_information(
            catalog.tables["events"].partitions,
            "score").average_depth
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=64 * 1024)
        drain(IncrementalReclusterer(catalog), job)
        final = clustering_information(
            catalog.tables["events"].partitions,
            "score").average_depth
        assert initial > 10
        assert final < initial / 3

    def test_done_job_is_inert(self):
        catalog = make_random_catalog(n=400)
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=1 << 20)
        engine = IncrementalReclusterer(catalog)
        drain(engine, job)
        version = catalog.table_versions(["events"])["events"]
        report = engine.run_slice(job)
        assert report.done and report.partitions_selected == 0
        assert catalog.table_versions(["events"])["events"] == version

    def test_budget_too_small_to_merge_finishes(self):
        catalog = make_random_catalog(n=400)
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=1)  # cannot fit two partitions
        report = IncrementalReclusterer(catalog).run_slice(job)
        assert report.done
        assert "budget" in report.reason

    def test_unknown_key_raises(self):
        catalog = make_random_catalog(n=200)
        job = ReclusterJob(table="events", keys=("nope",),
                           budget_bytes=1 << 20)
        with pytest.raises(SchemaError):
            IncrementalReclusterer(catalog).run_slice(job)

    def test_job_validation(self):
        with pytest.raises(SchemaError):
            ReclusterJob(table="t", keys=(), budget_bytes=1)
        with pytest.raises(SchemaError):
            ReclusterJob(table="t", keys=("k",), budget_bytes=0)

    def test_slices_are_wal_logged_and_recoverable(self, tmp_path):
        catalog = Catalog(rows_per_partition=50)
        catalog.enable_durability(tmp_path / "d")
        catalog.create_table_from_rows(
            "events", SCHEMA, make_events_rows(600, seed=9),
            layout=Layout.random(seed=9))
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=32 * 1024)
        engine = IncrementalReclusterer(catalog)
        engine.run_slice(job)
        engine.run_slice(job)
        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == fingerprint(catalog)

    def test_improves_filter_pruning_ratio(self):
        catalog = make_random_catalog()
        catalog.enable_telemetry()

        def ratio():
            result = catalog.sql(
                "SELECT * FROM events WHERE score BETWEEN "
                "100000 AND 140000")
            scan = result.profile.scans[0]
            return scan.partitions_pruned / scan.total_partitions

        before = ratio()
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=64 * 1024)
        drain(IncrementalReclusterer(catalog), job)
        assert ratio() >= before + 0.2


# ----------------------------------------------------------------------
# Satellite: DML chaos differential + crash injection mid-slice
# ----------------------------------------------------------------------
def _apply_dml(op: str, catalog: Catalog, rng: random.Random,
               batch_seed: int) -> None:
    if op == "insert":
        catalog.insert("events",
                       make_events_rows(30, seed=batch_seed))
    elif op == "delete":
        cutoff = rng.randrange(100_000, 900_000)
        catalog.sql(f"DELETE FROM events WHERE score >= {cutoff}")
    elif op == "update":
        cutoff = rng.randrange(50, 400)
        catalog.sql(f"UPDATE events SET value = 2.5 "
                    f"WHERE ts < {cutoff}")


class TestChaosDifferential:
    DIFFERENTIAL = (
        "SELECT * FROM events ORDER BY ts, score",
        "SELECT count(*) AS c FROM events WHERE score < 500000",
        "SELECT category, value FROM events WHERE score >= 250000 "
        "ORDER BY ts, score LIMIT 9",
    )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1_000),
           ops=st.lists(st.sampled_from(
               ["insert", "delete", "update", "slice"]),
               min_size=3, max_size=10))
    def test_sliced_recluster_with_dml_matches_oracle(self, seed,
                                                      ops):
        subject = Catalog(rows_per_partition=40)
        subject.create_table_from_rows(
            "events", SCHEMA, make_events_rows(500, seed=seed),
            layout=Layout.random(seed=seed))
        oracle = Catalog(rows_per_partition=40)
        oracle.create_table_from_rows(
            "events", SCHEMA, make_events_rows(500, seed=seed))
        rng = random.Random(seed)
        oracle_rng = random.Random(seed)
        engine = IncrementalReclusterer(subject)
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=6 * 1024)
        for index, op in enumerate(ops):
            if op == "slice":
                engine.run_slice(job)
            else:
                _apply_dml(op, subject, rng, seed + index)
                _apply_dml(op, oracle, oracle_rng, seed + index)
        assert sorted_rows(subject) == sorted_rows(oracle)
        for sql in self.DIFFERENTIAL:
            assert subject.sql(sql).rows == oracle.sql(sql).rows, sql

    def _replay(self, root, crash_point=None):
        """Deterministic history: DML, two slices, then slice 3
        (optionally crashed). Returns (catalog, injector, pre)."""
        injector = CrashInjector() if crash_point else None
        catalog = Catalog(rows_per_partition=40)
        catalog.enable_durability(root, crash_injector=injector)
        catalog.create_table_from_rows(
            "events", SCHEMA, make_events_rows(500, seed=17),
            layout=Layout.random(seed=17))
        catalog.sql("DELETE FROM events WHERE score >= 800000")
        catalog.insert("events", make_events_rows(40, seed=18))
        engine = IncrementalReclusterer(catalog)
        job = ReclusterJob(table="events", keys=("score",),
                           budget_bytes=4 * 1024)
        engine.run_slice(job)
        engine.run_slice(job)
        pre = fingerprint(catalog)
        if crash_point is None:
            engine.run_slice(job)
            return catalog, injector, pre
        injector.arm(crash_point, at=1)
        with pytest.raises(SimulatedCrash):
            engine.run_slice(job)
        return catalog, injector, pre

    @pytest.mark.parametrize("point", sorted(DML_POINTS))
    def test_crash_mid_slice_recovers_pre_or_post(self, tmp_path,
                                                  point):
        # The fault-free duplicate supplies the post-slice state; the
        # whole history is deterministic, so fingerprints line up.
        _, _, dup_pre = self._replay(tmp_path / "dup")
        duplicate = Catalog.recover(tmp_path / "dup")
        post = fingerprint(duplicate)

        _, injector, pre = self._replay(tmp_path / "crash",
                                        crash_point=point)
        assert injector.fired == [point]
        assert pre == dup_pre  # histories agree up to the crash
        assert pre != post  # the crashed slice was not a no-op

        recovered = Catalog.recover(tmp_path / "crash")
        expected = post if DML_POINTS[point] == "post" else pre
        assert fingerprint(recovered) == expected
        # Rows are identical either way: recluster moves rows between
        # partitions, never changes them.
        assert sorted_rows(recovered) == sorted_rows(duplicate)


# ----------------------------------------------------------------------
# Tentpole: the background service loop
# ----------------------------------------------------------------------
def drifting_service(n: int = 3000,
                     rows_per_partition: int = 100) -> QueryService:
    """A service whose table is sorted by ts while the workload
    filters on score — the drift the advisor must detect."""
    catalog = Catalog(rows_per_partition=rows_per_partition)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n, seed=21),
        layout=Layout.sorted_by("ts"))
    return QueryService(catalog)


def run_score_queries(service: QueryService, count: int,
                      seed: int) -> list[float]:
    """Run score-range SELECTs; returns their filter pruning ratios."""
    rng = random.Random(seed)
    ratios = []
    for _ in range(count):
        lo = rng.randrange(900_000)
        result = service.sql(
            f"SELECT * FROM events WHERE score BETWEEN {lo} "
            f"AND {lo + 30_000}")
        scan = result.profile.scans[0]
        ratios.append(scan.partitions_pruned / scan.total_partitions)
    return ratios


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class TestReclusterService:
    def test_detects_drift_and_improves_median_ratio(self):
        service = drifting_service()
        before = run_score_queries(service, 15, seed=1)
        recluster = service.enable_reclustering(
            budget_bytes=24 * 1024)
        assert service.enable_reclustering() is recluster  # idempotent
        steps = 0
        while recluster.step() is not None:
            steps += 1
            assert steps < 500
        assert steps > 1
        after = run_score_queries(service, 15, seed=2)
        assert median(after) >= median(before) + 0.2

        snap = service.describe()
        status = snap["reclustering"]
        assert status["completed_jobs"]
        done = status["completed_jobs"][0]
        assert done["table"] == "events"
        assert done["keys"] == ["score"]
        assert done["bytes_rewritten"] > 0
        assert snap["recluster_jobs_started"] == 1
        assert snap["recluster_jobs_completed"] == 1
        assert snap["recluster_slices"] == steps
        assert snap["telemetry"]["recluster_slices"] == steps
        assert snap["telemetry"]["recluster_bytes_rewritten"] > 0

    def test_no_advice_means_no_work(self):
        service = drifting_service(n=600)
        # ts-sorted table + ts workload: pruning is already good.
        rng = random.Random(3)
        for _ in range(12):
            lo = rng.randrange(500)
            service.sql(f"SELECT * FROM events WHERE ts BETWEEN "
                        f"{lo} AND {lo + 40}")
        recluster = service.enable_reclustering()
        assert recluster.step() is None
        assert service.metrics.counter(
            "recluster_jobs_started").value == 0

    def test_manual_pause_resume(self):
        service = drifting_service(n=600)
        run_score_queries(service, 10, seed=4)
        recluster = service.enable_reclustering()
        recluster.pause()
        assert recluster.paused
        assert recluster.step() is None
        assert service.metrics.counter("recluster_slices").value == 0
        recluster.resume()
        assert recluster.step() is not None

    def test_maintenance_records_separated_in_fleet_report(self):
        service = drifting_service(n=1000)
        run_score_queries(service, 12, seed=6)
        recluster = service.enable_reclustering()
        while recluster.step() is not None:
            pass
        records = service.telemetry.records()
        summary = fleet_summary(records)
        assert summary["recluster_slices"] > 0
        assert summary["recluster_partitions_rewritten"] > 0
        # Maintenance never inflates the query aggregates.
        assert summary["queries"] == sum(
            1 for r in records if r.kind != "recluster")
        report = render_fleet_report(records)
        assert "reclustering:" in report
        assert "background slices" in report

    def test_slices_interleave_with_traffic(self):
        service = drifting_service(n=1500)
        run_score_queries(service, 12, seed=7)
        oracle = Catalog(rows_per_partition=100)
        oracle.create_table_from_rows(
            "events", SCHEMA, make_events_rows(1500, seed=21))
        recluster = service.enable_reclustering(budget_bytes=64 * 1024)
        # A seeded turn order of slices, reads and deletes, as three
        # reader clients, one writer and the reclusterer would take
        # turns on the service lock.
        turns = ["step"] * 20 + ["read"] * 45 + ["write"] * 5
        random.Random(7).shuffle(turns)
        deletes = iter(range(5))
        for turn in turns:
            if turn == "step":
                recluster.step()
            elif turn == "read":
                result = service.sql("SELECT count(*) AS c FROM events")
                assert result.rows[0][0] > 0
            else:
                service.sql(f"DELETE FROM events WHERE score >= "
                            f"{950_000 - next(deletes) * 10_000}")
        assert service.metrics.counter("recluster_slices").value > 0
        for i in range(5):
            oracle.sql(f"DELETE FROM events WHERE score >= "
                       f"{950_000 - i * 10_000}")
        assert sorted_rows(service.catalog) == sorted_rows(oracle)

    def test_trace_spans_recorded(self):
        from repro.obs.trace import Tracer

        service = drifting_service(n=800)
        run_score_queries(service, 10, seed=8)
        tracer = Tracer()
        recluster = ReclusterService(service, tracer=tracer)
        report = recluster.step()
        assert report is not None
        spans = [s for s in tracer.root.iter_spans()
                 if s.name == "recluster:slice"]
        assert spans
        assert spans[0].attrs["table"] == "events"
