"""Plan-shape compiled-plan cache: parameterization, rebinding, and
the differential invariant.

The acceptance bar mirrors the result-correctness bar of every other
caching layer in this repo: a plan-cache *hit* (literal rebind of a
cached template) must return bit-identical rows to a cold compile of
the same statement — over generated workloads, under interleaved DML
and reclustering, and under seeded transient faults. Staleness must
fail closed: schema drift evicts the entry and recompiles; it never
reuses a stale scan set (rebinding re-runs pruning from live
metadata by construction).
"""

from __future__ import annotations

import datetime

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import (
    Catalog,
    DataType,
    Layout,
    ReproError,
    Schema,
)
from repro.plancache import (
    BindMismatchError,
    PlanCache,
    bind_plan,
    build_template,
    make_pruned_resolver,
    parameterize_text,
    referenced_columns,
    validate_binds,
)
from repro.service import QueryService
from repro.sql import parse_select
from repro.types import Field

from conftest import make_events_rows
from faults import FaultInjector, FaultSpec, install_faults

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)


def make_catalog(n_rows: int = 1000, plan_cache: bool = True,
                 rows_per_partition: int = 100) -> Catalog:
    catalog = Catalog(rows_per_partition=rows_per_partition)
    catalog.create_table_from_rows(
        "events", SCHEMA, make_events_rows(n_rows),
        layout=Layout.sorted_by("ts"))
    if plan_cache:
        catalog.enable_plan_cache()
    return catalog


# ----------------------------------------------------------------------
# Parameterization: shape keys and bind extraction
# ----------------------------------------------------------------------
class TestParameterize:
    def test_literal_spellings_share_a_shape(self):
        a = parameterize_text("SELECT * FROM t WHERE y = 1.0")
        b = parameterize_text("select *  from T where Y = 1.00;")
        assert a.shape_key == b.shape_key
        assert a.binds == b.binds == (1.0,)

    def test_different_values_same_shape_different_binds(self):
        a = parameterize_text("SELECT * FROM t WHERE x = 1 AND s='u'")
        b = parameterize_text("SELECT * FROM t WHERE x = 9 AND s='v'")
        assert a.shape_key == b.shape_key
        assert a.binds == (1, "u")
        assert b.binds == (9, "v")

    def test_int_and_float_masks_stay_distinct(self):
        a = parameterize_text("SELECT * FROM t WHERE x = 1")
        b = parameterize_text("SELECT * FROM t WHERE x = 1.0")
        assert a.shape_key != b.shape_key
        assert type(a.binds[0]) is int
        assert type(b.binds[0]) is float

    def test_limit_and_offset_stay_in_shape(self):
        a = parameterize_text("SELECT * FROM t LIMIT 5")
        b = parameterize_text("SELECT * FROM t LIMIT 6")
        assert a.shape_key != b.shape_key
        assert a.binds == b.binds == ()
        c = parameterize_text("SELECT * FROM t LIMIT 5 OFFSET 2")
        d = parameterize_text("SELECT * FROM t LIMIT 5 OFFSET 3")
        assert c.shape_key != d.shape_key

    def test_date_literal_binds_as_date(self):
        pq = parameterize_text(
            "SELECT * FROM t WHERE d >= DATE '2024-03-01'")
        assert pq.binds == (datetime.date(2024, 3, 1),)
        same = parameterize_text(
            "SELECT * FROM t WHERE d >= DATE '1999-12-31'")
        assert same.shape_key == pq.shape_key

    def test_booleans_and_null_stay_in_shape(self):
        a = parameterize_text("SELECT * FROM t WHERE flag = TRUE")
        b = parameterize_text("SELECT * FROM t WHERE flag = FALSE")
        assert a.shape_key != b.shape_key
        assert a.binds == b.binds == ()

    def test_dml_is_parameterizable_but_not_select(self):
        pq = parameterize_text("DELETE FROM t WHERE x = 3")
        assert not pq.is_select
        assert pq.binds == (3,)


# ----------------------------------------------------------------------
# Template extraction, bind validation, schema pruning
# ----------------------------------------------------------------------
class TestTemplate:
    def test_template_binds_match_token_binds(self):
        sql = ("SELECT ts, value FROM events WHERE ts BETWEEN 10 AND "
               "90 AND category IN ('a', 'b') AND value >= 1.5")
        stmt = parse_select(sql)
        _template, slots, ast_binds = build_template(stmt)
        pq = parameterize_text(sql)
        assert tuple(ast_binds) == pq.binds
        assert len(slots) == len(pq.binds)

    def test_validate_binds_rejects_wrong_type(self):
        sql = "SELECT ts FROM events WHERE ts = 7"
        _template, slots, _binds = build_template(parse_select(sql))
        validate_binds((7,), slots)
        with pytest.raises(BindMismatchError):
            validate_binds((7.0,), slots)
        with pytest.raises(BindMismatchError):
            validate_binds((7, 8), slots)

    def test_bound_template_plans_like_the_original(self):
        catalog = make_catalog(400, plan_cache=False)
        sql = ("SELECT ts, value FROM events WHERE ts BETWEEN 100 "
               "AND 300 AND category = 'alpha' ORDER BY ts LIMIT 7")
        stmt = parse_select(sql)
        template, slots, binds = build_template(stmt)
        from repro.sql.planner import plan_select

        bound = bind_plan(
            plan_select(template, catalog.schema_of), tuple(binds),
            slots)
        direct = catalog.sql(sql)
        via_template = catalog.execute_plan(bound)
        assert via_template.rows == direct.rows

    def test_referenced_columns_and_pruned_resolver(self):
        stmt = parse_select(
            "SELECT ts FROM events WHERE value > 1.0 ORDER BY score")
        cols = referenced_columns(stmt)
        assert cols == {"ts", "value", "score"}
        catalog = make_catalog(100, plan_cache=False)
        resolver, width = make_pruned_resolver(
            stmt, catalog.schema_of, ["events"])
        assert width == 3
        assert resolver("events").names() == ["ts", "value", "score"]

    def test_star_disables_pruning(self):
        stmt = parse_select("SELECT * FROM events WHERE ts = 1")
        assert referenced_columns(stmt) is None
        catalog = make_catalog(100, plan_cache=False)
        resolver, width = make_pruned_resolver(
            stmt, catalog.schema_of, ["events"])
        assert width == len(SCHEMA.fields)
        assert resolver("events") is catalog.schema_of("events")


# ----------------------------------------------------------------------
# Cache behaviour: hits, rebinds, capacity, invalidation
# ----------------------------------------------------------------------
class TestPlanCacheBehaviour:
    def test_repeat_shape_hits_and_is_cheaper(self):
        catalog = make_catalog()
        cold = catalog.sql(
            "SELECT ts, value FROM events WHERE ts < 200 LIMIT 5")
        hot = catalog.sql(
            "SELECT ts, value FROM events WHERE ts < 900 LIMIT 5")
        stats = catalog.plan_cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert hot.profile.plan_cache_hit
        assert hot.profile.plan_cache_checked
        assert not cold.profile.plan_cache_hit
        assert hot.profile.compile_ms < cold.profile.compile_ms

    def test_rebind_is_5x_cheaper_than_cold_bind_on_a_wide_table(self):
        """A cold compile binds every column of the table; a hit
        rebinds literals only. On a 46-column table that is >= 5x of
        simulated compile time (the old plan-cache report's gate)."""
        wide = Schema.of(
            ts=DataType.INTEGER, value=DataType.DOUBLE,
            **{f"pay{i:02d}": DataType.INTEGER for i in range(44)})
        rows = [(i, float(i), *(i * 31 + c for c in range(44)))
                for i in range(400)]
        compile_ms = {}
        for plan_cache in (True, False):
            catalog = Catalog(rows_per_partition=100)
            catalog.create_table_from_rows(
                "wide", wide, rows, layout=Layout.sorted_by("ts"))
            if plan_cache:
                catalog.enable_plan_cache()
                catalog.sql("SELECT ts FROM wide WHERE ts < 200")
            result = catalog.sql("SELECT ts FROM wide WHERE ts < 300")
            assert result.profile.plan_cache_hit is plan_cache
            compile_ms[plan_cache] = result.profile.compile_ms
        assert compile_ms[True] * 5 <= compile_ms[False]

    def test_hit_result_matches_cold_compile(self):
        cached = make_catalog()
        plain = make_catalog(plan_cache=False)
        queries = [
            "SELECT * FROM events WHERE ts BETWEEN 100 AND 340",
            "SELECT * FROM events WHERE ts BETWEEN 500 AND 640",
            "SELECT category, count(*) AS c FROM events "
            "WHERE ts < 700 GROUP BY category ORDER BY category",
            "SELECT category, count(*) AS c FROM events "
            "WHERE ts < 150 GROUP BY category ORDER BY category",
            "SELECT * FROM events WHERE score >= 900000 "
            "ORDER BY score DESC LIMIT 9",
            "SELECT * FROM events WHERE score >= 100000 "
            "ORDER BY score DESC LIMIT 9",
        ]
        for sql in queries:
            assert cached.sql(sql).rows == plain.sql(sql).rows, sql
        assert cached.plan_cache.stats.hits == 3

    def test_lru_capacity_eviction(self):
        catalog = make_catalog(200, plan_cache=False)
        catalog.enable_plan_cache(max_entries=2)
        catalog.sql("SELECT ts FROM events WHERE ts = 1")
        catalog.sql("SELECT value FROM events WHERE ts = 1")
        catalog.sql("SELECT score FROM events WHERE ts = 1")
        assert len(catalog.plan_cache) == 2
        assert catalog.plan_cache.stats.capacity_evictions == 1
        # The first shape was evicted: repeating it misses again.
        catalog.sql("SELECT ts FROM events WHERE ts = 2")
        assert catalog.plan_cache.stats.hits == 0

    def test_enable_plan_cache_is_idempotent(self):
        catalog = make_catalog()
        first = catalog.plan_cache
        catalog.enable_plan_cache()
        assert catalog.plan_cache is first

    def test_dml_does_not_evict_but_results_stay_fresh(self):
        cached = make_catalog()
        plain = make_catalog(plan_cache=False)
        sql = "SELECT count(*) AS c FROM events WHERE ts < 600"
        assert cached.sql(sql).rows == plain.sql(sql).rows
        for catalog in (cached, plain):
            catalog.sql("DELETE FROM events WHERE ts BETWEEN 100 "
                        "AND 250")
        again = "SELECT count(*) AS c FROM events WHERE ts < 601"
        assert cached.sql(again).rows == plain.sql(again).rows
        stats = cached.plan_cache.stats
        assert stats.hits == 1            # the plan survived the DML
        assert stats.version_bumps >= 1   # ...and the bump was seen

    def test_recluster_keeps_plan_and_results_correct(self):
        cached = make_catalog()
        plain = make_catalog(plan_cache=False)
        sql = ("SELECT * FROM events WHERE score >= 500000 "
               "ORDER BY score DESC LIMIT 11")
        assert cached.sql(sql).rows == plain.sql(sql).rows
        for catalog in (cached, plain):
            catalog.recluster("events", "score")
        sql2 = ("SELECT * FROM events WHERE score >= 700000 "
                "ORDER BY score DESC LIMIT 11")
        assert cached.sql(sql2).rows == plain.sql(sql2).rows
        assert cached.plan_cache.stats.hits == 1

    def test_drop_table_evicts_cached_plans(self):
        catalog = make_catalog(200)
        catalog.sql("SELECT ts FROM events WHERE ts = 1")
        assert len(catalog.plan_cache) == 1
        catalog.drop_table("events")
        assert len(catalog.plan_cache) == 0
        assert catalog.plan_cache.stats.invalidations == 1
        with pytest.raises(ReproError):
            catalog.sql("SELECT ts FROM events WHERE ts = 2")

    def test_schema_drift_fails_closed_to_recompile(self):
        catalog = make_catalog(200)
        catalog.sql("SELECT ts FROM events WHERE ts < 50")
        # Drop and recreate with a *different* schema but the same
        # name. The cached entry must be detected as stale and
        # recompiled — never rebound against the old column layout.
        catalog.drop_table("events")
        assert len(catalog.plan_cache) == 0
        wider = Schema([*SCHEMA.fields,
                        Field("extra", DataType.INTEGER)])
        catalog.create_table_from_rows(
            "events", wider,
            [(*row, i) for i, row in
             enumerate(make_events_rows(200))],
            layout=Layout.sorted_by("ts"))
        result = catalog.sql("SELECT ts FROM events WHERE ts < 50")
        assert result.num_rows == 50
        assert not result.profile.plan_cache_hit
        # The recompiled entry is usable again.
        assert catalog.sql(
            "SELECT ts FROM events WHERE ts < 60"
        ).profile.plan_cache_hit

    def test_stale_schema_eviction_via_forced_drift(self):
        # Exercise validate() directly: mutate the stored fingerprint
        # so the next lookup sees drift without any DDL.
        catalog = make_catalog(200)
        catalog.sql("SELECT ts FROM events WHERE ts < 50")
        pq = parameterize_text("SELECT ts FROM events WHERE ts < 50")
        entry = catalog.plan_cache.peek(pq.shape_key)
        entry.schemas["events"] = Schema([Field("ts",
                                                DataType.VARCHAR)])
        result = catalog.sql("SELECT ts FROM events WHERE ts < 70")
        assert result.num_rows == 70
        assert catalog.plan_cache.stats.stale_schema_evictions == 1
        assert not result.profile.plan_cache_hit

    def test_uncacheable_shape_falls_back_cold(self):
        # BETWEEN desugars by duplicating the left operand; with a
        # computed left side the AST binds disagree with the token
        # binds, so the shape is marked uncacheable and every run
        # takes the (correct) cold path.
        catalog = make_catalog(300)
        plain = make_catalog(300, plan_cache=False)
        sql = ("SELECT ts FROM events WHERE ts + 1 BETWEEN 10 AND 20 "
               "ORDER BY ts")
        assert catalog.sql(sql).rows == plain.sql(sql).rows
        assert catalog.plan_cache.stats.uncacheable == 1
        assert catalog.sql(sql).rows == plain.sql(sql).rows
        assert len(catalog.plan_cache) == 0

    def test_unknown_column_error_matches_cold_and_is_not_pinned(self):
        catalog = make_catalog(100)
        with pytest.raises(ReproError):
            catalog.sql("SELECT nope FROM events WHERE ts = 1")
        # A planning failure is not "uncacheable" — the shape may
        # become valid later (e.g. after a CREATE TABLE).
        assert catalog.plan_cache.stats.uncacheable == 0

    def test_explain_reports_cache_state(self):
        catalog = make_catalog(100)
        sql = "SELECT ts FROM events WHERE ts = 3"
        assert "shape not cached" in catalog.explain(sql)
        catalog.sql(sql)
        assert "cached shape" in catalog.explain(sql)


# ----------------------------------------------------------------------
# Service integration: result-cache keys, metrics, telemetry
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_result_cache_collapses_literal_spellings(self):
        service = QueryService(make_catalog(300),
                               plan_cache_entries=64)
        a = service.sql(
            "SELECT * FROM events WHERE value <= 500.0 LIMIT 5")
        b = service.sql(
            "SELECT * FROM events WHERE value <= 500.00 LIMIT 5")
        assert a.rows == b.rows
        assert service.metrics.counter("result_cache_hits").value == 1

    def test_different_binds_do_not_share_results(self):
        service = QueryService(make_catalog(300),
                               plan_cache_entries=64)
        a = service.sql("SELECT count(*) AS c FROM events "
                        "WHERE ts < 100")
        b = service.sql("SELECT count(*) AS c FROM events "
                        "WHERE ts < 200")
        assert a.rows != b.rows
        assert service.metrics.counter("result_cache_hits").value == 0
        # Same shape though: the second compile was a plan-cache hit.
        assert service.catalog.plan_cache.stats.hits == 1

    def test_metrics_and_describe_expose_plan_cache(self):
        service = QueryService(make_catalog(300),
                               plan_cache_entries=64,
                               enable_result_cache=False)
        service.sql("SELECT ts FROM events WHERE ts < 10")
        service.sql("SELECT ts FROM events WHERE ts < 20")
        assert service.metrics.counter("plan_cache_hits").value == 1
        assert service.metrics.counter("plan_cache_misses").value == 1
        assert service.metrics.plan_cache_hit_ratio() == 0.5
        snap = service.describe()
        assert snap["plan_cache"]["hits"] == 1
        assert snap["plan_cache_hit_ratio"] == 0.5
        assert service.metrics.snapshot()["plan_cache.hit_ratio"] \
            == 0.5

    def test_telemetry_and_fleet_report_carry_plan_cache(self):
        from repro.obs.fleet import fleet_summary, render_fleet_report

        service = QueryService(make_catalog(300),
                               plan_cache_entries=64,
                               enable_result_cache=False)
        service.sql("SELECT ts FROM events WHERE ts < 10")
        service.sql("SELECT ts FROM events WHERE ts < 20")
        records = service.telemetry.records()
        assert [r.plan_cache_hit for r in records] == [False, True]
        assert records[1].to_dict()["plan_cache_hit"] is True
        summary = fleet_summary(records)
        assert summary["plan_cache_hits"] == 1
        assert summary["plan_cache_hit_ratio"] == 0.5
        report = render_fleet_report(records)
        assert "plan cache: 1 of 2" in report
        assert "compile latency ms" in report

    def test_trace_events_mark_hit_and_rebind(self):
        catalog = make_catalog(200)
        cold = catalog.sql("SELECT ts FROM events WHERE ts < 10")
        assert cold.profile.trace.find("parameterize") is not None
        assert cold.profile.trace.find("plan_cache:hit") is None
        hot = catalog.sql("SELECT ts FROM events WHERE ts < 30")
        assert hot.profile.trace.find("plan_cache:rebind") is not None
        assert hot.profile.trace.find("plan_cache:hit") is not None


# ----------------------------------------------------------------------
# Differential: generated workload, hit == cold, bit-identical
# ----------------------------------------------------------------------
class TestWorkloadDifferential:
    def test_generated_workload_cached_matches_plain(self):
        from repro.workload import (
            Platform,
            PlatformConfig,
            WorkloadGenerator,
        )

        config = PlatformConfig(
            seed=7, rows_per_partition=50, n_small_tables=2,
            n_medium_tables=2, n_large_tables=1, n_dim_tables=1,
            dim_rows=64)
        cached = Platform(config)
        cached.catalog.enable_plan_cache()
        plain = Platform(config)
        queries = WorkloadGenerator(cached, seed=5).generate(40)
        # Run the stream twice through the cached platform: the
        # second pass is nearly all rebinds. Every result must match
        # the plan-cache-off platform exactly.
        for q in queries * 2:
            assert cached.catalog.sql(q.sql).rows \
                == plain.catalog.sql(q.sql).rows, q.sql
        stats = cached.catalog.plan_cache.stats
        assert stats.hits >= len(queries)  # second pass all hits
        assert stats.rebind_fallbacks == 0

    def test_workload_with_interleaved_dml_and_recluster(self):
        from repro.workload import (
            Platform,
            PlatformConfig,
            WorkloadGenerator,
        )

        config = PlatformConfig(
            seed=11, rows_per_partition=50, n_small_tables=1,
            n_medium_tables=2, n_large_tables=1, n_dim_tables=1,
            dim_rows=64)
        cached = Platform(config)
        cached.catalog.enable_plan_cache()
        plain = Platform(config)
        generator = WorkloadGenerator(cached, seed=3)
        queries = generator.generate(30)
        fact = next(s.name for s in cached.specs.values()
                    if s.kind == "fact" and s.n_partitions > 4)
        for i, q in enumerate(queries * 2):
            if i % 10 == 4:
                dml = (f"DELETE FROM {fact} "
                       f"WHERE ts BETWEEN {i * 7} AND {i * 7 + 30}")
                cached.catalog.sql(dml)
                plain.catalog.sql(dml)
            if i % 17 == 8:
                cached.catalog.recluster(fact, "score")
                plain.catalog.recluster(fact, "score")
            assert cached.catalog.sql(q.sql).rows \
                == plain.catalog.sql(q.sql).rows, q.sql
        assert cached.catalog.plan_cache.stats.rebind_fallbacks == 0


# ----------------------------------------------------------------------
# Hypothesis: random literals over shared shapes, cached vs cold
# ----------------------------------------------------------------------
CACHED = make_catalog(600)
PLAIN = make_catalog(600, plan_cache=False)

TEMPLATES = (
    "SELECT * FROM events WHERE ts BETWEEN {lo} AND {hi}",
    "SELECT ts, value FROM events WHERE ts >= {lo} AND ts <= {hi} "
    "ORDER BY ts LIMIT 13",
    "SELECT category, count(*) AS c FROM events WHERE ts < {hi} "
    "GROUP BY category ORDER BY category",
    "SELECT * FROM events WHERE value >= {v} AND "
    "category IN ('alpha', 'beta') ORDER BY score DESC LIMIT 7",
    "SELECT max(score) AS m FROM events WHERE ts > {lo} AND "
    "value < {v}",
)


@settings(max_examples=80, deadline=None)
@given(template=st.sampled_from(TEMPLATES),
       lo=st.integers(0, 600), span=st.integers(0, 300),
       v=st.floats(0, 1000, allow_nan=False).map(
           lambda x: round(x, 2)))
def test_random_literals_hit_equals_cold(template, lo, span, v):
    sql = template.format(lo=lo, hi=lo + span, v=v)
    assert CACHED.sql(sql).rows == PLAIN.sql(sql).rows


def test_hypothesis_run_actually_exercised_the_cache():
    # Guards the suite above: with 5 shapes and >=80 examples the
    # cache must have served most compiles from rebinds.
    stats = CACHED.plan_cache.stats
    assert stats.hits > stats.misses
    assert stats.rebind_fallbacks == 0


# ----------------------------------------------------------------------
# Seeded chaos: transient faults + plan cache stay bit-identical
# ----------------------------------------------------------------------
class TestChaosWithPlanCache:
    QUERIES = (
        "SELECT * FROM events WHERE ts BETWEEN 100 AND 400",
        "SELECT * FROM events WHERE ts BETWEEN 500 AND 540",
        "SELECT count(*) AS c FROM events WHERE ts < 300",
        "SELECT category, count(*) AS c FROM events WHERE ts < 800 "
        "GROUP BY category ORDER BY category",
    )

    @pytest.mark.parametrize("seed", (13, 29))
    def test_transient_faults_never_change_rebound_results(self, seed):
        plain = make_catalog(800, plan_cache=False)
        expected = {sql: plain.sql(sql).rows for sql in self.QUERIES}
        catalog = make_catalog(800)
        install_faults(catalog, FaultInjector(
            seed=seed,
            storage=FaultSpec(timeout_rate=0.05, corruption_rate=0.03),
            metadata=FaultSpec(timeout_rate=0.05)), attempts=8)
        for _ in range(3):
            for sql in self.QUERIES:
                assert catalog.sql(sql).rows == expected[sql], sql
        stats = catalog.plan_cache.stats
        assert stats.hits >= 2 * len(self.QUERIES)
