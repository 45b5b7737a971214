"""The scan pipeline does per-partition work only (ISSUE 19).

Three contracts:

* **Bypass.** A ``Filter`` over a ``Scan`` passes the chunks of
  partitions compile-time pruning proved *fully matching* (§4.2)
  through without evaluating the predicate. Rows, the
  ``partitions_with_matches`` bookkeeping and every simulated charge
  must equal a run whose ``Filter`` got an empty set, on every route by
  which a partition can lose its metadata (fail open).
* **Bind once.** Schemas, validated chunks and bound expressions are
  built per operator, never per partition.
* **Empty global aggregates.** ``SELECT count(*) ... WHERE <nothing>``
  is one row, with pruning on or off.
"""

from __future__ import annotations

import inspect
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import Catalog, DataType, Layout, QueryService, Schema
from repro.engine import chunk as chunk_module
from repro.engine import operators
from repro.expr import ast
from repro.expr import eval as eval_module
from repro.plan import compiler as compiler_module
from repro.plan.compiler import CompilerOptions
from repro.pruning import ScanSet
from repro.pruning.sketches import SketchConfig
from repro import types as types_module

from faults import METADATA, FaultInjector, install_faults

SCHEMA = Schema.of(a=DataType.INTEGER, v=DataType.DOUBLE,
                   s=DataType.VARCHAR)
STRINGS = ["alpha", "beta", "gamma", "alp", "z", ""]


def make_rows(seed: int, count: int = 120, null_rate: float = 0.08):
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < null_rate else value

    return [(maybe(i // 2), maybe(i / 4.0),
             maybe(STRINGS[(i // 20) % len(STRINGS)]))
            for i in range(count)]


def make_catalog(rows, clustered: bool = True, **kwargs) -> Catalog:
    catalog = Catalog(rows_per_partition=10, **kwargs)
    if not clustered:
        rows = list(rows)
        random.Random(7).shuffle(rows)
    catalog.create_table_from_rows("t", SCHEMA, rows)
    return catalog


class SpyFilter(operators.Filter):
    """Records every compiled ``Filter`` and counts calls of its bound
    predicate; ``bypass = False`` hands it an empty fully-matching set,
    which is the only way to switch the bypass off."""

    bypass = True
    built: list["SpyFilter"] = []

    def __init__(self, context, child, predicate, fully_matching=()):
        super().__init__(context, child, predicate,
                         fully_matching if self.bypass else ())
        self.mask_calls = 0
        self.mask_rows = 0
        bound = self._mask

        def counted(columns, length):
            self.mask_calls += 1
            self.mask_rows += length
            return bound(columns, length)

        self._mask = counted
        self.built.append(self)


def run(catalog: Catalog, sql: str, bypass: bool, monkeypatch,
        options: CompilerOptions | None = None):
    """One statement on ``catalog``; what the bypass must not change."""
    monkeypatch.setattr(SpyFilter, "bypass", bypass)
    monkeypatch.setattr(SpyFilter, "built", [])
    monkeypatch.setattr(compiler_module, "Filter", SpyFilter)
    read_before = catalog.storage.stats.bytes_read
    result = catalog.sql(sql, options)
    position = {pid: i for i, pid in
                enumerate(catalog.tables["t"].partition_ids)}
    export = result.profile.metrics_export()
    bypassed = export.pop("filter_bypassed")
    export.pop("pruning_time_ms")       # a wall clock
    observed = {
        "rows": result.rows,
        "matches": [sorted(position[pid]
                           for pid in op.partitions_with_matches)
                    for op in SpyFilter.built],
        "charges": export,
        "clocks": (result.profile.compile_ms, result.profile.exec_ms,
                   result.profile.total_ms),
        "per_scan": [(s.partitions_loaded, s.rows_scanned,
                      s.bytes_scanned, s.partitions_pruned,
                      len(s.fully_matching_ids))
                     for s in result.profile.scans],
        "bytes_read": catalog.storage.stats.bytes_read - read_before,
    }
    return observed, int(bypassed), list(SpyFilter.built), result


def differential(make, sql, monkeypatch, options=None):
    """Bypass on vs off, each on a fresh catalog from ``make()``."""
    off, zero, _, _ = run(make(), sql, False, monkeypatch, options)
    on, bypassed, filters, result = run(make(), sql, True, monkeypatch,
                                        options)
    assert zero == 0
    assert on == off
    return bypassed, filters, result


# ----------------------------------------------------------------------
# Bypass: hypothesis differential
# ----------------------------------------------------------------------
_atoms = st.one_of(
    st.builds("a {} {}".format, st.sampled_from(["<", "<=", ">", ">=",
                                                 "=", "<>"]),
              st.integers(-5, 65)),
    st.builds("a BETWEEN {} AND {}".format, st.integers(-5, 40),
              st.integers(10, 65)),
    st.builds("a IN ({}, {}, {})".format, st.integers(0, 60),
              st.integers(0, 60), st.integers(0, 60)),
    st.builds("v {} {}".format, st.sampled_from(["<", ">="]),
              st.floats(-2, 32, allow_nan=False).map(
                  lambda x: round(x, 2))),
    st.builds("s {} '{}'".format, st.sampled_from(["=", "<>", ">=", "<"]),
              st.sampled_from(STRINGS[:5])),
    st.builds("s IN ('{}', '{}')".format, st.sampled_from(STRINGS[:5]),
              st.sampled_from(STRINGS[:5])),
    st.sampled_from(["a IS NULL", "a IS NOT NULL", "s IS NULL",
                     "s IS NOT NULL", "v IS NOT NULL"]),
)
_predicates = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds("({} AND {})".format, inner, inner),
        st.builds("({} OR {})".format, inner, inner),
        st.builds("(NOT {})".format, inner)),
    max_leaves=4)


@settings(max_examples=60, deadline=None)
@given(predicate=_predicates, seed=st.integers(0, 5),
       clustered=st.booleans(),
       select=st.sampled_from(["*", "a, s", "count(*), sum(a), min(s)"]))
def test_bypass_changes_nothing_but_the_work(predicate, seed, clustered,
                                             select):
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows = make_rows(seed)
        bypassed, filters, result = differential(
            lambda: make_catalog(rows, clustered),
            f"SELECT {select} FROM t WHERE {predicate}", monkeypatch)
        scan = result.profile.scans[0]
        assert bypassed == scan.filter_bypassed <= scan.partitions_loaded
        # the mask sees exactly the rows of the partitions not bypassed
        # (every partition holds 10 rows), in no more calls than those
        assert sum(op.mask_rows for op in filters) == \
            scan.rows_scanned - 10 * bypassed
        assert sum(op.mask_calls for op in filters) <= \
            scan.partitions_loaded - bypassed


def test_bound_predicate_runs_once_per_partition_not_proven(monkeypatch):
    """Clustered on ``a`` with no NULLs: ``a < 33`` fully matches six
    of the twelve partitions, straddles one and prunes the rest."""
    catalog = make_catalog(make_rows(0, null_rate=0.0))
    observed, bypassed, (filter_op,), result = run(
        catalog, "SELECT a, s FROM t WHERE a < 33", True, monkeypatch)
    scan = result.profile.scans[0]
    assert (scan.partitions_loaded, len(scan.fully_matching_ids)) == (7, 6)
    assert bypassed == scan.filter_bypassed == 6
    assert filter_op.mask_calls == 1
    assert len(observed["rows"]) == 66
    assert observed["matches"] == [list(range(7))]


def test_bypassed_chunk_is_the_scan_chunk_itself(monkeypatch):
    catalog = make_catalog(make_rows(0, null_rate=0.0))
    scan_set = catalog.scan_set("t")
    ids = scan_set.partition_ids
    batches = []
    load_batch = operators.Scan._load_batch

    def remember_batch(*args, **kwargs):
        batches.append(load_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(operators.Scan, "_load_batch", remember_batch)

    def filtered(fully_matching):
        batches.clear()
        context = operators.ExecContext(catalog.storage)
        scan = operators.Scan(context, "t", SCHEMA, scan_set)
        return list(operators.Filter(
            context, scan, ast.Compare("<", ast.col("a"), ast.lit(1000)),
            fully_matching))

    def runs(pids):
        return tuple((pid, 10) for pid in pids)

    # a lone bypassed partition is its scan chunk: no column copy
    out = filtered(ids[:1])
    assert out[0] is batches[0]
    assert out[0].columns["a"] is catalog.storage.peek(ids[0]).column("a")
    assert out[1] is not batches[1]
    assert out[1].to_rows() == batches[1].to_rows()
    assert out[1].runs == batches[1].runs == runs(ids[1:])
    # a bypassed batch passes as the scan built it
    out = filtered(ids[:3])
    assert out[0] is batches[0]
    assert out[0].runs == runs(ids[:3])
    assert out[1] is not batches[1]
    assert out[1].runs == batches[1].runs == runs(ids[3:])


# ----------------------------------------------------------------------
# Bypass: every way to lose metadata fails open
# ----------------------------------------------------------------------
SQL = "SELECT a, v, s FROM t WHERE a >= 5 AND a < 41"
ROWS = make_rows(3)
EXPECTED = sorted((r for r in ROWS if r[0] is not None and 5 <= r[0] < 41),
                  key=repr)


def _check(make, monkeypatch, options=None, sql=SQL):
    bypassed, filters, result = differential(make, sql, monkeypatch,
                                             options)
    assert sorted(result.rows, key=repr) == EXPECTED
    return bypassed, result


def test_baseline_bypasses_some(monkeypatch):
    bypassed, result = _check(lambda: make_catalog(ROWS), monkeypatch)
    assert 0 < bypassed == len(result.profile.scans[0].fully_matching_ids)


def test_metadata_outage_never_bypasses_degraded(monkeypatch):
    lost_positions = [1, 2, 3]

    def make():
        catalog = make_catalog(ROWS)
        injector = install_faults(catalog, FaultInjector(seed=0),
                                  attempts=2)
        ids = catalog.tables["t"].partition_ids
        for position in lost_positions:
            injector.mark_unavailable(METADATA, ("t", ids[position]))
        return catalog

    healthy, _ = _check(lambda: make_catalog(ROWS), monkeypatch)
    bypassed, (filter_op,), result = differential(make, SQL, monkeypatch)
    assert sorted(result.rows, key=repr) == EXPECTED
    degraded = filter_op.child.scan_set.degraded_ids
    assert len(degraded) == result.profile.scans[0].degraded_partitions == 3
    assert filter_op.fully_matching.isdisjoint(degraded)
    assert 0 < bypassed < healthy


def test_stale_hand_built_scan_set(monkeypatch):
    """An index snapshot older than interleaved DML, one entry
    re-registered without statistics: untrusted entries are judged by
    the zone maps the set holds, the stats-free one is never proven."""
    def make():
        catalog = make_catalog(ROWS)
        index = catalog.metadata.stats_index("t")
        catalog.sql("DELETE FROM t WHERE a = 20")
        catalog.insert("t", [(39, 1.0, "late")])
        pid, zone_map = list(catalog.metadata.iter_table("t"))[1]
        catalog.metadata.register("t", pid, zone_map.without_stats())
        stale = ScanSet(list(catalog.metadata.iter_table("t")),
                        index=index)
        assert (stale.trusted_rows < 0).any()
        catalog.scan_set = lambda table: stale
        return catalog

    expected = sorted(
        [r for r in EXPECTED if r[0] != 20] + [(39, 1.0, "late")], key=repr)
    bypassed, filters, result = differential(make, SQL, monkeypatch)
    assert sorted(result.rows, key=repr) == expected
    assert bypassed > 0


def test_sketches_on(monkeypatch):
    def make():
        catalog = make_catalog(ROWS)
        catalog.enable_sketches(SketchConfig())
        return catalog

    sql = SQL + " AND s IN ('alpha', 'beta')"
    bypassed, filters, result = differential(make, sql, monkeypatch)
    assert sorted(result.rows, key=repr) == [
        r for r in EXPECTED if r[2] in ("alpha", "beta")]
    assert result.profile.scans[0].sketch_result is not None


def test_deferred_to_runtime_has_nothing_to_bypass(monkeypatch):
    bypassed, result = _check(
        lambda: make_catalog(ROWS), monkeypatch,
        CompilerOptions(compile_prune_partition_limit=4))
    assert bypassed == 0
    assert result.profile.scans[0].fully_matching_ids == []


def test_pruning_tree(monkeypatch):
    bypassed, _ = _check(lambda: make_catalog(ROWS), monkeypatch,
                         CompilerOptions(use_pruning_tree=True))
    assert bypassed > 0


def test_residual_filter_above_a_join_gets_no_set(monkeypatch):
    catalog = make_catalog(make_rows(0, null_rate=0.0))
    catalog.create_table_from_rows(
        "d", Schema.of(k=DataType.INTEGER, w=DataType.INTEGER),
        [(i, i % 3) for i in range(60)])
    _, _, filters, result = run(
        catalog, "SELECT a, w FROM t JOIN d ON t.a = d.k "
                 "WHERE a < 33 AND a + w > 10", True, monkeypatch)
    assert len(result.rows) == sum(
        1 for i in range(66) if i // 2 + (i // 2) % 3 > 10)
    over_scan = [op for op in filters
                 if isinstance(op.child, operators.Scan)]
    residual = [op for op in filters if op not in over_scan]
    assert residual and all(not op.fully_matching for op in residual)
    assert any(op.fully_matching for op in over_scan)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_bypass_count_is_reported_everywhere():
    catalog = make_catalog(make_rows(0, null_rate=0.0))
    sql = "SELECT a, s FROM t WHERE a < 33"
    profile = catalog.sql(sql).profile
    assert profile.scans[0].filter_bypassed == 6
    assert profile.metrics_export()["filter_bypassed"] == 6.0
    assert "(fm=6, unfiltered=6)" in profile.pruning_summary()
    assert "(fully-matching: 6, unfiltered: 6)" in \
        catalog.explain_analyze(sql)
    assert "unfiltered" not in catalog.explain(sql)     # nothing ran
    service = QueryService(catalog)
    service.sql(sql)
    assert service.metrics.counter("filter_bypassed").value == 6


# ----------------------------------------------------------------------
# Bind once
# ----------------------------------------------------------------------
def _counted(monkeypatch, owner, name, counts, key):
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _constructions(partitions: int, monkeypatch) -> dict:
    catalog = Catalog(rows_per_partition=10)
    catalog.create_table_from_rows(
        "f", Schema.of(k=DataType.INTEGER, a=DataType.INTEGER,
                       pad=DataType.VARCHAR),
        [(i % 7, i, "x") for i in range(partitions * 10)],
        layout=Layout.sorted_by("a"))
    catalog.create_table_from_rows(
        "d", Schema.of(id=DataType.INTEGER, name=DataType.VARCHAR),
        [(i, f"n{i}") for i in range(7)])
    counts = {"schema": 0, "chunk": 0, "bind": 0}
    with monkeypatch.context() as patch:
        _counted(patch, types_module.Schema, "__init__", counts, "schema")
        _counted(patch, chunk_module.Chunk, "__init__", counts, "chunk")
        _counted(patch, eval_module, "_bind", counts, "bind")
        result = catalog.sql(
            "SELECT a + 1 AS b, name FROM f JOIN d ON f.k = d.id "
            "WHERE a >= 15 AND k <> 3")
    scan = next(s for s in result.profile.scans if s.table == "f")
    assert scan.partitions_loaded == partitions - 1
    assert len(result.rows) == sum(
        1 for i in range(15, partitions * 10) if i % 7 != 3)
    return counts


def test_construction_is_per_operator_not_per_partition(monkeypatch):
    small = _constructions(10, monkeypatch)
    large = _constructions(50, monkeypatch)
    assert small == large
    assert small["bind"] > 0 and small["schema"] > 0


def test_one_expression_walk_and_no_per_partition_chunk_building():
    source = inspect.getsource(eval_module)
    for spelling in ("_eval(", "_eval_", "_chunk_length", "_HANDLERS"):
        assert spelling not in source, spelling
    for wrapper in (eval_module.evaluate, eval_module.evaluate_predicate):
        assert "bind" in inspect.getsource(wrapper)
    scan_source = inspect.getsource(operators.Scan)
    for spelling in ("from_partition(", ".select(", "Schema(",
                     "evaluate("):
        assert spelling not in scan_source.replace(
            "schema.select(self.columns)", ""), spelling
    assert not hasattr(chunk_module.Chunk, "from_partition")
    for operator in (operators.Filter, operators.Project,
                     operators.HashJoin):
        assert "evaluate(" not in inspect.getsource(operator)


# ----------------------------------------------------------------------
# A global aggregate over nothing is one row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("options", [
    None, CompilerOptions(enable_filter_pruning=False)],
    ids=["pruned-at-compile", "filter-pruning-off"])
def test_global_aggregate_over_no_rows_is_one_row(options):
    catalog = Catalog(rows_per_partition=25)
    catalog.create_table_from_rows(
        "t", Schema.of(ts=DataType.INTEGER, v=DataType.INTEGER),
        [(i, i * 3) for i in range(100)], layout=Layout.sorted_by("ts"))
    catalog.create_table_from_rows(
        "e", Schema.of(k=DataType.INTEGER, w=DataType.INTEGER), [])

    def rows(sql):
        return catalog.sql(sql, options).rows

    assert rows("SELECT count(*) FROM t WHERE ts < 0") == [(0,)]
    assert rows("SELECT sum(v) FROM t WHERE ts < 0") == [(None,)]
    assert rows("SELECT count(*), count(v), sum(v), min(v), max(v), "
                "avg(v) FROM t WHERE ts < 0") == [
        (0, 0, None, None, None, None)]
    assert rows("SELECT count(*), sum(w) FROM e WHERE k < 0") == [
        (0, None)]
    assert rows("SELECT count(*) FROM t JOIN e ON t.ts = e.k") == [(0,)]
    assert rows("SELECT ts, count(*) FROM t WHERE ts < 0 GROUP BY ts") \
        == []
    assert rows("SELECT count(*) FROM t WHERE ts < 10") == [(10,)]
