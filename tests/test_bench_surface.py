"""The names ``bench/`` hooks and reads must exist in the program.

The benchmark (``bench/``, gated after every change) wraps a fixed
list of layer entry points in spans and reads a fixed set of counters
off live objects. A rename in ``src/`` would otherwise surface only
when the benchmark gate runs; these checks fail it in tier-1 instead.
Nothing here runs a workload or takes a time.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import Catalog, DataType, Layout, QueryService, Schema

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_defined_on_its_owner():
    """``instrument()`` swaps ``owner.__dict__[attr]``: an inherited or
    renamed method is a KeyError there. Module-level targets resolve
    (or fail) while ``_layer_targets()`` itself imports them."""
    targets = _load_spans()._layer_targets()
    assert len(targets) >= 15
    for span, owner, target, _count in targets:
        if owner is None:
            assert callable(target), span
        else:
            assert target in owner.__dict__, (span, owner, target)


def test_span_count_functions_accept_the_wrapped_results():
    """``storage.scan_set`` is counted with ``len``, the two pruners
    with ``result.before``."""
    from repro.pruning.sketches import SketchPruner
    from repro.pruning.stats_index import VectorizedFilterPruner

    counts = {(owner, target): count for _, owner, target, count
              in _load_spans()._layer_targets() if count is not None}
    catalog = _catalog()
    scan_set = catalog.scan_set("t")
    assert counts[(Catalog, "scan_set")](scan_set) == len(scan_set) == 4
    result = catalog.sql("SELECT * FROM t WHERE ts < 30").profile \
        .scans[0].filter_result
    assert counts[(VectorizedFilterPruner, "prune")](result) == 4
    assert counts[(SketchPruner, "prune")](result) == 4


def _catalog() -> Catalog:
    catalog = Catalog(rows_per_partition=25)
    catalog.create_table_from_rows(
        "t", Schema.of(ts=DataType.INTEGER, v=DataType.INTEGER),
        [(i, i * 3) for i in range(100)], layout=Layout.sorted_by("ts"))
    return catalog


def test_counters_the_harness_reads_exist():
    """``bench/harness.py`` reads these by name (``Env.facts`` and
    ``PassStats.account``)."""
    catalog = _catalog()
    catalog.enable_plan_cache()
    catalog.enable_data_cache()
    service = QueryService(catalog)
    profile = service.sql("SELECT * FROM t WHERE ts < 30").profile

    for name in ("hits", "capacity_evictions", "invalidations"):
        assert isinstance(getattr(service.result_cache.stats, name), int)
    for name in ("hit_ratio", "capacity_evictions",
                 "stale_schema_evictions"):
        assert getattr(catalog.plan_cache.stats, name) >= 0
    cache_stats = catalog.data_cache.stats()
    for name in ("hits", "lookups", "evictions", "bytes_saved",
                 "resident_bytes"):
        assert getattr(cache_stats, name) >= 0
    assert catalog.storage.stats.bytes_read >= 0

    for name in ("total_partitions", "partitions_loaded",
                 "plan_cache_checked", "plan_cache_hit"):
        assert hasattr(profile, name)
    scan = profile.scans[0]
    for name in ("skip_set_pruned", "sketch_result", "filter_result",
                 "join_result", "limit_report", "topk_skipped",
                 "rows_scanned"):
        assert hasattr(scan, name)
    assert scan.filter_result.pruned == 2
