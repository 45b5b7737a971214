"""Set-up, the timed closed loop, result checking and metric roll-up.

One *cycle* is: generate the load from the seed, build the catalog (or
service) from it, run the untimed warm-up slice, then run the load's
fixed statement list once through the user entry points, one statement
at a time from one client thread (closed loop, one client), timing
each call and checking its reply outside the timer. The first cycle of
a run is a rehearsal whose timings are dropped; after it, cycles repeat
until the timed walls add up to ``--seconds``. Every cycle starts from
the same state and runs the same statements, so counts (partitions
loaded, bytes read, cache hits) are the same in every cycle and in
every run of a seed, and each statement's wall is the fastest of its
runs, one per cycle (see :func:`end_to_end`).
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from oracle import Shadow, Table, check_select, fingerprint

ROOT = Path(__file__).resolve().parent.parent
#: Generators draw the columns that decide *which partitions a statement
#: loads* (sort keys, top-k keys, join keys) from this fixed seed and
#: everything else from ``--seed``, so the count metrics barely move
#: from seed to seed and a small change in them is a change in the program.
LAYOUT_SEED = 20250925
TMP_ROOT = ROOT / ".bench_tmp"


@dataclass
class Load:
    """What a generator makes from a seed."""

    tables: list[Table]
    warmup: list            #: untimed SELECTs run right after the build
    statements: list        #: the timed statements, in order
    #: named index ranges of ``statements`` (serve_repeat's two phases)
    marks: dict[str, range] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Environment: the program under test, reached through entry points only
# ---------------------------------------------------------------------------
class Env:
    """A built catalog (optionally behind a QueryService)."""

    def __init__(self, catalog, service=None, durability_dir=None):
        self.catalog = catalog
        self.service = service
        self.durability_dir = durability_dir
        self.front = service if service is not None else catalog
        self.build_rows = 0
        self.build_seconds = 0.0
        self._result_hits = 0

    def create_table(self, table: Table) -> None:
        from repro import DataType, Layout, Schema

        kinds = {"int": DataType.INTEGER, "float": DataType.DOUBLE,
                 "str": DataType.VARCHAR}
        schema = Schema.of(**{name: kinds[table.type_of(name)]
                              for name in table.columns})
        rows = table.rows()
        started = perf_counter()
        self.catalog.create_table_from_rows(
            table.name, schema, rows,
            layout=Layout.sorted_by(*table.sorted_by)
            if table.sorted_by else None,
            rows_per_partition=table.rows_per_partition)
        self.build_seconds += perf_counter() - started
        self.build_rows += len(rows)

    def serve_through(self, service) -> None:
        """Route statements through ``service`` from now on."""
        self.service = self.front = service

    def execute(self, stmt, text: str):
        """One statement through its user entry point."""
        kind = stmt.kind
        if kind == "insert":
            return self.front.insert(stmt.table, stmt.rows)
        if kind == "recluster":
            return self.catalog.recluster(
                stmt.table, *stmt.keys,
                rows_per_partition=stmt.rows_per_partition)
        if kind == "checkpoint":
            return self.catalog.checkpoint()
        return self.front.sql(text)

    def result_cache_hit(self) -> bool:
        """Whether the last service statement was a result-cache hit."""
        if self.service is None or self.service.result_cache is None:
            return False
        hits = self.service.result_cache.stats.hits
        hit = hits > self._result_hits
        self._result_hits = hits
        return hit

    def data_caches(self) -> list:
        if self.service is not None:
            return [c.cache for c in self.service.pool.clusters
                    if c.cache is not None]
        return [self.catalog.data_cache] if self.catalog.data_cache else []

    def facts(self) -> dict[str, float]:
        """Counters the program keeps, read once a pass is over."""
        catalog = self.catalog
        facts = {
            "build_rows": self.build_rows,
            "build_seconds": self.build_seconds,
            "sketch_build_ms": catalog.sketch_build_ms,
        }
        if catalog.plan_cache is not None:
            stats = catalog.plan_cache.stats
            facts["plancache.hit_ratio"] = stats.hit_ratio
            facts["plancache.evictions"] = (stats.capacity_evictions
                                            + stats.stale_schema_evictions)
        caches = [cache.stats() for cache in self.data_caches()]
        if caches:
            hits = sum(s.hits for s in caches)
            lookups = sum(s.lookups for s in caches)
            facts["cache.hit_ratio"] = hits / lookups if lookups else 0.0
            facts["cache.evictions"] = sum(s.evictions for s in caches)
            facts["cache.bytes_saved"] = sum(s.bytes_saved for s in caches)
            facts["cache.resident_bytes"] = sum(
                s.resident_bytes for s in caches)
        if self.service is not None and self.service.result_cache is not None:
            stats = self.service.result_cache.stats
            facts["service.result_evictions"] = stats.capacity_evictions
            facts["service.result_invalidations"] = stats.invalidations
        if catalog.durability is not None:
            stats = catalog.durability.stats()
            facts["durability.wal_appends"] = stats["wal_appends"]
            facts["wal_bytes"] = stats["wal_bytes"]
        return facts

    def close(self) -> None:
        for cache in self.data_caches():
            cache.close()
        if self.catalog.durability is not None:
            self.catalog.durability.close()
        if self.durability_dir is not None:
            shutil.rmtree(self.durability_dir, ignore_errors=True)


def plain_setup(load: Load) -> Env:
    """A default catalog holding the load's tables."""
    from repro import Catalog

    env = Env(Catalog())
    for table in load.tables:
        env.create_table(table)
    return env


def new_tmp_dir(prefix: str) -> Path:
    """A scratch directory (removed by Env.close). It is inside the
    checkout, not the system's temp dir, because a benchmark run may
    read and write only there."""
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))


# ---------------------------------------------------------------------------
# One pass over the statement list
# ---------------------------------------------------------------------------
PRUNE_TECHNIQUES = ("filter", "sketch", "skip_set", "join", "limit", "topk")


@dataclass
class PassStats:
    """Everything one pass over the statements observed."""

    walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    loaded: int = 0
    total: int = 0
    bytes_read: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    pruned: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(PRUNE_TECHNIQUES, 0))
    result_hits: set[int] = field(default_factory=set)
    plan_hits: set[int] = field(default_factory=set)
    plan_misses: set[int] = field(default_factory=set)

    def fail(self, index: int, text: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"stmt {index}: {why}: {text[:120]}")

    def account(self, index: int, result, result_hit: bool) -> None:
        profile = getattr(result, "profile", None)
        if profile is None:
            return
        self.total += profile.total_partitions
        if result_hit:
            self.result_hits.add(index)
            return      # served from the result cache: nothing was read
        self.loaded += profile.partitions_loaded
        if profile.plan_cache_checked:
            (self.plan_hits if profile.plan_cache_hit
             else self.plan_misses).add(index)
        for scan in profile.scans:
            self.rows_scanned += scan.rows_scanned
            self.pruned["skip_set"] += scan.skip_set_pruned
            if scan.sketch_result is not None:
                self.pruned["sketch"] += scan.sketch_result.pruned
            if scan.filter_result is not None:
                self.pruned["filter"] += scan.filter_result.pruned
            if scan.join_result is not None:
                self.pruned["join"] += scan.join_result.pruned
            if scan.limit_report is not None:
                self.pruned["limit"] += scan.limit_report.result.pruned
            self.pruned["topk"] += scan.topk_skipped


def _correct(stmt, result, expected) -> bool:
    if stmt.kind == "select":
        return check_select(result.rows, expected)
    if stmt.kind in ("delete", "update"):
        return result.rows == [(expected.affected,)]
    if stmt.kind == "insert":
        return len(result) >= 1
    if stmt.kind == "recluster":
        return result == expected.affected
    return True


def run_pass(env: Env, load: Load, texts: list[str], expected: list,
             shadow: Shadow, recorder=None, base_id: int = 0) -> PassStats:
    """Run the timed statements once; check every reply.

    ``expected`` fills in on the first pass (the shadow copy advances
    with the statements) and is reused afterwards, since every pass
    starts from the same state.
    """
    stats = PassStats()
    execute = env.execute
    first = len(expected) == 0
    bytes_before = env.catalog.storage.stats.bytes_read
    for index, stmt in enumerate(load.statements):
        text = texts[index]
        root = -1
        if recorder is not None:
            recorder.stmt_id = base_id + index
            root = recorder.open("stmt")
        started = perf_counter()
        try:
            result = execute(stmt, text)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed statement
            result, error = None, exc
        wall = perf_counter() - started
        if recorder is not None:
            recorder.close(root)
        stats.walls.append(wall)
        stats.attempted += 1
        if first:
            expected.append(shadow.answer(stmt))
        if error is not None:
            stats.fail(index, text, f"{type(error).__name__}: {error}")
            continue
        stats.account(index, result, env.result_cache_hit())
        if stmt.kind == "select":
            stats.rows_returned += len(result.rows)
        if not _correct(stmt, result, expected[index]):
            stats.fail(index, text, "wrong result")
    stats.bytes_read = env.catalog.storage.stats.bytes_read - bytes_before
    if recorder is not None:
        recorder.stmt_id = -1
    return stats


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------
@dataclass
class Cycle:
    stats: PassStats
    setup_s: float
    env_facts: dict


class Runner:
    """Repeats cycles of one workload for one seed."""

    def __init__(self, workload, seed: int, scale: float):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.expected: list = []
        self.shadow: Shadow | None = None
        self.texts: list[str] = []
        self.load: Load | None = None
        self.fingerprint = ""

    def cycle(self, recorder=None, base_id: int = 0) -> Cycle:
        gc.collect()
        if recorder is not None:
            recorder.stmt_id = -1       # set-up and warm-up spans
        started = perf_counter()
        load = self.workload.generate(self.seed, self.scale)
        env = self.workload.setup(load)
        try:
            for stmt in load.warmup:
                env.execute(stmt, stmt.sql())
            env.result_cache_hit()      # forget warm-up hits
            setup_s = perf_counter() - started
            rehearsal = self.shadow is None
            if rehearsal:
                self.load = load
                self.shadow = Shadow(load.tables)
                self.texts = [s.sql() for s in load.statements]
                self.fingerprint = fingerprint(
                    load.tables, load.warmup + load.statements)
            stats = run_pass(env, load, self.texts, self.expected,
                             self.shadow, recorder, base_id)
            facts = env.facts()
            finish = getattr(self.workload, "finish", None)
            if finish is not None and (rehearsal or recorder is not None):
                facts.update(finish(env, self.shadow, stats))
        finally:
            env.close()
        return Cycle(stats, setup_s, facts)


def end_to_end(cycles: list[Cycle]
               ) -> dict[str, tuple[float, str, int | str]]:
    """The end-to-end metrics: name -> (value, unit, samples).

    Every cycle runs the same statements from the same state, so each
    statement is timed once per cycle, k times in all, and cycles differ
    only by what else the machine was doing. That only ever adds time
    (the sandbox this was written on switches between a fast and a slow
    speed every few seconds), so a statement's wall is taken as the
    fastest of its k, and p50, p95 and the throughput are computed over
    those per-statement walls. ``samples`` reads "n x k": n statements,
    each the best of k. ``setup_s`` is the median over the k set-ups.
    Counts are the same in every cycle; the first one is reported.
    """
    first = cycles[0].stats
    best = [min(walls) for walls in zip(*(c.stats.walls for c in cycles))]
    timed = f"{len(best)}x{len(cycles)}"
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(c.setup_s for c in cycles), "s", len(cycles)),
        "stmt_p50_ms": (median(best) * 1e3, "ms", timed),
        "stmt_p95_ms": (percentile(best, 0.95) * 1e3, "ms", timed),
        "stmts_per_s": (len(best) / sum(best), "1/s", timed),
        "partitions_loaded_ratio": (
            first.loaded / first.total, "ratio", first.total),
        "storage_bytes_per_stmt": (
            first.bytes_read / first.attempted, "bytes", first.attempted),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB", 1),
    }
