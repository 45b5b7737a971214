"""serve_repeat: repeated dashboard statements through the query service.

Everything goes through ``QueryService.sql()`` with the result cache
(256 entries), the plan cache and a data cache sized to about half the
table. Five dashboard shapes with Zipf-repeated literals: the first
three quarters of the statements draw from 128 distinct texts (which
fit the result cache), the last quarter from 4096 (which do not), and
about 1 % of statements are ``QueryService.insert`` batches that invalidate what
is cached; they arrive as bursts of five, the way batch loads do. This is the only workload where ``service``, ``plancache``,
``cache`` and ``obs`` do most of the work and the engine is skipped on
hits: p50 is a hit, p95 a miss.

Which pool entry each statement repeats and the window each entry
reads are fixed, so the hit / miss pattern of every cache is the same
for every seed; the seed draws the row values and the entries' other
literals.
"""

from __future__ import annotations

import numpy as np

from harness import LAYOUT_SEED, Env, Load
from oracle import Insert, Pred, Select, Table

NAME = "serve_repeat"
ROWS = 40_000
ROWS_PER_PARTITION = 500
STATEMENTS = 2_000
WARMUP = 20
#: phase -> (distinct statements, share of the timed statements)
POOLS = {"fits": (128, 0.75), "exceeds": (4096, 0.25)}
BURST_EVERY = 500           #: statements between insert bursts
BURST = 5                   #: inserts per burst (1 % of statements)
INSERT_BATCH = 50
ZIPF_EXPONENT = 0.9
_REGIONS = np.array([f"region{i:02d}" for i in range(12)])
_DEVICES = 200


def _rows(start: int, count: int, rng: np.random.Generator) -> dict:
    return {
        "id": np.arange(start, start + count, dtype=np.int64),
        "ts": np.arange(start, start + count, dtype=np.int64),
        "region": _REGIONS[rng.integers(0, len(_REGIONS), count)],
        "device": rng.integers(0, _DEVICES, count),
        "latency": rng.integers(1, 5_000, count),
        "bytes": rng.integers(0, 1_000_000, count),
    }


def _dashboard(j: int, rows: int, spin: int) -> Select:
    """Pool entry ``j``: one of five shapes over a window of ~3 partitions.

    ``spin`` comes from the seed and turns the device and region
    literals. They stay inside the range every partition's zone map
    covers, and two entries never share a text, so which statements hit
    a cache and what the misses load is the same for every seed.
    """
    lo = (j * 7_919 + 131) % (rows - 1_500)
    window = Pred("ts", "between", (lo, lo + 1_499))
    shape = j % 5
    if shape == 0:
        return Select("events", (window,),
                      aggs=(("count", None, "n"), ("sum", "bytes", "total")))
    if shape == 1:
        return Select("events", (window,),
                      aggs=(("count", None, "n"), ("max", "latency", "worst")),
                      group_by=("region",), order_by=(("region", False),))
    if shape == 2:
        # The window's latest events: top-k on the clustering key, so
        # which partitions the boundary skips does not depend on values.
        return Select("events", (window,), columns=("id", "ts", "latency"),
                      order_by=(("ts", True),), limit=10)
    if shape == 3:
        return Select("events",
                      (Pred("device", "=", 20 + (spin + j) % (_DEVICES - 40)),
                       window),
                      columns=("id", "ts", "bytes"))
    return Select("events",
                  (Pred("region", "=",
                        str(_REGIONS[3 + (spin + j // 1_000) % 6])),
                   Pred("ts", ">=", rows - 2_000 + j % 1_000)),
                  aggs=(("count", None, "n"), ("min", "latency", "best")))


def _zipf_ranks(pool: int, count: int) -> np.ndarray:
    """``count`` pool indices, Zipf-distributed; the same for every seed."""
    weights = 1.0 / np.arange(1, pool + 1) ** ZIPF_EXPONENT
    fixed = np.random.default_rng(LAYOUT_SEED)
    return fixed.choice(pool, size=count, p=weights / weights.sum())


def generate(seed: int, scale: float) -> Load:
    rng = np.random.default_rng(seed)
    rows = max(4_000, int(ROWS * scale))
    table = Table("events", _rows(0, rows, rng), ROWS_PER_PARTITION,
                  sorted_by=("ts",))
    count = max(60, int(STATEMENTS * scale))
    spin = int(rng.integers(0, 1 << 30))
    statements: list = []
    marks = {}
    next_ts = rows
    for phase, (pool_size, share) in POOLS.items():
        pool_size = max(8, int(pool_size * min(1.0, scale * 4)))
        pool: dict[int, Select] = {}
        start = len(statements)
        ranks = _zipf_ranks(pool_size, int(count * share))
        for position, j in enumerate(ranks):
            if position % BURST_EVERY >= BURST_EVERY - BURST:
                batch = _rows(next_ts, INSERT_BATCH, rng)
                statements.append(Insert("events", tuple(zip(
                    *(column.tolist() for column in batch.values())))))
                next_ts += INSERT_BATCH
                continue
            j = int(j)
            if j not in pool:
                pool[j] = _dashboard(j, rows, spin)
            statements.append(pool[j])
        marks[phase] = range(start, len(statements))
    warmup = [_dashboard(j, rows, spin) for j in range(WARMUP)]
    return Load([table], warmup, statements, marks)


def setup(load: Load) -> Env:
    from repro import Catalog, QueryService

    catalog = Catalog(rows_per_partition=ROWS_PER_PARTITION)
    env = Env(catalog)
    for table in load.tables:
        env.create_table(table)
    table_bytes = sum(p.nbytes() for p in catalog.tables["events"].partitions)
    env.serve_through(QueryService(
        catalog, result_cache_entries=256, plan_cache_entries=256,
        data_cache_bytes=table_bytes // 2))
    # The data cache's read-ahead runs on its own threads and makes the
    # bytes read differ between runs of one seed; the single client here
    # gains nothing from it, so it is off and the counts repeat exactly.
    for cache in env.data_caches():
        cache.prefetch = False
    return env
