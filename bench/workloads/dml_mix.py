"""dml_mix: reads and writes side by side, with durability on.

50k rows in 100 partitions; about 70 % selective reads, 10 %
``Catalog.insert`` batches, 10 % ``DELETE`` ranges, 8 % ``UPDATE``
ranges, a ``recluster`` every 300 statements and one ``checkpoint``
half-way. Layout maintenance competes with the statements it serves and
the same storage / pruning / plan layers carry the writes, so a read
gain bought with dearer index, sketch, cache or WAL maintenance shows
here: p50 is a read, p95 a write (an ``UPDATE`` rewrites three
partitions, which makes it the slowest tenth of the statements).

Durability is on: the WAL and its checkpoints live in a scratch
directory inside the checkout, with the program's default flush policy
(``sync=False``: written and flushed to the OS, no fsync). When the
statements are done, ``Catalog.recover(dir)`` into a fresh catalog must
give exactly the rows of the benchmark's shadow copy.

Which statement sits where is fixed; the seed draws the row values and
the partition each range starts in. The generator follows the table's
partition boundaries through the deletes and reclusters, so that where
a range starts *inside* its partition can come from a fixed grid and
the number of partitions each statement touches is the same for every
seed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from harness import Env, Load, new_tmp_dir
from oracle import (Checkpoint, Delete, Insert, Pred, Recluster, Select,
                    Table, Update)

NAME = "dml_mix"
ROWS = 50_000
ROWS_PER_PARTITION = 500
STATEMENTS = 600
WARMUP = 10
INSERT_BATCH = 200
RECLUSTER_EVERY = 300
_TAGS = np.array([f"tag{i}" for i in range(8)])
#: position in each run of 50 statements -> kind; everything else reads
_WRITES = {3: "insert", 13: "insert", 23: "insert", 33: "insert",
           43: "insert", 7: "delete", 17: "delete", 27: "delete",
           37: "delete", 47: "delete", 9: "update", 21: "update",
           31: "update", 41: "update"}


def _rows(start: int, count: int, rng: np.random.Generator) -> dict:
    return {
        "id": np.arange(start, start + count, dtype=np.int64),
        "ts": np.arange(start, start + count, dtype=np.int64),
        "v": rng.integers(0, 1000, count),
        "tag": _TAGS[rng.integers(0, len(_TAGS), count)],
        "amount": rng.integers(0, 1_000_000, count),
    }


def _position(i: int, bounds: np.ndarray, rng: np.random.Generator) -> int:
    """Where statement ``i``'s range starts: the partition comes from
    the seed, the offset inside it from a fixed grid. Offsets stay
    between 150 and 460, so a 480-wide read always spans two
    partitions, a 20-wide read or a DELETE one, an UPDATE three, and
    the count of partitions loaded does not depend on the seed."""
    slot = int(rng.integers(0, len(bounds) - 4))
    return int(bounds[slot]) + 150 + (i * 197) % 310


def _read(i: int, bounds: np.ndarray, next_ts: int,
          rng: np.random.Generator) -> Select:
    shape = i % 3
    if i % 5 == 4:      # the recent tail, where the inserts land
        lo = max(0, next_ts - 600)
    else:
        lo = _position(i, bounds, rng)
    if shape == 0:
        return Select("events", (Pred("ts", "between", (lo, lo + 479)),),
                      aggs=(("count", None, "n"), ("sum", "v", "total")))
    if shape == 1:
        return Select("events", (Pred("ts", "between", (lo, lo + 19)),))
    return Select("events",
                  (Pred("tag", "=", str(_TAGS[i % len(_TAGS)])),
                   Pred("ts", "between", (lo, lo + 479))),
                  columns=("id", "v"))


def generate(seed: int, scale: float) -> Load:
    rng = np.random.default_rng(seed)
    rows = max(4_000, int(ROWS * scale))
    table = Table("events", _rows(0, rows, rng), ROWS_PER_PARTITION,
                  sorted_by=("ts",))
    count = max(50, int(STATEMENTS * scale))
    # First ``ts`` of every partition. DELETE and UPDATE rewrite
    # partitions in place, so these hold until a recluster, which packs
    # the surviving rows ROWS_PER_PARTITION to a partition again.
    bounds = np.arange(0, rows, ROWS_PER_PARTITION)
    deleted = [np.empty(0, dtype=np.int64)]
    warmup = [_read(i, bounds, rows, rng) for i in range(WARMUP)]
    statements = []
    next_ts = rows
    for i in range(count):
        kind = _WRITES.get(i % 50, "select")
        if i % RECLUSTER_EVERY == RECLUSTER_EVERY - 1:
            statements.append(
                Recluster("events", ("ts",), ROWS_PER_PARTITION))
            live = np.setdiff1d(np.arange(next_ts), np.concatenate(deleted))
            bounds = live[::ROWS_PER_PARTITION]
        elif i == count // 2:
            statements.append(Checkpoint())
        elif kind == "insert":
            batch = _rows(next_ts, INSERT_BATCH, rng)
            statements.append(Insert("events", tuple(zip(
                *(column.tolist() for column in batch.values())))))
            next_ts += INSERT_BATCH
        elif kind == "delete":
            lo = _position(i, bounds, rng)
            deleted.append(np.arange(lo, lo + 30))
            statements.append(Delete(
                "events", (Pred("ts", "between", (lo, lo + 29)),)))
        elif kind == "update":
            lo = _position(i, bounds, rng)
            statements.append(Update(
                "events", "v", 1, (Pred("ts", "between", (lo, lo + 979)),)))
        else:
            statements.append(_read(i, bounds, next_ts, rng))
    return Load([table], warmup, statements)


def setup(load: Load) -> Env:
    from repro import Catalog

    directory = new_tmp_dir("dml_mix-")
    env = Env(Catalog(rows_per_partition=ROWS_PER_PARTITION),
              durability_dir=directory)
    for table in load.tables:
        env.create_table(table)
    env.catalog.enable_durability(directory)
    return env


def finish(env: Env, shadow, stats) -> dict[str, float]:
    """Recover into a fresh catalog and compare with the shadow copy;
    the check counts as one attempted statement. Run after the
    rehearsal cycle and after every traced cycle."""
    from repro import Catalog

    wanted = sorted(shadow.tables["events"].rows())
    env.catalog.durability.close()
    directory = env.durability_dir
    size = sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())
    started = perf_counter()
    recovered = Catalog.recover(directory)
    recover_s = perf_counter() - started
    try:
        stats.attempted += 1
        if sorted(recovered.tables["events"].to_rows()) != wanted:
            stats.fail(-1, "Catalog.recover", "recovered rows differ")
        elif sorted(env.catalog.tables["events"].to_rows()) != wanted:
            stats.fail(-1, "live catalog", "live rows differ")
    finally:
        recovered.durability.close()
    return {"recover_s": recover_s, "dir_bytes": size}
