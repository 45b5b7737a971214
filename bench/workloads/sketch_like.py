"""sketch_like: predicates that zone maps cannot prune, sketches on.

One ``logs`` table whose zone maps span the whole value domain in every
partition (each partition holds a low and a high anchor row), while any
one partition only *contains* a couple of message markers, regions and
codes. ``LIKE '%marker%'``, ``=`` and ``IN`` probes therefore reach the
secondary sketches (``Catalog.enable_sketches()``), and a conjunction
whose parts are each present in a partition but never in one row reaches
the per-shape skip sets on its repeat. This is the only workload where
``pruning.sketches`` / ``pruning.filters`` decide the scan set.

Statements that match nothing project rows (``SELECT id, msg``): a
global aggregate over a fully pruned scan returns ``[]`` at this commit
(ROADMAP item 4), and that defect must not become part of the baseline.
"""

from __future__ import annotations

import numpy as np

from harness import Env, Load, plain_setup
from oracle import Pred, Select, Table

NAME = "sketch_like"
PARTITIONS = 200
ROWS_PER_PARTITION = 100
STATEMENTS = 480      #: 96 turns of the five shapes: every pool deals evenly
WARMUP = 10
MARKERS = [f"mk{i:02d}x" for i in range(24)]
REGIONS = [f"r{i:02d}" for i in range(16)]
CODES = 97
CODE_STEP = 1009       #: spreads the 97 codes over a wide integer domain


def make_table(partitions: int, rng: np.random.Generator) -> Table:
    n = partitions * ROWS_PER_PARTITION
    row = np.arange(n)
    part = row // ROWS_PER_PARTITION
    within = row % ROWS_PER_PARTITION
    odd = row % 2
    marker = np.array(MARKERS)[(part * 5 + odd * 11) % len(MARKERS)]
    region = np.array(REGIONS)[(part * 7 + odd * 3) % len(REGIONS)]
    code = (part * 13 + odd * 29) % CODES * CODE_STEP
    # Anchor rows make every partition's min/max cover the whole domain.
    anchor = np.where(within == 0, "aaa", np.where(within == 1, "zzz", marker))
    payload = rng.integers(0, 10_000, n)
    msg = np.char.add(np.char.add(np.char.add(anchor, "-payload-"),
                                  np.char.add(marker, "-")),
                      np.char.zfill(payload.astype(str), 4))
    region = np.where(within == 0, "r00", np.where(within == 1, "r15", region))
    code = np.where(within == 0, 0, np.where(within == 1, CODES * CODE_STEP, code))
    return Table("logs", {
        "id": row.astype(np.int64),
        "msg": msg,
        "region": region,
        "code": code.astype(np.int64),
        "value": rng.integers(0, 1_000_000, n),
    }, ROWS_PER_PARTITION)


def make_statements(count: int, partitions: int,
                    rng: np.random.Generator) -> list[Select]:
    """Five probe shapes in turn; only the literals come from the seed.

    Each literal pool is shuffled by the seed and then dealt out in
    turn, so every marker, region and code is probed equally often
    whatever the seed and the partitions loaded barely move with it.
    """
    markers = rng.permutation(len(MARKERS))
    regions = rng.permutation(np.arange(1, 13))     # 12 divide the 96 turns
    codes_pool = rng.permutation(np.arange(1, CODES))
    in_pool = rng.permutation(np.arange(1, CODES))
    # Which partitions hold a marker and a region repeats every 48
    # partitions, so the conjunction's targets are dealt by that class.
    classes = rng.permutation(48)
    out = []
    for i in range(count):
        shape, turn = i % 5, i // 5
        marker = MARKERS[int(markers[turn % len(markers)])]
        if shape == 0:
            out.append(Select("logs", (Pred("msg", "contains", marker),),
                              columns=("id", "msg")))
        elif shape == 1:
            out.append(Select(
                "logs", (Pred("region", "=",
                              REGIONS[int(regions[turn % len(regions)])]),),
                aggs=(("count", None, "n"), ("sum", "value", "total"))))
        elif shape == 2:
            # Three codes a third of the pool apart: a partition holds
            # two codes 29 apart, so the three never share a partition.
            first = int(in_pool[turn % len(in_pool)]) - 1
            codes = tuple(sorted(
                ((first + k * (CODES - 1) // 3) % (CODES - 1) + 1) * CODE_STEP
                for k in range(3)))
            out.append(Select("logs", (Pred("code", "in", codes),),
                              columns=("id", "code", "value")))
        elif shape == 3:
            code = int(codes_pool[turn % len(codes_pool)]) * CODE_STEP
            out.append(Select("logs", (Pred("code", "=", code),),
                              columns=("id", "value"), limit=50))
        else:
            # Partition p holds this marker on even rows only and this
            # region on odd rows only: each sketch keeps p, the scan
            # finds no row, and the shape's skip set records p. Half of
            # these repeat an earlier one so the skip set is also hit.
            p = (int(classes[turn // 2 % 48])
                 + 48 * int(rng.integers(0, 4))) % partitions
            if i % 10 == 9 and len(out) >= 5:
                out.append(out[-5])
                continue
            out.append(Select(
                "logs",
                (Pred("msg", "contains", MARKERS[(p * 5) % len(MARKERS)]),
                 Pred("region", "=", REGIONS[(p * 7 + 3) % len(REGIONS)])),
                columns=("id", "msg")))
    return out


def generate(seed: int, scale: float) -> Load:
    rng = np.random.default_rng(seed)
    partitions = max(16, int(PARTITIONS * scale))
    count = max(10, int(STATEMENTS * scale))
    warmup = make_statements(WARMUP, partitions, rng)
    statements = make_statements(count, partitions, rng)
    return Load([make_table(partitions, rng)], warmup, statements)


def setup(load: Load) -> Env:
    env = plain_setup(load)
    env.catalog.enable_sketches()
    return env
