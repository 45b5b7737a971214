"""needle_wide: very selective statements over a table of many partitions.

The paper's regime (section 3): once a table has many partitions the
cost of a selective statement is fetching the table's metadata and
classifying partitions, not reading data. One table of 10 000
partitions x 10 rows sorted by ``ts``; every statement is a distinct
range aggregate or ``SELECT * ... LIMIT`` touching at most 4 partitions.

Range offsets, widths and LIMITs come from a fixed grid and only the
position of each range is drawn from the seed, so the number of
partitions a statement touches does not depend on the seed.
"""

from __future__ import annotations

import numpy as np

from harness import Load, plain_setup
from oracle import Pred, Select, Table

NAME = "needle_wide"
PARTITIONS = 10_000
ROWS_PER_PARTITION = 10
STATEMENTS = 80
WARMUP = 8
#: partition counts of the traced run's compile-cost sweep
SWEEP = {"1e2": 100, "1e3": 1_000, "1e4": 10_000, "3e4": 30_000}
SWEEP_STATEMENTS = 40

_OFFSETS = (0, 3, 5, 8)
_WIDTHS = (1, 4, 10, 17, 25, 30)
_LIMITS = (1, 5, 10, 20)
_AGGS = (("count", None, "c"), ("sum", "v", "s"),
         ("min", "v", "mn"), ("max", "v", "mx"))


def make_table(partitions: int, rng: np.random.Generator,
               name: str = "needle") -> Table:
    n = partitions * ROWS_PER_PARTITION
    return Table(name, {
        "ts": np.arange(n, dtype=np.int64),
        "v": rng.integers(0, 1000, n),
        "g": rng.integers(0, 7, n),
    }, ROWS_PER_PARTITION, sorted_by=("ts",))


def make_statements(count: int, partitions: int, rng: np.random.Generator,
                    table: str = "needle", aggregates_only: bool = False
                    ) -> list[Select]:
    starts = rng.permutation(partitions - 4)
    out = []
    for i in range(count):
        offset = _OFFSETS[i % len(_OFFSETS)]
        width = _WIDTHS[(i // len(_OFFSETS)) % len(_WIDTHS)]
        lo = int(starts[i % len(starts)]) * ROWS_PER_PARTITION + offset
        hi = lo + width - 1
        if aggregates_only or i % 2 == 0:
            out.append(Select(table, (Pred("ts", "between", (lo, hi)),),
                              aggs=_AGGS))
        else:
            out.append(Select(
                table, (Pred("ts", ">=", lo), Pred("ts", "<=", hi)),
                limit=_LIMITS[(i // 2) % len(_LIMITS)]))
    return out


def generate(seed: int, scale: float) -> Load:
    rng = np.random.default_rng(seed)
    partitions = max(50, int(PARTITIONS * scale))
    table = make_table(partitions, rng)
    count = max(8, int(STATEMENTS * scale))
    statements = make_statements(WARMUP + count, partitions, rng)
    return Load([table], statements[:WARMUP], statements[WARMUP:])


setup = plain_setup


def sweep(seed: int, scale: float, recorder) -> dict[str, float]:
    """Compile cost against partition count (traced run only).

    Runs the same kind of statement on copies of the table with 1e2 to
    3e4 partitions and reports the median ``plan.compile`` span of each,
    plus the least-squares slope in nanoseconds per partition.
    """
    rng = np.random.default_rng(seed)
    out = {}
    sizes, medians = [], []
    for label, partitions in SWEEP.items():
        partitions = max(20, int(partitions * scale))
        load = Load([make_table(partitions, rng)], [], make_statements(
            max(8, int(SWEEP_STATEMENTS * scale)), partitions, rng,
            aggregates_only=True))
        env = setup(load)
        try:
            before = len(recorder)
            for stmt in load.statements:
                env.execute(stmt, stmt.sql())
            value = float(np.median([
                recorder.duration(i) for i in range(before, len(recorder))
                if recorder.names[i] == "plan.compile"]))
        finally:
            env.close()
        out[f"plan.compile_us_p50.parts_{label}"] = value * 1e6
        sizes.append(partitions)
        medians.append(value)
    slope = np.polyfit(sizes, medians, 1)[0]
    out["plan.compile_ns_per_partition"] = float(slope) * 1e9
    return out
