"""fleet_mix: the paper's statement mix over a fleet of mixed-size tables.

25 fact tables from 1 to 320 partitions plus three dimension tables,
and the statement shares of the paper's Table 1: 59.85 % filtered
select, 12 % unfiltered, 20 % join, 2.6 % LIMIT, 5.55 % top-k, with
selectivity skewed towards the very selective and k towards the small
(Figure 6). No layer dominates here, so a gain bought elsewhere at the
fleet's cost shows up.

How many statements of each kind, which table each one reads, its
selectivity and its k all come from fixed grids; the seed draws the
row values and where each range sits, so counts barely move with it.
The top-k key ``score`` and the foreign key, whose values decide which
partitions a top-k or a join can skip, are the same for every seed.
"""

from __future__ import annotations

import numpy as np

from harness import LAYOUT_SEED, Load, plain_setup
from oracle import Join, Pred, Select, Table

NAME = "fleet_mix"
STATEMENTS = 560
WARMUP = 12
ROWS_PER_PARTITION = 50
FACT_PARTITIONS = (1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 32, 40,
                   50, 64, 80, 100, 128, 160, 200, 256, 320)
DIM_ROWS = (100, 300, 900)
SCORE_MAX = 10_000

#: Table 1 shares; top-k splits 4.47 plain / 0.12 group-key / 0.96 group-agg
SHARES = {"select_pred": 0.5985, "select_nopred": 0.12, "join": 0.20,
          "limit_nopred": 0.0037, "limit_pred": 0.0223,
          "topk_plain": 0.0447, "topk_group_key": 0.0012,
          "topk_group_agg": 0.0096}
_K_GRID = (1, 1, 5, 10, 10, 20, 50, 100, 100, 1000)
_GOLDEN = 0.6180339887498949

setup = plain_setup

_CATEGORIES = np.array([f"cat{i:02d}" for i in range(20)])


def make_tables(scale: float, rng: np.random.Generator) -> list[Table]:
    layout = np.random.default_rng(LAYOUT_SEED)
    tables = []
    for index, rows in enumerate(DIM_ROWS):
        rows = max(20, int(rows * min(1.0, scale * 4)))
        tables.append(Table(f"dim{index}", {
            "key": np.arange(rows, dtype=np.int64),
            "attr": _CATEGORIES[(np.arange(rows) * 20) // rows],
            "weight": rng.integers(0, 1000, rows),
        }, ROWS_PER_PARTITION))
    for index, partitions in enumerate(FACT_PARTITIONS):
        rows = max(1, int(partitions * scale)) * ROWS_PER_PARTITION
        dim_rows = tables[index % len(DIM_ROWS)].num_rows
        tables.append(Table(f"fact{index:02d}", {
            "id": np.arange(rows, dtype=np.int64),
            "ts": np.arange(rows, dtype=np.int64) * 3
            + rng.integers(0, 3, rows),
            # clustered foreign key: correlates with ts, as in a fact
            # table loaded in time order, so join summaries can prune
            "fk": np.minimum(dim_rows - 1,
                             (np.arange(rows) * dim_rows) // rows
                             + layout.integers(0, 3, rows)),
            "category": _CATEGORIES[rng.integers(0, 20, rows)],
            "score": layout.integers(0, SCORE_MAX, rows),
            "value": rng.integers(0, 100_000, rows),
        }, ROWS_PER_PARTITION, sorted_by=("ts",)))
    return tables


def _quotas(total: int) -> dict[str, int]:
    """Largest-remainder split of ``total`` by the Table 1 shares."""
    exact = {kind: share * total for kind, share in SHARES.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(exact, key=lambda k: exact[k] - counts[k],
                          reverse=True)
    for kind in by_remainder[:total - sum(counts.values())]:
        counts[kind] += 1
    return counts


class _Maker:
    """Draws statements against the generated fact and dim tables."""

    def __init__(self, tables: list[Table], rng: np.random.Generator):
        self.rng = rng
        self.facts = [t for t in tables if t.name.startswith("fact")]
        self.dims = [t for t in tables if t.name.startswith("dim")]
        sizes = np.array([t.num_rows for t in self.facts], dtype=float)
        self.by_size = np.cumsum(sizes / sizes.sum())
        small = sizes ** -0.5
        self.by_smallness = np.cumsum(small / small.sum())
        self.drawn = 0

    def _u(self) -> float:
        """Next point of a fixed low-discrepancy sequence in [0, 1)."""
        self.drawn += 1
        return (self.drawn * _GOLDEN) % 1.0

    def _fact(self, small: bool = False) -> Table:
        """Size-weighted pick: big tables draw the filtered statements,
        small ones the unfiltered reads."""
        weights = self.by_smallness if small else self.by_size
        index = int(np.searchsorted(weights, self._u()))
        return self.facts[min(index, len(self.facts) - 1)]

    def _k(self) -> int:
        return _K_GRID[int(self._u() * len(_K_GRID))]

    def _range(self, table: Table, selectivity: float) -> Pred:
        """A ``ts`` range of the given selectivity. Its width and where
        it starts inside a partition come from the fixed sequence, the
        partition it starts in from the seed, so the number of
        partitions it touches does not depend on the seed."""
        ts = table.columns["ts"]
        width = max(1, int(selectivity * len(ts)))
        offset = int(self._u() * ROWS_PER_PARTITION)
        slots = max(1, (len(ts) - width - offset) // ROWS_PER_PARTITION + 1)
        start = min(int(self.rng.integers(0, slots)) * ROWS_PER_PARTITION
                    + offset, len(ts) - width)
        return Pred("ts", "between",
                    (int(ts[start]), int(ts[start + width - 1])))

    def _predicate(self, table: Table) -> tuple[Pred, ...]:
        """Mostly a range on the clustering key, log-uniform in
        selectivity from 1e-4 to 1; some on unclustered columns."""
        u = self._u()
        selectivity = 10.0 ** (-4.0 * self._u())
        if u < 0.08:
            return (Pred("ts", ">", int(table.columns["ts"][-1]) * 2),)
        if u < 0.72:
            return (self._range(table, min(selectivity, 0.2)),)
        if u < 0.86:
            category = str(self.rng.choice(_CATEGORIES))
            return (Pred("category", "=", category),
                    self._range(table, min(selectivity * 4, 0.3)))
        # Unclustered column: every partition's zone map spans the
        # threshold (selectivity >= 0.2 of 50 rows), so nothing prunes.
        return (Pred("score", ">=", int(
            (1 - min(max(selectivity, 0.2), 0.5)) * SCORE_MAX)),)

    def make(self, kind: str) -> Select:
        if kind == "select_pred":
            table = self._fact()
            return Select(table.name, self._predicate(table))
        if kind == "select_nopred":
            return Select(self._fact(small=True).name)
        if kind == "join":
            table = self._fact()
            dim = self.dims[self.facts.index(table) % len(self.dims)]
            where = (Pred("attr", "=",
                          str(_CATEGORIES[int(self._u() * 20)])),)
            if self._u() < 0.4:
                where += (self._range(table, 0.1),)
            return Select(table.name, where,
                          columns=("id", "ts", "value", "attr", "weight"),
                          join=Join(dim.name, "fk", "key"))
        if kind == "limit_nopred":
            return Select(self._fact(small=True).name, limit=self._k())
        if kind == "limit_pred":
            table = self._fact()
            return Select(table.name, self._predicate(table),
                          limit=self._k())
        if kind == "topk_plain":
            table = self._fact()
            where = self._predicate(table) if self._u() < 0.5 else ()
            column = "score" if self._u() < 0.66 else "ts"
            return Select(table.name, where,
                          order_by=((column, self._u() < 0.8),),
                          limit=self._k())
        if kind == "topk_group_key":
            return Select(self._fact().name,
                          aggs=(("count", None, "c"),), group_by=("ts",),
                          order_by=(("ts", True),), limit=self._k())
        return Select(self._fact().name,
                      aggs=(("sum", "value", "m"),), group_by=("category",),
                      order_by=(("m", True),), limit=min(self._k(), 20))


def generate(seed: int, scale: float) -> Load:
    rng = np.random.default_rng(seed)
    tables = make_tables(scale, rng)
    maker = _Maker(tables, rng)
    count = max(20, int(STATEMENTS * scale))
    kinds = [kind for kind, n in _quotas(count).items() for _ in range(n)]
    statements = [maker.make(kind) for kind in kinds]
    order = rng.permutation(count)
    warmup = [maker.make(kind) for kind in
              ("select_pred", "join", "topk_plain", "select_nopred")
              for _ in range(max(1, WARMUP // 4))]
    return Load(tables, warmup, [statements[i] for i in order])
