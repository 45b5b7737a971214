"""scan_heavy: analytical statements that read most of what they touch.

A bench-owned TPC-H-shaped star (lineitem / orders / customer, ~12k
fact rows). Seven statement shapes cycle: a Q1-style multi-key GROUP BY,
a Q3-style join + group + top-k, a Q12-style join + IN + group, a full
ORDER BY, a top-k over a join, a LIMIT with a predicate, and revenue by
customer segment (orders joined to customer). Most
partitions survive compile-time pruning, so the ``engine`` operators do
most of the work; the top-k / join / LIMIT shapes are where runtime
pruning shows.

Literals come from a fixed grid shuffled by the seed. The columns that
decide which partitions a statement loads (the dates, the join key, the
top-k key ``l_extendedprice`` and ``o_orderpriority``, which filters
the top-k over the join) are the same for every seed; the seed draws
every other column and the order of the statements.
"""

from __future__ import annotations

import numpy as np

from harness import LAYOUT_SEED, Load, plain_setup
from oracle import Join, Pred, Select, Table

NAME = "scan_heavy"
LINEITEMS = 12_000
ROWS_PER_PARTITION = 100
ROUNDS = 7                  #: timed statements = 7 shapes x ROUNDS
DAYS = 2_400

_FLAGS = np.array(["A", "N", "R"])
_STATUS = np.array(["F", "O"])
_MODES = np.array(["AIR", "FOB", "MAIL", "RAIL", "REG", "SHIP", "TRUCK"])
_PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW", "5-NONE"])
_SEGMENTS = np.array(["AUTO", "BUILD", "FURN", "HOUSE", "MACH"])

setup = plain_setup


def make_tables(lineitems: int, rng: np.random.Generator) -> list[Table]:
    layout = np.random.default_rng(LAYOUT_SEED)
    customers = max(20, lineitems // 40)
    orders = max(50, lineitems // 4)
    customer = Table("customer", {
        "c_custkey": np.arange(customers, dtype=np.int64),
        "c_mktsegment": _SEGMENTS[rng.integers(0, 5, customers)],
        "c_nationkey": rng.integers(0, 25, customers),
    }, ROWS_PER_PARTITION)
    order_date = np.sort(layout.integers(0, DAYS, orders))
    orders_table = Table("orders", {
        "o_orderkey": np.arange(orders, dtype=np.int64),
        "o_custkey": rng.integers(0, customers, orders),
        "o_orderdate": order_date,
        "o_orderpriority": _PRIORITIES[layout.integers(0, 5, orders)],
        "o_totalprice": rng.integers(1_000, 500_000, orders),
    }, ROWS_PER_PARTITION, sorted_by=("o_orderdate",))
    order_key = layout.integers(0, orders, lineitems)
    ship_date = order_date[order_key] + layout.integers(1, 121, lineitems)
    by_ship_date = np.argsort(ship_date, kind="stable")
    lineitem = Table("lineitem", {
        "l_id": np.arange(lineitems, dtype=np.int64),
        "l_orderkey": order_key[by_ship_date],
        "l_quantity": rng.integers(1, 51, lineitems),
        "l_extendedprice": layout.integers(100, 10_000_000, lineitems),
        "l_discount": rng.integers(0, 11, lineitems),
        "l_shipdate": ship_date[by_ship_date],
        "l_returnflag": _FLAGS[rng.integers(0, 3, lineitems)],
        "l_linestatus": _STATUS[rng.integers(0, 2, lineitems)],
        "l_shipmode": _MODES[rng.integers(0, 7, lineitems)],
    }, ROWS_PER_PARTITION, sorted_by=("l_shipdate",))
    return [customer, orders_table, lineitem]


_ORDERS = Join("orders", "l_orderkey", "o_orderkey")
_CUSTOMER = Join("customer", "o_custkey", "c_custkey")


def _shapes(u: float, rng: np.random.Generator) -> list[Select]:
    """The seven shapes at grid position ``u`` in [0, 1)."""
    late = int(DAYS * (0.90 + 0.10 * u))
    early = int(DAYS * (0.05 + 0.10 * u))
    modes = tuple(sorted(
        str(m) for m in rng.choice(_MODES, size=2, replace=False)))
    return [
        Select("lineitem", (Pred("l_shipdate", "<=", late),),
               aggs=(("sum", "l_quantity", "sum_qty"),
                     ("sum", "l_extendedprice", "sum_price"),
                     ("max", "l_discount", "max_disc"),
                     ("count", None, "n")),
               group_by=("l_returnflag", "l_linestatus"),
               order_by=(("l_returnflag", False), ("l_linestatus", False))),
        Select("lineitem", (Pred("o_orderdate", "<", late),
                            Pred("l_shipdate", ">", early)),
               aggs=(("sum", "l_extendedprice", "revenue"),),
               group_by=("l_orderkey",),
               order_by=(("revenue", True),), limit=10, join=_ORDERS),
        Select("lineitem", (Pred("l_shipmode", "in", modes),
                            Pred("l_shipdate", ">=", early),
                            Pred("l_shipdate", "<", early + 3 * 365)),
               aggs=(("count", None, "n"),
                     ("min", "o_totalprice", "cheapest")),
               group_by=("l_shipmode",),
               order_by=(("l_shipmode", False),), join=_ORDERS),
        Select("lineitem", (Pred("l_quantity", ">=", 40 + int(8 * u)),),
               columns=("l_id", "l_extendedprice"),
               order_by=(("l_extendedprice", True), ("l_id", False))),
        Select("lineitem",
               (Pred("o_orderpriority", "=",
                     str(_PRIORITIES[int(5 * u) % 5])),),
               columns=("l_id", "l_extendedprice", "o_orderpriority"),
               order_by=(("l_extendedprice", True),), limit=10,
               join=_ORDERS),
        Select("lineitem", (Pred("l_discount", ">=", 5 + int(5 * u)),),
               limit=20),
        Select("orders", (Pred("o_orderdate", ">=", early),),
               aggs=(("count", None, "n"), ("sum", "o_totalprice", "total")),
               group_by=("c_mktsegment",),
               order_by=(("c_mktsegment", False),), join=_CUSTOMER),
    ]


def generate(seed: int, scale: float) -> Load:
    rng = np.random.default_rng(seed)
    tables = make_tables(max(600, int(LINEITEMS * scale)), rng)
    rounds = max(1, int(ROUNDS * scale))
    statements = [stmt for position in rng.permutation(rounds)
                  for stmt in _shapes((position + 0.5) / rounds, rng)]
    return Load(tables, _shapes(0.5, rng), statements)
