"""The column-wise table build against the row-at-a-time build it replaced.

``build_table`` used to sort row tuples with a Python key, feed them one
by one to a ``TableBuilder`` that flushed a partition every
``rows_per_partition`` rows, and convert each partition value by value.
That path lives here as the reference (``row_build_table``), with one
deliberate change: its sort key puts NaN after every value, as ORDER BY
does, where ``list.sort`` left NaN wherever its false comparisons fell.
Hypothesis drives both and demands the same partitions in the same
order: values, nulls, dtypes, zone-map stats (down to the Python type of
min / max) and checksums. Recluster, WAL replay and error behaviour are
compared the same way. The last section keeps what the stats block
replaced as references: one ``ColumnStats`` per slice, the stats
index's zone-map-at-a-time packing and the value-at-a-time checksum.
The row-built partitions also stand as the per-partition reference for
the build's column block: rows, sizes, checksums and zone maps of
block-backed partitions, before and after a codec round trip.
"""

from __future__ import annotations

import datetime
import math
import random
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import Catalog, Layout
from repro.durability.codec import decode_partitions, encode_partitions
from repro.errors import SchemaError
from repro.recluster import IncrementalReclusterer, ReclusterJob
from repro.pruning import stats_index as si
from repro.pruning.stats_index import StatsIndex
from repro.storage.builder import (TableBuilder, build_table,
                                   build_table_from_columns)
from repro.storage.column import _DUMMY, Column
from repro.storage.micropartition import (MicroPartition, concat_columns,
                                          partition_id_generator)
from repro.storage.table import Table
from repro.storage.zonemap import ColumnStats, ZoneMap
from repro.types import DataType, Field, Schema

NAN = float("nan")


# ----------------------------------------------------------------------
# The row-at-a-time reference
# ----------------------------------------------------------------------
def row_column(dtype: DataType, items) -> Column:
    """Per-item conversion: ``Column.from_pylist``'s loop."""
    n = len(items)
    nulls = np.zeros(n, dtype=np.bool_)
    values = np.empty(n, dtype=dtype.numpy_dtype())
    for i, item in enumerate(items):
        if item is None:
            nulls[i] = True
            values[i] = _DUMMY[dtype]
        else:
            values[i] = Column._coerce(dtype, item)
    return Column(dtype, values, nulls)


def row_min_max(column: Column):
    """(min, max) over non-null values: the per-partition zone-map pass."""
    if len(column) == 0:
        return None, None
    valid = ~column.nulls
    if not valid.any():
        return None, None
    present = column.values[valid]
    if column.dtype == DataType.VARCHAR:
        return min(present), max(present)
    lo, hi = present.min(), present.max()
    if column.dtype == DataType.DOUBLE:
        return float(lo), float(hi)
    if column.dtype == DataType.BOOLEAN:
        return bool(lo), bool(hi)
    return int(lo), int(hi)


def row_zone_map(columns) -> ZoneMap:
    return ZoneMap(len(next(iter(columns.values()))), {
        name: ColumnStats(column.dtype, *row_min_max(column),
                          column.null_count(), len(column))
        for name, column in columns.items()})


def row_sort_key(schema: Schema, keys):
    indices = [schema.index_of(k) for k in keys]

    def key(row):
        # NULL first, NaN after every value and equal to every NaN; the
        # tags keep None and NaN out of Python's comparisons.
        return tuple((row[i] is not None, row[i] != row[i],
                      row[i] if row[i] == row[i] else None)
                     for i in indices)

    return key


def row_layout(schema: Schema, rows, layout: Layout) -> list:
    rows = list(rows)
    if layout.kind == "natural":
        return rows
    if layout.kind == "random":
        random.Random(layout.seed).shuffle(rows)
        return rows
    if layout.kind in ("sorted", "clustered"):
        if not layout.keys:
            raise SchemaError(f"layout {layout.kind!r} requires keys")
        rows.sort(key=row_sort_key(schema, layout.keys))
        if layout.kind == "clustered" and layout.jitter > 0:
            rng = random.Random(layout.seed)
            n = len(rows)
            for i in range(n):
                j = min(n - 1, max(0, i + rng.randint(
                    -layout.jitter, layout.jitter)))
                rows[i], rows[j] = rows[j], rows[i]
        return rows
    raise SchemaError(f"unknown layout kind {layout.kind!r}")


class RowTableBuilder:
    """Flushes a partition every ``rows_per_partition`` rows."""

    def __init__(self, name, schema, rows_per_partition):
        if rows_per_partition <= 0:
            raise SchemaError("rows_per_partition must be positive")
        self.name = name
        self.schema = schema
        self.rows_per_partition = rows_per_partition
        self._pending = []
        self._partitions = []

    def add_row(self, row):
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.schema)}")
        self._pending.append(row)
        if len(self._pending) >= self.rows_per_partition:
            self._flush()

    def _flush(self):
        if not self._pending:
            return
        transposed = zip(*self._pending)
        columns = {f.name: row_column(f.dtype, list(values))
                   for f, values in zip(self.schema, transposed)}
        self._partitions.append(MicroPartition(
            self.schema, columns, zone_map=row_zone_map(columns)))
        self._pending = []

    def finish(self) -> Table:
        self._flush()
        return Table(self.name, self.schema, self._partitions)


def row_build_table(name, schema, rows, rows_per_partition, layout=None):
    if layout is not None:
        rows = row_layout(schema, rows, layout)
    builder = RowTableBuilder(name, schema, rows_per_partition)
    for row in rows:
        builder.add_row(row)
    return builder.finish()


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def same_scalar(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_same_partitions(product, reference):
    """Partition for partition: contents, metadata and checksum."""
    assert len(product) == len(reference)
    ids = [p.partition_id for p in product]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for got, want in zip(product, reference):
        assert got.schema == want.schema
        assert got.row_count == want.row_count
        for f in want.schema:
            g, w = got.column(f.name), want.column(f.name)
            assert g.dtype == w.dtype
            assert g.values.dtype == w.values.dtype
            assert g.nulls.tolist() == w.nulls.tolist()
            if f.dtype == DataType.VARCHAR:
                assert g.values.tolist() == w.values.tolist()
            else:  # bitwise: -0.0 and NaN included
                assert g.values.tobytes() == w.values.tobytes()
            ws = want.zone_map.stats(f.name)
            # the build's slices and a single-partition rewrite's pass
            for gs in (got.zone_map.stats(f.name),
                       ColumnStats.from_column(g)):
                assert same_scalar(gs.min_value, ws.min_value), (gs, ws)
                assert same_scalar(gs.max_value, ws.max_value), (gs, ws)
                assert (gs.null_count, gs.row_count, gs.present) == \
                    (ws.null_count, ws.row_count, ws.present)
        assert got.zone_map.row_count == want.zone_map.row_count
        assert got.checksum == want.checksum


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
_STRINGS = ["", "a", "ab", "b", "\ud800", "a\udfff", "\U0010ffff", "é",
            "a\x00", "\x00"]


def values_of(dtype: DataType, dates_as_ints: bool):
    if dtype == DataType.INTEGER:
        pool = st.one_of(st.integers(-3, 3),
                         st.integers(-2 ** 63, 2 ** 63 - 1),
                         st.sampled_from([2 ** 63 - 1, -2 ** 63]))
    elif dtype == DataType.DOUBLE:
        pool = st.one_of(st.floats(), st.integers(-3, 3),
                         st.sampled_from([-0.0, 0.0, math.inf, -math.inf,
                                          NAN, 1.5]),
                         st.builds(float, st.just("nan")))  # a new NaN
    elif dtype == DataType.VARCHAR:
        pool = st.one_of(st.sampled_from(_STRINGS), st.text(max_size=3))
    elif dtype == DataType.BOOLEAN:
        pool = st.booleans()
    elif dates_as_ints:
        pool = st.integers(-719_162, 2_932_896)
    else:
        pool = st.one_of(st.dates(), st.sampled_from(
            [datetime.date(1970, 1, 1), datetime.date(2024, 2, 29)]))
    return st.one_of(st.none(), pool)


def layouts(names):
    keys = st.lists(st.sampled_from(names), min_size=1, max_size=3,
                    unique=True)
    return st.one_of(
        st.none(),
        st.just(Layout.natural()),
        st.builds(Layout.random, seed=st.integers(0, 5)),
        keys.map(lambda k: Layout.sorted_by(*k)),
        st.builds(lambda k, jitter, seed: Layout.clustered_by(
            *k, jitter=jitter, seed=seed),
            keys, st.integers(0, 4), st.integers(0, 3)),
    )


@st.composite
def builds(draw):
    dtypes = draw(st.lists(st.sampled_from(list(DataType)),
                           min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(dtypes))]
    schema = Schema(Field(n, d) for n, d in zip(names, dtypes))
    columns = [values_of(d, draw(st.booleans())) for d in dtypes]
    rows = draw(st.lists(st.tuples(*columns), max_size=40))
    rows_per_partition = draw(st.integers(1, len(rows) + 1))
    return schema, rows, rows_per_partition, draw(layouts(names))


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
class TestBuildDifferential:
    @settings(max_examples=400, deadline=None)
    @given(builds())
    def test_column_build_equals_row_build(self, case):
        schema, rows, rows_per_partition, layout = case
        reference = row_build_table("t", schema, rows, rows_per_partition,
                                    layout)
        product = build_table("t", schema, rows, rows_per_partition,
                              layout)
        assert_same_partitions(product.partitions, reference.partitions)

    @settings(max_examples=100, deadline=None)
    @given(builds())
    def test_table_builder_equals_build_table(self, case):
        schema, rows, rows_per_partition, _ = case
        builder = TableBuilder("t", schema, rows_per_partition)
        builder.add_rows(rows)
        assert_same_partitions(
            builder.finish().partitions,
            build_table("t", schema, rows, rows_per_partition).partitions)

    def test_empty_input_builds_no_partitions(self):
        schema = Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR)
        for layout in (None, Layout.sorted_by("a"), Layout.random()):
            table = build_table("t", schema, [], 10, layout)
            assert table.partitions == [] and table.schema == schema

    def test_generator_input(self):
        schema = Schema.of(a=DataType.INTEGER)
        table = build_table("t", schema, ((i,) for i in range(5)), 2)
        assert [p.row_count for p in table.partitions] == [2, 2, 1]


class TestNanSortsLast:
    """``list.sort`` never moved NaN: every comparison with it is false,
    so ``[5.0, nan, 3.0, 9.0, nan, 1.0, 7.0, 2.0]`` built
    ``[5.0, nan] [2.0, 3.0] [9.0, nan] [1.0, 7.0]``."""

    SCHEMA = Schema.of(x=DataType.DOUBLE, i=DataType.INTEGER)
    VALUES = [5.0, NAN, 3.0, 9.0, NAN, 1.0, None, 7.0, 2.0]

    def rows(self):
        return [(v, i) for i, v in enumerate(self.VALUES)]

    def check(self, partitions):
        got = [v for p in partitions for v in p.column("x").to_pylist()]
        assert got[:7] == [None, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0]
        assert all(math.isnan(v) for v in got[7:]) and len(got) == 9
        # NaN rows keep their input order (stable)
        assert [r[1] for p in partitions for r in p.to_rows()][7:] == [1, 4]

    def test_sorted_build(self):
        table = build_table("t", self.SCHEMA, self.rows(), 2,
                            Layout.sorted_by("x"))
        self.check(table.partitions)

    def test_recluster(self):
        catalog = Catalog(rows_per_partition=2)
        catalog.create_table_from_rows("t", self.SCHEMA, self.rows())
        catalog.recluster("t", "x")
        self.check(catalog.tables["t"].partitions)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
_AB = Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR)
BAD_BUILDS = {
    "short row": (_AB, [(1, "x"), (2,)], None, 1),
    "long row": (_AB, [(1, "x"), (2, "y", 3)], None, 1),
    "int in VARCHAR": (_AB, [(1, "x"), (2, 5)], None, 1),
    "str in INTEGER": (_AB, [(1, "x"), ("z", "y")], None, 1),
    "INTEGER overflow": (_AB, [(1, "x"), (2 ** 63, "y")], None, 1),
    "int in BOOLEAN": (Schema.of(b=DataType.BOOLEAN), [(True,), (1,)],
                       None, 1),
    "DOUBLE overflow": (Schema.of(d=DataType.DOUBLE), [(1.0,), (10 ** 400,)],
                        None, 1),
    "unknown key": (_AB, [(1, "x")], Layout.sorted_by("nope"), 1),
    "no keys": (_AB, [(1, "x")], Layout(kind="sorted"), 1),
    "unknown kind": (_AB, [(1, "x")], Layout(kind="zigzag"), 1),
    "zero rows per partition": (_AB, [(1, "x")], None, 0),
}


class TestErrorParity:
    @pytest.mark.parametrize("case", sorted(BAD_BUILDS))
    def test_same_exception_and_no_id_allocated(self, case):
        schema, rows, layout, rows_per_partition = BAD_BUILDS[case]
        with pytest.raises(Exception) as reference:
            row_build_table("t", schema, rows, rows_per_partition, layout)
        before = partition_id_generator._next
        with pytest.raises(Exception) as product:
            build_table("t", schema, rows, rows_per_partition, layout)
        assert product.type is reference.type
        assert partition_id_generator._next == before

    def test_table_builder_rejects_wrong_width_at_add_row(self):
        builder = TableBuilder("t", _AB, rows_per_partition=10)
        builder.add_row((1, "x"))
        with pytest.raises(SchemaError):
            builder.add_row((1,))


# ----------------------------------------------------------------------
# Rewrites: recluster after DML, WAL replay
# ----------------------------------------------------------------------
_KVS = Schema.of(k=DataType.DOUBLE, v=DataType.INTEGER, s=DataType.VARCHAR,
                 d=DataType.DATE)


def dml_catalog(rows_per_partition: int = 7, nan: bool = True,
                durability_dir=None) -> Catalog:
    """A shuffled table after a DELETE and an UPDATE whose NULL inputs
    leave non-dummy values under the null mask."""
    rng = random.Random(4)
    keys = [None, -0.0, 0.0, math.inf] + ([NAN] if nan else [])
    rows = [(rng.choice(keys + [round(rng.uniform(-9, 9), 1)] * 4),
             rng.choice([None, rng.randrange(60)]),
             rng.choice([None, "x", "", "\ud800", "y"]),
             rng.choice([None, datetime.date(2020, 1, 1 + i % 28)]))
            for i in range(300)]
    catalog = Catalog(rows_per_partition=rows_per_partition)
    if durability_dir is not None:
        catalog.enable_durability(durability_dir)
    catalog.create_table_from_rows("t", _KVS, rows,
                                   layout=Layout.random(seed=2))
    catalog.sql("DELETE FROM t WHERE v < 6")
    catalog.sql("UPDATE t SET v = v + 100 WHERE s = 'x'")
    return catalog


def garbage_under_nulls(table) -> bool:
    return any((p.column("v").values[p.column("v").nulls] != 0).any()
               for p in table.partitions)


class TestRewriteParity:
    def test_catalog_recluster(self):
        catalog = dml_catalog()
        table = catalog.tables["t"]
        assert garbage_under_nulls(table)  # the case worth pinning
        reference = row_build_table("t", _KVS, table.to_rows(), 5,
                                    Layout.sorted_by("k", "s"))
        catalog.recluster("t", "k", "s", rows_per_partition=5)
        assert_same_partitions(catalog.tables["t"].partitions,
                               reference.partitions)

    def test_incremental_slice(self):
        catalog = dml_catalog(nan=False)
        table = catalog.tables["t"]
        engine = IncrementalReclusterer(catalog)
        job = ReclusterJob(table="t", keys=("k", "v"), budget_bytes=4096)
        selected = engine._select_slice(table.partitions, "k",
                                        job.budget_bytes)
        assert len(selected) >= 2
        reference = row_build_table(
            "t", _KVS, [r for p in selected for r in p.to_rows()],
            catalog.rows_per_partition, Layout.sorted_by("k", "v"))
        before = set(table.partition_ids)
        report = engine.run_slice(job)
        added = [p for p in table.partitions
                 if p.partition_id not in before]
        assert report.partitions_selected == len(selected)
        assert_same_partitions(added, reference.partitions)

    def test_wal_replay_rebuilds_identical_partitions(self, tmp_path):
        catalog = dml_catalog(durability_dir=tmp_path / "d")
        catalog.insert("t", [(1.5, 7, "z", None), (None, None, None,
                                                   datetime.date(2021, 5, 5))])
        catalog.recluster("t", "k", "v")

        def state(c):
            return [(p.partition_id, p.checksum, p.to_rows())
                    for p in c.tables["t"].partitions]

        recovered = Catalog.recover(tmp_path / "d")
        assert repr(state(recovered)) == repr(state(catalog))


# ----------------------------------------------------------------------
# Call-count guard
# ----------------------------------------------------------------------
class TestOneConversionPerColumn:
    """Converting rows and computing zone maps cost a fixed number of
    calls per column, not per partition."""

    SCHEMA = Schema.of(a=DataType.INTEGER, b=DataType.DOUBLE)

    def counts(self, monkeypatch, partitions: int) -> Counter:
        counts: Counter = Counter()
        for owner, name in ((Column, "from_pylist"),
                            (ColumnStats, "from_column")):
            original = getattr(owner, name).__func__

            def counted(cls, *args, _original=original, _name=name):
                counts[_name] += 1
                return _original(cls, *args)

            monkeypatch.setattr(owner, name, classmethod(counted))
        rng = random.Random(1)
        rows = [(rng.randrange(10 ** 6), rng.random())
                for _ in range(partitions * 5)]
        catalog = Catalog(rows_per_partition=5)
        catalog.create_table_from_rows("t", self.SCHEMA, rows,
                                       layout=Layout.sorted_by("a"))
        catalog.recluster("t", "b")
        monkeypatch.undo()
        assert catalog.tables["t"].num_partitions == partitions
        return counts

    def test_same_calls_at_400_and_4000_partitions(self, monkeypatch):
        small = self.counts(monkeypatch, 400)
        large = self.counts(monkeypatch, 4000)
        assert small == large
        assert small["from_column"] == 0


# ----------------------------------------------------------------------
# Stats blocks against the per-partition objects they replaced
# ----------------------------------------------------------------------
_EXTREMES = {
    DataType.INTEGER: (2 ** 63 - 1, -2 ** 63),
    DataType.DATE: (2 ** 63 - 1, -2 ** 63),
    DataType.DOUBLE: (np.inf, -np.inf),
    DataType.BOOLEAN: (True, False),
}


def per_slice(column: Column, starts: list[int]) -> list[ColumnStats]:
    """The build's former ``ColumnStats.per_slice``: one ColumnStats per
    slice, reduceat per statistic, Python's min / max for VARCHAR."""
    stops = starts[1:] + [len(column)]
    nulls = column.nulls
    masked = nulls.any()
    null_counts = (np.add.reduceat(nulls, starts, dtype=np.int64).tolist()
                   if masked else [0] * len(starts))
    if column.dtype == DataType.VARCHAR:
        present = [column.values[start:stop][~nulls[start:stop]]
                   for start, stop in zip(starts, stops)]
        lows = [min(p, default=None) for p in present]
        highs = [max(p, default=None) for p in present]
    else:
        high, low = _EXTREMES[column.dtype]
        values = column.values
        lows = np.minimum.reduceat(
            np.where(nulls, high, values) if masked else values,
            starts).tolist()
        highs = np.maximum.reduceat(
            np.where(nulls, low, values) if masked else values,
            starts).tolist()
    return [ColumnStats(column.dtype,
                        lo if count < stop - start else None,
                        hi if count < stop - start else None,
                        count, stop - start)
            for lo, hi, count, start, stop
            in zip(lows, highs, null_counts, starts, stops)]


def pack_column(name: str, zone_maps: list[ZoneMap]):
    """The stats index's former packing: one zone map at a time."""
    n = len(zone_maps)
    present = np.zeros(n, dtype=bool)
    has_min = np.zeros(n, dtype=bool)
    rows = np.zeros(n, dtype=np.int64)
    nulls = np.zeros(n, dtype=np.int64)
    kind = None
    lo_vals = [None] * n
    hi_vals = [None] * n
    for i, zone_map in enumerate(zone_maps):
        stats = zone_map.columns.get(name)
        if stats is None or not stats.present:
            continue
        this_kind = si._kind_of(stats.dtype)
        if this_kind is None or (kind is not None and this_kind != kind):
            return None
        kind = this_kind
        present[i] = True
        rows[i] = stats.row_count
        nulls[i] = stats.null_count
        if stats.min_value is None:
            continue
        lo = si._pack_value(stats.min_value, kind)
        hi = si._pack_value(stats.max_value, kind)
        if lo is None or hi is None:
            return None
        has_min[i] = True
        lo_vals[i] = lo
        hi_vals[i] = hi
    kind = kind or si._INT_KIND
    np_dtype = {si._INT_KIND: np.int64, si._FLOAT_KIND: np.float64,
                si._STR_KIND: object}[kind]
    filler = "" if kind == si._STR_KIND else 0
    lo_arr = np.array([filler if v is None else v for v in lo_vals],
                      dtype=np_dtype)
    hi_arr = np.array([filler if v is None else v for v in hi_vals],
                      dtype=np_dtype)
    return si._ColumnVectors(kind, lo_arr, hi_arr, present, has_min,
                             rows, nulls)


def column_crc32(column: Column, state: int = 0) -> int:
    """The former ``Column.crc32``: one ``zlib.crc32`` per VARCHAR
    value, one per fixed-width buffer."""
    import zlib

    if column.dtype == DataType.VARCHAR:
        for value, is_null in zip(column.values, column.nulls):
            if is_null:
                state = zlib.crc32(b"\xff", state)
            else:
                encoded = value.encode("utf-8", "surrogatepass")
                state = zlib.crc32(
                    len(encoded).to_bytes(4, "little") + encoded, state)
    else:
        state = zlib.crc32(np.ascontiguousarray(
            column.values).tobytes(), state)
    return zlib.crc32(np.ascontiguousarray(column.nulls).tobytes(), state)


def same_stats(got: ColumnStats, want: ColumnStats) -> bool:
    return (type(got) is type(want) and got.dtype == want.dtype
            and same_scalar(got.min_value, want.min_value)
            and same_scalar(got.max_value, want.max_value)
            and same_scalar(got.null_count, want.null_count)
            and same_scalar(got.row_count, want.row_count)
            and got.present is want.present)


def assert_same_lanes(got, want):
    """Packed vectors, lane for lane: dtypes, bits (-0.0) and, on str
    lanes, the Python objects."""
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.kind == want.kind
    for slot in si._ColumnVectors.__slots__[1:]:
        g, w = getattr(got, slot), getattr(want, slot)
        assert g.dtype == w.dtype, slot
        if g.dtype == object:
            assert [(type(v), v) for v in g.tolist()] == \
                [(type(v), v) for v in w.tolist()], slot
        else:
            assert g.tobytes() == w.tobytes(), slot


def assert_index_equals_loop(index: StatsIndex, names):
    for name in names:
        got = index.column(name)
        want = pack_column(name, [zm for _, zm in index.entries()])
        assert_same_lanes(got, want)


@st.composite
def column_builds(draw):
    """Whole columns of every dtype: NULLs, NaN, -0.0, +-inf, 2**63-1,
    NUL-suffixed strings and lone surrogates; all-NULL slices and
    empty tables come with small partitions and short inputs."""
    schema, rows, rows_per_partition, layout = draw(builds())
    if draw(st.booleans()):  # a run of NULLs, often a whole slice
        at = draw(st.integers(0, len(rows)))
        rows[at:at] = [(None,) * len(schema)] * draw(st.integers(1, 6))
    return schema, rows, rows_per_partition, layout


class TestStatsBlockDifferential:
    @settings(max_examples=300, deadline=None)
    @given(column_builds())
    def test_views_lanes_and_checksums_equal_the_objects(self, case):
        schema, rows, rows_per_partition, layout = case
        table = build_table("t", schema, rows, rows_per_partition, layout)
        partitions = table.partitions
        index = StatsIndex((p.partition_id, p.zone_map) for p in partitions)
        for name in schema.names():
            index.column(name)
        # packing read the block, never a zone map's stats
        assert all(p.zone_map._stats is None for p in partitions)
        assert_index_equals_loop(index, schema.names())
        columns = concat_columns(schema, partitions)
        starts = [0]
        for p in partitions[:-1]:
            starts.append(starts[-1] + p.row_count)
        for f in schema:
            want = per_slice(columns[f.name], starts) if partitions else []
            got = [p.zone_map.stats(f.name) for p in partitions]
            assert all(map(same_stats, got, want)), (got, want)
            # materialised once, then kept
            assert all(p.zone_map.stats(f.name) is s
                       for p, s in zip(partitions, got))
        for p in partitions:
            assert list(p.zone_map.columns) == schema.names()
            state = 0
            for f in schema:
                state = column_crc32(p.column(f.name), state)
            assert p.checksum == p.compute_checksum() == state

    @settings(max_examples=60, deadline=None)
    @given(column_builds(), st.data())
    def test_mixed_indexes_equal_the_loop(self, case, data):
        """Blocks, hand-built and stat-less zone maps in one index."""
        schema, rows, rows_per_partition, layout = case
        partitions = [p for _ in range(2) for p in build_table(
            "t", schema, rows, rows_per_partition, layout).partitions]
        entries = []
        for p in partitions:
            how = data.draw(st.sampled_from(["view", "hand", "no stats"]))
            entries.append((p.partition_id, {
                "view": p.zone_map,
                "hand": ZoneMap.from_columns(p.columns()),
                "no stats": p.zone_map.without_stats()}[how]))
        order = data.draw(st.permutations(range(len(entries))))
        index = StatsIndex(entries[i] for i in order)
        assert_index_equals_loop(index, schema.names() + ["missing"])

    def test_dml_and_recluster_mix_blocks(self):
        catalog = dml_catalog(nan=False)
        names = _KVS.names()
        index = catalog.metadata.stats_index("t")
        assert_index_equals_loop(index, names)
        catalog.insert("t", [(1.5, 7, "a\x00", None),
                             (None, None, None, datetime.date(2021, 5, 5))])
        catalog.insert("t", [(2.5, 20, "\x00", None)] * 9)
        catalog.sql("DELETE FROM t WHERE v > 50")
        catalog.sql("UPDATE t SET s = 'z' WHERE k > 3.0")
        index = catalog.metadata.stats_index("t")
        # two insert blocks beside the rewrites' own zone maps
        assert len({zm.block for _, zm in index.entries()}) == 3
        assert_index_equals_loop(index, names)
        catalog.recluster("t", "k", rows_per_partition=9)
        assert_index_equals_loop(catalog.metadata.stats_index("t"), names)
        # NaN in a DOUBLE lane: unpackable, as the loop says
        catalog.insert("t", [(NAN, 1, "n", None)])
        index = catalog.metadata.stats_index("t")
        assert index.column("k") is None
        assert_index_equals_loop(index, names)


class TestBuildChecksOnce:
    """Names, dtypes and lengths are checked once per build, before any
    partition id is allocated."""

    SCHEMA = Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR)

    @pytest.mark.parametrize("columns", [
        {"a": Column.from_pylist(DataType.DOUBLE, [1.0, 2.0]),
         "s": Column.from_pylist(DataType.VARCHAR, ["x", "y"])},
        {"a": Column.from_pylist(DataType.INTEGER, [1, 2, 3]),
         "s": Column.from_pylist(DataType.VARCHAR, ["x", "y"])},
        {"a": Column.from_pylist(DataType.INTEGER, [1, 2])},
    ], ids=["bad dtype", "ragged", "missing"])
    def test_schema_error_before_any_id(self, columns):
        before = partition_id_generator._next
        with pytest.raises(SchemaError):
            build_table_from_columns("t", self.SCHEMA, columns, 1)
        assert partition_id_generator._next == before


# ----------------------------------------------------------------------
# Partitions are row ranges of one column block per build
# ----------------------------------------------------------------------
def rule_nbytes(column: Column) -> int:
    """``Column.nbytes``'s documented rule, value by value."""
    if column.dtype == DataType.VARCHAR:
        return len(column) + sum(
            len(v) for v, null in zip(column.values.tolist(),
                                      column.nulls.tolist()) if not null)
    return len(column) * (column.values.itemsize + 1)


def assert_block_equals_reference(product, reference):
    """Block-backed ``product`` against per-partition ``reference``:
    rows, sizes, checksums and zone maps."""
    assert_same_partitions(product, reference)
    for got, want in zip(product, reference):
        names = want.schema.names()
        assert repr(got.to_rows()) == repr(want.to_rows())
        assert got.checksum == got.compute_checksum() == want.checksum
        sizes = {n: rule_nbytes(want.column(n)) for n in names}
        assert got.nbytes() == want.nbytes() == sum(sizes.values())
        for n in names:
            assert got.project_bytes([n]) == sizes[n]
        assert got.project_bytes(names[::-1]) == sum(sizes.values())
        got.verify_integrity()


class TestColumnBlock:
    @settings(max_examples=200, deadline=None)
    @given(builds())
    def test_block_partitions_equal_the_per_partition_reference(self, case):
        """NULLs, NUL suffixes and lone surrogates come from the strategy;
        so do layouts, whose permutation makes the block's one copy."""
        schema, rows, rows_per_partition, layout = case
        product = build_table("t", schema, rows, rows_per_partition,
                              layout).partitions
        assert len({id(p._block) for p in product}) <= 1
        assert all(p._columns is None for p in product)
        reference = row_build_table("t", schema, rows, rows_per_partition,
                                    layout).partitions
        assert_block_equals_reference(product, reference)
        decoded = decode_partitions(schema,
                                    encode_partitions(schema, product))
        assert [p.partition_id for p in decoded] == \
            [p.partition_id for p in product]
        assert len({id(p._block) for p in decoded}) <= 1
        assert_block_equals_reference(decoded, reference)

    def test_special_values_sketch_and_scan_through_the_block(self):
        schema = Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR)
        rows = [(i, [None, "a\x00", "\ud800", "x\x00\x00", "é"][i % 5])
                for i in range(40)]
        catalog = Catalog(rows_per_partition=4)
        catalog.create_table_from_rows("t", schema, rows,
                                       layout=Layout.sorted_by("s"))
        reference = row_build_table("t", schema, rows, 4,
                                    Layout.sorted_by("s")).partitions
        product = catalog.tables["t"].partitions
        assert_block_equals_reference(product, reference)
        assert sorted(catalog.sql("SELECT a, s FROM t").rows,
                      key=repr) == sorted(rows, key=repr)
        assert catalog.sql(
            "SELECT count(*) AS c FROM t WHERE s = 'a\x00'").rows == [(8,)]

    def table(self):
        schema = Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR)
        return build_table("t", schema, [(i, str(i)) for i in range(30)],
                           5)

    def test_adjacent_partitions_concatenate_to_views(self):
        table = self.table()
        block = table.partitions[0]._block
        for low, high in ((0, 6), (1, 3), (2, 5)):
            got = concat_columns(table.schema, table.partitions[low:high])
            for name, column in got.items():
                whole = block.columns[name]
                assert np.shares_memory(column.values, whole.values)
                assert np.shares_memory(column.nulls, whole.nulls)
                a, b = block.bounds[low], block.bounds[high]
                assert column.values.tolist() == whole.values[a:b].tolist()
        # a batch of adjacent partitions makes no per-partition view
        assert all(p._columns is None for p in table.partitions[1:])

    def test_other_batches_concatenate(self):
        table, other = self.table(), self.table()
        for batch in ([table.partitions[0], table.partitions[2]],
                      table.partitions[3:1:-1],
                      [table.partitions[5], other.partitions[0]],
                      [table.partitions[0], other.partitions[1]],
                      [table.partitions[4], table.partitions[4]]):
            got = concat_columns(table.schema, batch)
            for name, column in got.items():
                want = Column.concat([p.column(name) for p in batch])
                assert column.values.tolist() == want.values.tolist()
                assert column.nulls.tolist() == want.nulls.tolist()
                assert not np.shares_memory(
                    column.values, batch[0]._block.columns[name].values)

    def test_empty_batch_is_empty_columns(self):
        schema = Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR)
        got = concat_columns(schema, [])
        assert [(n, c.dtype, len(c)) for n, c in got.items()] == \
            [("a", DataType.INTEGER, 0), ("s", DataType.VARCHAR, 0)]

    def test_a_loaded_column_is_read_only(self):
        catalog = Catalog(rows_per_partition=5)
        catalog.create_table_from_rows(
            "t", Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR),
            [(i, "x") for i in range(20)])
        pid = catalog.tables["t"].partition_ids[1]
        column = catalog.storage.load(pid).column("a")
        with pytest.raises(ValueError):
            column.values[0] = 99
        with pytest.raises(ValueError):
            column.nulls[0] = True
        whole = concat_columns(catalog.tables["t"].schema,
                               catalog.tables["t"].partitions)["s"]
        with pytest.raises(ValueError):
            whole.values[0] = "y"
        assert catalog.sql("SELECT sum(a) AS s FROM t").rows == [(190,)]

    @pytest.mark.parametrize("sql", ["DELETE FROM t WHERE a = 7",
                                     "UPDATE t SET a = 70 WHERE a = 7"])
    def test_a_rewrite_leaves_its_siblings_intact(self, sql):
        catalog = Catalog(rows_per_partition=5)
        rows = [(i, f"s{i}") for i in range(30)]
        catalog.create_table_from_rows(
            "t", Schema.of(a=DataType.INTEGER, s=DataType.VARCHAR), rows)
        before = {p.partition_id: p.to_rows()
                  for p in catalog.tables["t"].partitions}
        catalog.sql(sql)
        after = catalog.tables["t"].partitions
        kept = [p for p in after if p.partition_id in before]
        assert len(kept) == len(before) - 1
        for p in kept:
            assert p.to_rows() == before[p.partition_id]
            p.verify_integrity()
        (new,) = [p for p in after if p.partition_id not in before]
        want = [(70, "s7")] if sql.startswith("UPDATE") else []
        assert new.to_rows() == [(5, "s5"), (6, "s6")] + want + \
            [(8, "s8"), (9, "s9")]
        assert sorted(r for p in after for r in p.to_rows()) == sorted(
            [r for r in rows if r[0] != 7] + want)
