"""The column codec against the live catalog it encodes.

Tables are cut by hand, so partition sizes are uneven and NULL slots
hold arbitrary bits (as an ``UPDATE`` of a NULL input leaves them);
values take the edges of every dtype: NaN with any payload, -0.0,
+-inf, the int64 extremes, NUL-suffixed strings, lone surrogates, empty
strings and all-NULL VARCHAR columns, zero-row tables and hand-made
empty partitions. A ``DELETE`` and an ``INSERT`` follow, so the WAL
holds one ``create``, one ``rewrite`` and one ``insert`` record.

Each case then goes through ``save_catalog`` / ``load_catalog``,
through WAL replay and through a checkpoint + ``recover``, and every
result must equal the live catalog: partition ids and order, values bit
for bit (NULL slots included), null masks, stored and recomputed
checksums, table versions, materialised zone-map stats and the stats
index's lanes.
"""

from __future__ import annotations

import datetime
import json
import math
import shutil
import struct
import tempfile
from dataclasses import astuple
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import Catalog
from repro.durability.codec import (decode_partitions, encode_partitions,
                                    insert_record, record_partitions)
from repro.expr.ast import IsNull, col
from repro.persistence import load_catalog, save_catalog
from repro.pruning import stats_index as si
from repro.storage.column import Column
from repro.storage.micropartition import MicroPartition
from repro.storage.table import Table
from repro.types import DataType, Field, Schema

_STRINGS = ["", "a", "a\x00", "\x00", "\x00\x00", "\ud800", "a\udfff",
            "\U0010ffff", "é", "ab"]
_DOUBLES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5,
            struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0BAD))[0]]
_INT64 = [-2 ** 63, 2 ** 63 - 1, 0, -1, 7]


def present_values(dtype: DataType):
    """Python values ``Column.from_pylist`` accepts for ``dtype``."""
    if dtype == DataType.INTEGER:
        return st.one_of(st.sampled_from(_INT64),
                         st.integers(-2 ** 63, 2 ** 63 - 1))
    if dtype == DataType.DOUBLE:
        return st.one_of(st.sampled_from(_DOUBLES), st.floats())
    if dtype == DataType.VARCHAR:
        return st.one_of(st.sampled_from(_STRINGS), st.text(max_size=3))
    if dtype == DataType.BOOLEAN:
        return st.booleans()
    return st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31))


def raw_values(dtype: DataType):
    """Stored values: under a NULL, anything of the storage dtype."""
    if dtype == DataType.DOUBLE:  # any bit pattern, NaN payloads too
        return st.integers(0, 2 ** 64 - 1).map(
            lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    if dtype == DataType.DATE:
        return st.integers(-2 ** 63, 2 ** 63 - 1)
    return present_values(dtype)


@st.composite
def columns_of(draw, dtype: DataType, n: int) -> Column:
    nulls = (np.ones(n, np.bool_) if draw(st.integers(0, 5)) == 0
             else np.array(draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)), np.bool_))
    items = [draw(raw_values(dtype)) if is_null
             else draw(present_values(dtype)) for is_null in nulls]
    values = Column.from_pylist(dtype, items).values
    return Column(dtype, values, nulls)


@st.composite
def cases(draw):
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=1,
                           max_size=5))
    schema = Schema(Field(f"c{i}", d) for i, d in enumerate(dtypes))
    sizes = draw(st.lists(st.one_of(st.integers(1, 6), st.just(0)),
                          max_size=5))
    n = sum(sizes)
    columns = {f.name: draw(columns_of(f.dtype, n)) for f in schema}
    starts = np.cumsum([0] + sizes).tolist()
    partitions = [MicroPartition(schema, {
        name: Column(c.dtype, c.values[a:b].copy(), c.nulls[a:b].copy())
        for name, c in columns.items()}) for a, b in zip(starts, starts[1:])]
    inserted = draw(st.lists(st.tuples(*[
        st.one_of(st.none(), present_values(d)) for d in dtypes]),
        max_size=6))
    return schema, partitions, inserted, draw(st.integers(1, 4))


# ----------------------------------------------------------------------
# What must survive
# ----------------------------------------------------------------------
def _objects(array: np.ndarray) -> list:
    return [(type(v).__name__, repr(v)) for v in array.tolist()]


def _lanes(vectors) -> object:
    if vectors is None:
        return None
    return [vectors.kind] + [
        (lane.dtype.str, _objects(lane) if lane.dtype == object
         else lane.tobytes())
        for lane in (getattr(vectors, slot)
                     for slot in si._ColumnVectors.__slots__[1:])]


def state(catalog: Catalog) -> dict:
    out = {}
    for name, table in sorted(catalog.tables.items()):
        names = table.schema.names()
        partitions = []
        for p in table.partitions:
            columns = [(c.values.dtype.str,
                        _objects(c.values) if c.values.dtype == object
                        else c.values.tobytes(), c.nulls.tobytes())
                       for c in map(p.column, names)]
            stats = [_objects(np.array(astuple(p.zone_map.stats(n)),
                                       dtype=object)) for n in names]
            partitions.append((p.partition_id, p.row_count, p.checksum,
                               p.compute_checksum(), columns, stats))
        index = catalog.metadata.stats_index(name)
        out[name] = (table.version, [(f.name, f.dtype) for f in table.schema],
                     partitions, [_lanes(index.column(n)) for n in names])
    return out


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
class TestCodecDifferential:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_every_durable_path_returns_the_live_catalog(self, case):
        schema, partitions, inserted, rows_per_partition = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            live = Catalog(rows_per_partition=rows_per_partition)
            live.enable_durability(root / "d")       # empty baseline
            live.create_table(Table("t", schema, partitions))
            live.delete_where("t", IsNull(col("c0")))  # rewrite record
            live.insert("t", inserted)                 # insert record
            expected = state(live)

            shutil.copytree(root / "d", root / "wal")
            replayed = Catalog.recover(root / "wal")
            assert replayed.durability.recovered["replayed"] >= 1
            assert state(replayed) == expected
            replayed.durability.close()

            save_catalog(live, root / "snap")
            assert state(load_catalog(root / "snap")) == expected

            live.checkpoint()
            shutil.copytree(root / "d", root / "ckpt")
            recovered = Catalog.recover(root / "ckpt")
            assert recovered.durability.recovered["replayed"] == 0
            assert state(recovered) == expected
            recovered.durability.close()
            live.durability.close()

    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_a_wal_payload_round_trips(self, case):
        schema, partitions, _, _ = case
        decoded = record_partitions(schema, json.loads(json.dumps(
            insert_record(Table("t", schema), partitions))))
        assert [p.partition_id for p in decoded] == \
            [p.partition_id for p in partitions]
        assert [p.checksum for p in decoded] == \
            [p.compute_checksum() for p in partitions]
        # block-backed like built partitions, no ColumnStats made
        assert all(p.zone_map._stats is None for p in decoded
                   if p.row_count)


class TestDecodeRejectsMismatchedArrays:
    SCHEMA = Schema.of(k=DataType.INTEGER, s=DataType.VARCHAR)

    def arrays(self):
        return encode_partitions(self.SCHEMA, [MicroPartition.from_rows(
            self.SCHEMA, [(1, "a"), (2, None)])])

    def test_row_counts_must_cut_the_columns(self):
        arrays = self.arrays()
        arrays["rows"] = np.array([3], np.int64)
        with pytest.raises(ValueError):
            decode_partitions(self.SCHEMA, arrays)

    def test_ids_and_row_counts_must_pair_up(self):
        arrays = self.arrays()
        arrays["ids"] = np.array([1, 2], np.int64)
        with pytest.raises(ValueError):
            decode_partitions(self.SCHEMA, arrays)
