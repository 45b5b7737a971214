"""The column codec: partitions as flat named arrays, for snapshots and
logical WAL redo records alike.

:func:`encode_partitions` writes partitions of one schema as ``ids`` and
``rows`` (int64 partition ids and row counts) plus, per column, the
values and null mask of every partition end to end (``<col>.values``,
``<col>.nulls``); VARCHAR values are one UTF-8 (``surrogatepass``) byte
buffer beside each value's code-point length (``<col>.lengths``), so
trailing NULs and lone surrogates survive. :func:`decode_partitions`
cuts the arrays back like a build (explicit ids, one stats block,
checksums over slices), NULL slots untouched, so ids, values and
checksums come back bit for bit. A WAL record carries them as JSON: a
``[name, dtype string, length]`` list beside the base64 of all their
bytes end to end, deflated at level 1. No pickling anywhere on the
durability path.
"""

from __future__ import annotations

import base64
import zlib
from typing import Any, Mapping, Sequence

import numpy as np

from ..storage.builder import cut_partitions
from ..storage.column import Column
from ..storage.micropartition import (MicroPartition, checked_columns,
                                      concat_columns)
from ..storage.table import Table
from ..types import DataType, Field, Schema

__all__ = [
    "create_record", "decode_partitions", "decode_schema", "drop_record",
    "encode_partitions", "encode_schema", "insert_record",
    "record_partitions", "rewrite_record",
]


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
def encode_schema(schema: Schema) -> list[list[str]]:
    return [[f.name, f.dtype.value] for f in schema]


def decode_schema(data: Sequence[Sequence[str]]) -> Schema:
    return Schema(Field(name, DataType(dtype)) for name, dtype in data)


# ----------------------------------------------------------------------
# Partitions <-> arrays
# ----------------------------------------------------------------------
def encode_partitions(schema: Schema,
                      partitions: Sequence[MicroPartition]
                      ) -> dict[str, np.ndarray]:
    """The partitions (all of ``schema``) as flat named arrays."""
    arrays = {
        "ids": np.array([p.partition_id for p in partitions], np.int64),
        "rows": np.array([p.row_count for p in partitions], np.int64),
    }
    for name, column in concat_columns(schema, partitions).items():
        values = column.values
        if column.dtype == DataType.VARCHAR:
            text = values.tolist()
            arrays[f"{name}.lengths"] = np.fromiter(
                map(len, text), np.int64, len(text))
            values = np.frombuffer("".join(text).encode(
                "utf-8", "surrogatepass"), np.uint8)
        arrays[f"{name}.values"] = values
        arrays[f"{name}.nulls"] = column.nulls
    return arrays


def decode_partitions(schema: Schema, arrays: Mapping[str, np.ndarray]
                      ) -> list[MicroPartition]:
    """The partitions :func:`encode_partitions` wrote, bit for bit;
    ValueError or KeyError when the arrays do not fit together."""
    ids = np.asarray(arrays["ids"], np.int64)
    rows = np.asarray(arrays["rows"], np.int64)
    columns = {}
    for field in schema:
        values = arrays[f"{field.name}.values"]
        if field.dtype == DataType.VARCHAR:
            text = np.asarray(values, np.uint8).tobytes().decode(
                "utf-8", "surrogatepass")
            bounds = np.cumsum(arrays[f"{field.name}.lengths"]).tolist()
            values = np.array([text[a:b] for a, b in zip(
                [0] + bounds, bounds)], dtype=object)
        columns[field.name] = Column(
            field.dtype, np.asarray(values, field.dtype.numpy_dtype()),
            np.asarray(arrays[f"{field.name}.nulls"], np.bool_))
    columns, n = checked_columns(schema, columns)
    if len(ids) != len(rows) or n != rows.sum() or (rows < 0).any():
        raise ValueError(f"{len(ids)} ids and row counts {rows.tolist()}"
                         f" do not cut {n} rows")
    kept = rows > 0  # a build makes no empty partition; a hand may
    built = iter(cut_partitions(schema, columns, (rows.cumsum() - rows)[kept],
                                ids=ids[kept].tolist()))
    empty = {f.name: Column.all_null(f.dtype, 0) for f in schema}
    return [next(built) if full else MicroPartition(
        schema, empty, partition_id=pid)
        for pid, full in zip(ids.tolist(), kept.tolist())]


def record_partitions(schema: Schema, record: Mapping[str, Any]
                      ) -> list[MicroPartition]:
    """The partitions a create / insert / rewrite record adds."""
    payload, arrays, offset = record["partitions"], {}, 0
    data = zlib.decompress(base64.b64decode(payload["data"]))
    for name, dtype, count in payload["arrays"]:
        arrays[name] = np.frombuffer(data, np.dtype(dtype), count, offset)
        offset += arrays[name].nbytes
    return decode_partitions(schema, arrays)


# ----------------------------------------------------------------------
# Record constructors (one per committed mutation kind)
# ----------------------------------------------------------------------
def _partitions(table: Table, partitions: Sequence[MicroPartition]
                ) -> dict[str, Any]:
    # one deflate call per record: one per array slows a 200-row insert
    arrays = encode_partitions(table.schema, partitions)
    data = b"".join(map(np.ndarray.tobytes, arrays.values()))
    return {"arrays": [[name, a.dtype.str, len(a)]
                       for name, a in arrays.items()],
            "data": base64.b64encode(zlib.compress(data, 1)).decode()}


def create_record(table: Table) -> dict[str, Any]:
    """CREATE TABLE: schema plus the initial partition layout."""
    return {
        "op": "create",
        "table": table.name,
        "schema": encode_schema(table.schema),
        "partitions": _partitions(table, table.partitions),
    }


def insert_record(table: Table,
                  partitions: Sequence[MicroPartition]
                  ) -> dict[str, Any]:
    """INSERT: the freshly built partitions appended to the table."""
    return {
        "op": "insert",
        "table": table.name,
        "partitions": _partitions(table, partitions),
    }


def rewrite_record(table: Table, kind: str,
                   removed_ids: Sequence[int],
                   partitions: Sequence[MicroPartition],
                   columns: Sequence[str] | None = None
                   ) -> dict[str, Any]:
    """DELETE / UPDATE / RECLUSTER: a partition-wise rewrite.

    ``kind`` labels the mutation for the predicate-cache invalidation
    hooks replay must re-run; ``columns`` names the rewritten columns
    for ``kind == "update"``.
    """
    record: dict[str, Any] = {
        "op": "rewrite",
        "table": table.name,
        "kind": kind,
        "removed": list(removed_ids),
        "partitions": _partitions(table, partitions),
    }
    if columns is not None:
        record["columns"] = list(columns)
    return record


def drop_record(table_name: str) -> dict[str, Any]:
    return {"op": "drop", "table": table_name}
