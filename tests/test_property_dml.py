"""Property-based DML testing: a random interleaving of INSERT /
DELETE / UPDATE / SELECT / save-and-load against a Python shadow copy
of the table.

Catches pruning-vs-DML interactions: stale metadata after partition
rewrites, predicate-cache corruption, partition-id reuse, and a table
version (what the caches key on) that goes backwards."""

from __future__ import annotations

import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Catalog, DataType, Layout, Schema

SCHEMA = Schema.of(k=DataType.INTEGER, v=DataType.INTEGER)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.lists(st.tuples(st.integers(0, 50),
                                     st.integers(-20, 20)),
                           min_size=1, max_size=8)),
        st.tuples(st.just("delete"), st.integers(0, 50)),
        st.tuples(st.just("update"), st.integers(0, 50),
                  st.integers(-5, 5)),
        st.tuples(st.just("query"), st.integers(0, 50)),
        st.tuples(st.just("topk"), st.integers(1, 6)),
        st.tuples(st.just("reload")),
    ),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(initial=st.lists(st.tuples(st.integers(0, 50),
                                  st.integers(-20, 20)),
                        min_size=0, max_size=40),
       ops=operations, use_cache=st.booleans())
def test_dml_sequence_matches_shadow(initial, ops, use_cache):
    catalog = Catalog(rows_per_partition=5)
    catalog.create_table_from_rows("t", SCHEMA, initial,
                                   layout=Layout.sorted_by("k"))
    if use_cache:
        catalog.enable_predicate_cache()
    shadow = list(initial)
    version = catalog.table_version("t")

    for op in ops:
        kind = op[0]
        # DML moves the version forwards, nothing moves it backwards.
        assert catalog.table_version("t") >= version
        version = catalog.table_version("t")
        if kind == "reload":
            with tempfile.TemporaryDirectory() as path:
                catalog.save(path)
                catalog = Catalog.load(path)
            if use_cache:
                catalog.enable_predicate_cache()
            assert catalog.table_version("t") == version
        elif kind == "insert":
            rows = op[1]
            catalog.insert("t", rows)
            shadow.extend(rows)
        elif kind == "delete":
            threshold = op[1]
            result = catalog.sql(f"DELETE FROM t WHERE k < {threshold}")
            expected = sum(1 for r in shadow if r[0] < threshold)
            assert result.rows == [(expected,)]
            shadow = [r for r in shadow if not r[0] < threshold]
        elif kind == "update":
            threshold, delta = op[1], op[2]
            result = catalog.sql(
                f"UPDATE t SET v = v + {delta} WHERE k >= {threshold}")
            expected = sum(1 for r in shadow if r[0] >= threshold)
            assert result.rows == [(expected,)]
            shadow = [(k, v + delta) if k >= threshold else (k, v)
                      for k, v in shadow]
        elif kind == "query":
            threshold = op[1]
            result = catalog.sql(
                f"SELECT * FROM t WHERE k >= {threshold}")
            expected = sorted(r for r in shadow if r[0] >= threshold)
            assert sorted(result.rows) == expected
        else:  # topk
            k = op[1]
            result = catalog.sql(
                f"SELECT * FROM t ORDER BY v DESC, k ASC LIMIT {k}")
            expected = sorted(shadow, key=lambda r: (-r[1], r[0]))[:k]
            assert result.rows == expected

    # final full-table check
    assert catalog.table_version("t") >= version
    assert sorted(catalog.tables["t"].to_rows()) == sorted(shadow)
    assert catalog.metadata.table_row_count("t") == len(shadow)
