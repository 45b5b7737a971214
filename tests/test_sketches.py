"""Differential tests for secondary sketches (pruning/sketches.py).

The engine with sketch pruning enabled must return bit-identical rows
to the same engine without sketches (the scalar no-sketch oracle), and
the scalar and vectorized sketch probes must agree partition by
partition — over adversarial unicode, NULL-heavy columns, degraded or
fault-injected metadata, and interleaved DML/recluster.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.catalog import Catalog
from repro.expr import ast
from repro.expr.eval import evaluate_predicate
from repro.pruning import ScanSet
from repro.pruning.sketches import (
    _IMPOSSIBLE,
    DictionarySketch,
    HistogramSketch,
    NGramSketch,
    SketchConfig,
    SketchIndex,
    SketchPruner,
    build_partition_sketches,
    compile_sketch_probes,
    is_sketch_prunable,
    normalize_member,
)
from repro.types import DataType, Field, Schema

from faults import METADATA, FaultInjector, FaultSpec, install_faults

SCHEMA = Schema([Field("s", DataType.VARCHAR),
                 Field("k", DataType.INTEGER),
                 Field("v", DataType.DOUBLE)])

#: hand-picked adversarial strings: combining marks, BMP edge, the
#: maximum codepoint (the prefix-successor trap), and near-misses of
#: each other's 3-gram sets
NASTY_FIXED = [
    "", "a", "ab", "abc", "abcd", "aabbcc", "héllo", "éclair",
    "\U0010ffff", "ab\U0010ffff", "\U0010ffff\U0010ffffx",
    "ＡＢＣ", "￿-￿", "  spaced  ", "abcabc",
]
NASTY = st.one_of(
    st.sampled_from(NASTY_FIXED),
    st.text(alphabet=st.characters(min_codepoint=32,
                                   max_codepoint=0x10FFFF),
            max_size=10))


def make_rows(texts, ints, doubles):
    n = max(len(texts), len(ints), len(doubles), 1)
    rows = []
    for i in range(n):
        rows.append([
            texts[i % len(texts)] if texts else None,
            ints[i % len(ints)] if ints else None,
            doubles[i % len(doubles)] if doubles else None,
        ])
    return rows


def build_pair(rows, rows_per_partition=4):
    """(sketched catalog, plain oracle catalog) over identical rows."""
    sketched = Catalog(rows_per_partition=rows_per_partition)
    sketched.create_table_from_rows("t", SCHEMA, rows)
    sketched.enable_sketches(SketchConfig(dictionary_max_entries=32))
    plain = Catalog(rows_per_partition=rows_per_partition)
    plain.create_table_from_rows("t", SCHEMA, rows)
    return sketched, plain


def freeze(rows):
    return Counter(tuple(map(repr, row)) for row in rows)


def assert_equivalent(sketched, plain, sql):
    got = sketched.sql(sql)
    want = plain.sql(sql)
    assert freeze(got.rows) == freeze(want.rows), sql
    return got


def assert_pruner_sound(catalog, predicate):
    """Scalar == vectorized verdicts, and every pruned partition
    provably has zero rows satisfying the predicate."""
    schema = catalog.schema_of("t")
    sketches = catalog.sketches_of("t")
    index = catalog.sketch_index("t")
    scan_set = catalog.scan_set("t")
    scalar = SketchPruner(predicate, schema, sketches)
    vector = SketchPruner(predicate, schema, sketches, index=index)
    kept_scalar = scalar.prune(scan_set).kept.partition_ids
    kept_vector = vector.prune(scan_set).kept.partition_ids
    assert kept_scalar == kept_vector
    pruned = set(scan_set.partition_ids) - set(kept_scalar)
    by_id = {p.partition_id: p
             for p in catalog.tables["t"].partitions}
    for pid in pruned:
        mask = evaluate_predicate(predicate, by_id[pid].columns(),
                                  schema)
        assert not mask.any(), (
            f"partition {pid} pruned but has matching rows")


def per_partition_prune(pruner, scan_set):
    """The per-partition loop ``SketchPruner.prune`` replaced, kept as
    its reference: each partition runs the probes in order, a lane
    answering where its row is covered and the scalar sketch probe
    elsewhere, and the first failing probe prunes it. Returns (kept
    ids, pruned ids, checks, pruned-by-kind)."""
    vectors, row_of = {}, {}
    if pruner.index is not None and pruner.sketches:
        row_of = {pid: row for row, pid
                  in enumerate(pruner.index.partition_ids.tolist())}
        for position, probe in enumerate(pruner.probes):
            result = pruner.index.evaluate(probe)
            if result is not None:
                vectors[position] = result

    def might_match(position, probe, pid):
        vector, row = vectors.get(position), row_of.get(pid)
        if vector is not None and row is not None and vector[1][row]:
            return bool(vector[0][row])
        sketches = pruner.sketches.get(pid)
        return sketches is None or sketches.might_match(probe)

    kept, pruned, checks, by_kind = [], [], 0, Counter()
    for pid in scan_set.partition_ids:
        failed = None
        if pruner.probes and pruner.sketches \
                and pid not in scan_set.degraded_ids:
            for position, probe in enumerate(pruner.probes):
                checks += 1
                if not might_match(position, probe, pid):
                    failed = probe.kind
                    break
        if failed is None:
            kept.append(pid)
        else:
            pruned.append(pid)
            by_kind[failed] += 1
    return kept, pruned, checks, dict(by_kind)


def sql_safe(needle: str) -> bool:
    return "'" not in needle and "\\" not in needle


class TestUnitSketches:
    def test_ngram_no_false_negatives(self):
        values = ["hello world", "héllo", None, "", "ab"]
        sketch = NGramSketch.build(values, SketchConfig())
        for value in values:
            if value:
                assert sketch.might_match_runs([value])
        assert not sketch.might_match_runs(["zzz"])

    def test_ngram_all_null_column_rejects(self):
        sketch = NGramSketch.build([None, None], SketchConfig())
        # CONTAINS over an all-NULL column is NULL everywhere: a
        # needle-bearing probe must prune, which is sound.
        assert not sketch.might_match_runs(["abc"])

    def test_ngram_too_distinct_fails_open(self):
        values = [f"unique-string-{i:06d}" for i in range(2000)]
        assert NGramSketch.build(
            values, SketchConfig(max_ngrams=64)) is None

    def test_dictionary_membership(self):
        sketch = DictionarySketch.build(
            [1, 2, 3, None], DataType.INTEGER, SketchConfig())
        for v in (1, 2, 3):
            assert sketch.might_contain(v)
        assert not sketch.might_contain(99)

    def test_dictionary_overflow_fails_open(self):
        assert DictionarySketch.build(
            list(range(100)), DataType.INTEGER,
            SketchConfig(dictionary_max_entries=16)) is None

    def test_histogram_occupancy(self):
        sketch = HistogramSketch.build(
            [0.0, 1.0, 100.0], SketchConfig(histogram_buckets=10))
        for v in (0.0, 1.0, 100.0):
            assert sketch.might_contain(v)
        assert not sketch.might_contain(-5.0)
        assert not sketch.might_contain(50.0)  # empty middle bucket

    def test_histogram_nan_fails_open(self):
        assert HistogramSketch.build(
            [1.0, float("nan")], SketchConfig()) is None

    def test_normalize_negative_zero(self):
        # -0.0 == 0.0 must hash identically for DOUBLE dictionaries.
        a = normalize_member(-0.0, DataType.DOUBLE)
        b = normalize_member(0.0, DataType.DOUBLE)
        assert repr(a) == repr(b) == "0.0"

    def test_normalize_bool_is_not_int(self):
        assert normalize_member(True, DataType.BOOLEAN) is True
        assert normalize_member(True, DataType.INTEGER) is None

    def test_normalize_cross_type_equality(self):
        # 3 == 3.0: both sides reach one canonical value.
        assert normalize_member(3.0, DataType.INTEGER) == 3
        assert normalize_member(3, DataType.DOUBLE) == 3.0
        # 2.5 can never equal an INTEGER: the candidate is droppable.
        assert normalize_member(2.5, DataType.INTEGER) is _IMPOSSIBLE

    def test_probe_compilation(self):
        pred = ast.And(
            ast.Contains(ast.col("s"), "needle"),
            ast.Compare("=", ast.col("k"), ast.lit(3)),
            ast.Compare(">", ast.col("v"), ast.lit(0.0)))
        probes = compile_sketch_probes(pred, SCHEMA)
        assert {p.kind for p in probes} == {"ngram", "member"}
        assert is_sketch_prunable(pred, SCHEMA)
        # disjunctions are never probed
        assert not is_sketch_prunable(
            ast.Or(ast.Contains(ast.col("s"), "xyz"),
                   ast.Compare("=", ast.col("k"), ast.lit(1))),
            SCHEMA)

    def test_short_needle_not_probed(self):
        assert not is_sketch_prunable(
            ast.Contains(ast.col("s"), "ab"), SCHEMA, ngram_size=3)


class TestDifferentialHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(
        texts=st.lists(st.one_of(NASTY, st.none()),
                       min_size=1, max_size=30),
        ints=st.lists(st.one_of(st.integers(-50, 50), st.none()),
                      min_size=1, max_size=30),
        needle=NASTY,
    )
    def test_engine_matches_no_sketch_oracle(self, texts, ints,
                                             needle):
        rows = make_rows(texts, ints, [0.5, None, -0.0, 3.25])
        sketched, plain = build_pair(rows)
        queries = [
            "SELECT * FROM t WHERE k = 7",
            "SELECT * FROM t WHERE k IN (1, 2, 60)",
        ]
        if sql_safe(needle):
            queries += [
                f"SELECT * FROM t WHERE CONTAINS(s, '{needle}')",
                f"SELECT * FROM t WHERE ENDSWITH(s, '{needle}')",
                "SELECT s, k FROM t WHERE "
                f"CONTAINS(s, '{needle}') AND k = 3",
            ]
            if "%" not in needle and "_" not in needle:
                queries.append(
                    f"SELECT * FROM t WHERE s LIKE '%{needle}%'")
        for sql in queries:
            assert_equivalent(sketched, plain, sql)

    @settings(max_examples=25, deadline=None)
    @given(
        texts=st.lists(st.one_of(NASTY, st.none()),
                       min_size=1, max_size=25),
        ints=st.lists(st.one_of(st.integers(-30, 30), st.none()),
                      min_size=1, max_size=25),
        doubles=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False,
                          width=32),
                st.none()),
            min_size=1, max_size=25),
        needle=NASTY,
        literal=st.integers(-35, 35),
    )
    def test_pruner_sound_and_scalar_equals_vectorized(
            self, texts, ints, doubles, needle, literal):
        rows = make_rows(texts, ints, doubles)
        sketched, _ = build_pair(rows)
        predicates = [
            ast.Contains(ast.col("s"), needle),
            ast.EndsWith(ast.col("s"), needle),
            ast.Compare("=", ast.col("k"), ast.lit(literal)),
            ast.Compare("=", ast.col("v"), ast.lit(float(literal))),
            ast.InList(ast.col("k"), [1, 2, 3]),
            ast.And(ast.Contains(ast.col("s"), needle),
                    ast.Compare("=", ast.col("k"),
                                ast.lit(literal))),
        ]
        if "%" not in needle and "_" not in needle:
            predicates.append(ast.Like(ast.col("s"), f"%{needle}%"))
        for predicate in predicates:
            assert_pruner_sound(sketched, predicate)

    @settings(max_examples=20, deadline=None)
    @given(ints=st.lists(st.one_of(st.integers(-20, 20), st.none()),
                         min_size=1, max_size=40),
           point=st.integers(-25, 25))
    def test_null_heavy_equality(self, ints, point):
        rows = make_rows([None, "x"], ints, [None])
        sketched, plain = build_pair(rows)
        assert_equivalent(sketched, plain,
                          f"SELECT * FROM t WHERE k = {point}")
        assert_pruner_sound(
            sketched, ast.Compare("=", ast.col("k"), ast.lit(point)))

    def test_lone_surrogate_needle(self):
        """A needle holding a lone surrogate (a str, not UTF-8) probes
        and hashes like any other string; found by the test above."""
        for texts in ([None], ["a\ud800b", None]):
            sketched, _ = build_pair(make_rows(texts, [None], [None]))
            for needle in ("00\ud800", "\ud800"):
                assert_pruner_sound(sketched,
                                    ast.Contains(ast.col("s"), needle))
                assert_pruner_sound(sketched,
                                    ast.EndsWith(ast.col("s"), needle))


class TestFaultTolerance:
    def _rows(self):
        return [[f"value-{i % 5}", i % 9, float(i)]
                for i in range(48)]

    def test_sketch_metadata_outage_fails_open(self):
        sketched, plain = build_pair(self._rows())
        injector = install_faults(sketched, FaultInjector(seed=7))
        injector.mark_unavailable(METADATA, ("sketches", "t"))
        sql = "SELECT * FROM t WHERE CONTAINS(s, 'value-3')"
        got = assert_equivalent(sketched, plain, sql)
        # No sketch pruning happened, but the query still answered.
        assert got.profile.scans[0].sketch_result is None

    def test_full_metadata_outage_still_correct(self):
        sketched, plain = build_pair(self._rows())
        injector = install_faults(sketched, FaultInjector(seed=11))
        injector.set_outage(METADATA)
        sql = "SELECT * FROM t WHERE CONTAINS(s, 'value-2') AND k = 2"
        assert_equivalent(sketched, plain, sql)
        injector.set_outage(METADATA, down=False)
        got = assert_equivalent(sketched, plain, sql)
        assert got.profile.scans[0].sketch_result is not None

    def test_degraded_partitions_never_sketch_pruned(self):
        sketched, _ = build_pair(self._rows())
        base = sketched.scan_set("t")
        victim = base.partition_ids[0]
        degraded = ScanSet(base.entries, degraded_ids=[victim])
        pruner = SketchPruner(
            ast.Contains(ast.col("s"), "no-such-needle"),
            SCHEMA, sketched.sketches_of("t"),
            index=sketched.sketch_index("t"))
        result = pruner.prune(degraded)
        assert victim in result.kept.partition_ids
        assert victim not in result.pruned_ids

    def test_transient_faults_equivalent(self):
        sketched, plain = build_pair(self._rows())
        install_faults(sketched, FaultInjector(
            seed=13, metadata=FaultSpec(timeout_rate=0.2)))
        for point in range(6):
            assert_equivalent(
                sketched, plain,
                f"SELECT * FROM t WHERE k = {point} "
                f"AND CONTAINS(s, 'value-{point}')")


class TestDmlAndRecluster:
    @settings(max_examples=12, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
        needle=st.sampled_from(["alpha", "beta", "gamma", "zzz"]),
    )
    def test_interleaved_dml_stays_equivalent(self, seeds, needle):
        rows = [[f"{w}-{i}", i % 11, float(i % 5)]
                for i, w in enumerate(
                    ["alpha", "beta", "gamma"] * 10)]
        sketched, plain = build_pair(rows)
        sql = (f"SELECT * FROM t WHERE CONTAINS(s, '{needle}') "
               f"AND k = 4")
        for seed in seeds:
            step = seed % 3
            if step == 0:
                new = [[f"alpha-new-{seed}", seed % 11,
                        float(seed % 7)]]
                sketched.insert("t", new)
                plain.insert("t", new)
            elif step == 1:
                pred = ast.Compare("=", ast.col("k"),
                                   ast.lit(seed % 11))
                sketched.delete_where("t", pred)
                plain.delete_where("t", pred)
            else:
                sketched.recluster("t", "k")
            assert_equivalent(sketched, plain, sql)
            assert_pruner_sound(
                sketched, ast.Contains(ast.col("s"), needle))

    def test_recluster_rebuilds_sketches_for_all_partitions(self):
        rows = [[f"word-{i % 4}", i % 6, float(i)]
                for i in range(60)]
        sketched, _ = build_pair(rows)
        before_ids = set(sketched.scan_set("t").partition_ids)
        sketched.recluster("t", "k")
        after_ids = set(sketched.scan_set("t").partition_ids)
        assert after_ids != before_ids  # rewrite actually happened
        sketches = sketched.sketches_of("t")
        assert after_ids <= set(sketches)  # every partition re-sketched
        for pid in before_ids - after_ids:
            assert pid not in sketches  # no stale entries

    def test_update_where_rebuilds(self):
        rows = [[f"word-{i % 4}", i % 6, float(i)]
                for i in range(24)]
        sketched, plain = build_pair(rows)
        pred = ast.Compare("=", ast.col("k"), ast.lit(2))
        sketched.update_where("t", pred, "s", lambda old: "rewritten")
        plain.update_where("t", pred, "s", lambda old: "rewritten")
        assert_equivalent(
            sketched, plain,
            "SELECT * FROM t WHERE CONTAINS(s, 'rewritten')")
        assert_pruner_sound(
            sketched, ast.Contains(ast.col("s"), "word-1"))


class TestSkipSets:
    @staticmethod
    def _pair():
        """Zone maps too wide to prune, sketches disabled (empty
        column set) so only the runtime scan can prove emptiness."""
        rows = []
        for p in range(8):
            for i in range(8):
                if p == 0:
                    k = 3 if i % 2 else 0
                else:
                    k = 7 if i % 2 else 0
                rows.append([f"s{p}-{i}", k, float(k)])
        sketched = Catalog(rows_per_partition=8)
        sketched.create_table_from_rows("t", SCHEMA, rows)
        sketched.enable_sketches(SketchConfig(columns=()))
        plain = Catalog(rows_per_partition=8)
        plain.create_table_from_rows("t", SCHEMA, rows)
        return sketched, plain

    def test_second_execution_skips_proven_empty(self):
        sketched, plain = self._pair()
        sql = "SELECT * FROM t WHERE k = 3"
        first = assert_equivalent(sketched, plain, sql)
        assert not first.profile.scans[0].cache_hit
        assert sketched.predicate_cache.stats()["records"] == 1
        second = assert_equivalent(sketched, plain, sql)
        assert second.profile.scans[0].cache_hit
        assert second.profile.scans[0].skip_set_pruned == 7
        from repro.service import QueryService

        block = QueryService(sketched).describe()["predicate_cache"]
        assert (block["records"], block["hits"]) == (1, 1)

    def test_insert_keeps_the_entry_and_scans_the_new_partition(self):
        sketched, plain = self._pair()
        sql = "SELECT * FROM t WHERE k = 3"
        sketched.sql(sql)
        sketched.sql(sql)  # records, then hits
        new = [["fresh-row", 3, 3.0]]
        sketched.insert("t", new)
        plain.insert("t", new)
        result = assert_equivalent(sketched, plain, sql)
        scan = result.profile.scans[0]
        assert scan.cache_hit and scan.skip_set_pruned == 7
        assert scan.partitions_loaded == 2
        assert any(r[0] == "fresh-row" for r in result.rows)

    def test_incomplete_scans_never_recorded(self):
        sketched, _ = self._pair()
        sketched.sql("SELECT * FROM t WHERE k = 3 LIMIT 2")
        assert sketched.predicate_cache.stats()["records"] == 0

    def test_an_enabled_predicate_cache_is_kept(self):
        catalog = Catalog(rows_per_partition=8)
        cache = catalog.enable_predicate_cache(max_entries=3)
        catalog.enable_sketches()
        assert catalog.predicate_cache is cache


class TestIndexCoverage:
    @pytest.mark.parametrize("ngram_size", [2, 4])
    def test_other_ngram_sizes_stay_sound(self, ngram_size):
        """2-grams pack into one uint64 like the default 3-grams; 4
        do not (21 bits per code point) and take the set path."""
        rows = [[f"text-{i % 3}", i, 0.0] for i in range(24)]
        catalog = Catalog(rows_per_partition=4)
        catalog.create_table_from_rows("t", SCHEMA, rows)
        catalog.enable_sketches(SketchConfig(ngram_size=ngram_size))
        assert all(sketches.ngram["s"].n == ngram_size
                   for sketches in catalog.sketches_of("t").values())
        assert_pruner_sound(catalog,
                            ast.Contains(ast.col("s"), "text-1"))
        assert_pruner_sound(catalog,
                            ast.Contains(ast.col("s"), "absent"))
        sql = "SELECT k FROM t WHERE CONTAINS(s, 'text-1')"
        assert catalog.sql(sql).rows == [(i,) for i in range(1, 24, 3)]
        assert not catalog.sql(
            "SELECT k FROM t WHERE CONTAINS(s, 'absent')").rows

    def test_index_row_lookup_misses_fall_back(self):
        rows = [["abc", 1, 0.0]] * 8
        sketched, _ = build_pair(rows)
        # An index over no partitions covers nothing: scalar path only.
        empty_index = SketchIndex([])
        pruner = SketchPruner(ast.Contains(ast.col("s"), "zzz"),
                              SCHEMA, dict(sketched.sketches_of("t")),
                              index=empty_index)
        result = pruner.prune(sketched.scan_set("t"))
        assert not result.kept.partition_ids  # scalar probes pruned all

    def test_hostile_layout_prunes_and_shows_in_describe(self):
        """Zone maps that span the whole domain in every partition
        prune nothing; the sketches must remove at least half of what
        is left (median over substring and equality probes), and the
        service's describe() must show every partition sketched."""
        from statistics import median

        from repro.service import QueryService

        rows = []
        for p in range(16):
            for i in range(8):
                anchor = ("aaa", "zzz")[i] if i < 2 else f"mk{p:02d}x"
                rows.append([f"{anchor}-payload-mk{p:02d}x-{i}",
                             (0, 99)[i] if i < 2 else p, float(i)])
        sketched, plain = build_pair(rows, rows_per_partition=8)
        ratios = []
        for sql in ([f"SELECT * FROM t WHERE CONTAINS(s, 'mk{p:02d}x')"
                     for p in (1, 6, 11)]
                    + [f"SELECT * FROM t WHERE s LIKE '%mk{p:02d}x-5'"
                       for p in (3, 14)]
                    + [f"SELECT * FROM t WHERE k = {p}"
                       for p in (2, 9)]):
            scan = assert_equivalent(sketched, plain, sql).profile.scans[0]
            assert (scan.filter_result is None
                    or scan.filter_result.pruned == 0), sql
            ratios.append(scan.sketch_result.pruning_ratio)
        assert median(ratios) >= 0.5
        block = QueryService(sketched).describe()["sketches"]
        assert block["partitions_with_sketches"] == 16


class TestArrayPass:
    """``SketchPruner.prune`` classifies by arrays, probe by probe;
    :func:`per_partition_prune` is the loop it replaced. Kept and
    pruned ids (in order), checks and the per-kind attribution must
    agree over degraded ids, partitions without sketches, rows no lane
    covers (sketches of another n-gram size), stale or missing
    indexes, several probes, and hand-built or empty scan sets."""

    TEXTS = ["alpha-1", "beta-22", "gamma-333", "alphabet", "ab", "",
             None, "x\U0010ffffy"]
    CONJUNCTS = st.one_of(
        st.sampled_from(["alp", "beta", "333", "zzz", "ab", "a-"]).map(
            lambda n: ast.Contains(ast.col("s"), n)),
        st.sampled_from(["%alp%", "%ta-2%", "gamma%", "%zzz%", "alpha-1",
                         "%a_1"]).map(lambda p: ast.Like(ast.col("s"), p)),
        st.sampled_from(["et", "-1", "qq"]).map(
            lambda n: ast.EndsWith(ast.col("s"), n)),
        st.integers(-6, 6).map(
            lambda k: ast.Compare("=", ast.col("k"), ast.lit(k))),
        st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(
            lambda ks: ast.InList(ast.col("k"), ks)),
        st.sampled_from([0.5, 2.0, -3.0]).map(
            lambda v: ast.Compare("=", ast.col("v"), ast.lit(v))),
        st.sampled_from(["beta-22", "ab", "nope"]).map(
            lambda t: ast.Compare("=", ast.col("s"), ast.lit(t))))

    @staticmethod
    def _setup(data):
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(TestArrayPass.TEXTS),
            st.one_of(st.none(), st.integers(-6, 6)),
            st.sampled_from([None, 0.5, 2.0, -3.0, 7.25])),
            min_size=1, max_size=40))
        catalog = Catalog(rows_per_partition=3)
        catalog.create_table_from_rows("t", SCHEMA,
                                       [list(row) for row in rows])
        catalog.enable_sketches(SketchConfig(dictionary_max_entries=4))
        sketches = dict(catalog.sketches_of("t"))
        partitions = catalog.tables["t"].partitions
        for partition in partitions:
            fate = data.draw(st.sampled_from(
                ["keep", "keep", "drop", "bigram"]))
            if fate == "drop":
                del sketches[partition.partition_id]
            elif fate == "bigram":
                sketches[partition.partition_id] = build_partition_sketches(
                    partition, SketchConfig(ngram_size=2,
                                            dictionary_max_entries=4))
        index = data.draw(st.sampled_from(
            ["none", "same", "catalog", "partial", "empty"]))
        index = {
            "none": None,
            "same": SketchIndex(sketches.items()),
            "catalog": catalog.sketch_index("t"),
            "partial": SketchIndex(list(sketches.items())[::2]),
            "empty": SketchIndex([]),
        }[index]
        return catalog, sketches, index

    @staticmethod
    def _scan_set(catalog, data):
        base = catalog.scan_set("t")
        positions = data.draw(st.lists(
            st.integers(0, len(base) - 1), unique=True, max_size=len(base)))
        degraded = data.draw(st.lists(st.sampled_from(base.partition_ids),
                                      max_size=3))
        return data.draw(st.sampled_from([
            base,
            base.take(positions),
            ScanSet([base.entries[i] for i in positions]),
            ScanSet(base.entries, degraded_ids=degraded),
            base.take(positions).take(list(range(len(positions)))[::-1]),
            ScanSet([]),
        ]))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_partition_reference(self, data):
        catalog, sketches, index = self._setup(data)
        scan_set = self._scan_set(catalog, data)
        conjuncts = data.draw(st.lists(self.CONJUNCTS, min_size=1,
                                       max_size=4))
        predicate = (conjuncts[0] if len(conjuncts) == 1
                     else ast.And(*conjuncts))
        pruner = SketchPruner(predicate, SCHEMA, sketches, index=index)
        result = pruner.prune(scan_set)
        reference = SketchPruner(predicate, SCHEMA, sketches, index=index)
        kept, pruned, checks, by_kind = per_partition_prune(reference,
                                                            scan_set)
        assert result.kept.partition_ids == kept
        assert result.pruned_ids == pruned
        assert result.checks == pruner.checks == checks
        assert pruner.pruned_by_kind == by_kind
        assert result.before == len(scan_set)
        assert result.kept.degraded_ids == \
            scan_set.degraded_ids & set(kept)

    def test_no_zone_map_materialised_for_10000_partitions(
            self, monkeypatch):
        from repro.pruning import StatsIndex

        n = 10_000
        catalog = Catalog(rows_per_partition=2)
        catalog.create_table_from_rows(
            "t", SCHEMA, [[None, i // 2 % 50, None] for i in range(2 * n)])
        catalog.enable_sketches(SketchConfig(columns=["k"]))
        scan_set = catalog.scan_set("t")
        assert scan_set._entries is None and len(scan_set) == n
        built = []
        zone_map_at = StatsIndex.zone_map_at
        monkeypatch.setattr(
            StatsIndex, "zone_map_at",
            lambda index, row: built.append(row) or zone_map_at(index,
                                                                 row))
        pruner = SketchPruner(
            ast.InList(ast.col("k"), [3, 17]), SCHEMA,
            catalog.sketches_of("t"), index=catalog.sketch_index("t"))
        result = pruner.prune(scan_set)
        assert result.after == n * 2 // 50
        assert pruner.pruned_by_kind == {"member": n - result.after}
        assert result.kept._entries is None
        assert built == []


class TestPersistenceRoundTrip:
    def test_save_load_preserves_sketch_config(self, tmp_path):
        rows = [[f"word-{i % 4}", i % 6, float(i)]
                for i in range(24)]
        sketched, _ = build_pair(rows)
        sketched.save(tmp_path / "snap")
        restored = Catalog.load(tmp_path / "snap")
        assert restored.sketch_config == sketched.sketch_config
        assert restored.sketches_of("t")
        sql = "SELECT * FROM t WHERE CONTAINS(s, 'word-2')"
        assert freeze(restored.sql(sql).rows) \
            == freeze(sketched.sql(sql).rows)

    def test_plain_snapshot_loads_without_sketches(self, tmp_path):
        plain = Catalog(rows_per_partition=4)
        plain.create_table_from_rows(
            "t", SCHEMA, [["a", 1, 0.0]] * 8)
        plain.save(tmp_path / "snap")
        restored = Catalog.load(tmp_path / "snap")
        assert restored.sketch_config is None

    def test_durability_recovery_rebuilds_sketches(self, tmp_path):
        first = Catalog(rows_per_partition=4)
        first.enable_durability(tmp_path / "dur")
        first.enable_sketches()
        rows = [[f"word-{i % 4}", i % 6, float(i)]
                for i in range(24)]
        first.create_table_from_rows("t", SCHEMA, rows)
        first.checkpoint()
        first.insert("t", [["word-extra", 99, 1.0]])

        recovered = Catalog.recover(tmp_path / "dur",
                                    rows_per_partition=4)
        assert recovered.sketch_config is not None
        sketches = recovered.sketches_of("t")
        scan_ids = set(recovered.scan_set("t").partition_ids)
        assert scan_ids <= set(sketches)  # WAL-replayed insert too
        got = recovered.sql("SELECT * FROM t WHERE k = 99")
        assert len(got.rows) == 1

    @pytest.mark.parametrize("legacy_kind", ["cuckoo", "xor"])
    def test_legacy_filter_kind_key_is_ignored(self, tmp_path,
                                               legacy_kind):
        """Manifests and checkpoints written before the membership
        filter stopped being an option carry a ``filter_kind`` key;
        they load through ``load`` and ``recover`` with sketches on
        and prune like a fresh ``enable_sketches()``."""
        legacy = {"ngram_size": 3, "max_ngrams": 8192,
                  "filter_kind": legacy_kind,
                  "dictionary_max_entries": 64,
                  "histogram_buckets": 32, "columns": None}
        assert SketchConfig.from_manifest(legacy) == SketchConfig()
        rows = [[f"word-{i % 4}", i % 6, float(i)]
                for i in range(24)]
        fresh = Catalog(rows_per_partition=4)
        fresh.create_table_from_rows("t", SCHEMA, rows)
        fresh.enable_sketches()
        fresh.save(tmp_path / "snap")
        durable = Catalog(rows_per_partition=4)
        durable.enable_durability(tmp_path / "dur")
        durable.enable_sketches()
        durable.create_table_from_rows("t", SCHEMA, rows)
        checkpoint = durable.checkpoint()
        for root in (tmp_path / "snap", checkpoint.path):
            manifest_path = Path(root) / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            assert "filter_kind" not in manifest["sketches"]
            manifest["sketches"] = legacy
            manifest_path.write_text(json.dumps(manifest))
        sql = "SELECT * FROM t WHERE CONTAINS(s, 'word-2') AND k = 2"
        want = fresh.sql(sql)
        pruned = len(want.profile.scans[0].sketch_result.pruned_ids)
        assert pruned > 0
        for restored in (Catalog.load(tmp_path / "snap"),
                         Catalog.recover(tmp_path / "dur",
                                         rows_per_partition=4)):
            assert restored.sketch_config == SketchConfig()
            assert len(restored.sketches_of("t")) == 6
            got = restored.sql(sql)
            assert freeze(got.rows) == freeze(want.rows)
            assert len(got.profile.scans[0].sketch_result
                       .pruned_ids) == pruned
