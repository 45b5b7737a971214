"""Pruning results built from verdict codes, against the loop they replaced.

``PruningResult.from_codes`` turns a pruner's int8 verdict codes into a
result with array passes: kept positions from ``flatnonzero``, pruned and
fully-matching ids by masking the scan set's id array. It used to walk
one ``TriState`` per entry and append ids to Python lists. That loop
lives here as the reference (``verdicts_result``), fed from the same
per-entry verdicts the old ``ScanSet.gather`` produced (a kernel value
at trusted rows, the scalar path everywhere else). Hypothesis drives
both over random codes, both scan-set origins, untrusted rows and
degraded ids, and demands the same kept scan set, pruned ids,
fully-matching ids, counts and checks. The two places that add to a
result after the fact, a second join into one scan and a deferred
filter's runtime skips, are compared with the list they used to extend.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro import Catalog
from repro.engine.context import ExecContext
from repro.engine.operators import Scan
from repro.expr import ast
from repro.expr.pruning import TriState
from repro.pruning import (
    JoinPruner,
    PruningResult,
    RangeSetSummary,
    ScanSet,
    StatsIndex,
    VectorizedFilterPruner,
)
from repro.pruning.base import MAYBE_CODE, VERDICT_CODE
from repro.storage.micropartition import MicroPartition
from repro.types import DataType, Schema

SCHEMA = Schema.of(a=DataType.INTEGER)
VERDICTS = [TriState.NEVER, TriState.MAYBE, TriState.ALWAYS]
#: what a pruner that does not report fully-matching partitions reads
#: each code as
VERDICTS_NO_ALWAYS = [TriState.NEVER, TriState.MAYBE, TriState.MAYBE]


# ----------------------------------------------------------------------
# The per-entry reference
# ----------------------------------------------------------------------
def verdicts_result(technique, scan_set, verdicts, checks):
    """The deleted ``PruningResult.from_verdicts`` loop."""
    kept, pruned_ids, fully_matching_ids = [], [], []
    for position, (partition_id, verdict) in enumerate(
            zip(scan_set.partition_ids, verdicts)):
        if verdict is TriState.NEVER:
            pruned_ids.append(partition_id)
            continue
        kept.append(position)
        if verdict is TriState.ALWAYS:
            fully_matching_ids.append(partition_id)
    return PruningResult(technique, len(scan_set), scan_set.take(kept),
                         pruned_ids, fully_matching_ids, checks)


def reference_verdicts(scan_set, per_row, scalar, table):
    """The old ``ScanSet.gather``: per-entry values from ``per_row``
    at trusted rows, ``scalar`` everywhere else."""
    rows = scan_set.trusted_rows.tolist()
    return [table[per_row[row]] if row >= 0 else table[scalar(zone_map)]
            for row, (_, zone_map) in zip(rows, scan_set)]


def observe(result):
    kept = result.kept
    return (result.technique, result.before, result.after, result.pruned,
            result.pruned_ids, result.fully_matching_ids, result.checks,
            kept.partition_ids, kept.trusted_rows.tolist(),
            kept.degraded_ids)


def catalog_of(n_rows):
    """``a`` = 0..n_rows-1 in partitions of ten rows."""
    catalog = Catalog(rows_per_partition=10)
    catalog.create_table_from_rows("t", SCHEMA,
                                   [(i,) for i in range(n_rows)])
    return catalog


# ----------------------------------------------------------------------
# Scan sets: rows of an index, or hand-built entries beside it
# ----------------------------------------------------------------------
@st.composite
def scan_sets(draw):
    n = draw(st.integers(0, 30))
    entries = [(p.partition_id, p.zone_map) for p in (
        MicroPartition.from_rows(SCHEMA, [(i,)]) for i in range(n))]
    index = StatsIndex(entries)
    if draw(st.booleans()):
        rows = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        return ScanSet.of_index(index, np.array(rows, dtype=np.intp)), index
    # hand-built: some entries are stats-free copies the index row does
    # not describe (untrusted), and some of those are degraded
    untrusted = draw(st.sets(st.integers(0, max(n - 1, 0))))
    built = [(pid, zone_map.without_stats() if i in untrusted else zone_map)
             for i, (pid, zone_map) in enumerate(entries)]
    degraded = [pid for i, (pid, _) in enumerate(entries)
                if i in untrusted and draw(st.booleans())]
    return ScanSet(built, degraded_ids=degraded, index=index), index


SHAPES = {"random": st.integers(0, 2), "all_pruned": st.just(0),
          "none_pruned": st.integers(1, 2)}


class TestFromCodes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), built=scan_sets(),
           shape=st.sampled_from(sorted(SHAPES)),
           detect_fm=st.booleans())
    def test_matches_the_verdict_loop(self, data, built, shape,
                                      detect_fm):
        scan_set, index = built
        code = SHAPES[shape]
        per_row = np.array(data.draw(st.lists(
            code, min_size=len(index), max_size=len(index))), dtype=np.int8)
        scalar_codes: dict[int, int] = {}

        def scalar(zone_map):
            key = id(zone_map)
            if key not in scalar_codes:
                scalar_codes[key] = data.draw(code)
            return scalar_codes[key]

        if not detect_fm:
            per_row = np.minimum(per_row, MAYBE_CODE)
        # from_codes first: the reference iterates (materialises) the
        # scan set, which would hide the id-lane path of an of_index set
        codes, from_kernel = scan_set.gather(per_row, scalar)
        if not detect_fm:
            codes = np.minimum(codes, MAYBE_CODE)
        got = PruningResult.from_codes("filter", scan_set, codes, 7)
        assert got.pruned_id_array.dtype == np.int64
        got_seen = observe(got)

        table = VERDICTS if detect_fm else VERDICTS_NO_ALWAYS
        want = verdicts_result("filter", scan_set, reference_verdicts(
            scan_set, per_row, scalar, table), 7)
        assert got_seen == observe(want)
        trusted = int((scan_set.trusted_rows >= 0).sum())
        assert from_kernel == (trusted if len(index) else 0)
        if shape == "all_pruned":
            assert got.after == 0 and got.pruned == len(scan_set)
        if shape == "none_pruned":
            assert got.pruned == 0 and got.after == len(scan_set)

    def test_empty_scan_set(self):
        result = PruningResult.from_codes(
            "filter", ScanSet(), np.zeros(0, dtype=np.int8), 0)
        assert observe(result) == observe(
            verdicts_result("filter", ScanSet(), [], 0))

    def test_filter_and_join_pruners(self):
        catalog = catalog_of(100)
        predicate = ast.Compare(">=", ast.col("a"), ast.lit(55))
        for detect_fm in (True, False):
            scan_set = catalog.scan_set("t")
            pruner = VectorizedFilterPruner(
                predicate, SCHEMA, detect_fully_matching=detect_fm)
            got = observe(pruner.prune(scan_set))
            table = VERDICTS if detect_fm else VERDICTS_NO_ALWAYS
            want = verdicts_result("filter", scan_set, [
                table[VERDICT_CODE[pruner.classify(zone_map)]]
                for _, zone_map in scan_set], len(scan_set))
            assert got == observe(want)
            kept = want.kept.partition_ids
            assert len(kept) == 5
            assert want.fully_matching_ids == (kept[1:] if detect_fm
                                               else [])
        scan_set = catalog.scan_set("t")
        join = JoinPruner("a", RangeSetSummary([3, 4, 60]))
        got = observe(join.prune(scan_set))
        want = verdicts_result("join", scan_set, [
            TriState.MAYBE if join.partition_may_join(zone_map)
            else TriState.NEVER for _, zone_map in scan_set], len(scan_set))
        assert got == observe(want)
        ids = scan_set.partition_ids
        assert want.kept.partition_ids == [ids[0], ids[6]]


class TestAddPruned:
    """``add_pruned`` replaces the two in-place list mutations."""

    @settings(max_examples=100, deadline=None)
    @given(first=st.lists(st.integers(0, 10**6), max_size=20),
           more=st.lists(st.lists(st.integers(0, 10**6), max_size=10),
                         max_size=4),
           runtime=st.integers(0, 30))
    def test_counts_like_the_extended_list(self, first, more, runtime):
        result = PruningResult("join", 50, ScanSet(),
                               np.array(first, dtype=np.int64))
        reference = list(first)
        for ids in more:
            result.add_pruned(PruningResult("join", 9, ScanSet(),
                                            ids).pruned_ids)
            reference.extend(ids)
        for _ in range(runtime):
            result.add_pruned((-1,))
            reference.append(-1)
        assert result.pruned == len(reference)
        assert result.pruned_ids == reference
        assert result.pruning_ratio == len(reference) / 50

    @staticmethod
    def _scan():
        catalog = catalog_of(100)
        return Scan(ExecContext(catalog.storage), "t", SCHEMA,
                    catalog.scan_set("t"))

    def test_two_joins_into_one_scan(self):
        scan = self._scan()
        pruned = []
        for keys in (range(20, 80), range(40, 90)):
            before = scan.scan_set.partition_ids
            scan.apply_join_pruning(JoinPruner("a", RangeSetSummary(
                list(keys))))
            kept = scan.scan_set.partition_ids
            pruned += [pid for pid in before if pid not in kept]
        result = scan.profile.join_result
        assert result.pruned == len(pruned) == 6
        assert result.pruned_ids == pruned
        assert result.kept.partition_ids == scan.scan_set.partition_ids

    def test_runtime_filter_skips(self):
        scan = self._scan()
        scan.attach_deferred_filter(VectorizedFilterPruner(
            ast.Compare("<", ast.col("a"), ast.lit(25)), SCHEMA,
            detect_fully_matching=False))
        # the surviving partitions reach the operator above as runs
        loaded = sum(len(chunk.runs) for chunk in scan)
        result = scan.profile.filter_result
        assert (loaded, result.pruned) == (3, 7)
        assert scan.profile.partitions_loaded == 3
        assert result.pruned_ids == [-1] * 7
