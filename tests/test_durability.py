"""Durability: WAL, checkpoints, and the crash-at-every-point sweep.

The core gate of the durability subsystem: after a simulated crash at
*any* enumerated point on the commit path, recovery lands exactly on
the pre-commit or post-commit state — never a third state — verified
by schema/row/checksum fingerprints plus differential query results.
"""

from __future__ import annotations

import shutil
import struct

import pytest

from conftest import make_events_rows
from repro import (
    Catalog,
    DataType,
    Layout,
    QueryService,
    Schema,
)
from repro.durability import DurabilityManager, WriteAheadLog
from repro.durability.wal import iter_frames
from repro.errors import (
    DurabilityError,
    StorageError,
    WalCorruptionError,
)
from repro.faults import CRASH_POINTS, CrashInjector, SimulatedCrash

SCHEMA = Schema.of(
    ts=DataType.INTEGER,
    category=DataType.VARCHAR,
    value=DataType.DOUBLE,
    score=DataType.INTEGER,
)

DIMS_SCHEMA = Schema.of(k=DataType.INTEGER, v=DataType.VARCHAR)

#: crash points that fire on the DML commit path and their expected
#: recovery outcome ("pre" / "post" the crashed mutation)
DML_POINTS = {
    "pre-append": "pre",
    "mid-append": "pre",
    "post-append-pre-apply": "post",
}

CHECKPOINT_POINTS = ("mid-checkpoint", "post-rename")

DIFFERENTIAL_QUERIES = (
    "SELECT * FROM events ORDER BY ts, score",
    "SELECT category, value FROM events WHERE ts >= 20 "
    "ORDER BY ts, score",
    "SELECT count(*) AS c FROM events WHERE score < 500000",
    "SELECT * FROM events WHERE score >= 250000 "
    "ORDER BY ts, score LIMIT 7",
)


def mutation_sequence(seed: int):
    """A deterministic workload hitting every WAL record type.

    Returns ``[(label, callable), ...]``; the callables apply the
    mutation to any catalog, so the same sequence can drive both the
    durable catalog and the always-alive oracle.
    """
    rows = make_events_rows(60, seed=seed, null_every=7)
    extra = make_events_rows(30, seed=seed + 1)
    more = make_events_rows(20, seed=seed + 2)
    return [
        ("create", lambda c: c.create_table_from_rows(
            "events", SCHEMA, rows, layout=Layout.sorted_by("ts"))),
        ("insert", lambda c: c.insert("events", extra)),
        ("delete", lambda c: c.sql(
            "DELETE FROM events WHERE score >= 700000")),
        ("update", lambda c: c.sql(
            "UPDATE events SET value = 1.5 WHERE ts < 20")),
        ("create2", lambda c: c.create_table_from_rows(
            "dims", DIMS_SCHEMA, [(i, f"v{i}") for i in range(8)])),
        ("recluster", lambda c: c.recluster("events", "score")),
        ("drop", lambda c: c.drop_table("dims")),
        ("insert2", lambda c: c.insert("events", more)),
        ("delete2", lambda c: c.sql(
            "DELETE FROM events WHERE category = 'alpha'")),
    ]


def fingerprint(catalog: Catalog):
    """Content identity of a catalog: schemas, rows, and partition
    checksums per table (partition *ids* are deliberately excluded so
    an always-alive oracle catalog is comparable)."""
    out = {}
    for name, table in sorted(catalog.tables.items()):
        out[name] = (
            tuple((f.name, f.dtype.value) for f in table.schema),
            sorted(table.to_rows(), key=repr),
            sorted(p.compute_checksum() for p in table.partitions),
        )
    return out


def assert_queries_agree(recovered: Catalog, expected: Catalog):
    for sql in DIFFERENTIAL_QUERIES:
        assert recovered.sql(sql).rows == expected.sql(sql).rows, sql


def wal_frame_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, end) byte spans of every frame, without CRC checks —
    corruption tests need the spans of frames they are about to damage."""
    header = struct.Struct("<IQI")
    spans = []
    offset = 0
    while offset + header.size <= len(data):
        length, _seq, _crc = header.unpack_from(data, offset)
        end = offset + header.size + length
        if end > len(data):
            break
        spans.append((offset, end))
        offset = end
    return spans


class TestCrashSweep:
    """The core gate: crash at every point, recover, and land exactly
    on the pre- or post-commit oracle."""

    #: (seed, index of the mutation to crash) — two seeds, and crash
    #: sites covering delete, create, recluster, drop, and insert
    CASES = [(11, 2), (11, 4), (11, 5), (23, 3), (23, 6), (23, 7)]

    @pytest.mark.parametrize("point", sorted(DML_POINTS))
    @pytest.mark.parametrize("seed,crash_idx", CASES)
    def test_dml_crash_recovers_to_oracle(self, tmp_path, point,
                                          seed, crash_idx):
        injector = CrashInjector()
        durable = Catalog(rows_per_partition=25)
        durable.enable_durability(tmp_path / "d",
                                  crash_injector=injector)
        oracle = Catalog(rows_per_partition=25)
        pre = post = None
        for index, (label, mutate) in enumerate(
                mutation_sequence(seed)):
            if index == crash_idx:
                pre = fingerprint(durable)
                injector.arm(point, at=1)
                with pytest.raises(SimulatedCrash):
                    mutate(durable)
                mutate(oracle)  # the always-alive post-commit oracle
                post = fingerprint(oracle)
                break
            mutate(durable)
            mutate(oracle)
        assert injector.fired == [point]
        assert pre != post  # the crashed mutation was not a no-op

        recovered = Catalog.recover(tmp_path / "d")
        got = fingerprint(recovered)
        expected = post if DML_POINTS[point] == "post" else pre
        assert got == expected
        assert got in (pre, post)  # no third state, ever
        assert_queries_agree(
            recovered,
            oracle if DML_POINTS[point] == "post" else durable)

    @pytest.mark.parametrize("point", CHECKPOINT_POINTS)
    @pytest.mark.parametrize("seed", (11, 23))
    def test_checkpoint_crash_loses_nothing(self, tmp_path, point,
                                            seed):
        injector = CrashInjector()
        durable = Catalog(rows_per_partition=25)
        durable.enable_durability(tmp_path / "d",
                                  crash_injector=injector)
        for _label, mutate in mutation_sequence(seed):
            mutate(durable)
        final = fingerprint(durable)
        injector.arm(point, at=1)
        with pytest.raises(SimulatedCrash):
            durable.checkpoint()
        assert injector.fired == [point]

        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == final
        # The half-finished checkpoint does not poison the next one.
        recovered.checkpoint()
        assert fingerprint(Catalog.recover(tmp_path / "d")) == final

    @pytest.mark.parametrize("seed", (11, 23))
    def test_recovery_is_deterministic(self, tmp_path, seed):
        """Two recoveries from copies of the same directory rebuild
        bit-identical catalogs — same partition ids, same checksums."""
        injector = CrashInjector()
        durable = Catalog(rows_per_partition=25)
        durable.enable_durability(tmp_path / "d",
                                  crash_injector=injector)
        sequence = mutation_sequence(seed)
        for _label, mutate in sequence[:-1]:
            mutate(durable)
        injector.arm("mid-append", at=1)
        with pytest.raises(SimulatedCrash):
            sequence[-1][1](durable)
        durable.durability.close()
        shutil.copytree(tmp_path / "d", tmp_path / "d2")

        first = Catalog.recover(tmp_path / "d")
        second = Catalog.recover(tmp_path / "d2")
        assert fingerprint(first) == fingerprint(second)
        for name in first.tables:
            assert first.tables[name].partition_ids == \
                second.tables[name].partition_ids

    def test_crash_points_cover_the_enumerated_set(self):
        assert set(DML_POINTS) | set(CHECKPOINT_POINTS) == \
            set(CRASH_POINTS)


class TestTornAndCorruptLogs:
    def _durable_catalog(self, tmp_path, seed=11):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        history = []
        for _label, mutate in mutation_sequence(seed):
            history.append(fingerprint(catalog))
            mutate(catalog)
        catalog.durability.close()
        return catalog, history, tmp_path / "d" / "wal.log"

    def test_garbage_tail_is_tolerated(self, tmp_path):
        catalog, _history, wal_path = self._durable_catalog(tmp_path)
        final = fingerprint(catalog)
        with open(wal_path, "ab") as handle:
            handle.write(b"\x07garbage")  # shorter than a header
        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == final
        assert recovered.durability.wal.torn_tail_repaired

    def test_truncated_final_record_drops_only_it(self, tmp_path):
        catalog, history, wal_path = self._durable_catalog(tmp_path)
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])  # tear the last frame
        recovered = Catalog.recover(tmp_path / "d")
        # State = everything up to (not including) the last mutation.
        assert fingerprint(recovered) == history[-1]

    def test_crc_corrupt_final_record_drops_only_it(self, tmp_path):
        catalog, history, wal_path = self._durable_catalog(tmp_path)
        data = bytearray(wal_path.read_bytes())
        start, end = wal_frame_spans(bytes(data))[-1]
        data[end - 1] ^= 0xFF  # flip a payload byte of the last frame
        wal_path.write_bytes(bytes(data))
        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == history[-1]
        assert recovered.durability.wal.torn_tail_repaired

    def test_corrupt_interior_record_fails_closed(self, tmp_path):
        _catalog, _history, wal_path = self._durable_catalog(tmp_path)
        data = bytearray(wal_path.read_bytes())
        spans = wal_frame_spans(bytes(data))
        assert len(spans) > 2
        _start, end = spans[0]
        data[end - 1] ^= 0xFF  # damage a frame with history after it
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            Catalog.recover(tmp_path / "d")

    def test_missing_interior_record_fails_closed(self, tmp_path):
        _catalog, _history, wal_path = self._durable_catalog(tmp_path)
        data = wal_path.read_bytes()
        spans = wal_frame_spans(data)
        assert len(spans) > 2
        start, end = spans[1]
        wal_path.write_bytes(data[:start] + data[end:])  # splice out
        with pytest.raises(WalCorruptionError):
            Catalog.recover(tmp_path / "d")

    def test_wal_corruption_error_is_typed(self):
        assert issubclass(WalCorruptionError, DurabilityError)
        assert issubclass(DurabilityError, StorageError)


class TestWriteAheadLog:
    def test_append_records_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        records = [{"op": "insert", "n": i} for i in range(5)]
        for record in records:
            wal.append(record)
        assert [r for _s, r in wal.records()] == records
        assert [s for s, _r in wal.records()] == [1, 2, 3, 4, 5]
        wal.close()

    def test_reopen_continues_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append({"op": "a"})
        wal.close()
        reopened = WriteAheadLog(tmp_path / "w.log")
        assert reopened.last_seqno == 1
        seqno, _bytes = reopened.append({"op": "b"})
        assert seqno == 2
        reopened.close()

    def test_truncate_through_keeps_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        for i in range(6):
            wal.append({"n": i})
        wal.truncate_through(4)
        assert [s for s, _r in wal.records()] == [5, 6]
        assert wal.append({"n": 6})[0] == 7
        wal.close()

    def test_seq_floor_survives_full_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        for i in range(3):
            wal.append({"n": i})
        wal.truncate_through(3)
        assert wal.records() == []
        assert wal.last_seqno == 3  # remembered in-process
        wal.close()
        # A fresh open of the empty log needs the floor re-imposed
        # (the manager does this from the checkpoint's seqno).
        reopened = WriteAheadLog(tmp_path / "w.log")
        reopened.ensure_seq_floor(3)
        assert reopened.append({"n": 99})[0] == 4
        reopened.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        wal.append({"op": "keep"})
        wal.close()
        with open(tmp_path / "w.log", "ab") as handle:
            handle.write(b"\x40\x00\x00\x00partial")
        reopened = WriteAheadLog(tmp_path / "w.log")
        assert reopened.torn_tail_repaired
        assert [r for _s, r in reopened.records()] == [{"op": "keep"}]
        # the torn bytes are physically gone
        spans = wal_frame_spans((tmp_path / "w.log").read_bytes())
        assert (tmp_path / "w.log").stat().st_size == spans[-1][1]
        reopened.close()

    def test_iter_frames_rejects_interior_gap(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log")
        for i in range(3):
            wal.append({"n": i})
        wal.close()
        data = wal_path = (tmp_path / "w.log").read_bytes()
        spans = wal_frame_spans(data)
        spliced = data[:spans[1][0]] + data[spans[1][1]:]
        with pytest.raises(WalCorruptionError):
            list(iter_frames(spliced))


class TestCheckpointsAndRecovery:
    def test_checkpoint_bounds_replay(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        sequence = mutation_sequence(11)
        for _label, mutate in sequence[:4]:
            mutate(catalog)
        catalog.checkpoint()
        assert catalog.durability.wal.size() == 0  # truncated behind
        for _label, mutate in sequence[4:]:
            mutate(catalog)

        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == fingerprint(catalog)
        # Only the post-checkpoint tail was replayed — no double-apply.
        stats = recovered.durability.stats()
        assert stats["recovered"]["replayed"] == len(sequence) - 4

    def test_table_versions_survive_checkpoint_and_replay(
            self, tmp_path):
        """Checkpointed versions are restored and the replayed WAL
        tail keeps bumping them: recovery lands on the live version."""
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        sequence = mutation_sequence(11)
        for _label, mutate in sequence[:4]:
            mutate(catalog)
        catalog.checkpoint()
        checkpointed = {name: catalog.table_version(name)
                        for name in catalog.tables}
        for _label, mutate in sequence[4:]:
            mutate(catalog)
        live = {name: catalog.table_version(name)
                for name in catalog.tables}
        assert max(live.values()) > 1
        assert live != checkpointed  # the tail moved some version

        recovered = Catalog.recover(tmp_path / "d")
        assert {name: recovered.table_version(name)
                for name in recovered.tables} == live

    def test_checkpoint_keeps_only_newest(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        for _label, mutate in mutation_sequence(11):
            mutate(catalog)
            catalog.checkpoint()
        checkpoints = catalog.durability.checkpoints.list()
        assert len(checkpoints) == 1

    def test_recover_into_nonempty_catalog_rejected(self, tmp_path):
        seeded = Catalog(rows_per_partition=25)
        seeded.enable_durability(tmp_path / "d")
        mutation_sequence(11)[0][1](seeded)

        occupied = Catalog()
        occupied.create_table_from_rows(
            "other", DIMS_SCHEMA, [(1, "x")])
        with pytest.raises(DurabilityError):
            occupied.enable_durability(tmp_path / "d")

    def test_enable_durability_is_idempotent(self, tmp_path):
        catalog = Catalog()
        manager = catalog.enable_durability(tmp_path / "d")
        assert catalog.enable_durability(tmp_path / "d") is manager

    def test_checkpoint_requires_durability(self):
        with pytest.raises(DurabilityError):
            Catalog().checkpoint()

    def test_tables_created_before_enable_survive(self, tmp_path):
        """The baseline checkpoint captures pre-durability tables."""
        catalog = Catalog(rows_per_partition=25)
        catalog.create_table_from_rows(
            "events", SCHEMA, make_events_rows(40, seed=5))
        catalog.enable_durability(tmp_path / "d")
        catalog.sql("DELETE FROM events WHERE ts >= 30")
        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == fingerprint(catalog)

    def test_recovered_catalog_keeps_logging(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        mutation_sequence(11)[0][1](catalog)
        catalog.durability.close()

        recovered = Catalog.recover(tmp_path / "d")
        recovered.sql("DELETE FROM events WHERE ts < 10")
        final = fingerprint(recovered)
        assert fingerprint(Catalog.recover(tmp_path / "d")) == final


class TestObservability:
    def test_explain_analyze_reports_wal_traffic(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        mutation_sequence(11)[0][1](catalog)
        report = catalog.explain_analyze(
            "DELETE FROM events WHERE ts < 5")
        assert "-- wal: 1 appends / " in report
        assert "wal:append" in report  # the trace event line

    def test_explain_analyze_silent_without_durability(self):
        catalog = Catalog(rows_per_partition=25)
        mutation_sequence(11)[0][1](catalog)
        report = catalog.explain_analyze(
            "DELETE FROM events WHERE ts < 5")
        assert "-- wal:" not in report

    def test_service_durability_surface(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        service = QueryService(catalog,
                               durability_dir=tmp_path / "d")
        catalog.create_table_from_rows(
            "events", SCHEMA, make_events_rows(60, seed=3))
        service.sql("DELETE FROM events WHERE ts >= 50")
        service.insert("events", make_events_rows(10, seed=4))

        snap = service.describe()
        assert snap["durability"]["wal_appends"] >= 3
        assert snap["durability"]["last_seqno"] >= 3
        metrics = service.metrics.snapshot()
        assert metrics["wal_appends"] >= 1
        assert metrics["wal_bytes"] > 0
        records = service.telemetry.records()
        assert any(r.wal_appends for r in records)
        assert any(r.to_dict()["wal_bytes"] for r in records)

        catalog.durability.close()
        recovered = Catalog.recover(tmp_path / "d")
        assert fingerprint(recovered) == fingerprint(catalog)

    def test_service_background_checkpoint_fires(self, tmp_path):
        import time

        catalog = Catalog(rows_per_partition=10)
        service = QueryService(
            catalog, durability_dir=tmp_path / "d",
            durability_checkpoint_bytes=256)
        catalog.create_table_from_rows(
            "events", SCHEMA, make_events_rows(30, seed=3))
        for round_ in range(4):
            service.insert("events",
                           make_events_rows(10, seed=round_ + 10))
            service.sql(f"DELETE FROM events WHERE score >= "
                        f"{900000 - round_}")
        deadline = time.time() + 10
        while time.time() < deadline:
            if service.metrics.counter("checkpoints").value >= 1:
                break
            time.sleep(0.02)
        assert service.metrics.counter("checkpoints").value >= 1
        assert service.describe()["checkpoints"] >= 1
        # Durable state stays recoverable mid-stream.
        recovered = Catalog.recover(tmp_path / "d2")  # fresh dir OK
        assert recovered.tables == {}


class TestWalStatsAccounting:
    def test_manager_stats_shape(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        mutation_sequence(11)[0][1](catalog)
        stats = catalog.durability.stats()
        assert stats["wal_appends"] == 1
        assert stats["wal_bytes"] > 0
        assert stats["last_seqno"] == 1
        assert stats["checkpoints_written"] == 1  # the baseline

    def test_noop_dml_logs_nothing(self, tmp_path):
        catalog = Catalog(rows_per_partition=25)
        catalog.enable_durability(tmp_path / "d")
        mutation_sequence(11)[0][1](catalog)
        before = catalog.durability.wal.appends
        catalog.sql("DELETE FROM events WHERE ts < 0")  # matches none
        catalog.insert("events", [])
        assert catalog.durability.wal.appends == before


class TestVarcharSurvivesRecovery:
    """Checkpoints used to store VARCHAR as fixed-width unicode, which
    drops trailing NULs: ``'a\\x00'`` came back as ``'a'`` with a new
    checksum."""

    ROWS = [(1, "a"), (5, "a\x00"), (6, "\x00"), (7, "\ud800")]

    def _snapshot(self, catalog):
        table = catalog.tables["t"]
        return (table.to_rows(), table.partition_ids,
                [p.checksum for p in table.partitions])

    def test_checkpoint_and_replay_keep_nul_suffixes(self, tmp_path):
        catalog = Catalog(rows_per_partition=1)
        catalog.create_table_from_rows("t", DIMS_SCHEMA, self.ROWS)
        catalog.enable_durability(tmp_path / "d")  # baseline checkpoint
        catalog.insert("t", [(9, "b\x00\x00")])      # WAL tail
        expected = self._snapshot(catalog)
        catalog.durability.close()
        recovered = Catalog.recover(tmp_path / "d")
        assert self._snapshot(recovered) == expected
        assert recovered.tables["t"].to_rows()[1] == (5, "a\x00")
        recovered.durability.close()
